"""Approval-based committee voting rules with exact arithmetic.

Sequential rules (seq-PAV, seq-CC, reverse seq-PAV, seq-Phragmen, Rule X,
greedy Monroe) run their greedy iteration under a fixed tie-break: the
lowest candidate index wins every tie (for deletion rules the highest index
is removed, so low indices survive).  Exact optimization rules report the
lexicographically first optimum or all tied optima.  AV and SAV take them
from the pool of tied candidates; PAV, CC, geometric PAV, Monroe, minimax-AV
and max-Phragmen run one bounded search (`_lex_search`) that adds candidates
in increasing order under a committee-count cap.  It cuts a Thiele prefix
whose score plus its largest gains cannot reach the best score, and once the
completions of a Thiele prefix fit one block it scores them all at once:
each completion is one bit of a Python int and the scores are bit-sliced
counters over those bits (``search.tally``), so a desk-scale profile (m = 16)
is one block.  The other three rules key one committee per last seat.

Thiele scores (PAV, CC, geometric PAV and their sequential forms) are
computed as exact integers: the weights are scaled by the lcm of their
denominators and identical ballots are collapsed into one class with a
multiplicity.  They are reported as `fractions.Fraction` values (CC scores
as `int`s).  seq-Phragmen loads and Rule X budgets are integer numerators
over one common denominator, grouped by value into voter bitmasks: every
approver of a pick gets the same load or pays the same rho, so the groups
stay few and a candidate's sum is one popcount per group.  Loads, balances
and payments are reported as `Fraction`s.  No float enters any decision, so
ties are detected exactly, which the counterexample fixtures rely on.
Monroe scores a committee by one quota assignment (``search.quota_assignment``).
Whether a rule's winners meet the IR or semi-strong JR demands is decided
outside this module, by ``experiment.probe_rule``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, zip_longest
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .model import Committee, Election, _iter_bits, members_mask
from .search import add, maximum, quota_assignment, settle

SEQUENTIAL_RULES = (
    "seq_pav",
    "rev_seq_pav",
    "seq_cc",
    "greedy_monroe",
    "seq_phragmen",
    "rule_x",
)
EXACT_RULES = (
    "av",
    "sav",
    "pav",
    "cc",
    "monroe",
    "max_phragmen",
    "minimax_av",
    "geom_pav",
)
MAX_ENUMERATED_COMMITTEES = 10**7


@dataclass(frozen=True)
class RuleId:
    """A rule identifier; geometric PAV carries its weight base 0 < w < 1."""

    kind: str
    weight: Fraction | None = None

    def __post_init__(self):
        if self.kind not in SEQUENTIAL_RULES + EXACT_RULES:
            raise ValueError(f"unknown rule {self.kind!r}")
        if self.kind == "geom_pav":
            if self.weight is None or not 0 < self.weight < 1:
                raise ValueError("geom_pav requires a weight base in (0, 1)")
        elif self.weight is not None:
            raise ValueError(f"{self.kind} does not take a weight")

    @property
    def is_sequential(self) -> bool:
        return self.kind in SEQUENTIAL_RULES

    def __str__(self) -> str:
        if self.kind == "geom_pav":
            return f"geom_pav[{self.weight}]"
        return self.kind


@dataclass(frozen=True)
class RuleOutcome:
    """Winning committees plus per-committee exact diagnostics."""

    rule: RuleId
    committees: tuple[Committee, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def committee(self) -> Committee:
        return self.committees[0]


# --------------------------------------------------------------------------
# score functions
# --------------------------------------------------------------------------


def _harmonic_weights(upto: int) -> tuple[list[int], int]:
    """PAV weights 1/t for t = 1..upto, scaled by lcm(1..upto)."""
    scale = lcm(*range(1, upto + 1))
    return [scale // t for t in range(1, upto + 1)], scale


def _geometric_weights(upto: int, base: Fraction) -> tuple[list[int], int]:
    """Weights base^(t-1) for t = 1..upto, scaled by q^(upto-1) for base p/q."""
    p, q = base.numerator, base.denominator
    return [p**t * q ** (upto - 1 - t) for t in range(upto)], q ** (upto - 1)


def _thiele_classes(
    election: Election, weights: Sequence[int], depth: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Collapse identical non-empty ballots into classes and tabulate their gains.

    Returns (rows, approvers): rows[i][t] is the scaled score class i gains
    when a committee member becomes its (t+1)-th approved one (t < depth;
    weights beyond the given ones are 0), and approvers[c] lists the classes
    approving candidate c.
    """
    classes = Counter(b for b in election.ballot_masks if b)
    padded = list(weights[:depth]) + [0] * (depth - len(weights))
    rows = [[mult * w for w in padded] for mult in classes.values()]
    approvers: list[list[int]] = [[] for _ in range(election.m)]
    for i, b in enumerate(classes):
        for c in _iter_bits(b):
            approvers[c].append(i)
    return rows, approvers


def _av_candidate_scores(election: Election) -> list[Fraction]:
    return [Fraction(m.bit_count()) for m in election.candidate_voters]


def _sav_candidate_scores(election: Election) -> list[Fraction]:
    scores = [Fraction(0)] * election.m
    for ballot in election.approvals:
        if not ballot:
            continue
        share = Fraction(1, len(ballot))
        for c in ballot:
            scores[c] += share
    return scores


def max_phragmen_load_vector(
    election: Election, members: Sequence[int]
) -> tuple[int, tuple[Fraction, ...], list[Fraction]]:
    """Leximax-optimal load distribution for a fixed committee.

    Each member spreads one unit of load over its approvers.  Returns
    (number of members with no approvers at all, the per-voter loads sorted
    in descending order, the per-voter loads in voter order).  The optimal
    distribution is found by repeatedly extracting the bottleneck subset
    X maximizing |X| / |supporters(X)|; those supporters all carry exactly
    that ratio.
    """
    n = election.n
    loads = [Fraction(0)] * n
    active = [c for c in members if election.candidate_voters[c] != 0]
    dead = len(members) - len(active)
    remaining_voters = election.all_voters_mask()
    remaining = list(active)
    while remaining:
        best_ratio: Fraction | None = None
        best_union = 0
        for r in range(1, len(remaining) + 1):
            for sub in combinations(remaining, r):
                union = 0
                for c in sub:
                    union |= election.candidate_voters[c] & remaining_voters
                if union == 0:
                    continue
                ratio = Fraction(len(sub), union.bit_count())
                if best_ratio is None or ratio > best_ratio:
                    best_ratio, best_union, best_sub = ratio, union, set(sub)
                elif ratio == best_ratio:
                    # tight sets are closed under union; accumulate the maximal one
                    merged = best_union | union
                    merged_sub = best_sub | set(sub)
                    if Fraction(len(merged_sub), merged.bit_count()) == ratio:
                        best_union, best_sub = merged, merged_sub
        if best_ratio is None:
            # remaining members have no remaining approvers; their load is
            # forced onto already-saturated voters, which max-Phragmen
            # never prefers when any alternative exists
            dead += len(remaining)
            break
        for v in _iter_bits(best_union):
            loads[v] = best_ratio
        remaining_voters &= ~best_union
        remaining = [c for c in remaining if c not in best_sub]
    return dead, tuple(sorted(loads, reverse=True)), loads


# --------------------------------------------------------------------------
# sequential rules
# --------------------------------------------------------------------------


def _seq_thiele(election: Election, weights: Sequence[int], scale: int) -> tuple[list[int], list]:
    m, k = election.m, election.k
    rows, approvers = _thiele_classes(election, weights, k)
    counts = [0] * len(rows)
    chosen_mask = 0
    chosen: list[int] = []
    history = []
    for _ in range(k):
        best_c, best_gain = -1, -1
        for c in range(m):
            if chosen_mask >> c & 1:
                continue
            gain = sum([rows[i][counts[i]] for i in approvers[c]])
            if gain > best_gain:
                best_c, best_gain = c, gain
        chosen.append(best_c)
        chosen_mask |= 1 << best_c
        for i in approvers[best_c]:
            counts[i] += 1
        history.append((best_c, Fraction(best_gain, scale)))
    return chosen, history


def _rev_seq_thiele(election: Election) -> tuple[list[int], list]:
    """Reverse seq-PAV: drop the member whose removal loses the least score."""
    depth = max(b.bit_count() for b in election.ballot_masks)
    weights, scale = _harmonic_weights(depth)
    rows, approvers = _thiele_classes(election, weights, depth)
    counts = [0] * len(rows)
    for c in range(election.m):
        for i in approvers[c]:
            counts[i] += 1
    committee = list(range(election.m))
    history = []
    while len(committee) > election.k:
        losses = [
            (sum([rows[i][counts[i] - 1] for i in approvers[c]]), c) for c in committee
        ]
        min_loss = min(loss for loss, _ in losses)
        # remove the largest index among least-loss candidates: low indices survive
        drop = max(c for loss, c in losses if loss == min_loss)
        committee.remove(drop)
        for i in approvers[drop]:
            counts[i] -= 1
        history.append((drop, Fraction(min_loss, scale)))
    return committee, history


def _common_scale(scale: int, num: int, den: int) -> tuple[int, int, int]:
    """Put num/den (den > 0) beside values held over the denominator `scale`.

    Returns the new common denominator (the lcm of `scale` and num/den's
    reduced denominator), the factor that carries the old numerators onto it,
    and num/den's numerator over it.
    """
    g = gcd(num, den)
    new_scale = lcm(scale, den // g)
    return new_scale, new_scale // scale, num // g * (new_scale * g // den)


def _seq_phragmen(
    election: Election,
    groups: dict[int, int] | None = None,
    scale: int = 1,
    partial: Iterable[int] = (),
) -> tuple[list[int], dict[int, int], int]:
    """seq-Phragmen on grouped scaled-integer loads.

    A load is a numerator over the common denominator `scale`; `groups` maps
    each non-zero numerator to the mask of the voters carrying it (every
    other voter has load 0).  A pick gives all its approvers the same load,
    so the groups stay few and a candidate's load sum is one masked popcount
    per group.  New loads num/(scale*w) are compared by cross-multiplying.
    An unapproved candidate is taken only when no approved one is left.
    """
    cv = election.candidate_voters
    groups = groups or {}
    committee = list(partial)
    remaining = [c for c in range(election.m) if cv[c] and c not in committee]
    while len(committee) < election.k:
        if not remaining:  # only unapproved candidates are left
            committee.append(next(c for c in range(election.m) if c not in committee))
            continue
        items = list(groups.items())
        best_c, best_num, best_w = -1, 0, 1
        for c in remaining:
            sup = cv[c]
            num = scale + sum([value * (sup & mask).bit_count() for value, mask in items])
            w = sup.bit_count()
            if best_c < 0 or num * best_w < best_num * w:
                best_c, best_num, best_w = c, num, w
        committee.append(best_c)
        remaining.remove(best_c)
        # the approvers' new load best_num/(scale*best_w), on a common scale
        scale, factor, load = _common_scale(scale, best_num, scale * best_w)
        sup = cv[best_c]
        rest = {value * factor: mask & ~sup for value, mask in groups.items()}
        groups = {value: mask for value, mask in rest.items() if mask}
        if load:
            groups[load] = groups.get(load, 0) | sup
    return committee, groups, scale


def _rule_x(election: Election) -> tuple[list[int], dict]:
    """Method of Equal Shares with unit prices and k/n starting budgets,
    completed by continuing seq-Phragmen on the residual budgets.

    Budgets are grouped scaled integers as in `_seq_phragmen` (numerator ->
    voter mask over the common denominator `scale`, zero budgets implicit).
    A candidate's payment rho, the smallest with sum_{approvers} min(b_v,
    rho) = 1, is a/(scale*rich): walking the groups in increasing budget
    order, a group whose budget p has p*rich < a pays all it has and leaves
    the rich.
    """
    n, k = election.n, election.k
    cv = election.candidate_voters
    groups, scale = {k: election.all_voters_mask()}, n
    committee: list[int] = []
    remaining = [c for c in range(election.m) if cv[c]]
    rhos: list[Fraction] = []
    while len(committee) < k:
        ordered = sorted(groups.items())
        best_c, best_a, best_r = -1, 0, 1
        for c in remaining:
            sup = cv[c]
            counts = [(value, (sup & mask).bit_count()) for value, mask in ordered]
            if sum([value * cnt for value, cnt in counts]) < scale:
                continue  # the approvers cannot afford c
            a, rich = scale, sum([cnt for _, cnt in counts])
            for value, cnt in counts:
                if value * rich >= a:
                    break
                a -= value * cnt
                rich -= cnt
            if best_c < 0 or a * best_r < best_a * rich:
                best_c, best_a, best_r = c, a, rich
        if best_c == -1:
            break  # no candidate affordable; complete via seq-Phragmen
        committee.append(best_c)
        remaining.remove(best_c)
        rhos.append(Fraction(best_a, scale * best_r))
        # every approver pays min(b_v, rho), on a common scale
        scale, factor, rho = _common_scale(scale, best_a, scale * best_r)
        sup = cv[best_c]
        paid: dict[int, int] = {}
        for value, mask in groups.items():
            value *= factor
            for left, part in ((value, mask & ~sup), (value - rho, mask & sup)):
                if part and left > 0:
                    paid[left] = paid.get(left, 0) | part
        groups = paid
    completed = False
    if len(committee) < k:
        completed = True
        negated = {-value: mask for value, mask in groups.items()}
        committee, _, _ = _seq_phragmen(election, negated, scale, partial=committee)
    meta = {
        "balances": _per_voter(election, groups, scale),
        "rhos": tuple(rhos),
        "completion": "seq_phragmen" if completed else None,
    }
    return committee, meta


def _per_voter(election: Election, groups: dict[int, int], scale: int) -> tuple[Fraction, ...]:
    """Expand grouped scaled values into one `Fraction` per voter."""
    values = [Fraction(0)] * election.n
    for value, mask in groups.items():
        exact = Fraction(value, scale)
        for v in _iter_bits(mask):
            values[v] = exact
    return tuple(values)


def _greedy_monroe(election: Election) -> tuple[list[int], list]:
    """Each seat goes to the free candidate with the most unassigned approvers
    (lowest index on ties), who takes the first ``quota`` of them."""
    n, k = election.n, election.k
    cand_voters = election.candidate_voters
    remaining = election.all_voters_mask()
    free = list(range(election.m))
    committee = []
    assignment = []
    for t in range(k):
        quota = n // k + (1 if t < n % k else 0)
        best = max(free, key=lambda c: ((cand_voters[c] & remaining).bit_count(), -c))
        free.remove(best)
        removed = tuple(islice(_iter_bits(cand_voters[best] & remaining), quota))
        remaining &= ~members_mask(removed)
        assignment.append((best, removed))
        committee.append(best)
    return committee, assignment


# --------------------------------------------------------------------------
# exact optimization rules
# --------------------------------------------------------------------------


def _lex_search(election: Election, push, pop, leaves, fits, bound, all_tied: bool) -> tuple:
    """Maximise a key over all size-k committees, in lexicographic order.

    Candidates are added in increasing order, so committees are visited in
    `itertools.combinations` order: the first optimum found is the lex-first
    one and ties are listed in that order.  ``push(c)``/``pop(c)`` add and
    remove a prefix member.  Once ``fits(p, r)`` holds for the pool of the p
    candidates from nxt on and the r seats left, ``leaves(nxt, r)`` scores
    every completion by r of them as one block: it yields (key, completion)
    pairs in lex order, and a pair is kept only with a key above the best so
    far (or equal to it, when all ties are wanted).  ``bound(nxt, r)`` (None
    for no bound) bounds the key of every completion by r members from
    nxt..m-1 from above; a prefix that cannot beat the best key (or tie it,
    when all ties are wanted) is cut.  It is asked only with two or more
    seats left and a pool of at least twice the seats, where a cut outweighs
    its cost.  Returns the optimal committees and their key.
    """
    m, k = election.m, election.k
    if comb(m, k) > MAX_ENUMERATED_COMMITTEES:
        raise RuntimeError(f"C({m},{k}) exceeds the committee enumeration cap")
    # fits(m - nxt, r) holds from nxt = start[r] on, as pools only shrink; a
    # prefix with no seat left is a block of one committee
    start = [0] + [
        next((x for x in range(m - r + 1) if fits(m - x, r)), m) for r in range(1, k + 1)
    ]
    best, winners = None, []
    chosen: list[int] = []
    nxt = 0
    while True:
        left = k - len(chosen)  # seats still to fill
        if start[left] <= nxt <= m - left:
            for key, tail in leaves(nxt, left):
                if best is None or key > best:
                    best, winners = key, [(*chosen, *tail)]
                elif key == best and all_tied:
                    winners.append((*chosen, *tail))
        elif nxt <= m - left:
            push(nxt)
            chosen.append(nxt)
            nxt += 1
            if m - nxt < 2 * (left - 1) or left < 3 or best is None or bound is None:
                continue
            upper = bound(nxt, left - 1)
            if upper > best or (upper == best and all_tied):
                continue
        if not chosen:
            return winners, best
        last = chosen.pop()
        pop(last)
        nxt = last + 1


_BLOCK_BITS = 1 << 22  # a block's membership table: pool * C(pool, seats) bits


@lru_cache(maxsize=32)
def _memberships(p: int, r: int) -> tuple[int, ...]:
    """Bit j of masks[c] is set iff c is in the j-th r-subset of range(p), in
    `itertools.combinations` order.

    Built by the lex split, from the last members up: the t-subsets of the
    last q members that take the first of them come first, as a block of
    C(q-1, t-1), and the others follow, shifted up past that block.
    """
    rows: list[list[int]] = [[] for _ in range(r + 1)]  # rows[t]: t-subsets of the last q
    for q in range(1, p + 1):
        for t in range(min(q, r), max(0, r - p + q) - 1, -1):
            if t:
                head = comb(q - 1, t - 1)
                rest = zip_longest(rows[t - 1], rows[t], fillvalue=0)
                rows[t] = [(1 << head) - 1] + [a | b << head for a, b in rest]
            else:
                rows[0] = [0] * q
    return tuple(rows[r])


def _unrank(j: int, p: int, r: int) -> list[int]:
    """The j-th r-subset of range(p) in `itertools.combinations` order."""
    out = []
    c = 0
    while r:
        head = comb(p - c - 1, r - 1)  # the subsets that take c next
        if j < head:
            out.append(c)
            r -= 1
        else:
            j -= head
        c += 1
    return out


def _thiele_search(election: Election, weights: Sequence[int], all_tied: bool) -> tuple[list, int]:
    """Maximise a scaled-integer Thiele score with `_lex_search`.

    Adding a member rescores only the classes approving it.  The weights
    never increase, so a candidate's gain only shrinks as members join: the
    score plus the r largest current gains bounds every completion by r
    members.  A block scores all its completions at once, one lane each, in
    bit-sliced counters: for a class with t0 approved prefix members, the
    layer masks G[t] of the completions adding at least t approved members
    follow from ``G[t] |= G[t-1] & masks[c]`` over its pool members c; the
    class's voters gain weight t0 + t - 1 on G[t], so they are counted there,
    and the block's score is those counts times the weights.
    """
    m, k = election.m, election.k
    rows, approvers = _thiele_classes(election, weights, k)
    classes = Counter(b for b in election.ballot_masks if b)  # as in `_thiele_classes`
    depth = min(len(weights), k)  # weights past it are 0
    counts = [0] * len(rows)
    saved: list[int] = []  # the score before each member pushed
    score = 0

    def push(c):
        nonlocal score
        saved.append(score)
        for i in approvers[c]:
            score += rows[i][counts[i]]
            counts[i] += 1

    def pop(c):
        nonlocal score
        score = saved.pop()
        for i in approvers[c]:
            counts[i] -= 1

    def leaves(nxt, r):
        p = m - nxt
        masks = _memberships(p, r) if r > 1 else ()
        lanes = (1 << comb(p, r)) - 1
        gained = [[] for _ in range(depth)]  # per lane, the voters gaining weight j (carry-save)
        for (ballot, mult), t0 in zip(classes.items(), counts):
            part = ballot >> nxt
            most = min(r, depth - t0)  # approved members past it gain nothing
            if not part or most <= 0:
                continue
            if r == 1:  # lane c is the completion by candidate nxt + c
                layers = [lanes, part]
            else:
                layers = [lanes]
                for c in _iter_bits(part):
                    mc = masks[c]
                    t = len(layers) - 1
                    if t < most:
                        layers.append(layers[t] & mc)
                    while t:
                        layers[t] |= layers[t - 1] & mc
                        t -= 1
            for j, layer in enumerate(layers[1:], t0):
                add(gained[j], mult, layer)
        total = []
        for w, voters in zip(weights, gained):
            for b, s in enumerate(settle(voters)):
                add(total, w << b, s)
        value, tied = maximum(settle(total), lanes)
        if not all_tied:
            tied &= -tied
        for j in _iter_bits(tied):
            yield score + value, [nxt + c for c in _unrank(j, p, r)]

    def fits(p, r):
        return p * comb(p, r) <= _BLOCK_BITS

    def bound(nxt, r):
        gains = [row[t] for row, t in zip(rows, counts)]
        pool = sorted([sum([gains[i] for i in approvers[c]]) for c in range(nxt, election.m)])
        return score + sum(pool[-r:])

    return _lex_search(election, push, pop, leaves, fits, bound, all_tied)


def _minimax_key(election: Election, members: Sequence[int]) -> int:
    """The largest Hamming distance from a ballot to the committee, negated."""
    wmask = members_mask(members)
    return -max([(b ^ wmask).bit_count() for b in election.ballot_masks], default=0)


def _phragmen_key(election: Election, members: Sequence[int]) -> tuple:
    """Fewer members without approvers, then the leximax-smaller load vector."""
    dead, loads, _ = max_phragmen_load_vector(election, members)
    return -dead, tuple([-x for x in loads])


_COMMITTEE_KEYS = {
    "monroe": lambda election, members: quota_assignment(election, members)[0],
    "minimax_av": _minimax_key,
    "max_phragmen": _phragmen_key,
}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def run_rule(election: Election, rule: RuleId, mode: str = "single") -> RuleOutcome:
    """Run one ABC rule; `all_tied` is available for exact-optimization rules."""
    if mode not in ("single", "all_tied"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all_tied" and rule.is_sequential:
        raise ValueError(f"{rule} is sequential; all_tied applies to exact rules only")
    all_tied = mode == "all_tied"
    k = election.k

    if rule.kind in ("av", "sav"):
        scores = (
            _av_candidate_scores(election)
            if rule.kind == "av"
            else _sav_candidate_scores(election)
        )
        ranked = sorted(range(election.m), key=lambda c: (-scores[c], c))
        threshold = scores[ranked[k - 1]]
        mandatory = [c for c in range(election.m) if scores[c] > threshold]
        optional = [c for c in range(election.m) if scores[c] == threshold]
        if all_tied:
            slots = k - len(mandatory)
            if comb(len(optional), slots) > MAX_ENUMERATED_COMMITTEES:
                raise RuntimeError("too many tied committees")
            committees = [
                tuple(sorted(mandatory + list(extra)))
                for extra in combinations(optional, slots)
            ]
        else:
            committees = [tuple(sorted(mandatory + optional[: k - len(mandatory)]))]
        return _outcome(election, rule, committees, {"candidate_scores": tuple(scores)})

    if rule.kind == "cc":
        best, top = _thiele_search(election, [1], all_tied)
        return _outcome(election, rule, best, {"score": top})
    if rule.kind in ("pav", "geom_pav"):
        weights, scale = (
            _harmonic_weights(k) if rule.kind == "pav" else _geometric_weights(k, rule.weight)
        )
        best, top = _thiele_search(election, weights, all_tied)
        return _outcome(election, rule, best, {"score": Fraction(top, scale)})

    if rule.kind in ("monroe", "minimax_av", "max_phragmen"):
        key, members = _COMMITTEE_KEYS[rule.kind], []
        pop = lambda c: members.pop()
        leaves = lambda nxt, r: (
            (key(election, (*members, c)), (c,)) for c in range(nxt, election.m)
        )
        fits = lambda p, r: r == 1
        best, top = _lex_search(election, members.append, pop, leaves, fits, None, all_tied)
        if rule.kind == "monroe":
            return _outcome(election, rule, best, {"score": top})
        if rule.kind == "minimax_av":
            return _outcome(election, rule, best, {"max_hamming": -top})
        loads = {w: tuple(max_phragmen_load_vector(election, w)[2]) for w in best}
        return _outcome(election, rule, best, {"load_vectors": loads})

    if rule.kind == "seq_pav":
        chosen, history = _seq_thiele(election, *_harmonic_weights(k))
        return _outcome(election, rule, [tuple(sorted(chosen))], {"picks": history})
    if rule.kind == "seq_cc":
        chosen, history = _seq_thiele(election, [1], 1)
        return _outcome(election, rule, [tuple(sorted(chosen))], {"picks": history})
    if rule.kind == "rev_seq_pav":
        chosen, history = _rev_seq_thiele(election)
        return _outcome(election, rule, [tuple(sorted(chosen))], {"removals": history})
    if rule.kind == "seq_phragmen":
        chosen, groups, scale = _seq_phragmen(election)
        loads = _per_voter(election, groups, scale)
        return _outcome(
            election, rule, [tuple(sorted(chosen))], {"loads": loads, "order": tuple(chosen)}
        )
    if rule.kind == "rule_x":
        chosen, meta = _rule_x(election)
        return _outcome(election, rule, [tuple(sorted(chosen))], meta)
    if rule.kind == "greedy_monroe":
        chosen, assignment = _greedy_monroe(election)
        return _outcome(
            election, rule, [tuple(sorted(chosen))], {"assignment": tuple(assignment)}
        )
    raise AssertionError(rule.kind)


def _outcome(election, rule, combos, diagnostics) -> RuleOutcome:
    committees = tuple(Committee.of(c, election) for c in combos)
    return RuleOutcome(rule=rule, committees=committees, diagnostics=diagnostics)
