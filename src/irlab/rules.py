"""Approval-based committee voting rules with exact arithmetic.

Sequential rules (seq-PAV, seq-CC, reverse seq-PAV, seq-Phragmen, Rule X,
greedy Monroe) run their greedy iteration under a fixed tie-break: the
lowest candidate index wins every tie (for deletion rules the highest index
is removed, so low indices survive).  Exact optimization rules report the
lexicographically first optimum or all tied optima.  AV and SAV take them
from the pool of tied candidates.  The other six visit the committees in
`itertools.combinations` order under a committee-count cap
(`enumeration_guard`).  PAV, CC and geometric PAV walk lex prefixes
(`_thiele_search`), holding the prefix alone: a prefix whose score plus its
largest gains cannot reach the best score is cut, and once the completions
of a prefix fit one block they are scored all at once: each completion is
one bit of a Python int, the layers of its members come from
``search.lift`` and the scores are bit-sliced counters over those bits
(``search.add``, ``settle``, ``maximum``), so a desk-scale profile (m = 16)
is one block.  Monroe, minimax-AV and max-Phragmen key every committee
(`_committee_search`).

Every kernel works on integers.  Thiele scores (PAV, CC, geometric PAV and
their sequential forms) are scaled by the lcm of the weights' denominators;
identical ballots are collapsed into one class with a multiplicity, and
seq-PAV, seq-CC and reverse seq-PAV hold the voters in the same at-least
layers (``search.lift``) by how many members they approve.
AV and SAV rank approval counts and SAV shares as numerators over the lcm
of the ballot sizes.  seq-Phragmen loads and Rule X budgets are integer
numerators over one common denominator, grouped by value into voter
bitmasks: every approver of a pick gets the same load or pays the same rho,
so the groups stay few and a candidate's sum is one popcount per group.
Only `run_rule` turns these into `fractions.Fraction` diagnostics (CC
scores stay `int`s) and `Committee`s.  No float enters any decision, so ties
are detected exactly, which the counterexample fixtures rely on.  Monroe
scores a committee by one quota assignment (``search.quota_assignment``).

`probe` is the experiment's question: per demand vector, does some winner
give every voter that many approved members?  It runs the same kernels and
builds no `Committee` and no `Fraction`.  Sequential rules and Monroe,
minimax-AV and max-Phragmen test each winner's mask.  The Thiele searches,
and AV and SAV as a weightless search over their tied pool, test the demands
on the tied lanes of each block, so a tied winner is never listed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .model import Committee, Election, _iter_bits, first_unmet, members_mask, padding
from .search import add, lift, maximum, memberships, quota_assignment, settle, unrank

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


def _ballot_classes(
    election: Election, wanted: Sequence[Sequence[int]] = ()
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Voters with one ballot (and one demand in each vector of ``wanted``)
    collapsed into (ballot mask, multiplicity, demands) classes."""
    counted = Counter(zip(election.ballot_masks, *wanted))
    return [(key[0], mult, key[1:]) for key, mult in counted.items()]


def _approval_ranking(
    election: Election, kind: str, all_tied: bool
) -> tuple[list[int], int, list[int], list[int]]:
    """AV or SAV scores as integer numerators over one denominator (1 for
    AV; for SAV the lcm of the non-empty ballot sizes), the candidates
    scoring above the k-th best score, and those tied with it.

    Raises when all tied winners are wanted and they are too many to list.
    """
    m, k = election.m, election.k
    if kind == "av":
        scores, scale = [v.bit_count() for v in election.candidate_voters], 1
    else:
        classes = [(b, mult) for b, mult, _ in _ballot_classes(election) if b]
        scale = lcm(*[b.bit_count() for b, _ in classes])
        scores = [0] * m
        for b, mult in classes:
            share = scale // b.bit_count() * mult
            for c in _iter_bits(b):
                scores[c] += share
    threshold = sorted(scores, reverse=True)[k - 1]
    mandatory = [c for c in range(m) if scores[c] > threshold]
    optional = [c for c in range(m) if scores[c] == threshold]
    if all_tied and comb(len(optional), k - len(mandatory)) > MAX_ENUMERATED_COMMITTEES:
        raise RuntimeError("too many tied committees")
    return scores, scale, mandatory, optional


def max_phragmen_load_vector(
    election: Election, members: Sequence[int]
) -> tuple[int, tuple[Fraction, ...], list[Fraction]]:
    """Leximax-optimal load distribution for a fixed committee.

    Each member spreads one unit of load over its approvers.  Returns
    (number of members with no approvers at all, the per-voter loads sorted
    in descending order, the per-voter loads in voter order).  The optimal
    distribution is found by repeatedly extracting the bottleneck subset
    X maximizing |X| / |supporters(X)|; those supporters all carry exactly
    that ratio.  Ratios are compared by cross-multiplication.  The subsets
    at the largest ratio λ are closed under union (|X| - λ|N(X)| is
    supermodular and at most 0), so the bottleneck is the union of them all.
    """
    loads = [Fraction(0)] * election.n
    active = [c for c in members if election.candidate_voters[c] != 0]
    dead = len(members) - len(active)
    remaining_voters = election.all_voters_mask()
    remaining = list(active)
    # no subset's union is empty: a member left after a bottleneck X* is
    # removed keeps an approver outside N(X*), or X* plus it had a higher ratio
    while remaining:
        size, backers, best_union, best_sub = 0, 1, 0, set()  # the best ratio size/backers
        for r in range(1, len(remaining) + 1):
            for sub in combinations(remaining, r):
                union = 0
                for c in sub:
                    union |= election.candidate_voters[c] & remaining_voters
                count = union.bit_count()
                if r * backers > size * count:
                    size, backers, best_union, best_sub = r, count, union, set(sub)
                elif r * backers == size * count:
                    best_union |= union
                    best_sub.update(sub)
        load = Fraction(size, backers)
        for v in _iter_bits(best_union):
            loads[v] = load
        remaining_voters &= ~best_union
        remaining = [c for c in remaining if c not in best_sub]
    return dead, tuple(sorted(loads, reverse=True)), loads


# --------------------------------------------------------------------------
# sequential rules
# --------------------------------------------------------------------------


def _seq_thiele(election: Election, weights: Sequence[int]) -> tuple[list[int], list[int]]:
    """The picks in order and their scaled gains.

    Voters are held in at-least layers by how many picks they approve, and
    each pick lifts its approvers (`search.lift`).  The voters approving
    exactly t picks are held[t] ^ held[t + 1], so a candidate's gain is one
    masked popcount per such layer that still gains weight.
    """
    cv = election.candidate_voters
    held = [election.all_voters_mask()]
    free = list(range(election.m))
    chosen: list[int] = []
    gains = []
    for _ in range(election.k):
        active = [(w, lo ^ hi) for w, lo, hi in zip(weights, held, held[1:] + [0]) if lo != hi]
        best_c, best_gain = -1, -1
        for c in free:
            voters = cv[c]
            gain = sum([w * (voters & layer).bit_count() for w, layer in active])
            if gain > best_gain:
                best_c, best_gain = c, gain
        chosen.append(best_c)
        free.remove(best_c)
        gains.append(best_gain)
        lift(held, cv, 1 << best_c, len(weights))
    return chosen, gains


def _rev_seq_thiele(election: Election) -> tuple[list[int], list[tuple[int, int]], int]:
    """Reverse seq-PAV: drop the member whose removal loses the least score.

    Voters are held in `_seq_thiele`'s at-least layers, lifted once by all m
    candidates: a voter approving exactly t members loses the t-th weight
    when one of them is dropped, and a drop moves its approvers down one
    layer.  Returns the committee, the (dropped candidate, scaled loss)
    pairs in order and the scale.
    """
    cv = election.candidate_voters
    depth = max(b.bit_count() for b in election.ballot_masks)
    weights, scale = _harmonic_weights(depth)
    held = [election.all_voters_mask()]
    lift(held, cv, (1 << election.m) - 1, depth)
    committee = list(range(election.m))
    history = []
    while len(committee) > election.k:
        exact = [(w, lo ^ hi) for w, lo, hi in zip(weights, held[1:], held[2:] + [0])]
        losses = [(sum([w * (cv[c] & x).bit_count() for w, x in exact]), c) for c in committee]
        min_loss = min(loss for loss, _ in losses)
        # remove the largest index among least-loss candidates: low indices survive
        drop = max(c for loss, c in losses if loss == min_loss)
        committee.remove(drop)
        held[1:] = [lo & ~cv[drop] | hi & cv[drop] for lo, hi in zip(held[1:], held[2:] + [0])]
        history.append((drop, min_loss))
    return committee, history, scale


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
    Once no approved candidate is left, `padding` fills the other seats.
    """
    cv = election.candidate_voters
    groups = groups or {}
    committee = list(partial)
    remaining = [c for c in range(election.m) if cv[c] and c not in committee]
    while remaining and len(committee) < election.k:
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
    committee.extend(padding(election, committee))
    return committee, groups, scale


def _rule_x(
    election: Election,
) -> tuple[list[int], dict[int, int], int, list[tuple[int, int]], bool]:
    """Method of Equal Shares with unit prices and k/n starting budgets,
    completed by continuing seq-Phragmen on the residual budgets.

    Budgets are grouped scaled integers as in `_seq_phragmen` (numerator ->
    voter mask over the common denominator `scale`, zero budgets implicit).
    A candidate's payment rho, the smallest with sum_{approvers} min(b_v,
    rho) = 1, is a/(scale*rich): walking the groups in increasing budget
    order, a group whose budget p has p*rich < a pays all it has and leaves
    the rich.  Budgets only shrink (an approver pays min(b_v, rho), everyone
    else keeps theirs), so a candidate found unaffordable stays so: each scan
    tests only the candidates the last one found affordable, less the pick.
    Returns the committee, the final budget groups and their scale, each
    pick's rho as a (numerator, denominator) pair, and whether seq-Phragmen
    completed the committee.
    """
    n, k = election.n, election.k
    cv = election.candidate_voters
    groups, scale = {k: election.all_voters_mask()}, n
    committee: list[int] = []
    remaining = [c for c in range(election.m) if cv[c]]
    rhos: list[tuple[int, int]] = []
    while len(committee) < k:
        ordered = sorted(groups.items())
        best_c, best_a, best_r = -1, 0, 1
        affordable = []
        for c in remaining:
            sup = cv[c]
            counts = [(value, (sup & mask).bit_count()) for value, mask in ordered]
            if sum([value * cnt for value, cnt in counts]) < scale:
                continue  # the approvers cannot afford c, now or after any pick
            affordable.append(c)
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
        affordable.remove(best_c)
        remaining = affordable
        rhos.append((best_a, scale * best_r))
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
    completed = len(committee) < k
    if completed:
        negated = {-value: mask for value, mask in groups.items()}
        committee, _, _ = _seq_phragmen(election, negated, scale, partial=committee)
    return committee, groups, scale, rhos, completed


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


def enumeration_guard(rule: RuleId, m: int, k: int) -> None:
    """Raise, as `run_rule` and `probe` do first, when ``rule`` would search
    more than MAX_ENUMERATED_COMMITTEES committees on any profile with m
    candidates and committee size k: PAV, CC, geometric PAV, Monroe,
    minimax-AV and max-Phragmen search all C(m, k).  Sequential rules search
    none, and AV and SAV only their tied pool, so their cap depends on the
    profile (`_approval_ranking`)."""
    searches_all = rule.kind in EXACT_RULES and rule.kind not in ("av", "sav")
    if searches_all and comb(m, k) > MAX_ENUMERATED_COMMITTEES:
        raise RuntimeError(f"C({m},{k}) exceeds the committee enumeration cap")


_BLOCK_BITS = 1 << 22  # a block's membership table: pool * C(pool, seats) bits


def _thiele_search(
    m: int,
    k: int,
    classes: Sequence[tuple[int, int, tuple[int, ...]]],
    weights: Sequence[int],
    all_tied: bool,
    width: int | None = None,
) -> tuple[list, int]:
    """Maximise a scaled-integer Thiele score over the k-subsets of range(m).
    ``classes`` come from `_ballot_classes`.

    Candidates join a prefix in increasing order, so committees are visited
    in `itertools.combinations` order: the first optimum found is the
    lex-first one and ties are listed in that order.  The walk holds the
    prefix alone: a class's t0 approved prefix members are one popcount under
    the prefix mask, and its voters score the first t0 weights each.  The
    weights never increase, so a candidate's gain only shrinks as members
    join: the prefix score plus the r largest gains past it bounds every
    completion by r members, and a prefix that cannot beat the best key (or
    tie it, when all ties are wanted) is cut.  The bound is asked only for
    two or more seats left, a pool of at least twice the seats, a best key so
    far and some weight, where a cut outweighs its cost.

    Once the pool of the p candidates past a prefix and its r seats left fit
    one block (p * C(p, r) membership bits at most `_BLOCK_BITS`), the block
    scores all its completions at once, one lane each, in bit-sliced
    counters: a class with t0 approved prefix members gains weight t0 + t - 1
    on the lanes of its at-least layer G[t] (`search.lift` over the block's
    `search.memberships`), so its voters are counted there, and the block's
    score is those counts times the weights.  A winner is kept only with a
    key above the best so far (or equal to it, when all ties are wanted).

    Given the ``width`` of the classes' demand vectors, the search probes
    instead of listing winners: a block yields one pair, its best key and,
    per demand vector, whether a tied lane meets every class's demand d,
    that is, lies in G[d - t0] of every class.  The kept pairs are the
    blocks that hold the tied winners.  Returns the kept winners (or pairs)
    and the best key.
    """
    depth = min(len(weights), k)  # weights past it are 0
    score_of = list(accumulate([*weights[:depth]] + [0] * (k - depth), initial=0))
    deepest = [max(need, default=0) for _, _, need in classes]

    def prefix_counts():
        """Each class's approved prefix members, and the prefix's score."""
        if not chosen:  # the one prefix a one-block search asks about
            return [0] * len(classes), 0
        prefix = members_mask(chosen)
        counts = [(ballot & prefix).bit_count() for ballot, _, _ in classes]
        return counts, sum([mult * score_of[t] for (_, mult, _), t in zip(classes, counts)])

    def block(nxt, r):
        counts, score = prefix_counts()
        p = m - nxt
        masks = memberships(p, r) if r > 1 else ()
        lanes = (1 << comb(p, r)) - 1
        gained = [[] for _ in range(depth)]  # per lane, the voters gaining weight j (carry-save)
        hits = [lanes] * (width or 0)
        for (ballot, mult, need), t0, deep in zip(classes, counts, deepest):
            part = ballot >> nxt
            most = min(r, depth - t0)  # approved members past it gain nothing
            top = min(r, max(most, deep - t0)) if part else 0
            layers = [lanes, part] if r == 1 and top else [lanes]  # r = 1: lane c is c alone
            if r > 1 and top:
                lift(layers, masks, part, top)
            if most > 0:
                for j, layer in enumerate(layers[1 : most + 1], t0):
                    add(gained[j], mult, layer)
            if deep > t0:
                for j, d in enumerate(need):
                    if d > t0:
                        hits[j] &= layers[d - t0] if d - t0 < len(layers) else 0
        total = []
        for w, voters in zip(weights, gained):
            for b, s in enumerate(settle(voters)):
                add(total, w << b, s)
        value, tied = maximum(settle(total), lanes)
        if width is not None:
            yield score + value, [bool(tied & h) for h in hits]
            return
        if not all_tied:
            tied &= -tied
        for j in _iter_bits(tied):
            yield score + value, (*chosen, *[nxt + c for c in unrank(j, p, r)])

    # a prefix with r seats left is one block from nxt = start[r] on, as
    # pools only shrink; a prefix with no seat left is a block of one committee
    start = [0] + [
        next((x for x in range(m - r + 1) if (m - x) * comb(m - x, r) <= _BLOCK_BITS), m)
        for r in range(1, k + 1)
    ]
    best, winners = None, []
    chosen: list[int] = []
    nxt = 0
    while True:
        left = k - len(chosen)  # seats still to fill
        if start[left] <= nxt <= m - left:
            for key, winner in block(nxt, left):
                if best is None or key > best:
                    best, winners = key, [winner]
                elif key == best and all_tied:
                    winners.append(winner)
        elif nxt <= m - left:
            chosen.append(nxt)
            nxt += 1
            if m - nxt < 2 * (left - 1) or left < 3 or best is None or not depth:
                continue
            counts, score = prefix_counts()
            pool = [0] * (m - nxt)
            for (ballot, mult, _), t in zip(classes, counts):
                if t < depth:
                    gain = mult * weights[t]
                    for c in _iter_bits(ballot >> nxt):
                        pool[c] += gain
            pool.sort()
            upper = score + sum(pool[-(left - 1) :])
            if upper > best or (upper == best and all_tied):
                continue
        if not chosen:
            return winners, best
        nxt = chosen.pop() + 1


def _thiele_weights(rule: RuleId, k: int) -> tuple[list[int], int]:
    """The scaled weights of CC, PAV or geometric PAV up to k, and their scale."""
    if rule.kind == "cc":
        return [1], 1
    if rule.kind == "pav":
        return _harmonic_weights(k)
    return _geometric_weights(k, rule.weight)


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


def _committee_search(election: Election, kind: str, all_tied: bool) -> tuple[list, object]:
    """Monroe, minimax-AV or max-Phragmen: the committees of the largest key
    over all k-subsets, the lex-first alone or all of them in
    `itertools.combinations` order, and that key."""
    key = _COMMITTEE_KEYS[kind]
    best, winners = None, []
    for members in combinations(range(election.m), election.k):
        value = key(election, members)
        if best is None or value > best:
            best, winners = value, [members]
        elif value == best and all_tied:
            winners.append(members)
    return winners, best


_SEQUENTIAL = {
    "seq_pav": lambda election: _seq_thiele(election, _harmonic_weights(election.k)[0]),
    "seq_cc": lambda election: _seq_thiele(election, [1]),
    "rev_seq_pav": _rev_seq_thiele,
    "seq_phragmen": _seq_phragmen,
    "rule_x": _rule_x,
    "greedy_monroe": _greedy_monroe,
}


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def run_rule(election: Election, rule: RuleId, mode: str = "single") -> RuleOutcome:
    """Run one ABC rule; `all_tied` is available for exact-optimization rules."""
    if mode not in ("single", "all_tied"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all_tied" and rule.is_sequential:
        raise ValueError(f"{rule} is sequential; all_tied applies to exact rules only")
    enumeration_guard(rule, election.m, election.k)
    all_tied = mode == "all_tied"
    k = election.k

    if rule.kind in ("av", "sav"):
        scores, scale, mandatory, optional = _approval_ranking(election, rule.kind, all_tied)
        slots = k - len(mandatory)
        extras = combinations(optional, slots) if all_tied else [optional[:slots]]
        committees = [tuple(sorted(mandatory + list(extra))) for extra in extras]
        exact = tuple([Fraction(s, scale) for s in scores])
        return _outcome(election, rule, committees, {"candidate_scores": exact})

    if rule.kind in ("pav", "cc", "geom_pav"):
        weights, scale = _thiele_weights(rule, k)
        best, top = _thiele_search(election.m, k, _ballot_classes(election), weights, all_tied)
        score = top if rule.kind == "cc" else Fraction(top, scale)
        return _outcome(election, rule, best, {"score": score})

    if rule.kind in _COMMITTEE_KEYS:
        best, top = _committee_search(election, rule.kind, all_tied)
        if rule.kind == "monroe":
            return _outcome(election, rule, best, {"score": top})
        if rule.kind == "minimax_av":
            return _outcome(election, rule, best, {"max_hamming": -top})
        loads = {w: tuple(max_phragmen_load_vector(election, w)[2]) for w in best}
        return _outcome(election, rule, best, {"load_vectors": loads})

    chosen, *raw = _SEQUENTIAL[rule.kind](election)
    if rule.kind in ("seq_pav", "seq_cc"):
        scale = _harmonic_weights(k)[1] if rule.kind == "seq_pav" else 1
        diagnostics = {"picks": [(c, Fraction(g, scale)) for c, g in zip(chosen, raw[0])]}
    elif rule.kind == "rev_seq_pav":
        history, scale = raw
        diagnostics = {"removals": [(c, Fraction(loss, scale)) for c, loss in history]}
    elif rule.kind == "seq_phragmen":
        groups, scale = raw
        diagnostics = {"loads": _per_voter(election, groups, scale), "order": tuple(chosen)}
    elif rule.kind == "rule_x":
        groups, scale, rhos, completed = raw
        diagnostics = {
            "balances": _per_voter(election, groups, scale),
            "rhos": tuple([Fraction(a, d) for a, d in rhos]),
            "completion": "seq_phragmen" if completed else None,
        }
    else:
        diagnostics = {"assignment": tuple(raw[0])}
    return _outcome(election, rule, [tuple(sorted(chosen))], diagnostics)


def _outcome(election, rule, combos, diagnostics) -> RuleOutcome:
    committees = tuple(Committee.of(c, election) for c in combos)
    return RuleOutcome(rule=rule, committees=committees, diagnostics=diagnostics)


def probe(election: Election, rule: RuleId, wanted: Sequence[Sequence[int]]) -> tuple[bool, ...]:
    """For each demand vector in ``wanted``, whether some winner of ``rule``
    gives every voter i at least that many approved members.

    Exact rules are probed over all their tied winners, and raise where
    ``run_rule(..., "all_tied")`` does; sequential rules over their single
    output.  No `Committee` and no `Fraction` is built.  Monroe, minimax-AV
    and max-Phragmen test each tied winner's mask.  PAV, CC and geometric
    PAV test the demands on the tied lanes of their blocks.  So do AV and
    SAV: their tied winners are the mandatory members plus any completion
    from the tied pool, the lanes of a weightless Thiele search over that
    pool in which each class demands what the mandatory members leave it
    short, max(0, d - t0) for t0 mandatory members on its ballot.
    """
    if any(len(demand) != election.n for demand in wanted):
        raise ValueError("a demand vector needs one demand per voter")
    enumeration_guard(rule, election.m, election.k)
    if rule.is_sequential:
        wmask = members_mask(_SEQUENTIAL[rule.kind](election)[0])
        return tuple(first_unmet(election, wmask, demand) is None for demand in wanted)
    if rule.kind in _COMMITTEE_KEYS:
        wmasks = [members_mask(w) for w in _committee_search(election, rule.kind, True)[0]]
        return tuple(
            any(first_unmet(election, w, demand) is None for w in wmasks) for demand in wanted
        )
    # the voters of one class are met together
    classes = _ballot_classes(election, wanted)
    if rule.kind in ("av", "sav"):
        _, _, mandatory, optional = _approval_ranking(election, rule.kind, True)
        held, tied = members_mask(mandatory), members_mask(optional)
        place = {c: 1 << j for j, c in enumerate(optional)}
        pool = []
        for ballot, mult, need in classes:
            t0 = (ballot & held).bit_count()
            if need and max(need) > t0:  # the mandatory members fall short
                short = tuple([max(0, d - t0) for d in need])
                pool.append((sum([place[c] for c in _iter_bits(ballot & tied)]), mult, short))
        slots = election.k - len(mandatory)
        hits, _ = _thiele_search(len(optional), slots, pool, (), True, width=len(wanted))
    else:
        weights, _ = _thiele_weights(rule, election.k)
        hits, _ = _thiele_search(
            election.m, election.k, classes, weights, True, width=len(wanted)
        )
    return tuple(any(h[j] for h in hits) for j in range(len(wanted)))
