"""Per-voter seat entitlements with witnesses.

The entitlement of voter i is the largest size of a set S inside the ballot A_i
that is backed by enough like-minded voters, i.e.

    f_i = max { |S| : S subseteq A_i and |N(S)|*k >= |S|*n }.

Call C *closed* when C = clo(C), the set of candidates approved by every
voter of N(C).  Since S is inside clo(S) and N(clo(S)) = N(S),

    f_i = max { min(|C|, floor(|N(C)|*k/n)) : C closed, C subseteq A_i },

so :func:`f_vector` enumerates, once for all voters, the closed sets whose
supporters can claim a seat (|N(C)|*k >= n), bottom-up by LCM's
prefix-preserving closure extension, and reads every f_i and its
lexicographically smallest witness off that list.  The problem is NP-hard in
general, hence the node cap (one node per closed set).  When a
voter-interval witness order is available, :func:`vi_certificates` computes
the same values for all voters in O(n^2 + nm) time, by one sweep over the
left ends of the position intervals.

:func:`entitlements` computes the values alone, with the same walk cut below
every *saturated* closed set C, one with |C| >= floor(|N(C)|*k/n): its value
is then floor(|N(C)|*k/n), and every closed set D in its subtree has
N(D) inside N(C) and a value of at most floor(|N(D)|*k/n) <= v(C), so D
raises no voter's maximum.  Witnesses cannot take that cut: a pruned D can
hold a lexicographically smaller prefix of the same value than C does (C =
{2, 9}, D = {2, 5, 9}), so the certificates keep the full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .model import Election, VoterGroup, _iter_bits, is_run, position_mask
from .search import DEFAULT_NODE_CAP, NodeBudget


@dataclass(frozen=True)
class CohesionCertificate:
    """A voter's entitlement f together with a witnessing candidate set.

    Invariants: ``witness_set`` is part of the voter's ballot, has exactly
    ``f`` candidates, and its supporter group satisfies |N|*k >= f*n.
    """

    voter: int
    f: int
    witness_set: frozenset[int]
    witness_supporters: VoterGroup

    def verify(self, election: Election) -> bool:
        """Re-check the certificate by direct counting, independent of the search."""
        if self.witness_set - election.approvals[self.voter]:
            return False
        if len(self.witness_set) != self.f:
            return False
        mask = election.supporters_mask(self.witness_set)
        if mask != self.witness_supporters.mask:
            return False
        return mask.bit_count() * election.k >= self.f * election.n


def deficits_for(f: Sequence[int], alpha: Fraction | int, beta: Fraction | int) -> list[int]:
    """Per-voter demand: the least w >= 0 with alpha*w + beta >= f_i.  With
    alpha = a/b and beta = c/d that is ceil((f_i*d - c)*b / (d*a)), in
    integers."""
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    return [max(0, -((c - value * d) * b // (d * a))) for value in f]


def _closed_sets(
    election: Election, budget: NodeBudget, stop_saturated: bool = False, within: int = -1
) -> Iterator[tuple[int, int]]:
    """Every closed candidate set whose supporters can claim a seat.

    Yields (C, N(C)) as bitmasks for each C = clo(C) with |N(C)|*k >= n,
    where clo(S) is the set of candidates approved by every voter of N(S).
    The enumeration is LCM's prefix-preserving closure extension (Uno,
    Kiyomi, Arimura, FIMI 2004): from clo(∅), a closed set C generated by
    candidate `core` has the children clo(C + e) for e > core, e not in C,
    that add no candidate below e; each closed set has exactly one parent.
    Support only shrinks along an extension, so cutting an extension whose
    supporters drop below the seat threshold loses no qualifying set.  With
    ``stop_saturated`` the walk does not extend a closed set C with
    |C| >= floor(|N(C)|*k/n), whose subtree raises no voter's value.  With
    the candidate mask ``within`` set to a voter's ballot it visits the
    closed sets inside it alone: their ancestors lie inside it too, and a
    candidate off it joins no closure the voter supports.  One budget node
    is ticked per closed set visited.
    """
    n, k = election.n, election.k
    everyone = election.all_voters_mask()
    items = []
    root = 0
    for c, cv in enumerate(election.candidate_voters):
        if cv == everyone:
            root |= 1 << c
        elif cv.bit_count() * k >= n and within >> c & 1:
            items.append((c, cv))
    # (C, N(C), the candidate that generated C, the candidates outside C
    # that keep a seat's worth of supporters within N(parent))
    stack = [(root, everyone, -1, items)]
    while stack:
        closed, supp, core, pool = stack.pop()
        budget.tick()
        yield closed, supp
        if stop_saturated and closed.bit_count() >= supp.bit_count() * k // n:
            continue
        # supporters shrink along extensions, so only the parent's pool can extend C
        ext = []
        for c, cv in pool:
            s = supp & cv
            if s != supp and s.bit_count() * k >= n:
                ext.append((c, s))
        for idx, (e, s_e) in enumerate(ext):
            if e <= core:
                continue
            # a candidate c joins clo(C + e) exactly when N(C + e) is inside N(C + c);
            # one below e means clo(C + e) is not prefix-preserving and has another parent
            for _, s_c in ext[:idx]:
                if s_e & s_c == s_e:
                    break
            else:
                child = closed | (1 << e)
                for c, s_c in ext[idx + 1 :]:
                    if s_e & s_c == s_e:
                        child |= 1 << c
                stack.append((child, s_e, e, ext))


def _first_takers(ranked: list, everyone: int) -> list:
    """The entries of ``ranked`` that are, in rank order, the first to hold some voter."""
    ranked.sort()
    kept = []
    unassigned = everyone
    for entry in ranked:
        if entry[2] & unassigned:
            unassigned &= ~entry[2]
            kept.append(entry)
            if not unassigned:
                break
    return kept


def f_vector(election: Election, node_cap: int = DEFAULT_NODE_CAP) -> list[CohesionCertificate]:
    """All n certificates, in voter order, from one enumeration of the
    qualifying closed sets; raises :class:`~irlab.search.BudgetExceededError`
    when more than ``node_cap`` of them are visited, never a wrong answer.

    A closed set C offers every voter of N(C) the value
    v(C) = min(|C|, floor(|N(C)|*k/n)), witnessed by its v smallest members.
    Ranking the sets by (-v, that prefix), each voter takes the first set
    its ballot contains: its value is f_i and its prefix is the
    lexicographically smallest f_i-set S inside the ballot with
    |N(S)|*k >= f_i*n (the f_i smallest members of clo(S) are such a set and
    are no larger than S).  A set that is nobody's first stays so as more
    sets arrive, so the list is cut back to the first takers (at most n)
    whenever it grows long, which bounds memory by O(n) sets, not by the cap.
    """
    n, k = election.n, election.k
    everyone = election.all_voters_mask()
    budget = NodeBudget(node_cap, stage="cohesion.f_vector")
    ranked = []
    for closed, supp in _closed_sets(election, budget):
        v = min(closed.bit_count(), supp.bit_count() * k // n)
        if v:
            ranked.append((-v, tuple(islice(_iter_bits(closed), v)), supp))
            if len(ranked) > 16 * n + 4096:
                ranked = _first_takers(ranked, everyone)
    certs: list[CohesionCertificate] = [None] * n  # type: ignore[list-item]
    unassigned = everyone
    last = None
    for neg_v, prefix, supp in _first_takers(ranked, everyone):
        taken = supp & unassigned
        unassigned ^= taken
        if prefix != last:
            last = prefix
            witness = frozenset(prefix)
            group = VoterGroup.from_mask(election.supporters_mask(prefix))
        for i in _iter_bits(taken):
            certs[i] = CohesionCertificate(i, -neg_v, witness, group)
    if unassigned:
        group = VoterGroup.from_mask(everyone)
        for i in _iter_bits(unassigned):
            certs[i] = CohesionCertificate(i, 0, frozenset(), group)
    return certs


def certificate(
    election: Election, voter: int, node_cap: int = DEFAULT_NODE_CAP
) -> CohesionCertificate:
    """Voter ``voter``'s certificate, equal to ``f_vector(election)[voter]``,
    from the walk over the closed sets inside her ballot alone: f_i is their
    best value and the witness the least prefix of that value.  Those sets
    are the ones :func:`f_vector` ranks for her, and a subset of what it
    visits, so this raises (stage ``cohesion.certificate``) only where that
    one does."""
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="cohesion.certificate")
    best = (0, ())
    for closed, supp in _closed_sets(election, budget, within=election.ballot_masks[voter]):
        v = min(closed.bit_count(), supp.bit_count() * k // n)
        if v:
            best = min(best, (-v, tuple(islice(_iter_bits(closed), v))))
    neg_v, prefix = best
    group = VoterGroup.from_mask(election.supporters_mask(prefix))
    return CohesionCertificate(voter, -neg_v, frozenset(prefix), group)


def entitlements(election: Election, node_cap: int = DEFAULT_NODE_CAP) -> list[int]:
    """Every f_i, in voter order, without witnesses.

    Walks the qualifying closed sets, stopping below saturated ones, and ORs
    the supporters of each set into the voter mask of its value; f_i is the
    highest value whose mask holds voter i.  Raises
    :class:`~irlab.search.BudgetExceededError` (stage ``cohesion.entitlements``)
    when more than ``node_cap`` sets are visited; it visits no set that
    :func:`f_vector`'s walk skips, so it raises only where that one does."""
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="cohesion.entitlements")
    layers = [0] * (k + 1)  # layers[v]: the supporters of some set of value v
    for closed, supp in _closed_sets(election, budget, stop_saturated=True):
        layers[min(closed.bit_count(), supp.bit_count() * k // n)] |= supp
    f = [0] * n
    unassigned = election.all_voters_mask()
    for value in range(k, 0, -1):
        taken = layers[value] & unassigned
        unassigned ^= taken
        for i in _iter_bits(taken):
            f[i] = value
    return f


def _vi_spans(
    election: Election, order: Sequence[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Position-of-voter along the witness ``order`` and the (lo, hi) position
    span of each candidate's supporters, (-1, -1) if none; raises ValueError
    unless ``order`` is a voter-interval witness."""
    n = election.n
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the voters")
    spans = []
    for c, mask in enumerate(election.candidate_voters):
        pm = position_mask(mask, order)
        if not is_run(pm):
            raise ValueError(
                f"order is not a VI witness: supporters of candidate {c} are not contiguous"
            )
        spans.append(((pm & -pm).bit_length() - 1, pm.bit_length() - 1))
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    return pos, spans


def _vi_sweep(
    election: Election, pos: Sequence[int], spans: list[tuple[int, int]]
) -> list[CohesionCertificate]:
    """All n certificates on a voter-interval profile by one left-end sweep.

    Every candidate set's supporters form a contiguous block of the witness
    order, so f at position p is the best value of a position interval
    [xl, xr] around p: min(floor(len*k/n), the number of candidates whose
    span covers it).  The sweep raises xl from 0 and keeps ``ends[xr]``, the
    candidates with left end <= xl and right end xr; walking xr down from
    n-1 sums them into common(xl, xr) and carries the suffix maximum of the
    value over xr >= p, smallest xr on ties, so each p keeps the first
    interval in (xl, xr) order that attains its maximum.  That interval's
    smallest f common candidates are the witness.  O(n^2 + nm) in total.
    """
    n, k = election.n, election.k
    starts: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in spans:
        if lo != -1:
            starts[lo].append(hi)
    seats = [length * k // n for length in range(n + 1)]
    ends = [0] * n
    best = [0] * n
    interval: list[tuple[int, int]] = [(0, 0)] * n
    for xl in range(n):
        for hi in starts[xl]:
            ends[hi] += 1
        common = top = arg = 0
        for xr in range(n - 1, xl - 1, -1):
            common += ends[xr]
            value = min(seats[xr - xl + 1], common)
            if value >= top:
                top, arg = value, xr
            if top > best[xr]:
                best[xr] = top
                interval[xr] = (xl, arg)
    everyone = VoterGroup.from_mask(election.all_voters_mask())
    certs = []
    for voter in range(n):
        f = best[pos[voter]]
        if f == 0:
            certs.append(CohesionCertificate(voter, 0, frozenset(), everyone))
            continue
        xl, xr = interval[pos[voter]]
        common = [c for c, (lo, hi) in enumerate(spans) if lo <= xl and hi >= xr]
        witness = frozenset(common[:f])
        group = VoterGroup.from_mask(election.supporters_mask(witness))
        certs.append(CohesionCertificate(voter, f, witness, group))
    return certs


def vi_certificates(election: Election, order: Sequence[int]) -> list[CohesionCertificate]:
    """All n certificates by the left-end sweep along the witness ``order``;
    raises ValueError unless it is a voter-interval witness."""
    pos, spans = _vi_spans(election, order)
    return _vi_sweep(election, pos, spans)
