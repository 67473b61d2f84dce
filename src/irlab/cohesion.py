"""Per-voter seat entitlements with witnesses.

The entitlement of voter i is the largest size of a set S inside the ballot A_i
that is backed by enough like-minded voters, i.e.

    f_i = max { |S| : S subseteq A_i and |N(S)|*k >= |S|*n }.

Call C *closed* when C = clo(C), the set of candidates approved by every
voter of N(C).  Since S is inside clo(S) and N(clo(S)) = N(S),

    f_i = max { min(|C|, floor(|N(C)|*k/n)) : C closed, C subseteq A_i },

so the ``"exact"`` method enumerates, once for all voters, the closed sets
whose supporters can claim a seat (|N(C)|*k >= n), bottom-up by LCM's
prefix-preserving closure extension, and reads every f_i and its
lexicographically smallest witness off that list.  The problem is NP-hard in
general, hence the node cap (one node per closed set).  ``f_certificate_vi``
computes the same value in O(n^2 m) time when a voter-interval witness order
is available, by scanning all position intervals that contain the voter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Literal, Sequence

from .model import Election, VoterGroup, _iter_bits, mask_to_set
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


@dataclass(frozen=True)
class IntervalSupport:
    """Shape of a voter's witness supporters on a voter-interval profile.

    Positions refer to the witness order (0-based).  ``below`` covers
    positions [left, pos-1], ``above`` covers [pos, right] where ``pos`` is
    the voter's own position; the two parts are disjoint and contiguous.
    """

    voter: int
    pos: int
    left: int
    right: int

    @property
    def below_size(self) -> int:
        return self.pos - self.left

    @property
    def above_size(self) -> int:
        return self.right - self.pos + 1


def _closed_sets(election: Election, budget: NodeBudget) -> Iterator[tuple[int, int]]:
    """Every closed candidate set whose supporters can claim a seat.

    Yields (C, N(C)) as bitmasks for each C = clo(C) with |N(C)|*k >= n,
    where clo(S) is the set of candidates approved by every voter of N(S).
    The enumeration is LCM's prefix-preserving closure extension (Uno,
    Kiyomi, Arimura, FIMI 2004): from clo(∅), a closed set C generated by
    candidate `core` has the children clo(C + e) for e > core, e not in C,
    that add no candidate below e; each closed set has exactly one parent.
    Support only shrinks along an extension, so cutting an extension whose
    supporters drop below the seat threshold loses no qualifying set.  One
    budget node is ticked per closed set visited.
    """
    n, k = election.n, election.k
    everyone = election.all_voters_mask()
    items = []
    root = 0
    for c, cv in enumerate(election.candidate_voters):
        if cv == everyone:
            root |= 1 << c
        elif cv.bit_count() * k >= n:
            items.append((c, cv))
    # (C, N(C), the candidate that generated C, the candidates outside C
    # that keep a seat's worth of supporters within N(parent))
    stack = [(root, everyone, -1, items)]
    while stack:
        closed, supp, core, pool = stack.pop()
        budget.tick()
        yield closed, supp
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


def _exact_certificates(election: Election, node_cap: int) -> list[CohesionCertificate]:
    """All n certificates from one enumeration of the qualifying closed sets.

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


def vi_order_positions(election: Election, order: Sequence[int]) -> list[int]:
    """Validate ``order`` as a voter-interval witness and return position-of-voter.

    Raises ValueError if ``order`` is not a permutation of the voters or some
    candidate's supporters are not contiguous under it.
    """
    n = election.n
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the voters")
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    for c in range(election.m):
        mask = election.candidate_voters[c]
        if mask == 0:
            continue
        positions = [pos[v] for v in mask_to_set(mask)]
        if max(positions) - min(positions) + 1 != len(positions):
            raise ValueError(
                f"order is not a VI witness: supporters of candidate {c} are not contiguous"
            )
    return pos


def f_certificate_vi(
    election: Election, order: Sequence[int], voter: int
) -> CohesionCertificate:
    """Polynomial f_i on a voter-interval profile (interval scan).

    Every candidate set's supporters form a contiguous block of ``order``
    containing the voter, so it suffices to scan all position intervals
    [xl, xr] around the voter: the interval commonly approves some set S and
    is large enough to claim l* = floor(len*k/n) seats, contributing
    min(l*, |S|).  The first interval in scan order (xl ascending, then xr
    ascending) that attains the maximum provides the witness.
    """
    if not 0 <= voter < election.n:
        raise ValueError(f"voter index {voter} out of range")
    pos = vi_order_positions(election, order)
    return _vi_certificate_from_positions(election, pos, voter)


def _candidate_position_spans(
    election: Election, pos: Sequence[int]
) -> list[tuple[int, int]]:
    """(lo, hi) position span of each candidate's supporters; (-1, -1) if none."""
    spans = []
    for c in range(election.m):
        mask = election.candidate_voters[c]
        if mask == 0:
            spans.append((-1, -1))
            continue
        positions = [pos[v] for v in mask_to_set(mask)]
        spans.append((min(positions), max(positions)))
    return spans


def _vi_certificate_from_positions(
    election: Election,
    pos: Sequence[int],
    voter: int,
    spans: list[tuple[int, int]] | None = None,
) -> CohesionCertificate:
    n, k = election.n, election.k
    if spans is None:
        spans = _candidate_position_spans(election, pos)
    p = pos[voter]

    best = 0
    best_interval: tuple[int, int] | None = None
    for xl in range(0, p + 1):
        for xr in range(p, n):
            length = xr - xl + 1
            l_star = (length * k) // n
            if l_star <= best:
                continue
            common = [
                c for c, (lo, hi) in enumerate(spans) if lo != -1 and lo <= xl and hi >= xr
            ]
            value = min(l_star, len(common))
            if value > best:
                best = value
                best_interval = (xl, xr)
    if best == 0:
        return CohesionCertificate(
            voter=voter,
            f=0,
            witness_set=frozenset(),
            witness_supporters=VoterGroup.from_mask(election.all_voters_mask()),
        )
    xl, xr = best_interval
    common = sorted(
        c for c, (lo, hi) in enumerate(spans) if lo != -1 and lo <= xl and hi >= xr
    )
    witness = frozenset(common[:best])
    supp = election.supporters_mask(witness)
    return CohesionCertificate(
        voter=voter,
        f=best,
        witness_set=witness,
        witness_supporters=VoterGroup.from_mask(supp),
    )


def interval_support(
    pos: Sequence[int], certificate: CohesionCertificate
) -> IntervalSupport:
    """Locate the witness supporters of ``certificate`` as a position interval.

    ``pos`` is the position-of-voter list of a validated witness order
    (:func:`vi_order_positions`).
    """
    p = pos[certificate.voter]
    positions = [pos[v] for v in certificate.witness_supporters]
    left, right = min(positions), max(positions)
    if right - left + 1 != len(positions) or not left <= p <= right:
        raise ValueError("witness supporters do not form an interval containing the voter")
    return IntervalSupport(voter=certificate.voter, pos=p, left=left, right=right)


FMethod = Literal["exact", "vi"]


def f_vector(
    election: Election,
    method: FMethod = "exact",
    order: Sequence[int] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[CohesionCertificate]:
    """All n certificates, in voter order.

    ``"exact"`` enumerates the qualifying closed candidate sets once for all
    voters and raises :class:`~irlab.search.BudgetExceededError` when more
    than ``node_cap`` of them are visited; a wrong answer is never returned.
    ``"vi"`` runs the interval scan along the witness ``order``.
    """
    if method == "exact":
        return _exact_certificates(election, node_cap)
    if method == "vi":
        if order is None:
            raise ValueError("method 'vi' requires a witness order")
        return vi_certificates(election, vi_order_positions(election, order))
    raise ValueError(f"unknown method {method!r}")


def vi_certificates(election: Election, pos: Sequence[int]) -> list[CohesionCertificate]:
    """All n certificates by the interval scan, given the position-of-voter
    list of a validated witness order (:func:`vi_order_positions`)."""
    spans = _candidate_position_spans(election, pos)
    return [_vi_certificate_from_positions(election, pos, i, spans) for i in range(election.n)]
