"""Exact existence and approximation search for representative committees.

Deciding whether an IR committee exists is NP-hard, so the search is a
depth-first branch-and-bound over candidates (on an explicit stack, one
level per seat, each voter's state in bit-sliced counters) guarded by a
node cap: ``infeasible`` means the whole space was exhausted,
``undecided`` is only reported when the cap was hit.  The optimization
objectives reduce to feasibility solves: MIN_BETA binary-searches the
additive slack over the integers, MIN_ALPHA binary-searches the
multiplicative slack over the finite grid of ratios (f_i - beta)/q with
q <= k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cohesion import CohesionCertificate, deficits_for
from .model import Committee, Election, _iter_bits, first_unmet, padding
from .search import DEFAULT_NODE_CAP, BudgetExceededError, NodeBudget, above, at_least, counter, sub

OBJECTIVES = ("FIND_IR", "FIND_SSJR", "MIN_BETA", "MIN_ALPHA")


@dataclass(frozen=True)
class SolveRequest:
    """One solve.  ``fvec`` gives voter i's entitlement f_i at index i, as
    the integers of :func:`~irlab.cohesion.entitlements` or as the
    certificates of :func:`~irlab.cohesion.f_vector`; ``__post_init__``
    stores the integers alone, so a constructed request's ``fvec`` is a
    tuple of ints."""

    election: Election
    fvec: tuple[int | CohesionCertificate, ...]
    objective: str = "FIND_IR"
    alpha: Fraction = Fraction(1)  # fixed multiplicative slack for MIN_BETA
    beta: Fraction = Fraction(0)  # fixed additive slack for MIN_ALPHA
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        f = tuple(v.f if isinstance(v, CohesionCertificate) else v for v in self.fvec)
        object.__setattr__(self, "fvec", f)
        if len(f) != self.election.n:
            raise ValueError("f-vector length must equal the number of voters")
        if self.node_cap <= 0:
            raise ValueError("node cap must be positive")
        if self.alpha < 1 or self.beta < 0:
            raise ValueError("alpha must be >= 1 and beta >= 0")


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'found' | 'infeasible' | 'undecided'
    committee: Committee | None
    achieved_alpha: Fraction | None
    achieved_beta: Fraction | None
    nodes: int


def _cover_search(
    election: Election, deficits: Sequence[int], budget: NodeBudget
) -> list[int] | None:
    """A candidate set of size <= k giving voter i at least deficits[i] of her
    approved candidates; None when none exists (exact).

    Branches on the candidates of a most-constrained unmet voter, cutting a
    branch as soon as some unmet voter cannot be topped up from her remaining
    approved pool within the remaining seats.  Two bit-sliced counters
    (``search.counter``) carry the state: ``need``, what each voter still
    lacks, cut to the slices its largest count spans, and ``avail``, her
    approved candidates still in the pool; every test and update is a
    whole-mask operation on them.  Only the counts of unmet voters are read,
    and a voter met at a node stays met below it, so a candidate leaving the
    pool is taken off ``avail`` for the unmet voters alone.  The scan that
    narrows the unmet voters to those with the fewest available candidates
    (the pivot is the first of them) also reads off that fewest count,
    ``least``.  A node with none is cut; when ``need`` has one slice every
    unmet voter lacks exactly one member and a node always has a seat, so
    that is the whole test, and the seat and pool tests (``above``,
    ``at_least``) run only for demands of two slices or more.  Branch options
    are the pivot's approved candidates in the pool, most unmet voters
    covered first, ties in index order.  A node with one seat left that
    passes the test has only leaves below it, as every unmet voter needs
    exactly one more: it returns its first option covering every unmet
    voter, looking only at the options on a second unmet voter's ballot, in
    index order (the coverage sort puts those first), or counts ``least``
    nodes, one per option (``avail`` is exact for the pivot), without
    building the leaves.  Node counts are those of the search that builds
    every leaf.
    """
    m, k = election.m, election.k
    approvals, ballot_masks = election.approvals, election.ballot_masks
    cand_voters = election.candidate_voters
    if max(deficits, default=0) > k:
        return None
    need = counter(deficits)
    avail = counter([ballot.bit_count() for ballot in ballot_masks])
    # iterative: per open node, its branch options as (-coverage, candidate),
    # the index of the next one, the pool and ``avail`` left to its later
    # branches, and its own ``need`` and unmet voters, which restore it after
    # each branch
    frames: list[list] = []
    pool = (1 << m) - 1
    while True:
        budget.tick()
        unmet = 0
        for s in need:
            unmet |= s
        if not unmet:  # each open node's current branch is a member
            return [options[nxt - 1][1] for options, nxt, *_ in frames]
        # narrow the unmet voters to those with the fewest available
        # candidates, top slice first, and read that fewest count off
        pivots, least = unmet, 0
        for s in reversed(avail):
            rest = pivots ^ (pivots & s)
            if rest:
                pivots, least = rest, least << 1
            else:
                least = least << 1 | 1
        # branch only if every unmet voter fits in the seats and the pool
        # left; with one ``need`` slice every unmet voter lacks one member
        # and a node always has a seat, so ``least`` decides alone
        if least and (
            len(need) == 1
            or not above(need, k - len(frames)) and at_least(avail, need, unmet) == unmet
        ):
            pivot = (pivots & -pivots).bit_length() - 1
            if len(frames) < k - 1:
                # most unmet voters covered first, ties in index order
                options = sorted(
                    [
                        (-(cand_voters[c] & unmet).bit_count(), c)
                        for c in approvals[pivot]
                        if pool >> c & 1
                    ]
                )
                frames.append([options, 0, pool, avail, need, unmet])
            else:  # last seat: every unmet voter needs 1; the ``least`` children are leaves
                # a child covering ``unmet`` is also on a second unmet voter's ballot
                covers = ballot_masks[pivot] & pool & ballot_masks[unmet.bit_length() - 1]
                for c in _iter_bits(covers):
                    if unmet & cand_voters[c] == unmet:  # sorted first: it covers ``unmet``
                        budget.tick()
                        return [options[nxt - 1][1] for options, nxt, *_ in frames] + [c]
                budget.tick(least)  # each child cut by the seat test
        while frames:
            frame = frames[-1]
            options, nxt, pool, avail, need, unmet = frame  # undoes the last branch
            if nxt == len(options):
                frames.pop()
                continue
            c = options[nxt][1]
            covered = cand_voters[c] & unmet
            pool ^= 1 << c  # later branches must not reuse c
            avail = sub(avail, covered)  # met voters' counts are not read again
            frame[1:4] = nxt + 1, pool, avail
            need = sub(need, covered)
            if not need[-1]:  # the largest demand left fits one slice fewer
                need.pop()
            break
        else:
            return None


def demands(f: Sequence[int], objective: str) -> list[int]:
    """Per-voter approved-member demand: f_i for FIND_IR, min(f_i, 1) for FIND_SSJR."""
    if objective == "FIND_IR":
        return list(f)
    if objective == "FIND_SSJR":
        return [min(value, 1) for value in f]
    raise ValueError("demands are defined for FIND_IR and FIND_SSJR only")


def _feasible(
    election: Election, deficits: Sequence[int], budget: NodeBudget
) -> Committee | None:
    hit = _cover_search(election, deficits, budget)
    if hit is None:
        return None
    return Committee.of([*hit, *padding(election, hit)], election)


def _recheck(election: Election, committee: Committee, wanted: Sequence[int]) -> None:
    """Re-check a committee by direct count against the per-voter demands,
    the count ``axioms.check`` runs for IR, semi-strong JR and (alpha,
    beta)-IR; a failure is a bug."""
    if first_unmet(election, committee.mask(), wanted) is not None:
        raise AssertionError("solver returned a committee failing its demands")


def _least_feasible(
    election: Election,
    grid: Sequence,
    deficits_at: Callable[[object], list[int]],
    budget: NodeBudget,
) -> tuple[object, Committee] | None:
    """The least value of the ascending ``grid`` whose demands are feasible,
    with its committee; None when the top value is not.  Feasibility is
    monotone along the grid, so the top is solved first and the rest is a
    bisection."""
    lo, hi = 0, len(grid) - 1
    best = _feasible(election, deficits_at(grid[hi]), budget)
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        committee = _feasible(election, deficits_at(grid[mid]), budget)
        if committee is not None:
            best, hi = committee, mid
        else:
            lo = mid + 1
    return grid[lo], best


def _find(election: Election, wanted: Sequence[int], node_cap: int) -> SolveResult:
    """FIND_IR or FIND_SSJR for the per-voter demands ``wanted``: the cover
    search under a budget of its own, the padded committee re-checked by
    direct count."""
    budget = NodeBudget(node_cap, stage="solver.find_committee")
    try:
        committee = _feasible(election, wanted, budget)
    except BudgetExceededError:
        return SolveResult("undecided", None, None, None, budget.nodes)
    if committee is None:
        return SolveResult("infeasible", None, None, None, budget.nodes)
    _recheck(election, committee, wanted)
    return SolveResult("found", committee, Fraction(1), Fraction(0), budget.nodes)


def find_committee(request: SolveRequest) -> SolveResult:
    """Solve the request exactly; `undecided` is only ever due to the node cap."""
    election, f = request.election, request.fvec
    if request.objective in ("FIND_IR", "FIND_SSJR"):
        return _find(election, demands(f, request.objective), request.node_cap)
    budget = NodeBudget(request.node_cap, stage="solver.find_committee")
    try:
        if request.objective == "MIN_BETA":
            hit = _least_feasible(
                election,
                range(max(f, default=0) + 1),
                lambda beta: deficits_for(f, request.alpha, beta),
                budget,
            )
            if hit is None:  # beta = fmax collapses every demand
                raise AssertionError("beta = max f_i must be feasible")
            beta, best = hit
            _recheck(election, best, deficits_for(f, request.alpha, beta))
            return SolveResult("found", best, request.alpha, Fraction(beta), budget.nodes)

        # MIN_ALPHA: the attainable values of max_i (f_i - beta)/|W cap A_i|
        # live on the grid {p/q : p = f_i - beta > 0, 1 <= q <= k}
        numerators = sorted({value - request.beta for value in f if value - request.beta > 0})
        if not numerators:
            committee = Committee.of(padding(election, ()), election)
            return SolveResult("found", committee, Fraction(1), request.beta, budget.nodes)
        grid = sorted(
            {
                Fraction(p) / q
                for p in numerators
                for q in range(1, election.k + 1)
                if Fraction(p) / q >= 1
            }
            | {Fraction(1)}
        )
        hit = _least_feasible(
            election, grid, lambda alpha: deficits_for(f, alpha, request.beta), budget
        )
        if hit is None:
            return SolveResult("infeasible", None, None, None, budget.nodes)
        alpha, best = hit
        _recheck(election, best, deficits_for(f, alpha, request.beta))
        return SolveResult("found", best, alpha, request.beta, budget.nodes)
    except BudgetExceededError:
        return SolveResult("undecided", None, None, None, budget.nodes)


def find_ir_and_ssjr(
    election: Election, f: Sequence[int], node_cap: int
) -> tuple[SolveResult, SolveResult]:
    """The FIND_IR and the FIND_SSJR result for the entitlements ``f`` (as
    :func:`~irlab.cohesion.entitlements` gives them), each equal to what
    :func:`find_committee` returns.  An IR committee is semi-strong JR too, so
    once FIND_IR has found one it stands for both and FIND_SSJR is not solved;
    nor is it when every f_i <= 1, where its demands are FIND_IR's."""
    if len(f) != election.n:
        raise ValueError("f-vector length must equal the number of voters")
    ir_res = _find(election, demands(f, "FIND_IR"), node_cap)
    if ir_res.status == "found" or all(value <= 1 for value in f):
        return ir_res, ir_res
    return ir_res, _find(election, demands(f, "FIND_SSJR"), node_cap)
