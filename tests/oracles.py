"""Independent oracles.

Most of these evaluate definitions by full enumeration, deliberately sharing
no search code with the package: subsets are enumerated without pruning and
orders by factorial search.  The pruned per-voter entitlement search, the
per-voter voter-interval scan, the Fraction Thiele scorer, the per-voter
Fraction seq-Phragmen and Rule X, the per-leaf bounded Thiele search, the
ballot-scanning greedy Monroe, the linear-scan and the full-ranking
bisected Mallows samplers, Kuhn's
recursive quota matching, the separate FJR and core deviation searches, the
recursive EJR/PJR cohesive-set search and cover search (which builds every
leaf), the digit-string and the byte-splitting counters, the per-mask
order positions, the frozenset prefix/suffix layout with
the run-pattern WSC check, the frozen-set t-PART recognizer and witness
check, the WSC recognizer that differences every candidate pair
(``recognize_wsc_over_candidate_pairs``), with the mask layout that builds
the whole family before testing a pair
(``prefix_suffix_layout_over_whole_family``) and the WSC check over every
candidate pair (``wsc_order_valid_per_candidate_pair``), the
token-by-token ``.avp`` reader, the voter-by-voter and the
row-per-distinct-ballot mask builders, the set-building generators and the
rule probe that lists every winner are the engines the package replaced; they stay here as references for the
ones that replaced them.  ``enumerate_committees`` lists every committee
meeting a solver objective, for fixtures; ``closed_set_walk`` lists the closed
sets the entitlement walk visits; ``run_instance_by_certificates`` is the
experiment's instance path over ``f_vector`` certificates,
``run_instance_probing_all`` the one that probes both demand vectors of
every instance, and ``check_given_certificates`` the IR and semi-strong JR
checks over the certificates;
``verify_violation_per_kind`` is the witness re-check with one branch per
axiom kind that ``axioms.verify_violation`` replaced, and
``shortfall_by_fractions`` the `Fraction` shortfall it tested before it
compared a voter's members with the integer demand of ``level``;
``find_committee_per_objective`` is the solver with one result path per
objective, and ``max_phragmen_load_vector_by_merge_test`` the load vector
with `Fraction` ratios and a re-tested merge, that the grid solve and the
cross-multiplied bottleneck replaced; ``rule_x_rescanning`` is the grouped
integer Rule X that re-tests every unpicked approved candidate at each pick;
``lex_search_by_callbacks`` is the lex walk driven by push, pop, block, fit
and bound callbacks that ``thiele_search_by_callbacks`` and
``committee_search_by_callbacks`` ran before the Thiele search walked its
own prefixes and the keyed rules looped over ``combinations``;
``build_components_rescanning`` is the consecutive-ones component build that
kept every added set and rescanned the remaining sets after each addition,
before each component grew from a queue.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from math import comb
from typing import Iterable, Sequence

from irlab.cohesion import CohesionCertificate, deficits_for, entitlements, f_vector
from irlab.axioms import AxiomId, AxiomVerdict, ViolationWitness
from irlab.domains import CEIWitness, TPartWitness, VEIWitness, WSCWitness
from irlab.experiment import ExperimentRow, instance_seed
from irlab.gen import GenSpec, generate
from irlab.model import (
    Committee,
    Election,
    ProfileFormatError,
    VoterGroup,
    _iter_bits,
    first_unmet,
    is_run,
    mask_to_set,
    members_mask,
    padding,
    position_masks,
)
from irlab import c1p, rules
from irlab.rules import MAX_ENUMERATED_COMMITTEES, RuleId, probe, run_rule
from irlab.rules import _common_scale, _seq_phragmen as grouped_seq_phragmen
from irlab.search import DEFAULT_NODE_CAP, BudgetExceededError, NodeBudget, max_flow
from irlab.search import add, lift, maximum, memberships, settle, unrank
from irlab.solver import (
    SolveRequest,
    SolveResult,
    _cover_search,
    demands,
    find_committee,
    find_ir_and_ssjr,
)


def brute_f(election, voter):
    """max |S| over S inside the ballot with |N(S)|*k >= |S|*n, by full enumeration."""
    ballot = sorted(election.approvals[voter])
    n, k = election.n, election.k
    best = 0
    for size in range(1, len(ballot) + 1):
        for sub in combinations(ballot, size):
            supporters = sum(
                1 for a in election.approvals if set(sub) <= a
            )
            if supporters * k >= size * n:
                best = size
                break
    return best


def closed_set_walk(election: Election, stop_saturated: bool) -> set[int]:
    """The closed candidate sets (as masks) that ``cohesion._closed_sets``
    visits, from their definition instead of by walking.

    Every closure clo(S) with |N(S)|*k >= n is found by trying all 2^m sets S.
    The LCM parent of a closed set D other than clo(∅) is clo(D ∩ [0, e)) for
    its core e, the least e with clo(D ∩ [0, e]) = D.  The walk visits D
    unless ``stop_saturated`` holds and some strict ancestor C of D is
    saturated: |C| >= floor(|N(C)|*k/n).
    """
    n, m, k = election.n, election.m, election.k

    def clo(s: int) -> int:
        supp = election.supporters_mask(_iter_bits(s))
        return sum(1 << c for c in range(m) if not supp & ~election.candidate_voters[c])

    def stops_below(c: int) -> bool:
        seats = election.supporters_mask(_iter_bits(c)).bit_count() * k // n
        return stop_saturated and c.bit_count() >= seats

    qualifying = {
        clo(s)
        for s in range(1 << m)
        if election.supporters_mask(_iter_bits(s)).bit_count() * k >= n
    }
    visited = {clo(0): True}

    def visits(d: int) -> bool:
        if d not in visited:
            core = next(e for e in range(m) if clo(d & ((2 << e) - 1)) == d)
            parent = clo(d & ((1 << core) - 1))
            visited[d] = visits(parent) and not stops_below(parent)
        return visited[d]

    return {d for d in qualifying if visits(d)}


# --------------------------------------------------------------------------
# Entitlements: pruned depth-first search per voter
# --------------------------------------------------------------------------


def _eligible_candidates(election: Election, voter: int) -> list[int]:
    """Ballot candidates that could appear in any cohesive set, ordered by
    descending approval count (ties by index)."""
    n, k = election.n, election.k
    cands = [
        c
        for c in sorted(election.approvals[voter])
        if election.candidate_voters[c].bit_count() * k >= n
    ]
    cands.sort(key=lambda c: (-election.candidate_voters[c].bit_count(), c))
    return cands


def f_certificate_exact(
    election: Election, voter: int, node_cap: int = DEFAULT_NODE_CAP
) -> CohesionCertificate:
    """Exact f_i by depth-first search over subsets of the voter's ballot.

    A reference for ``f_vector``'s closed-set enumeration that searches each
    ballot's subsets directly instead of closed sets.

    A branch is cut when even taking every remaining candidate cannot beat the
    best size found, or when the current supporters are already too few to
    back one more candidate.  The witness is the lexicographically smallest
    candidate set among those of maximum size.

    Raises :class:`~irlab.search.BudgetExceededError` when the cap is hit;
    a wrong answer is never returned.
    """
    if not 0 <= voter < election.n:
        raise ValueError(f"voter index {voter} out of range")
    budget = NodeBudget(node_cap, stage="oracle DFS")
    n, k = election.n, election.k
    order = _eligible_candidates(election, voter)
    cand_voters = election.candidate_voters

    best_size = 0

    def dfs(start: int, size: int, supp: int) -> None:
        nonlocal best_size
        budget.tick()
        if size > best_size:
            best_size = size
        # supporters already too few to back a (size+1)-set
        if supp.bit_count() * k < (size + 1) * n:
            return
        remaining = len(order) - start
        if size + remaining <= best_size:
            return
        for idx in range(start, len(order)):
            if size + (len(order) - idx) <= best_size:
                break
            new_supp = supp & cand_voters[order[idx]]
            if new_supp.bit_count() * k >= (size + 1) * n:
                dfs(idx + 1, size + 1, new_supp)

    dfs(0, 0, election.all_voters_mask())

    witness = _lex_min_witness(election, order, best_size, budget)
    supp_mask = election.supporters_mask(witness)
    return CohesionCertificate(
        voter=voter,
        f=best_size,
        witness_set=frozenset(witness),
        witness_supporters=VoterGroup.from_mask(supp_mask),
    )


def _lex_min_witness(
    election: Election, order: Sequence[int], target: int, budget: NodeBudget
) -> list[int]:
    """Lexicographically smallest feasible candidate set of size ``target``."""
    if target == 0:
        return []
    n, k = election.n, election.k
    cand_voters = election.candidate_voters
    pool = sorted(order)

    def extends(prefix_supp: int, size: int, start: int) -> bool:
        # can `prefix` be completed to a feasible set of size `target`
        # using pool[start:]?
        budget.tick()
        if size == target:
            return True
        if size + (len(pool) - start) < target:
            return False
        for idx in range(start, len(pool)):
            if size + (len(pool) - idx) < target:
                return False
            supp = prefix_supp & cand_voters[pool[idx]]
            if supp.bit_count() * k >= (size + 1) * n and extends(supp, size + 1, idx + 1):
                return True
        return False

    chosen: list[int] = []
    supp = election.all_voters_mask()
    start = 0
    while len(chosen) < target:
        for idx in range(start, len(pool)):
            new_supp = supp & cand_voters[pool[idx]]
            if new_supp.bit_count() * k >= (len(chosen) + 1) * n and extends(
                new_supp, len(chosen) + 1, idx + 1
            ):
                chosen.append(pool[idx])
                supp = new_supp
                start = idx + 1
                break
        else:
            raise AssertionError("witness reconstruction failed")  # unreachable
    return chosen


# --------------------------------------------------------------------------
# Voter-interval entitlements: the interval scan per voter
# --------------------------------------------------------------------------


def vi_certificates_by_scan(election: Election, order: Sequence[int]) -> list[CohesionCertificate]:
    """All n certificates along the voter-interval witness ``order`` by
    scanning, for each voter separately, every position interval around it."""
    pos = [0] * election.n
    for p, v in enumerate(order):
        pos[v] = p
    spans = []
    for mask in election.candidate_voters:
        positions = [pos[v] for v in _iter_bits(mask)]
        spans.append((min(positions), max(positions)) if positions else (-1, -1))
    return [_vi_certificate_from_positions(election, pos, i, spans) for i in range(election.n)]


def _vi_certificate_from_positions(
    election: Election, pos: Sequence[int], voter: int, spans: list[tuple[int, int]]
) -> CohesionCertificate:
    """f_i on a voter-interval profile by the interval scan.

    Every candidate set's supporters form a contiguous block of the witness
    order containing the voter, so it suffices to scan all position
    intervals [xl, xr] around the voter: the interval commonly approves some
    set S and is large enough to claim l* = floor(len*k/n) seats,
    contributing min(l*, |S|).  The first interval in scan order (xl
    ascending, then xr ascending) that attains the maximum provides the
    witness.
    """
    n, k = election.n, election.k
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


def brute_ir_committees(election, fvalues):
    """All size-k committees meeting every voter's entitlement."""
    out = []
    for combo in combinations(range(election.m), election.k):
        w = set(combo)
        if all(len(w & a) >= f for a, f in zip(election.approvals, fvalues)):
            out.append(frozenset(combo))
    return out


def enumerate_committees(
    election: Election,
    fvec: Sequence[CohesionCertificate],
    objective: str = "FIND_IR",
) -> list[Committee]:
    """All size-k committees meeting the objective, by full enumeration."""
    wanted = demands([cert.f for cert in fvec], objective)
    return [
        Committee.of(combo, election)
        for combo in combinations(range(election.m), election.k)
        if first_unmet(election, members_mask(combo), wanted) is None
    ]


def _subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def naive_jr(election, members):
    n, k = election.n, election.k
    for c in range(election.m):
        group = [
            i
            for i, a in enumerate(election.approvals)
            if c in a and not (members & a)
        ]
        if len(group) * k >= n:
            return False
    return True


def naive_ejr(election, members):
    n, k = election.n, election.k
    cands = range(election.m)
    for sub in _subsets(list(cands)):
        level = len(sub)
        if level > k:
            continue
        group = [
            i
            for i, a in enumerate(election.approvals)
            if set(sub) <= a and len(members & a) < level
        ]
        if len(group) * k >= level * n:
            return False
    return True


def naive_pjr(election, members):
    n, k = election.n, election.k
    wlist = sorted(members)
    for r in range(len(wlist) + 1):
        for wsub in combinations(wlist, r):
            wset = set(wsub)
            eligible = [
                i
                for i, a in enumerate(election.approvals)
                if (a & members) <= wset
            ]
            for sub in _subsets(list(range(election.m))):
                level = len(sub)
                if level > k or level <= r:
                    continue
                group = [i for i in eligible if set(sub) <= election.approvals[i]]
                if len(group) * k >= level * n:
                    return False
    return True


def naive_core(election, members):
    n, k = election.n, election.k
    for sub in _subsets(list(range(election.m))):
        group = [
            i
            for i, a in enumerate(election.approvals)
            if len(set(sub) & a) > len(members & a)
        ]
        if len(group) * k >= len(sub) * n:
            return False
    return True


def naive_fjr(election, members):
    n, k = election.n, election.k
    for beta in range(1, k + 1):
        for sub in _subsets(list(range(election.m))):
            group = [
                i
                for i, a in enumerate(election.approvals)
                if len(set(sub) & a) >= beta and len(members & a) < beta
            ]
            if len(group) * k >= len(sub) * n:
                return False
    return True


def naive_perfect(election, members):
    """Backtracking assignment of n/k voters to each committee member."""
    n, k = election.n, election.k
    assert n % k == 0
    share = n // k
    members = sorted(members)
    load = {c: 0 for c in members}

    def place(v):
        if v == n:
            return True
        for c in sorted(election.approvals[v]):
            if c in load and load[c] < share:
                load[c] += 1
                if place(v + 1):
                    return True
                load[c] -= 1
        return False

    return place(0)


# --------------------------------------------------------------------------
# Perfect representation: Kuhn's matching on member slots (recursive)
# --------------------------------------------------------------------------


def bipartite_quota_flow(election, members, share):
    """Match voters to approved committee members, at most ``share`` voters
    each (Kuhn's algorithm on member slots); returns the matching size and
    the Hall-violating voter side when the matching is not perfect."""
    n = election.n
    slots_of: dict[int, range] = {}
    for j, c in enumerate(members):
        slots_of[c] = range(j * share, (j + 1) * share)
    slot_voter = [-1] * (len(members) * share)
    voter_slot = [-1] * n

    def kuhn(v: int, seen: set[int]) -> bool:
        for c in sorted(election.approvals[v]):
            for s in slots_of.get(c, ()):
                if s in seen:
                    continue
                seen.add(s)
                if slot_voter[s] == -1 or kuhn(slot_voter[s], seen):
                    slot_voter[s] = v
                    voter_slot[v] = s
                    return True
        return False

    flow = 0
    for v in range(n):
        if kuhn(v, set()):
            flow += 1
    if flow == n:
        return flow, set()
    # voters reachable from unmatched voters by alternating paths violate Hall
    reach_voters = {v for v in range(n) if voter_slot[v] == -1}
    reach_slots: set[int] = set()
    frontier = list(reach_voters)
    while frontier:
        v = frontier.pop()
        for c in election.approvals[v]:
            for s in slots_of.get(c, ()):
                if s in reach_slots:
                    continue
                reach_slots.add(s)
                u = slot_voter[s]
                if u != -1 and u not in reach_voters:
                    reach_voters.add(u)
                    frontier.append(u)
    return flow, reach_voters


# --------------------------------------------------------------------------
# FJR and the core: one deviation search each
# --------------------------------------------------------------------------


def check_fjr(election, axiom, counts, node_cap):
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="axioms.FJR")
    ballots = election.ballot_masks
    try:
        for beta in range(1, k + 1):
            deficient = [i for i in range(n) if counts[i] < beta]
            if len(deficient) * k < n:  # |S| >= beta >= 1 needs n/k voters
                continue
            pool_mask = 0
            for i in deficient:
                pool_mask |= ballots[i]
            pool = sorted(mask_to_set(pool_mask))
            hit = _fjr_search(election, pool, deficient, beta, budget)
            if hit is not None:
                cand_set, group = hit
                witness = ViolationWitness(
                    group=frozenset(group),
                    candidate_set=frozenset(cand_set),
                    level=beta,
                    deprived=frozenset(group),
                )
                return AxiomVerdict(axiom, "violated", witness, budget.nodes)
    except BudgetExceededError:
        return AxiomVerdict(axiom, "undecided", None, budget.nodes)
    return AxiomVerdict(axiom, "satisfied", None, budget.nodes)


def _fjr_search(election, pool, deficient, beta, budget):
    """A set S (|S| <= k) with enough deficient voters having |S cap A_i| >= beta
    to make the group weakly (beta, S)-cohesive; None if there is none."""
    n, k = election.n, election.k
    ballots = election.ballot_masks

    def dfs(start: int, chosen: list[int], smask: int):
        budget.tick()
        if chosen:
            group = [i for i in deficient if (ballots[i] & smask).bit_count() >= beta]
            if len(group) * k >= len(chosen) * n:
                return list(chosen), group
        if len(chosen) == k:
            return None
        rest = smask
        for idx in range(start, len(pool)):
            rest |= 1 << pool[idx]
        attainable = sum(
            1 for i in deficient if (ballots[i] & rest).bit_count() >= beta
        )
        if attainable * k < (len(chosen) + 1) * n:
            return None
        for idx in range(start, len(pool)):
            chosen.append(pool[idx])
            hit = dfs(idx + 1, chosen, smask | (1 << pool[idx]))
            if hit is not None:
                return hit
            chosen.pop()
        return None

    return dfs(0, [], 0)


def check_core(election, axiom, counts, node_cap):
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="axioms.CORE")
    ballots = election.ballot_masks
    pool_mask = 0
    for b in ballots:
        pool_mask |= b
    pool = sorted(mask_to_set(pool_mask))

    def dfs(start: int, chosen: list[int], smask: int):
        budget.tick()
        if chosen:
            group = [
                i for i in range(n) if (ballots[i] & smask).bit_count() > counts[i]
            ]
            if len(group) * k >= len(chosen) * n:
                return list(chosen), group
        if len(chosen) == k:
            return None
        rest = smask
        for idx in range(start, len(pool)):
            rest |= 1 << pool[idx]
        attainable = sum(
            1 for i in range(n) if (ballots[i] & rest).bit_count() > counts[i]
        )
        if attainable * k < (len(chosen) + 1) * n:
            return None
        for idx in range(start, len(pool)):
            chosen.append(pool[idx])
            hit = dfs(idx + 1, chosen, smask | (1 << pool[idx]))
            if hit is not None:
                return hit
            chosen.pop()
        return None

    try:
        hit = dfs(0, [], 0)
    except BudgetExceededError:
        return AxiomVerdict(axiom, "undecided", None, budget.nodes)
    if hit is None:
        return AxiomVerdict(axiom, "satisfied", None, budget.nodes)
    cand_set, group = hit
    witness = ViolationWitness(
        group=frozenset(group), candidate_set=frozenset(cand_set), deprived=frozenset(group)
    )
    return AxiomVerdict(axiom, "violated", witness, budget.nodes)


def consecutive_order_exists(num_cols, sets):
    """Factorial search for a column order making every set consecutive."""
    sets = [frozenset(s) for s in sets if s]
    for perm in permutations(range(num_cols)):
        pos = {col: p for p, col in enumerate(perm)}
        ok = True
        for s in sets:
            ps = [pos[c] for c in s]
            if max(ps) - min(ps) + 1 != len(ps):
                ok = False
                break
        if ok:
            return list(perm)
    return None


def ends_order_exists(num_cols, sets):
    """Factorial search for a column order making every set a prefix or a suffix."""
    sets = [frozenset(s) for s in sets if s]
    for perm in permutations(range(num_cols)):
        pos = {col: p for p, col in enumerate(perm)}
        if all(
            max(ps) - min(ps) + 1 == len(ps) and (min(ps) == 0 or max(ps) == num_cols - 1)
            for ps in ([pos[c] for c in s] for s in sets)
        ):
            return list(perm)
    return None


def wsc_order_exists(election):
    """Factorial search for a voter order passing the run-pattern WSC check."""
    for perm in permutations(range(election.n)):
        if wsc_order_valid(election, perm):
            return list(perm)
    return None


# --------------------------------------------------------------------------
# EJR/PJR cohesive-set search and the solver's cover search (recursive)
# --------------------------------------------------------------------------


def cohesive_witness(election, voter_mask, level, budget):
    """A witness naming a size-`level` candidate set jointly approved by
    >= level*n/k voters from voter_mask, or None.  Depth-first over the
    candidates each backed by that many of them, most-backed first, with
    supporter-count pruning."""
    n, k = election.n, election.k
    cand_voters = election.candidate_voters
    pool = [
        c for c in range(election.m) if (cand_voters[c] & voter_mask).bit_count() * k >= level * n
    ]
    pool.sort(key=lambda c: -(cand_voters[c] & voter_mask).bit_count())

    def dfs(start: int, chosen: list[int], supp: int):
        budget.tick()
        if len(chosen) == level:
            return list(chosen), supp
        if len(chosen) + (len(pool) - start) < level:
            return None
        for idx in range(start, len(pool)):
            if len(chosen) + (len(pool) - idx) < level:
                return None
            new_supp = supp & cand_voters[pool[idx]]
            if new_supp.bit_count() * k >= level * n:
                chosen.append(pool[idx])
                hit = dfs(idx + 1, chosen, new_supp)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    found = dfs(0, [], voter_mask)
    if found is None:
        return None
    cand_set, group = found
    group = mask_to_set(group)
    return ViolationWitness(
        group=group, candidate_set=frozenset(cand_set), level=level, deprived=group
    )


def cover_search(
    election: Election, deficits: Sequence[int], budget: NodeBudget
) -> list[int] | None:
    """A candidate set of size <= k giving voter i at least deficits[i] of her
    approved candidates; None when none exists (exact).

    Branches on the candidates of a most-constrained unmet voter, cutting a
    branch as soon as some unmet voter cannot be topped up from her remaining
    approved pool within the remaining seats.
    """
    n, m, k = election.n, election.m, election.k
    ballots = election.ballot_masks
    cand_voters = election.candidate_voters
    need = list(deficits)
    if max(need, default=0) > k:
        return None
    unmet_mask = 0
    for i in range(n):
        if need[i] > 0:
            unmet_mask |= 1 << i
    chosen: list[int] = []

    def include(c: int) -> list[int]:
        nonlocal unmet_mask
        decremented = []
        for i in _iter_bits(cand_voters[c] & unmet_mask):
            need[i] -= 1
            decremented.append(i)
            if need[i] == 0:
                unmet_mask &= ~(1 << i)
        chosen.append(c)
        return decremented

    def undo(c: int, decremented: list[int]) -> None:
        nonlocal unmet_mask
        chosen.pop()
        for i in decremented:
            if need[i] == 0:
                unmet_mask |= 1 << i
            need[i] += 1

    def dfs(pool: int, seats: int) -> bool:
        budget.tick()
        if unmet_mask == 0:
            return True
        if seats == 0:
            return False
        pivot = -1
        pivot_avail = m + 1
        for i in _iter_bits(unmet_mask):
            avail = (ballots[i] & pool).bit_count()
            if avail < need[i] or need[i] > seats:
                return False
            if avail < pivot_avail:
                pivot, pivot_avail = i, avail
        options = sorted(
            _iter_bits(ballots[pivot] & pool),
            key=lambda c: (-(cand_voters[c] & unmet_mask).bit_count(), c),
        )
        sub_pool = pool
        for c in options:
            sub_pool &= ~(1 << c)  # later branches must not reuse c
            decremented = include(c)
            if dfs(sub_pool, seats - 1):
                return True
            undo(c, decremented)
        return False

    if dfs((1 << m) - 1, k):
        return list(chosen)
    return None


def counter_by_digits(values: Sequence[int]) -> list[int]:
    """The bit-sliced counter of ``values``, one digit string per slice."""
    return [
        int("".join(["1" if v >> b & 1 else "0" for v in reversed(values)]), 2)
        for b in range(max(values, default=0).bit_length())
    ]


# _DIGITS[b] maps a byte to the character of its bit b, "0" or "1"
_DIGITS = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]


def counter_by_bytes(values: Sequence[int]) -> list[int]:
    """The counter holding ``values[i]`` for voter i.  Below 256 the values
    are one byte string and each slice one translation of it into binary
    digits; wider values are split into their low byte and the rest."""
    top = max(values, default=0)
    if top < 256:
        data = bytes(values)[::-1]  # voter n-1 first, as in a binary numeral
        return [int(data.translate(_DIGITS[b]), 2) for b in range(top.bit_length())]
    low = counter_by_bytes([v & 255 for v in values])
    return low + [0] * (8 - len(low)) + counter_by_bytes([v >> 8 for v in values])


def position_mask(mask: int, order: Sequence[int]) -> int:
    """The items of ``mask`` (voters or candidates) as a mask over the
    positions of ``order``: bit p is set iff item ``order[p]`` is in the mask."""
    items = bin(mask)[:1:-1].ljust(len(order), "0")  # items[i] == "1" iff item i is in the mask
    return int("".join([items[i] for i in reversed(order)]), 2)


# --------------------------------------------------------------------------
# Domains: the frozenset t-PART blocks, the frozenset prefix/suffix layout and
# the run-pattern WSC check
# --------------------------------------------------------------------------


def recognize_tpart_by_sets(election: Election) -> TPartWitness | None:
    """t-PART recognition on frozen-set ballots: each new nonempty ballot
    becomes a block unless it overlaps an earlier one."""
    blocks: list[frozenset[int]] = []
    index_of: dict[frozenset[int], int] = {}
    voter_block: list[int] = []
    for ballot in election.approvals:
        if not ballot:
            voter_block.append(-1)
            continue
        if ballot not in index_of:
            for other in blocks:
                if other & ballot and other != ballot:
                    return None
            index_of[ballot] = len(blocks)
            blocks.append(ballot)
        voter_block.append(index_of[ballot])
    leftover = frozenset(range(election.m)) - frozenset().union(*blocks)
    if leftover:
        blocks.append(leftover)
    return TPartWitness(blocks=tuple(blocks), voter_block=tuple(voter_block))


def verify_tpart_by_sets(election: Election, witness: TPartWitness) -> bool:
    """The t-PART branch of ``verify_witness`` on frozen sets."""
    blocks = witness.blocks
    if not all(blocks) or sorted(c for block in blocks for c in block) != list(range(election.m)):
        return False
    return len(witness.voter_block) == election.n and all(
        -1 <= b < len(blocks) and ballot == (blocks[b] if b >= 0 else frozenset())
        for ballot, b in zip(election.approvals, witness.voter_block)
    )


def recognize_by_sets(election: Election, domain: str):
    """CEI, VEI and WSC recognition on frozenset families."""
    if domain == "CEI":
        layout = prefix_suffix_layout(election.m, list(election.approvals))
        if layout is None:
            return None
        order, side_of = layout
        sides = tuple(side_of.get(ballot, "prefix") for ballot in election.approvals)
        return CEIWitness(candidate_order=tuple(order), voter_side=sides)
    if domain == "VEI":
        supporter_sets = [
            mask_to_set(election.candidate_voters[c]) for c in range(election.m)
        ]
        layout = prefix_suffix_layout(election.n, supporter_sets)
        if layout is None:
            return None
        order, side_of = layout
        sides = tuple(side_of.get(s, "prefix") for s in supporter_sets)
        return VEIWitness(voter_order=tuple(order), candidate_side=sides)
    if domain == "WSC":
        return recognize_wsc_by_sets(election)
    raise ValueError(domain)


def verify_by_sets(election: Election, domain: str, witness) -> bool:
    """The CEI, VEI and WSC branches of ``verify_witness`` on position lists."""
    n, m = election.n, election.m
    if domain == "CEI":
        if not isinstance(witness, CEIWitness) or sorted(witness.candidate_order) != list(range(m)):
            return False
        if len(witness.voter_side) != n:
            return False
        pos = {c: p for p, c in enumerate(witness.candidate_order)}
        for ballot, side in zip(election.approvals, witness.voter_side):
            if side not in ("prefix", "suffix"):
                return False
            if not _matches_side([pos[c] for c in ballot], m, side):
                return False
        return True
    if domain == "VEI":
        if not isinstance(witness, VEIWitness) or sorted(witness.voter_order) != list(range(n)):
            return False
        if len(witness.candidate_side) != m:
            return False
        pos = {v: p for p, v in enumerate(witness.voter_order)}
        for c in range(m):
            side = witness.candidate_side[c]
            if side not in ("prefix", "suffix"):
                return False
            sup = [pos[v] for v in mask_to_set(election.candidate_voters[c])]
            if not _matches_side(sup, n, side):
                return False
        return True
    if domain == "WSC":
        if not isinstance(witness, WSCWitness) or sorted(witness.voter_order) != list(range(n)):
            return False
        return wsc_order_valid(election, witness.voter_order)
    raise ValueError(domain)


def _matches_side(positions: list[int], total: int, side: str) -> bool:
    if not positions:
        return True
    if max(positions) - min(positions) + 1 != len(positions):
        return False
    return min(positions) == 0 if side == "prefix" else max(positions) == total - 1


def wsc_order_valid(election: Election, order: Sequence[int]) -> bool:
    """Direct check of the weakly single-crossing condition for every pair."""
    n = election.n
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    masks = election.candidate_voters
    for c in range(election.m):
        for d in range(c + 1, election.m):
            only_c = masks[c] & ~masks[d]
            only_d = masks[d] & ~masks[c]
            runs = _collapsed_runs(only_c, only_d, pos, n)
            if runs not in _WSC_RUN_PATTERNS:
                return False
    return True


def _collapsed_runs(only_c: int, only_d: int, pos: Sequence[int], n: int) -> tuple[int, ...]:
    symbols = [3] * n
    mask = only_c
    while mask:
        low = mask & -mask
        symbols[pos[low.bit_length() - 1]] = 1
        mask ^= low
    mask = only_d
    while mask:
        low = mask & -mask
        symbols[pos[low.bit_length() - 1]] = 2
        mask ^= low
    runs: list[int] = []
    for s in symbols:
        if not runs or runs[-1] != s:
            runs.append(s)
    return tuple(runs)


def _subsequences(seq: tuple[int, ...]) -> set[tuple[int, ...]]:
    out = {()}
    for x in seq:
        out |= {prefix + (x,) for prefix in out}
    return out


_WSC_RUN_PATTERNS = _subsequences((1, 3, 2)) | _subsequences((2, 3, 1))


def recognize_wsc_by_sets(election: Election):
    n = election.n
    all_mask = election.all_voters_mask()
    family: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    forced_diff: list[tuple[frozenset[int], frozenset[int]]] = []

    def intern(mask: int) -> frozenset[int] | None:
        if mask == 0 or mask == all_mask:
            return None  # empty or full sets sit at an end of any order
        s = mask_to_set(mask)
        if s not in seen:
            seen.add(s)
            family.append(s)
        return s

    masks = election.candidate_voters
    for c in range(election.m):
        for d in range(c + 1, election.m):
            x = intern(masks[c] & ~masks[d])
            y = intern(masks[d] & ~masks[c])
            if x is not None and y is not None:
                forced_diff.append((x, y))
    layout = prefix_suffix_layout(n, family, forced_diff)
    if layout is None:
        return None
    order, _ = layout
    if not wsc_order_valid(election, order):
        return None
    return WSCWitness(voter_order=tuple(order))


def prefix_suffix_layout(
    num_columns: int,
    sets: Sequence[frozenset[int]],
    forced_diff: Sequence[tuple[frozenset[int], frozenset[int]]] = (),
) -> tuple[list[int], dict[frozenset[int], str]] | None:
    """Assign each set to an end ('prefix'/'suffix') of a single column order.

    Two sets can share an end only if nested; sets at opposite ends must
    intersect in exactly max(0, |A|+|B|-num_columns) columns.  These pairwise
    constraints induce a parity two-coloring; the order itself follows from
    the two containment chains.
    """
    fam: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for s in sets:
        if s and s not in seen:
            seen.add(s)
            fam.append(s)

    idx = {s: i for i, s in enumerate(fam)}
    edges: list[list[tuple[int, int]]] = [[] for _ in fam]  # (neighbor, parity)

    def add_edge(i: int, j: int, parity: int) -> None:
        edges[i].append((j, parity))
        edges[j].append((i, parity))

    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            a, b = fam[i], fam[j]
            same_ok = a <= b or b <= a
            cross_ok = len(a & b) == max(0, len(a) + len(b) - num_columns)
            if not same_ok and not cross_ok:
                return None
            if same_ok and not cross_ok:
                add_edge(i, j, 0)
            elif cross_ok and not same_ok:
                add_edge(i, j, 1)
    for a, b in forced_diff:
        i, j = idx[a], idx[b]
        if len(a & b) != max(0, len(a) + len(b) - num_columns):
            return None
        add_edge(i, j, 1)

    color = [-1] * len(fam)
    for start in range(len(fam)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v, parity in edges[u]:
                want = color[u] ^ parity
                if color[v] == -1:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return None

    prefixes = sorted((s for i, s in enumerate(fam) if color[i] == 0), key=len)
    suffixes = sorted((s for i, s in enumerate(fam) if color[i] == 1), key=len)

    def layer(chains: list[frozenset[int]], col: int) -> float:
        for rank, s in enumerate(chains):
            if col in s:
                return rank
        return float("inf")

    order = sorted(
        range(num_columns),
        key=lambda col: (layer(prefixes, col), -layer(suffixes, col), col),
    )
    side_of: dict[frozenset[int], str] = {}
    for i, s in enumerate(fam):
        side = "prefix" if color[i] == 0 else "suffix"
        positions = [order.index(col) for col in s]
        if not _matches_side(positions, num_columns, side):
            return None  # pairwise-consistent but globally infeasible; caught here
        side_of[s] = side
    return order, side_of


def recognize_wsc_over_candidate_pairs(election: Election) -> WSCWitness | None:
    """WSC recognition that differences every pair of candidates, equal
    supporter sets included, and builds the whole family before laying it
    out with :func:`prefix_suffix_layout_over_whole_family`."""
    full = election.all_voters_mask()
    masks = election.candidate_voters
    family: list[int] = []
    for c in range(election.m):
        for d in range(c + 1, election.m):
            pair = (masks[c] & ~masks[d], masks[d] & ~masks[c])
            family += (x for x in pair if x != full)
    layout = prefix_suffix_layout_over_whole_family(election.n, family)
    if layout is None:
        return None
    order, _ = layout
    if not wsc_order_valid_per_candidate_pair(election, order):
        raise AssertionError("internal error: the WSC layout failed verification")
    return WSCWitness(voter_order=tuple(order))


def prefix_suffix_layout_over_whole_family(
    num_columns: int, masks: Sequence[int]
) -> tuple[list[int], dict[int, str]] | None:
    """The mask prefix/suffix layout that deduplicates the whole family first
    and then tests its pairs row by row."""
    fam = [mask for mask in dict.fromkeys(masks) if mask]
    size = [mask.bit_count() for mask in fam]
    edges: list[list[tuple[int, int]]] = [[] for _ in fam]  # (neighbor, parity)
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            common = fam[i] & fam[j]
            same = common in (fam[i], fam[j])
            cross = common.bit_count() == max(0, size[i] + size[j] - num_columns)
            if not same and not cross:
                return None
            if same != cross:
                edges[i].append((j, int(cross)))
                edges[j].append((i, int(cross)))

    color = [-1] * len(fam)
    for start in range(len(fam)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v, parity in edges[u]:
                want = color[u] ^ parity
                if color[v] == -1:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return None

    def layers(side: int) -> list[int]:
        chain = sorted((i for i in range(len(fam)) if color[i] == side), key=size.__getitem__)
        rank = [len(chain)] * num_columns
        covered = 0
        for r, i in enumerate(chain):
            for col in _iter_bits(fam[i] & ~covered):
                rank[col] = r
            covered |= fam[i]
        return rank

    prefix_rank, suffix_rank = layers(0), layers(1)
    order = sorted(range(num_columns), key=lambda col: (prefix_rank[col], -suffix_rank[col], col))
    side_of: dict[int, str] = {}
    for i, pm in enumerate(position_masks(fam, order)):
        side = "suffix" if color[i] else "prefix"
        if not is_run(pm, side, num_columns):
            return None
        side_of[fam[i]] = side
    return order, side_of


def wsc_order_valid_per_candidate_pair(election: Election, order: Sequence[int]) -> bool:
    """The position-mask WSC check over every pair of candidates, equal
    supporter sets included."""
    n = election.n
    along = position_masks(election.candidate_voters, order)
    for c in range(election.m):
        for d in range(c + 1, election.m):
            only_c = along[c] & ~along[d]
            only_d = along[d] & ~along[c]
            if not (
                is_run(only_c, "prefix") and is_run(only_d, "suffix", n)
                or is_run(only_d, "prefix") and is_run(only_c, "suffix", n)
            ):
                return False
    return True


# --------------------------------------------------------------------------
# Thiele rules: Fraction scores over plain enumeration
# --------------------------------------------------------------------------


def thiele_score(election, members, weights):
    """sum over voters of weights[0] + ... + weights[u-1], u = |ballot & W|, in Fractions."""
    total = Fraction(0)
    for ballot in election.approvals:
        for t in range(len(ballot & members)):
            total += weights[t] if t < len(weights) else Fraction(0)
    return total


def cc_score(election, members):
    return sum(1 for ballot in election.approvals if ballot & members)


def brute_optimum(election, score, all_tied):
    """Lex-first (or all tied, in lex order) maximisers of score over size-k committees."""
    best_score, best = None, []
    for combo in combinations(range(election.m), election.k):
        s = score(election, frozenset(combo))
        if best_score is None or s > best_score:
            best_score, best = s, [combo]
        elif s == best_score and all_tied:
            best.append(combo)
    return best, best_score


def seq_thiele(election, weights):
    """Greedy Thiele: add the lowest-index candidate of largest marginal gain."""
    chosen, picks = [], []
    for _ in range(election.k):
        base = thiele_score(election, frozenset(chosen), weights)
        best_c, best_gain = None, None
        for c in range(election.m):
            if c in chosen:
                continue
            gain = thiele_score(election, frozenset(chosen + [c]), weights) - base
            if best_gain is None or gain > best_gain:
                best_c, best_gain = c, gain
        chosen.append(best_c)
        picks.append((best_c, best_gain))
    return sorted(chosen), picks


def rev_seq_thiele(election, weights):
    """Reverse greedy Thiele: drop the highest-index candidate of least marginal loss."""
    committee, removals = list(range(election.m)), []
    while len(committee) > election.k:
        full = thiele_score(election, frozenset(committee), weights)
        losses = [
            (full - thiele_score(election, frozenset(committee) - {c}, weights), c)
            for c in committee
        ]
        least = min(loss for loss, _ in losses)
        drop = max(c for loss, c in losses if loss == least)
        committee.remove(drop)
        removals.append((drop, least))
    return committee, removals


# --------------------------------------------------------------------------
# Exact rules: the unbounded engines that the bounded lex search replaced
# --------------------------------------------------------------------------


def _minimax_score(election: Election, wmask: int) -> int:
    worst = 0
    for b in election.ballot_masks:
        dist = (b & ~wmask).bit_count() + (wmask & ~b).bit_count()
        worst = max(worst, dist)
    return worst


def _monroe_score(election: Election, members: Sequence[int]) -> int:
    """Maximum number of voters assigned to an approved committee member under
    a balanced assignment: member loads are floor(n/k) with n mod k members
    allowed one extra voter (the unassigned rest never scores)."""
    n, k = election.n, election.k
    base, extra = divmod(n, k)
    source, sink, extra_node = 0, 1, 2
    member_node = {c: 3 + j for j, c in enumerate(members)}
    voter_node0 = 3 + len(members)
    arcs = []
    for v in range(n):
        arcs.append((source, voter_node0 + v, 1))
        for c in election.approvals[v]:
            if c in member_node:
                arcs.append((voter_node0 + v, member_node[c], 1))
    for node in member_node.values():
        arcs.append((node, sink, base))
        if extra:
            arcs.append((node, extra_node, 1))
    if extra:
        arcs.append((extra_node, sink, extra))
    return max_flow(voter_node0 + n, arcs, source, sink)[0]


def probe_rule(election: Election, rule: RuleId, wanted) -> tuple[bool, ...]:
    """The rule probe that lists every winner: `run_rule` (all tied winners of
    an exact rule) and a demand test on each winner's mask."""
    mode = "single" if rule.is_sequential else "all_tied"
    wmasks = [w.mask() for w in run_rule(election, rule, mode=mode).committees]
    return tuple(
        any(first_unmet(election, w, demand) is None for w in wmasks) for demand in wanted
    )


def run_instance_by_certificates(args) -> ExperimentRow:
    """One experiment row as ``experiment._run_instance`` made it over the
    ``f_vector`` certificates: FIND_IR and, unless it found a committee or
    every f_i <= 1, FIND_SSJR through ``find_committee``; ``ms`` is 0."""
    spec, model, k, index = args
    seed = instance_seed(spec.seed, model, k, index)
    params = dict(spec.gen_params.get(model, {}))
    election = generate(GenSpec(model=model, n=spec.n, m=spec.m, seed=seed, params=params), k=k)
    try:
        fvec = tuple(f_vector(election, node_cap=spec.node_cap))
    except BudgetExceededError:
        hits = tuple((str(rule), False, False) for rule in spec.rules)
        return ExperimentRow(model, k, seed, None, None, hits, True, 0)
    ir_res = find_committee(SolveRequest(election, fvec, "FIND_IR", node_cap=spec.node_cap))
    ssjr_res = ir_res
    if ir_res.status != "found" and any(cert.f > 1 for cert in fvec):
        ssjr_res = find_committee(SolveRequest(election, fvec, "FIND_SSJR", node_cap=spec.node_cap))
    f = [cert.f for cert in fvec]
    wanted = (demands(f, "FIND_IR"), demands(f, "FIND_SSJR"))
    hits = tuple((str(rule), *probe(election, rule, wanted)) for rule in spec.rules)
    found = lambda res: None if res.status == "undecided" else res.status == "found"
    undecided = "undecided" in (ir_res.status, ssjr_res.status)
    return ExperimentRow(model, k, seed, found(ir_res), found(ssjr_res), hits, undecided, 0)


def run_instance_probing_all(args) -> ExperimentRow:
    """One experiment row as ``experiment._run_instance`` made it before it
    skipped the demand vectors the solver proved infeasible: every rule is
    probed on both f and min(f, 1) whenever the entitlements are decided;
    ``ms`` is 0."""
    spec, model, k, index = args
    seed = instance_seed(spec.seed, model, k, index)
    params = dict(spec.gen_params.get(model, {}))
    election = generate(GenSpec(model=model, n=spec.n, m=spec.m, seed=seed, params=params), k=k)
    try:
        f = entitlements(election, spec.node_cap)
    except BudgetExceededError:
        ir_exists = ssjr_exists = None
        rule_hits = tuple((str(rule), False, False) for rule in spec.rules)
    else:
        ir_res, ssjr_res = find_ir_and_ssjr(election, f, spec.node_cap)
        ir_exists = None if ir_res.status == "undecided" else ir_res.status == "found"
        ssjr_exists = None if ssjr_res.status == "undecided" else ssjr_res.status == "found"
        wanted = (f, demands(f, "FIND_SSJR")) if spec.rules else ()
        rule_hits = tuple((str(rule), *probe(election, rule, wanted)) for rule in spec.rules)
    return ExperimentRow(
        model=model,
        k=k,
        seed=seed,
        ir_exists=ir_exists,
        ssjr_exists=ssjr_exists,
        rule_hits=rule_hits,
        undecided=ir_exists is None or ssjr_exists is None,
        ms=0,
    )


def check_given_certificates(
    election: Election, committee: Committee, axiom: AxiomId, fvec: Sequence[CohesionCertificate]
) -> AxiomVerdict:
    """IR, (alpha, beta)-IR or semi-strong JR read off all n certificates
    ``fvec``: the first voter with fewer approved members than her demand
    (the least w with alpha*w + beta >= f_i, or min(f_i, 1) for semi-strong
    JR), with her certificate as the witness, at cost 0.  ``axioms.check``
    takes the values from the entitlement walk and builds that voter's
    certificate alone; for semi-strong JR it names an approved singleton."""
    f = [cert.f for cert in fvec]
    if axiom.kind == "SSJR":
        wanted = demands(f, "FIND_SSJR")
    elif axiom.kind in ("IR", "ALPHA_BETA_IR"):
        wanted = deficits_for(f, axiom.alpha or 1, axiom.beta or 0)
    else:
        raise ValueError(f"{axiom} is not read off the certificates")
    i = first_unmet(election, committee.mask(), wanted)
    if i is None:
        return AxiomVerdict(axiom, "satisfied", None, 0)
    cert = fvec[i]
    witness = ViolationWitness(
        group=cert.witness_supporters.members,
        candidate_set=cert.witness_set,
        level=cert.f,
        deprived=frozenset([i]),
    )
    return AxiomVerdict(axiom, "violated", witness, 0)


def verify_violation_per_kind(
    election: Election,
    committee: Committee,
    axiom: AxiomId,
    witness: ViolationWitness,
) -> bool:
    """Re-check a violation witness by direct counting, one branch per kind
    with its own group, backing and S-within-the-ballot tests; every kind
    that reads ``level`` refuses one that is not a positive whole number.
    ``axioms.verify_violation`` runs the shared tests once."""
    n, k = election.n, election.k
    wmask = committee.mask()
    counts = [(ballot & wmask).bit_count() for ballot in election.ballot_masks]
    kind = axiom.kind
    if kind not in ("CORE", "PERFECT_REP"):
        level = witness.level
        if isinstance(level, bool) or not isinstance(level, (int, Fraction)):
            return False
        if level < 1 or level != int(level):
            return False
    if kind in ("IR", "ALPHA_BETA_IR", "SSJR"):
        alpha = axiom.alpha if kind == "ALPHA_BETA_IR" else Fraction(1)
        beta = axiom.beta if kind == "ALPHA_BETA_IR" else Fraction(0)
        if not witness.deprived:
            return False
        level = witness.level
        supp = election.supporters_mask(witness.candidate_set)
        if mask_to_set(supp) != witness.group:
            return False
        if supp.bit_count() * k < len(witness.candidate_set) * n:
            return False
        if len(witness.candidate_set) != level:
            return False
        smask = members_mask(witness.candidate_set)
        for i in witness.deprived:
            if smask & ~election.ballot_masks[i]:  # S is not within A_i
                return False
            if kind == "SSJR":
                if counts[i] >= 1:
                    return False
            elif alpha * counts[i] + beta >= level:
                return False
        return True
    if kind in ("JR", "EJR"):
        level = witness.level
        if len(witness.candidate_set) != level or not witness.group:
            return False
        if len(witness.group) * k < level * n:
            return False
        smask = members_mask(witness.candidate_set)
        for i in witness.group:
            if smask & ~election.ballot_masks[i]:
                return False
            if counts[i] >= level:
                return False
        return True
    if kind == "PJR":
        level = witness.level
        if len(witness.candidate_set) != level or not witness.group:
            return False
        if len(witness.group) * k < level * n:
            return False
        smask = members_mask(witness.candidate_set)
        union = 0
        for i in witness.group:
            if smask & ~election.ballot_masks[i]:
                return False
            union |= election.ballot_masks[i]
        return (union & wmask).bit_count() < level
    if kind == "FJR":
        beta = witness.level
        if len(witness.group) * k < len(witness.candidate_set) * n:
            return False
        smask = members_mask(witness.candidate_set)
        for i in witness.group:
            if (election.ballot_masks[i] & smask).bit_count() < beta:
                return False
            if counts[i] >= beta:
                return False
        return bool(witness.group)
    if kind == "CORE":
        if not witness.group or not witness.candidate_set:
            return False
        if len(witness.group) * k < len(witness.candidate_set) * n:
            return False
        smask = members_mask(witness.candidate_set)
        for i in witness.group:
            if (election.ballot_masks[i] & smask).bit_count() <= counts[i]:
                return False
        return True
    if kind == "PERFECT_REP":
        share = n // k
        hall = witness.group
        if not hall:
            return False
        union = 0
        for i in hall:
            union |= election.ballot_masks[i]
        return (union & wmask).bit_count() * share < len(hall)
    raise ValueError(f"no witness verification for {kind}")


def shortfall_by_fractions(axiom: AxiomId, held: int, level: Fraction | int) -> bool:
    """Whether a voter holding ``held`` committee members falls short of
    ``level`` under IR, (alpha,beta)-IR, JR or EJR: alpha*held + beta < level
    in `Fraction` arithmetic (alpha = 1 and beta = 0 but for (alpha,beta)-IR)."""
    return (axiom.alpha or 1) * held + (axiom.beta or 0) < level


def _thiele_classes(
    election: Election, weights: Sequence[int], depth: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Identical non-empty ballots as classes: rows[i][t] is the scaled score
    class i gains from its (t+1)-th approved member (t < depth), and
    approvers[c] lists the classes approving c."""
    classes = {}
    for b in election.ballot_masks:
        if b:
            classes[b] = classes.get(b, 0) + 1
    padded = list(weights[:depth]) + [0] * (depth - len(weights))
    rows = [[mult * w for w in padded] for mult in classes.values()]
    approvers = [[] for _ in range(election.m)]
    for i, b in enumerate(classes):
        for c in _iter_bits(b):
            approvers[c].append(i)
    return rows, approvers


def _enumerate_guard(election: Election) -> None:
    m, k = election.m, election.k
    if comb(m, k) > MAX_ENUMERATED_COMMITTEES:
        raise RuntimeError(f"C({m},{k}) exceeds the committee enumeration cap")


def _thiele_optimize(
    election: Election, weights: Sequence[int], all_tied: bool
) -> tuple[list[tuple[int, ...]], int]:
    """Maximise a scaled-integer Thiele score over all size-k committees.

    The depth-first search adds candidates in increasing order, so it visits
    committees in the lexicographic order of `itertools.combinations`: the
    first optimum found is the lex-first one and ties are listed in that
    order.  Adding a candidate rescores only the classes approving it; the
    last member is scored without touching the counts.
    """
    _enumerate_guard(election)
    m, k = election.m, election.k
    rows, approvers = _thiele_classes(election, weights, k)
    counts = [0] * len(rows)
    best, winners = -1, []
    chosen: list[int] = []
    saved: list[int] = []  # the score before each member of `chosen`
    score = nxt = 0
    while True:
        depth = len(chosen)
        if depth < k - 1:
            if nxt <= m - k + depth:
                saved.append(score)
                for i in approvers[nxt]:
                    score += rows[i][counts[i]]
                    counts[i] += 1
                chosen.append(nxt)
                nxt += 1
                continue
        else:
            gains = [row[t] for row, t in zip(rows, counts)]
            for c in range(nxt, m):
                s = score + sum([gains[i] for i in approvers[c]])
                if s > best:
                    best, winners = s, [(*chosen, c)]
                elif s == best and all_tied:
                    winners.append((*chosen, c))
        if not chosen:
            return winners, best
        last = chosen.pop()
        for i in approvers[last]:
            counts[i] -= 1
        score = saved.pop()
        nxt = last + 1


def _optimize(
    election: Election, score, maximize: bool, all_tied: bool
) -> tuple[list[tuple[int, ...]], object]:
    """Enumerate size-k committees lexicographically and keep the optimum."""
    _enumerate_guard(election)
    best_score = None
    best: list[tuple[int, ...]] = []
    for combo in combinations(range(election.m), election.k):
        s = score(combo)
        if best_score is None:
            best_score, best = s, [combo]
            continue
        better = s > best_score if maximize else s < best_score
        if better:
            best_score, best = s, [combo]
        elif s == best_score and all_tied:
            best.append(combo)
    return best, best_score


# --------------------------------------------------------------------------
# Thiele rules: the bounded lex search that scored one committee per leaf,
# before the bit-sliced blocks
# --------------------------------------------------------------------------


def _lex_search(election: Election, push, pop, extend, bound, all_tied: bool) -> tuple:
    """Maximise a key over all size-k committees, in lexicographic order.

    Candidates are added in increasing order, so committees are visited in
    `itertools.combinations` order: the first optimum found is the lex-first
    one and ties are listed in that order.  ``push(c)``/``pop(c)`` add and
    remove a prefix member; ``extend(c)`` is the key of the prefix plus c as
    its last member, never pushed.  ``bound(nxt, r)`` (None for no bound)
    bounds the key of every completion by r members from nxt..m-1 from
    above; a prefix that cannot beat the best key (or tie it, when all ties
    are wanted) is cut.  It is asked only with two or more seats left and a
    pool of at least twice the seats, where a cut outweighs its cost.
    Returns the optimal committees and their key.
    """
    m, k = election.m, election.k
    if comb(m, k) > MAX_ENUMERATED_COMMITTEES:
        raise RuntimeError(f"C({m},{k}) exceeds the committee enumeration cap")
    best, winners = None, []
    chosen: list[int] = []
    nxt = 0
    while True:
        left = k - len(chosen)  # seats still to fill
        if left > 1:
            if nxt <= m - left:
                push(nxt)
                chosen.append(nxt)
                nxt += 1
                if m - nxt < 2 * (left - 1) or left < 3 or best is None or bound is None:
                    continue
                upper = bound(nxt, left - 1)
                if upper > best or (upper == best and all_tied):
                    continue
        else:
            for c in range(nxt, m):
                key = extend(c)
                if best is None or key > best:
                    best, winners = key, [(*chosen, c)]
                elif key == best and all_tied:
                    winners.append((*chosen, c))
        if not chosen:
            return winners, best
        last = chosen.pop()
        pop(last)
        nxt = last + 1


def _thiele_search(election: Election, weights: Sequence[int], all_tied: bool) -> tuple[list, int]:
    """Maximise a scaled-integer Thiele score with `_lex_search`.

    Adding a member rescores only the classes approving it.  The weights
    never increase, so a candidate's gain only shrinks as members join: the
    score plus the r largest current gains bounds every completion by r
    members.
    """
    rows, approvers = _thiele_classes(election, weights, election.k)
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

    def extend(c):
        return score + sum([rows[i][counts[i]] for i in approvers[c]])

    def bound(nxt, r):
        gains = [row[t] for row, t in zip(rows, counts)]
        pool = sorted([sum([gains[i] for i in approvers[c]]) for c in range(nxt, election.m)])
        return score + sum(pool[-r:])

    return _lex_search(election, push, pop, extend, bound, all_tied)


# --------------------------------------------------------------------------
# Mallows repeated insertion: a linear scan of freshly built weights, and
# the full ranking drawn by bisecting a table of running weight sums
# --------------------------------------------------------------------------


def mallows_sample(ref, phi, rng):
    ranking = []
    for i, item in enumerate(ref, start=1):
        # position j in 1..i (1 = front) has weight phi^(i-j)
        if phi >= 1.0:
            j = rng.randint(1, i)
        else:
            weights = [phi ** (i - j) for j in range(1, i + 1)]
            u = rng.random() * sum(weights)
            acc = 0.0
            j = i
            for idx, w in enumerate(weights, start=1):
                acc += w
                if u <= acc:
                    j = idx
                    break
        ranking.insert(j - 1, item)
    return ranking


def insertion_table(phi: float, m: int) -> list[tuple[list[float], float]]:
    """For i = 1..m: the running sums of the insertion weights phi^(i-j),
    j = 1..i, accumulated front to back, and their total `sum(weights)`."""
    powers = [phi**e for e in range(m)]
    table = []
    for i in range(1, m + 1):
        weights = powers[i - 1 :: -1]  # phi^(i-j) for j = 1..i
        table.append((list(accumulate(weights)), sum(weights)))
    return table


def mallows_sample_bisected(
    ref: list[int], phi: float, rng: random.Random, table: list | None = None
) -> list[int]:
    """Repeated-insertion sampling of the full ranking; phi=0 reproduces the
    reference ranking, phi=1 is a uniformly random permutation.  ``table`` is
    ``insertion_table(phi, len(ref))``, built here when not given."""
    ranking: list[int] = []
    insert = ranking.insert
    if phi >= 1.0:
        randint = rng.randint
        for i, item in enumerate(ref, start=1):
            insert(randint(1, i) - 1, item)  # every position equally likely
        return ranking
    if table is None:
        table = insertion_table(phi, len(ref))
    random_ = rng.random
    # item i goes to position j in 1..i (1 = front), of weight phi^(i-j): the
    # first j whose running sum reaches u; past the back (when rounding leaves
    # u above them all) the insertion appends
    for (prefix, total), item in zip(table, ref):
        insert(bisect_left(prefix, random_() * total), item)
    return ranking


# --------------------------------------------------------------------------
# Generators: the set-based builders
# --------------------------------------------------------------------------


def generate_by_sets(spec: GenSpec) -> list[frozenset[int]]:
    """The ballots of ``gen.generate(spec)`` as frozensets, drawn by the
    set-building generator bodies (one set comprehension per voter) from the
    same random stream; Mallows insertions bisect a table of running weight
    sums built row by row."""
    rng = random.Random(spec.seed)
    n, m, params = spec.n, spec.m, spec.params
    cap = max(1, m // 4)
    if spec.model == "vi_euclid":
        sigma = float(params.get("sigma", 0.15))
        voters = [rng.random() for _ in range(n)]
        cands = [rng.random() for _ in range(m)]
        radii = [abs(rng.gauss(0.0, sigma)) for _ in range(m)]
        ballots = [{c for c in range(m) if abs(x - cands[c]) <= radii[c]} for x in voters]
    elif spec.model == "ci_euclid":
        sigma = float(params.get("sigma", 0.15))
        voters = [rng.random() for _ in range(n)]
        cands = [rng.random() for _ in range(m)]
        radii = [abs(rng.gauss(0.0, sigma)) for _ in range(n)]
        ballots = [
            {c for c in range(m) if abs(voters[v] - cands[c]) <= radii[v]} for v in range(n)
        ]
    elif spec.model == "euclid_2d":
        num_centers = rng.randint(1, 5)
        centers = [(rng.random(), rng.random()) for _ in range(num_centers)]
        spread = float(params.get("sigma", 0.2))
        radius_sigma = float(params.get("radius_sigma", 0.5))
        owner = params.get("radius_owner", "candidate")

        def sample_point() -> tuple[float, float]:
            cx, cy = centers[rng.randrange(num_centers)]
            return rng.gauss(cx, spread), rng.gauss(cy, spread)

        vpts = [sample_point() for _ in range(n)]
        cpts = [sample_point() for _ in range(m)]
        radii = [abs(rng.gauss(0.0, radius_sigma)) for _ in range(m if owner == "candidate" else n)]
        ballots = [
            {
                c
                for c in range(m)
                if math.dist(vpts[v], cpts[c]) <= radii[c if owner == "candidate" else v]
            }
            for v in range(n)
        ]
    elif spec.model == "ic":
        p = float(params.get("p", 0.15))
        ballots = [{c for c in range(m) if rng.random() < p} for _ in range(n)]
    elif spec.model == "urn":
        replace = rng.randint(1, cap)
        ballots = []
        for t in range(n):
            u = rng.random() * (1 + replace * t)
            if u < 1:
                ballots.append(set(rng.sample(range(m), rng.randint(1, cap))))
            else:
                ballots.append(set(ballots[int((u - 1) // replace)]))
    else:  # mallows
        components = []
        for _ in range(3):
            base = list(range(m))
            rng.shuffle(base)
            phi = rng.random()
            table = []
            for i in range(1, m + 1):
                weights = [phi ** (i - j) for j in range(1, i + 1)]
                table.append((list(accumulate(weights)), sum(weights)))
            components.append((base, table))
        ballots = []
        for _ in range(n):
            base, table = components[rng.randrange(3)]
            ranking = []
            for i, item in enumerate(base, start=1):
                prefix, total = table[i - 1]
                j = bisect_left(prefix, rng.random() * total) + 1
                ranking.insert(j - 1, item)
            ballots.append(set(ranking[: rng.randint(1, cap)]))
    return [frozenset(b) for b in ballots]


# --------------------------------------------------------------------------
# seq-Phragmen and Rule X: per-voter Fraction loads and budgets
# --------------------------------------------------------------------------


def _seq_phragmen(
    election: Election,
    start_loads: list[Fraction] | None = None,
    partial: Iterable[int] = (),
) -> tuple[list[int], list[Fraction]]:
    n, k = election.n, election.k
    loads = list(start_loads) if start_loads is not None else [Fraction(0)] * n
    committee = list(partial)
    chosen_mask = members_mask(committee)
    unreachable = Fraction(k + 1)  # worse than any genuine load
    while len(committee) < k:
        best_c, best_load = -1, None
        for c in range(election.m):
            if chosen_mask >> c & 1:
                continue
            sup = election.candidate_voters[c]
            weight = sup.bit_count()
            if weight == 0:
                new_load = unreachable
            else:
                new_load = (1 + sum(loads[v] for v in _iter_bits(sup))) / weight
            if best_load is None or new_load < best_load:
                best_c, best_load = c, new_load
        committee.append(best_c)
        chosen_mask |= 1 << best_c
        if best_load != unreachable:
            for v in _iter_bits(election.candidate_voters[best_c]):
                loads[v] = best_load
    return committee, loads


def _rule_x(election: Election) -> tuple[list[int], dict]:
    """Method of Equal Shares with unit prices and k/n starting budgets,
    completed by continuing seq-Phragmen on the residual budgets."""
    n, k = election.n, election.k
    budgets = [Fraction(k, n)] * n
    committee: list[int] = []
    chosen_mask = 0
    rhos: list[Fraction] = []
    while len(committee) < k:
        best_c, best_rho = -1, None
        for c in range(election.m):
            if chosen_mask >> c & 1:
                continue
            rho = _affordable_rho(election, budgets, c)
            if rho is None:
                continue
            if best_rho is None or rho < best_rho:
                best_c, best_rho = c, rho
        if best_c == -1:
            break  # no candidate affordable; complete via seq-Phragmen
        committee.append(best_c)
        chosen_mask |= 1 << best_c
        rhos.append(best_rho)
        for v in _iter_bits(election.candidate_voters[best_c]):
            budgets[v] -= min(budgets[v], best_rho)
    completed = False
    if len(committee) < k:
        completed = True
        start_loads = [-b for b in budgets]
        committee, _ = _seq_phragmen(election, start_loads=start_loads, partial=committee)
    meta = {
        "balances": tuple(budgets),
        "rhos": tuple(rhos),
        "completion": "seq_phragmen" if completed else None,
    }
    return committee, meta


def _affordable_rho(election: Election, budgets: list[Fraction], c: int) -> Fraction | None:
    """Smallest per-voter payment rho with sum_{approvers} min(b_v, rho) = 1."""
    sup = [v for v in _iter_bits(election.candidate_voters[c])]
    if not sup:
        return None
    if sum(budgets[v] for v in sup) < 1:
        return None
    rich = set(sup)
    poor_paid = Fraction(0)
    while rich:
        rho = (1 - poor_paid) / len(rich)
        newly_poor = {v for v in rich if budgets[v] < rho}
        if not newly_poor:
            return rho
        poor_paid += sum(budgets[v] for v in newly_poor)
        rich -= newly_poor
    return None


def greedy_monroe(election: Election) -> tuple[list[int], list]:
    """Greedy Monroe by a membership test per seat, candidate and remaining voter."""
    n, k = election.n, election.k
    remaining_voters = list(range(n))
    remaining_cands = set(range(election.m))
    committee = []
    assignment = []
    for t in range(k):
        quota = n // k + (1 if t < n % k else 0)
        best_c, best_approvals = -1, -1
        for c in sorted(remaining_cands):
            approvals = sum(
                1 for v in remaining_voters if c in election.approvals[v]
            )
            if approvals > best_approvals:
                best_c, best_approvals = c, approvals
        approvers = [v for v in remaining_voters if best_c in election.approvals[v]]
        removed = approvers[:quota]
        assignment.append((best_c, tuple(removed)))
        remaining_voters = [v for v in remaining_voters if v not in removed]
        remaining_cands.remove(best_c)
        committee.append(best_c)
    return committee, assignment


# --------------------------------------------------------------------------
# The .avp format: the token-by-token reader
# --------------------------------------------------------------------------


def parse_profile(text: str) -> Election:
    """Parse a ``.avp`` character stream into a validated :class:`Election`,
    reading every ballot token by token with ``int``.

    Format: line 1 is ``n m k``; the next n non-comment lines hold the 1-based
    candidate indices approved by voters 1..n (an empty line is an empty
    ballot).  ``#`` starts a comment line, trailing whitespace is ignored,
    LF and CRLF are both accepted.
    """
    header: tuple[int, int, int] | None = None
    approvals: list[frozenset[int]] = []
    header_values: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.lstrip().startswith("#"):
            continue
        if header is None:
            if not line.strip():
                continue  # leading blank lines before the header are harmless
            parts = line.split()
            if len(parts) != 3:
                raise ProfileFormatError(
                    f"header must be 'n m k', got {line.strip()!r}", lineno
                )
            try:
                header_values = [int(p) for p in parts]
            except ValueError:
                raise ProfileFormatError(
                    f"header must contain integers, got {line.strip()!r}", lineno
                ) from None
            n, m, k = header_values
            if n <= 0 or m <= 0:
                raise ProfileFormatError(f"n and m must be positive, got n={n} m={m}", lineno)
            if not 1 <= k <= m:
                raise ProfileFormatError(f"k={k} out of range [1, {m}]", lineno)
            header = (n, m, k)
            continue
        n, m, k = header
        if len(approvals) == n:
            raise ProfileFormatError(
                f"unexpected extra content after {n} voter lines: {line.strip()!r}", lineno
            )
        ballot: set[int] = set()
        for token in line.split():
            try:
                idx = int(token)
            except ValueError:
                raise ProfileFormatError(
                    f"invalid candidate index {token!r}", lineno
                ) from None
            if not 1 <= idx <= m:
                raise ProfileFormatError(
                    f"candidate index {idx} out of range [1, {m}]", lineno
                )
            if idx - 1 in ballot:
                raise ProfileFormatError(f"duplicate candidate index {idx}", lineno)
            ballot.add(idx - 1)
        approvals.append(frozenset(ballot))
    if header is None:
        raise ProfileFormatError("missing header line 'n m k'")
    n, m, k = header
    if len(approvals) < n:
        raise ProfileFormatError(
            f"expected {n} voter lines, found only {len(approvals)}"
        )
    return Election.from_approvals(approvals, m=m, k=k)


# --------------------------------------------------------------------------
# Election masks: the voter-by-voter digit builder
# --------------------------------------------------------------------------


def election_masks(
    n: int, m: int, approvals: Sequence[Iterable[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(candidate_voters, ballot_masks)`` for these ballots, one digit
    written per approval, voter by voter; raises the ``ValueError`` that
    :class:`Election` raises for the first voter with an out-of-range index."""
    # one '0'/'1' digit per (voter, candidate) and a ',' after each voter;
    # voters run from n-1 down to 0 and candidates from m-1 down to 0, so
    # a voter's row and a candidate's strided column are binary numerals,
    # most significant bit first, that int(..., 2) reads as their masks
    width = m + 1
    digits = bytearray(b"0" * m + b",") * n
    for i, ballot in enumerate(approvals):
        last = (n - i) * width - 2  # voter i's digit for candidate 0
        for c in ballot:
            if not 0 <= c < m:
                raise ValueError(f"voter {i}: candidate index {c} out of range")
            digits[last - c] = 49  # ord("1")
    rows = digits.split(b",")[-2::-1]  # voter 0 first, without the empty tail
    candidate_voters = tuple(int(digits[m - 1 - c :: width], 2) for c in range(m))
    return candidate_voters, tuple(int(row, 2) for row in rows)


def _feasible_committee(election: Election, deficits, budget: NodeBudget) -> Committee | None:
    hit = _cover_search(election, deficits, budget)
    if hit is None:
        return None
    return Committee.of([*hit, *padding(election, hit)], election)


def _recheck_demands(election: Election, committee: Committee, wanted) -> None:
    if first_unmet(election, committee.mask(), wanted) is not None:
        raise AssertionError("solver returned a committee failing its demands")


def _least_feasible(election: Election, grid, deficits_at, budget: NodeBudget):
    lo, hi = 0, len(grid) - 1
    best = _feasible_committee(election, deficits_at(grid[hi]), budget)
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        committee = _feasible_committee(election, deficits_at(grid[mid]), budget)
        if committee is not None:
            best, hi = committee, mid
        else:
            lo = mid + 1
    return grid[lo], best


def find_committee_per_objective(request: SolveRequest) -> SolveResult:
    """``solver.find_committee`` with one result path per objective: FIND_IR
    and FIND_SSJR solve once, MIN_BETA and MIN_ALPHA each run their own
    bisection, re-check and result under a budget of their own, padding
    every feasible committee met on the way."""
    election, f = request.election, request.fvec
    budget = NodeBudget(request.node_cap, stage="solver.find_committee")
    if request.objective in ("FIND_IR", "FIND_SSJR"):
        wanted = demands(f, request.objective)
        try:
            committee = _feasible_committee(election, wanted, budget)
        except BudgetExceededError:
            return SolveResult("undecided", None, None, None, budget.nodes)
        if committee is None:
            return SolveResult("infeasible", None, None, None, budget.nodes)
        _recheck_demands(election, committee, wanted)
        return SolveResult("found", committee, Fraction(1), Fraction(0), budget.nodes)
    try:
        if request.objective == "MIN_BETA":
            hit = _least_feasible(
                election,
                range(max(f, default=0) + 1),
                lambda beta: deficits_for(f, request.alpha, beta),
                budget,
            )
            if hit is None:
                raise AssertionError("beta = max f_i must be feasible")
            beta, best = hit
            _recheck_demands(election, best, deficits_for(f, request.alpha, beta))
            return SolveResult("found", best, request.alpha, Fraction(beta), budget.nodes)
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
        _recheck_demands(election, best, deficits_for(f, alpha, request.beta))
        return SolveResult("found", best, alpha, request.beta, budget.nodes)
    except BudgetExceededError:
        return SolveResult("undecided", None, None, None, budget.nodes)


def max_phragmen_load_vector_by_merge_test(
    election: Election, members: Sequence[int]
) -> tuple[int, tuple[Fraction, ...], list[Fraction]]:
    """``rules.max_phragmen_load_vector`` comparing `Fraction` ratios, and
    merging a tied subset into the bottleneck only once the merged ratio is
    re-tested equal."""
    n = election.n
    loads = [Fraction(0)] * n
    active = [c for c in members if election.candidate_voters[c] != 0]
    dead = len(members) - len(active)
    remaining_voters = election.all_voters_mask()
    remaining = list(active)
    while remaining:
        best_ratio, best_union, best_sub = Fraction(0), 0, set()
        for r in range(1, len(remaining) + 1):
            for sub in combinations(remaining, r):
                union = 0
                for c in sub:
                    union |= election.candidate_voters[c] & remaining_voters
                ratio = Fraction(len(sub), union.bit_count())
                if ratio > best_ratio:
                    best_ratio, best_union, best_sub = ratio, union, set(sub)
                elif ratio == best_ratio:
                    merged = best_union | union
                    merged_sub = best_sub | set(sub)
                    if Fraction(len(merged_sub), merged.bit_count()) == ratio:
                        best_union, best_sub = merged, merged_sub
        for v in _iter_bits(best_union):
            loads[v] = best_ratio
        remaining_voters &= ~best_union
        remaining = [c for c in remaining if c not in best_sub]
    return dead, tuple(sorted(loads, reverse=True)), loads


def rule_x_rescanning(
    election: Election,
) -> tuple[list[int], dict[int, int], int, list[tuple[int, int]], bool]:
    """``rules._rule_x`` testing the affordability of every unpicked
    approved candidate at every pick, including those an earlier scan found
    unaffordable; the same five return values."""
    n, k = election.n, election.k
    cv = election.candidate_voters
    groups, scale = {k: election.all_voters_mask()}, n
    committee: list[int] = []
    remaining = [c for c in range(election.m) if cv[c]]
    rhos: list[tuple[int, int]] = []
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
        committee, _, _ = grouped_seq_phragmen(election, negated, scale, partial=committee)
    return committee, groups, scale, rhos, completed


# --------------------------------------------------------------------------
# Exact rules: the lex search driven by five callbacks, before the Thiele
# search walked its own prefixes and the keyed rules looped over combinations
# --------------------------------------------------------------------------


def lex_search_by_callbacks(m: int, k: int, push, pop, leaves, fits, bound, all_tied: bool) -> tuple:
    """Maximise a key over all k-subsets of range(m), in lexicographic order.

    Candidates are added in increasing order, so committees are visited in
    `itertools.combinations` order: the first optimum found is the lex-first
    one and ties are listed in that order.  ``push(c)``/``pop(c)`` add and
    remove a prefix member.  Once ``fits(p, r)`` holds for the pool of the p
    candidates from nxt on and the r seats left, ``leaves(prefix, nxt, r)``
    scores every completion of the prefix by r of them as one block: it
    yields (key, winner) pairs in lex order, and a winner is kept only with a
    key above the best so far (or equal to it, when all ties are wanted).
    ``bound(nxt, r)`` (None for no bound) bounds the key of every completion
    by r members from nxt..m-1 from above; a prefix that cannot beat the best
    key (or tie it, when all ties are wanted) is cut.  It is asked only with
    two or more seats left and a pool of at least twice the seats.  Returns
    the kept winners and their key.
    """
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
            for key, winner in leaves(chosen, nxt, left):
                if best is None or key > best:
                    best, winners = key, [winner]
                elif key == best and all_tied:
                    winners.append(winner)
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


def _thiele_gain_table(
    m: int, classes: Sequence[tuple[int, int, tuple]], weights: Sequence[int], depth: int
) -> tuple[list[list[int]], list[list[int]]]:
    """The gain table of the callback engine: rows[i][t] is the scaled score
    class i gains when a committee member becomes its (t+1)-th approved one
    (t < depth; weights beyond the given ones are 0), and approvers[c] lists
    the classes approving candidate c < m."""
    padded = list(weights[:depth]) + [0] * (depth - len(weights))
    rows = [[mult * w for w in padded] for _, mult, _ in classes]
    approvers: list[list[int]] = [[] for _ in range(m)]
    for i, (b, _, _) in enumerate(classes):
        for c in _iter_bits(b):
            approvers[c].append(i)
    return rows, approvers


def thiele_search_by_callbacks(
    m: int,
    k: int,
    classes: Sequence[tuple[int, int, tuple[int, ...]]],
    weights: Sequence[int],
    all_tied: bool,
    width: int | None = None,
) -> tuple[list, int]:
    """`rules._thiele_search` as push, pop, block, fit and bound callbacks of
    `lex_search_by_callbacks`; blocks are as large as ``rules._BLOCK_BITS``
    at call time, and ``width`` probes as there."""
    depth = min(len(weights), k)  # weights past it are 0
    counts = [0] * len(classes)
    deepest = [max(need, default=0) for _, _, need in classes]
    saved: list[int] = []  # the score before each member pushed
    score = 0
    table: list = []  # the gain rows and the approvers, built by the first push

    def push(c):
        nonlocal score
        if not table:
            table.extend(_thiele_gain_table(m, classes, weights, k))
        rows, approvers = table
        saved.append(score)
        for i in approvers[c]:
            score += rows[i][counts[i]]
            counts[i] += 1

    def pop(c):
        nonlocal score
        score = saved.pop()
        for i in table[1][c]:
            counts[i] -= 1

    def leaves(prefix, nxt, r):
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
            yield score + value, (*prefix, *[nxt + c for c in unrank(j, p, r)])

    def fits(p, r):
        return p * comb(p, r) <= rules._BLOCK_BITS

    def bound(nxt, r):
        rows, approvers = table
        gains = [row[t] for row, t in zip(rows, counts)]
        pool = sorted([sum([gains[i] for i in approvers[c]]) for c in range(nxt, m)])
        return score + sum(pool[-r:])

    return lex_search_by_callbacks(
        m, k, push, pop, leaves, fits, bound if depth else None, all_tied
    )


def committee_search_by_callbacks(election: Election, kind: str, all_tied: bool) -> tuple:
    """Monroe, minimax-AV or max-Phragmen: `lex_search_by_callbacks` keys one
    committee per last seat."""
    key = rules._COMMITTEE_KEYS[kind]

    def leaves(prefix, nxt, r):
        for c in range(nxt, election.m):
            members = (*prefix, c)
            yield key(election, members), members

    skip = lambda c: None
    fits = lambda p, r: r == 1
    return lex_search_by_callbacks(
        election.m, election.k, skip, skip, leaves, fits, None, all_tied
    )


def _strictly_overlap(a: int, b: int) -> bool:
    """True if the column masks intersect and neither contains the other."""
    both = a & b
    return both != 0 and both != a and both != b


class ComponentKeepingSets(c1p._Component):
    """A consecutive-ones component that also keeps its added sets."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.masks: list[int] = [seed]

    def overlaps(self, t: int) -> bool:
        return any(_strictly_overlap(t, s) for s in self.masks)

    def add(self, t: int) -> None:
        super().add(t)
        self.masks.append(t)


def build_components_rescanning(family: list[int]) -> list[ComponentKeepingSets]:
    """The strict-overlap components; after each addition the scan restarts
    from the first remaining set and adds the first that strictly overlaps an
    added set.  Raises ``c1p._Rejected`` as the package's build does."""
    components: list[ComponentKeepingSets] = []
    remaining = list(family)
    while remaining:
        comp = ComponentKeepingSets(remaining.pop(0))
        grown = True
        while grown:
            grown = False
            span = comp.span
            for idx, t in enumerate(remaining):
                # a set that misses or holds the whole span overlaps no added set
                if t & span not in (0, span) and comp.overlaps(t):
                    comp.add(t)
                    remaining.pop(idx)
                    grown = True
                    break
        components.append(comp)
    return components


def consecutive_ones_order_rescanning(num_columns: int, masks: Iterable[int]) -> list[int] | None:
    """``c1p.consecutive_ones_order`` over ``build_components_rescanning``."""
    family = [mask for mask in dict.fromkeys(masks) if 2 <= mask.bit_count() < num_columns]
    try:
        return c1p._compose(num_columns, build_components_rescanning(family))
    except c1p._Rejected:
        return None
