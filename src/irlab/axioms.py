"""Representation axioms with machine-checkable violation witnesses.

Every check decides its axiom exactly.  The group axioms (JR, PJR, EJR, FJR,
core stability) require exponential search in the worst case; those searches
run under a node cap and report ``undecided`` instead of guessing when the
cap is hit.  Cohesiveness thresholds are compared in exact integer
arithmetic (``|V|*k >= l*n``), never via n/k as a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .cohesion import CohesionCertificate, f_vector
from .model import Committee, Election, mask_to_set
from .search import DEFAULT_NODE_CAP, BudgetExceededError, NodeBudget

GROUP_AXIOMS = ("JR", "PJR", "EJR", "FJR", "CORE", "PERFECT_REP")
INDIVIDUAL_AXIOMS = ("IR", "SSJR", "ALPHA_BETA_IR")


@dataclass(frozen=True)
class AxiomId:
    """An axiom identifier; ALPHA_BETA_IR carries its parameters (a >= 1, b >= 0)."""

    kind: str
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def __post_init__(self):
        if self.kind not in GROUP_AXIOMS + INDIVIDUAL_AXIOMS:
            raise ValueError(f"unknown axiom {self.kind!r}")
        if self.kind == "ALPHA_BETA_IR":
            if self.alpha is None or self.beta is None:
                raise ValueError("ALPHA_BETA_IR requires alpha and beta")
            if self.alpha < 1 or self.beta < 0:
                raise ValueError("ALPHA_BETA_IR requires alpha >= 1 and beta >= 0")
        elif self.alpha is not None or self.beta is not None:
            raise ValueError(f"{self.kind} does not take parameters")

    def __str__(self) -> str:
        if self.kind == "ALPHA_BETA_IR":
            return f"({self.alpha},{self.beta})-IR"
        return self.kind


IR = AxiomId("IR")
SSJR = AxiomId("SSJR")
JR = AxiomId("JR")
PJR = AxiomId("PJR")
EJR = AxiomId("EJR")
FJR = AxiomId("FJR")
CORE = AxiomId("CORE")
PERFECT_REP = AxiomId("PERFECT_REP")


def alpha_beta_ir(alpha, beta) -> AxiomId:
    return AxiomId("ALPHA_BETA_IR", alpha=Fraction(alpha), beta=Fraction(beta))


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete object whose stated inequalities can be re-checked directly.

    Which fields matter depends on the axiom: ``group``/``candidate_set``/
    ``level`` for the cohesive-group axioms, ``deprived`` for the individual
    ones, ``group`` alone for perfect representation (a Hall violator).
    """

    group: frozenset[int] = frozenset()
    candidate_set: frozenset[int] = frozenset()
    level: Fraction | int | None = None
    deprived: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: AxiomId
    status: str  # 'satisfied' | 'violated' | 'undecided'
    witness: ViolationWitness | None
    cost: int  # search nodes explored

    @property
    def satisfied(self) -> bool:
        if self.status == "undecided":
            raise ValueError("verdict is undecided (node cap exhausted)")
        return self.status == "satisfied"


def _committee_counts(election: Election, committee: Committee) -> list[int]:
    wmask = committee.mask()
    return [(ballot & wmask).bit_count() for ballot in election.ballot_masks]


def _require_full_committee(election: Election, committee: Committee, axiom: AxiomId):
    if len(committee.members) != election.k:
        raise ValueError(f"{axiom} is defined for committees of size exactly k")


def check(
    election: Election,
    committee: Committee,
    axiom: AxiomId,
    fvec: Sequence[CohesionCertificate] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> AxiomVerdict:
    """Decide one axiom for one committee, with a violation witness on failure."""
    kind = axiom.kind
    if kind in ("JR", "PJR", "EJR", "FJR", "CORE", "PERFECT_REP"):
        _require_full_committee(election, committee, axiom)
    counts = _committee_counts(election, committee)

    if kind == "IR":
        if fvec is None:
            fvec = f_vector(election, "exact", node_cap=node_cap)
        return _check_entitlements(election, axiom, counts, fvec, Fraction(1), Fraction(0))
    if kind == "ALPHA_BETA_IR":
        if fvec is None:
            fvec = f_vector(election, "exact", node_cap=node_cap)
        return _check_entitlements(election, axiom, counts, fvec, axiom.alpha, axiom.beta)
    if kind == "SSJR":
        return _check_ssjr(election, axiom, counts, fvec)
    if kind == "JR":
        return _check_jr(election, axiom, counts)
    if kind == "EJR":
        return _check_ejr(election, axiom, counts, node_cap)
    if kind == "PJR":
        return _check_pjr(election, committee, axiom, counts, node_cap)
    if kind == "FJR":
        return _check_fjr(election, axiom, counts, node_cap)
    if kind == "CORE":
        return _check_core(election, axiom, counts, node_cap)
    if kind == "PERFECT_REP":
        return _check_perfect(election, committee, axiom)
    raise AssertionError(kind)


def _check_entitlements(election, axiom, counts, fvec, alpha: Fraction, beta: Fraction):
    if alpha == 1 and beta == 0:  # plain IR: an integer comparison decides it
        short = (i for i in range(election.n) if counts[i] < fvec[i].f)
    else:
        short = (i for i in range(election.n) if alpha * counts[i] + beta < fvec[i].f)
    i = next(short, None)
    if i is None:
        return AxiomVerdict(axiom, "satisfied", None, 0)
    cert = fvec[i]
    witness = ViolationWitness(
        group=frozenset(cert.witness_supporters.members),
        candidate_set=cert.witness_set,
        level=cert.f,
        deprived=frozenset([i]),
    )
    return AxiomVerdict(axiom, "violated", witness, 0)


def _check_ssjr(election, axiom, counts, fvec):
    # f_i >= 1 iff some approved candidate alone is backed by n/k voters,
    # so the full f-vector is not needed
    n, k = election.n, election.k
    for i in range(election.n):
        if counts[i] > 0:
            continue
        if fvec is not None:
            if fvec[i].f < 1:
                continue
            cert = fvec[i]
            cand_set = cert.witness_set
            group = frozenset(cert.witness_supporters.members)
            level = cert.f
        else:
            cand = next(
                (
                    c
                    for c in sorted(election.approvals[i])
                    if election.candidate_voters[c].bit_count() * k >= n
                ),
                None,
            )
            if cand is None:
                continue
            cand_set = frozenset([cand])
            group = mask_to_set(election.candidate_voters[cand])
            level = 1
        witness = ViolationWitness(
            group=group, candidate_set=cand_set, level=level, deprived=frozenset([i])
        )
        return AxiomVerdict(axiom, "violated", witness, 0)
    return AxiomVerdict(axiom, "satisfied", None, 0)


def _check_jr(election, axiom, counts):
    n, k = election.n, election.k
    unrepresented = 0
    for i in range(n):
        if counts[i] == 0:
            unrepresented |= 1 << i
    for c in range(election.m):
        group = election.candidate_voters[c] & unrepresented
        if group.bit_count() * k >= n:
            witness = ViolationWitness(
                group=mask_to_set(group),
                candidate_set=frozenset([c]),
                level=1,
                deprived=mask_to_set(group),
            )
            return AxiomVerdict(axiom, "violated", witness, election.m)
    return AxiomVerdict(axiom, "satisfied", None, election.m)


def _check_ejr(election, axiom, counts, node_cap):
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="axioms.EJR")
    try:
        for level in range(1, k + 1):
            deficient = 0
            for i in range(n):
                if counts[i] < level:
                    deficient |= 1 << i
            if deficient.bit_count() * k < level * n:
                continue
            pool = [
                c
                for c in range(election.m)
                if (election.candidate_voters[c] & deficient).bit_count() * k >= level * n
            ]
            found = _cohesive_set_search(election, pool, deficient, level, budget)
            if found is not None:
                cand_set, group = found
                witness = ViolationWitness(
                    group=mask_to_set(group),
                    candidate_set=frozenset(cand_set),
                    level=level,
                    deprived=mask_to_set(group),
                )
                return AxiomVerdict(axiom, "violated", witness, budget.nodes)
    except BudgetExceededError:
        return AxiomVerdict(axiom, "undecided", None, budget.nodes)
    return AxiomVerdict(axiom, "satisfied", None, budget.nodes)


def _cohesive_set_search(election, pool, voter_mask, level, budget):
    """A size-`level` candidate set jointly approved by >= level*n/k voters
    from voter_mask, or None.  Depth-first with supporter-count pruning."""
    n, k = election.n, election.k
    pool = sorted(pool, key=lambda c: -(election.candidate_voters[c] & voter_mask).bit_count())

    def dfs(start: int, chosen: list[int], supp: int):
        budget.tick()
        if len(chosen) == level:
            return list(chosen), supp
        if len(chosen) + (len(pool) - start) < level:
            return None
        for idx in range(start, len(pool)):
            if len(chosen) + (len(pool) - idx) < level:
                return None
            new_supp = supp & election.candidate_voters[pool[idx]]
            if new_supp.bit_count() * k >= level * n:
                chosen.append(pool[idx])
                hit = dfs(idx + 1, chosen, new_supp)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    return dfs(0, [], voter_mask)


def _check_pjr(election, committee, axiom, counts, node_cap):
    n, k = election.n, election.k
    budget = NodeBudget(node_cap, stage="axioms.PJR")
    wmask = committee.mask()
    members = sorted(committee.members)
    try:
        # a violating group's committee footprint W' = union of A_i cap W must
        # have fewer than `level` members; enumerate footprints directly
        for sub in range(1 << len(members)):
            budget.tick()
            submask = 0
            for j, c in enumerate(members):
                if sub >> j & 1:
                    submask |= 1 << c
            size = submask.bit_count()
            if size >= k:
                continue
            eligible = 0
            for i in range(n):
                if election.ballot_masks[i] & wmask & ~submask == 0:
                    eligible |= 1 << i
            for level in range(size + 1, k + 1):
                if eligible.bit_count() * k < level * n:
                    break
                pool = [
                    c
                    for c in range(election.m)
                    if (election.candidate_voters[c] & eligible).bit_count() * k
                    >= level * n
                ]
                found = _cohesive_set_search(election, pool, eligible, level, budget)
                if found is not None:
                    cand_set, group = found
                    witness = ViolationWitness(
                        group=mask_to_set(group),
                        candidate_set=frozenset(cand_set),
                        level=level,
                        deprived=mask_to_set(group),
                    )
                    return AxiomVerdict(axiom, "violated", witness, budget.nodes)
    except BudgetExceededError:
        return AxiomVerdict(axiom, "undecided", None, budget.nodes)
    return AxiomVerdict(axiom, "satisfied", None, budget.nodes)


def _check_fjr(election, axiom, counts, node_cap):
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


def _check_core(election, axiom, counts, node_cap):
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


def _check_perfect(election, committee, axiom):
    n, k = election.n, election.k
    if n % k != 0:
        raise ValueError("perfect representation requires k to divide n")
    share = n // k
    members = sorted(committee.members)
    flow_value, source_side = _bipartite_quota_flow(election, members, share)
    if flow_value == n:
        return AxiomVerdict(axiom, "satisfied", None, 0)
    hall = frozenset(i for i in range(n) if i in source_side)
    witness = ViolationWitness(group=hall, deprived=hall)
    return AxiomVerdict(axiom, "violated", witness, 0)


def _bipartite_quota_flow(election, members, share):
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


IMPLICATION_ARROWS: tuple[tuple[str, str], ...] = (
    ("IR", "EJR"),
    ("IR", "SSJR"),
    ("EJR", "PJR"),
    ("PJR", "JR"),
    ("SSJR", "JR"),
    ("CORE", "FJR"),
    ("FJR", "EJR"),
    ("PERFECT_REP", "SSJR"),
)


def implication_report(
    election: Election,
    committee: Committee,
    fvec: Sequence[CohesionCertificate] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Mapping[AxiomId, AxiomVerdict]:
    """All axiom verdicts for one committee (PERFECT_REP only when k | n)."""
    if fvec is None:
        fvec = f_vector(election, "exact", node_cap=node_cap)
    axioms = [IR, SSJR, JR, PJR, EJR, FJR, CORE]
    if election.n % election.k == 0:
        axioms.append(PERFECT_REP)
    return {
        axiom: check(election, committee, axiom, fvec=fvec, node_cap=node_cap)
        for axiom in axioms
    }


def verify_violation(
    election: Election,
    committee: Committee,
    axiom: AxiomId,
    witness: ViolationWitness,
) -> bool:
    """Re-check a violation witness by direct counting, independent of search."""
    n, k = election.n, election.k
    counts = _committee_counts(election, committee)
    kind = axiom.kind
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
        for i in witness.deprived:
            if not witness.candidate_set <= election.approvals[i]:
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
        for i in witness.group:
            if not witness.candidate_set <= election.approvals[i]:
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
        union = 0
        for i in witness.group:
            if not witness.candidate_set <= election.approvals[i]:
                return False
            union |= election.ballot_masks[i]
        return (union & committee.mask()).bit_count() < level
    if kind == "FJR":
        beta = witness.level
        if len(witness.group) * k < len(witness.candidate_set) * n:
            return False
        smask = 0
        for c in witness.candidate_set:
            smask |= 1 << c
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
        smask = 0
        for c in witness.candidate_set:
            smask |= 1 << c
        for i in witness.group:
            if (election.ballot_masks[i] & smask).bit_count() <= counts[i]:
                return False
        return True
    if kind == "PERFECT_REP":
        share = n // k
        hall = witness.group
        if not hall:
            return False
        neighbors = {
            c for i in hall for c in election.approvals[i] if c in committee.members
        }
        return len(neighbors) * share < len(hall)
    raise ValueError(f"no witness verification for {kind}")
