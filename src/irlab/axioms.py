"""Representation axioms with machine-checkable violation witnesses.

Every check decides its axiom exactly.  Each axiom is a function that
returns a violation witness or None; ``check`` alone turns that answer into
a verdict.  The group axioms (PJR, EJR, FJR, core stability) require
exponential search in the worst case; ``check`` runs each under one node
cap and reports ``undecided`` instead of guessing when the cap is hit.
Cohesiveness thresholds are compared in exact integer arithmetic
(``|V|*k >= l*n``), never via n/k as a float.

``check`` counts the committee once, |W cap A_i| in one bit-sliced counter
(``search.counter``) that JR, semi-strong JR, EJR, FJR and the core read.
FJR and core stability run one deviation search that differs only in the
voters it counts and what each must gain, held in bit-sliced counters; EJR
and PJR share one cohesive-set search.  Both keep their path on an explicit
stack, so a search as deep as a committee of k ~ 1000 is not cut by the
recursion limit.  Perfect representation is one quota assignment
(``search.quota_assignment``, the network Monroe scores with): a Hall
violator is the set of voters the source still reaches after the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohesion import certificate, deficits_for, entitlements
from .model import Committee, Election, _iter_bits, first_unmet, index_set, mask_to_set
from .model import members_mask
from .search import DEFAULT_NODE_CAP, BudgetExceededError, NodeBudget, quota_assignment
from .search import above, at_least, counter, plus

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


def check(
    election: Election,
    committee: Committee,
    axiom: AxiomId,
    node_cap: int = DEFAULT_NODE_CAP,
) -> AxiomVerdict:
    """Decide one axiom for one committee, with a violation witness on failure.

    Each kind is a function that returns a witness or None; this is the one
    place that turns its answer into a verdict.  The searches run under one
    node budget and are undecided past it.  IR and (alpha, beta)-IR walk the
    closed candidate sets instead, for the entitlements and then for one
    voter's certificate; each walk has ``node_cap`` of its own and raises
    :class:`~irlab.search.BudgetExceededError` past it.
    """
    kind = axiom.kind
    if kind in GROUP_AXIOMS and len(committee.members) != election.k:
        raise ValueError(f"{axiom} is defined for committees of size exactly k")
    if kind in ("IR", "ALPHA_BETA_IR"):
        witness = _entitlement_witness(election, committee, axiom, node_cap)
        return AxiomVerdict(axiom, "satisfied" if witness is None else "violated", witness, 0)
    wmask = committee.mask()
    held = counter([(ballot & wmask).bit_count() for ballot in election.ballot_masks])
    budget = NodeBudget(node_cap, stage=f"axioms.{kind}")
    try:
        if kind == "SSJR":
            witness = _ssjr_witness(election, held)
        elif kind == "JR":
            witness = _jr_witness(election, held)
        elif kind == "EJR":
            witness = _ejr_witness(election, held, budget)
        elif kind == "PJR":
            witness = _pjr_witness(election, wmask, budget)
        elif kind == "FJR":
            witness = _fjr_witness(election, held, budget)
        elif kind == "CORE":
            witness = _core_witness(election, held, budget)
        else:
            witness = _perfect_witness(election, committee)
    except BudgetExceededError:
        return AxiomVerdict(axiom, "undecided", None, budget.nodes)
    status = "satisfied" if witness is None else "violated"
    return AxiomVerdict(axiom, status, witness, election.m if kind == "JR" else budget.nodes)


def _entitlement_witness(election, committee, axiom, node_cap):
    """The first voter with alpha*|W cap A_i| + beta < f_i, fewer members than
    her demand, with her certificate as the witness; None when nobody is
    short.  The values are :func:`~irlab.cohesion.entitlements`, and only
    that voter's certificate is built."""
    f = entitlements(election, node_cap)
    i = first_unmet(election, committee.mask(), deficits_for(f, axiom.alpha or 1, axiom.beta or 0))
    if i is None:
        return None
    cert = certificate(election, i, node_cap)
    return ViolationWitness(
        group=cert.witness_supporters.members,
        candidate_set=cert.witness_set,
        level=cert.f,
        deprived=frozenset([i]),
    )


def _ssjr_witness(election, held):
    # f_i >= 1 iff some approved candidate alone is backed by n/k voters,
    # so the full f-vector is not needed
    n, k = election.n, election.k
    for i in _iter_bits(election.all_voters_mask() ^ above(held, 0)):  # holding no member
        for c in _iter_bits(election.ballot_masks[i]):
            if election.candidate_voters[c].bit_count() * k >= n:
                group = mask_to_set(election.candidate_voters[c])
                return ViolationWitness(
                    group=group, candidate_set=frozenset([c]), level=1, deprived=frozenset([i])
                )
    return None


def _group_witness(mask, cands, level):
    """The JR, EJR, PJR, FJR and core witness: the voters of ``mask`` are
    both the group and the deprived voters, ``cands`` the candidate set S."""
    group = mask_to_set(mask)
    return ViolationWitness(
        group=group, candidate_set=frozenset(cands), level=level, deprived=group
    )


def _jr_witness(election, held):
    n, k = election.n, election.k
    unrepresented = election.all_voters_mask() ^ above(held, 0)
    for c in range(election.m):
        group = election.candidate_voters[c] & unrepresented
        if group.bit_count() * k >= n:
            return _group_witness(group, [c], 1)
    return None


def _ejr_witness(election, held, budget):
    n, k = election.n, election.k
    for level in range(1, k + 1):
        deficient = election.all_voters_mask() ^ above(held, level - 1)
        if deficient.bit_count() * k >= level * n:
            witness = _cohesive_witness(election, deficient, level, budget)
            if witness is not None:
                return witness
    return None


def _cohesive_witness(election, voter_mask, level, budget):
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
    # iterative: the path holds pool positions, supps the supporters of each
    # of its prefixes; one node is ticked per path extension
    path: list[int] = []
    supps = [voter_mask]
    budget.tick()
    idx = 0  # the next pool position to try below the current node
    while len(path) < level:
        while idx < len(pool) and len(path) + len(pool) - idx >= level:
            new_supp = supps[-1] & cand_voters[pool[idx]]
            if new_supp.bit_count() * k >= level * n:
                path.append(idx)
                supps.append(new_supp)
                budget.tick()
                break
            idx += 1
        else:  # no child left: back up to the parent's next candidate
            if not path:
                return None
            supps.pop()
            idx = path.pop()
        idx += 1
    return _group_witness(supps[-1], [pool[i] for i in path], level)


def _pjr_witness(election, wmask, budget):
    n, k = election.n, election.k
    # a violating group's committee footprint W' = union of A_i cap W must
    # have fewer than `level` members; enumerate the footprints directly, as
    # the submasks of W in increasing order
    everyone = election.all_voters_mask()
    sub = 0
    while True:
        budget.tick()
        size = sub.bit_count()
        if size < k:
            eligible = everyone  # the voters approving no member outside the footprint
            for c in _iter_bits(wmask ^ sub):
                eligible &= ~election.candidate_voters[c]
            for level in range(size + 1, k + 1):
                if eligible.bit_count() * k < level * n:
                    break
                witness = _cohesive_witness(election, eligible, level, budget)
                if witness is not None:
                    return witness
        if sub == wmask:
            return None
        sub = (sub - wmask) & wmask


def _fjr_witness(election, held, budget):
    n, k = election.n, election.k
    for beta in range(1, k + 1):
        deficient = election.all_voters_mask() ^ above(held, beta - 1)
        if deficient.bit_count() * k < n:  # |S| >= beta >= 1 needs n/k voters
            continue
        need = [deficient * (beta >> b & 1) for b in range(beta.bit_length())]  # beta each
        hit = _deviation_search(election, deficient, need, budget)
        if hit is not None:
            return _group_witness(*hit, beta)
    return None


def _core_witness(election, held, budget):
    everyone = election.all_voters_mask()
    hit = _deviation_search(election, everyone, plus(held, [everyone]), budget)
    return None if hit is None else _group_witness(*hit, None)


def _deviation_search(election, voters, need, budget):
    """The first candidate set S (|S| <= k, depth-first over the candidates
    the voters approve, in index order) whose voters i with
    |S cap A_i| >= need[i] number at least |S|*n/k, as (their mask, S);
    None if there is none.  ``voters`` is a mask and ``need`` a counter
    (``search.counter``): FJR asks beta of every deficient voter, the core
    |W cap A_i| + 1 of every voter.  |S cap A_i| is one counter per depth and
    |pool from a position on cap A_i| one per position, so a node's group
    and its attainable voters are one compare each."""
    n, k = election.n, election.k
    cand_voters = election.candidate_voters
    pool = [c for c in range(election.m) if cand_voters[c] & voters]
    tails = [[]]  # tails[p] counts |pool[p:] cap A_i|; built from the end
    for c in reversed(pool):
        tails.append(plus(tails[-1], [cand_voters[c]]))
    tails.reverse()
    # iterative: ``nexts`` holds, per node of the path, the pool position of
    # its next child (len(pool) once it has none left); one tick per visit
    chosen: list[int] = []
    gains = [[]]  # |S cap A_i| for each prefix of ``chosen``
    nexts: list[int] = []
    start = 0
    while True:
        budget.tick()
        if chosen:
            group = at_least(gains[-1], need, voters)
            if group.bit_count() * k >= len(chosen) * n:
                return group, chosen
        if len(chosen) == k:
            start = len(pool)  # a full committee has no children
        else:
            attainable = at_least(plus(gains[-1], tails[start]), need, voters)
            if attainable.bit_count() * k < (len(chosen) + 1) * n:
                start = len(pool)  # too few voters can still gain: cut
        nexts.append(start)
        while nexts[-1] == len(pool):  # leave the nodes without children left
            nexts.pop()
            if not nexts:
                return None
            chosen.pop()
            gains.pop()
        idx = nexts[-1]
        nexts[-1] += 1
        chosen.append(pool[idx])
        gains.append(plus(gains[-1], [cand_voters[pool[idx]]]))
        start = idx + 1


def _perfect_witness(election, committee):
    if election.n % election.k != 0:
        raise ValueError("perfect representation requires k to divide n")
    value, reached = quota_assignment(election, sorted(committee.members))
    hall = frozenset(reached)
    return None if value == election.n else ViolationWitness(group=hall, deprived=hall)


def verify_violation(
    election: Election,
    committee: Committee,
    axiom: AxiomId,
    witness: ViolationWitness,
) -> bool:
    """Re-check a violation witness by direct counting, independent of search.

    Perfect representation: the group's ballots reach too few members to
    seat it, n/k voters each.  Every other kind names voters (``deprived``
    for the individual kinds, ``group`` for the others) backed by a ``group``
    of |S|*n/k voters, which must be N(S) for the individual kinds; all but
    FJR and the core need |S| = ``level`` and S inside each named ballot.
    Then each named voter passes its kind's test on the committee members it
    holds (PJR's voters pass theirs together); IR, (alpha,beta)-IR, JR and
    EJR hold fewer than the integer demand of ``level``, `deficits_for`'s
    rule.  A malformed witness fails first: voters and candidates not sets
    of ints in [0, n) and [0, m), or a ``level`` not a positive int (or
    integral Fraction) where the kind reads one.
    """
    n, k = election.n, election.k
    ballots, wmask = election.ballot_masks, committee.mask()
    kind, cands, level = axiom.kind, witness.candidate_set, witness.level
    fields = ((witness.group, n), (witness.deprived, n), (cands, election.m))
    if not all(index_set(ids, bound) for ids, bound in fields):
        return False
    whole = type(level) in (int, Fraction) and level.denominator == 1
    if kind not in ("CORE", "PERFECT_REP") and not (whole and level > 0):
        return False
    if kind == "PERFECT_REP":
        return _footprint(ballots, witness.group, wmask) * (n // k) < len(witness.group)
    individual = kind in INDIVIDUAL_AXIOMS
    named = witness.deprived if individual else witness.group
    if not named or (individual and mask_to_set(election.supporters_mask(cands)) != witness.group):
        return False
    if len(witness.group) * k < len(cands) * n:
        return False
    smask = members_mask(cands)
    if kind not in ("FJR", "CORE"):
        if len(cands) != level or any(smask & ~ballots[i] for i in named):
            return False
        if kind == "PJR":
            return _footprint(ballots, named, wmask) < level
    demand = deficits_for([level], axiom.alpha or 1, axiom.beta or 0)[0]

    def holds(i):
        held = (ballots[i] & wmask).bit_count()
        if kind == "CORE":
            return (ballots[i] & smask).bit_count() > held
        if kind == "FJR":
            return (ballots[i] & smask).bit_count() >= level > held
        return held == 0 if kind == "SSJR" else held < demand

    return all(map(holds, named))


def _footprint(ballots, voters, wmask):
    """How many committee members the voters' ballots reach together."""
    union = 0
    for i in voters:
        union |= ballots[i]
    return (union & wmask).bit_count()
