import random
from fractions import Fraction

import pytest

from irlab import solver
from irlab.cohesion import f_vector
from irlab.model import Election
from irlab.search import BudgetExceededError, NodeBudget
from irlab.solver import OBJECTIVES, SolveRequest, enumerate_committees, find_committee

from instance_gen import random_election
from oracles import brute_ir_committees, cover_search
from hard_instances import (
    uncoverable_line_instance,
    two_camps_with_bridge,
    uneven_cohorts,
    ssjr_ejr_clash,
    disjoint_blocks_instance,
    opposed_ends_instance,
)


def _solve(e, objective="FIND_IR", **kw):
    fvec = tuple(f_vector(e))
    return find_committee(SolveRequest(e, fvec, objective, **kw)), fvec


def test_bridge_profile_unique_ir():
    e = two_camps_with_bridge()
    res, fvec = _solve(e)
    assert res.status == "found"
    assert res.committee.members == frozenset({0, 1})
    assert [sorted(c.members) for c in enumerate_committees(e, fvec)] == [[0, 1]]


def test_uneven_cohorts_unique_ir():
    e = uneven_cohorts()
    res, fvec = _solve(e)
    assert res.status == "found"
    assert res.committee.members == frozenset({0, 1, 2, 3, 8, 9})
    assert len(enumerate_committees(e, fvec)) == 1


def test_disjoint_blocks_infeasible_min_beta():
    e = disjoint_blocks_instance(3)
    res, _ = _solve(e)
    assert res.status == "infeasible"
    res, _ = _solve(e, "MIN_BETA")
    assert res.status == "found"
    assert res.achieved_beta == Fraction(2)


def test_opposed_ends_min_alpha_exact():
    e = opposed_ends_instance(4, 8)
    res, _ = _solve(e, "MIN_ALPHA")
    assert res.status == "found"
    assert res.achieved_alpha == Fraction(3, 2)
    assert res.achieved_alpha >= 2 - Fraction(2, e.k)


def test_min_alpha_infeasible_when_no_multiplicative_slack_helps():
    # more disjoint positive demands than seats: no alpha can compensate
    e = disjoint_blocks_instance(3)
    res, _ = _solve(e, "MIN_ALPHA")
    assert res.status == "infeasible"


def test_due_no_ssjr():
    res, _ = _solve(uncoverable_line_instance(), "FIND_SSJR")
    assert res.status == "infeasible"


def test_clash_instance_sets_disjoint():
    e = ssjr_ejr_clash()
    fvec = tuple(f_vector(e))
    from irlab.axioms import EJR, check

    ssjr = {c.members for c in enumerate_committees(e, fvec, "FIND_SSJR")}
    from itertools import combinations

    from irlab.model import Committee

    ejr = {
        frozenset(combo)
        for combo in combinations(range(e.m), e.k)
        if check(e, Committee.of(combo, e), EJR).satisfied
    }
    assert ssjr and ejr and not (ssjr & ejr)


def test_all_zero_entitlements_lexicographic():
    from irlab.model import Election

    e = Election.from_approvals([set()] * 5, m=6, k=3)
    res, _ = _solve(e)
    assert res.status == "found"
    assert res.committee.members == frozenset({0, 1, 2})


def test_feasibility_matches_enumeration():
    rng = random.Random(83)
    for _ in range(60):
        e = random_election(rng, n_max=10, m_max=8, k_max=5)
        fvec = tuple(f_vector(e))
        res = find_committee(SolveRequest(e, fvec))
        oracle = brute_ir_committees(e, [c.f for c in fvec])
        assert (res.status == "found") == bool(oracle)
        if res.status == "found":
            assert res.committee.members in oracle or all(
                len(res.committee.members & a) >= cert.f
                for a, cert in zip(e.approvals, fvec)
            )


def test_min_beta_zero_iff_ir_feasible():
    rng = random.Random(89)
    for _ in range(40):
        e = random_election(rng, n_max=9, m_max=7, k_max=4)
        fvec = tuple(f_vector(e))
        ir = find_committee(SolveRequest(e, fvec))
        mb = find_committee(SolveRequest(e, fvec, "MIN_BETA"))
        assert (mb.achieved_beta == 0) == (ir.status == "found")


def test_cover_search_matches_recursive_search(monkeypatch):
    # the cover search runs on an explicit stack; every objective's result,
    # node count included, equals that of the recursive search, capped or not
    rng = random.Random(47)
    fixtures = [
        uncoverable_line_instance(),
        ssjr_ejr_clash(),
        *(disjoint_blocks_instance(k) for k in (2, 3, 4)),
        *(opposed_ends_instance(k, 8) for k in (2, 3, 4)),
    ]
    elections = fixtures + [
        random_election(rng, n_max=10, m_max=8, k_max=5, density=rng.choice([0.3, 0.5]))
        for _ in range(150)
    ]
    cases = [(e, tuple(f_vector(e))) for e in elections]

    def results():
        return [
            find_committee(SolveRequest(e, fvec, objective, node_cap=cap))
            for e, fvec in cases
            for cap in (3, 12, 10**6)
            for objective in OBJECTIVES
        ]

    got = results()
    monkeypatch.setattr(solver, "_cover_search", cover_search)
    assert got == results()
    seen = {status: sum(r.status == status for r in got) for status in ("found", "infeasible", "undecided")}
    assert seen["found"] >= 20 and seen["infeasible"] >= 5 and seen["undecided"] >= 20, seen


def test_cover_search_matches_recursive_search_on_random_demands():
    # the same on demand vectors drawn at random, most of them infeasible:
    # the same committee or None, and the same node count, or both capped
    rng = random.Random(53)
    seen = {"found": 0, "infeasible": 0, "capped": 0}
    for _ in range(300):
        e = random_election(rng, n_max=10, m_max=8, k_max=5)
        deficits = [rng.randint(0, min(len(a), e.k)) for a in e.approvals]
        for cap in (3, 12, 10**6):
            outcomes = []
            for search in (solver._cover_search, cover_search):
                budget = NodeBudget(cap, stage="test")
                try:
                    hit = search(e, deficits, budget)
                except BudgetExceededError:
                    hit = "capped"
                outcomes.append((hit, budget.nodes))
            assert outcomes[0] == outcomes[1], (e.approvals, e.k, deficits, cap)
            hit = outcomes[0][0]
            seen["capped" if hit == "capped" else "infeasible" if hit is None else "found"] += 1
    assert min(seen.values()) >= 50, seen


def test_cover_search_at_a_thousand_seats():
    # one voter approving 1,000 of 1,200 candidates, k = 1000: FIND_IR picks
    # one candidate per level, 1,000 levels deep
    e = Election.from_approvals([set(range(1000))], m=1200, k=1000)
    ir, fvec = _solve(e)
    assert (ir.status, ir.nodes) == ("found", 1001)
    assert ir.committee.members == frozenset(range(1000))
    ssjr, _ = _solve(e, "FIND_SSJR")
    assert (ssjr.status, ssjr.nodes) == ("found", 2)


def test_undecided_under_cap():
    e = disjoint_blocks_instance(4)
    fvec = tuple(f_vector(e))
    res = find_committee(SolveRequest(e, fvec, node_cap=2))
    assert res.status == "undecided"
    assert res.committee is None


def test_request_validation():
    e = two_camps_with_bridge()
    fvec = tuple(f_vector(e))
    with pytest.raises(ValueError):
        SolveRequest(e, fvec, "BOGUS")
    with pytest.raises(ValueError):
        SolveRequest(e, fvec[:-1])
    with pytest.raises(ValueError):
        SolveRequest(e, fvec, alpha=Fraction(1, 2))
