import random
from collections import Counter
from fractions import Fraction

import pytest

from irlab import cohesion, solver
from irlab.axioms import CORE, FJR, alpha_beta_ir, check
from irlab.cohesion import f_vector
from irlab.experiment import DESK_SCALE_GEN_PARAMS
from irlab.gen import GenSpec, generate
from irlab.model import Committee, Election
from irlab.search import BudgetExceededError, NodeBudget, counter
from irlab.solver import OBJECTIVES, SolveRequest, find_committee

from instance_gen import dfs_oracle_profiles, random_election, scale_cases
from oracles import brute_ir_committees, check_given_certificates, cover_search, enumerate_committees
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


def _clustered_election(rng, n, m, k):
    """``n`` voters whose ballots are a few random base ballots, each with
    one candidate flipped at random now and then."""
    base = [{c for c in range(m) if rng.random() < 0.5} for _ in range(rng.randint(2, 4))]
    ballots = [
        set(rng.choice(base)) ^ ({rng.randrange(m)} if rng.random() < 0.3 else set())
        for _ in range(n)
    ]
    return Election.from_approvals(ballots, m=m, k=k)


def _profile_with_clones(rng, n, m, k):
    """``n`` voters on a dozen or so random ballots of 2 to 4 of ``m``
    candidates, then a clone (approved by the same voters, numbered from
    ``m`` on) of up to half the candidates; returns the election and the
    clone of each cloned candidate."""
    base = [set(rng.sample(range(m), rng.randint(2, 4))) for _ in range(rng.randint(12, 20))]
    ballots = [set(rng.choice(base)) for _ in range(n)]
    clone = {c: m + j for j, c in enumerate(rng.sample(range(m), rng.randint(0, m // 2)))}
    for ballot in ballots:
        ballot |= {clone[c] for c in ballot if c in clone}
    return Election.from_approvals(ballots, m=m + len(clone), k=k), clone


def _last_seat_covers(e, deficits, hit, clone):
    """How many candidates cover the voters left unmet at the last-seat node
    that returned ``hit``: "two or more" when its last member has a clone
    (the clone sorts after it at every node, so it is still in the pool),
    "one" when no candidate outside ``hit`` above it covers them (one below
    it in the pool would have been returned first), otherwise None."""
    if hit is None or len(hit) < e.k:
        return None
    *rest, last = hit
    unmet = [a for a, d in zip(e.approvals, deficits) if len(a.intersection(rest)) < d]
    if last in clone:
        return "two or more"
    above = [c for c in range(last + 1, e.m) if c not in hit and all(c in a for a in unmet)]
    return None if above else "one"


def test_cover_search_matches_recursive_search_at_every_cap():
    # every cap from 1 to the uncapped node count: the same committee, None
    # or "capped", and the same node count; a one-seat node counts its
    # leaves in one tick, which must stop where ticking them one by one does.
    # Profiles of up to 10 voters with at least 8 nodes; deep searches of 50
    # to 200 nodes, mostly infeasible, where the search backtracks most;
    # profiles of 65 to 130 voters, past one machine word, with 8 to 200
    # nodes (every cap is a search of its own); demand vectors with more
    # counter slices than the ballot sizes have, which the root cuts (or the
    # seat count before it); and 0/1 demands, min(f_i, 1) or drawn at random,
    # on 65 to 130 voters with 4 to 200 nodes, where the one ``need`` slice
    # lets the pivot scan decide each node: searches that return at a
    # last-seat node with two or more covering candidates, with exactly one,
    # and searches that return elsewhere or not at all
    rng = random.Random(59)
    covers_quota = {"two or more": 6, "one": 6, None: 6}
    for kind, quota in (("small", 20), ("deep", 5), ("n > 64", 10), ("more slices", 5), ("0/1", 18)):
        cases = 0
        while cases < quota:
            if kind == "small":
                e = random_election(rng, n_max=10, m_max=9, k_max=5, density=rng.choice([0.3, 0.5]))
            elif kind == "deep":
                m, k = rng.randint(10, 16), rng.randint(4, 7)
                ballots = [set(rng.sample(range(m), rng.randint(3, 6))) for _ in range(rng.randint(10, 16))]
                e = Election.from_approvals(ballots, m=m, k=k)
            elif kind == "n > 64":
                e = _clustered_election(rng, rng.randint(65, 130), rng.randint(6, 9), rng.randint(2, 5))
            elif kind == "0/1":
                e, clone = _profile_with_clones(rng, rng.randint(65, 130), rng.randint(9, 13), rng.randint(4, 6))
            else:
                m = rng.randint(4, 9)
                n = rng.randint(2, 80)
                ballots = [set(rng.sample(range(m), rng.randint(0, 3))) for _ in range(n)]
                e = Election.from_approvals(ballots, m=m, k=rng.randint(4, m))
            if kind == "deep":
                deficits = [rng.randint(1, min(len(a), e.k) - 1) for a in e.approvals]
            elif kind == "0/1":
                if rng.random() < 0.5:
                    deficits = [min(cert.f, 1) for cert in f_vector(e)]
                else:
                    deficits = [rng.randint(0, 1) for _ in range(e.n)]
            elif kind != "more slices" and rng.random() < 0.5:
                deficits = [cert.f for cert in f_vector(e)]
            else:
                deficits = [rng.randint(0, min(len(a), e.k)) for a in e.approvals]
            if kind == "more slices":
                deficits[rng.randrange(e.n)] = rng.randint(4, 7)
                assert len(counter(deficits)) > len(counter([len(a) for a in e.approvals]))
            full = NodeBudget(10**6, stage="test")
            hit = cover_search(e, deficits, full)
            if (
                kind == "small" and full.nodes < 8
                or kind == "deep" and not 50 <= full.nodes <= 200
                or kind == "n > 64" and not 8 <= full.nodes <= 200
                or kind == "0/1" and not 4 <= full.nodes <= 200
            ):
                continue
            if kind == "0/1":
                covers = _last_seat_covers(e, deficits, hit, clone)
                if not covers_quota.get(covers) or hit and len(hit) == e.k and covers is None:
                    continue  # its class is full, or it is unknown
                covers_quota[covers] -= 1
            cases += 1
            for cap in range(1, full.nodes + 1):
                outcomes = []
                for search in (solver._cover_search, cover_search):
                    budget = NodeBudget(cap, stage="test")
                    try:
                        hit = search(e, deficits, budget)
                    except BudgetExceededError:
                        hit = "capped"
                    outcomes.append((hit, budget.nodes))
                assert outcomes[0] == outcomes[1], (e.approvals, e.k, deficits, cap)
            if kind == "more slices":
                assert full.nodes <= 1
                assert solver._cover_search(e, deficits, NodeBudget(2, "test")) is None
    assert not any(covers_quota.values()), covers_quota


def test_cover_search_matches_recursive_search_on_a_capped_thousand_voter_profile():
    # the n = 1,000, m = 60, k = 20 ic profile (every f_i = 1): the search
    # is capped at every cap here, after as many nodes as the recursive one
    e = generate(GenSpec(model="ic", n=1000, m=60, seed=3), k=20)
    deficits = cohesion.entitlements(e)
    assert set(deficits) == {1}
    for cap in (1000, 5000, 20000):
        nodes = []
        for search in (solver._cover_search, cover_search):
            budget = NodeBudget(cap, stage="test")
            with pytest.raises(BudgetExceededError):
                search(e, deficits, budget)
            nodes.append(budget.nodes)
        assert nodes == [cap + 1, cap + 1], (cap, nodes)


def test_find_ir_and_ssjr_equals_both_solves_when_every_f_is_at_most_one():
    # with every f_i <= 1 the FIND_SSJR demands are FIND_IR's, so the pair
    # reuses the FIND_IR result; it equals a separate FIND_SSJR solve in
    # status, committee and nodes
    rng = random.Random(71)
    elections = [uncoverable_line_instance()] + [
        random_election(rng, n_max=12, m_max=9, k_max=2, density=0.5) for _ in range(600)
    ]
    seen = {"found": 0, "infeasible": 0, "undecided": 0}
    for e in elections:
        fvec = tuple(f_vector(e))
        if max(cert.f for cert in fvec) > 1:
            continue
        for cap in (2, 10**6):
            ir, ssjr = (
                find_committee(SolveRequest(e, fvec, objective, node_cap=cap))
                for objective in ("FIND_IR", "FIND_SSJR")
            )
            assert solver.find_ir_and_ssjr(e, [cert.f for cert in fvec], cap) == (ir, ssjr)
            seen[ir.status] += 1
    assert min(seen.values()) >= 10, seen


def test_find_ir_and_ssjr_equals_find_committee_when_some_f_exceeds_one():
    # here the two demand vectors differ: the pair solves FIND_SSJR unless
    # FIND_IR found a committee, which then stands for both; each result
    # equals find_committee's over the certificates in status, committee and
    # nodes, at caps that leave some searches undecided
    rng = random.Random(73)
    desk = lambda model, seed: GenSpec(model, 40, 16, seed, dict(DESK_SCALE_GEN_PARAMS.get(model, {})))
    elections = [
        generate(desk(model, seed), k=k)
        for model in ("urn", "euclid_2d", "ci_euclid", "mallows")
        for k in (3, 4, 5, 6)
        for seed in range(5)
    ] + [random_election(rng, n_max=12, m_max=9, k_max=5, density=0.6) for _ in range(400)]
    seen = Counter()
    for e in elections:
        fvec = tuple(f_vector(e))
        f = [cert.f for cert in fvec]
        if max(f) <= 1:
            continue
        assert cohesion.entitlements(e) == f
        for cap in (3, 10**6):
            ir, ssjr = (
                find_committee(SolveRequest(e, fvec, objective, node_cap=cap))
                for objective in ("FIND_IR", "FIND_SSJR")
            )
            expected = (ir, ir) if ir.status == "found" else (ir, ssjr)
            assert solver.find_ir_and_ssjr(e, f, cap) == expected
            seen[ir.status if ir.status != "infeasible" else f"infeasible, ssJR {ssjr.status}"] += 1
    assert min(seen[key] for key in ("found", "undecided", "infeasible, ssJR found")) >= 10, seen
    with pytest.raises(ValueError, match="f-vector length"):
        solver.find_ir_and_ssjr(e, f[:-1], 10)


def _wide_election(rng):
    """A random profile of 65 to 200 voters, past one machine word, with k >= 9."""
    n, m = rng.randint(65, 200), rng.randint(12, 18)
    density = rng.choice([0.5, 0.7])
    approvals = [{c for c in range(m) if rng.random() < density} for _ in range(n)]
    return Election.from_approvals(approvals, m=m, k=rng.randint(9, m - 2))


def test_cover_search_matches_recursive_search_past_one_word():
    # voter masks of 65 to 200 bits and one of 1,000, k >= 9: demands just
    # below a hidden committee's counts need four or more counter slices;
    # raising a few of them by one makes some infeasible; the n = 1,000 search
    # runs past every cap
    rng = random.Random(61)
    elections = [_wide_election(rng) for _ in range(30)] + [generate(GenSpec("ic", 1000, 60, 5), k=20)]
    seen = {"found": 0, "infeasible": 0, "capped": 0, "four slices": 0}
    for e in elections:
        hidden = set(rng.sample(range(e.m), e.k))
        deficits = [max(0, len(a & hidden) - rng.randint(0, 3)) for a in e.approvals]
        for i in rng.sample(range(e.n), rng.randint(0, 4)):
            deficits[i] = min(deficits[i] + 1, len(e.approvals[i]), e.k)
        seen["four slices"] += max(deficits) >= 8
        for cap in (5, 50, 400):
            outcomes = []
            for search in (solver._cover_search, cover_search):
                budget = NodeBudget(cap, stage="test")
                try:
                    hit = search(e, deficits, budget)
                except BudgetExceededError:
                    hit = "capped"
                outcomes.append((hit, budget.nodes))
            assert outcomes[0] == outcomes[1], (e.n, e.m, e.k, deficits, cap)
            hit = outcomes[0][0]
            seen["capped" if hit == "capped" else "infeasible" if hit is None else "found"] += 1
    assert min(seen.values()) >= 10, seen


def _outcomes(e, members):
    """(status, nodes, beta reached) of FIND_IR, FIND_SSJR and MIN_BETA and
    (status, nodes, None) of the core and FJR checks of ``members``, at
    small caps."""
    fvec = tuple(f_vector(e))
    out = []
    for objective in ("FIND_IR", "FIND_SSJR", "MIN_BETA"):
        res = find_committee(SolveRequest(e, fvec, objective, node_cap=3000))
        out.append((res.status, res.nodes, res.achieved_beta))
    for axiom in (CORE, FJR):
        verdict = check(e, Committee.of(members, e), axiom, node_cap=3000)
        out.append((verdict.status, verdict.cost, None))
    return out


def test_decided_statuses_survive_a_voter_relabelling():
    # relabelling the voters permutes the f-vector and the demands; every
    # status decided under both labellings is the same, and so is MIN_BETA's
    # beta
    seen = {"found": 0, "infeasible": 0, "satisfied": 0, "violated": 0, "undecided": 0}
    for rng, e, members in scale_cases():
        order = list(range(e.n))
        rng.shuffle(order)
        relabelled = Election.from_approvals([e.approvals[i] for i in order], m=e.m, k=e.k)
        for one, two in zip(_outcomes(e, members), _outcomes(relabelled, members)):
            if "undecided" not in (one[0], two[0]):
                assert (one[0], one[2]) == (two[0], two[2]), (e.n, e.m, e.k)
            seen[one[0]] += 1
    assert min(seen.values()) >= 3, seen


def test_outcomes_ignore_an_unapproved_candidate():
    # a candidate nobody approves never enters a search: every status, node
    # count and beta is unchanged
    for _, e, members in scale_cases():
        widened = Election.from_approvals(list(e.approvals), m=e.m + 1, k=e.k)
        assert _outcomes(widened, members) == _outcomes(e, members), (e.n, e.m, e.k)


def test_entitlements_survive_a_candidate_relabelling():
    # the f-vector speaks of voters only: renaming the candidates keeps every f_i
    for rng, e, _ in scale_cases():
        perm = list(range(e.m))
        rng.shuffle(perm)
        relabelled = Election.from_approvals(
            [{perm[c] for c in ballot} for ballot in e.approvals], m=e.m, k=e.k
        )
        assert [c.f for c in f_vector(relabelled)] == [c.f for c in f_vector(e)], (e.n, e.m)


def test_cloning_every_voter_keeps_entitlements_and_decided_statuses():
    # with every voter twice, each group and n double together: every f_i is
    # kept (by both copies), and so is every status FIND_IR and FIND_SSJR
    # decide under both profiles
    seen = Counter()
    for _, e, _ in scale_cases():
        cloned = Election.from_approvals(list(e.approvals) * 2, m=e.m, k=e.k)
        fvec, twice = tuple(f_vector(e)), tuple(f_vector(cloned))
        assert [c.f for c in twice] == [c.f for c in fvec] * 2, (e.n, e.m, e.k)
        for objective in ("FIND_IR", "FIND_SSJR"):
            one, two = (
                find_committee(SolveRequest(x, f, objective, node_cap=3000)).status
                for x, f in ((e, fvec), (cloned, twice))
            )
            if "undecided" not in (one, two):
                assert one == two, (objective, e.n, e.m, e.k)
            seen[one] += 1
    assert min(seen[s] for s in ("found", "infeasible")) >= 3, seen


def test_cover_search_pivots_on_the_pool_left_with_one_seat():
    # k = 2, so the root's children have one seat left; their count of each
    # voter's candidates still in the pool must drop the candidate just
    # chosen, or the pivot moves to another voter and the search ticks a
    # node the recursive search never visits
    for approvals, m, deficits in (
        ([{1, 2, 3}, {3}, {3}, {0, 1}, {2, 3}], 4, [0, 1, 0, 1, 2]),
        ([{0, 4}, {0, 2}, set(), {0, 1, 4}, {2, 3}, {1, 3}, {1}, {1, 4}], 5, [0, 1, 0, 0, 1, 2, 1, 0]),
    ):
        e = Election.from_approvals(approvals, m=m, k=2)
        outcomes = []
        for search in (solver._cover_search, cover_search):
            budget = NodeBudget(100, stage="test")
            outcomes.append((search(e, deficits, budget), budget.nodes))
        assert outcomes == [(None, 3), (None, 3)]


def test_deficits_match_fraction_formula():
    # the integer demand ceil((f*d - c)*b / (d*a)) for alpha = a/b and
    # beta = c/d equals the least w with alpha*w + beta >= f, in Fractions
    rng = random.Random(67)
    for _ in range(2000):
        alpha = 1 + Fraction(rng.randint(0, 30), rng.randint(1, 12))
        beta = Fraction(rng.randint(0, 40), rng.randint(1, 12))
        f = [rng.randint(0, 12) for _ in range(5)]
        expected = []
        for value in f:
            q = (value - beta) / alpha
            expected.append(max(0, -(-q.numerator // q.denominator)))
        got = cohesion.deficits_for(f, alpha, beta)
        assert got == expected, (alpha, beta, f)
        assert all(alpha * w + beta >= v and (w == 0 or alpha * (w - 1) + beta < v) for w, v in zip(got, f))


def test_cover_search_at_a_thousand_seats():
    # one voter approving 1,000 of 1,200 candidates, k = 1000: FIND_IR picks
    # one candidate per level, 1,000 levels deep
    e = Election.from_approvals([set(range(1000))], m=1200, k=1000)
    ir, fvec = _solve(e)
    assert (ir.status, ir.nodes) == ("found", 1001)
    assert ir.committee.members == frozenset(range(1000))
    ssjr, _ = _solve(e, "FIND_SSJR")
    assert (ssjr.status, ssjr.nodes) == ("found", 2)


def test_integer_requests_equal_certificate_requests():
    # a request over the integer entitlements is the request over the
    # certificates, reduced to the same integers; for every objective, slack
    # and cap the result is the same in status, committee, alpha, beta and
    # nodes, and a committee MIN_BETA or MIN_ALPHA finds passes the
    # (alpha, beta)-IR check read off the certificates; on the
    # DFS-oracle profiles and the infeasible fixtures
    fixtures = [uncoverable_line_instance(), *(disjoint_blocks_instance(k) for k in (2, 3, 4))]
    seen = Counter()
    for e in dfs_oracle_profiles() + fixtures:
        certs = tuple(f_vector(e))
        f = tuple(cohesion.entitlements(e))
        assert f == tuple(cert.f for cert in certs)
        for objective, alpha, beta in (
            *((objective, Fraction(1), Fraction(0)) for objective in OBJECTIVES),
            ("MIN_BETA", Fraction(3, 2), Fraction(0)),
            ("MIN_ALPHA", Fraction(1), Fraction(1)),
        ):
            for cap in (1, 2, 5, 10**6):
                by_ints, by_certs = (
                    SolveRequest(e, fvec, objective, alpha, beta, node_cap=cap)
                    for fvec in (f, certs)
                )
                assert by_ints == by_certs and by_certs.fvec == f
                result = find_committee(by_ints)
                assert find_committee(by_certs) == result
                if objective.startswith("MIN") and result.status == "found":
                    axiom = alpha_beta_ir(result.achieved_alpha, result.achieved_beta)
                    assert check_given_certificates(e, result.committee, axiom, certs).satisfied
                seen[objective, result.status] += 1
    assert min(seen[key] for key in seen if key[1] != "infeasible") >= 200, seen
    assert len(seen) == 11 and ("MIN_BETA", "infeasible") not in seen, seen


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
