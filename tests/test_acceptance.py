"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a PASS line with its measured numbers; run with ``-s`` (or
read the captured output) to see them.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from irlab import domains
from irlab.axioms import CORE, EJR, FJR, IR, JR, PERFECT_REP, PJR, SSJR, alpha_beta_ir, check
from irlab.cohesion import f_vector, vi_certificates
from irlab.experiment import ExperimentSpec, existence_rates, run_experiment
from irlab.model import Committee, Election
from irlab.rules import RuleId, run_rule
from irlab.solver import SolveRequest, find_committee

from instance_gen import (
    random_atr_election,
    random_cei_election,
    random_committee,
    random_election,
    random_tpart_election,
    random_vei_election,
    random_vi_election,
    random_wsc_election,
)
from oracles import (
    brute_ir_committees,
    consecutive_order_exists,
    enumerate_committees,
    naive_core,
    naive_ejr,
    naive_jr,
    naive_pjr,
)
from hard_instances import (
    hamming_bait_instance,
    load_bait_instance,
    coverage_bait_instance,
    uncoverable_line_instance,
    two_camps_with_bridge,
    uneven_cohorts,
    ssjr_ejr_clash,
    disjoint_blocks_instance,
    opposed_ends_instance,
)


# ---------------------------------------------------------------------------
# criterion 1: fixture exactness (< 1 s total)
# ---------------------------------------------------------------------------


def test_criterion_1_fixture_exactness():
    t0 = time.perf_counter()

    # bridge profile: all-ones f-vector, unique IR committee {c1,c2}; the listed
    # rules all output committees containing c3 and hence never the IR one
    e1 = two_camps_with_bridge()
    fv1 = tuple(f_vector(e1))
    assert [c.f for c in fv1] == [1] * 8
    res = find_committee(SolveRequest(e1, fv1))
    assert res.status == "found" and res.committee.members == {0, 1}
    assert [sorted(c.members) for c in enumerate_committees(e1, fv1)] == [[0, 1]]
    for kind, mode in (
        ("av", "all_tied"),
        ("sav", "all_tied"),
        ("seq_pav", "single"),
        ("seq_phragmen", "single"),
        ("rule_x", "single"),
        ("pav", "all_tied"),
    ):
        outcome = run_rule(e1, RuleId(kind), mode=mode)
        for w in outcome.committees:
            assert 2 in w.members, kind
            assert not check(e1, w, IR).satisfied

    # uneven cohorts: unique IR committee; core violation witness V={5..12}, S={c5..c8}
    e2 = uneven_cohorts()
    fv2 = tuple(f_vector(e2))
    res = find_committee(SolveRequest(e2, fv2))
    assert res.committee.members == {0, 1, 2, 3, 8, 9}
    assert len(enumerate_committees(e2, fv2)) == 1
    verdict = check(e2, Committee.of({0, 1, 2, 3, 8, 9}, e2), CORE)
    assert verdict.status == "violated"
    assert verdict.witness.group == frozenset(range(4, 12))
    assert verdict.witness.candidate_set == frozenset({4, 5, 6, 7})

    # clash instance: semi-strong JR committees and EJR committees disjoint
    ep = ssjr_ejr_clash()
    fvp = tuple(f_vector(ep))
    ssjr_set = {c.members for c in enumerate_committees(ep, fvp, "FIND_SSJR")}
    ejr_set = {
        frozenset(combo)
        for combo in combinations(range(ep.m), ep.k)
        if check(ep, Committee.of(combo, ep), EJR).satisfied
    }
    assert ssjr_set and ejr_set and not (ssjr_set & ejr_set)

    # disjoint-blocks instance (k=3): no IR committee; MIN_BETA(alpha=1) = k-1 = 2
    e3 = disjoint_blocks_instance(3)
    fv3 = tuple(f_vector(e3))
    assert find_committee(SolveRequest(e3, fv3)).status == "infeasible"
    mb = find_committee(SolveRequest(e3, fv3, "MIN_BETA"))
    assert mb.achieved_beta == Fraction(2)

    # opposed-ends instance (k=4): best multiplicative ratio at beta=0 is 3/2
    e8 = opposed_ends_instance(4, 8)
    fv8 = tuple(f_vector(e8))
    ma = find_committee(SolveRequest(e8, fv8, "MIN_ALPHA"))
    assert ma.achieved_alpha == Fraction(3, 2) == 2 - Fraction(2, e8.k)

    # uncoverable line: no semi-strong JR committee
    ed = uncoverable_line_instance()
    fvd = tuple(f_vector(ed))
    assert find_committee(SolveRequest(ed, fvd, "FIND_SSJR")).status == "infeasible"

    # rule counterexamples: optimizers drawn away from the entitled committee
    eb = coverage_bait_instance()
    fvb = tuple(f_vector(eb))
    unique_ir = enumerate_committees(eb, fvb)
    assert [sorted(c.members) for c in unique_ir] == [[0, 1, 2, 4]]
    for rule in (RuleId("cc"), RuleId("monroe"), RuleId("geom_pav", weight=Fraction(1, 16))):
        outcome = run_rule(eb, rule, mode="all_tied")
        assert [sorted(c.members) for c in outcome.committees] == [[0, 1, 2, 3]]

    ephr = load_bait_instance()
    fphr = tuple(f_vector(ephr))
    outcome = run_rule(ephr, RuleId("max_phragmen"), mode="all_tied")
    ir_committees = {c.members for c in enumerate_committees(ephr, fphr)}
    assert ir_committees == {frozenset({0, 1, 4}), frozenset({0, 1, 5})}
    assert all(w.members not in ir_committees for w in outcome.committees)
    single = run_rule(ephr, RuleId("max_phragmen"))
    loads = single.diagnostics["load_vectors"][(0, 3, 4)]
    assert loads == (Fraction(3, 5), Fraction(0), Fraction(3, 5), Fraction(3, 5), Fraction(3, 5), Fraction(3, 5))

    em = hamming_bait_instance()
    outcome = run_rule(em, RuleId("minimax_av"), mode="all_tied")
    for w in outcome.committees:
        assert not w.members & {0, 1}
        assert not check(em, w, IR).satisfied

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s (budget 1s)"
    print(f"\nACCEPTANCE 1 PASS: fixtures exact in {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence (< 2 min)
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240)

    # (a) polynomial VI entitlements == exact closed-set engine, 500 profiles
    for _ in range(500):
        e = random_vi_election(rng, n_max=24, m_max=12)
        witness = domains.recognize(e, "VI")
        assert witness is not None
        vi_certs = vi_certificates(e, witness.voter_order)
        exact = f_vector(e)
        for i in range(e.n):
            assert vi_certs[i].f == exact[i].f

    # (b) solver feasibility == naive committee enumeration, 200 profiles
    for _ in range(200):
        e = random_election(rng, n_max=10, m_max=12, k_max=6)
        fvec = tuple(f_vector(e))
        res = find_committee(SolveRequest(e, fvec))
        oracle = brute_ir_committees(e, [c.f for c in fvec])
        assert (res.status == "found") == bool(oracle)

    # (c) CI/VI recognizers == factorial permutation search, 300 matrices
    for _ in range(300):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        e = Election.from_approvals(
            [{c for c in range(m) if rng.random() < rng.choice((0.3, 0.5, 0.7))} for _ in range(n)],
            m=m,
            k=1,
        )
        ci = domains.recognize(e, "CI")
        assert (ci is None) == (consecutive_order_exists(m, e.approvals) is None)
        if ci is not None:
            assert domains.verify_witness(e, "CI", ci)
        supporter_sets = [
            {v for v in range(n) if c in e.approvals[v]} for c in range(m)
        ]
        vi = domains.recognize(e, "VI")
        assert (vi is None) == (consecutive_order_exists(n, supporter_sets) is None)
        if vi is not None:
            assert domains.verify_witness(e, "VI", vi)

    # (d) group-axiom verdicts == naive full-subset enumeration, 200 pairs
    for _ in range(200):
        e = random_election(rng, n_max=10, m_max=10, k_max=5)
        w = random_committee(rng, e)
        assert check(e, w, JR).satisfied == naive_jr(e, w.members)
        assert check(e, w, EJR).satisfied == naive_ejr(e, w.members)
        assert check(e, w, PJR).satisfied == naive_pjr(e, w.members)
        assert check(e, w, CORE).satisfied == naive_core(e, w.members)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"oracle suite took {elapsed:.1f}s (budget 120s)"
    print(f"\nACCEPTANCE 2 PASS: oracle equivalence, zero mismatches in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: constructive guarantees (< 2 min)
# ---------------------------------------------------------------------------

# each arrow (A, B) reads "a committee satisfying A satisfies B"
IMPLICATION_ARROWS = (
    (IR, EJR),
    (IR, SSJR),
    (EJR, PJR),
    (PJR, JR),
    (SSJR, JR),
    (CORE, FJR),
    (FJR, EJR),
    (PERFECT_REP, SSJR),
)


def verdicts(election, committee):
    """Every axiom's verdict on the committee, one ``check`` per axiom;
    PERFECT_REP only when k divides n."""
    axioms = [IR, SSJR, JR, PJR, EJR, FJR, CORE]
    if election.n % election.k == 0:
        axioms.append(PERFECT_REP)
    return {axiom: check(election, committee, axiom) for axiom in axioms}


def test_criterion_3_constructive_guarantees():
    t0 = time.perf_counter()
    rng = random.Random(30303)

    # (a) two-pass VI construction: (2,4)-IR, exact size k, size lemmas
    for _ in range(1000):
        e = random_vi_election(rng, n_max=40, m_max=16, k_max=8)
        witness = domains.recognize(e, "VI")
        result = domains.construct(e, "VI", witness)
        assert len(result.committee.members) == e.k
        assert check(e, result.committee, alpha_beta_ir(2, 4)).satisfied
        n, k = e.n, e.k
        for step in result.trace.round1:
            i = step.position + 1
            assert step.accumulated * 2 * n <= ((i - 1) + step.support_above) * k
        for t, step in enumerate(result.trace.round2, start=1):
            assert step.accumulated * 2 * n <= ((t - 1) + step.support_below) * k

    # (b) per-domain constructions on >= 300 in-domain instances each
    for _ in range(300):
        e = random_tpart_election(rng)
        w = domains.recognize(e, "T_PART")
        result = domains.construct(e, "T_PART", w)
        assert check(e, result.committee, IR).satisfied

        e, tree = random_atr_election(rng)
        result = domains.construct(e, "ALPHA_TR", tree)
        assert check(e, result.committee, IR).satisfied

        e = random_cei_election(rng)
        w = domains.recognize(e, "CEI")
        result = domains.construct(e, "CEI", w)
        assert check(e, result.committee, alpha_beta_ir(2, 0)).satisfied
        assert check(e, result.committee, SSJR).satisfied

        e = random_vei_election(rng)
        w = domains.recognize(e, "VEI")
        result = domains.construct(e, "VEI", w)
        assert check(e, result.committee, alpha_beta_ir(2, 0)).satisfied
        assert check(e, result.committee, SSJR).satisfied

        e = random_wsc_election(rng, wide_ballots=True)
        w = domains.recognize(e, "WSC")
        result = domains.construct(e, "WSC", w)
        assert check(e, result.committee, SSJR).satisfied

    # (c) implication arrows on 10^4 random (election, committee) pairs
    violations = 0
    for _ in range(10_000):
        e = random_election(rng, n_max=9, m_max=6, k_max=4)
        w = random_committee(rng, e)
        report = verdicts(e, w)
        for src, dst in IMPLICATION_ARROWS:
            if src in report and report[src].satisfied and not report[dst].satisfied:
                violations += 1
    assert violations == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"constructive suite took {elapsed:.1f}s (budget 120s)"
    print(f"\nACCEPTANCE 3 PASS: constructive guarantees in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 4: experiment reproduction at desk scale
# ---------------------------------------------------------------------------


def test_criterion_4_experiment_reproduction():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        models=("vi_euclid", "ci_euclid", "euclid_2d", "ic", "urn", "mallows"),
        n=40,
        m=16,
        k_values=tuple(range(2, 13)),
        instances=300,
        rules=(),
        seed=1,
        node_cap=10**6,
        include_timing=False,
    )
    rows = run_experiment(spec)
    rates = existence_rates(rows)
    assert not any(r.undecided for r in rows)

    for k in spec.k_values:
        vi = rates[("vi_euclid", k)]["ir_rate"]
        two_d = rates[("euclid_2d", k)]["ir_rate"]
        ci = rates[("ci_euclid", k)]["ir_rate"]
        urn = rates[("urn", k)]["ir_rate"]
        assert vi >= two_d >= ci, (k, vi, two_d, ci)
        assert urn >= ci, (k, urn, ci)
        if k >= 6:
            assert vi >= 0.9, (k, vi)
        if k <= 6:
            assert ci <= 0.2, (k, ci)
            ic_ir = rates[("ic", k)]["ir_rate"]
            ic_ssjr = rates[("ic", k)]["ssjr_rate"]
            assert abs(ic_ir - ic_ssjr) <= 0.05, (k, ic_ir, ic_ssjr)

    elapsed = time.perf_counter() - t0
    assert elapsed <= 600, f"harness took {elapsed:.0f}s (budget 600s)"
    print(
        "\nACCEPTANCE 4 PASS: existence curves ordered as in the experiments "
        f"({len(rows)} instances in {elapsed:.0f} s)"
    )
