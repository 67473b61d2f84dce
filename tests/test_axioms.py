import hashlib
import random
import re
from fractions import Fraction

import pytest

from irlab import axioms
from irlab.axioms import (
    CORE,
    EJR,
    FJR,
    IR,
    JR,
    PERFECT_REP,
    PJR,
    SSJR,
    alpha_beta_ir,
    check,
    implication_report,
    verify_violation,
)
from irlab.cohesion import entitlements, f_vector
from irlab.gen import MODELS, GenSpec, generate
from irlab.model import Committee, Election
from irlab.search import BudgetExceededError, NodeBudget

from instance_gen import random_committee, random_election
from oracles import (
    bipartite_quota_flow,
    check_core,
    check_fjr,
    check_given_certificates,
    cohesive_witness,
    naive_core,
    naive_ejr,
    naive_fjr,
    naive_jr,
    naive_perfect,
    naive_pjr,
)
from hard_instances import (
    two_camps_with_bridge,
    uneven_cohorts,
    ssjr_not_pr_instance,
    ssjr_ejr_clash,
)


def test_bridge_profile_ir_satisfied():
    e = two_camps_with_bridge()
    assert check(e, Committee.of({0, 1}, e), IR).satisfied


def test_bridge_profile_report_all_satisfied():
    e = two_camps_with_bridge()
    report = implication_report(e, Committee.of({0, 1}, e))
    for axiom in (IR, EJR, PJR, JR, SSJR, CORE):
        assert report[axiom].satisfied, axiom


def test_bridge_profile_ir_violation_names_voter8():
    e = two_camps_with_bridge()
    verdict = check(e, Committee.of({0, 2}, e), IR)
    assert verdict.status == "violated"
    assert verdict.witness.deprived == frozenset({7})
    assert verify_violation(e, Committee.of({0, 2}, e), IR, verdict.witness)


def test_ssjr_ejr_clash_ejr_violation_witness():
    e = ssjr_ejr_clash()
    w = Committee.of({2, 3, 4, 0}, e)  # contains {c3,c4,c5}
    verdict = check(e, w, EJR)
    assert verdict.status == "violated"
    assert verdict.witness.level == 2
    assert verdict.witness.group == frozenset({0, 1, 2, 3})
    assert verdict.witness.candidate_set == frozenset({0, 1})
    assert verify_violation(e, w, EJR, verdict.witness)


def test_uneven_cohorts_core_violation():
    e = uneven_cohorts()
    w = Committee.of({0, 1, 2, 3, 8, 9}, e)
    verdict = check(e, w, CORE)
    assert verdict.status == "violated"
    assert verdict.witness.group == frozenset(range(4, 12))
    assert verdict.witness.candidate_set == frozenset({4, 5, 6, 7})
    assert verify_violation(e, w, CORE, verdict.witness)


def test_trivial_one_kminus1_ir():
    rng = random.Random(11)
    for _ in range(40):
        e = random_election(rng, n_max=8, m_max=6)
        if max(entitlements(e)) >= e.k:
            continue
        w = random_committee(rng, e)
        axiom = alpha_beta_ir(1, e.k - 1)
        assert check(e, w, axiom).satisfied


def test_pr_ssjr_fixture():
    e = ssjr_not_pr_instance()
    w = Committee.of({3, 4, 5}, e)
    assert check(e, w, SSJR).satisfied
    assert check(e, w, PERFECT_REP).status == "violated"
    assert check(e, Committee.of({0, 1, 2}, e), PERFECT_REP).satisfied


def test_perfect_rep_requires_divisibility():
    e = Election.from_approvals([{0}] * 5, m=2, k=2)
    with pytest.raises(ValueError):
        check(e, Committee.of({0, 1}, e), PERFECT_REP)


def test_group_axioms_require_full_committee():
    e = two_camps_with_bridge()
    with pytest.raises(ValueError):
        check(e, Committee.of({0}, e), EJR)
    # individual axioms accept smaller committees
    assert check(e, Committee.of({0}, e), SSJR).status in ("satisfied", "violated")


def test_alpha_beta_parameter_validation():
    with pytest.raises(ValueError):
        alpha_beta_ir(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        alpha_beta_ir(1, -1)
    with pytest.raises(ValueError):
        axioms.AxiomId("JR", alpha=Fraction(2))


def test_oracle_equivalence_small_random():
    rng = random.Random(21)
    for _ in range(60):
        e = random_election(rng, n_max=10, m_max=7, k_max=4)
        w = random_committee(rng, e)
        assert check(e, w, JR).satisfied == naive_jr(e, w.members)
        assert check(e, w, EJR).satisfied == naive_ejr(e, w.members)
        assert check(e, w, PJR).satisfied == naive_pjr(e, w.members)
        assert check(e, w, CORE).satisfied == naive_core(e, w.members)
        assert check(e, w, FJR).satisfied == naive_fjr(e, w.members)


def test_perfect_rep_oracle_small_random():
    rng = random.Random(23)
    tried = 0
    while tried < 40:
        e = random_election(rng, n_max=8, m_max=6)
        if e.n % e.k != 0:
            continue
        tried += 1
        w = random_committee(rng, e)
        assert check(e, w, PERFECT_REP).satisfied == naive_perfect(e, w.members)


def test_perfect_rep_matches_kuhn_oracle():
    # verdict and Hall witness (the voters the source side still reaches)
    # equal those of the recursive slot matching the flow replaced
    rng = random.Random(29)
    tried = violated = 0
    while tried < 300:
        e = random_election(rng, n_max=30, m_max=8, density=rng.choice((0.2, 0.4)))
        if e.n % e.k != 0:
            continue
        tried += 1
        w = random_committee(rng, e)
        verdict = check(e, w, PERFECT_REP)
        flow, hall = bipartite_quota_flow(e, sorted(w.members), e.n // e.k)
        assert verdict.status == ("satisfied" if flow == e.n else "violated")
        if verdict.witness is not None:
            violated += 1
            assert verdict.witness.group == verdict.witness.deprived == frozenset(hall)
            assert verify_violation(e, w, PERFECT_REP, verdict.witness)
    assert violated >= 50


def test_perfect_rep_long_chain():
    # voter v approves c_{v-1} and c_v, k = m = n: the matching v -> c_v is
    # perfect, and a recursive augmenting path would be n voters deep
    n = 1500
    e = Election.from_approvals([{v - 1, v} - {-1} for v in range(n)], m=n, k=n)
    assert check(e, Committee.of(range(n), e), PERFECT_REP).satisfied


def test_fjr_core_match_separate_searches():
    # FJR and the core share one deviation search; verdict, witness and node
    # cost equal those of the two searches it replaced, capped or not
    rng = random.Random(37)
    seen = {"violated": 0, "undecided": 0}
    for _ in range(150):
        e = random_election(rng, n_max=10, m_max=7, k_max=4)
        w = random_committee(rng, e)
        counts = [len(w.members & a) for a in e.approvals]
        for cap in (2, 7, 10**6):
            for axiom, oracle in ((FJR, check_fjr), (CORE, check_core)):
                verdict = check(e, w, axiom, node_cap=cap)
                assert verdict == oracle(e, axiom, counts, cap)
                seen[verdict.status] = seen.get(verdict.status, 0) + 1
    assert seen["violated"] >= 20 and seen["undecided"] >= 20


def _two_camps(rng):
    """A profile of 65 to 200 voters in two camps over the two halves of the
    candidates, k >= 9, and a committee leaning to one camp."""
    n, m, k = rng.randint(65, 200), rng.randint(12, 20), rng.randint(9, 11)
    half, share = m // 2, rng.uniform(0.2, 0.6)
    approvals = []
    for _ in range(n):
        side = range(half) if rng.random() < share else range(half, m)
        approvals.append({c for c in side if rng.random() < 0.8} | {c for c in range(m) if rng.random() < 0.1})
    e = Election.from_approvals(approvals, m=m, k=k)
    first = rng.choice([max(0, k - (m - half)), min(half, k)])  # the fewest or most from camp one
    return e, Committee.of(rng.sample(range(half), first) + rng.sample(range(half, m), k - first), e)


def test_fjr_core_match_recursive_searches_past_one_word():
    # voter masks of 65 to 200 bits and one of 1,000, k >= 9, so the core's
    # counts[i] + 1 and FJR's beta reach four counter slices: the same
    # verdict, witness and node cost as the recursive searches, or capped
    # at the same node
    rng = random.Random(79)
    cases = [_two_camps(rng) for _ in range(12)]
    e = generate(GenSpec("vi_euclid", 1000, 60, 5), k=10)
    cases.append((e, Committee.of(rng.sample(range(e.m), e.k), e)))
    seen = {"satisfied": 0, "violated": 0, "undecided": 0}
    for e, w in cases:
        counts = [len(w.members & a) for a in e.approvals]
        for cap in (5, 60, 2000):
            for axiom, oracle in ((FJR, check_fjr), (CORE, check_core)):
                verdict = check(e, w, axiom, node_cap=cap)
                assert verdict == oracle(e, axiom, counts, cap), (e.n, e.k, axiom, cap)
                seen[verdict.status] += 1
    assert min(seen.values()) >= 8, seen


def test_ejr_pjr_match_recursive_cohesive_search(monkeypatch):
    # the cohesive-set search runs on an explicit stack; whole EJR and PJR
    # verdicts, node cost included, equal those of the recursive search,
    # capped or not
    rng = random.Random(43)
    cases = []
    for _ in range(160):
        e = random_election(rng, n_max=10, m_max=7, k_max=4, density=rng.choice([0.4, 0.7]))
        cases.append((e, random_committee(rng, e)))

    def verdicts():
        return [
            check(e, w, axiom, node_cap=cap)
            for e, w in cases
            for cap in (2, 7, 10**6)
            for axiom in (EJR, PJR)
        ]

    got = verdicts()
    monkeypatch.setattr(axioms, "_cohesive_witness", cohesive_witness)
    assert got == verdicts()
    seen = {status: sum(v.status == status for v in got) for status in ("violated", "undecided")}
    assert min(seen.values()) >= 20, seen


def test_cohesive_search_matches_recursive_search_on_random_groups():
    # the same search on random voter groups and levels: the same witness,
    # or None, after the same number of nodes, or both capped
    rng = random.Random(59)
    seen = {"found": 0, "none": 0, "capped": 0}
    for _ in range(300):
        e = random_election(rng, n_max=12, m_max=9, k_max=6, density=rng.choice([0.4, 0.7]))
        voters = sum(1 << i for i in range(e.n) if rng.random() < 0.8)
        level = rng.randint(1, min(e.k, 3))
        for cap in (2, 10**6):
            outcomes = []
            for search in (axioms._cohesive_witness, cohesive_witness):
                budget = NodeBudget(cap, stage="test")
                try:
                    hit = search(e, voters, level, budget)
                except BudgetExceededError:
                    hit = "capped"
                outcomes.append((hit, budget.nodes))
            assert outcomes[0] == outcomes[1], (e.approvals, e.k, voters, level, cap)
            hit = outcomes[0][0]
            seen["capped" if hit == "capped" else "none" if hit is None else "found"] += 1
    assert min(seen.values()) >= 20, seen


def test_group_searches_at_a_thousand_seats():
    # EJR, FJR and the core search one candidate deeper per seat; at k = 1000
    # each finds the 1,000-candidate violation the committee leaves
    e = Election.from_approvals([set(range(1999))], m=2000, k=1000)
    w = Committee.of([*range(999), 1999], e)
    for axiom in (EJR, FJR, CORE):
        verdict = check(e, w, axiom)
        assert (verdict.status, verdict.cost) == ("violated", 1001)
        assert len(verdict.witness.candidate_set) == 1000
        assert verify_violation(e, w, axiom, verdict.witness)


def test_violation_witnesses_recheck():
    rng = random.Random(31)
    axioms_under_test = (JR, EJR, PJR, FJR, CORE, SSJR, IR)
    seen_violations = 0
    for _ in range(80):
        e = random_election(rng, n_max=10, m_max=7, k_max=4)
        w = random_committee(rng, e)
        for axiom in axioms_under_test:
            verdict = check(e, w, axiom)
            if verdict.status == "violated":
                seen_violations += 1
                assert verify_violation(e, w, axiom, verdict.witness), (
                    axiom,
                    e.approvals,
                    sorted(w.members),
                )
    assert seen_violations > 50


def test_implication_arrows_random():
    rng = random.Random(37)
    for _ in range(150):
        e = random_election(rng, n_max=9, m_max=6, k_max=4)
        w = random_committee(rng, e)
        report = implication_report(e, w)
        by_kind = {a.kind: v for a, v in report.items()}
        for src, dst in axioms.IMPLICATION_ARROWS:
            if src not in by_kind or dst not in by_kind:
                continue
            if by_kind[src].satisfied:
                assert by_kind[dst].satisfied, (src, dst, e.approvals, sorted(w.members))


def test_alpha_beta_monotonicity():
    rng = random.Random(41)
    for _ in range(60):
        e = random_election(rng, n_max=8, m_max=6)
        w = random_committee(rng, e)
        alpha = Fraction(rng.randint(1, 3))
        beta = Fraction(rng.randint(0, 3))
        weaker = alpha_beta_ir(alpha + 1, beta + 1)
        if check(e, w, alpha_beta_ir(alpha, beta)).satisfied:
            assert check(e, w, weaker).satisfied


def test_vacuous_on_empty_profile():
    # every cohesiveness-based axiom is vacuous without approvals; perfect
    # representation is not (no voter approves an assignable member)
    e = Election.from_approvals([set()] * 4, m=4, k=2)
    w = Committee.of({0, 1}, e)
    report = implication_report(e, w)
    for axiom, verdict in report.items():
        if axiom.kind == "PERFECT_REP":
            assert verdict.status == "violated"
        else:
            assert verdict.satisfied, axiom


def test_undecided_under_tiny_cap():
    rng = random.Random(43)
    e = random_election(rng, n_max=12, m_max=10, k_max=5, density=0.6)
    w = random_committee(rng, e)
    verdict = check(e, w, CORE, node_cap=1)
    assert verdict.status == "undecided"
    with pytest.raises(ValueError):
        verdict.satisfied


# SHA-256 of (status, witness, cost) of every axiom kind on the set below,
# recorded while each check still built its own verdict and node budget, and
# recorded again once IR and (alpha, beta)-IR without an f-vector took their
# values from the saturation-cut walk: 109 capped records then named that
# walk (or the one-voter certificate walk) instead of cohesion.f_vector, and
# 19 capped records were decided, each as at the never-binding cap; the
# records with an f-vector are read off it by oracles.check_given_certificates
GOLDEN_VERDICTS_SHA256 = "5828a437747ee068a0b8738d09dade1284a411505b57002cdc7e0787dbb3f098"


def _verdict_record(election, committee, axiom, fvec, cap):
    """The record line of one verdict and the verdict (None on an error);
    with ``fvec`` the verdict is read off those certificates."""
    try:
        if fvec is None:
            verdict = check(election, committee, axiom, node_cap=cap)
        else:
            verdict = check_given_certificates(election, committee, axiom, fvec)
    except (ValueError, BudgetExceededError) as exc:
        return f"{type(exc).__name__} {exc}", None
    w = verdict.witness
    if w is not None:
        w = (sorted(w.group), sorted(w.candidate_set), repr(w.level), sorted(w.deprived))
    return repr((verdict.status, w, verdict.cost)), verdict


def test_verdicts_match_golden_digest():
    # six models, a seeded committee, a cap that never binds and two that do;
    # IR, SSJR and (3/2,1)-IR with and without an f-vector; k = 3 leaves
    # n = 8 without perfect representation (a ValueError is recorded)
    digest = hashlib.sha256()
    rng = random.Random(10)
    kinds = (IR, SSJR, alpha_beta_ir(Fraction(3, 2), 1), JR, PJR, EJR, FJR, CORE, PERFECT_REP)
    seen = set()
    for model in MODELS:
        for n in (8, 12):
            for seed in range(4):
                for k in (2, 3, 4):
                    e = generate(GenSpec(model=model, n=n, m=6, seed=seed), k=k)
                    w = Committee.of(rng.sample(range(6), k), e)
                    fvec = f_vector(e)
                    for cap in (10**7, 6, 2):
                        for axiom in kinds:
                            given = [None, fvec] if axiom in kinds[:3] else [None]
                            records, verdicts = [], []
                            for fv in given:
                                record, verdict = _verdict_record(e, w, axiom, fv, cap)
                                records.append(record)
                                verdicts.append(verdict)
                                seen.add((axiom.kind, record.split()[0]))
                                line = f"{model} {n} {seed} {k} {cap} {axiom} {fv is None} {record}"
                                digest.update(line.encode() + b"\n")
                            if axiom.kind in ("IR", "ALPHA_BETA_IR"):
                                # without the f-vector: the same verdict, or a capped walk
                                alone, with_f = records
                                assert alone == with_f or re.search(
                                    r"BudgetExceededError .*\(cohesion\.(entitlements|certificate) ", alone
                                ), (alone, with_f)
                            elif axiom.kind == "SSJR":
                                # the singleton scan and the certificates name the same
                                # short voter, and both witnesses re-verify
                                alone, with_f = verdicts
                                assert alone.status == with_f.status, records
                                if alone.witness is not None:
                                    assert alone.witness.deprived == with_f.witness.deprived, records
                                    for verdict in verdicts:
                                        assert verify_violation(e, w, axiom, verdict.witness), records
    assert {kind for kind, head in seen if head == "('undecided',"} == {"PJR", "EJR", "FJR", "CORE"}
    assert ("PERFECT_REP", "ValueError") in seen and ("IR", "BudgetExceededError") in seen
    assert digest.hexdigest() == GOLDEN_VERDICTS_SHA256
