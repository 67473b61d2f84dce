import dataclasses
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
    ViolationWitness,
    alpha_beta_ir,
    check,
    verify_violation,
)
from irlab.cohesion import certificate, entitlements, f_vector
from irlab.gen import MODELS, GenSpec, generate
from irlab.model import Committee, Election, mask_to_set
from irlab.search import BudgetExceededError, NodeBudget

from instance_gen import random_committee, random_election
from test_acceptance import IMPLICATION_ARROWS, verdicts
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
    verify_violation_per_kind,
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
    for axiom in (IR, EJR, PJR, JR, SSJR, CORE):
        assert check(e, Committee.of({0, 1}, e), axiom).satisfied, axiom


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
    gaps = set()  # seats minus group size of the random groups
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
        # any voter set is a Hall violator when the members its ballots
        # approve seat fewer than all of it (counted on the frozen sets)
        group = frozenset(rng.sample(range(e.n), rng.randint(1, e.n)))
        seats = len({c for i in group for c in e.approvals[i] if c in w.members}) * (e.n // e.k)
        witness = ViolationWitness(group=group, deprived=group)
        assert verify_violation(e, w, PERFECT_REP, witness) == (seats < len(group))
        gaps.add(seats - len(group))
    assert violated >= 50
    assert {-1, 0} <= gaps  # groups just short of their seats and just seated


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
    # each witness passes; naming one more short voter who does not approve
    # the whole candidate set (as the deprived voter of IR and semi-strong
    # JR, in the group of JR, EJR and PJR) breaks it.  In the first profile
    # voters 0-2 lack a member and approve {0}, and voter 3 lacks one too
    rng = random.Random(31)
    axioms_under_test = (JR, EJR, PJR, FJR, CORE, SSJR, IR)
    seen_violations = 0
    broken = set()
    first = Election.from_approvals([{0, 1}] * 3 + [{4}, {2}, {3}], m=5, k=2)
    for trial in range(81):
        e = random_election(rng, n_max=10, m_max=7, k_max=4) if trial else first
        w = random_committee(rng, e) if trial else Committee.of({2, 3}, e)
        counts = [len(ballot & w.members) for ballot in e.approvals]
        for axiom in axioms_under_test:
            verdict = check(e, w, axiom)
            if verdict.status == "violated":
                seen_violations += 1
                assert verify_violation(e, w, axiom, verdict.witness), (
                    axiom,
                    e.approvals,
                    sorted(w.members),
                )
                wit = verdict.witness
                if axiom.kind in ("FJR", "CORE"):
                    continue
                outside = [
                    j for j in range(e.n)
                    if counts[j] < wit.level and not wit.candidate_set <= e.approvals[j]
                ]
                if not outside:
                    continue
                j = rng.choice(outside)
                if axiom.kind in ("IR", "SSJR"):
                    wit = dataclasses.replace(wit, deprived=frozenset([j]))
                else:
                    wit = dataclasses.replace(wit, group=wit.group | {j})
                assert not verify_violation(e, w, axiom, wit), (axiom, e.approvals, j)
                broken.add(axiom.kind)
    assert seen_violations > 50
    assert broken == {"JR", "EJR", "PJR", "SSJR", "IR"}


def _witness(group=(), candidate_set=(), level=None, deprived=()):
    return ViolationWitness(frozenset(group), frozenset(candidate_set), level, frozenset(deprived))


# n = 6, k = 3: a group claims |S| seats when it has at least 2|S| voters.
# Under W = {2, 4, 5} voters 0-2 hold no member, voter 3 holds 4 and voter
# 5 holds none; N({0, 1}) = {0, 1, 2, 3} and N({3}) = {5}.
TAMPER_PROFILE = ([{0, 1}] * 3 + [{0, 1, 4}, {2}, {3}], 6, 3)
TAMPER_COMMITTEE = {2, 4, 5}
SOUND = _witness(range(4), {0, 1}, 2, range(4))
# (axiom, a witness that verifies, witnesses each wrong in one respect only:
# every other check of verify_violation passes, so each is caught by one check)
TAMPERED_WITNESSES = (
    (IR, SOUND, (
        _witness(range(4), {0, 1}, 2),  # no deprived voter
        _witness(range(3), {0, 1}, 2, range(3)),  # the group is not N(S)
        _witness({5}, {3}, 1, {5}),  # N(S) too small for |S| seats
        _witness(range(4), {0, 1}, 3, range(4)),  # the level is not |S|
        _witness(range(4), {0, 1}, 2, {0, 5}),  # voter 5 does not approve S
        _witness(range(4), {0}, 1, {3}),  # voter 3 holds the level
    )),
    (alpha_beta_ir(Fraction(3, 2), 0), _witness(range(4), {0, 1}, 2, {3}), (
        _witness(range(4), {0}, 1, {3}),  # 3/2 * 1 meets the level
    )),
    (SSJR, _witness(range(4), {0, 1}, 2, range(3)), (
        _witness(range(4), {0, 1}, 2, {3}),  # voter 3 holds a member
    )),
    (EJR, SOUND, (
        _witness(range(3), {0, 1}, 1),  # the level is not |S|
        _witness((), (), 0),  # no group
        _witness({0}, {0}, 1),  # one voter cannot claim a seat
        _witness({0, 1, 2, 5}, {0, 1}, 2),  # voter 5 does not approve S
        _witness(range(4), {0}, 1),  # voter 3 holds the level
    )),
    (JR, _witness(range(3), {0}, 1), (
        _witness(range(4), {0}, 1),  # voter 3 holds a member
    )),
    (PJR, SOUND, (
        _witness(range(4), {0}, 2),  # the level is not |S|
        _witness({0}, {0}, 1),  # one voter cannot claim a seat
        _witness({0, 1, 2, 5}, {0, 1}, 2),  # voter 5 does not approve S
        _witness(range(4), {0}, 1),  # voter 3's member 4 meets the level
    )),
    (FJR, SOUND, (
        _witness({0}, {0, 1}, 2),  # one voter cannot claim two seats
        _witness({0, 1, 2, 5}, {0, 1}, 2),  # voter 5 approves no member of S
        _witness(range(4), {0}, 1),  # voter 3 holds the level
        _witness((), (), 0),  # no group
    )),
    (CORE, SOUND, (
        _witness(),  # no group and no candidates
        _witness({0}, {0, 1}),  # one voter cannot claim two seats
        _witness({0, 1, 2, 5}, {0, 1}),  # voter 5 gains nothing from S
    )),
    (PERFECT_REP, _witness(range(4)), (
        _witness(),  # no Hall violator (0 seats for 0 voters rejects it too)
        _witness({4, 5}),  # member 2 serves the two of them, n/k = 2 each
    )),
)


@pytest.mark.parametrize(
    "axiom, sound, tampered", TAMPERED_WITNESSES, ids=[str(a) for a, _, _ in TAMPERED_WITNESSES]
)
def test_verify_violation_rejects_each_tampered_witness(axiom, sound, tampered):
    approvals, m, k = TAMPER_PROFILE
    e = Election.from_approvals(approvals, m=m, k=k)
    w = Committee.of(TAMPER_COMMITTEE, e)
    assert verify_violation(e, w, axiom, sound)
    for witness in tampered:
        assert not verify_violation(e, w, axiom, witness), witness


def test_verify_violation_matches_per_kind_oracle():
    # the shared re-check against the per-kind one, for every kind, on every
    # witness check finds for the profile (whichever kind found it), copies
    # of its own kind's witness with one field perturbed, and random
    # witnesses (S, a group that is N(S) or random, a level that is |S| or
    # random, deprived voters inside the group or random).  In the first
    # profile the EJR witness's voters hold one member each and two together,
    # which PJR's footprint rejects
    rng = random.Random(2511)
    kinds = (IR, SSJR, JR, EJR, PJR, FJR, CORE)
    kinds += (alpha_beta_ir(Fraction(3, 2), Fraction(1, 2)), alpha_beta_ir(1, 1))
    verdicts = violations = 0
    first = Election.from_approvals([{0, 1, 2}, {0, 1, 3}, {0, 1}, {0, 1}], m=4, k=2)

    def subset(items, share):
        return frozenset(x for x in items if rng.random() < share)

    def toggled(items, universe):
        return items ^ {rng.choice(universe)}

    for trial in range(1000):
        e = random_election(rng, n_max=8, m_max=6, k_max=4) if trial else first
        w = random_committee(rng, e) if trial else Committee.of({2, 3}, e)
        axes = kinds + ((PERFECT_REP,) if e.n % e.k == 0 else ())
        found = {axiom: check(e, w, axiom).witness for axiom in axes}
        for axiom in axes:
            witnesses = [wit for wit in found.values() if wit is not None]
            own = found[axiom]
            if own is not None:
                witnesses += [
                    dataclasses.replace(own, group=toggled(own.group, range(e.n))),
                    dataclasses.replace(own, deprived=toggled(own.deprived, range(e.n))),
                    dataclasses.replace(own, candidate_set=toggled(own.candidate_set, range(e.m))),
                    dataclasses.replace(own, level=(own.level or 0) + rng.choice((-1, 1))),
                ]
            for _ in range(4):
                cands = subset(range(e.m), 0.3)
                group = e.supporters_mask(cands) if rng.random() < 0.5 else None
                group = subset(range(e.n), 0.5) if group is None else mask_to_set(group)
                level = len(cands) if rng.random() < 0.5 else rng.randint(0, e.k)
                deprived = subset(group if rng.random() < 0.5 else range(e.n), 0.3)
                witnesses.append(ViolationWitness(group, cands, level, deprived))
            for witness in witnesses:
                expected = verify_violation_per_kind(e, w, axiom, witness)
                assert verify_violation(e, w, axiom, witness) == expected, (
                    axiom, e.approvals, sorted(w.members), witness
                )
                verdicts += 1
                violations += expected is True
    assert verdicts >= 40_000 and violations >= 2_000, (verdicts, violations)


def test_malformed_witnesses_neither_raise_nor_verify():
    # every field of each kind's own witness, and of a certificate, made
    # malformed in one way: an index negative (-n wraps to a real voter), at
    # n or m, None, a float or a str, or the field no set at all; the level,
    # where the kind reads it, not positive, None, a float or a str
    approvals, m, k = TAMPER_PROFILE
    e = Election.from_approvals(approvals, m=m, k=k)
    w = Committee.of(TAMPER_COMMITTEE, e)
    n = e.n
    kinds = (IR, SSJR, JR, EJR, PJR, FJR, CORE, PERFECT_REP)
    kinds += (alpha_beta_ir(Fraction(3, 2), Fraction(1, 2)), alpha_beta_ir(1, 1))

    def malformed_sets(items, bound):
        return [items | {x} for x in (-1, -n, bound, None, 0.5, "0")] + [None, 0.5, "0", [0]]

    for axiom in kinds:
        sound = check(e, w, axiom).witness
        assert sound is not None and verify_violation(e, w, axiom, sound), axiom
        if sound.level is not None:  # a level read back from JSON as a Fraction
            read_back = dataclasses.replace(sound, level=Fraction(sound.level))
            assert verify_violation(e, w, axiom, read_back), axiom
        fields = {name: malformed_sets(getattr(sound, name), n) for name in ("group", "deprived")}
        fields["candidate_set"] = malformed_sets(sound.candidate_set, m)
        if axiom.kind not in ("CORE", "PERFECT_REP"):
            level = sound.level
            fields["level"] = [-1, 0, None, float(level), str(level), level + Fraction(1, 2)]
        for name, values in fields.items():
            for value in values:
                witness = dataclasses.replace(sound, **{name: value})
                assert verify_violation(e, w, axiom, witness) is False, (axiom, name, value)
    cert = certificate(e, 0)
    assert cert.f == 2 and cert.verify(e)
    fields = {
        "voter": [-1, -n, n, None, 0.5, "0"],
        "f": [-1, None, float(cert.f), str(cert.f)],
        "witness_set": malformed_sets(cert.witness_set, m),
        "witness_supporters": [None, 0.5, "0", cert.witness_supporters.mask],
    }
    for name, values in fields.items():
        for value in values:
            assert dataclasses.replace(cert, **{name: value}).verify(e) is False, (name, value)


def test_implication_arrows_random():
    rng = random.Random(37)
    for _ in range(150):
        e = random_election(rng, n_max=9, m_max=6, k_max=4)
        w = random_committee(rng, e)
        report = verdicts(e, w)
        for src, dst in IMPLICATION_ARROWS:
            if src in report and report[src].satisfied:
                assert report[dst].satisfied, (src, dst, e.approvals, sorted(w.members))


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
    report = verdicts(e, w)
    assert PERFECT_REP in report
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
# records with an f-vector are read off it by oracles.check_given_certificates.
# One digest per axiom kind, over that kind's record lines in order, so a
# change to one search moves its own digest only (the single digest over all
# lines was 5828a437...)
GOLDEN_VERDICTS_SHA256 = {
    "IR": "d102f44220935de936d766655395568b9039f738f14d9651a54bf97d46152f2a",
    "SSJR": "ac35e6ffe1a9558f07466cf44b402455697ba589a2364d41e57bf2c06071ad33",
    "ALPHA_BETA_IR": "834bd9f66b6432a91e8741b316f25374659161f636047b0c471f156dce6fca25",
    "JR": "44d2e4edcb3defaefa41bc14d228e94fd9a88760f32db092b0893c2466034e40",
    "PJR": "306c246c52b4e72f3bfe15c0e374b9b0ce102074843c2f12658fa8570a3c1351",
    "EJR": "a8691f3ec0fd1ae954c04342bc0b58829ccb9e638349f69d9d9286617d8eee83",
    "FJR": "b3f598300069e2e3a3106877b5aee2419615bfb772b70ae79a75b703d3ad592f",
    "CORE": "485eba517353e63eb32a23dd648b23159296ae9fe9aa868a074c7f38d056a25f",
    "PERFECT_REP": "051e190e343089e8c1f01919e670108673935f6c0bd7b6042e356d1da5906247",
}


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
    rng = random.Random(10)
    kinds = (IR, SSJR, alpha_beta_ir(Fraction(3, 2), 1), JR, PJR, EJR, FJR, CORE, PERFECT_REP)
    digests = {axiom.kind: hashlib.sha256() for axiom in kinds}
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
                                digests[axiom.kind].update(line.encode() + b"\n")
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
    assert {kind: d.hexdigest() for kind, d in digests.items()} == GOLDEN_VERDICTS_SHA256
