import dataclasses
import hashlib
import random

import pytest

from irlab import domains
from irlab.c1p import consecutive_ones_order, is_consecutive_under
from irlab.axioms import IR, SSJR, alpha_beta_ir, check
from irlab.cohesion import f_vector, vi_certificates
from irlab.domains import (
    ConstructionInfeasibleError,
    InvalidWitnessError,
    TPartWitness,
    TreeWitness,
    VIWitness,
    construct,
    recognize,
    verify_tree,
    verify_witness,
)
from irlab.gen import MODELS, GenSpec, generate
from irlab.model import Election, is_run, mask_to_set, position_mask
from irlab.solver import SolveRequest, find_committee

from instance_gen import (
    random_atr_election,
    random_election,
    random_cei_election,
    random_tpart_election,
    random_vei_election,
    random_vi_election,
    random_wsc_election,
)
from oracles import (
    consecutive_order_exists,
    ends_order_exists,
    recognize_by_sets,
    verify_by_sets,
    wsc_order_exists,
)
import hard_instances
from hard_instances import uncoverable_line_instance, two_camps_with_bridge, uneven_cohorts, disjoint_blocks_instance, opposed_ends_instance


def test_bridge_profile_ci_witness_order():
    w = recognize(two_camps_with_bridge(), "CI")
    assert w.candidate_order == (0, 2, 1)  # bridge candidate sits between the camps


def test_bridge_profile_vi_identity():
    w = recognize(two_camps_with_bridge(), "VI")
    assert w.voter_order == tuple(range(8))


def test_uneven_cohorts_outside_both_interval_domains():
    e = uneven_cohorts()
    assert recognize(e, "CI") is None
    assert recognize(e, "VI") is None


def test_disjoint_blocks_instance_is_ci():
    assert recognize(disjoint_blocks_instance(3), "CI") is not None


def test_recognizers_match_factorial_oracle():
    rng = random.Random(51)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        e = Election.from_approvals(
            [{c for c in range(m) if rng.random() < 0.5} for _ in range(n)], m=m, k=1
        )
        ci = recognize(e, "CI")
        oracle_ci = consecutive_order_exists(e.m, e.approvals)
        assert (ci is None) == (oracle_ci is None)
        if ci is not None:
            assert verify_witness(e, "CI", ci)
        supporter_sets = [
            {v for v in range(n) if c in e.approvals[v]} for c in range(m)
        ]
        vi = recognize(e, "VI")
        oracle_vi = consecutive_order_exists(e.n, supporter_sets)
        assert (vi is None) == (oracle_vi is None)
        if vi is not None:
            assert verify_witness(e, "VI", vi)


def test_ends_and_wsc_recognizers_match_factorial_oracle():
    rng = random.Random(57)
    for _ in range(320):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        p = rng.choice((0.3, 0.5, 0.7))
        e = Election.from_approvals(
            [{c for c in range(m) if rng.random() < p} for _ in range(n)], m=m, k=1
        )
        supporter_sets = [{v for v in range(n) if c in e.approvals[v]} for c in range(m)]
        for domain, exists in (
            ("CEI", ends_order_exists(m, e.approvals) is not None),
            ("VEI", ends_order_exists(n, supporter_sets) is not None),
            ("WSC", wsc_order_exists(e) is not None),
        ):
            witness = recognize(e, domain)
            assert (witness is not None) == exists, (domain, e.approvals)
            if witness is not None:
                assert verify_witness(e, domain, witness)


def _mixed_ballot_election(rng):
    """Up to 40 voters drawing from a few ballots, with empty and full ones."""
    n = rng.randint(1, 40)
    m = rng.randint(1, 10)
    pool = [frozenset(c for c in range(m) if rng.random() < 0.5) for _ in range(rng.randint(1, 4))]
    pool += [frozenset(), frozenset(range(m))]
    return Election.from_approvals([rng.choice(pool) for _ in range(n)], m=m, k=1)


def _perturbed(rng, witness):
    """The witness with two order entries swapped or, for CEI and VEI, with
    one side flipped."""
    fields = list(dataclasses.astuple(witness))  # (order,) or (order, sides)
    if len(fields) == 1 or rng.random() < 0.5:
        order = list(fields[0])
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[j] = order[j], order[i]
        fields[0] = tuple(order)
    else:
        sides = list(fields[1])
        i = rng.randrange(len(sides))
        sides[i] = "suffix" if sides[i] == "prefix" else "prefix"
        fields[1] = tuple(sides)
    return type(witness)(*fields)


def test_mask_layout_matches_set_oracle():
    rng = random.Random(59)
    makers = (
        _mixed_ballot_election,
        lambda r: random_cei_election(r, n_max=40, m_max=10),
        lambda r: random_vei_election(r, n_max=40, m_max=10),
        lambda r: random_wsc_election(r, n_max=40, wide_ballots=r.random() < 0.5),
        lambda r: random_vi_election(r, n_max=40, m_max=8),
    )
    members = 0
    for trial in range(330):
        e = makers[trial % len(makers)](rng)
        for domain in ("CEI", "VEI", "WSC"):
            witness = recognize(e, domain)
            assert witness == recognize_by_sets(e, domain), (domain, e.approvals)
            if witness is None:
                continue
            members += 1
            assert verify_witness(e, domain, witness) and verify_by_sets(e, domain, witness)
            for _ in range(3):
                other = _perturbed(rng, witness)
                assert verify_witness(e, domain, other) == verify_by_sets(e, domain, other)
    assert members > 300


def test_interval_recognizers_survive_deep_nesting():
    """A chain of 1,498 nested ballots (CI) or supporter sets (VI) nests as
    deep as the profile is wide; the layout must not recurse per level."""
    m = 1500
    e = Election.from_approvals([set(range(i + 2)) for i in range(m - 2)], m=m, k=1)
    witness = recognize(e, "CI")
    assert witness is not None and verify_witness(e, "CI", witness)
    e = Election.from_approvals([set(range(max(0, v - 1), m - 2)) for v in range(m)], m=m - 2, k=1)
    witness = recognize(e, "VI")
    assert witness is not None and verify_witness(e, "VI", witness)


# SHA-256 of the CI and VI witnesses of the profiles below, recorded while
# the consecutive-ones layout still worked on frozensets
GOLDEN_INTERVAL_WITNESSES_SHA256 = "8b87af2022ee23b32d51ed8d08422c938466dbf9d98ff081f1f37963e3cd582f"


def _interval_witness_digest():
    rng = random.Random(73)
    profiles = [
        generate(GenSpec(model=model, n=n, m=m, seed=seed), k=3)
        for model in MODELS
        for n, m in ((12, 8), (40, 16))
        for seed in (1, 2)
    ]
    for _ in range(40):
        profiles += [
            random_vi_election(rng, n_max=30, m_max=12),
            random_cei_election(rng, n_max=20, m_max=10),
            random_vei_election(rng, n_max=20, m_max=10),
            random_election(rng, n_max=16, m_max=10, density=rng.choice([0.3, 0.5, 0.7])),
        ]
    digest = hashlib.sha256()
    members = 0
    for e in profiles:
        for domain in ("CI", "VI"):
            witness = recognize(e, domain)
            members += witness is not None
            digest.update(f"{domain} {witness!r}\n".encode())
    return digest.hexdigest(), members, 2 * len(profiles)


def test_interval_witnesses_match_golden_digest():
    digest, members, total = _interval_witness_digest()
    assert 0.3 * total < members < 0.9 * total
    assert digest == GOLDEN_INTERVAL_WITNESSES_SHA256


def test_consecutive_ones_order_matches_factorial_oracle():
    # column-mask families with duplicate, empty, singleton and full sets;
    # half are intervals of a hidden column order, so both outcomes occur
    rng = random.Random(79)
    seen = {"order": 0, "none": 0, "duplicate": 0, "empty": 0, "singleton": 0, "full": 0}
    for trial in range(400):
        cols = rng.randint(1, 6)
        full = (1 << cols) - 1
        if trial % 2:
            hidden = rng.sample(range(cols), cols)
            masks = []
            for _ in range(rng.randint(1, 6)):
                a = rng.randrange(cols)
                masks.append(sum(1 << c for c in hidden[a : rng.randint(a + 1, cols)]))
        else:
            masks = [rng.getrandbits(cols) for _ in range(rng.randint(2, 8))]
        masks += rng.choices([0, full, 1 << rng.randrange(cols), rng.choice(masks)], k=2)
        rng.shuffle(masks)
        seen["duplicate"] += len(set(masks)) < len(masks)
        seen["empty"] += 0 in masks
        seen["singleton"] += any(mask.bit_count() == 1 for mask in masks)
        seen["full"] += full in masks
        order = consecutive_ones_order(cols, masks)
        exists = consecutive_order_exists(cols, [mask_to_set(mask) for mask in masks])
        assert (order is None) == (exists is None), (cols, masks)
        if order is not None:
            assert sorted(order) == list(range(cols))
            assert is_consecutive_under(order, masks)
        seen["none" if order is None else "order"] += 1
    assert min(seen.values()) >= 30, seen


def test_in_domain_instances_recognized():
    rng = random.Random(53)
    for _ in range(40):
        assert recognize(random_cei_election(rng), "CEI") is not None
        assert recognize(random_vei_election(rng), "VEI") is not None
        assert recognize(random_tpart_election(rng), "T_PART") is not None
        assert recognize(random_wsc_election(rng), "WSC") is not None


def test_tpart_rejects_overlapping_ballots():
    e = Election.from_approvals([{0, 1}, {1, 2}], m=3, k=1)
    assert recognize(e, "T_PART") is None


def test_tpart_witness_rejects_malformed_partitions():
    e = Election.from_approvals([{0, 1}, set(), {2}], m=3, k=1)
    witness = recognize(e, "T_PART")
    assert witness == TPartWitness((frozenset({0, 1}), frozenset({2})), (0, -1, 1))
    assert verify_witness(e, "T_PART", witness)
    for blocks, voter_block in (
        (({0, 1}, {1, 2}), (0, -1, 1)),  # overlapping blocks
        (({0, 1}, {2}, set()), (0, -1, 1)),  # an empty block
        (({0, 1},), (0, -1, 0)),  # candidate 2 in no block
        (({0, 1}, {2}), (0, -2, 1)),  # block index out of range
        (({0, 1}, {2}), (0, -1, 2)),
        (({0, 1}, {2}), (0, -1)),  # a voter without an entry
        (({0, 1}, {2}), (0, 0, 1)),  # an empty ballot assigned a block
        (({0, 1}, {2}), (-1, -1, 1)),  # a nonempty ballot without one
    ):
        malformed = TPartWitness(tuple(map(frozenset, blocks)), voter_block)
        assert not verify_witness(e, "T_PART", malformed), (blocks, voter_block)
        with pytest.raises(InvalidWitnessError, match="invalid t-PART witness"):
            construct(e, "T_PART", malformed)


def test_recognize_refuses_due_and_tree():
    e = two_camps_with_bridge()
    with pytest.raises(ValueError):
        recognize(e, "DUE")
    with pytest.raises(ValueError):
        recognize(e, "ALPHA_TR")


# ---------------------------------------------------------------------------
# candidate trees
# ---------------------------------------------------------------------------


def test_verify_tree_path_examples():
    # path tree x - c1 - c2 - c3
    e_ok = Election.from_approvals([{0, 1}], m=3, k=1)
    tree = TreeWitness(parent=(-1, 0, 1))
    assert verify_tree(e_ok, tree)
    # approving {c2} skips c1, not a root path
    e_bad = Election.from_approvals([{1}], m=3, k=1)
    assert not verify_tree(e_bad, tree)


def test_verify_tree_rejects_malformed():
    e = Election.from_approvals([{0}], m=2, k=1)
    with pytest.raises(ValueError):
        verify_tree(e, TreeWitness(parent=(1, 0)))  # cycle
    with pytest.raises(ValueError):
        verify_tree(e, TreeWitness(parent=(5, -1)))  # bad index
    with pytest.raises(ValueError):
        verify_tree(e, TreeWitness(parent=(-1,)))  # wrong length


def test_construct_atr_rejects_malformed_tree():
    e = Election.from_approvals([{0}, {0, 1}], m=2, k=1)
    for parent in ((-1, 5), (1, 0), (-1,)):
        assert not verify_witness(e, "ALPHA_TR", TreeWitness(parent=parent))
        with pytest.raises(InvalidWitnessError):
            construct(e, "ALPHA_TR", TreeWitness(parent=parent))


def test_construct_messages_reachable_from_the_cli(monkeypatch):
    """Every error ``irlab construct`` can print, word for word: the tree
    checks of alpha-TR and the three WSC infeasibilities."""
    e = Election.from_approvals([{0}, {0, 1}], m=2, k=1)
    for parent, message in (
        ((1, 0), "cycle through candidate 0"),
        ((-1, 5), "candidate 1: parent index 5 out of range"),
        ((-1,), "parent vector length differs from candidate count"),
        ((-1, -1), "ballots are not root paths of the tree"),
    ):
        with pytest.raises(InvalidWitnessError) as err:
            construct(e, "ALPHA_TR", TreeWitness(parent=parent))
        assert str(err.value) == message
    cases = [
        ([{0, 1}, {1}], 2, "no seat left for entitled single-candidate voter 1"),
        ([{1, 2}, {0, 2}], 3, "guaranteed candidates exceed committee size"),
    ]
    for approvals, m, message in cases:
        e = Election.from_approvals(approvals, m=m, k=1)
        with pytest.raises(ConstructionInfeasibleError) as err:
            construct(e, "WSC", recognize(e, "WSC"))
        assert str(err.value) == message
    # the semi-strong JR re-check holds for every real WSC committee; a
    # builder that picks nothing leaves voter 0 behind the padded candidate 0
    monkeypatch.setitem(domains._BUILDERS, "WSC", lambda election, witness: (set(), None))
    e = Election.from_approvals([{1}, {1}], m=2, k=1)
    with pytest.raises(ConstructionInfeasibleError) as err:
        construct(e, "WSC", recognize(e, "WSC"))
    assert str(err.value) == "voter 0 with positive entitlement left unrepresented"


def test_disjoint_blocks_voter_tree_is_not_candidate_tree():
    # the inapproximability instance has a voter-side tree representation;
    # the candidate-side check must reject a path tree over its candidates
    e = disjoint_blocks_instance(3)
    tree = TreeWitness(parent=tuple(range(-1, e.m - 1)))
    assert not verify_tree(e, tree)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_construct_vi_guarantee_random():
    rng = random.Random(61)
    for _ in range(60):
        e = random_vi_election(rng, n_max=20, m_max=10, k_max=6)
        witness = recognize(e, "VI")
        result = construct(e, "VI", witness)
        assert len(result.committee.members) == e.k
        assert check(e, result.committee, alpha_beta_ir(2, 4)).satisfied
        _assert_size_lemmas(e, result.trace)


def _assert_size_lemmas(e, trace):
    n, k = e.n, e.k
    for step in trace.round1:
        i = step.position + 1  # 1-based iteration index
        assert step.accumulated * 2 * n <= ((i - 1) + step.support_above) * k, (
            "round-1 size lemma violated",
            step,
        )
    for t, step in enumerate(trace.round2, start=1):
        assert step.accumulated * 2 * n <= ((t - 1) + step.support_below) * k, (
            "round-2 size lemma violated",
            step,
        )


def test_vi_trace_support_is_the_supporter_interval():
    # the construction reads each witness's supporter interval off its
    # candidates' spans; it must be the certificate's supporters, located
    # along the order directly
    rng = random.Random(67)
    seen = {"f = 0": 0, "f > 0": 0}
    for _ in range(300):
        e = random_vi_election(rng, n_max=30, m_max=10)
        order = recognize(e, "VI").voter_order
        trace = construct(e, "VI", VIWitness(order)).trace
        for step in trace.round1 + trace.round2:
            cert = trace.certificates[step.voter]
            seen["f = 0" if cert.f == 0 else "f > 0"] += 1
            pm = position_mask(cert.witness_supporters.mask, order)
            assert is_run(pm) and pm >> step.position & 1
            assert step.support_below == step.position - ((pm & -pm).bit_length() - 1)
            assert step.support_above == pm.bit_length() - step.position
    assert min(seen.values()) >= 300, seen


def test_construct_vi_at_scale():
    # n = 1000, m = 60: the VI entitlements equal the closed-set engine's, the
    # committee meets (2,4)-IR, counted directly, and both rounds keep the
    # size lemmas
    e = generate(GenSpec(model="vi_euclid", n=1000, m=60, seed=4), k=10)
    witness = recognize(e, "VI")
    fvec = f_vector(e)
    assert [c.f for c in vi_certificates(e, witness.voter_order)] == [c.f for c in fvec]
    result = construct(e, "VI", witness)
    assert len(result.committee.members) == e.k
    assert all(
        2 * len(result.committee.members & ballot) + 4 >= cert.f
        for ballot, cert in zip(e.approvals, fvec)
    )
    _assert_size_lemmas(e, result.trace)


def test_construct_vi_on_opposed_ends():
    e = opposed_ends_instance(k=4, n=8)
    witness = recognize(e, "VI")
    result = construct(e, "VI", witness)
    # end voters stay at |A cap W| <= 2 while f = 3; (2,4) still holds
    assert check(e, result.committee, alpha_beta_ir(2, 4)).satisfied


def test_construct_vi_wide_interval_corner():
    """A voter whose witness set is small but whose supporter interval is wide
    can be asked for more members than the witness holds, and a late addition
    under a wide bound can exceed the *per-iteration* size bound checked by
    `_assert_size_lemmas` at a later, narrower step.  The committee-level
    guarantees are unaffected: size exactly k, (2,4)-IR, and the final-step
    bounds |W| <= k/2 and |W-hat| < k/2 all hold.  Kept as a regression for
    the corner; the per-iteration bound is checked only on the random suites
    where it holds."""
    e = Election.from_approvals(
        [
            {0, 5},
            {0, 3, 5, 8, 9, 10},
            {0, 2, 5},
            {0, 2, 3, 4, 5, 6, 7, 10},
            {0, 2, 5, 6, 7},
        ],
        m=11,
        k=6,
    )
    witness = recognize(e, "VI")
    assert witness is not None
    result = construct(e, "VI", witness)
    n, k = e.n, e.k
    assert len(result.committee.members) == k
    assert check(e, result.committee, alpha_beta_ir(2, 4)).satisfied
    # final-step bounds, which the size argument rests on
    assert 2 * result.trace.round1[-1].accumulated <= k
    assert 2 * result.trace.round2[-1].accumulated < k or result.trace.round2[-1].accumulated == 0
    # the mid-trace per-iteration bound genuinely fails here
    mid_violation = any(
        step.accumulated * 2 * n > ((i - 1) + step.support_below) * k
        for i, step in enumerate(result.trace.round2, start=1)
    )
    assert mid_violation


def test_construct_vi_rejects_bad_witness():
    e = uneven_cohorts()
    with pytest.raises(InvalidWitnessError):
        construct(e, "VI", VIWitness(voter_order=tuple(range(e.n))))


def test_construct_tpart_exact_ir():
    rng = random.Random(67)
    for _ in range(60):
        e = random_tpart_election(rng)
        witness = recognize(e, "T_PART")
        result = construct(e, "T_PART", witness)
        assert len(result.committee.members) == e.k
        assert check(e, result.committee, IR).satisfied


def test_construct_tpart_symmetric_two_blocks():
    # two blocks of two candidates, supporters split 50/50, k=2
    e = Election.from_approvals([{0, 1}, {0, 1}, {2, 3}, {2, 3}], m=4, k=2)
    witness = recognize(e, "T_PART")
    result = construct(e, "T_PART", witness)
    assert check(e, result.committee, IR).satisfied
    assert len(result.committee.members & {0, 1}) == 1
    assert len(result.committee.members & {2, 3}) == 1


def test_construct_tpart_quota_exceeding_block():
    # a single block approved by everyone with k larger than the block
    e = Election.from_approvals([{0}] * 4, m=3, k=3)
    witness = recognize(e, "T_PART")
    result = construct(e, "T_PART", witness)
    assert check(e, result.committee, IR).satisfied


def test_construct_atr_exact_ir():
    rng = random.Random(71)
    for _ in range(60):
        e, tree = random_atr_election(rng)
        result = construct(e, "ALPHA_TR", tree)
        assert len(result.committee.members) == e.k
        assert check(e, result.committee, IR).satisfied


def test_construct_atr_star():
    # star of k leaves, each approved by n/k voters
    k = 4
    e = Election.from_approvals(
        [{i // 2} for i in range(2 * k)], m=k, k=k
    )
    tree = TreeWitness(parent=(-1,) * k)
    result = construct(e, "ALPHA_TR", tree)
    assert result.committee.members == frozenset(range(k))
    assert check(e, result.committee, IR).satisfied


def test_construct_cei_vei_guarantees():
    rng = random.Random(73)
    for _ in range(60):
        e = random_cei_election(rng)
        witness = recognize(e, "CEI")
        result = construct(e, "CEI", witness)
        assert check(e, result.committee, alpha_beta_ir(2, 0)).satisfied
        assert check(e, result.committee, SSJR).satisfied
    for _ in range(60):
        e = random_vei_election(rng)
        witness = recognize(e, "VEI")
        result = construct(e, "VEI", witness)
        assert check(e, result.committee, alpha_beta_ir(2, 0)).satisfied
        assert check(e, result.committee, SSJR).satisfied


def test_construct_wsc_ssjr():
    rng = random.Random(79)
    for _ in range(60):
        e = random_wsc_election(rng)
        witness = recognize(e, "WSC")
        result = construct(e, "WSC", witness)
        assert check(e, result.committee, SSJR).satisfied


def test_wsc_singleton_voters_covered_when_space_permits():
    # voters: two wide ballots plus a singleton demanding its candidate
    e = Election.from_approvals(
        [{0, 1}, {0, 1}, {2}, {2}], m=3, k=2
    )
    witness = recognize(e, "WSC")
    assert witness is not None
    result = construct(e, "WSC", witness)
    assert 2 in result.committee.members
    assert check(e, result.committee, SSJR).satisfied


def test_guarantee_tags_match_table():
    assert domains.GUARANTEES["T_PART"].alpha == 1
    assert domains.GUARANTEES["ALPHA_TR"].beta == 0
    assert domains.GUARANTEES["CEI"] == domains.GUARANTEES["VEI"]
    assert domains.GUARANTEES["VI"].beta == 4
    assert not domains.GUARANTEES["VI"].ssjr_guaranteed
    assert domains.GUARANTEES["WSC"].ssjr_guaranteed


def test_ci_membership_inherits_additive_lower_bound():
    # the CI profile of the inapproximability instance admits no
    # (alpha, beta)-IR committee with beta < k-1
    e = disjoint_blocks_instance(3)
    assert recognize(e, "CI") is not None
    fvec = tuple(f_vector(e))
    res = find_committee(SolveRequest(e, fvec, "MIN_BETA"))
    assert res.achieved_beta == e.k - 1


def test_due_fixture_has_no_ssjr_committee():
    e = uncoverable_line_instance()
    fvec = tuple(f_vector(e))
    res = find_committee(SolveRequest(e, fvec, "FIND_SSJR"))
    assert res.status == "infeasible"


# SHA-256 of the VI construction's committee and trace on the profiles below,
# recorded while the two rounds were separate loops
GOLDEN_VI_TRACES_SHA256 = "157c71e0951710746e3244c32374cb1193bb0d30bb50b7bd8461a7545193dab1"


def test_vi_construction_traces_match_golden_digest():
    profiles = [
        generate(GenSpec(model="vi_euclid", n=n, m=10, seed=seed), k=k)
        for n in (8, 20, 40)
        for seed in range(4)
        for k in (2, 3, 5)
    ]
    rng = random.Random(23)
    profiles += [random_vi_election(rng) for _ in range(40)]
    digest = hashlib.sha256()
    reused = 0
    for e in profiles:
        result = construct(e, "VI", recognize(e, "VI"))
        t = result.trace
        certs = [
            (c.voter, c.f, sorted(c.witness_set), c.witness_supporters.mask)
            for c in t.certificates
        ]
        record = (sorted(result.committee.members), t.round1, t.round2, t.padding, certs)
        digest.update(repr(record).encode() + b"\n")
        round1 = {c for step in t.round1 for c in step.added}
        reused += any(set(step.added) & round1 for step in t.round2)
    assert reused > 0  # some round-2 step had to reuse round-1 picks
    assert digest.hexdigest() == GOLDEN_VI_TRACES_SHA256


# SHA-256 of every ``construct`` outcome on the profiles below: the committee,
# guarantee and trace, or the error type and message (a wrong-type witness is
# recorded by its error type alone); recorded while each domain had its own
# construction function
GOLDEN_CONSTRUCT_SHA256 = "3eee1e95e78cfb34461df61b7b2493b1e5fcfb1052e3d2f70ef9b4fe2a23ba3a"

CONSTRUCTED = ("VI", "CEI", "VEI", "T_PART", "WSC")


def _construct_outcome(e, domain, witness, wrong_type=False):
    try:
        result = construct(e, domain, witness)
    except (InvalidWitnessError, domains.ConstructionInfeasibleError, ValueError) as exc:
        return type(exc).__name__, "wrong type" if wrong_type else str(exc)
    committee = (sorted(result.committee.members), result.committee.target_size)
    return repr((committee, result.guarantee, result.trace))


def _perturbed_any(rng, witness):
    """Two entries of the witness's per-voter or per-candidate vector swapped
    (the block of each voter for t-PART, the parents for a tree), or the
    perturbation of ``_perturbed``."""
    if isinstance(witness, domains.TPartWitness):
        blocks = list(witness.voter_block)
        i, j = rng.randrange(len(blocks)), rng.randrange(len(blocks))
        blocks[i], blocks[j] = blocks[j], blocks[i]
        return domains.TPartWitness(witness.blocks, tuple(blocks))
    return _perturbed(rng, witness)


HARD_INSTANCE_FIXTURES = (
    "two_camps_with_bridge",
    "uneven_cohorts",
    "ssjr_ejr_clash",
    "disjoint_blocks_instance",
    "opposed_ends_instance",
    "coverage_bait_instance",
    "load_bait_instance",
    "hamming_bait_instance",
    "uncoverable_line_instance",
    "ssjr_not_pr_instance",
    "pr_without_ir_instance",
)


def _construct_profiles():
    rng = random.Random(89)
    profiles = [
        generate(GenSpec(model=model, n=n, m=m, seed=seed), k=k)
        for model in MODELS
        for n, m in ((10, 6), (30, 10))
        for seed in (1, 2, 3)
        for k in (1, 3)
    ]
    fixtures = [getattr(hard_instances, name)() for name in HARD_INSTANCE_FIXTURES]
    for e in fixtures:
        profiles += [Election.from_approvals(e.approvals, m=e.m, k=k) for k in range(1, e.m + 1)]
    for _ in range(150):
        profiles += [
            random_vi_election(rng, n_max=16, m_max=8),
            random_cei_election(rng, n_max=12, m_max=8),
            random_vei_election(rng, n_max=12, m_max=8),
            random_tpart_election(rng, n_max=12, m_max=8),
            random_wsc_election(rng, n_max=12, wide_ballots=rng.random() < 0.5),
            random_election(rng, n_max=8, m_max=6, density=rng.choice([0.3, 0.6])),
        ]
    trees = [random_atr_election(rng, n_max=12, m_max=8) for _ in range(150)]
    return rng, profiles, trees


def _construct_digest():
    rng, profiles, trees = _construct_profiles()
    digest = hashlib.sha256()
    seen: dict[str, int] = {}

    def record(e, domain, witness, wrong_type=False):
        outcome = _construct_outcome(e, domain, witness, wrong_type)
        kind = "built" if isinstance(outcome, str) else outcome[0]
        seen[kind] = seen.get(kind, 0) + 1
        digest.update(f"{domain} {outcome!r}\n".encode())

    for e in profiles:
        record(e, "CI", recognize(e, "CI"))
        for domain in CONSTRUCTED:
            witness = recognize(e, domain)
            if witness is None:
                continue
            record(e, domain, witness)
            for _ in range(2):
                record(e, domain, _perturbed_any(rng, witness))
            other = CONSTRUCTED[(CONSTRUCTED.index(domain) + 1) % len(CONSTRUCTED)]
            record(e, other, witness, True)  # the next domain's witness type differs
        for parent in ((-1,) * e.m, tuple(range(-1, e.m - 1))):
            record(e, "ALPHA_TR", TreeWitness(parent))
    for e, tree in trees:
        record(e, "ALPHA_TR", tree)
        for _ in range(2):
            record(e, "ALPHA_TR", _perturbed_any(rng, tree))
        record(e, "ALPHA_TR", TreeWitness(tree.parent[:-1]))
        record(e, "ALPHA_TR", TreeWitness(tree.parent[:-1] + (e.m,)))
        record(e, "T_PART", tree, True)
    return digest.hexdigest(), seen


def test_construct_outcomes_match_golden_digest():
    digest, seen = _construct_digest()
    assert seen["built"] > 3000 and seen["InvalidWitnessError"] > 1000, seen
    assert seen["ConstructionInfeasibleError"] > 10 and seen["ValueError"] > 500, seen
    assert digest == GOLDEN_CONSTRUCT_SHA256, (digest, seen)
