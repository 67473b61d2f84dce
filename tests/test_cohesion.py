import random

import pytest
from hypothesis import given, settings, strategies as st

from irlab.cohesion import _closed_sets, certificate, entitlements, f_vector, vi_certificates
from irlab.model import Election, is_run, position_mask
from irlab.search import BudgetExceededError, NodeBudget
from irlab.domains import recognize
from irlab.gen import GenSpec, generate

from instance_gen import dfs_oracle_profiles, random_election, random_vi_election, scale_cases
from oracles import brute_f, closed_set_walk, f_certificate_exact, vi_certificates_by_scan
from hard_instances import two_camps_with_bridge, uneven_cohorts, opposed_ends_instance

IDENTITY8 = tuple(range(8))


def test_bridge_profile_all_ones():
    e = two_camps_with_bridge()
    assert [c.f for c in f_vector(e)] == [1] * e.n


def test_uneven_cohorts_values():
    e = uneven_cohorts()
    assert [c.f for c in f_vector(e)] == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]


def test_opposed_ends_entitlements():
    e = opposed_ends_instance(k=4, n=8)
    certs = f_vector(e)
    assert certs[0].f == 3
    assert certs[7].f == 3


def test_empty_ballot_zero():
    e = Election.from_approvals([set(), {0}], m=2, k=1)
    cert = f_vector(e)[0]
    assert cert.f == 0 and cert.witness_set == frozenset()


def test_certificates_verify_and_match_oracle():
    rng = random.Random(42)
    for _ in range(120):
        e = random_election(rng, n_max=10, m_max=8)
        for i, cert in enumerate(f_vector(e)):
            assert cert.verify(e)
            assert cert.f == brute_f(e, i)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_oracle_property(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, m))
    approvals = [data.draw(st.sets(st.integers(0, m - 1))) for _ in range(n)]
    e = Election.from_approvals(approvals, m=m, k=k)
    voter = data.draw(st.integers(0, n - 1))
    cert = f_vector(e)[voter]
    assert cert.verify(e)
    assert cert.f == brute_f(e, voter)


def test_witness_is_lexicographically_smallest():
    # two tied witnesses {c1} and {c2}; expect {c1}
    e = Election.from_approvals([{0, 1}, {0, 1}], m=2, k=1)
    cert = f_vector(e)[0]
    assert cert.witness_set == frozenset({0})


def test_vi_matches_exact_on_bridge_profile():
    e = two_camps_with_bridge()
    cert = vi_certificates(e, IDENTITY8)[3]
    assert cert.f == 1
    assert cert.verify(e)


def test_vi_single_voter_whole_ballot():
    e = Election.from_approvals([{0, 1, 2}], m=3, k=3)
    cert = vi_certificates(e, (0,))[0]
    assert cert.f == 3


def test_vi_equals_exact_random():
    rng = random.Random(7)
    for _ in range(60):
        e = random_vi_election(rng, n_max=14, m_max=8)
        witness = recognize(e, "VI")
        assert witness is not None
        exact = f_vector(e)
        vi = vi_certificates(e, witness.voter_order)
        for i in range(e.n):
            assert vi[i].f == exact[i].f


def test_vi_rejects_non_witness_order():
    e = two_camps_with_bridge()
    with pytest.raises(ValueError):
        vi_certificates(e, (1, 0, 2, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError):
        vi_certificates(e, (0, 0, 2, 3, 4, 5, 6, 7))


def test_witness_supporters_form_interval_on_vi():
    rng = random.Random(13)
    for _ in range(40):
        e = random_vi_election(rng, n_max=12, m_max=7)
        witness = recognize(e, "VI")
        certs = vi_certificates(e, witness.voter_order)
        pos = {voter: p for p, voter in enumerate(witness.voter_order)}
        for cert in certs:
            pm = position_mask(cert.witness_supporters.mask, witness.voter_order)
            assert is_run(pm)
            left, right = (pm & -pm).bit_length() - 1, pm.bit_length() - 1
            assert left <= pos[cert.voter] <= right


def test_vi_sweep_matches_interval_scan_oracle():
    # the left-end sweep keeps the per-voter scan's value, witness and
    # supporters on random VI profiles (n = 1, k = m, empty ballots,
    # unapproved candidates) and on one profile of the cli_scale vi200 shape
    rng = random.Random(808)
    cases = []
    for t in range(320):
        e = random_vi_election(rng, n_max=1 if t % 10 == 0 else 30, m_max=12)
        if t % 4 == 1:
            e = Election(n=e.n, m=e.m, k=e.m, approvals=e.approvals)
        cases.append(e)
    cases.append(generate(GenSpec(model="vi_euclid", n=200, m=20, seed=0), k=8))
    seen = {"n=1": 0, "k=m": 0, "empty ballot": 0, "unapproved candidate": 0}
    for e in cases:
        seen["n=1"] += e.n == 1
        seen["k=m"] += e.k == e.m
        seen["empty ballot"] += not all(e.approvals)
        seen["unapproved candidate"] += not all(e.candidate_voters)
        order = recognize(e, "VI").voter_order
        got = vi_certificates(e, order)
        ref = vi_certificates_by_scan(e, order)
        assert [(c.voter, c.f, c.witness_set, c.witness_supporters.mask) for c in got] == [
            (c.voter, c.f, c.witness_set, c.witness_supporters.mask) for c in ref
        ]
    assert min(seen.values()) >= 10, seen


def test_f_equals_k_iff_common_committee():
    rng = random.Random(99)
    for _ in range(150):
        e = random_election(rng, n_max=8, m_max=6)
        full = [
            c
            for c in range(e.m)
            if e.candidate_voters[c] == e.all_voters_mask()
        ]
        has_k_common = len(full) >= e.k
        fmax = max(c.f for c in f_vector(e))
        assert (fmax == e.k) == has_k_common


def test_f_vector_deterministic_and_ordered():
    rng = random.Random(3)
    e = random_election(rng, n_max=10, m_max=8)
    v1 = f_vector(e)
    v2 = f_vector(e)
    assert [(c.voter, c.f, c.witness_set) for c in v1] == [
        (c.voter, c.f, c.witness_set) for c in v2
    ]
    assert [c.voter for c in v1] == list(range(e.n))


def test_node_cap_raises_not_wrong():
    # twelve identical full ballots form a single closed set: one node
    e = Election.from_approvals([set(range(12)) for _ in range(12)], m=12, k=12)
    assert [c.f for c in f_vector(e, node_cap=3)] == [12] * 12
    # four disjoint camps: clo(∅) = ∅ plus one closed set per camp
    e = Election.from_approvals([{c} for c in range(4) for _ in range(3)], m=4, k=4)
    assert [c.f for c in f_vector(e, node_cap=5)] == [1] * 12
    with pytest.raises(BudgetExceededError) as info:
        f_vector(e, node_cap=3)
    assert info.value.nodes == 4 and info.value.cap == 3
    assert info.value.stage == "cohesion.f_vector"
    assert "node cap 3" in str(info.value)


def test_all_empty_profile_zero_vector():
    e = Election.from_approvals([set(), set(), set()], m=4, k=2)
    assert [c.f for c in f_vector(e)] == [0, 0, 0]


def _many_closed_sets_profiles():
    # each voter misses a candidate of its own, so every nonempty voter group
    # supports a closed set: 8191 of them, enough to cut the ranking list back
    rng = random.Random(11)
    return [
        Election.from_approvals(
            [set(range(13)) - {i} - set(rng.sample(range(13), extra)) for i in range(13)],
            m=13,
            k=13,
        )
        for extra in (0, 1, 2)
    ]


def test_f_vector_matches_dfs_oracle():
    for e in dfs_oracle_profiles():
        for i, cert in enumerate(f_vector(e)):
            ref = f_certificate_exact(e, i)
            assert (cert.voter, cert.f, cert.witness_set, cert.witness_supporters) == (
                i,
                ref.f,
                ref.witness_set,
                ref.witness_supporters,
            )
            assert cert.f == brute_f(e, i)


def test_f_vector_many_closed_sets_matches_dfs_oracle():
    for e in _many_closed_sets_profiles():
        for i, cert in enumerate(f_vector(e)):
            ref = f_certificate_exact(e, i)
            assert (cert.f, cert.witness_set, cert.witness_supporters) == (
                ref.f,
                ref.witness_set,
                ref.witness_supporters,
            )


def test_f_vector_decides_large_euclid_2d():
    # the per-ballot search exhausts a 10**6-node cap on this profile
    e = generate(GenSpec(model="euclid_2d", n=1000, m=60, seed=2), k=20)
    certs = f_vector(e, node_cap=10**6)
    assert [c.voter for c in certs] == list(range(e.n))
    assert all(c.verify(e) for c in certs)


def _assert_visits(e, walk, nodes, stage):
    """``walk(e, node_cap=nodes)`` succeeds, one node less raises at ``stage``."""
    result = walk(e, node_cap=nodes)
    if nodes > 1:
        with pytest.raises(BudgetExceededError) as info:
            walk(e, node_cap=nodes - 1)
        assert (info.value.nodes, info.value.stage) == (nodes, stage)
    return result


def test_entitlements_match_f_vector_and_visit_the_cut_walk():
    # the values are f_vector's; the walk visits exactly the closed sets
    # below no saturated one (counted by definition, independent of the
    # walk), never more than f_vector's, and past the cap it raises
    rng = random.Random(1717)
    wide = []
    for _ in range(60):
        n, m = rng.randint(65, 130), rng.randint(1, 8)
        k = rng.choice([1, m, rng.randint(1, m)])
        base = [{c for c in range(m) if rng.random() < 0.5} for _ in range(rng.randint(1, 6))]
        ballots = [set() if rng.random() < 0.1 else set(rng.choice(base)) for _ in range(n)]
        wide.append(Election.from_approvals(ballots, m=m, k=k))
    cases = [*dfs_oracle_profiles(), *_many_closed_sets_profiles(), *wide]
    seen = {"k=1": 0, "k=m": 0, "empty ballot": 0, "n>64": 0, "cut": 0, "f>1": 0}
    for e in cases:
        full, cut = (len(closed_set_walk(e, stop)) for stop in (False, True))
        certs = _assert_visits(e, f_vector, full, "cohesion.f_vector")
        assert _assert_visits(e, entitlements, cut, "cohesion.entitlements") == [c.f for c in certs]
        assert cut <= full
        seen["k=1"] += e.k == 1
        seen["k=m"] += e.k == e.m
        seen["empty ballot"] += not all(e.approvals)
        seen["n>64"] += e.n > 64
        seen["cut"] += cut < full
        seen["f>1"] += max(c.f for c in certs) > 1
    assert min(seen.values()) >= 20, seen


def test_entitlements_match_f_vector_at_scale():
    # the twelve 200- to 1,000-voter profiles: the same values, and the cut
    # walk visits no more closed sets than f_vector's walk does
    for _, e, _ in scale_cases():
        full = sum(1 for _ in _closed_sets(e, NodeBudget(10**9, stage="test")))
        cut = sum(1 for _ in _closed_sets(e, NodeBudget(10**9, stage="test"), stop_saturated=True))
        assert cut <= full
        f = _assert_visits(e, entitlements, cut, "cohesion.entitlements")
        assert f == [c.f for c in f_vector(e, node_cap=full)], (e.n, e.m, e.k)


def test_certificate_matches_f_vector_and_the_dfs_oracle():
    # one voter's certificate is her f_vector certificate and the per-ballot
    # DFS oracle's (value, lex-min witness and its supporters); its walk
    # visits exactly the closed sets inside her ballot (counted by definition)
    # and past the cap it raises.  On the twelve 200- to 1,000-voter
    # profiles: the first voter the random committee leaves short of her
    # entitlement, and four more at random
    seen = {"f=0": 0, "f=1": 0, "f>1": 0, "cut": 0}
    for e in dfs_oracle_profiles():
        walk = closed_set_walk(e, False)
        for i, cert in enumerate(f_vector(e)):
            inside = sum(1 for closed in walk if not closed & ~e.ballot_masks[i])
            got = _assert_visits(
                e, lambda e, node_cap: certificate(e, i, node_cap), inside, "cohesion.certificate"
            )
            ref = f_certificate_exact(e, i)
            assert got == cert, (e.approvals, e.k, i)
            assert (got.f, got.witness_set, got.witness_supporters) == (
                ref.f, ref.witness_set, ref.witness_supporters
            )
            seen["f=0" if not cert.f else "f=1" if cert.f == 1 else "f>1"] += 1
            seen["cut"] += inside < len(walk)
    assert min(seen.values()) >= 100, seen
    shorts = 0
    for rng, e, members in scale_cases():
        certs = f_vector(e)
        wmask = sum(1 << c for c in members)
        short = [i for i, b in enumerate(e.ballot_masks) if (b & wmask).bit_count() < certs[i].f]
        shorts += bool(short)
        for i in short[:1] + rng.sample(range(e.n), 4):
            got = certificate(e, i)
            ref = f_certificate_exact(e, i)
            assert got == certs[i], (e.n, e.m, e.k, i)
            assert (got.f, got.witness_set, got.witness_supporters) == (
                ref.f, ref.witness_set, ref.witness_supporters
            )
    assert shorts == 12, shorts
