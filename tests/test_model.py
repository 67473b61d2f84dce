import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from irlab import axioms, domains
from irlab.cohesion import entitlements, f_vector
from irlab.experiment import DEFAULT_RULES
from irlab.gen import GenSpec, generate
from irlab.model import (
    MAX_CANDIDATES,
    MAX_CELLS,
    Committee,
    Election,
    ProfileFormatError,
    VoterGroup,
    is_run,
    mask_to_set,
    members_mask,
    parse_profile,
    position_masks,
    serialize_profile,
    supporters,
)
from irlab.rules import RuleId, run_rule
from irlab.solver import OBJECTIVES, SolveRequest, find_committee
import hard_instances
from hard_instances import two_camps_with_bridge
from instance_gen import scale_cases
from oracles import election_masks, parse_profile as parse_profile_by_tokens, position_mask
from test_cli import _mutate

EX1_TEXT = """8 3 2
1
1 3
1 3
1 3
2 3
2 3
2 3
2
"""


def test_parse_bridge_profile_header_and_ballots():
    e = parse_profile(EX1_TEXT)
    assert (e.n, e.m, e.k) == (8, 3, 2)
    assert e == two_camps_with_bridge()


def test_parse_minimal_single_voter():
    e = parse_profile("1 1 1\n1\n")
    assert e.n == 1 and e.approvals[0] == frozenset({0})


def test_parse_range_error_names_line():
    with pytest.raises(ProfileFormatError) as err:
        parse_profile("2 3 2\n4\n1\n")
    assert err.value.line == 2


def test_parse_duplicate_index_rejected():
    with pytest.raises(ProfileFormatError) as err:
        parse_profile("1 3 2\n2 2\n")
    assert "duplicate" in str(err.value)


def test_parse_k_out_of_range():
    with pytest.raises(ProfileFormatError):
        parse_profile("1 3 4\n1\n")
    with pytest.raises(ProfileFormatError):
        parse_profile("1 3 0\n1\n")


def test_parse_comments_blank_ballots_crlf():
    text = "# profile\r\n3 2 1\r\n1 2\r\n\r\n# note\r\n2\r\n"
    e = parse_profile(text)
    assert e.approvals == (frozenset({0, 1}), frozenset(), frozenset({1}))


def test_parse_missing_and_extra_lines():
    with pytest.raises(ProfileFormatError):
        parse_profile("2 2 1\n1\n")
    with pytest.raises(ProfileFormatError):
        parse_profile("1 2 1\n1\n2\n")


def test_serialize_canonical_and_empty_line():
    e = Election.from_approvals([{2, 0}, set()], m=3, k=1)
    assert serialize_profile(e) == "2 3 1\n1 3\n\n"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_random_elections(data):
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, m))
    # ballots come from a pool of at most three, so most profiles repeat a
    # ballot and the parser's line memo and Election's ballot rows both work
    pool = data.draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=1, max_size=3))
    approvals = [data.draw(st.sampled_from(pool)) for _ in range(n)]
    e = Election.from_approvals(approvals, m=m, k=k)
    got = parse_profile(serialize_profile(e))
    assert got == e
    assert (got.candidate_voters, got.ballot_masks) == election_masks(n, m, approvals)


def test_supporters_examples():
    e = two_camps_with_bridge()
    assert set(supporters(e, {2})) == {1, 2, 3, 4, 5, 6}  # c3 spans voters 2..7
    assert set(supporters(e, [])) == set(range(8))
    assert set(supporters(e, {0, 1})) == set()


def test_supporters_antitone_random():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 6)
        e = Election.from_approvals(
            [{c for c in range(m) if rng.random() < 0.5} for _ in range(6)], m=m, k=1
        )
        small = {c for c in range(m) if rng.random() < 0.5}
        big = small | {c for c in range(m) if rng.random() < 0.5}
        assert set(supporters(e, big)) <= set(supporters(e, small))


def test_supporters_index_error():
    with pytest.raises(ValueError):
        supporters(two_camps_with_bridge(), {3})


def test_committee_size_guard():
    e = two_camps_with_bridge()
    with pytest.raises(ValueError):
        Committee.of({0, 1, 2}, e)
    with pytest.raises(ValueError):
        Committee.of({5}, e)


def test_election_validation():
    with pytest.raises(ValueError):
        Election.from_approvals([{0}], m=0, k=1)
    with pytest.raises(ValueError, match="^voter count must be positive, got 0$"):
        Election(n=0, m=3, k=1, ballot_masks=())
    with pytest.raises(ValueError, match="^candidate count must be positive, got 0$"):
        Election(n=1, m=0, k=1, ballot_masks=(0,))
    with pytest.raises(ValueError):
        Election.from_approvals([{5}], m=3, k=1)
    with pytest.raises(ValueError):
        Election.from_approvals([set()], m=3, k=4)
    # masks given directly: a bit at or past m names its highest index
    with pytest.raises(ValueError, match="^voter 1: candidate index 4 out of range$"):
        Election(n=3, m=3, k=1, ballot_masks=(0b101, 0b11001, 0b1000))
    with pytest.raises(ValueError, match="^voter 0: ballot mask -1 is negative$"):
        Election(n=1, m=3, k=1, ballot_masks=(-1,))
    with pytest.raises(ValueError, match="^expected 2 approval sets, got 1$"):
        Election(n=2, m=3, k=1, ballot_masks=(1,))


def test_election_masks_match_bitwise_definition():
    # bit i of candidate_voters[c] and bit c of ballot_masks[i] are set
    # exactly when voter i approves c; the first bad index is the one named
    rng = random.Random(21)
    for _ in range(200):
        n, m = rng.randint(1, 70), rng.randint(1, 70)
        approvals = [{c for c in range(m) if rng.random() < 0.3} for _ in range(n)]
        e = Election.from_approvals(approvals, m=m, k=1)
        assert e.candidate_voters == tuple(
            sum(1 << i for i in range(n) if c in approvals[i]) for c in range(m)
        )
        assert e.ballot_masks == tuple(sum(1 << c for c in a) for a in approvals)
    with pytest.raises(ValueError, match="^voter 1: candidate index 3 out of range$"):
        Election.from_approvals([{0}, {3}, {-1}], m=3, k=1)
    with pytest.raises(ValueError, match="^voter 0: candidate index -1 out of range$"):
        Election.from_approvals([{-1}, {7}], m=3, k=1)


def test_election_masks_match_voter_by_voter_oracle():
    # one digit row per distinct ballot gives the masks one digit per
    # approval gives, on shared, empty, distinct and generated ballots
    rng = random.Random(19)
    cases = [
        ([{0, 2}] * 9, 3), ([set()] * 7, 4), ([{0}], 1), ([set()], 1), ([{0}] * 5, 1),
        ([set(range(6))] * 4 + [set()] * 3, 6), ([{c} for c in range(8)], 8),
    ]
    for _ in range(100):
        n, m = rng.randint(1, 60), rng.randint(1, 40)
        pool = [{c for c in range(m) if rng.random() < 0.3} for _ in range(rng.randint(1, 4))]
        cases.append(([rng.choice(pool) for _ in range(n)], m))  # urn-like
        ballots = [frozenset(rng.sample(range(m), rng.randint(0, m))) for _ in range(n)]
        cases.append((ballots, m))
        cases.append((list(set(ballots)), m))  # all distinct
    for approvals, m in cases:
        for k in {1, m}:
            e = Election.from_approvals(approvals, m=m, k=k)
            assert (e.candidate_voters, e.ballot_masks) == election_masks(e.n, m, approvals)
    for _, e, _ in scale_cases():
        assert (e.candidate_voters, e.ballot_masks) == election_masks(e.n, e.m, e.approvals)
    # a bad ballot shared by several voters is named by its first voter,
    # with the message the voter-by-voter builder gives
    for approvals, voter in (
        ([{0}, {5}, {5}], 1), ([{5}, {0}, {5}], 0), ([{0}, {0}, {1}, {5}, {5}], 3),
        ([{2, 9}, {0}] * 3, 0),
    ):
        message = f"^voter {voter}: candidate index {max(approvals[voter])} out of range$"
        with pytest.raises(ValueError, match=message):
            election_masks(len(approvals), 3, approvals)
        with pytest.raises(ValueError, match=message):
            Election.from_approvals(approvals, m=3, k=1)


def test_voter_group_derived_from_mask():
    rng = random.Random(8)
    for mask in [0, 1, 0b1011, 1 << 70 | 5] + [rng.getrandbits(40) for _ in range(50)]:
        group = VoterGroup.from_mask(mask)
        assert group.mask == mask
        assert group.members == mask_to_set(mask)
        assert list(group) == sorted(mask_to_set(mask))
        assert len(group) == len(mask_to_set(mask))
        assert group == VoterGroup.from_mask(mask)
        assert hash(group) == hash(VoterGroup.from_mask(mask))


def test_position_mask_and_run_shapes_match_position_lists():
    # a whole random family (the empty one too) in one batch, on both sides
    # of the transpose's 8-column switch, against the per-mask oracle and
    # the position lists
    rng = random.Random(9)
    families = Counter()
    for _ in range(300):
        size = rng.randint(1, 12)
        order = rng.sample(range(size), size)
        masks = [rng.getrandbits(size) for _ in range(rng.choice([0, 1, 3, 9, 20]))]
        families["empty" if not masks else "wide" if len(masks) > 8 else "narrow"] += 1
        pms = position_masks(masks, order)
        assert pms == [position_mask(mask, order) for mask in masks]
        for mask, pm in zip(masks, pms):
            positions = sorted(p for p, item in enumerate(order) if mask >> item & 1)
            assert pm == sum(1 << p for p in positions)
            block = positions == list(range(positions[0], positions[-1] + 1)) if positions else True
            assert is_run(pm) == block
            assert is_run(pm, "prefix", size) == (block and (not positions or positions[0] == 0))
            assert is_run(pm, "suffix", size) == (block and (not positions or positions[-1] == size - 1))
    assert min(families.values()) >= 40, families


def _parsed(parse, text):
    """The election a parser returns with its two mask tuples, or its
    error's type, message and line."""
    try:
        e = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return e, e.candidate_voters, e.ballot_masks


def _noisy_text(rng, election):
    """``election`` as .avp text with comments, blank lines before the header,
    CRLF, trailing whitespace, tabs and tokens such as ``01``, ``+2`` or
    ``002``; a few ballots get a repeated, unknown or out-of-range token."""
    lines = [f"{election.n} {election.m} {election.k}"]
    for ballot in election.approvals:
        tokens = [
            rng.choice(["{}", "{}", "{}", "0{}", "+{}", "00{}"]).format(c + 1)
            for c in rng.sample(sorted(ballot), len(ballot))
        ]
        if tokens and rng.random() < 0.05:
            tokens.append(rng.choice([tokens[0], "0", str(election.m + 1), "x", "-1", "1.0"]))
        lines.append(rng.choice([" ", "  ", "\t"]).join(tokens) + rng.choice(["", "", " ", "\t "]))
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "  #x", "#", "\t# 1 2"]))
    head = "\n" * rng.randint(0, 2)
    return head + rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["\n", "\r\n", ""])


def test_parse_profile_matches_token_loop_oracle():
    # the whole-ballot reader returns the election the token-by-token reader
    # returns, or raises the same error with the same message and line
    rng = random.Random(23)
    fixtures = [
        fn() for fn in vars(hard_instances).values()
        if callable(fn) and getattr(fn, "__module__", None) == hard_instances.__name__
    ]
    texts = [serialize_profile(e) for e in fixtures]
    for _ in range(300):
        n, m = rng.randint(1, 12), rng.randint(1, 25)
        e = Election.from_approvals(
            [{c for c in range(m) if rng.random() < 0.4} for _ in range(n)], m=m, k=rng.randint(1, m)
        )
        texts.append(_noisy_text(rng, e))
    for base in list(texts[: len(fixtures)]) + texts[-30:]:
        texts += [_mutate(rng, base) for _ in range(10)]
    texts += [
        "", "\n\n", "# only\n", "2 3 2\n4\n1\n", "1 3 2\n2 2\n", "1 3 4\n1\n", "1 3 0\n1\n",
        "2 2 1\n1\n", "1 2 1\n1\n2\n", "1 2\n1\n", "a b c\n", "0 2 1\n", "1 -2 1\n",
        "1 500 1\n300\n", "1 500 1\n499 12 0300\n", "1 3 1\n1 #2\n", "1 3 1\n1\x1c2\n",
        # repeated ballot lines: split by comments and blank lines, one ballot
        # written several ways, a repeated invalid line (named at its first
        # occurrence) and a repeated valid line after the n-th ballot
        "7 3 1\n1 2\n# 1 2\n1 2\n\n1 2\n  # x\n\n3\n1 2\n",
        "6 3 2\n1 2\n2  1\n1 2 \t\r\n1 2\r\n\t1\t2\n2 1\n",
        "4 3 1\n1\n4 1\n1\n4 1\n", "4 3 1\n2\n1 1\n1 1\n2\n", "3 3 1\nx\nx\n1\n",
        "2 3 1\n1 3\n1 3\n1 3\n", "2 3 1\n1 3\n2\n1 3\n", "1 3 1\n\n\n",
        # a profile wider than parse_profile's bit table (m = 1500)
        "#" + "." * 1500 + "\n3 1500 2\n1 1500 1025\n1024 1025\n1500 1025 1\n",
    ]
    # repeated indices whose bit sum the bit-count test must refuse: a carry
    # onto the next bit (1 1), onto an existing bit (1 1 2), a repeat apart
    # (2 1 2), a repeat spelled two ways (1 01) and one at the table's end
    duplicates = ["1 3 1\n1 1\n", "1 3 1\n2 1 2\n", "1 3 1\n1 1 2\n", "1 3 1\n1 01\n",
                  "1 40 1\n40 40\n", "1 1500 1\n1200 9 1200\n"]
    for text in duplicates:
        with pytest.raises(ProfileFormatError, match="line 2: duplicate candidate index"):
            parse_profile(text)
    outcomes = {"election": 0, "error": 0}
    for text in texts + duplicates:
        got, want = _parsed(parse_profile, text), _parsed(parse_profile_by_tokens, text)
        assert got == want, repr(text)
        if isinstance(got[0], Election):
            e = got[0]
            assert "approvals" not in e.__dict__, repr(text)  # parsing builds no set
            assert e.approvals == want[0].approvals, repr(text)
            assert got[1:] == election_masks(e.n, e.m, e.approvals), repr(text)
            outcomes["election"] += 1
        else:
            outcomes["error"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_members_mask_with_a_width_sets_the_same_bits():
    # the bytearray path of wide masks against one OR per index: both ends of
    # a byte, the width's last index and repeated indices
    rng = random.Random(7)
    for width in (1, 7, 8, 9, 64, 1025, 4099):
        for _ in range(20):
            indices = [rng.randrange(width) for _ in range(rng.randint(0, 12))]
            indices += rng.sample([0, 7, 8, width - 1], 2)
            indices = [i for i in indices if i < width]
            assert members_mask(indices, width) == members_mask(indices), (width, indices)


def test_parse_profile_refuses_a_header_m_above_the_limit():
    # reading costs time and memory linear in m, so the header's m is bounded
    e = parse_profile(f"1 {MAX_CANDIDATES} 1\n1 {MAX_CANDIDATES}\n")
    assert (e.m, e.ballot_masks) == (MAX_CANDIDATES, (1 | 1 << (MAX_CANDIDATES - 1),))
    with pytest.raises(ProfileFormatError) as info:
        parse_profile(f"1 {MAX_CANDIDATES + 1} 1\n1\n")
    assert info.value.line == 1
    assert str(info.value) == (
        f"line 1: m={MAX_CANDIDATES + 1} exceeds the limit of {MAX_CANDIDATES} candidates"
    )


def test_parse_profile_refuses_a_header_n_m_above_the_cell_limit():
    # an Election transposes n*m cells, so the header's n*m is bounded; the
    # header at the bound is read on (the missing ballots are the error), the
    # one above it, or a 2 KB file of 1,000 voters over 2^17 candidates, is not
    assert MAX_CELLS >= MAX_CANDIDATES
    n = MAX_CELLS // MAX_CANDIDATES
    with pytest.raises(ProfileFormatError, match=f"^expected {n} voter lines, found only 1$"):
        parse_profile(f"{n} {MAX_CANDIDATES} 1\n1\n")
    for n, m in ((n + 1, MAX_CANDIDATES), (1000, 1 << 17)):
        with pytest.raises(ProfileFormatError) as info:
            parse_profile(f"{n} {m} 1\n" + "1\n" * n)
        assert info.value.line == 1
        assert str(info.value) == (
            f"line 1: n*m={n * m} exceeds the limit of {MAX_CELLS} voter-candidate cells"
        )


def test_request_paths_never_derive_approvals():
    # every check, recognizer and witness test, the entitlements, f-vector,
    # solver and default rules read a parsed profile's masks alone; only the
    # constructions (not run here) read its frozen sets
    profiles = [
        EX1_TEXT,
        serialize_profile(hard_instances.disjoint_blocks_instance()),
        "6 6 2\n1 2\n1 2\n3\n\n3\n4 5\n",  # t-PART with an empty ballot, 6 left over
        "5 5 4\n1 4 5\n1 4 5\n1 4 5\n2 3 5\n2 3 5\n",  # VEI and WSC
        serialize_profile(generate(GenSpec(model="vi_euclid", n=24, m=8, seed=5), k=4)),
        serialize_profile(generate(GenSpec(model="ic", n=20, m=7, seed=6), k=4)),
    ]
    violated, members = set(), set()
    for text in profiles:
        e = parse_profile(text)
        f = entitlements(e)
        assert [cert.f for cert in f_vector(e)] == f
        for objective in OBJECTIVES:
            find_committee(SolveRequest(e, tuple(f), objective))
        for rule in DEFAULT_RULES:
            run_rule(e, RuleId(rule))
        committee = Committee.of(range(e.k), e)
        for axiom in (axioms.IR, axioms.SSJR, axioms.alpha_beta_ir(1, 1), axioms.JR, axioms.PJR,
                      axioms.EJR, axioms.FJR, axioms.CORE, axioms.PERFECT_REP):
            if axiom == axioms.PERFECT_REP and e.n % e.k:
                continue  # perfect representation needs k to divide n
            verdict = axioms.check(e, committee, axiom)
            if verdict.status == "violated":
                assert axioms.verify_violation(e, committee, axiom, verdict.witness)
                violated.add(axiom.kind)
        for domain in ("CI", "VI", "CEI", "VEI", "T_PART", "WSC"):
            witness = domains.recognize(e, domain)
            if witness is not None:
                assert domains.verify_witness(e, domain, witness)
                members.add(domain)
        assert "approvals" not in e.__dict__, text
    assert violated == set(axioms.GROUP_AXIOMS + axioms.INDIVIDUAL_AXIOMS)
    assert members == {"CI", "VI", "CEI", "VEI", "T_PART", "WSC"}, members
