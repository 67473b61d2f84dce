import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from irlab import rules
from irlab.cohesion import entitlements, f_vector
from irlab.gen import MODELS, GenSpec, generate
from irlab.model import Election, members_mask
from irlab.experiment import DEFAULT_MODELS, DEFAULT_RULES, DESK_SCALE_GEN_PARAMS, instance_seed
from irlab.rules import RuleId, probe, run_rule
from irlab.search import DEFAULT_NODE_CAP, memberships, unrank
from irlab.solver import SolveRequest, demands, find_committee, find_ir_and_ssjr

from instance_gen import random_election
from oracles import _rule_x as oracle_rule_x
from oracles import _seq_phragmen as oracle_seq_phragmen
from oracles import _minimax_score as oracle_minimax_score
from oracles import _monroe_score as oracle_monroe_score
from oracles import _optimize as oracle_optimize
from oracles import _thiele_optimize as oracle_thiele_optimize
from oracles import _thiele_search as oracle_thiele_search
from oracles import brute_optimum, cc_score, greedy_monroe, rev_seq_thiele, seq_thiele, thiele_score
from oracles import max_phragmen_load_vector_by_merge_test
from oracles import probe_rule as oracle_probe_rule
from hard_instances import (
    hamming_bait_instance,
    load_bait_instance,
    coverage_bait_instance,
    two_camps_with_bridge,
)


def members(outcome, idx=0):
    return sorted(outcome.committees[idx].members)


def all_members(outcome):
    return [sorted(c.members) for c in outcome.committees]


def test_bridge_profile_av_contains_c3():
    out = run_rule(two_camps_with_bridge(), RuleId("av"))
    assert 2 in out.committee.members


def test_bridge_profile_pav_all_winners_contain_c3():
    out = run_rule(two_camps_with_bridge(), RuleId("pav"), mode="all_tied")
    assert all_members(out) == [[0, 2], [1, 2]]


def test_bridge_profile_sequential_rules_contain_c3():
    e = two_camps_with_bridge()
    for kind in ("sav", "seq_pav", "rev_seq_pav", "seq_phragmen", "rule_x", "seq_cc"):
        out = run_rule(e, RuleId(kind))
        assert 2 in out.committee.members, kind


def test_coverage_bait_cc_monroe_geometric():
    e = coverage_bait_instance()
    for rule in (RuleId("cc"), RuleId("monroe"), RuleId("geom_pav", weight=Fraction(1, 16))):
        out = run_rule(e, rule, mode="all_tied")
        assert all_members(out) == [[0, 1, 2, 3]], rule


def test_load_bait_max_phragmen_loads():
    e = load_bait_instance()
    out = run_rule(e, RuleId("max_phragmen"))
    assert members(out) == [0, 3, 4]
    loads = out.diagnostics["load_vectors"][(0, 3, 4)]
    assert loads == (
        Fraction(3, 5),
        Fraction(0),
        Fraction(3, 5),
        Fraction(3, 5),
        Fraction(3, 5),
        Fraction(3, 5),
    )


def test_load_bait_max_phragmen_avoids_ir_committees():
    e = load_bait_instance()
    out = run_rule(e, RuleId("max_phragmen"), mode="all_tied")
    assert [0, 1, 4] not in all_members(out)
    assert [0, 1, 5] not in all_members(out)


def test_minimax_av_ignores_majority():
    out = run_rule(hamming_bait_instance(), RuleId("minimax_av"), mode="all_tied")
    for committee in out.committees:
        assert not committee.members & {0, 1}
    assert out.diagnostics["max_hamming"] == 4


def test_unanimous_profile_every_rule():
    e = Election.from_approvals([{0, 1, 2}] * 5, m=5, k=3)
    for kind in rules.SEQUENTIAL_RULES + rules.EXACT_RULES:
        rule = RuleId(kind, weight=Fraction(1, 2) if kind == "geom_pav" else None)
        out = run_rule(e, rule)
        assert members(out) == [0, 1, 2], kind


def test_all_tied_rejected_for_sequential():
    with pytest.raises(ValueError):
        run_rule(two_camps_with_bridge(), RuleId("seq_pav"), mode="all_tied")


def test_enumeration_guard():
    e = Election.from_approvals([{0}] * 2, m=40, k=20)
    with pytest.raises(RuntimeError):
        run_rule(e, RuleId("pav"))
    # C(34,10) = 131,128,140 committees, above the cap
    e = Election.from_approvals([{0, 1}, {2}], m=34, k=10)
    with pytest.raises(RuntimeError):
        run_rule(e, RuleId("pav"))


def test_enumeration_guard_counts_committees_of_size_k():
    # C(30,30) = 1 although C(30,15) is far above the cap
    e = Election.from_approvals([{0, 1}, {2}], m=30, k=30)
    for rule in ("pav", "cc", "minimax_av"):
        outcome = run_rule(e, RuleId(rule))
        assert [w.members for w in outcome.committees] == [frozenset(range(30))]


def _naive_pav_best(election):
    def score(combo):
        total = Fraction(0)
        for ballot in election.approvals:
            u = len(ballot & set(combo))
            total += sum(Fraction(1, t) for t in range(1, u + 1))
        return total

    return max(score(c) for c in combinations(range(election.m), election.k))


def _naive_cc_best(election):
    return max(
        sum(1 for ballot in election.approvals if ballot & set(combo))
        for combo in combinations(range(election.m), election.k)
    )


def _naive_monroe_best(election):
    # all committees x all balanced assignments, by brute backtracking
    n, k = election.n, election.k
    base, extra = divmod(n, k)

    def best_assignment(combo):
        best = -1
        for extras in (combinations(combo, extra) if extra else [()]):
            quota = {c: base + (1 if c in extras else 0) for c in combo}

            def place(v, score):
                nonlocal best
                if v == n:
                    best = max(best, score)
                    return
                for c in combo:
                    if quota[c] > 0:
                        quota[c] -= 1
                        place(v + 1, score + (1 if c in election.approvals[v] else 0))
                        quota[c] += 1

            place(0, 0)
        return best

    return max(best_assignment(c) for c in combinations(range(election.m), election.k))


def test_exact_rules_match_naive_rescoring():
    rng = random.Random(17)
    for _ in range(25):
        e = random_election(rng, n_max=8, m_max=7, k_max=3)
        out_pav = run_rule(e, RuleId("pav"))
        assert out_pav.diagnostics["score"] == _naive_pav_best(e)
        out_cc = run_rule(e, RuleId("cc"))
        assert out_cc.diagnostics["score"] == _naive_cc_best(e)


def test_monroe_matches_naive_assignment_search():
    rng = random.Random(19)
    for _ in range(8):
        e = random_election(rng, n_max=6, m_max=5, k_max=3)
        out = run_rule(e, RuleId("monroe"))
        assert out.diagnostics["score"] == _naive_monroe_best(e)


def test_rule_x_budgets_nonnegative_and_bounded():
    rng = random.Random(29)
    for _ in range(40):
        e = random_election(rng, n_max=10, m_max=8)
        out = run_rule(e, RuleId("rule_x"))
        balances = out.diagnostics["balances"]
        assert all(b >= 0 for b in balances)
        spent = Fraction(e.k) - sum(balances)  # budgets start at k/n each
        assert 0 <= spent <= e.k


def test_rule_x_completion_flagged():
    # nobody can afford any candidate: one voter approves, budget k/n < 1
    e = Election.from_approvals([{0}] + [set()] * 5, m=3, k=2)
    out = run_rule(e, RuleId("rule_x"))
    assert out.diagnostics["completion"] == "seq_phragmen"
    assert len(out.committee.members) == e.k


def test_seq_pav_marginal_gains_non_increasing_under_unanimity():
    e = Election.from_approvals([{0, 1, 2, 3}] * 4, m=4, k=3)
    out = run_rule(e, RuleId("seq_pav"))
    gains = [g for _, g in out.diagnostics["picks"]]
    assert gains == sorted(gains, reverse=True)


def test_committee_sizes_exact():
    rng = random.Random(33)
    for _ in range(30):
        e = random_election(rng, n_max=8, m_max=7)
        for kind in ("av", "seq_phragmen", "rule_x", "greedy_monroe", "rev_seq_pav"):
            out = run_rule(e, RuleId(kind))
            assert len(out.committee.members) == e.k, kind


def _probe(e, rule, f):
    """The rule probe and the existence solves of one experiment instance,
    on the entitlements ``f``."""
    found_ir, found_ssjr = probe(e, rule, (f, demands(f, "FIND_SSJR")))
    ir_res, ssjr_res = find_ir_and_ssjr(e, f, DEFAULT_NODE_CAP)
    return {
        "rule_found_ir": found_ir,
        "rule_found_ssjr": found_ssjr,
        "ir_exists": ir_res.status == "found",
        "ssjr_exists": ssjr_res.status == "found",
        "undecided": "undecided" in (ir_res.status, ssjr_res.status),
    }


def test_probe_bridge_profile_seq_phragmen():
    e = two_camps_with_bridge()
    probe = _probe(e, RuleId("seq_phragmen"), entitlements(e))
    assert probe == {
        "rule_found_ir": False,
        "rule_found_ssjr": False,
        "ir_exists": True,
        "ssjr_exists": True,
        "undecided": False,
    }


def test_probe_trivial_when_entitlements_zero():
    e = Election.from_approvals([set()] * 4, m=4, k=2)
    probe = _probe(e, RuleId("av"), entitlements(e))
    assert probe["rule_found_ir"] and probe["ir_exists"]


def _oracle_elections(rng, count):
    """Random profiles drawn from a few ballot types, so ballots repeat; some
    ballots are empty, and k = 1 and k = m both occur."""
    out = []
    for j in range(count):
        m = rng.randint(1, 7)
        k = (1, m, rng.randint(1, m))[j % 3]
        types = [
            {c for c in range(m) if rng.random() < 0.45} for _ in range(rng.randint(1, 4))
        ] + [set()]
        approvals = [rng.choice(types) for _ in range(rng.randint(1, 10))]
        out.append(Election.from_approvals(approvals, m=m, k=k))
    return out


def test_thiele_rules_match_fraction_oracle():
    rng = random.Random(41)
    for e in _oracle_elections(rng, 60):
        harmonic = [Fraction(1, t) for t in range(1, e.m + 1)]
        cases = [(RuleId("pav"), lambda el, w: thiele_score(el, w, harmonic))]
        cases.append((RuleId("cc"), cc_score))
        for base in (Fraction(1, 16), Fraction(1, 2), Fraction(2, 3)):
            weights = [base**t for t in range(e.m)]
            cases.append(
                (RuleId("geom_pav", weight=base), lambda el, w, ws=weights: thiele_score(el, w, ws))
            )
        for rule, score in cases:
            for mode in ("single", "all_tied"):
                out = run_rule(e, rule, mode=mode)
                combos, best = brute_optimum(e, score, all_tied=mode == "all_tied")
                assert [tuple(sorted(c.members)) for c in out.committees] == combos, (rule, mode)
                assert out.diagnostics["score"] == best
                assert type(out.diagnostics["score"]) is type(best), rule


def _exact_rule_elections(rng, count, m_max):
    """Random profiles drawn from a few ballot types, so ballots repeat; one
    type is empty, every third profile has a candidate nobody approves, and
    k cycles through 1, m, m - 1 and a random size."""
    out = []
    for j in range(count):
        m = rng.randint(2, m_max)
        k = (1, m, m - 1, rng.randint(1, m))[j % 4]
        unapproved = rng.randrange(m) if j % 3 == 0 else None
        types = [
            {c for c in range(m) if c != unapproved and rng.random() < density}
            for density in [rng.random() for _ in range(rng.randint(1, 5))]
        ] + [set()]
        approvals = [rng.choice(types) for _ in range(rng.randint(1, 14))]
        out.append(Election.from_approvals(approvals, m=m, k=k))
    return out


def _replaced_engine(e, rule, all_tied):
    """Committees and diagnostics of an exact rule by the unbounded engines
    the lex search replaced, exactly as `run_rule` used to report them."""
    if rule.kind == "cc":
        best, top = oracle_thiele_optimize(e, [1], all_tied)
        return best, {"score": top}
    if rule.kind in ("pav", "geom_pav"):
        weights, scale = (
            rules._harmonic_weights(e.k)
            if rule.kind == "pav"
            else rules._geometric_weights(e.k, rule.weight)
        )
        best, top = oracle_thiele_optimize(e, weights, all_tied)
        return best, {"score": Fraction(top, scale)}
    if rule.kind == "monroe":
        best, top = oracle_optimize(e, lambda w: oracle_monroe_score(e, w), True, all_tied)
        return best, {"score": top}
    if rule.kind == "minimax_av":
        score = lambda w: oracle_minimax_score(e, members_mask(w))
        best, top = oracle_optimize(e, score, False, all_tied)
        return best, {"max_hamming": top}
    score = lambda w: max_phragmen_load_vector_by_merge_test(e, w)[:2]
    best, _ = oracle_optimize(e, score, False, all_tied)
    loads = {w: max_phragmen_load_vector_by_merge_test(e, w)[2] for w in best}
    return best, {"load_vectors": {w: tuple(l) for w, l in loads.items()}}


def test_lex_search_matches_replaced_engines():
    """Every exact rule on the one bounded lex search gives the committees,
    in order, and the diagnostics of the unbounded engines it replaced."""
    rng = random.Random(61)
    bases = (Fraction(1, 16), Fraction(1, 2), Fraction(2, 3))
    thiele = [RuleId("pav"), RuleId("cc")] + [RuleId("geom_pav", weight=b) for b in bases]
    whole = [RuleId("monroe"), RuleId("minimax_av"), RuleId("max_phragmen")]
    paths = Counter()
    for family, m_max in ((thiele, 10), (whole, 7)):
        profiles = _exact_rule_elections(rng, 320, m_max)
        for e in profiles:
            paths["k = 1"] += e.k == 1
            paths["k = m"] += e.k == e.m
            paths["k = m - 1"] += e.k == e.m - 1
            paths["empty ballot"] += 0 in e.ballot_masks
            paths["repeated ballot"] += len(set(e.ballot_masks)) < e.n
            paths["unapproved candidate"] += 0 in e.candidate_voters
            for rule in family:
                for mode in ("single", "all_tied"):
                    out = run_rule(e, rule, mode=mode)
                    best, diagnostics = _replaced_engine(e, rule, mode == "all_tied")
                    got = [tuple(sorted(c.members)) for c in out.committees]
                    assert got == best, (rule, mode, e)
                    assert repr(out.diagnostics) == repr(diagnostics), (rule, mode, e)
                    paths["tied winners"] += len(best) > 1
    assert min(paths.values()) >= 40, paths


def test_thiele_blocks_match_the_per_leaf_search(monkeypatch):
    """PAV, CC and geometric PAV scored in bit-sliced blocks give the
    committees, in order, and the diagnostics of the bounded search that
    scored one committee per leaf: with the whole space as one block, and
    with lex prefixes that end in small blocks or in single committees."""
    rng = random.Random(67)
    bases = (Fraction(1, 16), Fraction(1, 2), Fraction(2, 3))
    family = [RuleId("pav"), RuleId("cc")] + [RuleId("geom_pav", weight=b) for b in bases]
    paths = Counter()
    for j, e in enumerate(_exact_rule_elections(rng, 300, 10)):
        block_bits = (rules._BLOCK_BITS, 24, 1)[j % 3]
        monkeypatch.setattr(rules, "_BLOCK_BITS", block_bits)
        paths["one block"] += e.m * comb(e.m, e.k) <= block_bits
        paths["prefixes, then blocks"] += e.m * comb(e.m, e.k) > block_bits > 1
        paths["one committee per block"] += block_bits == 1 and e.k < e.m
        for rule in family:
            if rule.kind == "pav":
                weights, scale = rules._harmonic_weights(e.k)
            elif rule.kind == "cc":
                weights, scale = [1], 1
            else:
                weights, scale = rules._geometric_weights(e.k, rule.weight)
            for mode in ("single", "all_tied"):
                out = run_rule(e, rule, mode=mode)
                best, top = oracle_thiele_search(e, weights, mode == "all_tied")
                score = top if rule.kind == "cc" else Fraction(top, scale)
                got = [tuple(sorted(c.members)) for c in out.committees]
                assert got == best, (rule, mode, block_bits, e)
                assert repr(out.diagnostics) == repr({"score": score}), (rule, mode, e)
                paths["tied winners"] += len(best) > 1
    assert min(paths.values()) >= 40, paths


def test_memberships_follow_combinations_order():
    # bit j of masks[c] is set iff c is in the j-th subset of combinations order
    for p in range(11):
        for r in range(p + 1):
            subsets = list(combinations(range(p), r))
            masks = memberships(p, r)
            assert len(masks) == p
            for c in range(p):
                assert masks[c] == members_mask(j for j, s in enumerate(subsets) if c in s)
            for j, subset in enumerate(subsets):
                assert tuple(unrank(j, p, r)) == subset


def test_probe_matches_testing_every_winner(monkeypatch):
    """`rules.probe` answers as listing every winner with `run_rule` and
    testing each: for every rule the experiment can probe, on tie-heavy
    profiles with k = 1, m - 1 and m and empty ballots, and for the rules
    probed on lanes also on generated profiles with few ties; with
    whole-space blocks as well as small blocks below lex prefixes, where a
    later block may beat or tie the best key of the earlier ones.  The
    demands are the entitlement ones, random per-voter ones, the counts of a
    random committee (met by it, and by a winner only if one gives every
    voter as much), and a winner's own counts with and without one voter
    asking for one member more (met only if another winner gives it)."""
    rng = random.Random(71)
    family = [RuleId(r) for r in DEFAULT_RULES + ("sav", "cc", "monroe", "minimax_av")]
    family.append(RuleId("geom_pav", weight=Fraction(1, 2)))
    on_lanes = [rule for rule in family if rule.kind in ("av", "sav", "pav", "cc", "geom_pav")]
    cases = [(e, family) for e in _exact_rule_elections(rng, 300, 7)]
    for j in range(60):
        m = rng.randint(6, 10)
        spec = GenSpec(model=("ic", "urn", "vi_euclid")[j % 3], n=20, m=m, seed=j)
        cases.append((generate(spec, k=rng.randint(2, m - 1)), on_lanes))
    paths = Counter()
    real_search = rules._lex_search

    def traced_search(m, k, push, pop, leaves, *rest):
        keys = []

        def seen(prefix, nxt, r):
            for key, winner in leaves(prefix, nxt, r):
                keys.append(key)
                yield key, winner

        winners, best = real_search(m, k, push, pop, seen, *rest)
        if winners and isinstance(winners[0], list):  # a probing Thiele search
            paths["blocks below a prefix"] += len(keys) > 1
            paths["a block beats the best key"] += any(
                key > max(keys[:j]) for j, key in enumerate(keys) if j
            )
            paths["tied blocks"] += len(winners) > 1
        return winners, best

    monkeypatch.setattr(rules, "_lex_search", traced_search)
    for j, (e, probed) in enumerate(cases):
        monkeypatch.setattr(rules, "_BLOCK_BITS", (rules._BLOCK_BITS, 12, 1)[j % 3])
        f = entitlements(e)
        other = set(rng.sample(range(e.m), e.k))
        shared = (
            f,
            demands(f, "FIND_SSJR"),
            [rng.randint(0, min(len(a), e.k) + 1) for a in e.approvals],
            [len(a & other) for a in e.approvals],
        )
        paths["k = m - 1"] += e.k == e.m - 1
        paths["empty ballot"] += any(not a for a in e.approvals)
        for rule in probed:
            mode = "single" if rule.is_sequential else "all_tied"
            w = rng.choice(run_rule(e, rule, mode=mode).committees).members
            tight = [len(a & w) for a in e.approvals]
            bumped = list(tight)
            short = [i for i, a in enumerate(e.approvals) if len(a & w) < min(len(a), e.k)]
            if short:
                bumped[rng.choice(short)] += 1
            wanted = (*shared, tight, bumped)
            got = rules.probe(e, rule, wanted)
            assert got == oracle_probe_rule(e, rule, wanted), (rule, e, wanted)
            paths["a random committee's counts unmet"] += not got[3]
            paths["a bump met by another winner"] += bool(short) and got[5]
            paths["a bump unmet"] += not got[5]
    assert min(paths.values()) >= 40, paths


def test_probe_raises_where_listing_every_winner_raises():
    # C(40, 12) committees: every exact rule is over the enumeration cap, and
    # with no approvals AV and SAV tie all 40 candidates for 12 seats
    e = Election.from_approvals([set()] * 5, m=40, k=12)
    wanted = ([0] * 5,)
    with pytest.raises(ValueError, match="one demand per voter"):
        rules.probe(e, RuleId("av"), ([0] * 4,))
    for kind in rules.EXACT_RULES:
        rule = RuleId(kind, weight=Fraction(1, 2) if kind == "geom_pav" else None)
        with pytest.raises(RuntimeError) as listed:
            run_rule(e, rule, mode="all_tied")
        with pytest.raises(RuntimeError) as probed:
            rules.probe(e, rule, wanted)
        assert str(probed.value) == str(listed.value), kind


def test_desk_grid_exact_rules_golden_digest():
    """SHA-256 of the winners and diagnostics of PAV (all tied), CC and
    geometric PAV (1/2) on one desk-grid instance per model at k = 5..11,
    the sizes where the search cuts prefixes and no other digest looks."""
    runs = []
    for model in DEFAULT_MODELS:
        for k in range(5, 12):
            spec = GenSpec(
                model=model,
                n=40,
                m=16,
                seed=instance_seed(1, model, k, 0),
                params=dict(DESK_SCALE_GEN_PARAMS.get(model, {})),
            )
            e = generate(spec, k=k)
            for rule, mode in (
                (RuleId("pav"), "all_tied"),
                (RuleId("cc"), "single"),
                (RuleId("geom_pav", weight=Fraction(1, 2)), "single"),
            ):
                out = run_rule(e, rule, mode=mode)
                runs.append(([tuple(sorted(c.members)) for c in out.committees], out.diagnostics))
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == (
        "30f1144dabb51542a78e7207cca635aab475451ea45e1db5c8f0b80cfbed07c4"
    )


def _metamorphic_profiles():
    return [
        generate(GenSpec(model=model, n=n, m=m, seed=3), k=k)
        for model, n, m, k in (
            ("vi_euclid", 80, 18, 6),
            ("urn", 60, 15, 6),
            ("ic", 100, 16, 5),
            ("mallows", 60, 18, 8),
        )
    ]


def test_exact_winners_follow_a_candidate_relabelling():
    """Relabelling the candidates maps the all-tied winners of PAV, CC and
    minimax-AV onto the relabelled profile's winners with an equal score,
    at sizes past the brute-force oracles."""
    rng = random.Random(71)
    for e in _metamorphic_profiles():
        perm = list(range(e.m))
        rng.shuffle(perm)
        relabelled = Election.from_approvals(
            [{perm[c] for c in ballot} for ballot in e.approvals], m=e.m, k=e.k
        )
        for rule, key in (("pav", "score"), ("cc", "score"), ("minimax_av", "max_hamming")):
            if rule == "minimax_av" and e.m > 16:
                continue
            one = run_rule(e, RuleId(rule), mode="all_tied")
            two = run_rule(relabelled, RuleId(rule), mode="all_tied")
            mapped = sorted(sorted(perm[c] for c in w.members) for w in one.committees)
            assert mapped == sorted(sorted(w.members) for w in two.committees), rule
            assert one.diagnostics[key] == two.diagnostics[key], rule


def test_exact_winners_survive_cloning_every_voter():
    """Cloning every voter keeps the all-tied PAV and CC winners, in order,
    and doubles the score."""
    for e in _metamorphic_profiles():
        twice = Election.from_approvals(e.approvals * 2, m=e.m, k=e.k)
        for rule in ("pav", "cc"):
            one = run_rule(e, RuleId(rule), mode="all_tied")
            two = run_rule(twice, RuleId(rule), mode="all_tied")
            assert two.committees == one.committees, rule
            assert two.diagnostics["score"] == 2 * one.diagnostics["score"], rule


def test_sequential_thiele_rules_match_fraction_reference():
    rng = random.Random(43)
    for e in _oracle_elections(rng, 60):
        harmonic = [Fraction(1, t) for t in range(1, e.m + 1)]
        for kind, weights in (("seq_pav", harmonic), ("seq_cc", [Fraction(1)])):
            out = run_rule(e, RuleId(kind))
            committee, picks = seq_thiele(e, weights)
            assert members(out) == committee, kind
            assert out.diagnostics["picks"] == picks, kind
            assert all(type(g) is Fraction for _, g in out.diagnostics["picks"])
        out = run_rule(e, RuleId("rev_seq_pav"))
        committee, removals = rev_seq_thiele(e, harmonic)
        assert members(out) == committee
        assert out.diagnostics["removals"] == removals
        assert all(type(g) is Fraction for _, g in out.diagnostics["removals"])



def _phragmen_elections(rng, count):
    """Random profiles whose ballots come from a few types of random density,
    so ballots repeat, some are empty and some candidates have no approvers;
    k = 1 and k = m both occur."""
    out = []
    for j in range(count):
        m = rng.randint(1, 8)
        k = (1, m, rng.randint(1, m))[j % 3]
        types = [
            {c for c in range(m) if rng.random() < density}
            for density in [rng.random() for _ in range(rng.randint(1, 5))]
        ] + [set()]
        approvals = [rng.choice(types) for _ in range(rng.randint(1, 14))]
        out.append(Election.from_approvals(approvals, m=m, k=k))
    return out


def _same_fractions(got, want):
    """Equal by value and by type, the container and every entry."""
    assert got == want
    assert type(got) is type(want)
    assert [type(x) for x in got] == [type(x) for x in want]


def test_phragmen_rules_match_fraction_oracle():
    rng = random.Random(47)
    paths = Counter()
    for e in _phragmen_elections(rng, 400):
        out = run_rule(e, RuleId("seq_phragmen"))
        order, loads = oracle_seq_phragmen(e)
        assert out.diagnostics["order"] == tuple(order)
        assert members(out) == sorted(order)
        _same_fractions(out.diagnostics["loads"], tuple(loads))
        if any(e.candidate_voters[c] == 0 for c in order):
            paths["unapproved pick"] += 1

        out = run_rule(e, RuleId("rule_x"))
        committee, meta = oracle_rule_x(e)
        assert members(out) == sorted(committee)
        assert out.diagnostics["completion"] == meta["completion"]
        _same_fractions(out.diagnostics["balances"], meta["balances"])
        _same_fractions(out.diagnostics["rhos"], meta["rhos"])
        if meta["completion"] is None:
            paths["rule_x without completion"] += 1
        elif meta["rhos"]:
            paths["rule_x picks, then completion"] += 1
        else:
            paths["rule_x completion only"] += 1
    assert len(paths) == 4 and min(paths.values()) >= 10, paths


def test_greedy_monroe_matches_ballot_scanning_oracle():
    rng = random.Random(53)
    profiles = _oracle_elections(rng, 240)
    for model in MODELS:
        for seed in range(12):
            m = rng.randint(3, 12)
            spec = GenSpec(model=model, n=rng.randint(5, 60), m=m, seed=seed)
            profiles.append(generate(spec, k=rng.randint(1, m)))
    paths = Counter()
    for e in profiles:
        out = run_rule(e, RuleId("greedy_monroe"))
        committee, assignment = greedy_monroe(e)
        assert members(out) == sorted(committee)
        assert out.diagnostics["assignment"] == tuple(assignment)
        paths["n % k != 0"] += e.n % e.k != 0
        paths["empty ballot"] += 0 in e.ballot_masks
        paths["unapproved candidate"] += 0 in e.candidate_voters
        paths["k = m"] += e.k == e.m
    assert len(profiles) >= 300 and min(paths.values()) >= 30, paths


def test_phragmen_rules_halve_when_every_voter_is_cloned():
    """Cloning every voter (n -> 2n) keeps both committees and halves every
    load, payment and balance exactly: beyond the oracle's reach at n = 1000."""
    cases = [
        generate(GenSpec(model=model, n=1000, m=m, seed=5), k=k)
        for model, m, k in (("ic", 40, 10), ("urn", 30, 8), ("euclid_2d", 40, 12))
    ]
    # four parties of 250 that each afford their own candidate: Rule X ends
    # without completion; the extra candidates are out of reach
    parties = [{v % 4} | ({4 + v % 3} if v % 7 == 0 else set()) for v in range(1000)]
    cases.append(Election.from_approvals(parties, m=7, k=4))
    completions = set()
    for e in cases:
        label = e.n, e.m, e.k
        twice = Election.from_approvals(e.approvals * 2, m=e.m, k=e.k)

        one, two = (run_rule(x, RuleId("seq_phragmen")) for x in (e, twice))
        assert two.diagnostics["order"] == one.diagnostics["order"], label
        _same_fractions(two.diagnostics["loads"], tuple(x / 2 for x in one.diagnostics["loads"]) * 2)

        one, two = (run_rule(x, RuleId("rule_x")) for x in (e, twice))
        assert members(two) == members(one), label
        assert two.diagnostics["completion"] == one.diagnostics["completion"]
        completions.add(one.diagnostics["completion"])
        _same_fractions(two.diagnostics["rhos"], tuple(x / 2 for x in one.diagnostics["rhos"]))
        _same_fractions(
            two.diagnostics["balances"], tuple(x / 2 for x in one.diagnostics["balances"]) * 2
        )
    assert completions == {None, "seq_phragmen"}


def test_probe_matches_both_solves():
    """find_ir_and_ssjr skips FIND_SSJR once FIND_IR has found a committee;
    its answer is the one both solves give."""
    statuses = Counter()
    for e in (
        generate(GenSpec(model=model, n=40, m=16, seed=seed), k=k)
        for model in MODELS
        for k in (3, 5, 8)
        for seed in range(6)
    ):
        fvec = tuple(f_vector(e))
        ir = find_committee(SolveRequest(e, fvec, "FIND_IR"))
        ssjr = find_committee(SolveRequest(e, fvec, "FIND_SSJR"))
        for rule in (RuleId("seq_phragmen"), RuleId("av")):
            probe = _probe(e, rule, [cert.f for cert in fvec])
            assert probe["ir_exists"] == (ir.status == "found")
            assert probe["ssjr_exists"] == (ssjr.status == "found")
            assert probe["undecided"] == ("undecided" in (ir.status, ssjr.status))
            if probe["rule_found_ir"]:
                assert probe["ir_exists"] and probe["rule_found_ssjr"]
        statuses[ir.status] += 1
    assert statuses["found"] and statuses["infeasible"], statuses


def test_no_winner_meets_a_vector_the_solver_proved_infeasible():
    """The fact the experiment's pruning rests on: where `find_committee`
    finds no k-committee meeting f or min(f, 1), `probe` reports no winner
    of any rule the experiment can probe meeting it.  Small random profiles
    and generated ones; candidate-interval profiles with wide radii make
    most of the infeasible vectors.  max-Phragmen only at m <= 7."""
    rng = random.Random(29)
    family = [RuleId(r) for r in DEFAULT_RULES + ("sav", "cc", "monroe", "minimax_av")]
    family += [RuleId("geom_pav", weight=Fraction(1, 2)), RuleId("max_phragmen")]
    cases = _exact_rule_elections(rng, 100, 7)
    for j in range(240):
        model, params = (
            ("ci_euclid", {"sigma": 0.7}),
            ("ci_euclid", {"sigma": 0.45}),
            ("ic", {}),
            ("mallows", {}),
        )[j % 4]
        m = rng.randint(5, 8)
        spec = GenSpec(model=model, n=rng.choice((12, 20, 30)), m=m, seed=j, params=params)
        cases.append(generate(spec, k=rng.randint(2, m - 1)))
    met = Counter()
    for e in cases:
        f = entitlements(e)
        for objective in ("FIND_IR", "FIND_SSJR"):
            if find_committee(SolveRequest(e, f, objective)).status != "infeasible":
                continue
            for rule in family:
                if rule.kind != "max_phragmen" or e.m <= 7:
                    assert probe(e, rule, (demands(f, objective),)) == (False,), (rule, e)
                    met[str(rule)] += 1
    assert len(met) == len(family) and min(met.values()) >= 20, met


def test_max_phragmen_load_vector_matches_the_merge_test():
    # the cross-multiplied bottleneck that ORs every tight subset in against
    # the Fraction one that re-tests each merge: the dead members, the sorted
    # and the per-voter loads, on random committees of up to 7 members
    # (members no voter approves and tied bottlenecks included)
    rng = random.Random(2702)
    tied = 0
    for _ in range(1200):
        e = random_election(rng, n_max=10, m_max=9, density=rng.choice((0.2, 0.4, 0.7)))
        members = rng.sample(range(e.m), rng.randint(1, min(e.m, 7)))
        got = rules.max_phragmen_load_vector(e, members)
        assert got == max_phragmen_load_vector_by_merge_test(e, members), (e.approvals, members)
        tied += len(set(got[1]) - {0}) < len([c for c in members if e.candidate_voters[c]])
    assert tied >= 100, tied
