import hashlib
import random
import re
import statistics

from irlab.domains import recognize
from irlab.experiment import DESK_SCALE_GEN_PARAMS
from irlab import gen
from irlab.gen import GenSpec, MAX_GEN_CANDIDATES, MODELS, PARAMS, _top_rows, _top_sample, generate
from irlab.model import Election

from oracles import election_masks, generate_by_sets, mallows_sample, mallows_sample_bisected


def test_seed_determinism_all_models():
    for model in MODELS:
        a = generate(GenSpec(model=model, n=12, m=8, seed=77), k=3)
        b = generate(GenSpec(model=model, n=12, m=8, seed=77), k=3)
        assert a == b
        c = generate(GenSpec(model=model, n=12, m=8, seed=78), k=3)
        # different seeds overwhelmingly differ; tolerate rare collisions by
        # checking across models rather than asserting inequality per model
        del c


def test_ic_extremes():
    empty = generate(GenSpec(model="ic", n=6, m=5, seed=1, params={"p": 0.0}))
    assert all(not a for a in empty.approvals)
    full = generate(GenSpec(model="ic", n=6, m=5, seed=1, params={"p": 1.0}))
    assert all(a == frozenset(range(5)) for a in full.approvals)


def test_ic_mean_ballot_size():
    sizes = []
    for seed in range(500):
        e = generate(GenSpec(model="ic", n=100, m=50, seed=seed))
        sizes.extend(len(a) for a in e.approvals)
    mean = statistics.mean(sizes)
    assert abs(mean - 7.5) <= 0.5


def test_vi_generator_output_is_vi():
    for seed in range(500):
        e = generate(GenSpec(model="vi_euclid", n=40, m=16, seed=seed), k=4)
        assert recognize(e, "VI") is not None


def test_ci_generator_output_is_ci():
    for seed in range(500):
        e = generate(GenSpec(model="ci_euclid", n=40, m=16, seed=seed), k=4)
        assert recognize(e, "CI") is not None


class _ScriptedRandom:
    """Stands in for ``random.Random``: ``random()`` and ``gauss()`` return
    the given values in order."""

    def __init__(self, uniforms, normals):
        self.random = iter(uniforms).__next__
        self._normals = iter(normals)

    def gauss(self, mu, sigma):
        return next(self._normals)


def test_sorted_runs_match_pairwise_tests_on_tied_positions():
    """Positions on a coarse grid tie voters with voters and candidates, and
    radii that are differences of grid points put voters on the boundary,
    where rounding decides; the run builders approve exactly the pairs with
    abs(x - c) <= r."""
    grid = [i / 10 for i in range(11)] + [i / 8 for i in range(9)] + [1 / 3, 2 / 3]
    radii = [0.0] + [a - b for a in grid for b in grid if a != b]
    pick = random.Random(11)
    for trial in range(400):
        n, m = pick.randint(1, 12), pick.randint(1, 12)
        voters = [pick.choice(grid) for _ in range(n)]
        cands = [pick.choice(grid) for _ in range(m)]
        spec = GenSpec(model="vi_euclid", n=n, m=m, seed=0)
        r = [pick.choice(radii) for _ in range(m)]  # a radius is abs(gauss)
        got = gen._gen_vi_euclid(spec, _ScriptedRandom(voters + cands, r))
        assert got == [
            sum(1 << c for c in range(m) if abs(x - cands[c]) <= abs(r[c])) for x in voters
        ], trial
        r = [pick.choice(radii) for _ in range(n)]
        got = gen._gen_ci_euclid(spec, _ScriptedRandom(voters + cands, r))
        assert got == [
            sum(1 << c for c in range(m) if abs(x - cands[c]) <= abs(rv)) for x, rv in zip(voters, r)
        ], trial


def test_urn_ballot_sizes_bounded():
    for seed in range(30):
        e = generate(GenSpec(model="urn", n=30, m=16, seed=seed))
        assert all(1 <= len(a) <= 4 for a in e.approvals)


def test_mallows_ballot_sizes_bounded():
    for seed in range(30):
        e = generate(GenSpec(model="mallows", n=30, m=16, seed=seed))
        assert all(1 <= len(a) <= 4 for a in e.approvals)


def _kendall_tau_to_reference(ranking):
    # reference is 0..m-1; count inverted pairs
    inv = 0
    for i in range(len(ranking)):
        for j in range(i + 1, len(ranking)):
            if ranking[i] > ranking[j]:
                inv += 1
    return inv


def _full_ranking(ref, phi, rng):
    """The top-cap sampler with cap = m, which keeps the whole ranking."""
    return _top_sample(_top_rows(ref, phi, len(ref)), rng.random)


def test_mallows_dispersion_extremes():
    rng = random.Random(5)
    ref = list(range(8))
    assert _full_ranking(ref, 0.0, rng) == ref
    # at phi=1 rankings are uniform: mean Kendall tau to the reference is
    # m(m-1)/4 = 14; allow a generous band around it (the generator never
    # draws phi = 1, so this runs on the full-ranking oracle)
    taus = [
        _kendall_tau_to_reference(mallows_sample_bisected(ref, 1.0, rng))
        for _ in range(400)
    ]
    assert abs(statistics.mean(taus) - 14) <= 1.5
    # low dispersion keeps rankings close to the reference
    taus_low = [
        _kendall_tau_to_reference(_full_ranking(ref, 0.2, rng))
        for _ in range(400)
    ]
    assert statistics.mean(taus_low) < statistics.mean(taus) / 2


def test_mallows_sample_matches_linear_scan():
    """The bisected insertion table draws the same positions from the same
    random stream as a linear scan of freshly built weights, and for phi < 1
    the top-cap sampler keeps the first cap items of that ranking, drawing
    one random() per item as well."""
    for phi in (0.0, 1e-9, 0.2, 0.5, 0.999, 1.0):
        for m in (1, 5, 16, 60):
            ref = list(range(m))
            rng, oracle_rng = random.Random(m), random.Random(m)
            for _ in range(20):
                assert mallows_sample_bisected(ref, phi, rng) == mallows_sample(ref, phi, oracle_rng)
            assert rng.random() == oracle_rng.random()
            if phi == 1.0:
                continue
            for cap in sorted({1, max(1, m // 4), max(1, m - 1), m}):
                rows = _top_rows(ref, phi, cap)
                rng, oracle_rng = random.Random(m + cap), random.Random(m + cap)
                for _ in range(20):
                    top = _top_sample(rows, rng.random)[:cap]
                    assert top == mallows_sample(ref, phi, oracle_rng)[:cap], (phi, m, cap)
                assert rng.random() == oracle_rng.random()
                # at phi = 0 every running sum but the last is 0, so a draw of 0
                # lands on an item's limit itself
                draws = [0.0, 0.5, 1 - 2**-53] * m
                top = _top_sample(rows, iter(draws).__next__)[:cap]
                assert top == mallows_sample(ref, phi, _ScriptedRandom(draws, ()))[:cap], (phi, m, cap)


def test_2d_radius_owner_switch():
    spec_c = GenSpec(model="euclid_2d", n=20, m=10, seed=9, params={"radius_owner": "candidate"})
    spec_v = GenSpec(model="euclid_2d", n=20, m=10, seed=9, params={"radius_owner": "voter"})
    assert generate(spec_c) != generate(spec_v)


def test_spec_validation():
    import pytest

    with pytest.raises(ValueError):
        GenSpec(model="nope", n=5, m=5, seed=1)
    with pytest.raises(ValueError):
        GenSpec(model="ic", n=0, m=5, seed=1)
    with pytest.raises(ValueError):
        GenSpec(model="ic", n=5, m=5, seed=1, params={"p": 1.5})


def test_specs_past_the_cell_bound_fail_before_generating():
    # the profile header bound, on GenSpec, ExperimentSpec and ``irlab gen``;
    # no profile is built
    import pytest
    from click.testing import CliRunner

    from irlab.cli import main
    from irlab.experiment import ExperimentSpec
    from irlab.model import MAX_CELLS

    m = MAX_GEN_CANDIDATES
    GenSpec(model="ic", n=MAX_CELLS // m, m=m, seed=1)
    message = re.escape(f"n*m={MAX_CELLS + m} exceeds the limit of {MAX_CELLS} voter-candidate cells")
    with pytest.raises(ValueError, match=message):
        GenSpec(model="ic", n=MAX_CELLS // m + 1, m=m, seed=1)
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(n=MAX_CELLS // m + 1, m=m)
    result = CliRunner().invoke(main, ["gen", "--model", "ic", "--n", "65537", "--m", "1024"])
    assert result.exit_code == 2 and "voter-candidate cells" in result.output


def test_unknown_radius_owner_fails_when_the_spec_is_built():
    import pytest

    from irlab.experiment import ExperimentSpec

    with pytest.raises(ValueError, match="radius_owner must be 'candidate' or 'voter', got 'both'"):
        GenSpec(model="euclid_2d", n=5, m=5, seed=1, params={"radius_owner": "both"})
    with pytest.raises(ValueError, match="radius_owner"):
        ExperimentSpec(gen_params={"euclid_2d": {"radius_owner": "both"}})


def test_parameters_no_builder_reads_fail_when_the_spec_is_built():
    import pytest

    from irlab.experiment import ExperimentSpec

    with pytest.raises(ValueError, match="model ic takes no parameter 'sigma'"):
        GenSpec(model="ic", n=20, m=8, seed=1, params={"sigma": 0.9, "typo": 1})
    # every entry is checked, also those of models the experiment does not run
    with pytest.raises(ValueError, match="model ic takes no parameter 'sigmaa'"):
        ExperimentSpec(models=("urn",), gen_params={"ic": {"sigmaa": 3}})
    with pytest.raises(ValueError, match="unknown model 'nosuch'"):
        ExperimentSpec(gen_params={"nosuch": {}})


def test_every_listed_parameter_is_read():
    # each key of PARAMS changes the profile its model samples
    values = {"sigma": 0.9, "radius_sigma": 0.05, "radius_owner": "voter", "p": 0.9}
    for model, keys in PARAMS.items():
        plain = generate(GenSpec(model=model, n=20, m=8, seed=1))
        for key in keys:
            assert generate(GenSpec(model=model, n=20, m=8, seed=1, params={key: values[key]})) != plain


def _oracle_specs():
    """1,000 desk profiles per model at the experiment's parameters, then
    edge shapes: one voter, one candidate, empty and full ic ballots, the
    voter-owned 2D radii, the generator-default radius scales, zero and
    wide 1D radii, small Mallows m and n = 1000, m = 60."""
    specs = [
        GenSpec(model=model, n=40, m=16, seed=seed, params=DESK_SCALE_GEN_PARAMS.get(model, {}))
        for model in MODELS
        for seed in range(1000)
    ]
    for seed in range(20):
        specs += [GenSpec(model=model, n=n, m=m, seed=seed)
                  for model in MODELS for n, m in ((1, 1), (1, 16), (40, 1), (7, 3), (200, 60))]
        specs += [GenSpec(model="ic", n=30, m=9, seed=seed, params={"p": p}) for p in (0.0, 1.0)]
    specs += [
        GenSpec(model="euclid_2d", n=40, m=16, seed=seed, params={"radius_owner": "voter"})
        for seed in range(200)
    ]
    # zero radii and radii approving most pairs for the sorted-run builders;
    # Mallows at small m, where the items i <= cap = max(1, m // 4) and the
    # first items past the cap make up most of each ranking; the CLI shape
    specs += [
        GenSpec(model=model, n=40, m=16, seed=seed, params={"sigma": sigma})
        for model in ("vi_euclid", "ci_euclid")
        for sigma in (0.0, 5.0)
        for seed in range(20)
    ]
    specs += [GenSpec(model="mallows", n=30, m=m, seed=seed) for m in (2, 4, 5, 8) for seed in range(20)]
    specs += [GenSpec(model=model, n=1000, m=60, seed=seed) for model in MODELS for seed in range(3)]
    return specs


def test_generated_profiles_match_set_based_generators():
    """Each generator gives the ballots the set-building bodies draw from the
    same random stream, and its Election has the masks, equality, hash and
    repr of one built from those sets by the voter-by-voter digit builder."""
    previous = None
    for spec in _oracle_specs():
        election = generate(spec, k=1)
        approvals = tuple(generate_by_sets(spec))
        assert election.approvals == approvals, spec
        assert (election.candidate_voters, election.ballot_masks) == election_masks(
            spec.n, spec.m, approvals
        ), spec
        rebuilt = Election.from_approvals(approvals, m=spec.m, k=1)
        assert election == rebuilt and hash(election) == hash(rebuilt), spec
        # the dataclass repr of the set-built election, up to the order in which
        # a frozenset lists its members (that follows its insertion history)
        text = f"Election(n={spec.n}, m={spec.m}, k=1, approvals={election.approvals!r})"
        assert repr(election) == text == repr(rebuilt), spec
        if previous is not None:
            # equal exactly when the ballots (and n, m, k) are equal
            other, other_approvals = previous
            same = (other.m, other_approvals) == (spec.m, approvals)
            assert (election == other) == same, spec
        previous = (election, approvals)


# SHA-256 of the profiles below, recorded with generators that test every
# voter-candidate pair and sample whole Mallows rankings; any change to a
# random stream shows here
GOLDEN_PROFILES_SHA256 = "de1efe6a214cde2db888f11d51de4747ace7dc43449592904860cebefd2a7729"


def _golden_specs():
    specs = [GenSpec(model=model, n=40, m=16, seed=seed) for model in MODELS for seed in (1, 2, 3)]
    specs += [GenSpec(model=model, n=200, m=60, seed=7) for model in MODELS]
    specs += [GenSpec(model=model, n=1000, m=60, seed=0) for model in MODELS]
    specs.append(
        GenSpec(model="euclid_2d", n=40, m=16, seed=4, params={"radius_owner": "voter"})
    )
    return specs


def profiles_digest(specs):
    digest = hashlib.sha256()
    for spec in specs:
        election = generate(spec, k=3)
        digest.update(f"{spec.model} n={spec.n} m={spec.m} seed={spec.seed}\n".encode())
        for ballot in election.approvals:
            digest.update((",".join(map(str, sorted(ballot))) + "\n").encode())
    return digest.hexdigest()


def test_generated_profiles_match_golden_digest():
    assert profiles_digest(_golden_specs()) == GOLDEN_PROFILES_SHA256
