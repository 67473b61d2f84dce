import gc
import hashlib
import io
import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from irlab import cli
from irlab.cli import AXIOM_NAMES, RULE_NAMES, main
from irlab.cohesion import f_vector
from irlab.domains import InvalidWitnessError
from irlab.experiment import ExperimentSpec, instance_seed
from irlab.gen import MAX_GEN_CANDIDATES, MODELS, GenSpec, generate
from irlab.model import MAX_CANDIDATES, MAX_CELLS, Election, serialize_profile
from irlab.search import DEFAULT_NODE_CAP, BudgetExceededError
import hard_instances
from hard_instances import AV_IR_FAILURE, two_camps_with_bridge, uneven_cohorts


def _write_profile(tmp_path, election, name="profile.avp"):
    path = tmp_path / name
    path.write_text(serialize_profile(election))
    return str(path)


def test_check_ir_satisfied_exit_zero(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["check", path, "--committee", "1,2", "--axiom", "ir"])
    assert result.exit_code == 0
    assert "satisfied" in result.output


def test_check_expect_unmet_exit_one(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["check", path, "--committee", "1,3", "--axiom", "ir", "--expect", "satisfied"],
    )
    assert result.exit_code == 1


def test_check_text_names_the_deprived_voters(tmp_path):
    # voters 1 and 4 back {c1}, but only voter 1 falls short of the committee
    # {c2, c3}; a perfect-representation witness has no candidates or level
    path = _write_profile(tmp_path, AV_IR_FAILURE)
    runner = CliRunner()
    expected = {
        "ir": ["IR: violated", "  witness: voters [1, 4], deprived [1], candidates [1], level 1"],
        "ssjr": ["SSJR: violated", "  witness: voters [1, 4], deprived [1], candidates [1], level 1"],
        "pr": ["PERFECT_REP: violated", "  witness: voters [1]"],
    }
    for axiom, lines in expected.items():
        result = runner.invoke(main, ["check", path, "--committee", "2,3", "--axiom", axiom])
        assert (result.exit_code, result.stdout.splitlines()) == (0, lines), axiom
        result = runner.invoke(main, ["check", path, "--committee", "2,3", "--axiom", axiom, "--json"])
        assert json.loads(result.stdout)["witness"]["deprived"] == [1], axiom


def test_unknown_subcommand_exit_two():
    runner = CliRunner()
    result = runner.invoke(main, ["bogus"])
    assert result.exit_code == 2


def test_repeated_requests_release_their_output_streams(tmp_path):
    # click.echo without a file caches the stream it resolves in a weak-key
    # dictionary whose value is the stream itself, so every in-process request
    # would keep its output buffers alive
    path = _write_profile(tmp_path, generate(GenSpec(model="ic", n=30, m=8, seed=1), k=3))
    runner = CliRunner()

    def live_buffers():
        gc.collect()
        return sum(isinstance(obj, io.BytesIO) for obj in gc.get_objects())

    result = runner.invoke(main, ["fvec", path])
    before = live_buffers()
    for _ in range(200):
        result = runner.invoke(main, ["fvec", path])
    assert result.exit_code == 0
    assert live_buffers() <= before


def test_check_json_witness(tmp_path):
    path = _write_profile(tmp_path, uneven_cohorts())
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["check", path, "--committee", "1,2,3,4,9,10", "--axiom", "core", "--json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "violated"
    assert payload["witness"]["candidate_set"] == [5, 6, 7, 8]


def test_fvec_csv(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["fvec", path])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "voter,f,witness"
    assert len(lines) == 9
    assert lines[1].startswith("1,1,")


def test_fvec_vi_method(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["fvec", path, "--method", "vi"])
    assert result.exit_code == 0
    assert all(line.split(",")[1] == "1" for line in result.output.strip().splitlines()[1:])


def test_fvec_vi_method_rejects_cap(tmp_path):
    # the vi method runs no capped walk, so a cap given with it is a usage
    # error naming the method it bounds, even at the default value
    path = _write_profile(tmp_path, two_camps_with_bridge())
    for cap in (["--cap", "1"], ["--cap", str(DEFAULT_NODE_CAP)]):
        for args in (["--method", "vi", *cap], [*cap, "--method", "vi"]):
            result = CliRunner().invoke(main, ["fvec", path, *args])
            assert result.exit_code == 2, args
            assert "--cap bounds --method exact only" in result.output, args
    assert CliRunner().invoke(main, ["fvec", path, "--method", "exact", "--cap", "1"]).exit_code == 1


def test_solve_objectives(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["solve", path, "--objective", "ir"])
    payload = json.loads(result.output)
    assert payload["status"] == "found"
    assert payload["committee"] == [1, 2]
    result = runner.invoke(
        main, ["solve", path, "--objective", "min-beta", "--expect", "found"]
    )
    assert result.exit_code == 0


def test_rule_json(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["rule", path, "--rule", "pav", "--all-tied"])
    payload = json.loads(result.output)
    assert payload["committees"] == [[1, 3], [2, 3]]


def test_recognize_all(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["recognize", path])
    payload = json.loads(result.output)
    assert payload["ci"]["candidate_order"] == [1, 3, 2]
    assert payload["vi"]["voter_order"] == list(range(1, 9))


def test_recognize_expect_exit(tmp_path):
    path = _write_profile(tmp_path, uneven_cohorts())
    runner = CliRunner()
    result = runner.invoke(
        main, ["recognize", path, "--domain", "ci", "--expect", "member"]
    )
    assert result.exit_code == 1


def test_construct_vi(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    runner = CliRunner()
    result = runner.invoke(main, ["construct", path, "--domain", "vi"])
    payload = json.loads(result.output)
    assert len(payload["committee"]) == 2
    assert payload["guarantee"]["alpha"] == "2"
    assert payload["guarantee"]["beta"] == "4"


def test_construct_alpha_tr(tmp_path):
    from irlab.model import Election

    e = Election.from_approvals([{0}, {0, 1}, {0}, {0, 1}], m=2, k=2)
    path = _write_profile(tmp_path, e)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"parent": [None, 1]}))
    runner = CliRunner()
    result = runner.invoke(
        main, ["construct", path, "--domain", "alpha-tr", "--tree", str(tree)]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["committee"] == [1, 2]


def test_gen_writes_parseable_profile(tmp_path):
    out = tmp_path / "gen.avp"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gen", "--model", "urn", "--n", "10", "--m", "8", "--k", "3", "--seed", "7", "-o", str(out)],
    )
    assert result.exit_code == 0
    from irlab.model import parse_profile

    e = parse_profile(out.read_text())
    assert (e.n, e.m, e.k) == (10, 8, 3)


def test_experiment_cli_deterministic(tmp_path):
    runner = CliRunner()
    args = [
        "experiment",
        "--models",
        "ic",
        "--n",
        "10",
        "--m",
        "6",
        "--k-min",
        "2",
        "--k-max",
        "3",
        "--instances",
        "4",
        "--rules",
        "seq_cc",
        "--seed",
        "3",
        "--no-timing",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2), "--jobs", "2"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (out1 / "results.csv").read_text() == (out2 / "results.csv").read_text()


def test_experiment_rule_over_enumeration_cap_exit_one(tmp_path):
    # C(40, 12) committees exceed the cap of the exact PAV probe
    args = "experiment --models ic --n 10 --m 40 --k-min 12 --k-max 12 --instances 1"
    result = CliRunner().invoke(
        main, args.split() + ["--rules", "pav", "--no-timing", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert not isinstance(result.exception, RuntimeError)
    assert "Traceback" not in result.output
    assert "C(40,12) exceeds the committee enumeration cap" in result.output


def test_experiment_rule_listed_twice_exit_two(tmp_path):
    args = "experiment --models ic --n 6 --m 4 --k-min 2 --k-max 2 --instances 1"
    result = CliRunner().invoke(
        main, args.split() + ["--rules", "av,seq_cc,av", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "rule av is listed twice" in result.output
    assert not (tmp_path / "out").exists()


def test_gen_rejects_bad_model():
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--model", "zipf", "--n", "5", "--m", "5"])
    assert result.exit_code == 2


def test_malformed_profile_exit_two_without_traceback(tmp_path):
    path = tmp_path / "bad.avp"
    path.write_text("garbage\n")
    result = CliRunner().invoke(main, ["rule", str(path), "--rule", "pav"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "bad.avp" in result.output


def test_check_refuses_a_header_m_above_the_limit(tmp_path):
    # the header's m alone would cost time and memory linear in it
    path = tmp_path / "wide.avp"
    path.write_text(f"1 {MAX_CANDIDATES + 1} 1\n1\n")
    result = CliRunner().invoke(main, ["check", str(path), "--committee", "1", "--axiom", "jr"])
    _assert_usage_error(result)
    assert "Traceback" not in result.output
    assert f"wide.avp: line 1: m={MAX_CANDIDATES + 1} exceeds the limit" in result.output


def test_check_refuses_a_header_n_m_above_the_cell_limit(tmp_path):
    # 1,000 voters over 2^17 candidates in 2 KB: the transposition alone
    # would cost memory in n*m
    path = tmp_path / "wide.avp"
    path.write_text(f"1000 {1 << 17} 1\n" + "1\n" * 1000)
    result = CliRunner().invoke(main, ["check", str(path), "--committee", "1", "--axiom", "jr"])
    _assert_usage_error(result)
    assert "Traceback" not in result.output
    assert f"wide.avp: line 1: n*m={1000 << 17} exceeds the limit of {MAX_CELLS}" in result.output


def _assert_usage_error(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.rstrip().splitlines()[-1].startswith("Error: ")


def test_solve_min_beta_alpha_below_one_exit_two(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    result = CliRunner().invoke(
        main, ["solve", path, "--objective", "min-beta", "--alpha", "1/2"]
    )
    _assert_usage_error(result)
    assert "alpha must be >= 1" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "--committee", "1,2", "--axiom", "ir", "--alpha", "3/2"],
         "--alpha is for --axiom alpha-beta-ir only"),
        (["check", "--committee", "1,2", "--axiom", "jr", "--beta", "0"],
         "--beta is for --axiom alpha-beta-ir only"),
        (["solve", "--alpha", "1"], "--alpha is for --objective min-beta only"),
        (["solve", "--objective", "min-beta", "--beta", "0"],
         "--beta is for --objective min-alpha only"),
        (["construct", "--domain", "vi", "--tree", "{tree}"], "--tree is for --domain alpha-tr only"),
        (["gen", "--model", "urn", "--p", "0.9"], "--p is for --model ic only"),
        (["gen", "--model", "ic", "--radius-owner", "candidate"],
         "--radius-owner is for --model euclid_2d only"),
        (["gen", "--model", "urn", "--sigma", "0.1"],
         "--sigma is for --model vi_euclid, ci_euclid or euclid_2d only"),
    ],
    ids=["check-alpha", "check-beta", "solve-alpha", "solve-beta", "construct-tree",
         "gen-p", "gen-radius-owner", "gen-sigma"],
)
def test_option_the_request_does_not_read_exit_two(tmp_path, args, message):
    # an option the request would ignore is refused, even at its default value
    path = _write_profile(tmp_path, two_camps_with_bridge())
    tree = tmp_path / "tree.json"
    tree.write_text('{"parent": [null, 1, 1]}')
    command, *rest = args
    rest = [a.format(tree=tree) for a in rest]
    target = ["--n", "4", "--m", "3"] if command == "gen" else [path]
    result = CliRunner().invoke(main, [command, *target, *rest])
    _assert_usage_error(result)
    assert message in result.output


@pytest.mark.parametrize("model", ["vi_euclid", "ci_euclid"])
def test_gen_sigma_writes_the_experiment_instance(model):
    # the experiment samples the 1D Euclidean models at its desk-scale sigma;
    # `irlab gen --sigma` with the instance seed writes that same profile
    spec = ExperimentSpec(models=(model,), k_values=(5,))
    seed = instance_seed(spec.seed, model, 5, 0)
    sigma = spec.gen_params[model]["sigma"]
    gspec = GenSpec(model=model, n=spec.n, m=spec.m, seed=seed, params=spec.gen_params[model])
    args = ["gen", "--model", model, "--n", "40", "--m", "16", "--k", "5",
            "--seed", str(seed), "--sigma", str(sigma)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == serialize_profile(generate(gspec, k=5))
    default = CliRunner().invoke(main, args[:-2])
    assert default.stdout != result.stdout  # the generator default is another sigma


_IC_P = GenSpec(model="ic", n=12, m=6, seed=4, params={"p": 0.3})
# 6 voters, 4 candidates, k = 2: the entitlement walk of the first takes 2
# nodes; that of the second 1, its committee search 2
_WALK_OF_TWO = GenSpec(model="vi_euclid", n=6, m=4, seed=0)
_SEARCH_OF_TWO = GenSpec(model="urn", n=6, m=4, seed=2)


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["check", "{profile}", "--committee", "1,x", "--axiom", "ir"], 2,
         "cannot parse committee '1,x'"),
        (["check", "{profile}", "--committee", "1,9", "--axiom", "ir"], 2,
         "candidate index 9 out of range [1, 3]"),
        (["check", "{profile}", "--committee", "1,2", "--axiom", "alpha-beta-ir", "--alpha", "1"],
         2, "alpha-beta-ir requires --alpha and --beta"),
        (["check", "{profile}", "--committee", "1,2", "--axiom", "alpha-beta-ir", "--alpha", "1/2",
          "--beta", "0"], 2, "requires alpha >= 1 and beta >= 0"),
        (["rule", "{profile}", "--rule", "pav", "--weight", "1/2"], 2, "pav does not take a weight"),
        (["rule", "{profile}", "--rule", "seq_pav", "--all-tied"], 2,
         "seq_pav is sequential; all_tied applies to exact rules only"),
        (["recognize", "{profile}", "--expect", "member"], 2, "--expect requires a single --domain"),
        (["construct", "{profile}", "--domain", "alpha-tr"], 2, "alpha-tr requires --tree"),
        (["check", "{profile}", "--committee", "1", "--axiom", "ejr"], 2,
         "EJR is defined for committees of size exactly k"),
        (["check", "{odd}", "--committee", "1,2", "--axiom", "pr"], 2,
         "perfect representation requires k to divide n"),
        (["solve", "{blocks}", "--expect", "found"], 1, '"status": "infeasible"'),
        (["experiment", "--models", "ic,ic", "--k-min", "2", "--k-max", "2", "--instances", "2",
          "--no-timing", "--out", "{out}"], 2, "model ic is listed twice"),
        (["experiment", "--models", ",", "--out", "{out}"], 2, "no model given"),
        (["experiment", "--instances", "0", "--out", "{out}"], 2, "instances must be at least 1"),
        (["experiment", "--k-max", "17", "--out", "{out}"], 2, "k=17 outside [1, 16]"),
        (["gen", "--model", "ic", "--n", "12", "--m", "6", "--seed", "4", "--p", "0.3"], 0,
         serialize_profile(generate(_IC_P))),
        (["check", "{walk}", "--committee", "1,2", "--axiom", "core", "--cap", "1", "--json"], 0,
         '{"axiom": "CORE", "status": "undecided", "cost": 2}\n'),
        (["check", "{walk}", "--committee", "1,2", "--axiom", "ir", "--cap", "1"], 1,
         "(cohesion.entitlements stopped after 2 nodes)"),
        (["solve", "{walk}", "--cap", "1"], 1, "(cohesion.entitlements stopped after 2 nodes)"),
        (["solve", "{search}", "--cap", "1"], 0,
         '{"status": "undecided", "committee": null, "alpha": null, "beta": null, "nodes": 2}\n'),
    ],
    ids=["committee-token", "committee-index", "beta-missing", "alpha-below-one", "rule-weight",
         "rule-all-tied-sequential", "recognize-expect-all", "construct-tree-missing",
         "group-axiom-size", "pr-k-not-dividing-n", "solve-expect-found", "experiment-model-twice",
         "experiment-no-model", "experiment-no-instances", "experiment-k-above-m", "gen-p",
         "check-core-capped", "check-ir-walk-capped", "solve-walk-capped", "solve-search-capped"],
)
def test_cli_exit_contract(tmp_path, args, code, message):
    # each exit code with its message: 2 for a usage error, 1 for an unmet
    # --expect or a capped entitlement walk, 0 with the profile ``gen``
    # samples at the given --p or an undecided capped committee search
    paths = {
        "profile": _write_profile(tmp_path, two_camps_with_bridge()),
        "blocks": _write_profile(tmp_path, hard_instances.disjoint_blocks_instance(3), "blocks.avp"),
        "odd": _write_profile(tmp_path, Election.from_approvals([{0}, {1}, {0, 1}], m=2, k=2), "odd.avp"),
        "walk": _write_profile(tmp_path, generate(_WALK_OF_TWO, k=2), "walk.avp"),
        "search": _write_profile(tmp_path, generate(_SEARCH_OF_TWO, k=2), "search.avp"),
        "out": str(tmp_path / "run"),
    }
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == code, result.output
    assert message in result.output
    if code:
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "run").exists()
    else:
        assert result.exception is None and result.stdout == message


# each command, the library call it makes and its arguments
_LIBRARY_CALLS = {
    "gen": ("irlab.cli.generate", ["--model", "ic", "--n", "4", "--m", "3"]),
    "fvec": ("irlab.cli.f_vector", ["{profile}"]),
    "check": ("irlab.axioms.check", ["{profile}", "--committee", "1,2", "--axiom", "jr"]),
    "rule": ("irlab.rules.run_rule", ["{profile}", "--rule", "av"]),
    "solve": ("irlab.cli.entitlements", ["{profile}"]),
    "recognize": ("irlab.domains.recognize", ["{profile}", "--domain", "vi"]),
    "construct": ("irlab.domains.construct", ["{profile}", "--domain", "alpha-tr", "--tree", "{tree}"]),
    "experiment": ("irlab.cli.run_experiment", ["--models", "ic", "--n", "4", "--m", "3", "--k-min",
                                                "2", "--k-max", "2", "--instances", "1", "--out", "{out}"]),
}


@pytest.mark.parametrize("command", list(_LIBRARY_CALLS))
def test_library_errors_exit_by_one_policy(tmp_path, monkeypatch, command):
    # a ValueError from the library is a usage error (exit 2, under the
    # command's usage line), a RuntimeError a request with no answer (exit 1),
    # and so is construct's InvalidWitnessError; an AssertionError (a failed
    # re-check) is a bug and is not caught
    target, args = _LIBRARY_CALLS[command]
    tree = tmp_path / "tree.json"
    tree.write_text('{"parent": [null, 1, 1]}')
    paths = {"profile": _write_profile(tmp_path, two_camps_with_bridge()), "tree": tree,
             "out": tmp_path / "run"}
    args = [command, *(arg.format(**paths) for arg in args)]
    errors = [(ValueError, 2), (RuntimeError, 1), (AssertionError, None)]
    if command == "construct":
        errors.append((InvalidWitnessError, 1))
    for error, code in errors:
        def fail(*_args, **_kwargs):
            raise error("refused")

        monkeypatch.setattr(target, fail)
        result = CliRunner().invoke(main, args)
        if code is None:
            assert type(result.exception) is error
            continue
        assert result.exit_code == code and isinstance(result.exception, SystemExit), result.output
        lines = result.output.rstrip().splitlines()
        assert lines[-1] == "Error: refused"
        assert any(line.startswith(f"Usage: main {command} ") for line in lines) == (code == 2)


def test_check_committee_larger_than_k_exit_two(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    result = CliRunner().invoke(main, ["check", path, "--committee", "1,2,3", "--axiom", "ir"])
    _assert_usage_error(result)
    assert "committee has 3 members" in result.output


def test_check_repeated_committee_index_exit_two(tmp_path):
    # a repeated index is named, not silently dropped into a smaller committee
    path = _write_profile(tmp_path, two_camps_with_bridge())
    for axiom in ("ir", "jr"):
        result = CliRunner().invoke(main, ["check", path, "--committee", "1,1", "--axiom", axiom])
        _assert_usage_error(result)
        assert "duplicate candidate index 1 in committee" in result.output


def test_check_alpha_not_rational_exit_two(tmp_path):
    path = _write_profile(tmp_path, two_camps_with_bridge())
    result = CliRunner().invoke(
        main,
        ["check", path, "--committee", "1,2", "--axiom", "alpha-beta-ir", "--alpha", "x", "--beta", "0"],
    )
    _assert_usage_error(result)
    assert "'x' is not a rational number" in result.output


def test_experiment_empty_k_range_exit_two(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["experiment", "--k-min", "5", "--k-max", "4", "--out", str(out)]
    )
    _assert_usage_error(result)
    assert not out.exists()


def test_gen_zero_voters_exit_two():
    result = CliRunner().invoke(main, ["gen", "--model", "ic", "--n", "0", "--m", "3"])
    _assert_usage_error(result)
    assert "n and m must be at least 1" in result.output


def test_gen_and_experiment_refuse_m_above_the_generators_limit(tmp_path):
    # the builders' memory grows with m squared
    wide = str(MAX_GEN_CANDIDATES + 1)
    result = CliRunner().invoke(main, ["gen", "--model", "ic", "--n", "1", "--m", wide])
    _assert_usage_error(result)
    assert f"m={wide} exceeds the generators' limit of {MAX_GEN_CANDIDATES} candidates" in result.output
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["experiment", "--m", wide, "--instances", "1", "--out", str(out)])
    _assert_usage_error(result)
    assert f"m={wide} exceeds the generators' limit" in result.output and not out.exists()
    result = CliRunner().invoke(main, ["gen", "--model", "ic", "--n", "2", "--m", str(MAX_GEN_CANDIDATES)])
    assert result.exit_code == 0 and result.stdout.startswith(f"2 {MAX_GEN_CANDIDATES} 1\n")


def test_experiment_unknown_model_or_rule_exit_two(tmp_path):
    out = tmp_path / "run"
    for option, value, message in (
        ("--models", "ic,bogus", "unknown model 'bogus'"),
        ("--rules", "pav,bogus", "--rules bogus: unknown rule 'bogus'"),
    ):
        result = CliRunner().invoke(main, ["experiment", option, value, "--out", str(out)])
        _assert_usage_error(result)
        assert message in result.output
    assert not out.exists()


def test_gen_k_above_m_exit_two():
    result = CliRunner().invoke(
        main, ["gen", "--model", "ic", "--n", "3", "--m", "3", "--k", "5"]
    )
    _assert_usage_error(result)
    assert "committee size k=5 not in [1, 3]" in result.output


def test_experiment_zero_voters_exit_two(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["experiment", "--n", "0", "--instances", "1", "--out", str(out)]
    )
    _assert_usage_error(result)
    assert "n and m must be at least 1" in result.output
    assert not out.exists()


def test_experiment_jobs_below_one_exit_two(tmp_path):
    out = tmp_path / "run"
    for jobs in ("0", "-3"):
        result = CliRunner().invoke(
            main, ["experiment", "--jobs", jobs, "--instances", "1", "--out", str(out)]
        )
        _assert_usage_error(result)
        assert "--jobs" in result.output
    assert not out.exists()


def test_experiment_rule_without_weight_exit_two(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["experiment", "--rules", "geom_pav", "--instances", "1", "--out", str(out)]
    )
    _assert_usage_error(result)
    assert "geom_pav requires a weight base" in result.output
    assert not out.exists()


def test_construct_alpha_tr_malformed_tree_exit_two(tmp_path):
    from irlab.model import Election

    e = Election.from_approvals([{0}, {0, 1}, {0}, {0, 1}], m=2, k=2)
    path = _write_profile(tmp_path, e)
    tree = tmp_path / "tree.json"
    for text, message in (
        ("not json", "not a readable JSON file"),
        ('{"children": [null, 1]}', "'parent' array has 2 entries"),
        ('{"parent": [null]}', "'parent' array has 2 entries"),
        ('{"parent": [null, "1"]}', "parent '1' is neither null nor in [1, 2]"),
        ('{"parent": [null, 0]}', "parent 0 is neither null nor in [1, 2]"),
        ('{"parent": [null, 3]}', "parent 3 is neither null nor in [1, 2]"),
    ):
        tree.write_text(text)
        result = CliRunner().invoke(
            main, ["construct", path, "--domain", "alpha-tr", "--tree", str(tree)]
        )
        _assert_usage_error(result)
        assert message in result.output
    # a cycle is a well-formed file that is no tree: an invalid witness, exit 1
    tree.write_text('{"parent": [2, 1]}')
    result = CliRunner().invoke(main, ["construct", path, "--domain", "alpha-tr", "--tree", str(tree)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.rstrip().splitlines() == ["Error: cycle through candidate 0"]


def test_directory_as_profile_or_tree_exit_two(tmp_path):
    result = CliRunner().invoke(main, ["fvec", str(tmp_path)])
    _assert_usage_error(result)
    path = _write_profile(tmp_path, two_camps_with_bridge())
    result = CliRunner().invoke(
        main, ["construct", path, "--domain", "alpha-tr", "--tree", str(tmp_path)]
    )
    _assert_usage_error(result)
    assert "not a readable JSON file" in result.output


def test_thousand_seat_searches_exit_without_traceback(tmp_path):
    # EJR, FJR, core and both solves search 1,000 levels deep at k = 1000
    runner = CliRunner()
    deep = _write_profile(
        tmp_path, Election.from_approvals([set(range(1999))], m=2000, k=1000), "deep.avp"
    )
    committee = ",".join(str(c) for c in [*range(1, 1000), 2000])
    for axiom in ("ejr", "fjr", "core"):
        result = runner.invoke(
            main, ["check", deep, "--committee", committee, "--axiom", axiom, "--json"]
        )
        assert result.exit_code == 0 and result.exception is None, result.output
        payload = json.loads(result.output)
        assert (payload["status"], payload["cost"]) == ("violated", 1001)
    wide = _write_profile(
        tmp_path, Election.from_approvals([set(range(1000))], m=1200, k=1000), "wide.avp"
    )
    for objective in ("ir", "ssjr"):
        result = runner.invoke(main, ["solve", wide, "--objective", objective])
        assert result.exit_code == 0 and result.exception is None, result.output
        assert json.loads(result.output)["status"] == "found"


def _mutate(rng, text):
    """One random line- or token-level edit of a profile's text."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.randrange(7)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2 and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(["0", "-1", "x", "99", "1.5", "1e3"])
        lines[i] = " ".join(tokens)
    elif kind == 3:
        header = [rng.choice(["0", "1", "7", "-2", "40"]) for _ in range(rng.randint(2, 4))]
        lines[0] = " ".join(header)
    elif kind == 4:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# note", "", "1 1", "\t3  "]))
    elif kind == 5:
        return text[: rng.randrange(len(text))]
    else:
        return "\r\n".join(lines) + "\r\n"
    return "\n".join(lines) + "\n"


def _fuzz_calls(rng, path, tree, out, m, k):
    """Every command on one profile: caps 1-3 and a large cap, every axiom,
    rule (with and without --all-tied) and construct domain."""
    committee = ",".join(str(c) for c in rng.sample(range(1, m + 1), rng.choice([k, k, k - 1])))
    calls = [["recognize", path], ["recognize", path, "--domain", "wsc", "--expect", "member"]]
    calls.append(["fvec", path, "--method", "vi"])
    for cap in ("1", "2", "3", "100000"):
        calls.append(["fvec", path, "--cap", cap])
        for axiom in sorted(AXIOM_NAMES):
            extra = ["--alpha", "3/2", "--beta", "1"] if axiom == "alpha-beta-ir" else []
            calls.append(
                ["check", path, "--committee", committee, "--axiom", axiom, "--json", "--cap", cap]
                + extra
            )
        for objective in ("ir", "ssjr", "min-beta", "min-alpha"):
            calls.append(["solve", path, "--objective", objective, "--cap", cap])
        calls.append(["experiment", "--models", "ic,urn", "--n", "6", "--m", "4", "--k-min", "2",
                      "--k-max", "3", "--instances", "1", "--rules", "seq_cc",
                      "--cap", cap, "--no-timing", "--out", out])
    for rule in sorted(RULE_NAMES):
        weight = ["--weight", "1/2"] if rule == "geom_pav" else []
        calls.append(["rule", path, "--rule", rule, *weight])
        calls.append(["rule", path, "--rule", rule, "--all-tied", *weight])
    for domain in ("cei", "tpart", "vei", "vi", "wsc"):
        calls.append(["construct", path, "--domain", domain])
    calls.append(["construct", path, "--domain", "alpha-tr", "--tree", tree])
    calls.append(["gen", "--model", rng.choice(MODELS), "--n", str(rng.randint(-1, 8)),
                  "--m", str(rng.randint(0, 6)), "--k", str(rng.randint(0, 7))])
    return calls


def test_cli_fuzz_exits_without_traceback(tmp_path):
    # seeded: six generated profiles get every call, thirty mutations of them
    # a random tenth of the calls each; every outcome is exit 0, 1 or 2
    rng = random.Random(67)
    runner = CliRunner()
    failures, runs = [], 0
    for j, model in enumerate(MODELS):
        m, k = rng.randint(4, 6), rng.randint(2, 4)
        election = generate(GenSpec(model=model, n=rng.randint(6, 10), m=m, seed=j), k=k)
        tree = tmp_path / f"tree{j}.json"
        tree.write_text(json.dumps({"parent": [None] + list(range(1, m))}))
        text = serialize_profile(election)
        for variant in range(6):
            path = tmp_path / f"p{j}_{variant}.avp"
            path.write_text(_mutate(rng, text) if variant else text)
            calls = _fuzz_calls(rng, str(path), str(tree), str(tmp_path / f"run{j}"), m, k)
            for args in calls if variant == 0 else rng.sample(calls, len(calls) // 10):
                result = runner.invoke(main, args)
                runs += 1
                if result.exit_code not in (0, 1, 2) or not (
                    result.exception is None or isinstance(result.exception, SystemExit)
                ):
                    failures.append((args, result.exit_code, repr(result.exception)))
    assert runs > 800
    assert not failures, failures


def test_check_capped_entitlements_exit_one_with_message(tmp_path):
    path = _write_profile(tmp_path, generate(GenSpec(model="ic", n=60, m=20, seed=1), k=6))
    for extra in (["--axiom", "ir"], ["--axiom", "alpha-beta-ir", "--alpha", "3/2", "--beta", "1"]):
        result = CliRunner().invoke(
            main, ["check", path, "--committee", "1,2,3,4,5,6", "--cap", "3", *extra]
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        [line] = result.output.rstrip().splitlines()
        assert line.startswith("Error: ") and "(cohesion.entitlements stopped after 4 nodes)" in line


# the golden digests run these fixtures, in this order, so that a new
# function in hard_instances moves none of them
_FIXTURE_NAMES = (
    "coverage_bait_instance",
    "disjoint_blocks_instance",
    "hamming_bait_instance",
    "load_bait_instance",
    "opposed_ends_instance",
    "pr_without_ir_instance",
    "ssjr_ejr_clash",
    "ssjr_not_pr_instance",
    "two_camps_with_bridge",
    "uncoverable_line_instance",
    "uneven_cohorts",
)


def _fixtures():
    return [(name, getattr(hard_instances, name)) for name in _FIXTURE_NAMES]


def test_solve_over_entitlements_prints_what_the_certificates_give(tmp_path, monkeypatch):
    # `irlab solve` reads the integer entitlements; on every shared fixture,
    # for every objective, its exit code and stdout equal those of the same
    # command over the f_vector certificates
    objectives = [["--objective", name] for name in ("ir", "ssjr", "min-beta", "min-alpha")]
    objectives += [
        ["--objective", "min-beta", "--alpha", "3/2"],
        ["--objective", "min-alpha", "--beta", "1"],
    ]
    paths = [_write_profile(tmp_path, fixture(), f"{name}.avp") for name, fixture in _fixtures()]
    runner = CliRunner()

    def outputs():
        return [
            (result.exit_code, result.stdout)
            for path in paths
            for args in objectives
            for result in [runner.invoke(main, ["solve", path, *args])]
        ]

    by_ints = outputs()
    monkeypatch.setattr(cli, "entitlements", lambda e, node_cap: f_vector(e, node_cap=node_cap))
    assert outputs() == by_ints
    assert len(by_ints) == 11 * 6 and {code for code, _ in by_ints} == {0}
    assert {json.loads(out)["status"] for _, out in by_ints} == {"found", "infeasible"}


def test_check_ir_prints_what_the_certificates_give(tmp_path, monkeypatch):
    # `irlab check` for IR and (alpha, beta)-IR reads the integer
    # entitlements and builds the first short voter's certificate alone; on
    # every shared fixture and the twelve 200- to 1,000-voter profiles, each
    # with a committee drawn at random, its exit code and stdout (plain and
    # --json) equal those of the same command read off all n f_vector
    # certificates by the oracle
    from instance_gen import scale_cases
    from oracles import check_given_certificates

    rng = random.Random(29)
    cases = [(fixture(), None) for _, fixture in _fixtures()]
    cases += [(e, members) for _, e, members in scale_cases()]
    runs = []
    for index, (election, members) in enumerate(cases):
        path = _write_profile(tmp_path, election, f"p{index}.avp")
        members = members or rng.sample(range(election.m), election.k)
        committee = ",".join(str(c + 1) for c in sorted(members))
        for axiom in (["ir"], ["alpha-beta-ir", "--alpha", "3/2", "--beta", "1"]):
            for fmt in ([], ["--json"]):
                runs.append(["check", path, "--committee", committee, "--axiom", *axiom, *fmt])
    runner = CliRunner()

    def outputs():
        return [(r.exit_code, r.stdout) for args in runs for r in [runner.invoke(main, args)]]

    by_ints = outputs()
    monkeypatch.setattr(
        cli.axioms,
        "check",
        lambda e, w, axiom, node_cap: check_given_certificates(
            e, w, axiom, f_vector(e, node_cap=node_cap)
        ),
    )
    assert outputs() == by_ints
    assert {code for code, _ in by_ints} == {0}
    statuses = Counter(json.loads(out)["status"] for _, out in by_ints[1::2])
    assert statuses["violated"] >= 12 and statuses["satisfied"] >= 6, statuses


def test_solve_decides_where_the_certificate_walk_hits_the_cap(tmp_path):
    # six voters, each missing a candidate of its own, k = 6: f_vector's walk
    # visits all 63 closed sets, the entitlement walk stops below the
    # saturated ones after 42, so --cap 42 decides and --cap 41 exits 1
    # naming the entitlement walk
    election = Election.from_approvals([set(range(6)) - {i} for i in range(6)], m=6, k=6)
    path = _write_profile(tmp_path, election)
    with pytest.raises(BudgetExceededError):
        f_vector(election, node_cap=42)
    result = CliRunner().invoke(main, ["solve", path, "--cap", "42"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {
        "status": "found", "committee": [1, 2, 3, 4, 5, 6], "alpha": "1", "beta": "0", "nodes": 5
    }
    result = CliRunner().invoke(main, ["solve", path, "--cap", "41"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    [line] = result.output.rstrip().splitlines()
    assert line.startswith("Error: ") and "(cohesion.entitlements stopped after 42 nodes)" in line


GOLDEN_RULE_OUTPUT_SHA256 = "489442adefb4fa88ae2ee09b14cff5abc78a68938bdc0e0f2abc3c5ba6212b6d"


def test_rule_output_matches_golden_digest(tmp_path):
    """`irlab rule` stdout for every rule, single and all-tied, on every shared
    fixture (sequential rules exit 2 under --all-tied)."""
    digest = hashlib.sha256()
    runs = 0
    for name, fixture in _fixtures():
        path = _write_profile(tmp_path, fixture(), f"{name}.avp")
        for rule in sorted(RULE_NAMES):
            weight = ["--weight", "1/2"] if rule == "geom_pav" else []
            for tied in ([], ["--all-tied"]):
                result = CliRunner().invoke(main, ["rule", path, "--rule", rule, *weight, *tied])
                digest.update(f"{name} {rule} {tied} {result.exit_code}\n".encode())
                if result.exit_code == 0:
                    digest.update(result.stdout.encode())
                runs += 1
    assert runs == 11 * len(RULE_NAMES) * 2
    assert digest.hexdigest() == GOLDEN_RULE_OUTPUT_SHA256


GOLDEN_CLI_SHA256 = "d944245619f3a7fa668cec7da6de61872260bf990f37eda41fb78e50b938e103"


def _golden_profiles():
    """Every shared fixture and six generated profiles, one per model."""
    profiles = [(name, fixture()) for name, fixture in _fixtures()]
    profiles += [
        (model, generate(GenSpec(model=model, n=24, m=8, seed=5), k=3 + index % 2))
        for index, model in enumerate(MODELS)
    ]
    return profiles


def test_entitlement_commands_match_golden_digest(tmp_path):
    """Exit code and stdout of `irlab fvec` (exact at caps 1, 3 and the
    default, and vi), `irlab check --json` for IR, semi-strong JR and
    (3/2, 1)-IR (default cap and cap 3) and `irlab solve` (ir and ssjr
    objectives) on every shared fixture and six generated profiles."""
    rng = random.Random(53)
    profiles = _golden_profiles()
    digest = hashlib.sha256()
    codes = Counter()
    for name, election in profiles:
        path = _write_profile(tmp_path, election, f"{name}.avp")
        committee = ",".join(str(c + 1) for c in sorted(rng.sample(range(election.m), election.k)))
        runs = [["fvec", path, "--method", "exact", *cap] for cap in (["--cap", "1"], ["--cap", "3"], [])]
        runs.append(["fvec", path, "--method", "vi"])
        for axiom in (["ir"], ["ssjr"], ["alpha-beta-ir", "--alpha", "3/2", "--beta", "1"]):
            for cap in ([], ["--cap", "3"]):
                runs.append(["check", path, "--committee", committee, "--axiom", *axiom, "--json", *cap])
        runs += [["solve", path, "--objective", objective] for objective in ("ir", "ssjr")]
        for args in runs:
            result = CliRunner().invoke(main, args)
            codes[args[0], result.exit_code] += 1
            digest.update(f"{name} {' '.join(args[2:])} {result.exit_code}\n".encode())
            digest.update(result.stdout.encode())
    # capped walks and non-VI profiles exit 1; solve always decides here
    assert codes[("fvec", 0)] > len(profiles) and codes[("fvec", 1)] and codes[("check", 1)]
    assert codes[("solve", 0)] == 2 * len(profiles)
    assert digest.hexdigest() == GOLDEN_CLI_SHA256


GOLDEN_SLACK_SHA256 = "3fa3c29260c07c9f35d30441b6280ecadccd805432509006c3e8292afaa307ae"


def test_slack_objectives_match_golden_digest(tmp_path):
    """Exit code and stdout of `irlab solve` for min-beta (alpha 1 and 3/2)
    and min-alpha (beta 0 and 1), at the default cap and at caps 1 and 3,
    on every shared fixture and six generated profiles."""
    objectives = (
        ["--objective", "min-beta"],
        ["--objective", "min-beta", "--alpha", "3/2"],
        ["--objective", "min-alpha"],
        ["--objective", "min-alpha", "--beta", "1"],
    )
    digest = hashlib.sha256()
    statuses = Counter()
    for name, election in _golden_profiles():
        path = _write_profile(tmp_path, election, f"{name}.avp")
        for objective in objectives:
            for cap in ([], ["--cap", "1"], ["--cap", "3"]):
                args = ["solve", path, *objective, *cap]
                result = CliRunner().invoke(main, args)
                digest.update(f"{name} {' '.join(args[2:])} {result.exit_code}\n".encode())
                digest.update(result.stdout.encode())
                status = json.loads(result.stdout)["status"] if result.exit_code == 0 else None
                statuses[result.exit_code, status] += 1
    # caps 1 and 3 mostly stop the entitlement walk (exit 1); every status occurs
    assert statuses == {
        (0, "found"): 76, (0, "infeasible"): 4, (0, "undecided"): 4, (1, None): 120
    }
    assert digest.hexdigest() == GOLDEN_SLACK_SHA256
