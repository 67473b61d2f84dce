import csv
import hashlib
import io
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import irlab.experiment as experiment
from irlab.experiment import (
    DEFAULT_MODELS,
    DEFAULT_RULES,
    ExperimentSpec,
    existence_rates,
    instance_seed,
    rows_to_csv,
    rule_rates,
    run_experiment,
    write_outputs,
)
from irlab.rules import RuleId
from irlab.solver import SolveResult

from oracles import run_instance_by_certificates, run_instance_probing_all

SMALL = ExperimentSpec(
    models=("ic", "urn"),
    n=12,
    m=8,
    k_values=(2, 3),
    instances=6,
    rules=(RuleId("seq_phragmen"), RuleId("seq_cc")),
    seed=5,
    include_timing=False,
)


def test_rows_shape_and_order():
    rows = run_experiment(SMALL)
    assert len(rows) == 2 * 2 * 6
    expected = [
        (model, k, instance_seed(5, model, k, i))
        for model in SMALL.models
        for k in SMALL.k_values
        for i in range(6)
    ]
    assert [(r.model, r.k, r.seed) for r in rows] == expected
    # found_ir implies ir_exists whenever both are decided
    for row in rows:
        for _, found_ir, found_ssjr in row.rule_hits:
            if row.ir_exists is not None and found_ir:
                assert row.ir_exists
            if row.ssjr_exists is not None and found_ssjr:
                assert row.ssjr_exists


def test_csv_round_trip_and_determinism():
    rows1 = run_experiment(SMALL)
    rows2 = run_experiment(SMALL)
    text1 = rows_to_csv(SMALL, rows1)
    text2 = rows_to_csv(SMALL, rows2)
    assert text1 == text2  # byte-identical under --no-timing
    parsed = list(csv.DictReader(io.StringIO(text1)))
    assert len(parsed) == len(rows1)
    assert set(parsed[0]) == {
        "model",
        "k",
        "seed",
        "ir_exists",
        "ssjr_exists",
        "seq_phragmen_ir",
        "seq_phragmen_ssjr",
        "seq_cc_ir",
        "seq_cc_ssjr",
        "undecided",
        "ms",
    }
    for record in parsed:
        if record["ir_exists"] != "" and record["seq_phragmen_ir"] == "1":
            assert record["ir_exists"] == "1"


def test_parallel_jobs_same_rows():
    serial = run_experiment(SMALL)
    parallel = run_experiment(
        ExperimentSpec(**{**SMALL.__dict__, "jobs": 2})
    )
    strip = lambda rows: [
        (r.model, r.k, r.seed, r.ir_exists, r.ssjr_exists, r.rule_hits, r.undecided)
        for r in rows
    ]
    assert strip(serial) == strip(parallel)


def test_jobs_below_one_rejected():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ExperimentSpec(**{**SMALL.__dict__, "jobs": jobs})


def test_pool_size_clamped_to_tasks_and_cpus(monkeypatch):
    """The pool never has more workers than tasks or CPUs; a fake pool that
    maps in process records the size, so no worker is started."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(experiment, "Pool", FakePool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    tiny = dict(models=("ic",), n=6, m=4, k_values=(2,), seed=2, include_timing=False)
    spec = ExperimentSpec(**tiny, instances=3)
    serial = rows_to_csv(spec, run_experiment(spec))
    assert sizes == []
    pooled = ExperimentSpec(**tiny, instances=3, jobs=1000)
    assert rows_to_csv(pooled, run_experiment(pooled)) == serial
    run_experiment(ExperimentSpec(**tiny, instances=9, jobs=1000))
    run_experiment(ExperimentSpec(**tiny, instances=9, jobs=2))
    run_experiment(ExperimentSpec(**tiny, instances=1, jobs=8))
    assert sizes == [3, 4, 2]


def test_rules_grid_golden_digest():
    """SHA-256 of the rules-on results.csv bytes: every model, k in
    {2, 3, 4, 12}, two instances per cell, the default rules plus SAV and CC.
    Any change to generation, entitlements, the solver, a rule or the probe
    that alters a single cell changes the digest."""
    spec = ExperimentSpec(
        models=DEFAULT_MODELS,
        k_values=(2, 3, 4, 12),
        instances=2,
        rules=tuple(RuleId(r) for r in (*DEFAULT_RULES, "sav", "cc")),
        include_timing=False,
    )
    text = rows_to_csv(spec, run_experiment(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fa03e463d858ef9b6328a0847b606205b9780c36fa77328e224697f45e65d90c"
    )


def test_summaries_and_outputs(tmp_path):
    rows = run_experiment(SMALL)
    rates = existence_rates(rows)
    assert set(rates) == {(m, k) for m in SMALL.models for k in SMALL.k_values}
    for r in rates.values():
        assert 0 <= r["ir_rate"] <= r["ssjr_rate"] <= 1
    rrates = rule_rates(rows)
    assert ("ic", "seq_cc") in rrates
    write_outputs(SMALL, rows, tmp_path)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "summary_existence.csv").exists()
    assert (tmp_path / "summary_rules.csv").exists()
    plot = (tmp_path / "plot_ir_existence.dat").read_text().splitlines()
    assert plot[0].startswith("#")
    assert len(plot) == 1 + len(SMALL.k_values)


def test_tiny_node_cap_records_undecided_without_aborting():
    spec = ExperimentSpec(
        models=("euclid_2d",),
        n=30,
        m=14,
        k_values=(6,),
        instances=4,
        seed=3,
        node_cap=3,
        include_timing=False,
    )
    rows = run_experiment(spec)
    assert len(rows) == 4
    assert all(r.undecided for r in rows)
    assert all(r.ir_exists is None and r.ssjr_exists is None for r in rows)
    text = rows_to_csv(spec, rows)
    assert ",,," in text  # empty existence cells survive the round trip


def test_rows_match_the_certificate_path_at_every_cap():
    """The entitlements path decides every cell that the path over f_vector
    certificates decides, the same way, and leaves a row undecided only where
    that path does: its walk never visits more closed sets."""
    undecided = {}
    for cap in (2, 3, 5, 10, 30, 10**6):
        spec = ExperimentSpec(
            instances=5,
            rules=(RuleId("av"), RuleId("seq_phragmen")),
            node_cap=cap,
            include_timing=False,
        )
        tasks = [
            (spec, model, k, index)
            for model in spec.models
            for k in spec.k_values
            for index in range(spec.instances)
        ]
        old = [run_instance_by_certificates(task) for task in tasks]
        new = run_experiment(spec)
        for before, after in zip(old, new, strict=True):
            assert (after.model, after.k, after.seed) == (before.model, before.k, before.seed)
            for cell in ("ir_exists", "ssjr_exists"):
                if getattr(before, cell) is not None:
                    assert getattr(after, cell) == getattr(before, cell), (cap, before)
            assert before.undecided or not after.undecided, (cap, before)
            if not before.undecided:
                assert after.rule_hits == before.rule_hits, (cap, before)
        undecided[cap] = (sum(r.undecided for r in old), sum(r.undecided for r in new))
    assert undecided[10**6] == (0, 0), undecided
    assert any(after < before for before, after in undecided.values()), undecided


def test_rows_match_probing_every_vector(monkeypatch):
    """Skipping the demand vectors the solver proved infeasible changes no
    field of any row but ``ms``, at caps that leave rows undecided and at
    the default cap; every pruning branch is taken."""
    rules = tuple(RuleId(r) for r in (*DEFAULT_RULES, "sav", "cc"))
    branches = Counter()
    widths = []  # the number of vectors of each probe of the current instance
    real_probe, real_instance = experiment.probe, experiment._run_instance

    def counted_probe(election, rule, wanted):
        widths.append(len(wanted))
        return real_probe(election, rule, wanted)

    def instance(task):
        widths.clear()
        row = real_instance(task)
        assert len(widths) in (0, len(rules)) and len(set(widths)) <= 1, widths
        if not widths:
            closed = row.ssjr_exists is False
            branches["both infeasible" if closed else "entitlements capped"] += 1
        elif widths[0] == 2:
            branches["both probed"] += 1
        else:
            branches["IR alone infeasible" if row.ir_exists is False else "equal vectors"] += 1
        branches["undecided, probed"] += bool(widths) and row.undecided
        return row

    monkeypatch.setattr(experiment, "probe", counted_probe)
    monkeypatch.setattr(experiment, "_run_instance", instance)
    for cap in (2, 5, 30, 10**6):
        spec = ExperimentSpec(
            k_values=(2, 3, 4, 12), instances=3, rules=rules, node_cap=cap, include_timing=False
        )
        tasks = [
            (spec, model, k, index)
            for model in spec.models
            for k in spec.k_values
            for index in range(spec.instances)
        ]
        expected = [run_instance_probing_all(task) for task in tasks]
        assert [replace(row, ms=0) for row in run_experiment(spec)] == expected, cap
    # an undecided verdict closes no vector: with every solve undecided the
    # hits are still the ones probing both vectors gives
    undecided = (SolveResult("undecided", None, None, None, 0),) * 2
    monkeypatch.setattr(experiment, "find_ir_and_ssjr", lambda *args: undecided)
    assert [row.rule_hits for row in run_experiment(spec)] == [row.rule_hits for row in expected]
    assert any(found for row in expected for _, *hits in row.rule_hits for found in hits)
    for branch in (
        "both infeasible",
        "IR alone infeasible",
        "equal vectors",
        "both probed",
        "undecided, probed",
    ):
        assert branches[branch] >= 1, branches


def test_rule_listed_twice_rejected():
    for names in (("av", "av"), ("seq_cc", "pav", "seq_cc")):
        with pytest.raises(ValueError, match=f"rule {names[-1]} is listed twice"):
            ExperimentSpec(**{**SMALL.__dict__, "rules": tuple(RuleId(r) for r in names)})
    half, third = (RuleId("geom_pav", weight=Fraction(1, q)) for q in (2, 3))
    with pytest.raises(ValueError, match=r"rule geom_pav\[1/2\] is listed twice"):
        ExperimentSpec(**{**SMALL.__dict__, "rules": (half, third, half)})
    assert ExperimentSpec(**{**SMALL.__dict__, "rules": (half, third)}).rules == (half, third)


def test_enumeration_cap_checked_before_any_instance(monkeypatch):
    """An exact rule over the committee cap at some k aborts the run before
    the first instance, whatever the instances would have probed; AV, SAV
    and the sequential rules search no C(m, k) committees and pass."""
    ran = []
    monkeypatch.setattr(experiment, "_run_instance", ran.append)
    capped = [RuleId(kind) for kind in ("pav", "cc", "monroe", "minimax_av", "max_phragmen")]
    for rule in (*capped, RuleId("geom_pav", weight=Fraction(1, 2))):
        spec = ExperimentSpec(
            models=("ic",), n=10, m=40, k_values=(1, 12), instances=1, rules=(rule,)
        )
        with pytest.raises(RuntimeError, match=r"C\(40,12\) exceeds the committee enumeration"):
            run_experiment(spec)
    assert ran == []
    for kind in ("av", "sav", "seq_pav"):
        spec = ExperimentSpec(
            models=("ic",), n=10, m=40, k_values=(12,), instances=1, rules=(RuleId(kind),)
        )
        run_experiment(spec)
    assert len(ran) == 3


def test_seed_derivation_stable():
    assert instance_seed(1, "ic", 2, 0) == instance_seed(1, "ic", 2, 0)
    assert instance_seed(1, "ic", 2, 0) != instance_seed(1, "ic", 2, 1)
    assert instance_seed(1, "ic", 2, 0) != instance_seed(2, "ic", 2, 0)


def test_reduced_scale_rule_probe_regression():
    """Qualitative per-rule ordering at desk scale: the PAV family and
    seq-Phragmen find IR committees markedly more often than seq-CC, and
    seq-CC still finds semi-strong JR committees in most solvable instances."""
    spec = ExperimentSpec(
        models=("ic",),
        n=24,
        m=12,
        k_values=(4, 6),
        instances=40,
        rules=(RuleId("seq_cc"), RuleId("seq_phragmen"), RuleId("seq_pav")),
        seed=11,
        include_timing=False,
    )
    rows = run_experiment(spec)
    ir_possible = [r for r in rows if r.ir_exists]
    ssjr_possible = [r for r in rows if r.ssjr_exists]
    assert ir_possible and ssjr_possible

    def hit_rate(rule, field, bucket):
        idx = {"ir": 1, "ssjr": 2}[field]
        by_rule = lambda row: {h[0]: h for h in row.rule_hits}[rule][idx]
        return sum(1 for r in bucket if by_rule(r)) / len(bucket)

    assert (
        hit_rate("seq_pav", "ir", ir_possible)
        >= hit_rate("seq_phragmen", "ir", ir_possible)
        > hit_rate("seq_cc", "ir", ir_possible)
    )
    assert hit_rate("seq_cc", "ssjr", ssjr_possible) >= 0.7
