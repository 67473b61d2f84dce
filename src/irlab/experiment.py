"""Batch experiment harness: existence rates and rule hit rates over models.

For every (model, committee size, instance) triple the harness generates a
profile, computes the exact entitlements f_i (``cohesion.entitlements``: the
values alone, no witness certificates), decides IR and semi-strong JR
existence on them (``solver.find_ir_and_ssjr``), and optionally probes a list
of voting rules: per rule, ``rules.probe`` says whether some winner meets the
demands f and whether some winner meets the semi-strong JR demands
min(f, 1), testing tied winners on the lanes of the rule's search rather
than listing them.  Only the vectors the solver left open are probed: one it
proved infeasible is met by no k-committee, so by no winner, and its hits are
False unprobed (no committee meeting min(f, 1) means none meets f either);
where every f_i <= 1 the two vectors are one and are probed once.  So the
rows are the ones probing both vectors would give.

Results stream into a CSV whose rows are keyed by a per-instance seed
derived from the base seed, so output is byte-identical across runs and
independent of the parallelism degree (rows are order-normalized before
writing; the worker pool is never larger than the number of instances or of
CPUs).
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .cohesion import entitlements
from .search import BudgetExceededError
from .gen import GenSpec, generate
from .rules import RuleId, enumeration_guard, probe
from .solver import demands, find_ir_and_ssjr

DEFAULT_MODELS = ("vi_euclid", "ci_euclid", "euclid_2d", "ic", "urn", "mallows")
DEFAULT_RULES = (
    "av",
    "pav",
    "seq_pav",
    "greedy_monroe",
    "rule_x",
    "seq_phragmen",
    "seq_cc",
)

# Radius scales re-calibrated for the desk-scale grid (n=40, m=16) so the
# existence curves keep their qualitative shape at this size (voter-interval
# and urn near 1, candidate-interval near 0 until k grows large, 2D in
# between).  The generator defaults themselves keep the original constants.
DESK_SCALE_GEN_PARAMS: Mapping[str, Mapping[str, object]] = {
    "vi_euclid": {"sigma": 0.10},
    "ci_euclid": {"sigma": 0.45},
}


@dataclass(frozen=True)
class ExperimentSpec:
    models: tuple[str, ...] = DEFAULT_MODELS
    n: int = 40
    m: int = 16
    k_values: tuple[int, ...] = tuple(range(2, 13))
    instances: int = 300
    rules: tuple[RuleId, ...] = ()
    seed: int = 1
    jobs: int = 1
    node_cap: int = 10**6
    include_timing: bool = True
    gen_params: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: DESK_SCALE_GEN_PARAMS
    )

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for k in self.k_values:
            if not 1 <= k <= self.m:
                raise ValueError(f"k={k} outside [1, {self.m}]")
        for model in self.models:  # the generators' checks: model name, m at most their limit
            GenSpec(model=model, n=self.n, m=self.m, seed=0, params=self.gen_params.get(model, {}))
        for j, rule in enumerate(self.rules):
            if rule in self.rules[:j]:
                raise ValueError(f"rule {rule} is listed twice")


@dataclass(frozen=True)
class ExperimentRow:
    model: str
    k: int
    seed: int
    ir_exists: bool | None  # None when undecided
    ssjr_exists: bool | None
    rule_hits: tuple[tuple[str, bool, bool], ...]  # (rule, found_ir, found_ssjr)
    undecided: bool
    ms: int


def instance_seed(base_seed: int, model: str, k: int, index: int) -> int:
    key = f"{base_seed}:{model}:{k}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _run_instance(args) -> ExperimentRow:
    spec, model, k, index = args
    seed = instance_seed(spec.seed, model, k, index)
    t0 = time.perf_counter()
    gspec = GenSpec(
        model=model,
        n=spec.n,
        m=spec.m,
        seed=seed,
        params=dict(spec.gen_params.get(model, {})),
    )
    election = generate(gspec, k=k)
    try:
        f = entitlements(election, spec.node_cap)
    except BudgetExceededError:
        # without entitlements nothing about this instance is decidable;
        # record the row as undecided rather than aborting the batch
        ir_exists = ssjr_exists = None
        rule_hits = tuple((str(rule), False, False) for rule in spec.rules)
    else:
        ir_res, ssjr_res = find_ir_and_ssjr(election, f, spec.node_cap)
        ir_exists = None if ir_res.status == "undecided" else ir_res.status == "found"
        ssjr_exists = None if ssjr_res.status == "undecided" else ssjr_res.status == "found"
        rule_hits = (
            _probe_open(election, spec.rules, f, ir_exists, ssjr_exists) if spec.rules else ()
        )
    return ExperimentRow(
        model=model,
        k=k,
        seed=seed,
        ir_exists=ir_exists,
        ssjr_exists=ssjr_exists,
        rule_hits=rule_hits,
        undecided=ir_exists is None or ssjr_exists is None,
        ms=int((time.perf_counter() - t0) * 1000),
    )


def _probe_open(
    election, rules: Sequence[RuleId], f: list[int], ir_exists, ssjr_exists
) -> tuple[tuple[str, bool, bool], ...]:
    """Per rule, (rule, found_ir, found_ssjr), probing only the demand
    vectors the verdicts leave open (see the module docstring): min(f, 1)
    infeasible closes f too, as f_i >= min(f_i, 1), and None closes nothing.
    """
    if ssjr_exists is False:
        return tuple((str(rule), False, False) for rule in rules)
    ssjr = demands(f, "FIND_SSJR")
    if ir_exists is False:
        return tuple((str(rule), False, *probe(election, rule, (ssjr,))) for rule in rules)
    if ssjr == f:
        return tuple((str(rule), *probe(election, rule, (f,)) * 2) for rule in rules)
    return tuple((str(rule), *probe(election, rule, (f, ssjr))) for rule in rules)


def run_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """All rows, ordered by (model, k, instance index) regardless of jobs.

    Raises RuntimeError before any instance runs when an exact rule's search
    over all C(m, k) committees exceeds the enumeration cap at some k, so
    whether a run aborts does not depend on which instances are probed.
    The AV and SAV probes search only their tied pool: their cap depends on
    the ties and is checked in the probe.
    """
    for rule in spec.rules:
        for k in spec.k_values:
            enumeration_guard(rule, spec.m, k)
    tasks = [
        (spec, model, k, index)
        for model in spec.models
        for k in spec.k_values
        for index in range(spec.instances)
    ]
    workers = 1 if spec.jobs == 1 else min(spec.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_run_instance, tasks, chunksize=16)
    else:
        rows = [_run_instance(t) for t in tasks]
    return rows


def csv_header(spec: ExperimentSpec) -> list[str]:
    cols = ["model", "k", "seed", "ir_exists", "ssjr_exists"]
    for rule in spec.rules:
        cols.append(f"{rule}_ir")
        cols.append(f"{rule}_ssjr")
    cols += ["undecided", "ms"]
    return cols


def rows_to_csv(spec: ExperimentSpec, rows: Sequence[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header(spec))

    def flag(b: bool | None) -> str:
        return "" if b is None else str(int(b))

    for row in rows:
        record = [
            row.model,
            row.k,
            row.seed,
            flag(row.ir_exists),
            flag(row.ssjr_exists),
        ]
        for _, found_ir, found_ssjr in row.rule_hits:
            record.append(int(found_ir))
            record.append(int(found_ssjr))
        record.append(int(row.undecided))
        record.append(row.ms if spec.include_timing else 0)
        writer.writerow(record)
    return buf.getvalue()


EXISTENCE_RATES = ("ir_rate", "ssjr_rate", "undecided_rate")
RULE_RATES = ("ir_found_rate", "ssjr_found_rate")


def _flag_shares(keyed_flags: Iterable[tuple[tuple, tuple]], names: Sequence[str]) -> dict:
    """Per key: the share of its flag tuples with each flag set, under ``names``."""
    grouped: dict[tuple, list[tuple]] = {}
    for key, flags in keyed_flags:
        grouped.setdefault(key, []).append(flags)
    return {
        key: {name: sum(1 for f in bucket if f[j]) / len(bucket) for j, name in enumerate(names)}
        for key, bucket in grouped.items()
    }


def existence_rates(rows: Sequence[ExperimentRow]) -> dict[tuple[str, int], dict[str, float]]:
    """Per (model, k): fraction of instances admitting IR / semi-strong JR.

    Undecided instances count toward the denominator and never the numerator.
    """
    flags = (((r.model, r.k), (r.ir_exists, r.ssjr_exists, r.undecided)) for r in rows)
    return _flag_shares(flags, EXISTENCE_RATES)


def rule_rates(rows: Sequence[ExperimentRow]) -> dict[tuple[str, str], dict[str, float]]:
    """Per (model, rule), averaged over all k: hit ratio for IR and ssJR."""
    flags = (((r.model, rule), hits) for r in rows for rule, *hits in r.rule_hits)
    return _flag_shares(flags, RULE_RATES)


def _write_summary(path: Path, key_columns: Sequence[str], names: Sequence[str], rates) -> None:
    """One row per key in sorted order: the key, then each rate to 4 places."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*key_columns, *names])
        for key in sorted(rates):
            writer.writerow([*key, *(f"{rates[key][name]:.4f}" for name in names)])


def write_outputs(spec: ExperimentSpec, rows: Sequence[ExperimentRow], out_dir) -> None:
    """results.csv plus summary tables and gnuplot-ready existence curves."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(rows_to_csv(spec, rows))
    rates = existence_rates(rows)
    _write_summary(out / "summary_existence.csv", ("model", "k"), EXISTENCE_RATES, rates)
    if spec.rules:
        _write_summary(out / "summary_rules.csv", ("model", "rule"), RULE_RATES, rule_rates(rows))

    plots = (("ir_rate", "plot_ir_existence.dat"), ("ssjr_rate", "plot_ssjr_existence.dat"))
    for metric, name in plots:
        with (out / name).open("w") as fh:
            fh.write(f"# columns: k then {metric} per model: {' '.join(spec.models)}\n")
            for k in spec.k_values:
                cells = [f"{rates[(model, k)][metric]:.4f}" for model in spec.models]
                fh.write(" ".join([str(k), *cells]) + "\n")
