#!/usr/bin/env python3
"""Run one workload of the irlab benchmark and print its metrics.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ``irlab`` from the
checkout's ``src/`` and nothing else.  Set-up (imports, input generation,
``.avp`` files, warm-up) is untimed and repeated; the timed section runs
whole rounds of the workload until ``--seconds`` have elapsed; the
correctness gate runs after it.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of stdout is one JSON object; lines before it give each metric with its sample
count and a record of the run.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "irlab-bench"
SETUP_REPEATS = 3

# Times are reported in reference seconds: each interval is scaled by
# CAL_REFERENCE_NS over the time the calibration kernel took around it.  The
# host this runs on changes speed by 20-30 % within minutes; the scaling
# removes most of that, so runs on different seeds and at different times
# compare.  CAL_REFERENCE_NS is the kernel's time on an idle 2-core VM, so a
# reference second is about a wall second there.
CAL_REFERENCE_NS = 1_200_000
CAL_EVERY_NS = 200_000_000

END_TO_END = {
    "throughput_ops_s": "ops/ref_s",
    "latency_p50_ms": "ref_ms",
    "latency_tail_ms": "ref_ms",
    "decided_rate": "ratio",
    "setup_s": "s",  # in reference seconds too; the benchmark format fixes this unit
    "peak_rss_mb": "MB",
}

RULES = ("av", "pav", "seq_pav", "greedy_monroe", "rule_x", "seq_phragmen", "seq_cc")
AXIOMS = ("IR", "SSJR", "ALPHA_BETA_IR", "JR", "EJR", "PJR", "FJR", "CORE", "PERFECT_REP")
COMMANDS = ("gen", "fvec", "solve", "rule", "check", "recognize", "construct")

PER_LAYER = {
    "gen.generate.self_s": "ref_s",
    "cohesion.f_vector.self_s": "ref_s",
    "cohesion.f_vector.calls": "count",
    "cohesion.f_vector.capped": "count",
    **{f"solver.find_committee.{o}.self_s": "ref_s" for o in ("FIND_IR", "FIND_SSJR", "MIN_BETA")},
    "solver.nodes": "count",
    "solver.undecided": "count",
    **{f"axioms.check.{a}.self_s": "ref_s" for a in AXIOMS},
    "axioms.nodes": "count",
    "axioms.undecided": "count",
    **{f"rules.run_rule.{r}.self_s": "ref_s" for r in RULES},
    "rules.committees": "count",
    "domains.recognize.self_s": "ref_s",
    "domains.recognize.hits": "count",
    "domains.recognize.attempts": "count",
    "c1p.consecutive_ones_order.self_s": "ref_s",
    "domains.construct.self_s": "ref_s",
    "model.parse_profile.self_s": "ref_s",
    "model.serialize_profile.self_s": "ref_s",
    **{f"cli.{c}.latency_p50_ms": "ref_ms" for c in COMMANDS},
    "cli.self_s": "ref_s",
    "experiment.self_s": "ref_s",
    "trace.untraced_round_s": "ref_s",
    "trace.traced_round_s": "ref_s",
    "trace.overhead_s": "ref_s",
    "trace.overhead_share": "ratio",
}

# span names whose self time a per-layer metric sums, where not "<metric minus .self_s>"
SELF_SPANS = {
    "experiment.self_s": lambda name: name == "experiment.run_experiment",
    "cli.self_s": lambda name: name == "cli" or name.startswith("cli."),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> int:
    """Nanoseconds for a fixed pure-Python kernel (integers, a dict, a list,
    a sort) that calls no irlab code, so no change to irlab can move it."""
    t0 = time.perf_counter_ns()
    table = {}
    items = []
    total = 0
    for i in range(10000):
        total += (i * i) % 7
        table[i & 255] = total
        if i & 7 == 0:
            items.append((i, total))
    items.sort(key=lambda item: -item[1])
    return time.perf_counter_ns() - t0


def run_rounds(workload, rounds, seconds, seen, tracer=None):
    """Whole rounds, in turn from round 0, until ``seconds`` have elapsed (at
    least one).  The calibration kernel runs between operations every
    ``CAL_EVERY_NS``; an operation's scale is the reference time over the mean
    of the calibrations before and after it.  ``seen`` maps a round to its
    first outcomes; a repeat is compared with them and not kept, so memory
    does not grow with the number of rounds run."""
    executed = []
    start = time.perf_counter()
    while not executed or time.perf_counter() - start < seconds:
        index = len(executed) % len(rounds)
        outcomes, samples = [], []
        first_span = 0
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.counts.clear()
        calibrations = [(0, calibrate())]
        last = time.perf_counter_ns()
        for op in rounds[index]:
            if time.perf_counter_ns() - last > CAL_EVERY_NS:
                calibrations.append((len(samples), calibrate()))
                last = time.perf_counter_ns()
            t0 = time.perf_counter_ns()
            if tracer is None:
                outcomes.append(workload.run(op))
            else:
                tracer.op += 1
                span = tracer.begin(workload.root_span)
                outcomes.append(workload.run(op))
                tracer.end(span)
            samples.append(time.perf_counter_ns() - t0)
        calibrations.append((len(samples), calibrate()))
        scales = []
        for (i0, c0), (i1, c1) in zip(calibrations, calibrations[1:]):
            scales += [2 * CAL_REFERENCE_NS / (c0 + c1)] * (i1 - i0)
        repeat_ok = seen.setdefault(index, outcomes) == outcomes
        record = {
            "round": index,
            "outcomes": seen[index],
            "repeat_ok": repeat_ok,
            "wall_ms": [ns / 1e6 for ns in samples],
            "ref_ms": [ns / 1e6 * f for ns, f in zip(samples, scales)],
        }
        if tracer is not None:
            scale = sum(record["ref_ms"]) / sum(record["wall_ms"])
            record["self_s"] = {k: v * scale for k, v in tracer.self_times(first_span).items()}
            record["counts"] = dict(tracer.counts)
        executed.append(record)
    return executed


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def statuses(workload, rounds, executed):
    return [
        workload.status(op, out)
        for record in executed
        for op, out in zip(rounds[record["round"]], record["outcomes"])
    ]


def gate(workload, rounds, executed, reference, workdir):
    """A repeated round gives the same outcomes; each round executed matches
    the reference and passes the re-check."""
    problems = [
        f"round {r['round']} gave other outcomes when repeated"
        for r in executed
        if not r["repeat_ok"]
    ]
    first = {r["round"]: r["outcomes"] for r in executed}
    for index, outcomes in sorted(first.items()):
        ops = rounds[index]
        found = workload.compare(ops, outcomes, reference["rounds"][index])
        found += workload.recheck(ops, outcomes, workdir)
        problems += [f"round {index}: {p}" for p in found]
    return problems


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "irlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end_metrics(workload, rounds, executed, setup_s):
    samples = sorted(ms for r in executed for ms in r["ref_ms"])
    wall_ms = sorted(ms for r in executed for ms in r["wall_ms"])
    status = statuses(workload, rounds, executed)
    decided = status.count("decided")
    tail, beyond = nearest_rank(samples, workload.tail_percentile)
    values = {
        "throughput_ops_s": len(samples) / (sum(samples) / 1e3),
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": tail,
        "decided_rate": decided / len(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "throughput_ops_s": f"samples={len(samples)} rounds={len(executed)} "
        f"wall={len(wall_ms) / (sum(wall_ms) / 1e3):.6g}ops/s",
        "latency_p50_ms": f"samples={len(samples)} wall={statistics.median(wall_ms):.6g}ms",
        "latency_tail_ms": f"percentile=p{workload.tail_percentile} samples={len(samples)} "
        f"beyond={beyond} wall={nearest_rank(wall_ms, workload.tail_percentile)[0]:.6g}ms",
        "decided_rate": f"decided={decided} attempted={len(samples)} "
        f"undecided={status.count('undecided')} errors={status.count('error')}",
        "setup_s": f"samples={SETUP_REPEATS} (median set-up plus one import)",
        "peak_rss_mb": "samples=1 (ru_maxrss after the timed section)",
    }
    return values, notes


def per_layer_metrics(workload, rounds, untraced, traced, repeat):
    """Self times per round (median over the traced rounds), counters of
    round 0, per-command latency from the untraced rounds, tracing overhead."""
    problems = []
    counts = traced[0]["counts"]
    if repeat["counts"] != counts:
        problems.append("deterministic counters differ when round 0 is repeated")
    by_command = defaultdict(list)
    for record in untraced:
        for op, ms in zip(rounds[record["round"]], record["ref_ms"]):
            by_command[workload.command(op)].append(ms)
    untraced_round = statistics.median(sum(r["ref_ms"]) / 1e3 for r in untraced)
    traced_round = statistics.median(sum(r["ref_ms"]) / 1e3 for r in traced)
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            match = SELF_SPANS.get(name, lambda span, target=name[: -len(".self_s")]: span == target)
            values[name] = statistics.median(
                sum(v for span, v in r["self_s"].items() if match(span)) for r in traced
            )
        elif name.endswith(".latency_p50_ms"):
            command = name.split(".")[1]
            values[name] = statistics.median(by_command[command]) if by_command[command] else 0.0
        elif not name.startswith("trace."):
            values[name] = counts.get(name, 0)
    values["trace.untraced_round_s"] = untraced_round
    values["trace.traced_round_s"] = traced_round
    values["trace.overhead_s"] = traced_round - untraced_round
    values["trace.overhead_share"] = traced_round / untraced_round - 1
    notes = {
        "trace": f"untraced_rounds={len(untraced)} traced_rounds={len(traced)} "
        f"ops_per_round={len(rounds[0])}"
    }
    return values, notes, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "irlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'irlab'} not found; run inside a checkout of irlab", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    before = calibrate()
    t0 = time.perf_counter_ns()
    import irlab
    import tracing
    import workloads

    import_s = (time.perf_counter_ns() - t0) / 1e9 * 2 * CAL_REFERENCE_NS / (before + calibrate())
    if Path(irlab.__file__).resolve().parent != (SRC / "irlab").resolve():
        print(f"error: imported irlab from {irlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    pool_index = args.seed % workloads.POOL
    reference = workloads.load_reference(args.workload)["seeds"][str(pool_index)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            before = calibrate()
            t0 = time.perf_counter_ns()
            workload = workloads.WORKLOADS[args.workload]()
            rounds = workload.setup(pool_index, workdir)
            wall = (time.perf_counter_ns() - t0) / 1e9
            setup_times.append(wall * 2 * CAL_REFERENCE_NS / (before + calibrate()))
        setup_s = import_s + statistics.median(setup_times)

        seen = {}
        if args.trace == 0:
            executed = run_rounds(workload, rounds, args.seconds, seen)
            values, notes = end_to_end_metrics(workload, rounds, executed, setup_s)
            units = END_TO_END
            problems = []
        else:
            tracer = tracing.Tracer()
            untraced = run_rounds(workload, rounds, args.seconds / 2, seen)
            tracer.install(workloads.cli_main)
            try:
                traced = run_rounds(workload, rounds, args.seconds / 2, seen, tracer)
                repeat = run_rounds(workload, rounds[:1], 0, seen, tracer)[0]
            finally:
                tracer.uninstall()
            tracer.write_spans(records / f"{stem}-spans.csv")
            executed = untraced + traced + [repeat]
            values, notes, problems = per_layer_metrics(workload, rounds, untraced, traced, repeat)
            units = PER_LAYER
        problems += gate(workload, rounds, executed, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["outcomes"]) for r in executed)
    failed = statuses(workload, rounds, executed).count("error")
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "pool_index": pool_index,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "import_s": import_s,
        "setup_runs_s": setup_times,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (records / f"{stem}.json").write_text(
        json.dumps({"run": run, "metrics": metrics, "notes": notes, "problems": problems}, indent=1)
    )
    print("run " + json.dumps(run))
    for name, unit in units.items():
        print(f"metric {name} {values[name]:.6g} {unit} {notes.get(name, '')}".rstrip())
    if args.trace:
        print(f"trace {notes['trace']}")
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
