#!/usr/bin/env python3
"""Record the reference answers the benchmark's correctness gate compares with.

    python3 bench/record.py --workload grid

Runs every round of the workload once, untimed, for every pool index; re-checks the
outcomes by direct counting, and writes ``bench/reference/<workload>.json``.
Record once, on the commit whose answers are the reference; a later change
that alters an answer then fails the gate instead of rewriting the file.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import sys
import time

import run


def dumps(reference: dict) -> str:
    """Indented JSON with every innermost list on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    factory = workloads.WORKLOADS[args.workload]
    workdir = run.WORK / f"record-{args.workload}"
    seeds = {}
    try:
        for pool_index in range(workloads.POOL):
            t0 = time.perf_counter()
            workload = factory()
            digests = []
            for ops in workload.setup(pool_index, workdir):
                outcomes = [workload.run(op) for op in ops]
                problems = workload.recheck(ops, outcomes, workdir)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                digests.append(workload.digest(ops, outcomes))
                statuses = [workload.status(op, out) for op, out in zip(ops, outcomes)]
                print(f"{args.workload} pool {pool_index} round {len(digests) - 1}: "
                      f"{len(ops)} ops, {statuses.count('undecided')} undecided", file=sys.stderr)
            seeds[str(pool_index)] = {"rounds": digests}
            print(f"{args.workload} pool {pool_index}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "workload": args.workload,
        "recorded_with": {
            "commit": run.git_commit(),
            "src_sha256": run.source_digest(),
            "python": platform.python_version(),
        },
        "seeds": seeds,
    }
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(dumps(reference), encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
