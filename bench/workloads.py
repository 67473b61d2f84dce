"""The benchmark's workloads: inputs made from a seed, one timed operation,
the classification of its outcome and the correctness gate.

A workload turns a pool index (the ``--seed`` modulo ``POOL``) into a fixed
list of rounds; a round is an ordered batch of operations on inputs of its
own.  The timed section runs whole rounds in turn, wrapping around after the
last.  A repeated round must give the same outcomes, the outcomes must match
the answers recorded in ``reference/<workload>.json``, and every decided
answer is re-checked by direct counting outside the timed section.

Timed operations go through module attributes (``experiment.run_experiment``,
the click entry point), so the traced run sees the wrappers it installs;
the gate calls the library through names bound at import, which the tracer
leaves alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import irlab.experiment as experiment
from irlab import axioms, domains
from irlab.cli import AXIOM_NAMES, DOMAIN_NAMES, main as cli_main
from irlab.cohesion import CohesionCertificate, f_vector
from irlab.experiment import (
    DEFAULT_MODELS,
    DEFAULT_RULES,
    ExperimentSpec,
    instance_seed,
    rows_to_csv,
)
from irlab.gen import GenSpec, generate
from irlab.model import Committee, VoterGroup, parse_profile, serialize_profile
from irlab.rules import RuleId
from irlab.search import BudgetExceededError
from irlab.solver import SolveRequest, find_committee

POOL = 16
"""Number of recorded input sets; ``--seed`` selects set ``seed % POOL``."""

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DECIDED, UNDECIDED, ERROR = "decided", "undecided", "error"


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# grid and grid_rules: the existence experiment through run_experiment
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GridOp:
    model: str
    k: int
    spec_seed: int


class Grid:
    """Closed-loop batch of experiment instances, one ``run_experiment`` call each.

    Each call runs one instance (``instances=1``) so that its latency can be
    timed from outside; the per-call seed makes the instances of one cell
    distinct.  The rows are those ``irlab experiment --no-timing`` writes.
    A round holds ``cells[k]`` instances of every model at each k.
    """

    root_span = "bench"  # the traced run's span around one operation

    def __init__(self, cells, rules, tail_percentile, rounds=1):
        self.cells = dict(cells)
        self.rounds = rounds
        self.rules = tuple(RuleId(r) for r in rules)
        self.tail_percentile = tail_percentile
        self.table_spec = ExperimentSpec(rules=self.rules, include_timing=False)

    def setup(self, pool_index: int, workdir: Path) -> list[list[GridOp]]:
        rounds = [
            [
                GridOp(model, k, 10**6 * (pool_index + 1) + 1000 * r + index)
                for model in DEFAULT_MODELS
                for k, instances in self.cells.items()
                for index in range(instances)
            ]
            for r in range(self.rounds)
        ]
        # warm-up: one instance of every model, outside the timed section
        for model in DEFAULT_MODELS:
            self.run(GridOp(model, min(self.cells), 0))
        return rounds

    def run(self, op: GridOp):
        spec = ExperimentSpec(
            models=(op.model,),
            k_values=(op.k,),
            instances=1,
            rules=self.rules,
            seed=op.spec_seed,
        )
        (row,) = experiment.run_experiment(spec)
        return dataclasses.replace(row, ms=0)

    @staticmethod
    def status(op, row) -> str:
        return UNDECIDED if row.undecided else DECIDED

    @staticmethod
    def command(op) -> str:
        return ""

    def digest(self, ops, rows) -> dict:
        return {
            "rows": len(rows),
            "rows_sha256": sha256(rows_to_csv(self.table_spec, rows)),
            "ir_exists": sum(1 for r in rows if r.ir_exists),
            "ssjr_exists": sum(1 for r in rows if r.ssjr_exists),
            "undecided": sum(1 for r in rows if r.undecided),
            "rule_hits": sum(ir + ss for r in rows for _, ir, ss in r.rule_hits),
        }

    def compare(self, ops, rows, ref: dict) -> list[str]:
        got = self.digest(ops, rows)
        return [
            f"{key}: got {got[key]}, reference {ref[key]}"
            for key in ref
            if got.get(key) != ref[key]
        ]

    def recheck(self, ops, rows, workdir: Path) -> list[str]:
        """Recompute each instance's certificates and committees and verify them
        by direct counting; the rule probes are covered by the reference only."""
        problems = []
        defaults = ExperimentSpec()
        for op, row in zip(ops, rows):
            where = f"{op.model} k={op.k} seed={row.seed}"
            if row.seed != instance_seed(op.spec_seed, op.model, op.k, 0):
                problems.append(f"{where}: unexpected instance seed")
                continue
            election = generate(
                GenSpec(
                    model=op.model,
                    n=defaults.n,
                    m=defaults.m,
                    seed=row.seed,
                    params=dict(defaults.gen_params.get(op.model, {})),
                ),
                k=op.k,
            )
            try:
                fvec = tuple(f_vector(election, node_cap=defaults.node_cap))
            except BudgetExceededError:
                if not row.undecided:
                    problems.append(f"{where}: f-vector capped but row decided")
                continue
            problems += [
                f"{where}: certificate of voter {c.voter} fails verify"
                for c in fvec
                if not c.verify(election)
            ]
            for objective, flag in (("FIND_IR", row.ir_exists), ("FIND_SSJR", row.ssjr_exists)):
                result = find_committee(
                    SolveRequest(election, fvec, objective, node_cap=defaults.node_cap)
                )
                found = None if result.status == "undecided" else result.status == "found"
                if found != flag:
                    problems.append(f"{where}: {objective} {result.status} but row says {flag}")
                if result.status == "found":
                    demands = [
                        c.f if objective == "FIND_IR" else min(c.f, 1) for c in fvec
                    ]
                    if not _meets(election, result.committee.members, demands):
                        problems.append(f"{where}: {objective} committee fails direct count")
        return problems


def _counts(election, members) -> list[int]:
    wmask = 0
    for c in members:
        wmask |= 1 << c
    return [(b & wmask).bit_count() for b in election.ballot_masks]


def _meets(election, members, demands, alpha=1, beta=0) -> bool:
    """Direct count: alpha * |W ∩ A_i| + beta >= demand_i for every voter."""
    if len(set(members)) != election.k:
        return False
    return all(
        alpha * c + beta >= d for c, d in zip(_counts(election, members), demands)
    )


# --------------------------------------------------------------------------
# cli_scale: the irlab CLI on large generated profiles
# --------------------------------------------------------------------------

# name -> (model, n, m, k).  The n=200 profile carries the requests that do
# not finish at n=1000: the group checks and the voter-interval construction
# (m=20 there, because at m=30 one construction alone varied by +-20 % from
# seed to seed).  euclid_2d has k=2: its f-vector cost grows steeply with k.
PROFILES = {
    "vi1000": ("vi_euclid", 1000, 60, 10),
    "e2d1000": ("euclid_2d", 1000, 60, 2),
    "ic1000": ("ic", 1000, 60, 20),
    "urn1000": ("urn", 1000, 60, 10),
    "vi200": ("vi_euclid", 200, 20, 8),
}
ROUNDS = 6
"""Each round sends the request mix on profiles of its own."""

CAP = "20000"
SEQUENTIAL = ("seq_phragmen", "seq_pav", "seq_cc", "greedy_monroe", "rule_x")

# (command, profile, options); "{committee}" is a seed-drawn committee of the
# profile.  ic1000's solves and the core checks are undecided at their caps,
# so the scale limits show up in decided_rate and the tail.  The mix has 17
# requests under about 15 ms; the median (20th of 39) then falls inside the
# 20-50 ms group rather than at its edge, so it holds from seed to seed.
REQUESTS = (
    [("gen", "vi1000", ())]
    + [("fvec", p, ("--cap", CAP)) for p in PROFILES]
    + [
        ("solve", p, ("--objective", obj, "--cap", CAP))
        for obj, profiles in (
            ("ir", ("vi1000", "e2d1000", "urn1000", "ic1000")),
            ("ssjr", ("vi1000", "urn1000", "ic1000")),
            ("min-beta", ("vi1000", "e2d1000", "urn1000")),
        )
        for p in profiles
    ]
    + [("rule", "vi1000", ("--rule", r)) for r in SEQUENTIAL]
    + [("rule", "urn1000", ("--rule", "greedy_monroe"))]
    + [
        ("check", p, ("--committee", "{committee}", "--axiom", axiom, "--cap", cap, "--json"))
        for axiom, cap, profiles in (
            ("ir", CAP, ("vi1000", "urn1000")),
            ("jr", CAP, ("vi1000", "e2d1000", "urn1000")),
            ("ejr", CAP, ("vi1000", "e2d1000", "urn1000")),
            ("pjr", CAP, ("vi200",)),
            ("fjr", CAP, ("vi200",)),
            ("pr", CAP, ("vi200",)),
            ("core", "2000", ("vi200",)),
            ("core", "1000", ("vi1000",)),
        )
        for p in profiles
    ]
    + [("recognize", p, ("--domain", "all")) for p in ("vi1000", "e2d1000", "urn1000")]
    + [("construct", "vi200", ("--domain", "vi"))]
)


@dataclasses.dataclass(frozen=True)
class CliOp:
    command: str
    profile: str
    args: tuple[str, ...]  # as passed to the CLI, with paths
    display: str  # the request without the working-directory paths


@dataclasses.dataclass(frozen=True)
class CliOutcome:
    exit_code: int
    stdout: str
    stderr: str


class CliScale:
    """Closed loop with one client: the next request starts when the previous
    one returns.  Requests go through click's runner in process."""

    tail_percentile = 90
    root_span = "cli"  # click's parsing and the runner count as the cli layer

    def __init__(self):
        self.runner = CliRunner()
        self.elections = {}
        self.seeds = {}

    def setup(self, pool_index: int, workdir: Path) -> list[list[CliOp]]:
        workdir.mkdir(parents=True, exist_ok=True)
        committees = {}
        for r in range(ROUNDS):
            for index, (name, (model, n, m, k)) in enumerate(PROFILES.items()):
                stem = f"{name}-{r}"
                seed = 1000 * pool_index + 10 * r + index
                election = generate(GenSpec(model=model, n=n, m=m, seed=seed), k=k)
                (workdir / f"{stem}.avp").write_text(serialize_profile(election), encoding="utf-8")
                self.elections[stem] = election
                self.seeds[stem] = seed
                rng = random.Random(f"{pool_index}:{stem}")
                committees[stem] = ",".join(str(c + 1) for c in sorted(rng.sample(range(m), k)))
        rounds = []
        for r in range(ROUNDS):
            ops = []
            for command, name, options in REQUESTS:
                stem = f"{name}-{r}"
                opts = tuple(o.format(committee=committees[stem]) for o in options)
                if command == "gen":
                    model, n, m, k = PROFILES[name]
                    opts = ("--model", model, "--n", str(n), "--m", str(m), "--k", str(k),
                            "--seed", str(self.seeds[stem]), "-o")
                    args = (command, *opts, str(workdir / f"gen-{stem}.avp"))
                    display = " ".join((command, *opts, f"gen-{stem}.avp"))
                else:
                    args = (command, str(workdir / f"{stem}.avp"), *opts)
                    display = " ".join((command, f"{stem}.avp", *opts))
                ops.append(CliOp(command, stem, args, display))
            rounds.append(ops)
        # warm-up: every command but gen and construct once on a small profile
        small = str(workdir / "vi200-0.avp")
        for args in (("fvec", small), ("solve", small), ("rule", small, "--rule", "seq_pav"),
                     ("check", small, "--committee", committees["vi200-0"], "--axiom", "jr"),
                     ("recognize", small)):
            self.run(CliOp(args[0], "vi200-0", args, ""))
        return rounds

    def run(self, op: CliOp) -> CliOutcome:
        result = self.runner.invoke(cli_main, op.args)
        stderr = result.stderr
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            stderr += f"\nuncaught {type(result.exception).__name__}: {result.exception}"
        return CliOutcome(result.exit_code, result.stdout, stderr)

    @staticmethod
    def command(op: CliOp) -> str:
        return op.command

    @staticmethod
    def status(op: CliOp, out: CliOutcome) -> str:
        if out.exit_code == 0:
            if op.command in ("solve", "check") and json.loads(out.stdout)["status"] == "undecided":
                return UNDECIDED
            return DECIDED
        if out.exit_code == 1 and "node cap" in out.stderr and "uncaught" not in out.stderr:
            return UNDECIDED  # the f-vector search hit --cap
        return ERROR

    def digest(self, ops, outcomes) -> dict:
        """The round's request list, and per request [exit, status, stdout hash]."""
        return {
            "requests_sha256": sha256("\n".join(op.display for op in ops)),
            "answers": [
                [out.exit_code, self.status(op, out), sha256(out.stdout)[:16]]
                for op, out in zip(ops, outcomes)
            ],
        }

    def compare(self, ops, outcomes, ref: dict) -> list[str]:
        """Decided answers must match the reference byte for byte; a request
        undecided in the reference may become decided (the re-check covers it)."""
        if sha256("\n".join(op.display for op in ops)) != ref["requests_sha256"]:
            return ["the requests differ from the reference's"]
        problems = []
        for op, got, want in zip(ops, self.digest(ops, outcomes)["answers"], ref["answers"]):
            if want[1] == UNDECIDED and got[1] != ERROR:
                if got[1] == UNDECIDED and got[0] != want[0]:
                    problems.append(f"{op.display}: exit {got[0]}, reference {want[0]}")
            elif got[:2] != want[:2]:
                problems.append(f"{op.display}: {got[1]} exit {got[0]}, reference {want[1]} exit {want[0]}")
            elif got != want:
                problems.append(f"{op.display}: stdout differs from the reference")
        return problems

    def recheck(self, ops, outcomes, workdir: Path) -> list[str]:
        """Verify every decided answer by direct counting: certificates, solver
        committees, violation witnesses, domain witnesses, constructions."""
        problems = []
        elections = {
            name: parse_profile((workdir / f"{name}.avp").read_text(encoding="utf-8"))
            for name in {op.profile for op in ops}
        }
        for name, election in elections.items():
            if election != self.elections[name]:
                problems.append(f"{name}.avp does not parse back to the generated profile")
        fvecs: dict[str, list[int]] = {}
        for op, out in zip(ops, outcomes):
            if op.command == "fvec" and self.status(op, out) == DECIDED:
                election = elections[op.profile]
                fvecs[op.profile] = f = []
                for line in out.stdout.splitlines()[1:]:
                    voter, value, witness = line.split(",")
                    members = frozenset(int(c) - 1 for c in witness.split())
                    cert = CohesionCertificate(
                        voter=int(voter) - 1,
                        f=int(value),
                        witness_set=members,
                        witness_supporters=VoterGroup.from_mask(election.supporters_mask(members)),
                    )
                    if not cert.verify(election):
                        problems.append(f"{op.display}: certificate of voter {voter} fails verify")
                    f.append(cert.f)
                if len(f) != election.n:
                    problems.append(f"{op.display}: {len(f)} certificates for {election.n} voters")
        for op, out in zip(ops, outcomes):
            status = self.status(op, out)
            if status == ERROR:
                problems.append(f"{op.display}: exit {out.exit_code}: {out.stderr.strip()[-200:]}")
                continue
            if status == UNDECIDED or op.command == "fvec":
                continue
            election = elections[op.profile]
            fvec = fvecs.get(op.profile)
            problems += [f"{op.display}: {p}" for p in self._recheck_one(op, out, election, fvec, workdir)]
        return problems

    def _recheck_one(self, op, out, election, fvec, workdir) -> list[str]:
        if op.command == "gen":
            written = (workdir / f"gen-{op.profile}.avp").read_text(encoding="utf-8")
            return [] if written == serialize_profile(self.elections[op.profile]) else ["profile differs"]
        payload = json.loads(out.stdout)
        if op.command == "rule":
            bad = [w for w in payload["committees"] if len(set(w)) != election.k]
            return ["committee of wrong size"] if bad or not payload["committees"] else []
        if op.command == "recognize":
            return [
                f"{name} witness fails verify_witness"
                for name, witness in payload.items()
                if witness is not None
                and not domains.verify_witness(election, DOMAIN_NAMES[name], _domain_witness(name, witness))
            ]
        if fvec is None:
            return ["no decided f-vector to re-check against"]
        if op.command == "solve":
            if payload["status"] != "found":
                return []  # 'infeasible' is the solver's proof; nothing to count
            objective = op.args[op.args.index("--objective") + 1]
            demands = [min(f, 1) for f in fvec] if objective == "ssjr" else fvec
            alpha, beta = Fraction(payload["alpha"]), Fraction(payload["beta"])
            ok = _meets(election, [c - 1 for c in payload["committee"]], demands, alpha, beta)
            return [] if ok else ["committee fails direct count"]
        if op.command == "check":
            if payload["status"] != "violated":
                return []  # 'satisfied' carries no witness
            axiom = AXIOM_NAMES[op.args[op.args.index("--axiom") + 1]]
            committee_text = op.args[op.args.index("--committee") + 1]
            committee = Committee.of([int(c) - 1 for c in committee_text.split(",")], election)
            w = payload["witness"]
            witness = axioms.ViolationWitness(
                group=frozenset(v - 1 for v in w["group"]),
                candidate_set=frozenset(c - 1 for c in w["candidate_set"]),
                level=None if w["level"] is None else Fraction(w["level"]),
                deprived=frozenset(v - 1 for v in w["deprived"]),
            )
            ok = axioms.verify_violation(election, committee, axiom, witness)
            return [] if ok else ["violation witness fails verify_violation"]
        if op.command == "construct":
            members = [c - 1 for c in payload["committee"]]
            tag = payload["guarantee"]
            problems = []
            if tag["alpha"] is not None and not _meets(
                election, members, fvec, Fraction(tag["alpha"]), Fraction(tag["beta"])
            ):
                problems.append("committee misses its (alpha, beta) guarantee")
            if tag["ssjr_guaranteed"] and not _meets(election, members, [min(f, 1) for f in fvec]):
                problems.append("committee misses semi-strong JR")
            return problems
        raise AssertionError(op.command)


def _domain_witness(name: str, w: dict):
    def zero(indices):
        return tuple(i - 1 for i in indices)

    if name == "ci":
        return domains.CIWitness(zero(w["candidate_order"]))
    if name == "vi":
        return domains.VIWitness(zero(w["voter_order"]))
    if name == "cei":
        return domains.CEIWitness(zero(w["candidate_order"]), tuple(w["voter_side"]))
    if name == "vei":
        return domains.VEIWitness(zero(w["voter_order"]), tuple(w["candidate_side"]))
    if name == "tpart":
        return domains.TPartWitness(
            tuple(frozenset(zero(b)) for b in w["blocks"]),
            tuple(-1 if b is None else b - 1 for b in w["voter_block"]),
        )
    if name == "wsc":
        return domains.WSCWitness(zero(w["voter_order"]))
    raise AssertionError(name)


WORKLOADS = {
    # the paper's criterion-4 existence grid: 6 models x k=2..12, n=40, m=16
    "grid": lambda: Grid({k: 30 for k in range(2, 13)}, (), tail_percentile=99),
    # the same grid with the default rule probes at k=3 and k=4 (two
    # instances), 14 rounds of distinct instances: latency clusters by k, and
    # with k=4 two thirds of the instances the median and p90 fall inside its
    # cluster, not in a gap between two clusters, so they hold from seed to seed
    "grid_rules": lambda: Grid({3: 1, 4: 2}, DEFAULT_RULES, tail_percentile=90, rounds=14),
    "cli_scale": CliScale,
}
