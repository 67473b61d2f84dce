"""Command-line surface: generation, entitlements, checks, rules, solving,
domain recognition/construction and the batch experiment harness.

Machine-readable output goes to stdout, progress logs to stderr.  Exit codes:
0 on success, an ``undecided`` status among them (the committee search of
``solve`` or of ``check`` on a group axiom stopped at its node cap); 1 when a
result requested via ``--expect`` is not met or the request has no answer: an
entitlement walk (``fvec``, ``solve``, ``check --axiom ir|alpha-beta-ir``)
stopped at its node cap, named in the message, ``rule`` or ``experiment`` met
the enumeration or tie cap, or the profile is outside the domain asked for;
2 on usage errors.  :class:`_Command` maps the library's errors to 1 and 2.
Candidate and voter indices are 1-based on this surface.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import axioms, domains, rules, solver
from .cohesion import entitlements, f_vector, vi_certificates
from .experiment import (
    DEFAULT_MODELS,
    DEFAULT_RULES,
    ExperimentSpec,
    run_experiment,
    write_outputs,
)
from .gen import MODELS, PARAMS, GenSpec, generate
from .model import Committee, ProfileFormatError, parse_profile, serialize_profile
from .search import DEFAULT_NODE_CAP

RULE_NAMES = rules.SEQUENTIAL_RULES + rules.EXACT_RULES

AXIOM_NAMES = {
    "ir": axioms.IR,
    "ssjr": axioms.SSJR,
    "jr": axioms.JR,
    "pjr": axioms.PJR,
    "ejr": axioms.EJR,
    "fjr": axioms.FJR,
    "core": axioms.CORE,
    "pr": axioms.PERFECT_REP,
    "alpha-beta-ir": None,  # built from --alpha/--beta
}

DOMAIN_NAMES = {
    "ci": "CI",
    "vi": "VI",
    "cei": "CEI",
    "vei": "VEI",
    "tpart": "T_PART",
    "wsc": "WSC",
}


class Rational(click.ParamType):
    """An exact rational option value such as ``2``, ``3/2`` or ``0.25``."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational number", param, ctx)


RATIONAL = Rational()


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_profile(fh.read())
    except (OSError, UnicodeDecodeError, ProfileFormatError) as exc:
        raise click.UsageError(f"{path}: {exc}")


def _load_tree(path: str, m: int) -> tuple[int, ...]:
    """The 0-based parent vector (-1 for the root) of a ``{"parent": [...]}``
    file holding one 1-based candidate index or null per candidate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"{path}: not a readable JSON file ({exc})")
    parent = spec.get("parent") if isinstance(spec, dict) else None
    if not isinstance(parent, list) or len(parent) != m:
        raise click.UsageError(f"{path}: expected an object whose 'parent' array has {m} entries")
    for p in parent:
        if p is not None and (type(p) is not int or not 1 <= p <= m):
            raise click.UsageError(f"{path}: parent {p!r} is neither null nor in [1, {m}]")
    return tuple(-1 if p is None else p - 1 for p in parent)


def _parse_committee(election, text: str) -> Committee:
    try:
        indices = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise click.UsageError(f"cannot parse committee {text!r}")
    seen = set()
    for i in indices:
        if not 1 <= i <= election.m:
            raise click.UsageError(f"candidate index {i} out of range [1, {election.m}]")
        if i in seen:
            raise click.UsageError(f"duplicate candidate index {i} in committee")
        seen.add(i)
    return Committee.of([i - 1 for i in indices], election)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(c + 1 for c in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _refuse_unused(name: str, unused: bool, message: str) -> None:
    """Exit 2 with ``message`` when option ``name`` is given but ``unused``."""
    source = click.get_current_context().get_parameter_source(name)
    if unused and source is not ParameterSource.DEFAULT:
        raise click.UsageError(message)


class _Command(click.Command):
    """The one exit policy for the library's errors: a ValueError is a refused
    request (exit 2, with the usage line), a RuntimeError one with no answer
    (exit 1).  click's Exit and Abort are RuntimeErrors too, so no command
    may call ``ctx.exit`` or prompt."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)
        except RuntimeError as exc:
            raise click.ClickException(str(exc))


@click.group()
def main():
    """Individual representation toolkit for approval-based committee elections."""


main.command_class = _Command


@main.command("gen")
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True, help="committee size in the header")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--p", type=float, default=None, help="approval probability (ic)")
@click.option("--sigma", type=float, default=None,
              help="radius spread (vi_euclid, ci_euclid) or position spread (euclid_2d)")
@click.option("--radius-owner", type=click.Choice(["candidate", "voter"]), default="candidate",
              show_default=True, help="which side owns the 2D approval radius")
@click.option("-o", "--out", type=click.Path(writable=True), default="-")
def gen_cmd(model, n, m, k, seed, p, sigma, radius_owner, out):
    """Sample an approval profile and write it as .avp text."""
    _refuse_unused("p", model != "ic", "--p is for --model ic only")
    _refuse_unused("sigma", "sigma" not in PARAMS[model],
                   "--sigma is for --model vi_euclid, ci_euclid or euclid_2d only")
    _refuse_unused("radius_owner", model != "euclid_2d", "--radius-owner is for --model euclid_2d only")
    params = {"radius_owner": radius_owner} if model == "euclid_2d" else {}
    for name, value in (("p", p), ("sigma", sigma)):
        if value is not None:
            params[name] = value
    election = generate(GenSpec(model=model, n=n, m=m, seed=seed, params=params), k=k)
    text = serialize_profile(election)
    if out == "-":
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {out}", file=sys.stderr)


@main.command("fvec")
@click.argument("profile", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["exact", "vi"]), default="exact", show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_NODE_CAP, show_default=True,
              help="most closed candidate sets the exact method may visit; one node is one closed set")
def fvec_cmd(profile, method, cap):
    """Per-voter entitlements as CSV voter,f,witness (1-based indices)."""
    message = "--cap bounds --method exact only; --method vi takes no cap"
    _refuse_unused("cap", method == "vi", message)
    election = _load(profile)
    if method == "vi":
        witness = domains.recognize(election, "VI")
        if witness is None:
            raise click.ClickException("profile is not voter-interval")
        certs = vi_certificates(election, witness.voter_order)
    else:
        certs = f_vector(election, node_cap=cap)
    # many voters share a witness, so each distinct one is formatted once
    texts: dict[frozenset[int], str] = {}
    rows = ["voter,f,witness"]
    for cert in certs:
        w = cert.witness_set
        if w not in texts:
            texts[w] = " ".join(str(c + 1) for c in sorted(w))
        rows.append(f"{cert.voter + 1},{cert.f},{texts[w]}")
    click.echo("\n".join(rows), file=sys.stdout)


@main.command("check")
@click.argument("profile", type=click.Path(exists=True))
@click.option("--committee", required=True, help="comma-separated 1-based candidate indices")
@click.option("--axiom", "axiom_name", type=click.Choice(sorted(AXIOM_NAMES)), required=True)
@click.option("--alpha", type=RATIONAL, default=None, help="alpha for alpha-beta-ir (rational)")
@click.option("--beta", type=RATIONAL, default=None, help="beta for alpha-beta-ir (rational)")
@click.option("--expect", type=click.Choice(["satisfied", "violated"]), default=None)
@click.option("--json", "as_json", is_flag=True, help="emit the witness as JSON")
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_NODE_CAP, show_default=True)
def check_cmd(profile, committee, axiom_name, alpha, beta, expect, as_json, cap):
    """Decide one axiom for one committee."""
    for name in ("alpha", "beta"):
        message = f"--{name} is for --axiom alpha-beta-ir only"
        _refuse_unused(name, axiom_name != "alpha-beta-ir", message)
    election = _load(profile)
    w = _parse_committee(election, committee)
    if axiom_name == "alpha-beta-ir":
        if alpha is None or beta is None:
            raise click.UsageError("alpha-beta-ir requires --alpha and --beta")
        axiom = axioms.alpha_beta_ir(alpha, beta)
    else:
        axiom = AXIOM_NAMES[axiom_name]
    verdict = axioms.check(election, w, axiom, node_cap=cap)
    if as_json:
        payload = {
            "axiom": str(axiom),
            "status": verdict.status,
            "cost": verdict.cost,
        }
        if verdict.witness is not None:
            payload["witness"] = _jsonable(vars(verdict.witness))
        click.echo(json.dumps(payload), file=sys.stdout)
    else:
        click.echo(f"{axiom}: {verdict.status}", file=sys.stdout)
        if verdict.witness is not None:
            wt = verdict.witness
            parts = [f"voters {_jsonable(wt.group)}"]
            if wt.deprived != wt.group:
                parts.append(f"deprived {_jsonable(wt.deprived)}")
            if wt.candidate_set:
                parts.append(f"candidates {_jsonable(wt.candidate_set)}")
            if wt.level is not None:
                parts.append(f"level {wt.level}")
            click.echo("  witness: " + ", ".join(parts), file=sys.stdout)
    if expect is not None and verdict.status != expect:
        sys.exit(1)


@main.command("rule")
@click.argument("profile", type=click.Path(exists=True))
@click.option("--rule", "rule_name", type=click.Choice(sorted(RULE_NAMES)), required=True)
@click.option("--all-tied", is_flag=True, help="report all tied optima (exact rules)")
@click.option("--weight", type=RATIONAL, default=None, help="weight base for geom_pav, e.g. 1/16")
def rule_cmd(profile, rule_name, all_tied, weight):
    """Run one ABC voting rule; prints committees and diagnostics as JSON."""
    election = _load(profile)
    rule = rules.RuleId(rule_name, weight=weight)
    outcome = rules.run_rule(election, rule, mode="all_tied" if all_tied else "single")
    # per-voter vectors and scalar scores only; structural fields carry
    # internal 0-based indices and stay out of the surface payload
    surface = ("loads", "balances", "rhos", "score", "max_hamming", "completion", "candidate_scores")
    payload = {
        "rule": str(rule),
        "committees": [sorted(c + 1 for c in w.members) for w in outcome.committees],
        "diagnostics": _jsonable(
            {k: v for k, v in outcome.diagnostics.items() if k in surface}
        ),
    }
    click.echo(json.dumps(payload), file=sys.stdout)


@main.command("solve")
@click.argument("profile", type=click.Path(exists=True))
@click.option(
    "--objective",
    type=click.Choice(["ir", "ssjr", "min-beta", "min-alpha"]),
    default="ir",
    show_default=True,
)
@click.option("--alpha", type=RATIONAL, default="1", show_default=True)
@click.option("--beta", type=RATIONAL, default="0", show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_NODE_CAP, show_default=True,
              help="node cap of the entitlement walk (one node per closed candidate set) "
              "and, separately, of the committee search")
@click.option("--expect", type=click.Choice(["found", "infeasible"]), default=None)
def solve_cmd(profile, objective, alpha, beta, cap, expect):
    """Exact committee search (existence or best approximation)."""
    for name, owner in (("alpha", "min-beta"), ("beta", "min-alpha")):
        _refuse_unused(name, objective != owner, f"--{name} is for --objective {owner} only")
    election = _load(profile)
    f = entitlements(election, node_cap=cap)
    request = solver.SolveRequest(
        election=election,
        fvec=tuple(f),
        objective={"ir": "FIND_IR", "ssjr": "FIND_SSJR", "min-beta": "MIN_BETA", "min-alpha": "MIN_ALPHA"}[objective],
        alpha=alpha,
        beta=beta,
        node_cap=cap,
    )
    result = solver.find_committee(request)
    payload = {
        "status": result.status,
        "committee": sorted(c + 1 for c in result.committee.members)
        if result.committee
        else None,
        "alpha": _jsonable(result.achieved_alpha),
        "beta": _jsonable(result.achieved_beta),
        "nodes": result.nodes,
    }
    click.echo(json.dumps(payload), file=sys.stdout)
    if expect is not None and result.status != expect:
        sys.exit(1)


def _witness_payload(witness) -> dict:
    """A domain witness as JSON, one key per field, in field order."""
    return {
        f.name: [_payload_item(item) for item in getattr(witness, f.name)]
        for f in dataclasses.fields(witness)
    }


def _payload_item(item):
    if isinstance(item, str):
        return item  # a side: 'prefix' or 'suffix'
    if isinstance(item, frozenset):
        return sorted(c + 1 for c in item)  # a t-PART block
    return item + 1 if item >= 0 else None  # an index; -1 (root, no block) is null


@main.command("recognize")
@click.argument("profile", type=click.Path(exists=True))
@click.option(
    "--domain",
    "domain_name",
    type=click.Choice(sorted(DOMAIN_NAMES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--expect", type=click.Choice(["member", "outside"]), default=None)
def recognize_cmd(profile, domain_name, expect):
    """Test membership in restricted domains; prints witnesses as JSON."""
    if expect is not None and domain_name == "all":
        raise click.UsageError("--expect requires a single --domain")
    election = _load(profile)
    names = sorted(DOMAIN_NAMES) if domain_name == "all" else [domain_name]
    payload = {}
    last_member = False
    for name in names:
        witness = domains.recognize(election, DOMAIN_NAMES[name])
        payload[name] = None if witness is None else _witness_payload(witness)
        last_member = witness is not None
    click.echo(json.dumps(payload), file=sys.stdout)
    if expect is not None and (expect == "member") != last_member:
        sys.exit(1)


@main.command("construct")
@click.argument("profile", type=click.Path(exists=True))
@click.option(
    "--domain",
    "domain_name",
    type=click.Choice(sorted(set(DOMAIN_NAMES) - {"ci"}) + ["alpha-tr"]),
    required=True,
)
@click.option("--tree", type=click.Path(exists=True), default=None,
              help="JSON file with a 1-based 'parent' array (alpha-tr only)")
def construct_cmd(profile, domain_name, tree):
    """Construct a committee with the domain's representation guarantee."""
    _refuse_unused("tree", domain_name != "alpha-tr", "--tree is for --domain alpha-tr only")
    election = _load(profile)
    if domain_name == "alpha-tr":
        if tree is None:
            raise click.UsageError("alpha-tr requires --tree")
        witness = domains.TreeWitness(parent=_load_tree(tree, election.m))
        domain = "ALPHA_TR"
    else:
        domain = DOMAIN_NAMES[domain_name]
        witness = domains.recognize(election, domain)
        if witness is None:
            raise click.ClickException(f"profile is not in domain {domain}")
    try:
        result = domains.construct(election, domain, witness)
    except domains.InvalidWitnessError as exc:  # outside the tree's domain: no answer, not misuse
        raise click.ClickException(str(exc))
    tag = result.guarantee
    payload = {
        "domain": domain,
        "committee": sorted(c + 1 for c in result.committee.members),
        "guarantee": {
            "alpha": _jsonable(tag.alpha),
            "beta": _jsonable(tag.beta),
            "ssjr_guaranteed": tag.ssjr_guaranteed,
        },
    }
    click.echo(json.dumps(payload), file=sys.stdout)


@main.command("experiment")
@click.option("--models", default=",".join(DEFAULT_MODELS), show_default=True)
@click.option("--n", type=int, default=40, show_default=True)
@click.option("--m", type=int, default=16, show_default=True)
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max", type=int, default=12, show_default=True)
@click.option("--instances", type=int, default=300, show_default=True)
@click.option("--rules", "rule_names", default="", help=f"comma-separated; e.g. {','.join(DEFAULT_RULES)}")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=10**6, show_default=True)
@click.option("--timing/--no-timing", default=True, show_default=True,
              help="--no-timing zeroes the ms column for reproducible bytes")
@click.option("--out", type=click.Path(), required=True)
def experiment_cmd(models, n, m, k_min, k_max, instances, rule_names, seed, jobs, cap, timing, out):
    """Run the existence/rule-probe experiment grid and write CSV outputs."""
    model_list = tuple(s.strip() for s in models.split(",") if s.strip())
    rule_list = []
    for name in (s.strip() for s in rule_names.split(",") if s.strip()):
        try:
            rule_list.append(rules.RuleId(name))
        except ValueError as exc:
            raise click.UsageError(f"--rules {name}: {exc}")
    if k_min > k_max:
        raise click.UsageError(f"--k-min {k_min} exceeds --k-max {k_max}")
    spec = ExperimentSpec(
        models=model_list,
        n=n,
        m=m,
        k_values=tuple(range(k_min, k_max + 1)),
        instances=instances,
        rules=tuple(rule_list),
        seed=seed,
        jobs=jobs,
        node_cap=cap,
        include_timing=timing,
    )
    click.echo(
        f"running {len(model_list)} models x {len(spec.k_values)} k x {instances} instances",
        file=sys.stderr,
    )
    rows = run_experiment(spec)
    write_outputs(spec, rows, out)
    undecided = sum(1 for r in rows if r.undecided)
    click.echo(f"done: {len(rows)} rows, {undecided} undecided -> {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
