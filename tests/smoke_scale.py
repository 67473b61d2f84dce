"""Large committee space smoke: time and peak RSS at scale.

C(30, 7) = 2,035,800 committees: the Thiele search scores them in
bit-sliced blocks under the lex prefixes (PAV all-tied and CC single
within 1 s together, about 0.04 s on a 2-core VM), and the rule probe tests
the IR and semi-strong JR demands on the tied lanes without
listing the winners; the saturation-cut entitlements equal the
f_vector values there and on a 1,000-voter profile; a capped
1,000-voter FIND_IR, FIND_SSJR, MIN_BETA and MIN_ALPHA each stop one
node past the cap, and `irlab solve` over the entitlements prints what
the certificates give; `irlab fvec --method vi` on a 1,000-voter
voter-interval profile prints the vi_certificates rows, whose
values are the entitlements; a 1,000-voter profile of each of the
six models (generation timed) parses back, building no frozen set,
to its ballots and both mask tuples; vi_euclid and ci_euclid at
n = 10,000, m = 1,000 each generate within 0.3 s (best of 3; about
0.05 and 0.07 s on a 2-core VM, 0.57 s when every voter-candidate pair
was tested); CI recognition of ci_euclid and VI recognition of
vi_euclid at n = 1,000, m = 200 (seed 1) each take under 1 s (about
20 and 10 ms on a 2-core VM; CI took about 170 ms when each
addition rescanned the remaining sets); a one-voter profile listing
every candidate parses in time linear in m (about 4x from m = 2^15
to 2^17, where one OR per index into the ballot mask made it about
16x) and `irlab gen` refuses an m above the generators' limit;
`irlab check` refuses a 2 KB profile of 1,000 voters over 2^17
candidates (n*m above the cell bound) with exit 2, and one at the
bound parses; JR, semi-strong JR, EJR, FJR and the core on a
one-voter profile at k = 1000 (EJR, FJR and the core each search
1,000 levels deep) return their pinned verdicts and costs within
0.25 s together (about 40 ms on a 2-core VM; counting the
committee in unary layers per level made it about 260 ms); fail
on a mismatch, a slow run or a peak RSS above 200 MB.

Not collected by pytest; run it from the repository root as

    PYTHONPATH=src python tests/smoke_scale.py
"""

import json
import resource
import tempfile
import time

from click.testing import CliRunner
from irlab.cli import main
from irlab.axioms import CORE, EJR, FJR, JR, SSJR, check
from irlab.cohesion import entitlements, f_vector, vi_certificates
from irlab.domains import recognize
from irlab.gen import MAX_GEN_CANDIDATES, MODELS, GenSpec, generate
from irlab.model import MAX_CELLS, Committee, Election, parse_profile, serialize_profile
from irlab.rules import RuleId, probe, run_rule
from irlab.solver import SolveRequest, demands, find_committee


def smoke() -> None:
    e = generate(GenSpec(model="ic", n=40, m=30, seed=1), k=7)
    walk = 0.0
    for rule, mode in (("pav", "all_tied"), ("cc", "single")):
        t = time.perf_counter()
        out = run_rule(e, RuleId(rule), mode=mode)
        took = time.perf_counter() - t
        walk += took
        print(rule, mode, len(out.committees), "winners", f"{took:.2f} s")
    assert walk < 1.0, "the Thiele lex walk over C(30, 7) is too slow"
    for model in MODELS:
        t = time.perf_counter()
        g = generate(GenSpec(model=model, n=1000, m=60, seed=0), k=5)
        t_gen = time.perf_counter() - t
        text = serialize_profile(g)
        t = time.perf_counter()
        p = parse_profile(text)
        t_parse = time.perf_counter() - t
        print(model, "n=1000 m=60", f"generate {t_gen * 1000:.1f} ms, parse_profile {t_parse * 1000:.1f} ms")
        assert "approvals" not in p.__dict__, model  # parsing builds masks alone
        assert (p.approvals, p.candidate_voters, p.ballot_masks) == (g.approvals, g.candidate_voters, g.ballot_masks), model
    for model in ("vi_euclid", "ci_euclid"):
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            generate(GenSpec(model=model, n=10_000, m=1_000, seed=0))
            runs.append(time.perf_counter() - t)
        print(model, "n=10000 m=1000", f"generate {min(runs):.3f} s")
        assert min(runs) < 0.3, f"{model} generation no longer runs in sorted runs"
    for model, domain in (("ci_euclid", "CI"), ("vi_euclid", "VI")):
        profile = generate(GenSpec(model=model, n=1000, m=200, seed=1))
        t = time.perf_counter()
        witness = recognize(profile, domain)
        took = time.perf_counter() - t
        print(model, "n=1000 m=200", domain, f"recognize {took * 1000:.1f} ms")
        assert witness is not None and took < 1.0, f"{domain} recognition of {model} is too slow"
    big = generate(GenSpec(model="euclid_2d", n=1000, m=60, seed=0), k=5)
    for label, profile in (("ic n=40 m=30 k=7", e), ("euclid_2d n=1000 m=60 k=5", big)):
        t = time.perf_counter()
        fvec = [cert.f for cert in f_vector(profile)]
        t_fvec = time.perf_counter() - t
        t = time.perf_counter()
        f = entitlements(profile)
        t_ent = time.perf_counter() - t
        print(label, f"f_vector {t_fvec * 1000:.1f} ms, entitlements {t_ent * 1000:.1f} ms")
        assert f == fvec, label
    f = entitlements(e)
    wanted = (f, demands(f, "FIND_SSJR"))
    for rule in ("pav", "av"):
        t = time.perf_counter()
        found = probe(e, RuleId(rule), wanted)
        print(rule, "probe (IR, ssJR)", found, f"{time.perf_counter() - t:.2f} s")
    ic = generate(GenSpec(model="ic", n=1000, m=60, seed=3), k=20)
    f = tuple(entitlements(ic))
    for objective in ("FIND_IR", "FIND_SSJR", "MIN_BETA", "MIN_ALPHA"):
        t = time.perf_counter()
        res = find_committee(SolveRequest(ic, f, objective, node_cap=20000))
        print("ic n=1000 m=60 k=20", objective, res.status, res.nodes, "nodes", f"{time.perf_counter() - t:.3f} s")
        assert (res.status, res.nodes) == ("undecided", 20001), objective
    vi = generate(GenSpec(model="vi_euclid", n=1000, m=60, seed=0), k=20)
    with tempfile.TemporaryDirectory() as tmp:
        for name, profile in (("big", big), ("vi", vi)):
            with open(f"{tmp}/{name}.avp", "w") as fh:
                fh.write(serialize_profile(profile))
        out = CliRunner().invoke(main, ["solve", f"{tmp}/big.avp"])
        t = time.perf_counter()
        vi_out = CliRunner().invoke(main, ["fvec", f"{tmp}/vi.avp", "--method", "vi"])
        print("irlab fvec --method vi vi_euclid n=1000 m=60 k=20", f"{time.perf_counter() - t:.2f} s")
    rows = [line.split(",") for line in vi_out.stdout.splitlines()[1:]]
    certs = vi_certificates(vi, recognize(vi, "VI").voter_order)
    assert vi_out.exit_code == 0 and rows == [
        [str(c.voter + 1), str(c.f), " ".join(str(x + 1) for x in sorted(c.witness_set))] for c in certs
    ]
    assert [int(f) for _, f, _ in rows] == entitlements(vi)
    res = find_committee(SolveRequest(big, tuple(f_vector(big))))
    expected = {"status": res.status, "committee": None, "alpha": None, "beta": None, "nodes": res.nodes}
    if res.committee:
        expected.update(committee=sorted(c + 1 for c in res.committee.members),
                        alpha=str(res.achieved_alpha), beta=str(res.achieved_beta))
    print("irlab solve euclid_2d n=1000 m=60 k=5", out.stdout.strip())
    assert out.exit_code == 0 and json.loads(out.stdout) == expected
    def one_voter_parse_s(m):
        text = f"1 {m} 1\n" + " ".join(map(str, range(1, m + 1))) + "\n"
        runs = []
        for _ in range(5):
            t = time.perf_counter()
            parse_profile(text)
            runs.append(time.perf_counter() - t)
        return min(runs)
    t15, t17 = one_voter_parse_s(1 << 15), one_voter_parse_s(1 << 17)
    print(f"one-voter parse_profile m=2^15 {t15 * 1000:.1f} ms, m=2^17 {t17 * 1000:.1f} ms, ratio {t17 / t15:.1f}")
    assert t17 < 10 * t15, "parsing a wide ballot is no longer linear in m"
    over = CliRunner().invoke(main, ["gen", "--model", "ic", "--n", "1", "--m", str(MAX_GEN_CANDIDATES + 1)])
    print(f"irlab gen --m {MAX_GEN_CANDIDATES + 1}: exit {over.exit_code}")
    assert over.exit_code == 2 and "exceeds the generators" in over.output
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/wide.avp", "w") as fh:
            fh.write(f"1000 {1 << 17} 1\n" + "1\n" * 1000)
        wide = CliRunner().invoke(main, ["check", f"{tmp}/wide.avp", "--committee", "1", "--axiom", "jr"])
    print(f"irlab check n=1000 m=2^17: exit {wide.exit_code}")
    assert wide.exit_code == 2 and "voter-candidate cells" in wide.output
    n = MAX_CELLS >> 16
    t = time.perf_counter()
    at_bound = parse_profile(f"{n} {1 << 16} 1\n" + "1\n" * n)
    print(f"parse_profile n={n} m=2^16 (n*m at the cell bound) {time.perf_counter() - t:.2f} s")
    assert at_bound.candidate_voters[0] == at_bound.all_voters_mask()
    deep = Election.from_approvals([set(range(1999))], m=2000, k=1000)
    w = Committee.of([*range(999), 1999], deep)
    pinned = ((JR, "satisfied", 2000), (SSJR, "satisfied", 0), (EJR, "violated", 1001),
              (FJR, "violated", 1001), (CORE, "violated", 1001))
    total = 0.0
    for axiom, status, cost in pinned:
        t = time.perf_counter()
        verdict = check(deep, w, axiom)
        took = time.perf_counter() - t
        total += took
        print(f"check {axiom} m=2000 k=1000: {verdict.status}, cost {verdict.cost}, {took * 1000:.1f} ms")
        assert (verdict.status, verdict.cost) == (status, cost), axiom
    print(f"the five deep checks {total * 1000:.1f} ms")
    assert total < 0.25, "the deep-committee axiom checks are too slow"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB")
    raise SystemExit(peak > 200)


if __name__ == "__main__":
    smoke()
