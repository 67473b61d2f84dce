"""Random instance generators for the property and acceptance suites."""

import random

from irlab.model import Election
from irlab.domains import TreeWitness
from irlab.gen import GenSpec, generate


def random_election(rng: random.Random, n_max=12, m_max=8, k_max=None, density=0.4):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    k = rng.randint(1, min(m, k_max) if k_max else m)
    approvals = [
        {c for c in range(m) if rng.random() < density} for _ in range(n)
    ]
    return Election.from_approvals(approvals, m=m, k=k)


def edge_case_election(rng: random.Random):
    """Random profile with repeated and empty ballots, candidates approved by
    everyone, and k drawn from {1, m, anything}."""
    n, m = rng.randint(1, 12), rng.randint(1, 8)
    k = rng.choice([1, m, rng.randint(1, m)])
    ballots = []
    for _ in range(n):
        roll = rng.random()
        if ballots and roll < 0.3:
            ballots.append(set(rng.choice(ballots)))
        elif roll < 0.4:
            ballots.append(set())
        else:
            ballots.append({c for c in range(m) if rng.random() < 0.5})
    for c in range(m):
        if rng.random() < 0.15:
            for ballot in ballots:
                ballot.add(c)
    return Election.from_approvals(ballots, m=m, k=k)


def dfs_oracle_profiles():
    """The 300 edge-case profiles the entitlement oracles are run on."""
    rng = random.Random(2004)
    return [edge_case_election(rng) for _ in range(300)]


def random_vi_election(rng: random.Random, n_max=24, m_max=12, k_max=None):
    """Random voter-interval profile: per-candidate supporter intervals on a
    hidden voter order, then voter labels shuffled."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    k = rng.randint(1, min(m, k_max) if k_max else m)
    hidden = list(range(n))
    rng.shuffle(hidden)
    approvals = [set() for _ in range(n)]
    for c in range(m):
        if rng.random() < 0.1:
            continue  # unsupported candidate
        a = rng.randrange(n)
        b = rng.randrange(a, n)
        for p in range(a, b + 1):
            approvals[hidden[p]].add(c)
    return Election.from_approvals(approvals, m=m, k=k)


def random_tpart_election(rng: random.Random, n_max=20, m_max=12):
    m = rng.randint(2, m_max)
    k = rng.randint(1, m)
    # partition candidates into 2..m blocks
    cands = list(range(m))
    rng.shuffle(cands)
    nblocks = rng.randint(1, max(1, m // 2))
    blocks = [set() for _ in range(nblocks)]
    for i, c in enumerate(cands):
        blocks[i % nblocks].add(c)
    n = rng.randint(1, n_max)
    approvals = [set(blocks[rng.randrange(nblocks)]) for _ in range(n)]
    return Election.from_approvals(approvals, m=m, k=k)


def random_atr_election(rng: random.Random, n_max=20, m_max=12):
    """Random candidate tree plus ballots that are random root paths."""
    m = rng.randint(1, m_max)
    k = rng.randint(1, m)
    parent = []
    for c in range(m):
        parent.append(rng.randrange(-1, c) if c > 0 else -1)
    paths = []
    for c in range(m):
        path = set()
        cur = c
        while cur != -1:
            path.add(cur)
            cur = parent[cur]
        paths.append(path)
    n = rng.randint(1, n_max)
    approvals = [set(paths[rng.randrange(m)]) for _ in range(n)]
    election = Election.from_approvals(approvals, m=m, k=k)
    return election, TreeWitness(parent=tuple(parent))


def random_cei_election(rng: random.Random, n_max=20, m_max=12):
    """Ballots are prefixes or suffixes of a hidden candidate order."""
    m = rng.randint(1, m_max)
    k = rng.randint(1, m)
    hidden = list(range(m))
    rng.shuffle(hidden)
    n = rng.randint(1, n_max)
    approvals = []
    for _ in range(n):
        size = rng.randint(0, m)
        if rng.random() < 0.5:
            approvals.append(set(hidden[:size]))
        else:
            approvals.append(set(hidden[m - size :] if size else []))
    return Election.from_approvals(approvals, m=m, k=k)


def random_vei_election(rng: random.Random, n_max=20, m_max=12):
    """Candidate supporter sets are prefixes or suffixes of a hidden voter order."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    k = rng.randint(1, m)
    hidden = list(range(n))
    rng.shuffle(hidden)
    approvals = [set() for _ in range(n)]
    for c in range(m):
        size = rng.randint(0, n)
        sup = hidden[:size] if rng.random() < 0.5 else hidden[n - size :] if size else []
        for v in sup:
            approvals[v].add(c)
    return Election.from_approvals(approvals, m=m, k=k)


def random_wsc_election(rng: random.Random, n_max=20, wide_ballots=True):
    """Weakly single-crossing profile: one left cut and one right cut on a
    hidden voter order; left candidates are approved by the voters before the
    left cut, right candidates from the right cut on, plus optional
    universally approved candidates.  With ``wide_ballots`` every voter
    approves at least two candidates."""
    n = rng.randint(4, n_max)
    left_cands = rng.randint(2, 4)
    right_cands = rng.randint(2, 4)
    full_cands = rng.randint(0, 2)
    empty_cands = rng.randint(0, 1)
    m = left_cands + right_cands + full_cands + empty_cands
    k = rng.randint(2, m)
    if wide_ballots:
        right_cut = rng.randint(1, n - 1)
        left_cut = rng.randint(right_cut, n - 1)  # overlap keeps ballots wide
    else:
        left_cut = rng.randint(1, n - 1)
        right_cut = rng.randint(1, n - 1)
    roles = (
        ["left"] * left_cands
        + ["right"] * right_cands
        + ["full"] * full_cands
        + ["empty"] * empty_cands
    )
    rng.shuffle(roles)
    hidden = list(range(n))
    rng.shuffle(hidden)
    approvals = [set() for _ in range(n)]
    for c, role in enumerate(roles):
        if role == "left":
            sup = hidden[:left_cut]
        elif role == "right":
            sup = hidden[right_cut:]
        elif role == "full":
            sup = hidden
        else:
            sup = []
        for v in sup:
            approvals[v].add(c)
    return Election.from_approvals(approvals, m=m, k=k)


def random_committee(rng: random.Random, election):
    members = rng.sample(range(election.m), election.k)
    from irlab.model import Committee

    return Committee.of(members, election)


def scale_cases():
    """Profiles of 200 to 1,000 voters from every model, each with a random
    committee: past what the brute-force oracles can check."""
    rng = random.Random(83)
    specs = [
        ("vi_euclid", 1000, 60, 10), ("urn", 1000, 60, 10), ("euclid_2d", 1000, 60, 2),
        ("ic", 1000, 60, 20), ("mallows", 300, 30, 9), ("ci_euclid", 400, 40, 6),
        ("ic", 200, 30, 9), ("vi_euclid", 200, 20, 8), ("urn", 200, 20, 6),
        ("mallows", 600, 40, 12), ("euclid_2d", 200, 30, 4), ("ci_euclid", 200, 20, 9),
    ]
    for seed, (model, n, m, k) in enumerate(specs):
        e = generate(GenSpec(model, n, m, seed), k=k)
        yield rng, e, rng.sample(range(m), k)
