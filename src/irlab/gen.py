"""Statistical approval-profile generators for the experiment harness.

Six models: two one-dimensional Euclidean models structured by construction
(voter-interval and candidate-interval), a two-dimensional Euclidean model
with cluster centers, impartial culture, a Polya urn over complete ballots,
and a three-component Mallows mixture with top-prefix approvals.

Every generator is a pure function of its spec: the same seed yields the
same profile.  Randomness comes from ``random.Random`` seeded per call.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

from .model import Election

MODELS = ("vi_euclid", "ci_euclid", "euclid_2d", "ic", "urn", "mallows")


@dataclass(frozen=True)
class GenSpec:
    model: str
    n: int
    m: int
    seed: int
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        p = self.params.get("p")
        if p is not None and not 0 <= p <= 1:
            raise ValueError("approval probability must lie in [0, 1]")


def _quarter(m: int) -> int:
    return max(1, m // 4)


def generate(spec: GenSpec, k: int = 1) -> Election:
    """Sample one approval profile; the committee size k is attached as given."""
    rng = random.Random(spec.seed)
    builder = {
        "vi_euclid": _gen_vi_euclid,
        "ci_euclid": _gen_ci_euclid,
        "euclid_2d": _gen_euclid_2d,
        "ic": _gen_ic,
        "urn": _gen_urn,
        "mallows": _gen_mallows,
    }[spec.model]
    approvals = builder(spec, rng)
    return Election.from_approvals(approvals, m=spec.m, k=k)


def _gen_vi_euclid(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    sigma = float(spec.params.get("sigma", 0.15))
    voters = [rng.random() for _ in range(spec.n)]
    cands = [rng.random() for _ in range(spec.m)]
    radii = [abs(rng.gauss(0.0, sigma)) for _ in range(spec.m)]
    return [
        {c for c in range(spec.m) if abs(x - cands[c]) <= radii[c]}
        for x in voters
    ]


def _gen_ci_euclid(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    sigma = float(spec.params.get("sigma", 0.15))
    voters = [rng.random() for _ in range(spec.n)]
    cands = [rng.random() for _ in range(spec.m)]
    radii = [abs(rng.gauss(0.0, sigma)) for _ in range(spec.n)]
    return [
        {c for c in range(spec.m) if abs(voters[v] - cands[c]) <= radii[v]}
        for v in range(spec.n)
    ]


def _gen_euclid_2d(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    num_centers = rng.randint(1, 5)
    centers = [(rng.random(), rng.random()) for _ in range(num_centers)]
    spread = float(spec.params.get("sigma", 0.2))
    radius_sigma = float(spec.params.get("radius_sigma", 0.5))
    # 'candidate' reading: every candidate has a radius and attracts the
    # voters inside it; 'voter' is the alternative reading of the model
    radius_owner = spec.params.get("radius_owner", "candidate")

    def sample_point() -> tuple[float, float]:
        cx, cy = centers[rng.randrange(num_centers)]
        return rng.gauss(cx, spread), rng.gauss(cy, spread)

    voters = [sample_point() for _ in range(spec.n)]
    cands = [sample_point() for _ in range(spec.m)]
    if radius_owner == "candidate":
        radii = [abs(rng.gauss(0.0, radius_sigma)) for _ in range(spec.m)]
        return [
            {
                c
                for c in range(spec.m)
                if math.dist(voters[v], cands[c]) <= radii[c]
            }
            for v in range(spec.n)
        ]
    if radius_owner == "voter":
        radii = [abs(rng.gauss(0.0, radius_sigma)) for _ in range(spec.n)]
        return [
            {
                c
                for c in range(spec.m)
                if math.dist(voters[v], cands[c]) <= radii[v]
            }
            for v in range(spec.n)
        ]
    raise ValueError(f"radius_owner must be 'candidate' or 'voter', got {radius_owner!r}")


def _gen_ic(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    p = float(spec.params.get("p", 0.15))
    return [
        {c for c in range(spec.m) if rng.random() < p} for _ in range(spec.n)
    ]


def _gen_urn(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    """Polya urn over complete ballots: a fresh uniform ballot starts with
    weight 1; every drawn ballot is returned with `replace` extra copies."""
    cap = _quarter(spec.m)
    replace = rng.randint(1, cap)
    ballots: list[set[int]] = []
    for t in range(spec.n):
        u = rng.random() * (1 + replace * t)
        if u < 1:
            size = rng.randint(1, cap)
            ballots.append(set(rng.sample(range(spec.m), size)))
        else:
            ballots.append(set(ballots[int((u - 1) // replace)]))
    return ballots


def _insertion_table(phi: float, m: int) -> list[tuple[list[float], float]]:
    """For i = 1..m: the running sums of the insertion weights phi^(i-j),
    j = 1..i, accumulated front to back, and their total `sum(weights)`."""
    table = []
    for i in range(1, m + 1):
        weights = [phi ** (i - j) for j in range(1, i + 1)]
        table.append((list(accumulate(weights)), sum(weights)))
    return table


def _mallows_sample(
    ref: list[int], phi: float, rng: random.Random, table: list | None = None
) -> list[int]:
    """Repeated-insertion sampling; phi=0 reproduces the reference ranking,
    phi=1 is a uniformly random permutation.  ``table`` is
    ``_insertion_table(phi, len(ref))``, built here when not given."""
    ranking: list[int] = []
    if phi < 1.0 and table is None:
        table = _insertion_table(phi, len(ref))
    for i, item in enumerate(ref, start=1):
        # position j in 1..i (1 = front) has weight phi^(i-j)
        if phi >= 1.0:
            j = rng.randint(1, i)
        else:
            prefix, total = table[i - 1]
            # the first j whose running sum reaches u; past the back (when
            # rounding leaves u above them all) the insertion appends
            j = bisect_left(prefix, rng.random() * total) + 1
        ranking.insert(j - 1, item)
    return ranking


def _gen_mallows(spec: GenSpec, rng: random.Random) -> list[set[int]]:
    components = []
    for _ in range(3):
        base = list(range(spec.m))
        rng.shuffle(base)
        phi = rng.random()
        components.append((base, phi, _insertion_table(phi, spec.m)))
    cap = _quarter(spec.m)
    out = []
    for _ in range(spec.n):
        base, phi, table = components[rng.randrange(3)]
        ranking = _mallows_sample(base, phi, rng, table)
        size = rng.randint(1, cap)
        out.append(set(ranking[:size]))
    return out
