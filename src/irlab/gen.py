"""Statistical approval-profile generators for the experiment harness.

Six models: two one-dimensional Euclidean models structured by construction
(voter-interval and candidate-interval), a two-dimensional Euclidean model
with cluster centers, impartial culture, a Polya urn over complete ballots,
and a three-component Mallows mixture with top-prefix approvals.

Every generator is a pure function of its spec: the same seed yields the
same profile.  Randomness comes from ``random.Random`` seeded per call.
Each model's builder returns one ballot mask per voter (bit c for candidate
c), and ``generate`` builds the :class:`Election` from those masks.
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

MAX_GEN_CANDIDATES = 1024
"""The largest m a generator takes.  The builders' memory grows with m²: the
one-candidate bit table holds m ints of up to m bits, and each Mallows
component m(m+1)/2 insertion weights.  At the bound Mallows peaks at about
80 MB (n = 1 or 1000); at m = 4096 it passed 1 GB."""


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
        if self.m > MAX_GEN_CANDIDATES:
            raise ValueError(
                f"m={self.m} exceeds the generators' limit of {MAX_GEN_CANDIDATES} candidates"
            )
        p = self.params.get("p")
        if p is not None and not 0 <= p <= 1:
            raise ValueError("approval probability must lie in [0, 1]")
        owner = self.params.get("radius_owner", "candidate")
        if owner not in ("candidate", "voter"):
            raise ValueError(f"radius_owner must be 'candidate' or 'voter', got {owner!r}")


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
    return Election(n=spec.n, m=spec.m, k=k, ballot_masks=tuple(builder(spec, rng)))


def _bits(m: int) -> list[int]:
    """The one-candidate masks 1 << c, c = 0..m-1."""
    return [1 << c for c in range(m)]


def _gen_vi_euclid(spec: GenSpec, rng: random.Random) -> list[int]:
    sigma = float(spec.params.get("sigma", 0.15))
    voters = [rng.random() for _ in range(spec.n)]
    cands = [rng.random() for _ in range(spec.m)]
    radii = [abs(rng.gauss(0.0, sigma)) for _ in range(spec.m)]
    spans = list(zip(_bits(spec.m), cands, radii))
    return [sum([bit for bit, c, r in spans if abs(x - c) <= r]) for x in voters]


def _gen_ci_euclid(spec: GenSpec, rng: random.Random) -> list[int]:
    sigma = float(spec.params.get("sigma", 0.15))
    voters = [rng.random() for _ in range(spec.n)]
    cands = [rng.random() for _ in range(spec.m)]
    radii = [abs(rng.gauss(0.0, sigma)) for _ in range(spec.n)]
    points = list(zip(_bits(spec.m), cands))
    return [sum([bit for bit, c in points if abs(x - c) <= r]) for x, r in zip(voters, radii)]


def _gen_euclid_2d(spec: GenSpec, rng: random.Random) -> list[int]:
    num_centers = rng.randint(1, 5)
    centers = [(rng.random(), rng.random()) for _ in range(num_centers)]
    spread = float(spec.params.get("sigma", 0.2))
    radius_sigma = float(spec.params.get("radius_sigma", 0.5))

    def sample_point() -> tuple[float, float]:
        cx, cy = centers[rng.randrange(num_centers)]
        return rng.gauss(cx, spread), rng.gauss(cy, spread)

    voters = [sample_point() for _ in range(spec.n)]
    cands = [sample_point() for _ in range(spec.m)]
    dist = math.dist
    # 'candidate' reading: every candidate has a radius and attracts the
    # voters inside it; 'voter' is the alternative reading of the model
    if spec.params.get("radius_owner", "candidate") == "voter":
        radii = [abs(rng.gauss(0.0, radius_sigma)) for _ in range(spec.n)]
        points = list(zip(_bits(spec.m), cands))
        return [
            sum([bit for bit, c in points if dist(x, c) <= r]) for x, r in zip(voters, radii)
        ]
    radii = [abs(rng.gauss(0.0, radius_sigma)) for _ in range(spec.m)]
    disks = list(zip(_bits(spec.m), cands, radii))
    return [sum([bit for bit, c, r in disks if dist(x, c) <= r]) for x in voters]


def _gen_ic(spec: GenSpec, rng: random.Random) -> list[int]:
    p = float(spec.params.get("p", 0.15))
    bits, random_ = _bits(spec.m), rng.random
    return [sum([bit for bit in bits if random_() < p]) for _ in range(spec.n)]


def _gen_urn(spec: GenSpec, rng: random.Random) -> list[int]:
    """Polya urn over complete ballots: a fresh uniform ballot starts with
    weight 1; every drawn ballot is returned with `replace` extra copies."""
    cap = _quarter(spec.m)
    replace = rng.randint(1, cap)
    bits = _bits(spec.m)
    ballots: list[int] = []
    for t in range(spec.n):
        u = rng.random() * (1 + replace * t)
        if u < 1:
            size = rng.randint(1, cap)
            ballots.append(sum(map(bits.__getitem__, rng.sample(range(spec.m), size))))
        else:
            ballots.append(ballots[int((u - 1) // replace)])
    return ballots


def _insertion_table(phi: float, m: int) -> list[tuple[list[float], float]]:
    """For i = 1..m: the running sums of the insertion weights phi^(i-j),
    j = 1..i, accumulated front to back, and their total `sum(weights)`."""
    powers = [phi**e for e in range(m)]
    table = []
    for i in range(1, m + 1):
        weights = powers[i - 1 :: -1]  # phi^(i-j) for j = 1..i
        table.append((list(accumulate(weights)), sum(weights)))
    return table


def _mallows_sample(
    ref: list[int], phi: float, rng: random.Random, table: list | None = None
) -> list[int]:
    """Repeated-insertion sampling; phi=0 reproduces the reference ranking,
    phi=1 is a uniformly random permutation.  ``table`` is
    ``_insertion_table(phi, len(ref))``, built here when not given."""
    ranking: list[int] = []
    insert = ranking.insert
    if phi >= 1.0:
        randint = rng.randint
        for i, item in enumerate(ref, start=1):
            insert(randint(1, i) - 1, item)  # every position equally likely
        return ranking
    if table is None:
        table = _insertion_table(phi, len(ref))
    random_ = rng.random
    # item i goes to position j in 1..i (1 = front), of weight phi^(i-j): the
    # first j whose running sum reaches u; past the back (when rounding leaves
    # u above them all) the insertion appends
    for (prefix, total), item in zip(table, ref):
        insert(bisect_left(prefix, random_() * total), item)
    return ranking


def _gen_mallows(spec: GenSpec, rng: random.Random) -> list[int]:
    components = []
    for _ in range(3):
        base = list(range(spec.m))
        rng.shuffle(base)
        phi = rng.random()
        components.append((base, phi, _insertion_table(phi, spec.m)))
    cap = _quarter(spec.m)
    bits = _bits(spec.m)
    randrange, randint = rng.randrange, rng.randint
    out = []
    for _ in range(spec.n):
        base, phi, table = components[randrange(3)]
        ranking = _mallows_sample(base, phi, rng, table)
        out.append(sum(map(bits.__getitem__, ranking[: randint(1, cap)])))
    return out
