"""Statistical approval-profile generators for the experiment harness.

Six models: two one-dimensional Euclidean models structured by construction
(voter-interval and candidate-interval), a two-dimensional Euclidean model
with cluster centers, impartial culture, a Polya urn over complete ballots,
and a three-component Mallows mixture with top-prefix approvals.

Every generator is a pure function of its spec: the same seed yields the
same profile.  Randomness comes from ``random.Random`` seeded per call.
Each model's builder returns one ballot mask per voter (bit c for candidate
c), and ``generate`` builds the :class:`Election` from those masks.

Costs for n voters and m candidates.  vi_euclid sorts the voters, finds
each candidate's run of approvers with two bisections and builds the ballots
in one XOR sweep: O((n + m) log n) comparisons.  ci_euclid sorts the
candidates, finds each voter's run with two bisections and reads the ballot
off a prefix-OR array: O((n + m) log m).  euclid_2d and ic test all n·m
voter-candidate pairs; urn draws at most m // 4 candidates per fresh
ballot.  Mallows builds per component O(m²) weight totals and about m²/4
running sums, then per voter draws m random numbers and inserts only the items that
land in the top m // 4 positions, the only ones a ballot reads.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_, xor
from typing import Mapping

from .model import MAX_CELLS, Election

PARAMS = {
    "vi_euclid": ("sigma",),
    "ci_euclid": ("sigma",),
    "euclid_2d": ("sigma", "radius_sigma", "radius_owner"),
    "ic": ("p",),
    "urn": (),
    "mallows": (),
}
"""The parameters each model's builder reads; a spec with any other is refused."""

MODELS = tuple(PARAMS)

MAX_GEN_CANDIDATES = 1024
"""The largest m a generator takes.  The builders' memory grows with m²: the
one-candidate bit table holds m ints of up to m bits, and each Mallows
component keeps the first m // 4 running insertion weights of each of its m
items.  At the bound Mallows peaks at about 42 MB (n = 1 or 1000)."""


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
        for key in self.params:
            if key not in PARAMS[self.model]:
                raise ValueError(f"model {self.model} takes no parameter {key!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.m > MAX_GEN_CANDIDATES:
            raise ValueError(
                f"m={self.m} exceeds the generators' limit of {MAX_GEN_CANDIDATES} candidates"
            )
        if self.n * self.m > MAX_CELLS:
            raise ValueError(
                f"n*m={self.n * self.m} exceeds the limit of {MAX_CELLS} voter-candidate cells"
            )
        p = self.params.get("p")
        if p is not None and not 0 <= p <= 1:
            raise ValueError("approval probability must lie in [0, 1]")
        for key in ("sigma", "radius_sigma"):
            spread = self.params.get(key)
            if spread is not None and not 0 <= spread < math.inf:  # nan fails too
                raise ValueError(f"{key} must be a finite number >= 0, got {spread}")
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
    # under round-to-nearest fl(x - y) is monotone in x, so the voters with
    # |fl(x - y)| <= r are one run of the sorted voters (equal positions fall
    # on the same side); candidate c's bit is toggled where its run starts
    # and where it ends
    order = sorted(range(spec.n), key=voters.__getitem__)
    axis = [voters[v] for v in order]
    toggles = [0] * (spec.n + 1)
    for c, (y, r) in enumerate(zip(cands, radii)):
        gap = lambda x: x - y
        toggles[bisect_left(axis, -r, key=gap)] ^= 1 << c
        toggles[bisect_right(axis, r, key=gap)] ^= 1 << c
    out = [0] * spec.n
    for v, ballot in zip(order, accumulate(toggles, xor)):
        out[v] = ballot
    return out


def _gen_ci_euclid(spec: GenSpec, rng: random.Random) -> list[int]:
    sigma = float(spec.params.get("sigma", 0.15))
    voters = [rng.random() for _ in range(spec.n)]
    cands = [rng.random() for _ in range(spec.m)]
    radii = [abs(rng.gauss(0.0, sigma)) for _ in range(spec.n)]
    # fl(c - x) = -fl(x - c) is monotone in c, so each voter's ballot is one
    # run of the sorted candidates, the XOR of two prefix ORs over them
    order = sorted(range(spec.m), key=cands.__getitem__)
    axis = [cands[c] for c in order]
    run = list(accumulate((1 << c for c in order), or_, initial=0))
    out = []
    for x, r in zip(voters, radii):
        gap = lambda c: c - x
        out.append(run[bisect_right(axis, r, key=gap)] ^ run[bisect_left(axis, -r, key=gap)])
    return out


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


def _top_rows(ref: list[int], phi: float, cap: int) -> list[tuple[list[float], float, float, int]]:
    """One row per item i = 1..m of ``ref`` for `_top_sample`: the first
    min(i, cap) running sums of its insertion weights phi^(i-j), j = 1..i,
    accumulated front to back; their total `sum(weights)`; the most
    ``u * total`` may be for the item to land in the top cap positions
    (+inf while i <= cap); and the item."""
    powers = [phi**e for e in range(len(ref))]
    rows = []
    for i, item in enumerate(ref, start=1):
        weights = powers[i - 1 :: -1]  # phi^(i-j) for j = 1..i
        head = list(accumulate(weights[:cap]))
        rows.append((head, sum(weights), head[-1] if i > cap else math.inf, item))
    return rows


def _top_sample(rows: list, random_) -> list[int]:
    """Repeated-insertion Mallows sampling (Doignon, Pekec & Regenwetter
    2004) for phi < 1, kept to the top cap positions of `_top_rows`: the
    first cap items returned are those of the full ranking.  Item i goes to
    position j in 1..i (1 = front), of weight phi^(i-j): the first j whose
    running sum reaches u = random() * total (the back when rounding leaves
    u above them all).  An item inserted behind the top cap positions only
    moves further back, so it is dropped; one random() is drawn per item.
    Position j is at most cap exactly when u is at most the running sum at
    position cap, so bisecting the first cap sums finds it; an item i <= cap
    always lands within the first i positions."""
    head: list[int] = []
    insert = head.insert
    for prefix, total, lim, item in rows:
        x = random_() * total
        if x <= lim:
            insert(bisect_left(prefix, x), item)
    return head


def _gen_mallows(spec: GenSpec, rng: random.Random) -> list[int]:
    cap = _quarter(spec.m)
    components = []
    for _ in range(3):
        base = list(range(spec.m))
        rng.shuffle(base)
        components.append(_top_rows(base, rng.random(), cap))  # phi = random() < 1
    bits = _bits(spec.m)
    random_, randrange, randint = rng.random, rng.randrange, rng.randint
    out = []
    for _ in range(spec.n):
        head = _top_sample(components[randrange(3)], random_)
        out.append(sum(map(bits.__getitem__, head[: randint(1, cap)])))
    return out
