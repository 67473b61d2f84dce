"""Restricted preference domains: recognition, witnesses and constructions.

Recognition decides whether a profile lies in a structured domain and, if so,
produces a machine-checkable witness (an ordering, a partition or per-set
end flags).  :func:`construct` is the one construction path: it verifies the
witness (the check behind :func:`verify_witness`), lets the domain's builder
pick the members its rule calls for, pads them once to k seats with the
lowest-index unused candidates (:func:`~irlab.model.padding`) and, where the
table promises semi-strong JR, re-checks it with :func:`irlab.axioms.check`:

=========  =====================  ==================
domain     committee guarantee    semi-strong JR
=========  =====================  ==================
t-PART     exact (1,0)            yes
alpha-TR   exact (1,0)            yes
CEI / VEI  (2,0)                  yes
VI         (2,4)                  no
WSC        none                   yes
=========  =====================  ==================

Recognition, verification and construction work on the voter and candidate
bitmasks the election already holds (``ballot_masks``, ``candidate_voters``)
with one interval check: a set's mask is mapped to a mask over the positions
of an order (:func:`~irlab.model.position_mask`) and tested as an interval,
a prefix or a suffix (:func:`~irlab.model.is_run`).  The CI and VI
recognizers hand the same masks to the consecutive-ones layout of :mod:`c1p`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal, Sequence

from . import axioms, c1p
from .cohesion import CohesionCertificate, _vi_spans, _vi_sweep
from .model import Committee, Election, _iter_bits, is_run, padding, position_mask

DomainId = Literal["CI", "VI", "CEI", "VEI", "T_PART", "WSC", "ALPHA_TR"]


class InvalidWitnessError(ValueError):
    """The supplied witness does not certify membership in the domain."""


class ConstructionInfeasibleError(RuntimeError):
    """The domain construction cannot honor its guarantee on this input."""


@dataclass(frozen=True)
class GuaranteeTag:
    """Approximation level promised for the constructed committee."""

    alpha: Fraction | None
    beta: Fraction | None
    ssjr_guaranteed: bool


GUARANTEES: dict[str, GuaranteeTag] = {
    "T_PART": GuaranteeTag(Fraction(1), Fraction(0), True),
    "ALPHA_TR": GuaranteeTag(Fraction(1), Fraction(0), True),
    "CEI": GuaranteeTag(Fraction(2), Fraction(0), True),
    "VEI": GuaranteeTag(Fraction(2), Fraction(0), True),
    "VI": GuaranteeTag(Fraction(2), Fraction(4), False),
    "WSC": GuaranteeTag(None, None, True),
}


# --------------------------------------------------------------------------
# witnesses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CIWitness:
    candidate_order: tuple[int, ...]


@dataclass(frozen=True)
class VIWitness:
    voter_order: tuple[int, ...]


@dataclass(frozen=True)
class CEIWitness:
    candidate_order: tuple[int, ...]
    voter_side: tuple[str, ...]  # 'prefix' | 'suffix' per voter


@dataclass(frozen=True)
class VEIWitness:
    voter_order: tuple[int, ...]
    candidate_side: tuple[str, ...]  # 'prefix' | 'suffix' per candidate


@dataclass(frozen=True)
class TPartWitness:
    blocks: tuple[frozenset[int], ...]
    voter_block: tuple[int, ...]  # block index per voter, -1 for an empty ballot


@dataclass(frozen=True)
class WSCWitness:
    voter_order: tuple[int, ...]


@dataclass(frozen=True)
class TreeWitness:
    """Rooted candidate tree: parent[c] is a candidate index or -1 for the root x."""

    parent: tuple[int, ...]


DomainWitness = (
    CIWitness | VIWitness | CEIWitness | VEIWitness | TPartWitness | WSCWitness | TreeWitness
)


WITNESS_TYPES: dict[str, type] = {
    "CI": CIWitness,
    "VI": VIWitness,
    "CEI": CEIWitness,
    "VEI": VEIWitness,
    "T_PART": TPartWitness,
    "WSC": WSCWitness,
    "ALPHA_TR": TreeWitness,
}


# --------------------------------------------------------------------------
# witness validity
# --------------------------------------------------------------------------


def verify_witness(election: Election, domain: DomainId, witness: DomainWitness) -> bool:
    """Re-check a witness against its domain invariants by direct evaluation."""
    return _witness_problem(election, domain, witness) is None


def _witness_problem(election: Election, domain: DomainId, witness: DomainWitness) -> str | None:
    """Why ``witness`` does not certify ``domain``, or None when it does."""
    kind = WITNESS_TYPES.get(domain)
    if kind is None:
        raise ValueError(f"no witness verification for domain {domain!r}")
    if not isinstance(witness, kind):
        return f"expected a {kind.__name__}"
    n, m = election.n, election.m
    invalid = f"invalid {'t-PART' if domain == 'T_PART' else domain} witness"
    if domain == "CI":
        order, masks = witness.candidate_order, election.ballot_masks
        if sorted(order) != list(range(m)) or not c1p.is_consecutive_under(order, masks):
            return invalid
    elif domain == "VI":
        try:
            _vi_spans(election, witness.voter_order)
        except ValueError as exc:
            return str(exc)
    elif domain in ("CEI", "VEI"):
        # one side per ballot (CEI) or per candidate (VEI) along the witness order
        size, masks = _ends_axis(election, domain)
        if domain == "CEI":
            order, sides = witness.candidate_order, witness.voter_side
        else:
            order, sides = witness.voter_order, witness.candidate_side
        if sorted(order) != list(range(size)) or len(sides) != len(masks) or not all(
            side in ("prefix", "suffix") and is_run(position_mask(mask, order), side, size)
            for mask, side in zip(masks, sides)
        ):
            return invalid
    elif domain == "T_PART":
        # nonempty blocks covering each candidate once; each ballot its block
        blocks = witness.blocks
        if not all(blocks) or sorted(c for block in blocks for c in block) != list(range(m)):
            return invalid
        if len(witness.voter_block) != n or any(
            not -1 <= b < len(blocks) or ballot != (blocks[b] if b >= 0 else frozenset())
            for ballot, b in zip(election.approvals, witness.voter_block)
        ):
            return invalid
    elif domain == "WSC":
        order = witness.voter_order
        if sorted(order) != list(range(n)) or not _wsc_order_valid(election, order):
            return invalid
    else:
        try:
            if not verify_tree(election, witness):
                return "ballots are not root paths of the tree"
        except ValueError as exc:
            return str(exc)
    return None


def _ends_axis(election: Election, domain: DomainId) -> tuple[int, tuple[int, ...]]:
    """The column count and the masks laid out at the ends: the ballots over
    the candidates for CEI, the supporter sets over the voters for VEI."""
    if domain == "CEI":
        return election.m, election.ballot_masks
    return election.n, election.candidate_voters


def _wsc_order_valid(election: Election, order: Sequence[int]) -> bool:
    """Direct check of the weakly single-crossing condition for every pair:
    along the order, the voters approving only c and those approving only d
    must form a prefix and a suffix, one each."""
    n = election.n
    along = [position_mask(mask, order) for mask in election.candidate_voters]
    for c in range(election.m):
        for d in range(c + 1, election.m):
            only_c = along[c] & ~along[d]
            only_d = along[d] & ~along[c]
            if not (
                is_run(only_c, "prefix") and is_run(only_d, "suffix", n)
                or is_run(only_d, "prefix") and is_run(only_c, "suffix", n)
            ):
                return False
    return True


# --------------------------------------------------------------------------
# recognition
# --------------------------------------------------------------------------


def recognize(election: Election, domain: DomainId) -> DomainWitness | None:
    """Find a domain witness, or None when the profile is provably outside.

    ALPHA_TR witnesses are verified rather than searched (use
    :func:`verify_tree`).
    """
    if domain == "CI":
        order = c1p.consecutive_ones_order(election.m, election.ballot_masks)
        return None if order is None else CIWitness(candidate_order=tuple(order))
    if domain == "VI":
        order = c1p.consecutive_ones_order(election.n, election.candidate_voters)
        return None if order is None else VIWitness(voter_order=tuple(order))
    if domain in ("CEI", "VEI"):
        size, masks = _ends_axis(election, domain)
        layout = _prefix_suffix_layout(size, masks)
        if layout is None:
            return None
        order, side_of = layout
        sides = tuple(side_of.get(mask, "prefix") for mask in masks)
        return WITNESS_TYPES[domain](tuple(order), sides)
    if domain == "T_PART":
        return _recognize_tpart(election)
    if domain == "WSC":
        return _recognize_wsc(election)
    if domain == "ALPHA_TR":
        raise ValueError(f"recognition for domain {domain} is not supported")
    raise ValueError(f"unknown domain {domain!r}")


def _recognize_tpart(election: Election) -> TPartWitness | None:
    blocks: list[frozenset[int]] = []
    index_of: dict[frozenset[int], int] = {}
    voter_block: list[int] = []
    for ballot in election.approvals:
        if not ballot:
            voter_block.append(-1)
            continue
        if ballot not in index_of:
            for other in blocks:
                if other & ballot and other != ballot:
                    return None
            index_of[ballot] = len(blocks)
            blocks.append(ballot)
        voter_block.append(index_of[ballot])
    leftover = frozenset(range(election.m)) - frozenset().union(*blocks)
    if leftover:
        blocks.append(leftover)
    return TPartWitness(blocks=tuple(blocks), voter_block=tuple(voter_block))


def _recognize_wsc(election: Election) -> WSCWitness | None:
    """The order comes from laying out the pairwise differences N(c) - N(d)
    and N(d) - N(c) at opposite ends; empty and full differences sit at an
    end of any order, so only the other pairs are forced apart."""
    full = election.all_voters_mask()
    masks = election.candidate_voters
    family: list[int] = []
    forced_diff: list[tuple[int, int]] = []
    for c in range(election.m):
        for d in range(c + 1, election.m):
            pair = (masks[c] & ~masks[d], masks[d] & ~masks[c])
            family += (x for x in pair if x != full)
            if 0 not in pair and full not in pair:
                forced_diff.append(pair)
    layout = _prefix_suffix_layout(election.n, family, forced_diff)
    if layout is None:
        return None
    order, _ = layout
    if not _wsc_order_valid(election, order):
        return None
    return WSCWitness(voter_order=tuple(order))


def _prefix_suffix_layout(
    num_columns: int,
    masks: Sequence[int],
    forced_diff: Sequence[tuple[int, int]] = (),
) -> tuple[list[int], dict[int, str]] | None:
    """Assign each column mask to an end ('prefix'/'suffix') of a single column order.

    Two sets can share an end only if nested; sets at opposite ends must
    intersect in exactly max(0, |A|+|B|-num_columns) columns.  These pairwise
    constraints induce a parity two-coloring; the order itself follows from
    the two containment chains.
    """
    fam = [mask for mask in dict.fromkeys(masks) if mask]
    size = [mask.bit_count() for mask in fam]
    idx = {mask: i for i, mask in enumerate(fam)}
    edges: list[list[tuple[int, int]]] = [[] for _ in fam]  # (neighbor, parity)

    def add_edge(i: int, j: int, parity: int) -> None:
        edges[i].append((j, parity))
        edges[j].append((i, parity))

    def cross_ok(i: int, j: int) -> bool:
        return (fam[i] & fam[j]).bit_count() == max(0, size[i] + size[j] - num_columns)

    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            same = fam[i] & fam[j] in (fam[i], fam[j])
            cross = cross_ok(i, j)
            if not same and not cross:
                return None
            if same != cross:
                add_edge(i, j, int(cross))
    for a, b in forced_diff:
        i, j = idx[a], idx[b]
        if not cross_ok(i, j):
            return None
        add_edge(i, j, 1)

    color = [-1] * len(fam)
    for start in range(len(fam)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v, parity in edges[u]:
                want = color[u] ^ parity
                if color[v] == -1:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return None

    def layers(side: int) -> list[int]:
        """Per column, the rank in the side's containment chain of the first
        set holding it (the chain length when none does)."""
        chain = sorted((i for i in range(len(fam)) if color[i] == side), key=size.__getitem__)
        rank = [len(chain)] * num_columns
        covered = 0
        for r, i in enumerate(chain):
            for col in _iter_bits(fam[i] & ~covered):
                rank[col] = r
            covered |= fam[i]
        return rank

    prefix_rank, suffix_rank = layers(0), layers(1)
    order = sorted(range(num_columns), key=lambda col: (prefix_rank[col], -suffix_rank[col], col))
    side_of: dict[int, str] = {}
    for i, mask in enumerate(fam):
        side = "suffix" if color[i] else "prefix"
        if not is_run(position_mask(mask, order), side, num_columns):
            return None  # pairwise-consistent but globally infeasible; caught here
        side_of[mask] = side
    return order, side_of


# --------------------------------------------------------------------------
# candidate trees
# --------------------------------------------------------------------------


def verify_tree(election: Election, tree: TreeWitness) -> bool:
    """True iff every ballot is exactly a root path of the candidate tree.

    Raises ValueError when the tree itself is malformed (wrong length, bad
    parent index, cycle).
    """
    if len(tree.parent) != election.m:
        raise ValueError("parent vector length differs from candidate count")
    valid = set(_root_paths(tree.parent))
    return all(not ballot or ballot in valid for ballot in election.ballot_masks)


def _root_paths(parent: Sequence[int]) -> list[int]:
    """The candidate mask of each candidate's path up to the root; raises
    ValueError on a parent index out of range or a cycle."""
    m = len(parent)
    paths = []
    for c in range(m):
        path = 0
        cur = c
        while cur != -1:
            if path >> cur & 1:
                raise ValueError(f"cycle through candidate {c}")
            path |= 1 << cur
            p = parent[cur]
            if p != -1 and not 0 <= p < m:
                raise ValueError(f"candidate {cur}: parent index {p} out of range")
            cur = p
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VIRoundStep:
    """One iteration of a round of the two-pass voter-interval algorithm."""

    voter: int
    position: int
    support_below: int  # |N_<i|, witness supporters strictly before the voter
    support_above: int  # |N_>=i|, witness supporters from the voter on
    target: int
    added: tuple[int, ...]
    accumulated: int  # |W_i| resp. |W-hat_i| after this iteration


@dataclass(frozen=True)
class VITrace:
    round1: tuple[VIRoundStep, ...]
    round2: tuple[VIRoundStep, ...]
    padding: tuple[int, ...]
    certificates: tuple[CohesionCertificate, ...]


@dataclass(frozen=True)
class ConstructResult:
    committee: Committee
    guarantee: GuaranteeTag
    trace: VITrace | None = None


def construct(
    election: Election, domain: DomainId, witness: DomainWitness
) -> ConstructResult:
    """Build a committee with the domain's guarantee.

    The one construction path: the witness is re-verified, the domain's
    builder picks the members its rule guarantees, the lowest-index unused
    candidates pad them to k seats, and a semi-strong JR guarantee is
    re-checked on the padded committee.
    """
    build = _BUILDERS.get(domain)
    if build is None:
        raise ValueError(f"no construction for domain {domain!r}")
    problem = _witness_problem(election, domain, witness)
    if problem is not None:
        raise InvalidWitnessError(problem)
    members, trace = build(election, witness)
    if len(members) > election.k:
        raise AssertionError(f"the {domain} construction exceeded the committee size")
    pad = padding(election, members)
    committee = Committee.of([*members, *pad], election)
    if trace is not None:
        trace = replace(trace, padding=pad)
    guarantee = GUARANTEES[domain]
    if guarantee.ssjr_guaranteed:
        verdict = axioms.check(election, committee, axioms.SSJR)
        if verdict.status != "satisfied":
            (v,) = verdict.witness.deprived
            raise ConstructionInfeasibleError(
                f"voter {v} with positive entitlement left unrepresented"
            )
    return ConstructResult(committee=committee, guarantee=guarantee, trace=trace)


def _vi_members(election: Election, witness: VIWitness) -> tuple[set[int], VITrace]:
    """Two-pass committee construction with the (2,4) guarantee on VI profiles.

    Round 1 walks the witness order forward and tops up each voter to
    floor(|N_>=i| * k / 2n) approved members, drawing fresh candidates from
    the voter's own witness set; round 2 walks backwards with the mirrored
    target floor(|N_<i| * k / 2n), avoiding round-1 picks where possible.
    When a witness set is exhausted the voter already holds all of it, which
    meets the guarantee outright.  The trace's padding is left empty.
    """
    order = list(witness.voter_order)
    pos, spans = _vi_spans(election, order)
    certs = _vi_sweep(election, pos, spans)
    n, k = election.n, election.k
    # a witness's supporters are the positions its candidates' spans share
    # (every voter when the witness is empty); |N_<i| and |N_>=i| per voter
    below, above = [0] * n, [0] * n
    for cert in certs:
        lo, hi = 0, n - 1
        for c in cert.witness_set:
            lo, hi = max(lo, spans[c][0]), min(hi, spans[c][1])
        p = pos[cert.voter]
        below[cert.voter], above[cert.voter] = p - lo, hi - p + 1

    def vi_round(positions, support, taken):
        """One pass over ``positions``: each voter is topped up to
        floor(support * k / 2n) approved picks of the pass from her witness
        set, candidates outside ``taken`` first."""
        picked: set[int] = set()
        steps = []
        for p in positions:
            v = order[p]
            # a wide supporter interval can ask for more than the witness set
            # holds; capping at f_i keeps the request servable (a voter holding
            # all of her witness set is fully represented already)
            target = min((support[v] * k) // (2 * n), certs[v].f)
            have = len(picked & election.approvals[v])
            added: tuple[int, ...] = ()
            if have < target:
                unpicked = certs[v].witness_set - picked
                order_of_use = sorted(unpicked - taken) + sorted(unpicked & taken)
                added = tuple(order_of_use[: target - have])
                picked.update(added)
            steps.append(
                VIRoundStep(
                    voter=v,
                    position=p,
                    support_below=below[v],
                    support_above=above[v],
                    target=target,
                    added=added,
                    accumulated=len(picked),
                )
            )
        return picked, tuple(steps)

    committee, round1 = vi_round(range(n), above, frozenset())
    hat, round2 = vi_round(range(n - 1, -1, -1), below, frozenset(committee))
    return committee | hat, VITrace(round1, round2, (), tuple(certs))


def _ends_members(election: Election, order: Sequence[int]) -> tuple[set[int], None]:
    """CEI and VEI: the first k universally approved candidates when there are
    that many, otherwise the first k//2 and the last k - k//2 candidates of
    the domain's candidate order (the witness's for CEI, `vei_candidate_order`
    for VEI)."""
    k = election.k
    full = election.all_voters_mask()
    common = [c for c in range(election.m) if election.candidate_voters[c] == full]
    if len(common) >= k:
        return set(common[:k]), None
    return set(order[: k // 2]) | set(order[len(order) - (k - k // 2) :]), None


def vei_candidate_order(election: Election, witness: VEIWitness) -> list[int]:
    """The candidate order used by the VEI construction: prefix-supported
    candidates sorted by last approving voter descending, then
    suffix-supported ones by first approving voter descending."""
    n = election.n
    prefix_cands: list[tuple[int, int]] = []
    suffix_cands: list[tuple[int, int]] = []
    for c, mask in enumerate(election.candidate_voters):
        pm = position_mask(mask, witness.voter_order)
        if not pm or witness.candidate_side[c] == "prefix" or pm & 1 and pm >> (n - 1):
            prefix_cands.append((pm.bit_length() - 1, c))  # -1 when unsupported
        else:
            suffix_cands.append(((pm & -pm).bit_length() - 1, c))
    prefix_cands.sort(key=lambda t: (-t[0], t[1]))
    suffix_cands.sort(key=lambda t: (-t[0], t[1]))
    return [c for _, c in prefix_cands] + [c for _, c in suffix_cands]


def _tpart_members(election: Election, witness: TPartWitness) -> tuple[set[int], None]:
    """Each block's lowest-index candidates, as many as its supporters' quota."""
    n, k = election.n, election.k
    members: set[int] = set()
    for block in witness.blocks:
        backing = election.supporters_mask(block).bit_count()
        quota = (backing * k) // n
        members.update(sorted(block)[: min(quota, len(block))])
    return members, None


def _wsc_members(election: Election, witness: WSCWitness) -> tuple[set[int], None]:
    """The lowest candidate of the first wide ballot along the order and of the
    first wide ballot without it, then the candidate of every entitled
    single-candidate voter."""
    n, k = election.n, election.k
    members: set[int] = set()
    wide = [v for v in witness.voter_order if len(election.approvals[v]) >= 2]
    if wide:
        c_star = min(election.approvals[wide[0]])
        members.add(c_star)
        crossing = next(
            (v for v in wide if c_star not in election.approvals[v]), None
        )
        if crossing is not None:
            members.add(min(election.approvals[crossing]))
    # single-candidate voters are excluded from the crossing argument; cover
    # the entitled ones directly while seats remain
    for v, ballot in enumerate(election.approvals):
        if len(ballot) != 1:
            continue
        (c,) = ballot
        if c not in members and election.candidate_voters[c].bit_count() * k >= n:
            if len(members) >= k:
                raise ConstructionInfeasibleError(
                    f"no seat left for entitled single-candidate voter {v}"
                )
            members.add(c)
    if len(members) > k:
        raise ConstructionInfeasibleError("guaranteed candidates exceed committee size")
    return members, None


def _atr_members(election: Election, witness: TreeWitness) -> tuple[set[int], None]:
    """A candidate at depth d (its root path holds d candidates) joins when
    its supporters can claim d seats."""
    n, k = election.n, election.k
    members = {
        c
        for c, path in enumerate(_root_paths(witness.parent))
        if election.candidate_voters[c].bit_count() * k >= n * path.bit_count()
    }
    return members, None


_BUILDERS = {
    "VI": _vi_members,
    "CEI": lambda election, witness: _ends_members(election, witness.candidate_order),
    "VEI": lambda election, witness: _ends_members(
        election, vei_candidate_order(election, witness)
    ),
    "T_PART": _tpart_members,
    "WSC": _wsc_members,
    "ALPHA_TR": _atr_members,
}
