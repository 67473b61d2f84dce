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
with one interval check: a family's masks are mapped to order positions in
one batch (:func:`~irlab.model.position_masks`) and each result is tested as
an interval, a prefix or a suffix (:func:`~irlab.model.is_run`).  The CI and
VI recognizers hand the same masks to the consecutive-ones layout of :mod:`c1p`.
WSC recognition and its check pair distinct supporter sets, not candidates,
and the prefix/suffix layout behind CEI, VEI and WSC stops at the first
conflicting pair of sets, before the rest of the family is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from . import axioms, c1p
from .cohesion import CohesionCertificate, _vi_spans, _vi_sweep
from .model import Committee, Election, _iter_bits, is_run, mask_to_set, members_mask
from .model import padding, position_masks

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
            side in ("prefix", "suffix") and is_run(pm, side, size)
            for pm, side in zip(position_masks(masks, order), sides)
        ):
            return invalid
    elif domain == "T_PART":
        # nonempty blocks covering each candidate once; each ballot its block
        blocks = witness.blocks
        if not all(blocks) or sorted(c for block in blocks for c in block) != list(range(m)):
            return invalid
        block_masks = [*map(members_mask, blocks), 0]  # index -1: the empty ballot
        if len(witness.voter_block) != n or any(
            not -1 <= b < len(blocks) or ballot != block_masks[b]
            for ballot, b in zip(election.ballot_masks, witness.voter_block)
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
    must form a prefix and a suffix, one each.  The test is symmetric and
    reads only the two supporter sets, so each pair of distinct supporter
    sets is tested once."""
    n = election.n
    along = position_masks(list(dict.fromkeys(election.candidate_voters)), order)
    for a, u in enumerate(along):
        for v in along[a + 1 :]:
            only_u, only_v = u & ~v, v & ~u
            if not (
                is_run(only_u, "prefix") and is_run(only_v, "suffix", n)
                or is_run(only_v, "prefix") and is_run(only_u, "suffix", n)
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
    """The distinct nonempty ballots, in order of first appearance, are the
    blocks when no two of them overlap; the candidates no ballot names form
    one more block."""
    masks = election.ballot_masks
    blocks = [ballot for ballot in dict.fromkeys(masks) if ballot]
    covered = 0
    for block in blocks:
        if block & covered:
            return None
        covered |= block
    index_of = {block: b for b, block in enumerate(blocks)}
    index_of[0] = -1
    voter_block = tuple(map(index_of.__getitem__, masks))
    leftover = ~covered & ((1 << election.m) - 1)
    if leftover:
        blocks.append(leftover)
    return TPartWitness(blocks=tuple(map(mask_to_set, blocks)), voter_block=voter_block)


def _recognize_wsc(election: Election) -> WSCWitness | None:
    """The order comes from laying out the pairwise differences N(c) - N(d)
    and N(d) - N(c) at opposite ends.  Empty and full differences sit at an
    end of any order and drop out; the two sets of any other pair are
    disjoint, so the layout's pairwise test finds them not nested but
    crossing, and that alone puts them at opposite ends.

    Only pairs of distinct supporter sets u, v (u first seen before v) are
    differenced, lazily, so the layout stops at the first conflicting pair
    without the rest of the family being built.  The first candidate pair
    carrying {u, v} is (first(u), first(v)), in that orientation, so the
    family's distinct sets arrive in the order the candidate pairs give."""
    full = election.all_voters_mask()
    masks = list(dict.fromkeys(election.candidate_voters))
    family = (
        x
        for a, u in enumerate(masks)
        for v in masks[a + 1 :]
        for x in (u & ~v, v & ~u)
        if x != full
    )
    layout = _prefix_suffix_layout(election.n, family)
    if layout is None:
        return None
    order, _ = layout
    if not _wsc_order_valid(election, order):
        raise AssertionError("internal error: the WSC layout failed verification")
    return WSCWitness(voter_order=tuple(order))


def _prefix_suffix_layout(
    num_columns: int, masks: Iterable[int]
) -> tuple[list[int], dict[int, str]] | None:
    """Assign each column mask to an end ('prefix'/'suffix') of a single column order.

    Two sets can share an end only if nested; sets at opposite ends must
    intersect in exactly max(0, |A|+|B|-num_columns) columns.  These pairwise
    constraints induce a parity two-coloring; the order itself follows from
    the two containment chains.  Each distinct nonempty mask is tested
    against every earlier one as it arrives, so the first pair that is
    neither nested nor crossing ends the layout before later masks are read.
    """
    fam: list[int] = []
    size: list[int] = []
    edges: list[list[tuple[int, int]]] = []  # (neighbor, parity)
    seen: set[int] = {0}
    for mask in masks:
        if mask in seen:
            continue
        seen.add(mask)
        j, bits, near = len(fam), mask.bit_count(), []
        for i, other in enumerate(fam):
            common = other & mask
            same = common in (other, mask)
            cross = common.bit_count() == max(0, size[i] + bits - num_columns)
            if not same and not cross:
                return None
            if same != cross:
                edges[i].append((j, int(cross)))
                near.append((i, int(cross)))
        fam.append(mask)
        size.append(bits)
        edges.append(near)

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
    for i, pm in enumerate(position_masks(fam, order)):
        side = "suffix" if color[i] else "prefix"
        if not is_run(pm, side, num_columns):
            return None  # pairwise-consistent but globally infeasible; caught here
        side_of[fam[i]] = side
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
    n, k, ballots = election.n, election.k, election.ballot_masks
    # voter v's witness supporters are one run of the order holding v (every
    # voter when the witness is empty): |N_<v| and |N_>=v| are its ends.
    # Voters share a few supporter sets, so each is placed once
    groups = [cert.witness_supporters.mask for cert in certs]
    distinct = list(dict.fromkeys(groups))
    run = dict(zip(distinct, position_masks(distinct, order)))
    below = [pos[v] + 1 - (run[g] & -run[g]).bit_length() for v, g in enumerate(groups)]
    above = [run[g].bit_length() - pos[v] for v, g in enumerate(groups)]

    def vi_round(positions, support, taken):
        """One pass over ``positions``: each voter is topped up to
        floor(support * k / 2n) approved picks of the pass from her witness
        set, candidates outside ``taken`` first."""
        picked: set[int] = set()
        picked_mask = 0
        steps = []
        for p in positions:
            v = order[p]
            # a wide supporter interval can ask for more than the witness set
            # holds; capping at f_i keeps the request servable (a voter holding
            # all of her witness set is fully represented already)
            target = min((support[v] * k) // (2 * n), certs[v].f)
            have = (picked_mask & ballots[v]).bit_count()
            added: tuple[int, ...] = ()
            if have < target:
                unpicked = certs[v].witness_set - picked
                order_of_use = sorted(unpicked - taken) + sorted(unpicked & taken)
                added = tuple(order_of_use[: target - have])
                picked.update(added)
                picked_mask |= members_mask(added)
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
    for c, pm in enumerate(position_masks(election.candidate_voters, witness.voter_order)):
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
    n, k, ballots = election.n, election.k, election.ballot_masks
    members: set[int] = set()
    wide = [ballots[v] for v in witness.voter_order if ballots[v].bit_count() >= 2]
    if wide:
        c_star = (wide[0] & -wide[0]).bit_length() - 1  # its lowest candidate
        members.add(c_star)
        crossing = next((b for b in wide if not b >> c_star & 1), 0)
        if crossing:
            members.add((crossing & -crossing).bit_length() - 1)
    # single-candidate voters are excluded from the crossing argument; cover
    # the entitled ones directly while seats remain
    for v, ballot in enumerate(ballots):
        if ballot.bit_count() != 1:
            continue
        c = ballot.bit_length() - 1
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
