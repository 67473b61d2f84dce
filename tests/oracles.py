"""Independent brute-force oracles.

Everything here evaluates definitions by full enumeration, deliberately
sharing no search code with the package: subsets are enumerated without
pruning and orders by factorial search.
"""

from fractions import Fraction
from itertools import combinations, permutations


def brute_f(election, voter):
    """max |S| over S inside the ballot with |N(S)|*k >= |S|*n, by full enumeration."""
    ballot = sorted(election.approvals[voter])
    n, k = election.n, election.k
    best = 0
    for size in range(1, len(ballot) + 1):
        for sub in combinations(ballot, size):
            supporters = sum(
                1 for a in election.approvals if set(sub) <= a
            )
            if supporters * k >= size * n:
                best = size
                break
    return best


def brute_ir_committees(election, fvalues):
    """All size-k committees meeting every voter's entitlement."""
    out = []
    for combo in combinations(range(election.m), election.k):
        w = set(combo)
        if all(len(w & a) >= f for a, f in zip(election.approvals, fvalues)):
            out.append(frozenset(combo))
    return out


def brute_ssjr_committees(election, fvalues):
    out = []
    for combo in combinations(range(election.m), election.k):
        w = set(combo)
        if all(
            len(w & a) >= 1 for a, f in zip(election.approvals, fvalues) if f >= 1
        ):
            out.append(frozenset(combo))
    return out


def _subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def naive_jr(election, members):
    n, k = election.n, election.k
    for c in range(election.m):
        group = [
            i
            for i, a in enumerate(election.approvals)
            if c in a and not (members & a)
        ]
        if len(group) * k >= n:
            return False
    return True


def naive_ejr(election, members):
    n, k = election.n, election.k
    cands = range(election.m)
    for sub in _subsets(list(cands)):
        level = len(sub)
        if level > k:
            continue
        group = [
            i
            for i, a in enumerate(election.approvals)
            if set(sub) <= a and len(members & a) < level
        ]
        if len(group) * k >= level * n:
            return False
    return True


def naive_pjr(election, members):
    n, k = election.n, election.k
    wlist = sorted(members)
    for r in range(len(wlist) + 1):
        for wsub in combinations(wlist, r):
            wset = set(wsub)
            eligible = [
                i
                for i, a in enumerate(election.approvals)
                if (a & members) <= wset
            ]
            for sub in _subsets(list(range(election.m))):
                level = len(sub)
                if level > k or level <= r:
                    continue
                group = [i for i in eligible if set(sub) <= election.approvals[i]]
                if len(group) * k >= level * n:
                    return False
    return True


def naive_core(election, members):
    n, k = election.n, election.k
    for sub in _subsets(list(range(election.m))):
        group = [
            i
            for i, a in enumerate(election.approvals)
            if len(set(sub) & a) > len(members & a)
        ]
        if len(group) * k >= len(sub) * n:
            return False
    return True


def naive_fjr(election, members):
    n, k = election.n, election.k
    for beta in range(1, k + 1):
        for sub in _subsets(list(range(election.m))):
            group = [
                i
                for i, a in enumerate(election.approvals)
                if len(set(sub) & a) >= beta and len(members & a) < beta
            ]
            if len(group) * k >= len(sub) * n:
                return False
    return True


def naive_perfect(election, members):
    """Backtracking assignment of n/k voters to each committee member."""
    n, k = election.n, election.k
    assert n % k == 0
    share = n // k
    members = sorted(members)
    load = {c: 0 for c in members}

    def place(v):
        if v == n:
            return True
        for c in sorted(election.approvals[v]):
            if c in load and load[c] < share:
                load[c] += 1
                if place(v + 1):
                    return True
                load[c] -= 1
        return False

    return place(0)


def consecutive_order_exists(num_cols, sets):
    """Factorial search for a column order making every set consecutive."""
    sets = [frozenset(s) for s in sets if s]
    for perm in permutations(range(num_cols)):
        pos = {col: p for p, col in enumerate(perm)}
        ok = True
        for s in sets:
            ps = [pos[c] for c in s]
            if max(ps) - min(ps) + 1 != len(ps):
                ok = False
                break
        if ok:
            return list(perm)
    return None


# --------------------------------------------------------------------------
# Thiele rules: Fraction scores over plain enumeration
# --------------------------------------------------------------------------


def thiele_score(election, members, weights):
    """sum over voters of weights[0] + ... + weights[u-1], u = |ballot & W|, in Fractions."""
    total = Fraction(0)
    for ballot in election.approvals:
        for t in range(len(ballot & members)):
            total += weights[t] if t < len(weights) else Fraction(0)
    return total


def cc_score(election, members):
    return sum(1 for ballot in election.approvals if ballot & members)


def brute_optimum(election, score, all_tied):
    """Lex-first (or all tied, in lex order) maximisers of score over size-k committees."""
    best_score, best = None, []
    for combo in combinations(range(election.m), election.k):
        s = score(election, frozenset(combo))
        if best_score is None or s > best_score:
            best_score, best = s, [combo]
        elif s == best_score and all_tied:
            best.append(combo)
    return best, best_score


def seq_thiele(election, weights):
    """Greedy Thiele: add the lowest-index candidate of largest marginal gain."""
    chosen, picks = [], []
    for _ in range(election.k):
        base = thiele_score(election, frozenset(chosen), weights)
        best_c, best_gain = None, None
        for c in range(election.m):
            if c in chosen:
                continue
            gain = thiele_score(election, frozenset(chosen + [c]), weights) - base
            if best_gain is None or gain > best_gain:
                best_c, best_gain = c, gain
        chosen.append(best_c)
        picks.append((best_c, best_gain))
    return sorted(chosen), picks


def rev_seq_thiele(election, weights):
    """Reverse greedy Thiele: drop the highest-index candidate of least marginal loss."""
    committee, removals = list(range(election.m)), []
    while len(committee) > election.k:
        full = thiele_score(election, frozenset(committee), weights)
        losses = [
            (full - thiele_score(election, frozenset(committee) - {c}, weights), c)
            for c in committee
        ]
        least = min(loss for loss, _ in losses)
        drop = max(c for loss, c in losses if loss == least)
        committee.remove(drop)
        removals.append((drop, least))
    return committee, removals
