"""Shared fixture elections used across the test suite.

All instances are small, hand-checkable profiles exercising tight corners of
the axioms, rules and solvers; indices are 0-based (c1 means index 0).
"""

from irlab.model import Election


def two_camps_with_bridge() -> Election:
    # 8 voters, 3 candidates, k=2; c1 on voters 1-4, c2 on 5-8, c3 on 2-7
    approvals = (
        [{0}]
        + [{0, 2}] * 3
        + [{1, 2}] * 3
        + [{1}]
    )
    return Election.from_approvals(approvals, m=3, k=2)


def uneven_cohorts() -> Election:
    # 12 voters, 10 candidates, k=6
    approvals = [
        {0},
        {1},
        {2},
        {3},
        {0, 1, 2, 4, 5, 6, 7},
        {0, 1, 3, 4, 5, 6, 7},
        {0, 2, 3, 4, 5, 6, 7},
        {1, 2, 3, 4, 5, 6, 7},
        {4, 5, 6, 8, 9},
        {4, 5, 7, 8, 9},
        {4, 6, 7, 8, 9},
        {5, 6, 7, 8, 9},
    ]
    return Election.from_approvals(approvals, m=10, k=6)


def ssjr_ejr_clash() -> Election:
    # n=8, k=4: semi-strong JR forces {c3,c4,c5}, clashing with EJR
    approvals = [{0, 1}] * 4 + [{2, 3, 4}, {2}, {3}, {4}]
    return Election.from_approvals(approvals, m=5, k=4)


def disjoint_blocks_instance(k: int = 3) -> Election:
    # n = k(k+1); the first n/k voters hold disjoint (k-1)-blocks, the rest
    # approve everything; no (alpha, beta)-IR committee exists for beta < k-1
    n = k * (k + 1)
    groups = k + 1
    m = (k - 1) * groups
    approvals = []
    for i in range(groups):
        approvals.append(set(range((k - 1) * i, (k - 1) * (i + 1))))
    for _ in range(n - groups):
        approvals.append(set(range(m)))
    return Election.from_approvals(approvals, m=m, k=k)


def opposed_ends_instance(k: int = 4, n: int = 8) -> Election:
    # VI profile with f_1 = f_n = k-1 where no committee serves both ends
    m = 2 * (k - 1)
    approvals = (
        [set(range(k - 1))]
        + [set(range(m)) for _ in range(n - 2)]
        + [set(range(m - k + 1, m))]
    )
    return Election.from_approvals(approvals, m=m, k=k)


def coverage_bait_instance() -> Election:
    # 16 voters, k=4: CC, Monroe and geometric PAV pick {c1,c2,c3,c4},
    # missing the unique IR committee {c1,c2,c3,c5}
    approvals = (
        [{0}] * 3
        + [{0, 4}]
        + [{1}] * 3
        + [{1, 4}]
        + [{2}] * 3
        + [{2, 4}]
        + [{3}] * 3
        + [{4}]
    )
    return Election.from_approvals(approvals, m=5, k=4)


def load_bait_instance() -> Election:
    # 6 voters, k=3: max-Phragmen prefers {c1,c4,c5} over the IR committees
    approvals = [
        {0},
        {1},
        {0, 1, 2, 3, 4},
        {2, 3, 4, 5},
        {3, 4, 5},
        {4, 5},
    ]
    return Election.from_approvals(approvals, m=6, k=3)


def hamming_bait_instance() -> Election:
    # 99 voters on {c1,c2} plus one approving {c3..c8}; k=2
    approvals = [{0, 1}] * 99 + [set(range(2, 8))]
    return Election.from_approvals(approvals, m=8, k=2)


def uncoverable_line_instance() -> Election:
    # 6 voters, k=3, uniform-radius Euclidean line; no semi-strong JR committee
    approvals = [{0}, {0, 1}, {1}, {2}, {2, 3}, {3}]
    return Election.from_approvals(approvals, m=4, k=3)


def ssjr_not_pr_instance() -> Election:
    # n=6, k=3: {c4,c5,c6} gives semi-strong JR but not perfect representation
    approvals = [
        {0, 3},
        {0, 3},
        {1, 3, 5},
        {1, 4},
        {2, 4},
        {2, 4},
    ]
    return Election.from_approvals(approvals, m=6, k=3)


def pr_without_ir_instance() -> Election:
    # n=8, k=4: perfect representation exists but IR does not
    approvals = [
        {0},
        {1},
        {2},
        {3},
        {0, 4, 5},
        {1, 4, 5},
        {2, 4, 5},
        {3, 4, 5},
    ]
    return Election.from_approvals(approvals, m=6, k=4)


# IR failures of AV and SAV at m = 3, k = 2, each with the fewest voters (an
# exhaustive search over n <= 6): every f_i is 1 and {c1, c2} meets f, but
# each rule's only winner is {c2, c3}, which leaves voter 1 with nothing.
# AV scores the candidates 2, 3, 3 and SAV 5/3, 13/6, 13/6.  They are
# elections, not functions, so the golden CLI digests, which run every
# fixture function, keep the profiles they were recorded on.
AV_IR_FAILURE = Election.from_approvals([{0}, {1, 2}, {1, 2}, {0, 1, 2}], m=3, k=2)
SAV_IR_FAILURE = Election.from_approvals([{0}] + [{1, 2}] * 3 + [{0, 1, 2}] * 2, m=3, k=2)

# IR failures of the sequential rules at m = 3, k = 2, each with the fewest
# voters of a tie-free failure (an exhaustive search over n <= 9): every f_i
# is 1, {c1, c2} is the only IR committee, and each rule elects {c1, c3},
# which leaves the one voter approving only c2 with nothing, so semi-strong
# JR fails too.  No pick ties, so every relabelling of the candidates elects
# the relabelled committee.  seq-PAV picks c3 (gain 5 against 4 and 4), then
# c1 (3 against 5/2).
SEQ_PAV_IR_FAILURE = Election.from_approvals(
    [{0}, {0}, {1}, {0, 2}, {0, 2}, {1, 2}, {1, 2}, {1, 2}], m=3, k=2
)
# seq-Phragmén loads c1 at 1/5 (c3 1/4, c2 1/3), then c3 at 9/20 (c2 7/15).
SEQ_PHRAGMEN_IR_FAILURE = Election.from_approvals(
    [{0}, {1}, {0, 2}, {0, 2}, {0, 1, 2}, {0, 1, 2}], m=3, k=2
)
# The same profile defeats Rule X: its equal-shares phase buys c1 at 1/5 from
# the k/n = 1/3 budgets, after which neither c2 (9/15 left among its
# supporters) nor c3 (8/15) is affordable, and the seq-Phragmén completion
# from the residual budgets takes c3 at 7/60 (c2 8/60).
RULE_X_IR_FAILURE = SEQ_PHRAGMEN_IR_FAILURE
