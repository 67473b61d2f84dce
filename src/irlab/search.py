"""Shared node-count budget for the exponential searches in this package."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An exact search hit its node cap before producing a provably correct answer.

    ``stage`` names the search that stopped and ``nodes`` is how many nodes
    it had counted by then.
    """

    def __init__(self, cap: int, nodes: int, stage: str):
        self.cap = cap
        self.nodes = nodes
        self.stage = stage
        super().__init__(
            f"exact computation infeasible within node cap {cap} "
            f"({stage} stopped after {nodes} nodes)"
        )


class NodeBudget:
    """Counts explored search nodes of one ``stage`` and raises once ``cap`` is exceeded."""

    __slots__ = ("cap", "nodes", "stage")

    def __init__(self, cap: int, stage: str):
        if cap <= 0:
            raise ValueError("node cap must be positive")
        self.cap = cap
        self.nodes = 0
        self.stage = stage

    def tick(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.cap:
            raise BudgetExceededError(self.cap, self.nodes, self.stage)


DEFAULT_NODE_CAP = 10**7
