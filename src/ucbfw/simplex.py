"""Exact occupation-measure bookkeeping on the probability simplex.

Pull counts are kept as exact whole numbers and the proportion vector
p_t = T_i(t)/t is derived on demand, so the simplex constraints hold
exactly instead of drifting through repeated float updates of the
recurrence p_{t+1} = p_t + (e_a - p_t)/(t+1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SIMPLEX_SUM_TOL = 1e-12


def check_simplex(coords: Sequence[float], tol: float = SIMPLEX_SUM_TOL) -> Sequence[float]:
    """Validate a simplex point (nonnegative, l1 norm 1 within tol); a NaN
    coordinate fails both tests."""
    total = 0.0
    for i, c in enumerate(coords):
        if not c >= 0.0:
            raise ValueError(f"simplex coordinate {i} must be nonnegative, got {c!r}")
        total += c
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"simplex coordinates sum to {total!r}, expected 1.0")
    return coords


class OccupationState:
    """Round count t and per-action pull counts of a block of S trajectories
    advanced in lockstep, one seed per row.

    `counts` is an (S, K) float64 array of whole numbers: exact, and c / t
    then needs no conversion to give the correctly rounded quotient of the
    integers.  `apply` takes one action per seed (an int array; a plain int
    applies to every row) and `proportions` returns the (S, K) array
    p_t = T_i(t) / t.  Actions come from the block policies and are not
    range-checked.

    Mutated only by the trial that owns it; counts never decrease.
    """

    __slots__ = ("t", "counts", "num_actions", "_flat", "_row", "_ones", "_p")

    def __init__(self, num_actions: int, seeds: int):
        if num_actions < 2:
            raise ValueError(f"need at least 2 actions, got {num_actions}")
        self.t = 0
        self.num_actions = num_actions
        self.counts = np.zeros((seeds, num_actions))
        self._flat = self.counts.reshape(-1)
        self._row = np.arange(seeds) * num_actions
        # an array operand: a Python scalar costs a conversion every round
        self._ones = np.ones(seeds)
        self._p = None

    def apply(self, action) -> None:
        self._flat[self._row + action] += self._ones
        self._p = None
        self.t += 1

    def proportions(self) -> np.ndarray:
        t = self.t
        if t == 0:
            raise ValueError("occupation measure is undefined before the first action")
        # kept until the next apply; callers only read it
        if self._p is None:
            self._p = self.counts / float(t)
        return self._p

    def __repr__(self) -> str:
        return f"OccupationState(t={self.t}, counts={self.counts})"
