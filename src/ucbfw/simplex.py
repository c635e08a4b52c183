"""Exact occupation-measure bookkeeping on the probability simplex.

Pull counts are kept as exact whole numbers and the proportion vector
p_t = T_i(t)/t is derived on demand, so the simplex constraints hold
exactly instead of drifting through repeated float updates of the
recurrence p_{t+1} = p_t + (e_a - p_t)/(t+1).  While nobody reads them,
the counts are not updated each round: the actions are logged and folded
in when the counts are next read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SIMPLEX_SUM_TOL = 1e-12


def check_simplex(coords: Sequence[float]) -> Sequence[float]:
    """Validate a simplex point (nonnegative, l1 norm 1 within
    SIMPLEX_SUM_TOL); a NaN coordinate fails both tests."""
    total = 0.0
    for i, c in enumerate(coords):
        if not c >= 0.0:
            raise ValueError(f"simplex coordinate {i} must be nonnegative, got {c!r}")
        total += c
    if not abs(total - 1.0) <= SIMPLEX_SUM_TOL:
        raise ValueError(f"simplex coordinates sum to {total!r}, expected 1.0")
    return coords


class OccupationState:
    """Round count t and per-action pull counts of a block of S trajectories
    advanced in lockstep, one seed per row.

    `counts` is an (S, K) float64 array of whole numbers: exact, and c / t
    then needs no conversion to give the correctly rounded quotient of the
    integers.  `apply` takes one action per seed (an int array; a plain int
    applies to every row) and `proportions` returns a fresh (S, K) array
    p_t = T_i(t) / t on each call.  Actions come from the block policies
    and are not range-checked.

    The counts are folded in when read.  If they were read since the last
    `apply`, as a policy that reads them every round does, `apply` adds
    the actions to them at once; otherwise it only logs the actions, up to
    LOG_ROUNDS rounds, and the next read of `counts` or `proportions`
    (or a full log) adds the logged rounds in one pass.  That pass costs
    more than the at-once add for a single round, so a reader of every
    round keeps the add.  Whole numbers sum exactly in any order, so the
    counts are the same either way.  An array
    held from an earlier read may therefore lag: read `counts` again after
    `apply`.  Writes into the array `counts` returns land as usual.

    Mutated only by the trial that owns it; counts never decrease.
    """

    LOG_ROUNDS = 256

    __slots__ = ("t", "num_actions", "_counts", "_flat", "_row", "_ones", "_read", "_log", "_logged")

    def __init__(self, num_actions: int, seeds: int):
        if num_actions < 2:
            raise ValueError(f"need at least 2 actions, got {num_actions}")
        self.t = 0
        self.num_actions = num_actions
        self._counts = np.zeros((seeds, num_actions))
        self._flat = self._counts.reshape(-1)
        self._row = np.arange(seeds) * num_actions
        # an array operand: a Python scalar costs a conversion every round
        self._ones = np.ones(seeds)
        # whether the counts were read since the last apply (or no apply
        # came yet): if so the next apply adds at once, else it logs
        self._read = True
        # one row of actions per logged round; rows [0, _logged) are not
        # yet in the counts
        self._log = np.empty((self.LOG_ROUNDS, seeds), dtype=np.intp)
        self._logged = 0

    @property
    def counts(self) -> np.ndarray:
        if self._logged:
            self._fold()
        self._read = True
        return self._counts

    def apply(self, action) -> None:
        if self._read:
            self._flat[self._row + action] += self._ones
            self._read = False
        else:
            n = self._logged
            if n == self.LOG_ROUNDS:
                self._fold()
                n = 0
            self._log[n] = action
            self._logged = n + 1
        self.t += 1

    def _fold(self) -> None:
        cells = self._row + self._log[: self._logged]
        self._flat += np.bincount(cells.reshape(-1), minlength=len(self._flat))
        self._logged = 0

    def proportions(self) -> np.ndarray:
        if not self.t:
            raise ValueError("occupation measure is undefined before the first action")
        return self.counts / float(self.t)
