"""Exact occupation-measure bookkeeping on the probability simplex.

Pull counts are kept as integers and the proportion vector p_t = T_i(t)/t
is derived on demand, so the simplex constraints hold exactly instead of
drifting through repeated float updates.  The incremental float recurrence
p_{t+1} = p_t + (e_a - p_t)/(t+1) is provided only as a cross-check.
"""

from __future__ import annotations

from typing import Iterable, Sequence

SIMPLEX_SUM_TOL = 1e-12


def check_simplex(coords: Sequence[float], tol: float = SIMPLEX_SUM_TOL) -> Sequence[float]:
    """Validate a simplex point (nonnegative, l1 norm 1 within tol)."""
    total = 0.0
    for i, c in enumerate(coords):
        if c < 0.0:
            raise ValueError(f"simplex coordinate {i} is negative: {c!r}")
        total += c
    if abs(total - 1.0) > tol:
        raise ValueError(f"simplex coordinates sum to {total!r}, expected 1.0")
    return coords


class OccupationState:
    """Round count t and per-action pull counts, stored as exact integers.

    Mutated only by the trial that owns it; counts never decrease.
    """

    __slots__ = ("t", "counts")

    def __init__(self, num_actions: int):
        if num_actions < 2:
            raise ValueError(f"need at least 2 actions, got {num_actions}")
        self.t = 0
        self.counts = [0] * num_actions

    @property
    def num_actions(self) -> int:
        return len(self.counts)

    def apply(self, action: int) -> "OccupationState":
        counts = self.counts
        if not 0 <= action < len(counts):
            raise IndexError(f"action {action} out of range for {len(counts)} actions")
        counts[action] += 1
        self.t += 1
        return self

    def proportions(self) -> list[float]:
        t = self.t
        if t == 0:
            raise ValueError("occupation measure is undefined before the first action")
        return [c / t for c in self.counts]

    def __repr__(self) -> str:
        return f"OccupationState(t={self.t}, counts={self.counts})"


def float_recurrence(actions: Iterable[int], num_actions: int) -> list[float]:
    """Fold p_{t+1} = p_t + (e_a - p_t)/(t+1) in floats, starting from p_1 = e_{a_1}.

    Cross-check only: the returned vector should agree with the integer-count
    proportions to within accumulated rounding (~1e-11 at t = 1e6).
    """
    it = iter(actions)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty action sequence") from None
    p = [0.0] * num_actions
    p[first] = 1.0
    t = 1
    for a in it:
        t += 1
        inv = 1.0 / t
        for i in range(num_actions):
            p[i] -= p[i] * inv
        p[a] += inv
    return p
