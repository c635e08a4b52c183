"""Convex loss families defined on the probability simplex.

Each family is one `LossModel` subclass, listed by config name in
`FAMILIES`.  It exposes the loss value, the gradient as a function of
parameters (exact with the true ones, a plug-in estimate with estimated
ones), and a closed-form or exactly-solved minimizer with the quantities
the rate bounds need (minimum coordinate, per-vertex gaps, curvature
constants).

`gradient`, `true_gradient` and `sensitivity` take an (S, K) array of
points, one seed per row (a single point is a one-row block), and return
(S, K) arrays whose rows do not depend on the other rows; a sensitivity
that does not depend on p comes back as one row of K factors, which
broadcasts against the block.  `value` takes one point.  Arrays a model
caches and may return are read-only.

Families whose gradient blows up at the boundary (inverse-proportion and
log-utility losses) carry infinite curvature constants unless an interior
floor box is supplied; `smoothness_over` computes the restricted constant
over such a box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .simplex import SIMPLEX_SUM_TOL

# The exact Markowitz minimizer enumerates all 2^K - 1 supports, so its cost
# doubles with every action; above this K it is refused rather than left to
# run for minutes.
MARKOWITZ_MAX_ACTIONS = 16


@dataclass(frozen=True)
class PiecewiseLinear:
    """Monotone piecewise-linear function given by breakpoints (xs, ys).

    Evaluation clamps to the end values outside the table range.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("piecewise-linear table needs matching xs/ys with >= 2 points")
        object.__setattr__(self, "xs", _as_floats(self.xs, "piecewise-linear xs"))
        object.__setattr__(self, "ys", _as_floats(self.ys, "piecewise-linear ys"))
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("piecewise-linear xs must be strictly increasing")
        diffs = [b - a for a, b in zip(self.ys, self.ys[1:])]
        if not (all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)):
            raise ValueError("piecewise-linear ys must be monotone")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))

    def lipschitz(self) -> float:
        return max(
            abs(y1 - y0) / (x1 - x0)
            for x0, x1, y0, y1 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])
        )


@dataclass(frozen=True)
class MinimizerInfo:
    """Minimizer of a loss over the simplex and bound-relevant derived values.

    `eta` is the smallest coordinate of the reported minimizer.  `gaps` are
    the per-coordinate gradient gaps at a vertex minimizer (None when the
    minimizer is not a vertex); `gap_min` is the smallest positive gap.
    """

    p_star: tuple[float, ...]
    loss_star: float
    eta: float
    unique: bool
    gaps: tuple[float, ...] | None = None
    gap_min: float | None = None


def _vertex_info(costs: Sequence[float]) -> MinimizerInfo:
    k = len(costs)
    low = min(costs)
    winners = [i for i, c in enumerate(costs) if c <= low + 1e-12]
    star = winners[0]
    p = tuple(1.0 if i == star else 0.0 for i in range(k))
    gaps = tuple(c - low for c in costs)
    positive = [g for i, g in enumerate(gaps) if i != star and g > 1e-12]
    gap_min = min(positive) if len(positive) == k - 1 else None
    return MinimizerInfo(
        p_star=p,
        loss_star=low,
        eta=0.0,
        unique=len(winners) == 1,
        gaps=gaps,
        gap_min=gap_min,
    )


@dataclass(frozen=True, kw_only=True)
class LossModel:
    """A loss family instance plus the constants the bound formulas use.

    `params` is the coordinate of the family that bandit feedback estimates
    (mean returns, centers, per-action variances, utility weights).  The
    curvature constant `smoothness_C` and the sup norms are over the whole
    simplex when finite there, otherwise over the interior floor box when
    one was given, otherwise infinite.

    Each family declares, as class attributes, its config name `kind`; the
    config fields its `build` requires (`needs`) and accepts (`options`);
    whether its gradient is defined on the whole simplex, boundary included
    (`smooth_on_simplex`); whether its gradient does not depend on p, the
    precondition of the vertex fast rate (`constant_gradient`); and whether
    feedback draws gaussian observations whose variances are the parameters
    (`variance_feedback`).
    """

    kind: ClassVar[str]
    needs: ClassVar[tuple[str, ...]]
    options: ClassVar[tuple[str, ...]] = ()
    smooth_on_simplex: ClassVar[bool] = True
    constant_gradient: ClassVar[bool] = False
    variance_feedback: ClassVar[bool] = False

    params: tuple[float, ...]
    strong_convexity: float = 0.0
    smoothness_C: float = 0.0
    sup_loss: float = 0.0
    sup_grad: float = 0.0

    @property
    def num_actions(self) -> int:
        return len(self.params)

    def value(self, p: Sequence[float]) -> float:
        raise NotImplementedError

    def gradient(self, params: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Gradient formula of the family at each point of the block p,
        evaluated with that row's plugged-in `params`."""
        raise NotImplementedError

    def true_gradient(self, p: np.ndarray) -> np.ndarray:
        """The gradient at each point of the block p with the true parameters."""
        return self.gradient(np.tile(self.params, (len(p), 1)), p)

    def sensitivity(self, p: np.ndarray) -> np.ndarray | None:
        """Per-coordinate factor turning a parameter deviation into a gradient deviation.

        Returns None when every factor is 1 (mean-parameter families).
        """
        return None

    def minimizer(self) -> MinimizerInfo:
        raise NotImplementedError

    def smoothness_over(self, floor: tuple[float, ...]) -> float:
        """Curvature constant restricted to the box {p : p_i >= floor_i}."""
        return self.smoothness_C


def _as_floats(values: Sequence[float], name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) < 2:
        raise ValueError(f"{name} needs at least 2 coordinates")
    if any(not math.isfinite(v) for v in out):
        raise ValueError(f"{name} has a non-finite entry: {out}")
    return out


def _check_floor(floor: Sequence[float], k: int) -> tuple[float, ...]:
    f = tuple(float(v) for v in floor)
    if len(f) != k:
        raise ValueError(f"interior floor needs {k} coordinates, got {len(f)}")
    for i, v in enumerate(f):
        if not 0.0 < v < 1.0:
            raise ValueError(f"interior floor coordinate {i} must be in (0, 1), got {v}")
    if sum(f) > 1.0 + SIMPLEX_SUM_TOL:
        raise ValueError(f"interior floor sums to {sum(f)} > 1, box is empty")
    return f


def _read_only(values) -> np.ndarray:
    """A float array of `values` that callers cannot write through."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sum of products, left to right from 0.0, as `sum()` did before
    Python 3.12 made float sums compensated."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def _row_dots(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """`_dot(row, p_s)` for every row of `rows` and every point p_s of the block p.

    `cumsum` adds left to right as `_dot` does; adding 0.0 turns the -0.0
    an all-zero product row can leave into the 0.0 `_dot` gives.
    """
    return np.cumsum(p[:, None, :] * rows, axis=-1)[..., -1] + 0.0


def _require_interior(p, kind: str) -> None:
    """Raise, naming the first offending coordinate, unless every coordinate
    of p (one point or a block of points) is strictly positive."""
    p = np.asarray(p, dtype=float)
    bad = p <= 0.0
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{kind} loss needs p strictly positive, coordinate {where[-1]} is {p[where]}")


@dataclass(frozen=True, kw_only=True)
class LinearLoss(LossModel):
    """`costs` is the true gradient, which does not depend on p, computed
    once per model."""

    kind = "linear"
    needs = ("mu",)
    constant_gradient = True

    costs: tuple[float, ...] = field(init=False, compare=False, repr=False)
    costs_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        costs = self.gradient(np.array([self.params]), None)[0]
        object.__setattr__(self, "costs", tuple(costs.tolist()))
        object.__setattr__(self, "costs_array", _read_only(costs))

    @classmethod
    def build(cls, mu: Sequence[float]) -> LinearLoss:
        """L(p) = mu . p with gradient mu; minimized at a cheapest vertex."""
        m = _as_floats(mu, "mu")
        bound = max(abs(v) for v in m)
        return cls(params=m, sup_loss=bound, sup_grad=bound)

    def value(self, p):
        return sum(c * x for c, x in zip(self.costs, p))

    def gradient(self, params, p):
        # the plug-in gradient is the estimates themselves
        return np.asarray(params, dtype=float)

    def true_gradient(self, p):
        out = np.empty(p.shape)
        out[...] = self.costs_array
        return out

    def minimizer(self):
        return _vertex_info(self.costs)


@dataclass(frozen=True, kw_only=True)
class QuadraticLoss(LossModel):
    kind = "quadratic"
    needs = ("theta",)

    @classmethod
    def build(cls, theta: Sequence[float]) -> QuadraticLoss:
        """L(p) = 0.5 * ||p - theta||^2 with theta on the simplex; gradient p - theta."""
        th = _as_floats(theta, "theta")
        for i, v in enumerate(th):
            if v < 0.0:
                raise ValueError(f"theta coordinate {i} is negative: {v}")
        if abs(sum(th) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"theta must lie on the simplex, sums to {sum(th)}")
        # max of the convex loss over the simplex is attained at a vertex
        sup_loss = 0.5 * max(
            sum(((1.0 if i == j else 0.0) - th[i]) ** 2 for i in range(len(th)))
            for j in range(len(th))
        )
        sup_grad = max(max(v, 1.0 - v) for v in th)
        return cls(
            params=th,
            strong_convexity=1.0,
            smoothness_C=1.0,
            sup_loss=sup_loss,
            sup_grad=sup_grad,
        )

    def value(self, p):
        return 0.5 * sum((x - th) ** 2 for x, th in zip(p, self.params))

    def gradient(self, params, p):
        return p - params

    def minimizer(self):
        th = self.params
        # the gradient vanishes at p* = theta, so even when theta is a
        # vertex the per-coordinate gaps are all zero and gap-based
        # quantities stay undefined
        is_vertex = any(abs(v - 1.0) <= 1e-12 for v in th)
        gaps = tuple(0.0 for _ in th) if is_vertex else None
        return MinimizerInfo(
            p_star=th, loss_star=0.0, eta=min(th), unique=True, gaps=gaps
        )


@dataclass(frozen=True, kw_only=True)
class ExpDesignLoss(LossModel):
    kind = "exp_design"
    needs = ("sigma2",)
    options = ("centers", "interior_floor")
    smooth_on_simplex = False
    variance_feedback = True

    centers: tuple[float, ...]
    interior_floor: tuple[float, ...] | None = None

    @classmethod
    def build(
        cls,
        sigma2: Sequence[float],
        centers: Sequence[float] | None = None,
        interior_floor: Sequence[float] | None = None,
    ) -> ExpDesignLoss:
        """L(p) = sum_i sigma2_i / p_i, the A-optimal style allocation loss.

        `centers` are the known observation means used when feedback
        estimates sigma2_i from squared centered draws (0 by default).
        Curvature and sup norms are finite only over an interior floor box.
        """
        s2 = _as_floats(sigma2, "sigma2")
        for i, v in enumerate(s2):
            if v <= 0.0:
                raise ValueError(f"sigma2 coordinate {i} must be positive, got {v}")
        k = len(s2)
        if centers is None:
            cen = tuple(0.0 for _ in s2)
        else:
            cen = tuple(float(v) for v in centers)
            if len(cen) != k:
                raise ValueError(f"centers needs {k} coordinates, got {len(cen)}")
            if any(not math.isfinite(v) for v in cen):
                raise ValueError(f"centers has a non-finite entry: {cen}")
        floor = _check_floor(interior_floor, k) if interior_floor is not None else None
        model = cls(params=s2, centers=cen, interior_floor=floor, strong_convexity=2.0 * min(s2))
        if floor is None:
            return replace(model, smoothness_C=math.inf, sup_loss=math.inf, sup_grad=math.inf)
        return replace(
            model,
            smoothness_C=model.smoothness_over(floor),
            sup_loss=sum(v / f for v, f in zip(s2, floor)),
            sup_grad=max(v / f**2 for v, f in zip(s2, floor)),
        )

    def value(self, p):
        _require_interior(p, self.kind)
        return sum(s / x for s, x in zip(self.params, p))

    def gradient(self, params, p):
        _require_interior(p, self.kind)
        return -params / (p * p)

    def sensitivity(self, p):
        return 1.0 / (p * p)

    def minimizer(self):
        sig = [math.sqrt(v) for v in self.params]
        total = sum(sig)
        p = tuple(s / total for s in sig)
        return MinimizerInfo(p_star=p, loss_star=total * total, eta=min(p), unique=True)

    def smoothness_over(self, floor):
        return max(2.0 * s / f**3 for s, f in zip(self.params, floor))


@dataclass(frozen=True, kw_only=True)
class CobbDouglasLoss(LossModel):
    kind = "cobb_douglas"
    needs = ("beta",)
    options = ("interior_floor",)
    smooth_on_simplex = False

    interior_floor: tuple[float, ...] | None = None

    @classmethod
    def build(
        cls, beta: Sequence[float], interior_floor: Sequence[float] | None = None
    ) -> CobbDouglasLoss:
        """L(p) = -sum_i beta_i * log(p_i) with beta in (0, 1)^K."""
        b = _as_floats(beta, "beta")
        for i, v in enumerate(b):
            if not 0.0 < v < 1.0:
                raise ValueError(f"beta coordinate {i} must be in (0, 1), got {v}")
        floor = _check_floor(interior_floor, len(b)) if interior_floor is not None else None
        model = cls(params=b, interior_floor=floor, strong_convexity=min(b))
        if floor is None:
            return replace(model, smoothness_C=math.inf, sup_loss=math.inf, sup_grad=math.inf)
        return replace(
            model,
            smoothness_C=model.smoothness_over(floor),
            sup_loss=-sum(v * math.log(f) for v, f in zip(b, floor)),
            sup_grad=max(v / f for v, f in zip(b, floor)),
        )

    def value(self, p):
        _require_interior(p, self.kind)
        return -sum(b * math.log(x) for b, x in zip(self.params, p))

    def gradient(self, params, p):
        _require_interior(p, self.kind)
        return -params / p

    def sensitivity(self, p):
        return 1.0 / p

    def minimizer(self):
        b = self.params
        total = sum(b)
        p = tuple(v / total for v in b)
        loss = -sum(v * math.log(x) for v, x in zip(b, p))
        return MinimizerInfo(p_star=p, loss_star=loss, eta=min(p), unique=True)

    def smoothness_over(self, floor):
        return max(b / f**2 for b, f in zip(self.params, floor))


@dataclass(frozen=True, kw_only=True)
class MarkowitzLoss(LossModel):
    """`qp_solution` is the minimizer `(p, loss)` that `build` solves for
    `sup_loss`; `minimizer` reads it instead of solving the same program
    again."""

    kind = "markowitz"
    needs = ("mu", "covariance", "risk_weight")

    covariance: tuple[tuple[float, ...], ...]
    risk_weight: float
    qp_solution: tuple[tuple[float, ...], float] = field(compare=False, repr=False)
    cov_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cov_array", _read_only(self.covariance))

    @classmethod
    def build(
        cls, covariance: Sequence[Sequence[float]], risk_weight: float, mu: Sequence[float]
    ) -> MarkowitzLoss:
        """L(p) = p' Sigma p - lambda * mu . p (variance-penalized mean return)."""
        m = _as_floats(mu, "mu")
        k = len(m)
        sig = np.asarray(covariance, dtype=float)
        if sig.shape != (k, k):
            raise ValueError(f"covariance must be {k}x{k}, got {sig.shape}")
        if k > MARKOWITZ_MAX_ACTIONS:
            raise ValueError(
                f"covariance is {k}x{k}, above the limit of {MARKOWITZ_MAX_ACTIONS} actions "
                "of the exact minimizer, which enumerates 2^K supports"
            )
        if not np.isfinite(sig).all():
            raise ValueError("covariance has a non-finite entry")
        if not np.allclose(sig, sig.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(sig)
        if eigs[0] < -1e-10:
            raise ValueError(f"covariance must be positive semidefinite, min eigenvalue {eigs[0]}")
        lam = float(risk_weight)
        if not math.isfinite(lam):
            raise ValueError(f"risk_weight must be finite, got {lam}")
        if lam < 0.0:
            raise ValueError(f"risk weight must be nonnegative, got {lam}")
        # both the loss and each gradient coordinate are convex in p, so sup
        # norms over the simplex are attained at vertices
        vertex_losses = [sig[j, j] - lam * m[j] for j in range(k)]
        grad_at_vertex = [max(abs(2.0 * sig[i, j] - lam * m[i]) for j in range(k)) for i in range(k)]
        p_star, loss_star = _simplex_qp(sig, lam, np.asarray(m))
        sup_loss = max(max(abs(v) for v in vertex_losses), abs(loss_star))
        return cls(
            params=m,
            covariance=tuple(tuple(float(x) for x in row) for row in sig),
            risk_weight=lam,
            strong_convexity=2.0 * max(float(eigs[0]), 0.0),
            smoothness_C=2.0 * float(eigs[-1]),
            sup_loss=float(sup_loss),
            sup_grad=float(max(grad_at_vertex)),
            qp_solution=(tuple(float(v) for v in p_star), loss_star),
        )

    # Row products are summed left to right (`_dot`, `_row_dots`); a numpy
    # matvec, or `sum()` from Python 3.12 on, would sum them in another
    # order and change the floats.
    def value(self, p):
        quad = _dot(p, [_dot(row, p) for row in self.covariance])
        return quad - self.risk_weight * _dot(self.params, p)

    def gradient(self, params, p):
        return 2.0 * _row_dots(self.cov_array, p) - self.risk_weight * params

    def sensitivity(self, p):
        lam = self.risk_weight
        if lam == 1.0:
            return None
        return np.full(p.shape[1], lam)

    def minimizer(self):
        sig = np.asarray(self.covariance)
        p_star, loss = self.qp_solution
        p = np.asarray(p_star)
        eigs = np.linalg.eigvalsh(sig)
        info = MinimizerInfo(
            p_star=p_star, loss_star=loss, eta=float(p.min()), unique=bool(eigs[0] > 1e-12)
        )
        if any(abs(v - 1.0) <= 1e-10 for v in p):
            # gaps of the gradient at the vertex, as for a constant-gradient loss
            grad = 2.0 * sig @ p - self.risk_weight * np.asarray(self.params)
            vertex = _vertex_info(grad.tolist())
            info = replace(info, gaps=vertex.gaps, gap_min=vertex.gap_min)
        return info


@dataclass(frozen=True, kw_only=True)
class SeparableLoss(LinearLoss):
    """A linear loss whose costs are tabulated functions f_i(mu_i).

    `lipschitz_array` holds each table's Lipschitz constant, computed once
    per model; they are the sensitivity factors at every p.
    """

    kind = "separable"
    needs = ("mu", "tables")

    tables: tuple[PiecewiseLinear, ...]
    lipschitz_array: np.ndarray = field(init=False, compare=False, repr=False)
    table_arrays: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "lipschitz_array", _read_only([t.lipschitz() for t in self.tables]))
        object.__setattr__(
            self, "table_arrays", tuple((np.array(t.xs), np.array(t.ys)) for t in self.tables)
        )
        super().__post_init__()

    @classmethod
    def build(cls, mu: Sequence[float], tables: Sequence) -> SeparableLoss:
        """L(p) = sum_i f_i(mu_i) * p_i with tabulated monotone f_i.

        Each table is a PiecewiseLinear or a raw (xs, ys) pair.
        """
        m = _as_floats(mu, "mu")
        tabs = []
        for i, t in enumerate(tables):
            if not isinstance(t, PiecewiseLinear):
                try:
                    t = PiecewiseLinear(tuple(t[0]), tuple(t[1]))
                except ValueError as exc:
                    raise ValueError(f"table {i}: {exc}") from None
            tabs.append(t)
        tabs = tuple(tabs)
        if len(tabs) != len(m):
            raise ValueError(f"need one table per coordinate: {len(tabs)} vs {len(m)}")
        bound = max(abs(t(v)) for t, v in zip(tabs, m))
        return cls(params=m, tables=tabs, sup_loss=bound, sup_grad=bound)

    def gradient(self, params, p):
        out = np.empty(params.shape)
        for i, (xs, ys) in enumerate(self.table_arrays):
            out[:, i] = np.interp(params[:, i], xs, ys)
        return out

    def sensitivity(self, p):
        return self.lipschitz_array


FAMILIES: dict[str, type[LossModel]] = {
    cls.kind: cls
    for cls in (LinearLoss, QuadraticLoss, ExpDesignLoss, CobbDouglasLoss, MarkowitzLoss, SeparableLoss)
}


linear_loss = LinearLoss.build
quadratic_loss = QuadraticLoss.build
exp_design_loss = ExpDesignLoss.build
cobb_douglas_loss = CobbDouglasLoss.build
markowitz_loss = MarkowitzLoss.build
separable_loss = SeparableLoss.build


def loss_value(model: LossModel, p: Sequence[float]) -> float:
    return model.value(p)


def gradient_from_params(model: LossModel, params: np.ndarray, p: np.ndarray) -> np.ndarray:
    return model.gradient(params, p)


def sensitivity(model: LossModel, p: np.ndarray) -> np.ndarray | None:
    return model.sensitivity(p)


def minimizer(model: LossModel) -> MinimizerInfo:
    return model.minimizer()


def interior_smoothness(model: LossModel, lower_bounds: Sequence[float]) -> float:
    """Curvature constant restricted to the box {p : p_i >= lower_bounds_i}."""
    return model.smoothness_over(_check_floor(lower_bounds, model.num_actions))


# Extra tolerance of the batched screen in `_simplex_qp`, relative to the
# scale of the gradient terms, so that rounding differences between the
# batched and the per-support arithmetic never drop a support that the
# exact checks of `_support_candidate` would accept.
_SCREEN_SLACK = 1e-7
# Supports per batched solve; bounds the screen's memory at a few MB.
_SCREEN_BATCH = 256


def _support_candidate(
    sig: np.ndarray, lam: float, mu: np.ndarray, support: list[int]
) -> tuple[np.ndarray, float] | None:
    """Solve the QP restricted to `support`; None unless feasible and KKT."""
    k = len(mu)
    m = len(support)
    a = np.zeros((m + 1, m + 1))
    a[:m, :m] = 2.0 * sig[np.ix_(support, support)]
    a[:m, m] = 1.0
    a[m, :m] = 1.0
    b = np.zeros(m + 1)
    b[:m] = lam * mu[support]
    b[m] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        if not np.allclose(a @ x, b, atol=1e-9):
            return None
    p_sub = x[:m]
    if np.any(p_sub < -1e-10):
        return None
    p = np.zeros(k)
    p[support] = np.clip(p_sub, 0.0, None)
    p /= p.sum()
    grad = 2.0 * sig @ p - lam * mu
    nu = -float(np.mean(grad[support]))
    if any(grad[j] + nu < -1e-8 for j in range(k) if j not in support):
        return None
    return p, float(p @ sig @ p - lam * mu @ p)


def _screen(sig: np.ndarray, lam: float, mu: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Which supports of one size may pass `_support_candidate`'s checks.

    `supports` holds one support per row as ascending indices.  All of them
    are solved in one batched call and given the feasibility and KKT tests
    with `_SCREEN_SLACK` added to each tolerance; a support is dropped only
    when a test fails by more than that.  A batch holding a singular system
    keeps every row, so the exact code's least-squares branch still sees
    them.
    """
    n, m = supports.shape
    a = np.zeros((n, m + 1, m + 1))
    a[:, :m, :m] = 2.0 * sig[supports[:, :, None], supports[:, None, :]]
    a[:, :m, m] = 1.0
    a[:, m, :m] = 1.0
    b = np.zeros((n, m + 1, 1))
    b[:, :m, 0] = lam * mu[supports]
    b[:, m, 0] = 1.0
    try:
        p_sub = np.linalg.solve(a, b)[:, :m, 0]
    except np.linalg.LinAlgError:
        return np.ones(n, dtype=bool)
    rows = np.arange(n)[:, None]
    slack = _SCREEN_SLACK * (1.0 + 2.0 * np.abs(sig).max() + np.abs(lam * mu).max())
    p = np.zeros((n, len(mu)))
    p[rows, supports] = np.clip(p_sub, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= p.sum(axis=1, keepdims=True)
        grad = 2.0 * p @ sig.T - lam * mu
        nu = -grad[rows, supports].mean(axis=1)
        kkt = grad + nu[:, None]
    kkt[rows, supports] = 0.0
    # comparisons with NaN are false, so rows that are not finite survive
    rejected = (p_sub < -1e-10 - slack).any(axis=1) | (kkt < -1e-8 - slack).any(axis=1)
    return ~rejected


def _simplex_qp(sig: np.ndarray, lam: float, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize p'Sig p - lam*mu.p over the simplex by active-set enumeration.

    Every support set is solved as an equality-constrained QP and kept when
    it is feasible and satisfies the KKT sign conditions; the best candidate
    wins, ties going to the lowest support bitmask.  The supports of each
    size are first screened in batched passes (`_screen`); only those that
    survive are solved exactly, in ascending bitmask order, so the result is
    the one a full enumeration gives.  Exact for K up to
    MARKOWITZ_MAX_ACTIONS.
    """
    k = len(mu)
    masks = np.arange(1, 1 << k, dtype=np.int32)
    members = (masks[:, None] >> np.arange(k, dtype=np.int32) & 1).astype(bool)
    sizes = members.sum(axis=1)
    survivors: list[int] = []
    for m in range(1, k + 1):
        of_size = masks[sizes == m]
        supports = np.nonzero(members[sizes == m])[1].reshape(-1, m)
        for start in range(0, len(of_size), _SCREEN_BATCH):
            batch = slice(start, start + _SCREEN_BATCH)
            kept = _screen(sig, lam, mu, supports[batch])
            survivors.extend(of_size[batch][kept].tolist())
    best_loss = math.inf
    best_p: np.ndarray | None = None
    for mask in sorted(survivors):
        found = _support_candidate(sig, lam, mu, [i for i in range(k) if mask >> i & 1])
        if found is not None and found[1] < best_loss - 1e-14:
            best_p, best_loss = found
    if best_p is None:
        raise RuntimeError("active-set enumeration found no KKT point")
    return best_p, best_loss


def hard_quadratic_family(
    num_actions: int, nu: float, horizon: int, signs: Sequence[int]
) -> LossModel:
    """Paired-perturbation quadratic instance used for worst-case studies.

    Centers sit at 1/K with paired offsets +-sqrt(nu*K/horizon): coordinate
    2i gets +signs[i]*offset and coordinate 2i+1 the opposite, so the center
    stays on the simplex.  The regime conditions on nu and the horizon are
    advisory and only warn.
    """
    if num_actions < 2 or num_actions % 2 != 0:
        raise ValueError(f"paired construction needs even K >= 2, got {num_actions}")
    sgn = [int(s) for s in signs]
    if len(sgn) != num_actions // 2 or any(s not in (-1, 1) for s in sgn):
        raise ValueError("signs must be +-1 with one entry per coordinate pair")
    if not 0.0 < nu < 1.0 / 29.0:
        warnings.warn(f"nu={nu} outside the analyzed range (0, 1/29)", stacklevel=2)
    if horizon <= 4.0 * nu**2 * num_actions**4:
        warnings.warn(
            f"horizon {horizon} <= 4*nu^2*K^4 = {4.0 * nu**2 * num_actions**4}, "
            "outside the analyzed regime",
            stacklevel=2,
        )
    offset = math.sqrt(nu * num_actions / horizon)
    base = 1.0 / num_actions
    if offset > base:
        raise ValueError(
            f"offset {offset} exceeds 1/K = {base}; center would leave the simplex"
        )
    theta = []
    for i, s in enumerate(sgn):
        theta.append(base + s * offset)
        theta.append(base - s * offset)
    return quadratic_loss(theta)
