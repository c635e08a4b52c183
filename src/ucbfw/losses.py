"""Convex loss families defined on the probability simplex.

Each family is one `LossModel` subclass, listed by config name in
`FAMILIES`.  It exposes the loss value, the gradient as a function of
parameters (exact with the true ones, a plug-in estimate with estimated
ones), and a closed-form or exactly-solved minimizer with the quantities
the rate bounds need (minimum coordinate, curvature constants).

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
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterable, Sequence

import numpy as np

try:
    from numpy._core.multiarray import interp as _interp
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import interp as _interp

from .simplex import SIMPLEX_SUM_TOL


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
    """Minimizer of a loss over the simplex; `eta` is its smallest coordinate."""

    p_star: tuple[float, ...]
    loss_star: float
    eta: float


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

    A `constant_gradient` family holds its true gradient in the read-only
    `costs_array`, its lowest-index argmin in `star` and the read-only
    `gaps` costs - costs[star]; the engine passes p=None, not a block, to
    its `gradient` and `sensitivity`: neither may read p.
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
    params_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "params_array", _read_only(self.params))

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
        """The gradient at each point of the block p with the true parameters,
        one read-only row that each inheriting formula broadcasts."""
        return self.gradient(self.params_array, p)

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
    if fold_sum(f) > 1.0 + SIMPLEX_SUM_TOL:
        raise ValueError(f"interior floor sums to {fold_sum(f)} > 1, box is empty")
    return f


def _read_only(values) -> np.ndarray:
    """A float array of `values` that callers cannot write through."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def fold_sum(xs: Iterable[float]) -> float:
    """Sum of `xs`, left to right from 0.0, as `sum()` did before Python
    3.12 made float sums compensated.  Every float sum of a loss value, a
    minimizer or a bound constant is taken this way, so output bytes do not
    depend on the Python version."""
    acc = 0.0
    for x in xs:
        acc += x
    return acc


def _dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sum of products, left to right from 0.0."""
    return fold_sum(x * y for x, y in zip(xs, ys))


def _require_interior(p, kind: str, zero_ok: bool = False) -> bool:
    """Raise, naming the first offending coordinate, unless every coordinate
    of p (one point or a block of points) is strictly positive, or with
    `zero_ok` nonnegative; then return whether some coordinate is 0."""
    p = np.asarray(p, dtype=float)
    bad = p < 0.0 if zero_ok else p <= 0.0
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{kind} loss needs p strictly positive, coordinate {where[-1]} is {p[where]}")
    return zero_ok and bool((p == 0.0).any())


@dataclass(frozen=True, kw_only=True)
class LinearLoss(LossModel):
    """`costs` is the true gradient, which does not depend on p; it and its
    `star` and `gaps` are computed once per model."""

    kind = "linear"
    needs = ("mu",)
    constant_gradient = True

    costs: tuple[float, ...] = field(init=False, compare=False, repr=False)
    costs_array: np.ndarray = field(init=False, compare=False, repr=False)
    star: int = field(init=False, compare=False, repr=False)
    gaps: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        costs = self.gradient(np.array([self.params], dtype=float), None)[0]
        star = int(costs.argmin())
        object.__setattr__(self, "costs", tuple(costs.tolist()))
        object.__setattr__(self, "costs_array", _read_only(costs))
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "gaps", _read_only(costs - costs[star]))

    @classmethod
    def build(cls, mu: Sequence[float]) -> LinearLoss:
        """L(p) = mu . p with gradient mu; minimized at a cheapest vertex."""
        m = _as_floats(mu, "mu")
        bound = max(abs(v) for v in m)
        return cls(params=m, sup_loss=bound, sup_grad=bound)

    def value(self, p):
        return _dot(self.costs, p)

    def gradient(self, params, p):
        # the plug-in gradient is the estimates themselves
        return params

    def true_gradient(self, p):
        out = np.empty(p.shape)
        out[...] = self.costs_array
        return out

    def minimizer(self):
        star = self.star
        p = tuple(1.0 if i == star else 0.0 for i in range(self.num_actions))
        return MinimizerInfo(p_star=p, loss_star=self.costs[star], eta=0.0)


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
        if abs(fold_sum(th) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"theta must lie on the simplex, sums to {fold_sum(th)}")
        # max of the convex loss over the simplex is attained at a vertex
        sup_loss = 0.5 * max(
            fold_sum(((1.0 if i == j else 0.0) - th[i]) ** 2 for i in range(len(th)))
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
        return 0.5 * fold_sum((x - th) ** 2 for x, th in zip(p, self.params))

    def gradient(self, params, p):
        return p - params

    def minimizer(self):
        return MinimizerInfo(p_star=self.params, loss_star=0.0, eta=min(self.params))


@dataclass(frozen=True, kw_only=True)
class ExpDesignLoss(LossModel):
    kind = "exp_design"
    needs = ("sigma2",)
    options = ("centers", "interior_floor")
    smooth_on_simplex = False
    variance_feedback = True

    centers: tuple[float, ...]

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
        model = cls(params=s2, centers=cen, strong_convexity=2.0 * min(s2))
        if floor is None:
            return replace(model, smoothness_C=math.inf, sup_loss=math.inf, sup_grad=math.inf)
        return replace(
            model,
            smoothness_C=model.smoothness_over(floor),
            sup_loss=fold_sum(v / f for v, f in zip(s2, floor)),
            sup_grad=max(v / f**2 for v, f in zip(s2, floor)),
        )

    def value(self, p):
        if _require_interior(p, self.kind, zero_ok=True):
            return math.inf  # at a zero coordinate
        return fold_sum(s / x for s, x in zip(self.params, p))

    def gradient(self, params, p):
        _require_interior(p, self.kind)
        return -params / (p * p)

    def sensitivity(self, p):
        return 1.0 / (p * p)

    def minimizer(self):
        sig = [math.sqrt(v) for v in self.params]
        total = fold_sum(sig)
        p = tuple(s / total for s in sig)
        return MinimizerInfo(p_star=p, loss_star=total * total, eta=min(p))

    def smoothness_over(self, floor):
        return max(2.0 * s / f**3 for s, f in zip(self.params, floor))


@dataclass(frozen=True, kw_only=True)
class CobbDouglasLoss(LossModel):
    kind = "cobb_douglas"
    needs = ("beta",)
    options = ("interior_floor",)
    smooth_on_simplex = False

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
        model = cls(params=b, strong_convexity=min(b))
        if floor is None:
            return replace(model, smoothness_C=math.inf, sup_loss=math.inf, sup_grad=math.inf)
        return replace(
            model,
            smoothness_C=model.smoothness_over(floor),
            sup_loss=-fold_sum(v * math.log(f) for v, f in zip(b, floor)),
            sup_grad=max(v / f for v, f in zip(b, floor)),
        )

    def value(self, p):
        if _require_interior(p, self.kind, zero_ok=True):
            return math.inf  # at a zero coordinate
        return -fold_sum(b * math.log(x) for b, x in zip(self.params, p))

    def gradient(self, params, p):
        _require_interior(p, self.kind)
        return -params / p

    def sensitivity(self, p):
        return 1.0 / p

    def minimizer(self):
        b = self.params
        total = fold_sum(b)
        p = tuple(v / total for v in b)
        loss = -fold_sum(v * math.log(x) for v, x in zip(b, p))
        return MinimizerInfo(p_star=p, loss_star=loss, eta=min(p))

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
    cov2_t: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        cov2_t = np.ascontiguousarray(2.0 * np.array(self.covariance).T[:, None, :])
        object.__setattr__(self, "cov2_t", _read_only(cov2_t))

    @classmethod
    def build(
        cls, covariance: Sequence[Sequence[float]], risk_weight: float, mu: Sequence[float]
    ) -> MarkowitzLoss:
        """L(p) = p' Sigma p - lambda * mu . p (variance-penalized mean return)."""
        m = _as_floats(mu, "mu")
        k = len(m)
        # row lengths first: numpy's error for ragged rows names no field
        rows = tuple(map(np.size, covariance))
        if rows != (k,) * k:
            raise ValueError(f"covariance must be {k}x{k}, got rows of lengths {rows}")
        sig = np.asarray(covariance, dtype=float)
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
            raise ValueError(f"risk_weight must be nonnegative, got {lam}")
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

    # Row products are summed left to right from 0.0, as `_dot` does; a numpy
    # matvec would sum them in another order.  `gradient` reduces the (K, S, K)
    # products p[s, j] * 2 Sigma[i, j] over j, the outermost axis in memory (C
    # order pinned on `cov2_t` and on the product): numpy sums a contiguous
    # axis pairwise.  Doubling is exact, so the folded 2 changes no float.
    def value(self, p):
        quad = _dot(p, [_dot(row, p) for row in self.covariance])
        return quad - self.risk_weight * _dot(self.params, p)

    def gradient(self, params, p):
        terms = np.multiply(p.T[:, :, None], self.cov2_t, order="C")
        return np.add.reduce(terms, axis=0, initial=0.0) - self.risk_weight * params

    def sensitivity(self, p):
        lam = self.risk_weight
        if lam == 1.0:
            return None
        return np.full(p.shape[1], lam)

    def minimizer(self):
        p_star, loss = self.qp_solution
        return MinimizerInfo(p_star=p_star, loss_star=loss, eta=min(p_star))


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
        # numpy's compiled interp, which np.interp calls for real tables
        # after its Python-level dispatch
        for i, (xs, ys) in enumerate(self.table_arrays):
            out[:, i] = _interp(params[:, i], xs, ys)
        return out

    def sensitivity(self, p):
        return self.lipschitz_array


FAMILIES: dict[str, type[LossModel]] = {
    cls.kind: cls
    for cls in (LinearLoss, QuadraticLoss, ExpDesignLoss, CobbDouglasLoss, MarkowitzLoss, SeparableLoss)
}


def loss_value(model: LossModel, p: Sequence[float]) -> float:
    return model.value(p)


def gradient_from_params(model: LossModel, params: np.ndarray, p: np.ndarray) -> np.ndarray:
    return model.gradient(params, p)


def sensitivity(model: LossModel, p: np.ndarray) -> np.ndarray | None:
    return model.sensitivity(p)


def minimizer(model: LossModel) -> MinimizerInfo:
    return model.minimizer()


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


def _move(p: np.ndarray, free: np.ndarray, d: np.ndarray, limit: float) -> bool:
    """Step the free coordinates of p along d, by at most `limit` times d
    and no further than the first coordinate to reach 0.  Coordinates that
    end at 0 leave the free set; returns whether any did."""
    s = np.flatnonzero(free)
    down = d < 0.0
    ratios = -p[s][down] / d[down]
    step = min(limit, ratios.min(initial=math.inf))
    p[s] += step * d
    p[s[down][ratios == step]] = 0.0
    hit = s[p[s] <= 0.0]
    p[hit] = 0.0
    free[hit] = False
    return hit.size > 0


def _simplex_qp(sig: np.ndarray, lam: float, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize p'Sig p - lam*mu.p over the simplex by a primal active-set method.

    The free set starts as the lowest-index cheapest vertex.  Each round
    steps to the minimizer of the loss over the face of the free
    coordinates, or, when the reduced Hessian of that face is singular and
    the gradient has a component along its null space, follows that
    zero-curvature descent direction; either move stops at the first
    coordinate to reach 0, which leaves the free set.  At the face's
    minimizer the coordinate with the most negative KKT multiplier, lowest
    index on ties, joins the free set, until none is below -1e-8, the
    tolerance of `_support_candidate`.  That function then solves the final
    support exactly, as the enumeration over all 2^K supports did, and
    checks it; p_star and loss_star are its arithmetic.

    When the minimizer is not unique the answer is the one this path
    reaches from its starting vertex; it is not claimed to be the lowest
    support bitmask an enumeration would pick.  Non-finite input, a path
    that runs past its iteration cap or a final support that fails the
    exact checks raise RuntimeError.
    """
    k = len(mu)
    if not (np.isfinite(sig).all() and np.isfinite(mu).all() and math.isfinite(lam)):
        raise RuntimeError("active-set method found no KKT point: non-finite input")
    p = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    start = int((np.diag(sig) - lam * mu).argmin())
    p[start] = 1.0
    free[start] = True
    flat_tol = 1e-10 * np.abs(sig).max()
    # each round drops a coordinate, adds one or reaches a face's minimizer,
    # so a path this long is cycling
    rounds = 50 * k
    for _ in range(rounds):
        s = np.flatnonzero(free)
        g = 2.0 * sig @ p - lam * mu
        # orthonormal basis of the directions within the face (sum zero)
        basis = np.linalg.qr(np.ones((len(s), 1)), mode="complete")[0][:, 1:]
        # the reduced Hessian is symmetric PSD, so its SVD is an eigen-
        # decomposition; with threaded OpenBLAS, `eigh` took 16 ms at 40x40
        # on a 2-CPU Xeon, against 1 ms for `svd`
        v, w, _ = np.linalg.svd(basis.T @ (2.0 * sig[np.ix_(s, s)]) @ basis)
        flat = w <= flat_tol
        gr = v.T @ (basis.T @ g[s])
        if np.abs(gr[flat]).max(initial=0.0) > 1e-12 * (1.0 + np.abs(g[s]).max()):
            # the loss falls linearly along the null space, down to the boundary
            _move(p, free, -basis @ (v[:, flat] @ gr[flat]), math.inf)
            continue
        if _move(p, free, -basis @ (v[:, ~flat] @ (gr[~flat] / w[~flat])), 1.0):
            continue
        g = 2.0 * sig @ p - lam * mu
        kkt = np.where(free, math.inf, g - np.mean(g[free]))
        j = int(kkt.argmin())
        if kkt[j] < -1e-8:
            free[j] = True
            continue
        found = _support_candidate(sig, lam, mu, s.tolist())
        if found is None:
            raise RuntimeError(f"active-set method found no KKT point: support {s.tolist()} fails")
        return found
    raise RuntimeError(f"active-set method found no KKT point in {rounds} rounds")
