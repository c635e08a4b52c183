import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loop
from ucbfw import checks, losses
from ucbfw.losses import (
    CobbDouglasLoss,
    ExpDesignLoss,
    LinearLoss,
    MarkowitzLoss,
    PiecewiseLinear,
    QuadraticLoss,
    SeparableLoss,
    gradient_from_params,
    loss_value,
    minimizer,
    sensitivity,
)

TABLES = (
    ((-2.0, 0.0, 2.0), (0.0, 0.4, 1.0)),
    ((-3.0, -1.0, 1.0, 3.0), (-1.0, -0.2, 0.2, 1.0)),
    ((-2.0, 2.0), (0.5, 0.9)),
)


def all_models():
    return [
        LinearLoss.build((0.1, 0.5, -0.3)),
        QuadraticLoss.build((0.2, 0.3, 0.5)),
        ExpDesignLoss.build((1.0, 4.0, 2.25)),
        CobbDouglasLoss.build((0.2, 0.5, 0.3)),
        MarkowitzLoss.build(((1.0, 0.2, 0.0), (0.2, 1.5, 0.1), (0.0, 0.1, 2.0)), 1.3, (1.0, 0.5, -0.2)),
        SeparableLoss.build((0.3, -1.0, 1.5), TABLES),
    ]


# The step methods take a block of points; these evaluate one point as a
# one-row block and return that row as a list.


def loss_gradient(model, p):
    return model.true_gradient(np.array([p], dtype=float))[0].tolist()


def plug_in_gradient(model, params, p):
    params, p = np.array([params], dtype=float), np.array([p], dtype=float)
    return gradient_from_params(model, params, p)[0].tolist()


def point_sensitivity(model, p):
    sens = sensitivity(model, np.array([p], dtype=float))
    return None if sens is None else np.broadcast_to(sens, (1, len(p)))[0].tolist()


# ---------------------------------------------------------------- values


def test_linear_value_is_dot_product():
    m = LinearLoss.build((0.1, 0.5))
    assert loss_value(m, (0.5, 0.5)) == pytest.approx(0.3)


def test_exp_design_value_plugin():
    m = ExpDesignLoss.build((1.0, 4.0))
    assert loss_value(m, (1 / 3, 2 / 3)) == pytest.approx(9.0)


def test_cobb_douglas_value_plugin():
    m = CobbDouglasLoss.build((0.5, 0.5))
    assert loss_value(m, (0.5, 0.5)) == pytest.approx(math.log(2.0))


def test_interior_families_reject_zero_coordinate():
    # the loss is +inf at a zero coordinate, where the gradient is undefined
    for m in (ExpDesignLoss.build((1.0, 4.0)), CobbDouglasLoss.build((0.5, 0.5))):
        assert loss_value(m, (1.0, 0.0)) == math.inf
        with pytest.raises(ValueError, match="coordinate 1"):
            loss_value(m, (1.5, -0.5))
        with pytest.raises(ValueError, match="coordinate 1"):
            loss_gradient(m, (1.0, 0.0))


# ---------------------------------------------------------------- gradients


def test_quadratic_gradient():
    m = QuadraticLoss.build((0.5, 0.5))
    assert loss_gradient(m, (1.0, 0.0)) == pytest.approx([0.5, -0.5])


def test_exp_design_gradient_stationary_at_minimizer():
    m = ExpDesignLoss.build((1.0, 4.0))
    assert loss_gradient(m, (1 / 3, 2 / 3)) == pytest.approx([-9.0, -9.0])


def test_markowitz_gradient():
    m = MarkowitzLoss.build(((1.0, 0.0), (0.0, 1.0)), 1.0, (1.0, 0.0))
    assert loss_gradient(m, (0.5, 0.5)) == pytest.approx([0.0, 1.0])


def test_gradient_from_params_linear_is_the_parameter():
    m = LinearLoss.build((0.1, 0.5))
    assert plug_in_gradient(m, (0.2, 0.4), (0.9, 0.1)) == pytest.approx([0.2, 0.4])


def test_gradient_from_params_exp_design():
    m = ExpDesignLoss.build((1.0, 4.0))
    assert plug_in_gradient(m, (2.0, 2.0), (0.5, 0.5)) == pytest.approx([-8.0, -8.0])


def test_gradient_from_params_quadratic():
    m = QuadraticLoss.build((0.5, 0.5))
    assert plug_in_gradient(m, (0.3, 0.7), (0.5, 0.5)) == pytest.approx([0.2, -0.2])


def test_gradients_match_finite_differences():
    # central differences along directions e_i - (1/K) 1 inside the simplex
    rng = np.random.default_rng(20240901)
    step = 1e-6
    for model in all_models():
        k = model.num_actions
        for _ in range(100):
            p = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            p = tuple(float(v) for v in p)
            grad = loss_gradient(model, p)
            analytic = np.array(grad) - np.mean(grad)
            fd = np.empty(k)
            for i in range(k):
                d = [(1.0 if j == i else 0.0) - 1.0 / k for j in range(k)]
                plus = tuple(p[j] + step * d[j] for j in range(k))
                minus = tuple(p[j] - step * d[j] for j in range(k))
                fd[i] = (loss_value(model, plus) - loss_value(model, minus)) / (2 * step)
            rel = np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic))
            assert rel <= 1e-6, f"{model.kind}: rel={rel:.2e} at p={p}"


# ---------------------------------------------------------------- minimizers


def stationarity_residual(model, info):
    """KKT residual: gradient constant on the support, no descent off it."""
    p = info.p_star
    if model.kind in ("exp_design", "cobb_douglas") and min(p) <= 0.0:
        pytest.fail("interior family produced a boundary minimizer")
    g = loss_gradient(model, p)
    support = [i for i, v in enumerate(p) if v > 1e-12]
    nu = -sum(g[i] for i in support) / len(support)
    res = max(abs(g[i] + nu) for i in support)
    off = max((-(g[j] + nu) for j in range(len(p)) if j not in support), default=0.0)
    return max(res, off)


def test_exp_design_minimizer():
    info = minimizer(ExpDesignLoss.build((1.0, 4.0)))
    assert info.p_star == pytest.approx([1 / 3, 2 / 3])
    assert info.loss_star == pytest.approx(9.0)
    assert info.eta == pytest.approx(1 / 3)


def test_markowitz_minimizer():
    info = minimizer(MarkowitzLoss.build(((1.0, 0.0), (0.0, 1.0)), 1.0, (1.0, 0.0)))
    assert info.p_star == pytest.approx([0.75, 0.25])
    assert info.loss_star == pytest.approx(-0.125)


def test_linear_minimizer_gaps():
    model = LinearLoss.build((0.1, 0.5))
    info = minimizer(model)
    assert info.p_star == (1.0, 0.0)
    assert info.loss_star == pytest.approx(0.1)
    # the model holds the gaps, which prop2 reads
    assert model.star == 0
    assert model.gaps == pytest.approx((0.0, 0.4))


def test_linear_tied_minimizer_reports_nonunique():
    model = LinearLoss.build((0.2, 0.2, 0.9))
    assert minimizer(model).p_star == (1.0, 0.0, 0.0)
    assert model.gaps.tolist().count(0.0) == 2


def test_quadratic_minimizer_interior():
    info = minimizer(QuadraticLoss.build((0.2, 0.3, 0.5)))
    assert info.p_star == (0.2, 0.3, 0.5)
    assert info.loss_star == 0.0
    assert info.eta == pytest.approx(0.2)


def test_quadratic_minimizer_at_vertex_has_zero_gaps():
    # the gradient vanishes at p* = theta even when theta is a vertex
    model = QuadraticLoss.build((1.0, 0.0))
    info = minimizer(model)
    assert info.eta == 0.0
    assert model.true_gradient(np.array([info.p_star])).tolist() == [[0.0, 0.0]]


def test_minimizer_beats_random_points_and_is_stationary():
    rng = np.random.default_rng(7)
    for model in all_models():
        info = minimizer(model)
        k = model.num_actions
        star_val = loss_value(model, info.p_star)
        assert star_val == pytest.approx(info.loss_star, abs=1e-10)
        for _ in range(1000):
            q = rng.dirichlet(np.ones(k))
            if model.kind in ("exp_design", "cobb_douglas"):
                q = 0.999 * q + 0.001 / k
            assert star_val <= loss_value(model, tuple(q)) + 1e-10
        assert stationarity_residual(model, info) <= 1e-8


def test_gaps_satisfy_kkt_sign():
    # the last model's costs tie within 1e-12 but not exactly
    for model in [*all_models(), LinearLoss.build((0.1 + 5e-13, 0.1))]:
        if model.constant_gradient:
            assert model.gaps[model.star] == 0.0
            assert (model.gaps >= 0.0).all()
            info = minimizer(model)
            assert info.p_star[model.star] == 1.0
            assert loss_value(model, info.p_star) == info.loss_star


def test_markowitz_agrees_with_grid_search():
    rng = np.random.default_rng(99)
    for _ in range(5):
        a = rng.normal(size=(3, 3))
        sig = a @ a.T + 0.1 * np.eye(3)
        mu = rng.normal(size=3)
        lam = float(rng.uniform(0.2, 2.0))
        model = MarkowitzLoss.build(tuple(map(tuple, sig)), lam, tuple(mu))
        info = minimizer(model)
        # dense simplex grid; the exact solver must not be beaten
        best = math.inf
        n = 60
        for i in range(n + 1):
            for j in range(n + 1 - i):
                p = (i / n, j / n, (n - i - j) / n)
                best = min(best, loss_value(model, p))
        assert info.loss_star <= best + 1e-9


def test_support_candidate_solves_a_singular_consistent_system():
    # zero covariance: the two stationarity rows are equal, so `solve`
    # refuses the system, and the least-squares solution solves it exactly
    sig, mu = np.zeros((2, 2)), np.array([1.0, 1.0])
    p, value = losses._support_candidate(sig, 1.0, mu, [0, 1])
    assert p.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert value == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize(
    "sig, mu, support",
    [
        # equal stationarity rows with unequal right-hand sides: no solution
        pytest.param(np.zeros((2, 2)), (1.0, 2.0), [0, 1], id="singular_inconsistent"),
        # stationary on both actions at p = (3, -2), off the simplex
        pytest.param(np.eye(2), (10.0, 0.0), [0, 1], id="negative_weight"),
        # the vertex e_1, whose gradient still points toward action 0
        pytest.param(np.eye(2), (10.0, 0.0), [1], id="fails_kkt"),
    ],
)
def test_support_candidate_refuses(sig, mu, support):
    assert losses._support_candidate(sig, 1.0, np.array(mu), support) is None


def _reference_simplex_qp(sig, lam, mu):
    """The full 2^K enumeration: every support solved and checked, the best
    loss kept, ties going to the lowest support bitmask."""
    k = len(mu)
    best_loss = math.inf
    best_p = None
    for mask in range(1, 1 << k):
        support = [i for i in range(k) if mask >> i & 1]
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
                continue
        p_sub = x[:m]
        if np.any(p_sub < -1e-10):
            continue
        p = np.zeros(k)
        p[support] = np.clip(p_sub, 0.0, None)
        p /= p.sum()
        grad = 2.0 * sig @ p - lam * mu
        nu = -float(np.mean(grad[support]))
        if any(grad[j] + nu < -1e-8 for j in range(k) if j not in support):
            continue
        loss = float(p @ sig @ p - lam * mu @ p)
        if loss < best_loss - 1e-14:
            best_loss = loss
            best_p = p
    if best_p is None:
        raise RuntimeError("active-set enumeration found no KKT point")
    return best_p, best_loss


def _qp_instances():
    rng = np.random.default_rng(20261018)
    for k in range(2, 11):
        a = rng.normal(size=(k, k))
        b = rng.normal(size=(k, max(1, k // 3)))
        mu = rng.normal(size=k)
        yield f"full rank K={k}", a @ a.T, 1.0, mu
        yield f"rank deficient K={k}", b @ b.T, 1.5, mu
        yield f"all-zero covariance K={k}", np.zeros((k, k)), 1.0, mu
        yield f"vertex minimizer K={k}", np.eye(k), 20.0, np.arange(k, dtype=float)
        yield f"risk weight 0 K={k}", a @ a.T, 0.0, mu
        yield f"rank one with tied means K={k}", np.ones((k, k)), 1.0, np.round(mu)
    # the interior shape of the K=12 benchmark instance
    k = 12
    a = rng.normal(size=(k, k))
    cov = np.eye(k) + 0.2 * (a @ a.T) / k
    yield "interior K=12", (cov + cov.T) / 2.0, 1.0, rng.uniform(0.4, 0.6, size=k)
    # singular batches at the largest sizes the sweep can afford
    for k in (11, 12):
        b = rng.normal(size=(k, 2))
        mu = rng.uniform(0.4, 0.6, size=k)
        yield f"rank two K={k}", b @ b.T, 1.0, mu
        yield f"all-zero covariance K={k}", np.zeros((k, k)), 1.0, mu


def test_simplex_qp_matches_full_enumeration_bit_for_bit():
    for name, sig, lam, mu in _qp_instances():
        p_ref, loss_ref = _reference_simplex_qp(sig, lam, mu)
        p, loss = losses._simplex_qp(sig, lam, mu)
        assert np.array_equal(p, p_ref), name
        assert loss == loss_ref, name


def test_simplex_qp_raises_where_full_enumeration_raises():
    for sig, mu in (
        (np.full((3, 3), np.nan), np.ones(3)),
        (np.eye(3), np.array([np.nan, 0.0, 0.0])),
    ):
        with pytest.raises(RuntimeError, match="no KKT point"):
            _reference_simplex_qp(sig, 1.0, mu)
        with pytest.raises(RuntimeError, match="no KKT point"):
            losses._simplex_qp(sig, 1.0, mu)


def _assert_kkt(sig, lam, mu, p):
    """p lies on the simplex and satisfies the KKT conditions of the QP."""
    assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12
    g = 2.0 * sig @ p - lam * mu
    support = p > 0.0
    nu = -g[support].mean()
    assert np.abs(g[support] + nu).max() <= 1e-8
    assert (g[~support] + nu).min(initial=0.0) >= -1e-8


_ENTRIES = st.floats(-2.0, 2.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_simplex_qp_agrees_with_full_enumeration(data):
    k = data.draw(st.integers(2, 8), label="K")
    rank = data.draw(st.integers(0, k), label="rank")
    b = np.array(data.draw(st.lists(_ENTRIES, min_size=k * rank, max_size=k * rank), label="b"))
    mu = np.array(data.draw(st.lists(_ENTRIES, min_size=k, max_size=k), label="mu"))
    lam = data.draw(st.floats(0.0, 4.0), label="lam")
    sig = b.reshape(k, rank) @ b.reshape(k, rank).T
    p_ref, loss_ref = _reference_simplex_qp(sig, lam, mu)
    p, loss = losses._simplex_qp(sig, lam, mu)
    assert abs(loss - loss_ref) <= 1e-12 * (1.0 + abs(loss_ref))
    if np.linalg.eigvalsh(sig)[0] > 1e-3:  # full rank: the minimizer is unique
        assert np.abs(p - p_ref).max() <= 1e-9
    _assert_kkt(sig, lam, mu, p)


# ---------------------------------------------------------------- step formulas


def _reference_markowitz_gradient(model, params, p):
    """The index-loop gradient that `MarkowitzLoss.gradient` must match bit for bit."""
    sig = model.covariance
    lam = model.risk_weight
    k = len(p)
    return [2.0 * sum(sig[i][j] * p[j] for j in range(k)) - lam * params[i] for i in range(k)]


def _reference_markowitz_value(model, p):
    """The index-loop value that `MarkowitzLoss.value` must match bit for bit."""
    sig = model.covariance
    quad = sum(x * sum(row[j] * p[j] for j in range(len(p))) for x, row in zip(p, sig))
    return quad - model.risk_weight * sum(m * x for m, x in zip(model.params, p))


def test_markowitz_step_formulas_match_index_loops_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for k in range(2, 13):
        a = rng.normal(size=(k, k))
        model = MarkowitzLoss.build(a @ a.T / k, float(rng.uniform(0.0, 2.0)), rng.normal(size=k))
        points = [rng.dirichlet(np.ones(k)).tolist() for _ in range(20)]
        points += [[1.0 if i == j else 0.0 for i in range(k)] for j in range(k)]
        for p in points:
            params = rng.normal(size=k).tolist()
            assert plug_in_gradient(model, params, p) == _reference_markowitz_gradient(model, params, p)
            assert model.value(p) == _reference_markowitz_value(model, p)


INTERP_TABLES = (
    ((0.0, 0.5, 1.0), (1.0, 0.2, 0.0)),  # decreasing
    ((0.0, 0.5, 1.0), (0.2, 0.4, 0.6)),  # increasing
    ((-1.0, 0.0, 1.0, 2.0), (0.5, 0.5, 0.5, 0.5)),  # flat
    ((-1.0, 0.0, 1.0), (-0.0, -0.0, -0.0)),  # flat at -0.0
    ((-1.0, 0.0, 1.0, 2.0), (0.0, 0.3, 0.3, 0.9)),  # a flat middle segment
    ((-1e308, 1e308), (-1e308, 1e308)),  # the slope overflows to nan
    ((0.0, 1e-300), (0.0, 1e10)),  # the slope overflows to inf
)


def test_piecewise_linear_matches_numpy_interp_bit_for_bit():
    rng = np.random.default_rng(5)
    tables = list(INTERP_TABLES)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        xs = np.sort(rng.uniform(-3.0, 3.0, size=n))
        ys = np.sort(rng.normal(size=n)) * rng.choice([-1.0, 1.0])
        tables.append((tuple(xs.tolist()), tuple(ys.tolist())))
    for xs, ys in tables:
        f = PiecewiseLinear(xs, ys)
        inside = rng.uniform(xs[0], xs[-1], size=50).tolist() if xs[-1] - xs[0] < 1e300 else []
        probes = [*xs, *inside, xs[0] - 1.0, xs[-1] + 1.0, -math.inf, math.inf, -0.0, math.nan]
        probes += [float(np.nextafter(x, math.inf)) for x in xs]
        probes += [float(np.nextafter(x, -math.inf)) for x in xs]
        for x in probes:
            want = float(np.interp(x, xs, ys))
            # the tables' own evaluation, and the pure-Python port of it
            # the reference loop evaluates the separable gradient with
            for got in (f(x), reference_loop.interp(f.xs, f.ys, x)):
                assert type(got) is float
                assert got == want or (math.isnan(got) and math.isnan(want)), (xs, ys, x)


def test_separable_gradient_matches_numpy_interp_bit_for_bit():
    # the gradient calls numpy's compiled interp directly; every column of
    # every block must be the bytes np.interp gives for that column
    rng = np.random.default_rng(8)
    tables = list(INTERP_TABLES)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        xs = np.sort(rng.uniform(-3.0, 3.0, size=n))
        ys = np.sort(rng.normal(size=n)) * rng.choice([-1.0, 1.0])
        tables.append((tuple(xs.tolist()), tuple(ys.tolist())))

    def probes(xs):
        out = [*xs, xs[0] - 1.0, xs[-1] + 1.0, -math.inf, math.inf, -0.0, 0.0, math.nan]
        out += [float(np.nextafter(x, math.inf)) for x in xs]
        out += [float(np.nextafter(x, -math.inf)) for x in xs]
        if xs[-1] - xs[0] < 1e300:
            out += rng.uniform(xs[0], xs[-1], size=8).tolist()
        return out

    for k in (2, 3, 4):
        for _ in range(15):
            pick = [tables[i] for i in rng.choice(len(tables), size=k, replace=False)]
            model = SeparableLoss.build([0.0] * k, pick)
            cols = [probes(t.xs) for t in model.tables]
            s = max(len(c) for c in cols)
            # each column holds every probe of its table, the rest drawn
            # from them, in a random order
            block = np.array(
                [rng.permutation(c + rng.choice(c, size=s - len(c)).tolist()) for c in cols]
            ).T
            for params in (block, np.asfortranarray(block), block[: int(rng.integers(1, s))]):
                want = np.empty(params.shape)
                for i, (xs, ys) in enumerate(model.table_arrays):
                    want[:, i] = np.interp(params[:, i], xs, ys)
                got = model.gradient(params, None)
                assert got.shape == params.shape
                assert got.tobytes() == want.tobytes(), pick


def test_step_results_do_not_alias_model_state():
    # a result is either a fresh array or read-only, so a caller that
    # scales it in place cannot change what a later call returns
    p = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    for m in all_models():
        for call in (m.true_gradient, m.sensitivity):
            first = call(p)
            if first is None:
                continue
            want = call(p).tolist()
            assert first.flags.writeable is not np.shares_memory(first, call(p)), m.kind
            if first.flags.writeable:
                first *= 2.0
            else:
                with pytest.raises(ValueError, match="read-only"):
                    first *= 2.0
            assert call(p).tolist() == want, (m.kind, call.__name__)
    cached = [m.costs_array for m in all_models() if m.constant_gradient]
    cached += [m.lipschitz_array for m in all_models() if m.kind == "separable"]
    cached += [m.cov_array for m in all_models() if m.kind == "markowitz"]
    assert len(cached) == 4 and not any(a.flags.writeable for a in cached)


# ---------------------------------------------------------------- constants


def test_quadratic_constants():
    m = QuadraticLoss.build((0.2, 0.3, 0.5))
    assert m.strong_convexity == 1.0
    assert m.smoothness_C == 1.0
    assert m.sup_grad == pytest.approx(0.8)
    # farthest vertex from theta is e_0
    assert m.sup_loss == pytest.approx(0.5 * (0.8**2 + 0.3**2 + 0.5**2))


def test_markowitz_constants():
    m = MarkowitzLoss.build(((1.0, 0.0), (0.0, 1.0)), 1.0, (1.0, 0.0))
    assert m.smoothness_C == pytest.approx(2.0)
    assert m.strong_convexity == pytest.approx(2.0)
    assert m.sup_loss == pytest.approx(1.0)
    assert m.sup_grad == pytest.approx(2.0)


def test_exp_design_constants_infinite_without_floor():
    m = ExpDesignLoss.build((1.0, 4.0))
    assert math.isinf(m.smoothness_C)
    assert math.isinf(m.sup_loss)
    assert m.strong_convexity == pytest.approx(2.0)


def test_exp_design_constants_with_floor():
    m = ExpDesignLoss.build((1.0, 4.0), interior_floor=(1 / 3, 1 / 3))
    assert m.smoothness_C == pytest.approx(216.0)


def test_interior_smoothness_examples():
    assert ExpDesignLoss.build((1.0, 1.0)).smoothness_over((0.5, 0.5)) == pytest.approx(16.0)
    assert ExpDesignLoss.build((1.0, 4.0)).smoothness_over((1 / 3, 2 / 3)) == pytest.approx(54.0)
    assert CobbDouglasLoss.build((0.5, 0.5)).smoothness_over((0.25, 0.25)) == pytest.approx(8.0)


def test_interior_smoothness_noop_for_globally_smooth_kind():
    m = QuadraticLoss.build((0.5, 0.5))
    assert m.smoothness_over((0.1, 0.1)) == m.smoothness_C


def test_sensitivity_factors():
    assert point_sensitivity(LinearLoss.build((0.0, 1.0)), (0.5, 0.5)) is None
    assert point_sensitivity(QuadraticLoss.build((0.5, 0.5)), (0.5, 0.5)) is None
    assert point_sensitivity(MarkowitzLoss.build(((1, 0), (0, 1)), 1.0, (1.0, 0.0)), (0.5, 0.5)) is None
    assert point_sensitivity(MarkowitzLoss.build(((1, 0), (0, 1)), 2.0, (1.0, 0.0)), (0.5, 0.5)) == [2.0, 2.0]
    assert point_sensitivity(ExpDesignLoss.build((1.0, 4.0)), (0.5, 0.25)) == pytest.approx([4.0, 16.0])
    assert point_sensitivity(CobbDouglasLoss.build((0.5, 0.5)), (0.5, 0.25)) == pytest.approx([2.0, 4.0])
    m = SeparableLoss.build((0.3, -1.0, 1.5), TABLES)
    assert point_sensitivity(m, (0.2, 0.3, 0.5)) == [t.lipschitz() for t in m.tables]


# ---------------------------------------------------------------- validation


def test_quadratic_requires_simplex_center():
    with pytest.raises(ValueError, match="simplex"):
        QuadraticLoss.build((0.6, 0.6))
    with pytest.raises(ValueError, match="negative"):
        QuadraticLoss.build((1.2, -0.2))


def test_exp_design_requires_positive_variances():
    with pytest.raises(ValueError, match="coordinate 1"):
        ExpDesignLoss.build((1.0, 0.0))


def test_cobb_douglas_requires_open_unit_weights():
    with pytest.raises(ValueError, match="coordinate 0"):
        CobbDouglasLoss.build((1.0, 0.5))


def test_markowitz_requires_symmetric_psd():
    with pytest.raises(ValueError, match="symmetric"):
        MarkowitzLoss.build(((1.0, 0.5), (0.0, 1.0)), 1.0, (0.0, 1.0))
    with pytest.raises(ValueError, match="semidefinite"):
        MarkowitzLoss.build(((1.0, 2.0), (2.0, 1.0)), 1.0, (0.0, 1.0))
    # one row of K entries per action, ragged rows included
    with pytest.raises(ValueError, match=re.escape("covariance must be 2x2, got rows of lengths (2, 1)")):
        MarkowitzLoss.build(((1.0, 0.0), (0.0,)), 1.0, (0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("covariance must be 2x2, got rows of lengths (3, 3, 3)")):
        MarkowitzLoss.build(np.eye(3), 1.0, (0.0, 1.0))


def test_markowitz_builds_64_actions_to_a_kkt_point():
    # a rank-2 covariance leaves most of the reduced Hessian singular
    rng = np.random.default_rng(64)
    b = rng.normal(size=(64, 2))
    sig, mu = b @ b.T, rng.uniform(0.4, 0.6, size=64)
    _assert_kkt(sig, 1.0, mu, np.array(MarkowitzLoss.build(sig, 1.0, mu).minimizer().p_star))


def test_separable_requires_one_table_per_coordinate():
    with pytest.raises(ValueError, match="one table per"):
        SeparableLoss.build((0.1, 0.2), TABLES)


def test_interior_floor_validation():
    with pytest.raises(ValueError, match="empty"):
        ExpDesignLoss.build((1.0, 1.0), interior_floor=(0.6, 0.6))
    with pytest.raises(ValueError, match="coordinate 0"):
        ExpDesignLoss.build((1.0, 1.0), interior_floor=(0.0, 0.5))


# ---------------------------------------------------------------- tables


def test_piecewise_linear_eval_and_clamp():
    f = PiecewiseLinear((-1.0, 0.0, 2.0), (0.0, 1.0, 2.0))
    assert f(-0.5) == pytest.approx(0.5)
    assert f(1.0) == pytest.approx(1.5)
    assert f(-5.0) == 0.0
    assert f(5.0) == 2.0
    assert f.lipschitz() == pytest.approx(1.0)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseLinear((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="xs has a non-finite entry"):
        PiecewiseLinear((0.0, math.nan, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="ys has a non-finite entry"):
        PiecewiseLinear((0.0, 1.0), (0.0, math.inf))
    with pytest.raises(ValueError, match="monotone"):
        PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 2.0, 1.0))
    with pytest.raises(ValueError, match=">= 2"):
        PiecewiseLinear((0.0,), (1.0,))


def test_separable_minimizer_uses_table_values():
    m = SeparableLoss.build((0.3, -1.0, 1.5), TABLES)
    costs = [t(v) for t, v in zip(m.tables, m.params)]
    info = minimizer(m)
    assert info.p_star[costs.index(min(costs))] == 1.0
    assert info.loss_star == pytest.approx(min(costs))


# ---------------------------------------------------------------- blocks


def _block_case(model, rng, rows=9):
    k = model.num_actions
    p = rng.dirichlet(np.ones(k), size=rows)
    if model.smooth_on_simplex:
        p[0] = np.eye(k)[0]  # a vertex
        p[1, 0] = 0.0  # a boundary point
        p[1] /= p[1].sum()
    if model.variance_feedback:
        params = rng.uniform(0.1, 5.0, size=(rows, k))
    else:
        params = rng.normal(0.0, 2.0, size=(rows, k))
    return params, p


@pytest.mark.parametrize("model", checks._check_instances(), ids=lambda m: m.kind)
def test_block_methods_match_list_path_row_by_row(model):
    # the engine evaluates a block of seeds at once; every row must be the
    # float the list formulas give for that seed alone
    rng = np.random.default_rng(31)
    params, p = _block_case(model, rng)
    grad = model.gradient(params, p)
    true = model.true_gradient(p)
    sens = model.sensitivity(p)
    for row in range(len(p)):
        point = p[row].tolist()
        assert grad[row].tolist() == reference_loop.gradient_from_params(model, params[row].tolist(), point)
        assert true[row].tolist() == reference_loop.loss_gradient(model, point)
        want = reference_loop.sensitivity(model, point)
        if want is None:
            assert sens is None
        else:
            assert np.broadcast_to(sens, p.shape)[row].tolist() == want


def test_block_gradient_names_the_first_boundary_row():
    model = ExpDesignLoss.build((1.0, 4.0))
    p = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="coordinate 0 is 0.0"):
        model.gradient(np.ones((3, 2)), p)


def test_markowitz_sums_row_products_left_to_right():
    # a compensated sum (Python >= 3.12's sum()) would give 1.0 here
    terms = [1e16, 1.0, -1e16]
    assert losses._dot(terms, [1.0, 1.0, 1.0]) == 0.0
    rows = np.array([terms, terms[::-1]])
    assert losses._row_dots(rows, np.ones((1, 3))).tolist() == [[0.0, 0.0]]


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # a compensated sum(), as from Python 3.12 on, must change no value,
    # minimizer or bound constant of any family
    from ucbfw import harness

    def outcomes():
        rng = np.random.default_rng(5)
        floor = (0.05,) * 4
        out = []
        for _ in range(10):
            models = [
                LinearLoss.build(tuple(rng.normal(size=4))),
                QuadraticLoss.build(tuple(rng.dirichlet(np.ones(4)))),
                ExpDesignLoss.build(tuple(rng.uniform(0.1, 5.0, 4)), interior_floor=floor),
                CobbDouglasLoss.build(tuple(rng.uniform(0.05, 0.95, 4)), interior_floor=floor),
            ]
            points = [tuple(0.8 * rng.dirichlet(np.ones(4)) + 0.05) for _ in range(50)]
            for model in models:
                info = minimizer(model)
                values = [loss_value(model, p) for p in points]
                out.append((model.sup_loss, info, values))
            prop2 = harness._prop2(models[0], minimizer(models[0]), [])
            out.append([prop2(t) for t in (10, 1000)])
        return out

    expected = outcomes()
    monkeypatch.setattr(losses, "sum", math.fsum, raising=False)
    monkeypatch.setattr(harness, "sum", math.fsum, raising=False)
    assert outcomes() == expected
