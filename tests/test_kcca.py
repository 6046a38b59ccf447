import numpy as np
import pytest
import scipy.sparse as sp

from ctrend import (
    KccaModel,
    ToyConfig,
    center_cross,
    center_kernel,
    embed_columns,
    generate_toy,
    linear_kernel,
    pearson_correlation,
    pool_excluding,
    project,
    solve_kcca,
)
from ctrend.exceptions import (
    BadKappa,
    DegenerateProjection,
    ShapeMismatch,
    SingularRhs,
    TooFewSamples,
)
from ctrend.kcca import _SideFactor, _fit_pair
from oracles import generalized_eig_top, input_space_cca, naive_gram


def centered_pair(x, y):
    kx, mx = center_kernel(linear_kernel(x))
    ky, my = center_kernel(linear_kernel(y))
    return kx, ky, mx, my


def toy_matrices(T=500, seed=0, n_lags=5, gamma=0.9):
    """Embedded feed X and trimmed pool for the two-feed toy corpus."""
    c = generate_toy(ToyConfig(T=T, gamma=gamma, seed=seed))
    emb = embed_columns(c.feed("X").matrix, n_lags).toarray()
    pool = pool_excluding(c, "X")[:, n_lags:].toarray()
    return emb, pool


# ---------------------------------------------------------------------------
# linear kernel

def test_linear_kernel_identity():
    assert np.array_equal(linear_kernel(np.eye(2)), np.eye(2))


def test_linear_kernel_orthogonal_columns():
    a = np.array([[3.0, 0.0], [0.0, 2.0]])
    assert np.allclose(linear_kernel(a), np.diag([9.0, 4.0]))


def test_linear_kernel_matches_naive_oracle():
    a = np.random.default_rng(0).standard_normal((5, 40))
    assert np.abs(linear_kernel(a) - naive_gram(a)).max() < 1e-12


def test_linear_kernel_sparse_matches_dense():
    rng = np.random.default_rng(1)
    a = (rng.random((6, 15)) < 0.4) * rng.standard_normal((6, 15))
    assert np.allclose(linear_kernel(sp.csc_matrix(a)), linear_kernel(a))


def test_linear_kernel_too_few_samples():
    with pytest.raises(TooFewSamples):
        linear_kernel(np.ones((3, 1)))


# ---------------------------------------------------------------------------
# centering

def test_center_constant_features_annihilated():
    a = np.ones((3, 8)) * 4.2
    kc, _ = center_kernel(linear_kernel(a))
    assert np.abs(kc).max() < 1e-10


def test_center_already_centered_unchanged():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 30))
    a -= a.mean(axis=1, keepdims=True)
    k = linear_kernel(a)
    kc, _ = center_kernel(k)
    assert np.abs(kc - k).max() < 1e-12 * np.abs(k).max()


def test_center_row_sums_zero():
    rng = np.random.default_rng(3)
    k = linear_kernel(rng.standard_normal((7, 25)))
    kc, _ = center_kernel(k)
    n = k.shape[0]
    assert np.abs(kc.sum(axis=1)).max() < 1e-8 * n * np.abs(kc).max()


def test_center_cross_matches_feature_centering():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 20))
    train, test = a[:, :14], a[:, 14:]
    _, means = center_kernel(linear_kernel(train))
    got = center_cross(train.T @ test, means)
    mu = train.mean(axis=1, keepdims=True)
    want = (train - mu).T @ (test - mu)
    assert np.abs(got - want).max() < 1e-10


def test_center_cross_shape_check():
    _, means = center_kernel(linear_kernel(np.random.default_rng(0).random((2, 6))))
    with pytest.raises(ShapeMismatch):
        center_cross(np.zeros((5, 3)), means)


# ---------------------------------------------------------------------------
# solve_kcca

def test_self_correlation_near_one():
    t = np.linspace(0, 6, 50)
    x = np.sin(t)[None, :]
    kx, ky, _, _ = centered_pair(x, x)
    m = solve_kcca(kx, ky, 1e-6)
    assert m.lam >= 0.999


def test_white_noise_small_lambda_matches_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2 * 3, 200))
    y = rng.standard_normal((2, 200))
    kx, ky, _, _ = centered_pair(x, y)
    oracle = input_space_cca(x, y)
    m = solve_kcca(kx, ky, 1e-2)
    assert m.lam < 0.5
    assert abs(m.lam - oracle) < 1e-4
    m_floor = solve_kcca(kx, ky, 1e-8)
    assert abs(m_floor.lam - oracle) < 1e-6


def test_toy_training_lambda():
    emb, pool = toy_matrices()
    kx, ky, _, _ = centered_pair(emb, pool)
    m = solve_kcca(kx, ky, 1e-3)
    assert m.lam >= 0.8
    assert abs(m.lam - input_space_cca(emb, pool)) < 1e-3


def test_matches_direct_generalized_eigensolver():
    rng = np.random.default_rng(7)
    for kappa in (1e-6, 1e-2, 1.0, 10.0):
        x = rng.standard_normal((5, 40))
        y = rng.standard_normal((3, 40))
        kx, ky, _, _ = centered_pair(x, y)
        m = solve_kcca(kx, ky, kappa)
        assert abs(m.eigenvalue - generalized_eig_top(kx, ky, kappa)) < 1e-9


def test_lambda_in_unit_interval():
    rng = np.random.default_rng(8)
    for seed in range(5):
        x = rng.standard_normal((4, 60))
        y = 0.5 * x[:3] + rng.standard_normal((3, 60))
        kx, ky, _, _ = centered_pair(x, y)
        for kappa in (1e-8, 1e-4, 1.0, 10.0):
            m = solve_kcca(kx, ky, kappa)
            assert -1e-8 <= m.eigenvalue <= 1 + 1e-8
            assert -1e-8 <= m.lam <= 1 + 1e-8


def test_eigenvalue_monotone_in_kappa():
    emb, pool = toy_matrices(T=300, seed=2)
    kx, ky, _, _ = centered_pair(emb, pool)
    prev = np.inf
    for kappa in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
        val = solve_kcca(kx, ky, kappa).eigenvalue
        assert val <= prev + 1e-10
        prev = val


def test_solver_deterministic():
    emb, pool = toy_matrices(T=200, seed=3)
    kx, ky, _, _ = centered_pair(emb, pool)
    m1 = solve_kcca(kx, ky, 1e-3)
    m2 = solve_kcca(kx, ky, 1e-3)
    assert np.array_equal(m1.alpha, m2.alpha)
    assert np.array_equal(m1.beta, m2.beta)
    assert m1.lam == m2.lam


def test_sign_convention():
    emb, pool = toy_matrices(T=400, seed=4)
    kx, ky, _, _ = centered_pair(emb, pool)
    m = solve_kcca(kx, ky, 1e-3)
    assert m.beta[np.argmax(np.abs(m.beta))] > 0
    assert m.lam > 0


def test_training_correlation_equals_lambda():
    emb, pool = toy_matrices(T=300, seed=5)
    kx, ky, _, _ = centered_pair(emb, pool)
    m = solve_kcca(kx, ky, 1e-2)
    u, v = project(m, kx, ky)
    assert abs(pearson_correlation(u, v) - m.lam) < 1e-12


def test_kappa_floor_enforced():
    emb, pool = toy_matrices(T=100, seed=6)
    kx, ky, _, _ = centered_pair(emb, pool)
    with pytest.raises(SingularRhs):
        solve_kcca(kx, ky, 1e-12)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -float("inf")])
def test_kappa_that_is_not_finite_is_named(kappa):
    emb, pool = toy_matrices(T=100, seed=6)
    kx, ky, _, _ = centered_pair(emb, pool)
    with pytest.raises(BadKappa, match=f"kappa={kappa} is not a finite number"):
        solve_kcca(kx, ky, kappa)


def test_degenerate_kernel_rejected():
    z = np.zeros((10, 10))
    with pytest.raises(DegenerateProjection):
        solve_kcca(z, z, 1e-3)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        solve_kcca(np.eye(4), np.eye(5), 1e-3)


# ---------------------------------------------------------------------------
# projection

def test_project_training_block_reproduces_lambda():
    emb, pool = toy_matrices(T=250, seed=7)
    kx, ky, _, _ = centered_pair(emb, pool)
    m = solve_kcca(kx, ky, 1e-3)
    u, v = project(m, kx, ky)
    assert abs(pearson_correlation(u, v) - m.lam) < 1e-12


def test_project_unit_alpha_picks_kernel_row():
    k = np.arange(12.0).reshape(3, 4)
    m = KccaModel(alpha=np.array([1.0, 0, 0]), beta=np.array([0, 1.0, 0]),
                  lam=0.0, eigenvalue=0.0, kappa=1e-3)
    u, v = project(m, k, k)
    assert np.array_equal(u, k[0])
    assert np.array_equal(v, k[1])


def test_project_shape_check():
    m = KccaModel(alpha=np.ones(3), beta=np.ones(3), lam=0.0, eigenvalue=0.0,
                  kappa=1e-3)
    with pytest.raises(ShapeMismatch):
        project(m, np.ones((4, 2)), np.ones((3, 2)))


def test_toy_holdout_correlation():
    emb, pool = toy_matrices(T=1000, seed=8)
    n_train = 700
    tr_x, te_x = emb[:, :n_train], emb[:, n_train:]
    tr_y, te_y = pool[:, :n_train], pool[:, n_train:]
    kx, mx = center_kernel(linear_kernel(tr_x))
    ky, my = center_kernel(linear_kernel(tr_y))
    m = solve_kcca(kx, ky, 1e-3)
    u, v = project(m, center_cross(tr_x.T @ te_x, mx),
                   center_cross(tr_y.T @ te_y, my))
    assert pearson_correlation(u, v) >= 0.7


# ---------------------------------------------------------------------------
# primal recovery

def _fit_sides(x, y, kappa):
    """The fold fit's pair on all columns of x and y, as ``analyze`` runs
    it: the model and both sides' primal weights."""
    sx = _SideFactor(x, np.arange(x.shape[1]), linear_kernel(x))
    sy = _SideFactor(y, np.arange(y.shape[1]), linear_kernel(y))
    model, a, b = _fit_pair(sx, sy, kappa)
    return model, sx.primal_weight(a), sy.primal_weight(b)


def test_primal_dual_projection_identity():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((4, 80))
    for d in (6, 120):  # the feed side on the primal, then the dual route
        x = rng.standard_normal((d, 80))
        m, w_x, w_y = _fit_sides(x, y, 1e-3)
        kx, ky, _, _ = centered_pair(x, y)
        assert np.allclose(m.alpha, solve_kcca(kx, ky, 1e-3).alpha, atol=1e-8)
        u_primal = w_x @ x
        u_dual = m.alpha @ (x.T @ x)
        assert np.abs(u_primal - u_dual).max() < 1e-8 * np.abs(u_dual).max()
        v_primal = w_y @ y
        v_dual = m.beta @ (y.T @ y)
        assert np.abs(v_primal - v_dual).max() < 1e-8 * np.abs(v_dual).max()


def test_toy_weight_structure():
    # vocabulary rows: Phone, Volcano, Airplane, Cloud, iPad, Ash
    n_lags = 5
    emb, pool = toy_matrices(T=2000, seed=11, n_lags=n_lags)
    _, w_x, w_y = _fit_sides(emb, pool, 1e-3)
    w_x = w_x.reshape(n_lags, -1)[::-1].T  # W x lags, column tau-1 = lag tau
    top2 = set(np.argsort(np.abs(w_y))[-2:])
    assert top2 == {3, 5}  # Cloud and Ash carry the pooled trend
    volcano = np.abs(w_x[1])
    assert int(np.argmax(volcano)) + 1 == 3  # strongest at the planted lag


def test_oracle_invariant_under_linear_transforms():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 100))
    y = 0.4 * np.vstack([x[0], x[1], x[2]]) + rng.standard_normal((3, 100))
    base = input_space_cca(x, y)
    for seed in range(3):
        r = np.random.default_rng(seed)
        a = r.standard_normal((4, 4)) + 4 * np.eye(4)
        b = r.standard_normal((3, 3)) + 4 * np.eye(3)
        assert abs(input_space_cca(a @ x, b @ y) - base) < 1e-8


# ---------------------------------------------------------------------------
# batched top pair from the small side

@pytest.mark.parametrize("rx, ry", [(30, 7), (7, 30), (9, 9)])
def test_top_pairs_match_full_svd(rx, ry):
    from ctrend.kcca import _canonical_pairs, _top_pairs
    rng = np.random.default_rng(rx * 100 + ry)
    kappas = np.array([1e-5, 1e-2, 1.0, 10.0])
    theta_x = np.sort(rng.random((3, rx)) * 5)[:, ::-1] + 1e-3
    theta_y = np.sort(rng.random((3, ry)) * 5)[:, ::-1] + 1e-3
    cross = rng.standard_normal((3, rx, ry))
    lams, a, b = _top_pairs(theta_x, theta_y, cross, kappas)
    assert lams.shape == (3, 4) and a.shape == (3, 4, rx) and b.shape == (3, 4, ry)
    for g in range(3):
        ref_l, ref_a, ref_b = _canonical_pairs(theta_x[g], theta_y[g], cross[g],
                                               kappas)
        assert np.allclose(lams[g], ref_l, rtol=1e-12, atol=0)
        # the pair is defined up to a joint sign
        sign = np.sign(np.einsum("ki,ki->k", a[g], ref_a))[:, None]
        assert np.allclose(sign * a[g], ref_a, rtol=0, atol=1e-10)
        assert np.allclose(sign * b[g], ref_b, rtol=0, atol=1e-10)


def test_top_pairs_zero_cross_is_finite_and_silent():
    from ctrend.kcca import _top_pairs
    theta_x = np.array([[3.0, 1.0, 0.5]])
    theta_y = np.array([[2.0, 0.1]])
    with np.errstate(all="raise"):
        lams, a, b = _top_pairs(theta_x, theta_y, np.zeros((1, 3, 2)),
                                np.array([1e-3, 1.0]))
    assert np.all(lams == 0.0)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    assert np.all(a == 0.0)  # the recovered side carries no direction


def test_top_pairs_kappa_floor():
    from ctrend.kcca import _top_pairs
    with pytest.raises(SingularRhs):
        _top_pairs(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2, 2)),
                   np.array([1e-9]))
    with pytest.raises(BadKappa, match="kappa=nan"):
        _top_pairs(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2, 2)),
                   np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# one top singular triple, for the batch and for the LSA baseline

def test_top_singular_stack_is_bit_equal_per_matrix():
    from ctrend.kcca import _top_singular
    rng = np.random.default_rng(21)
    m = rng.standard_normal((3, 2, 7, 5))  # (g, k, r, c)
    s, u, v = _top_singular(m, np.swapaxes(m, -1, -2))
    assert s.shape == (3, 2) and u.shape == (3, 2, 7) and v.shape == (3, 2, 5)
    for g in range(3):
        for k in range(2):
            one = _top_singular(m[g, k], m[g, k].T)
            assert np.array_equal(s[g, k], one[0])
            assert np.array_equal(u[g, k], one[1])
            assert np.array_equal(v[g, k], one[2])


@pytest.mark.parametrize("shape", [(30, 7), (7, 30), (9, 9)])
def test_top_singular_matches_svd(shape):
    from ctrend.kcca import _top_singular
    m = np.random.default_rng(shape[0] * 100 + shape[1]).standard_normal(shape)
    s, u, v = _top_singular(m, m.T)
    uu, ss, vt = np.linalg.svd(m)
    assert abs(s - ss[0]) < 1e-12 * ss[0]
    sign = np.sign(u @ uu[:, 0])  # the pair is defined up to a joint sign
    assert np.allclose(sign * u, uu[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(sign * v, vt[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
def test_top_singular_of_zero_is_zero(shape):
    from ctrend.kcca import _top_singular
    m = np.zeros(shape)
    with np.errstate(all="raise"):
        s, u, v = _top_singular(m, m.T)
    assert s == 0.0
    # the recovered side is zero; the eigenvector side is any unit vector
    recovered = u if shape[1] <= shape[0] else v
    assert np.all(recovered == 0.0)


@pytest.mark.parametrize("shape", [(40, 9), (9, 40), (1, 12), (12, 1)])
def test_top_singular_sparse_matches_dense(shape):
    from ctrend.kcca import _top_singular
    rng = np.random.default_rng(shape[0] + shape[1])
    m = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
    m[0, 0] = 1.0  # not all zero
    dense = _top_singular(m, m.T)
    csc = sp.csc_matrix(m)
    sparse = _top_singular(csc, csc.T)
    assert abs(sparse[0] - dense[0]) < 1e-12 * dense[0]
    sign = np.sign(sparse[1] @ dense[1])  # one joint sign for u and v
    for got, want in zip(sparse[1:], dense[1:]):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.allclose(sign * got, want, rtol=0, atol=1e-12)
