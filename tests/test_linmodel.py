import os
import pathlib
import subprocess
import sys
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hatetriage import linmodel
from hatetriage.linmodel import (
    DEFAULT_MAX_ITER,
    LinearModel,
    _logistic_slope_curvature,
    _logistic_value,
    _soft_threshold,
    _squared_hinge_slope_curvature,
    _squared_hinge_value,
    _trust_region_cg,
    fit_linear_svm,
    fit_logreg,
    fit_multinomial_nb,
    logistic,
    predict,
    predict_scores,
)
from hatetriage.vectorize import COEF_KEEP_THRESHOLD
from linmodel_reference import (
    _logistic_loss_grad,
    _squared_hinge_loss_grad,
    reference_fit_l2,
    reference_fit_multinomial_nb,
)

STORAGES = ("csr", "dense")


@contextmanager
def stored_as(storage):
    """Fits inside the block hold X in the given storage, whatever its
    density."""
    with mock.patch.object(linmodel, "_dense_storage", lambda X: storage == "dense"):
        yield


def on_both_storages(argnames, cases):
    """Parametrize argnames plus storage: each case runs on CSR under its
    plain id, and on the dense storage with "-dense" appended."""
    params = []
    for case in cases:
        values = case if isinstance(case, tuple) else (case,)
        name = "-".join(str(v) for v in values)
        params.append(pytest.param(*values, "csr", id=name))
        params.append(pytest.param(*values, "dense", id=f"{name}-dense"))
    return pytest.mark.parametrize(f"{argnames}, storage", params)


def separable_set(seed=0, n_per=20):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(-2, 0.5, (n_per, 2)), rng.normal(2, 0.5, (n_per, 2))]
    )
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def noisy_set(seed=5):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-0.6, 1.0, (30, 3)), rng.normal(0.6, 1.0, (30, 3))])
    y = np.array([0] * 30 + [1] * 30)
    return X, y


def tfidf_set(seed=11, n=300, d=400):
    """Sparse TF-IDF-like rows: Zipfian word draws, most rows with one marker
    word of their class, idf weighting, unit L2 row norms."""
    rng = np.random.default_rng(seed)
    y = rng.choice(3, size=n, p=[0.1, 0.7, 0.2])
    zipf = 1.0 / np.arange(1, d + 1) ** 1.05
    rows, cols = [], []
    for i in range(n):
        words = list(rng.choice(d, size=int(rng.integers(4, 15)), p=zipf / zipf.sum()))
        if rng.random() < 0.8:
            words.append(d - 1 - 10 * y[i] - int(rng.integers(0, 10)))
        rows += [i] * len(words)
        cols += words
    counts = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, d))
    counts.sum_duplicates()
    df = np.bincount(counts.indices, minlength=d)
    X = counts.multiply(np.log((1 + n) / (1 + df)) + 1).tocsr()
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    return (sparse.diags(1.0 / norms) @ X).tocsr(), y


def mixed_scale_set(seed=0):
    """tfidf_set() beside 6 standardized dense columns that share one
    Gaussian and lean on the label: TF-IDF column mean squares near 1e-3
    next to scalar columns at 1, as in the pipeline's feature matrix."""
    X, y = tfidf_set()
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=X.shape[0])
    dense = shared[:, None] + 0.5 * y[:, None] + 0.3 * rng.normal(size=(X.shape[0], 6))
    dense = (dense - dense.mean(axis=0)) / dense.std(axis=0)
    return sparse.hstack([X, sparse.csr_matrix(dense)]).tocsr(), y


def objective_l1_logistic(X, z, C, w, b):
    n = X.shape[0]
    return np.logaddexp(0.0, -z * (X @ w + b)).sum() / n + np.abs(w).sum() / (C * n)


def objective_l2_logistic(X, y, C, w, b, omega=None):
    n = X.shape[0]
    z = np.where(y == y.max(), 1.0, -1.0)
    if omega is None:
        omega = np.ones(n)
    margins = X @ w + b
    loss = (omega * np.logaddexp(0.0, -z * margins)).sum() / n
    return loss + (w @ w) / (2 * C * n)


class TestSoftThreshold:
    def test_definition(self):
        assert _soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
        assert _soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
        assert _soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0


class TestLogistic:
    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic(np.array([-np.inf, -800.0, 800.0, np.inf]))
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_within_ulps_of_expit(self):
        """Same algebra as expit, but numpy's exp, which may differ from the
        C library's in the last place. Where exp(-z) lies in [2**53, 2**54)
        (z in about [-37.4, -36.7]) its ulp is 2, so adding 1 is an exact
        tie that rounds to even, and one ulp of exp can become four of the
        result; elsewhere the results lie within two ulps."""
        from scipy.special import expit

        z = np.linspace(-745.0, 745.0, 1_490_001)
        got, want = logistic(z), expit(z)
        ulps = np.abs(got - want) / np.spacing(want)
        with np.errstate(over="ignore"):
            e = np.exp(-z)
        tie_window = (e >= 2.0**53) & (e < 2.0**54)
        assert ulps[~tie_window].max() <= 2.0
        assert ulps[tie_window].max() <= 4.0

    def test_loss_within_ulps_of_logaddexp(self):
        """Each row's loss log1p(e^-|t|) + max(t, 0), t = -z m, lies within
        three ulps of np.logaddexp(0, t), infinities and zeros exactly, and
        raises no floating-point error, underflow included. logaddexp calls
        the C library's log1p and the formula numpy's log1p ufunc; each
        result is within about 1.5 ulps of log(1 + e^t), so the two can lie
        three apart: at t = -4.157154866106183 they do, and 26 million
        random margins found 4 such points and about 1 in 10,000 two apart."""
        special = [0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 710.0, -710.0, 750.0, -750.0]
        widest = [-4.157154866106183, 4.157154866106183]
        grid = np.linspace(-800.0, 800.0, 4001)
        margins = np.concatenate([special, widest, [np.inf, -np.inf], grid])
        one = np.ones(1)
        for z in (1.0, -1.0):
            with np.errstate(under="ignore"):
                want = np.logaddexp(0.0, -z * margins)
            with np.errstate(all="raise"):
                got = np.array(
                    [_logistic_value(z * one, one, 1, np.array([m])) for m in margins]
                )
            exact = np.isinf(want) | (want == 0.0)
            assert (got[exact] == want[exact]).all()
            ulps = np.abs(got[~exact] - want[~exact]) / np.spacing(want[~exact])
            assert ulps.max() <= 3.0, (z, margins[~exact][ulps.argmax()])


class TestGradients:
    @pytest.mark.parametrize("loss_grad", [_logistic_loss_grad, _squared_hinge_loss_grad])
    def test_finite_difference_20_instances(self, loss_grad):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(4, 10)), int(rng.integers(2, 5))
            X = sparse.csr_matrix(rng.normal(size=(n, d)))
            z = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            omega = rng.uniform(0.5, 2.0, n)
            w = rng.normal(size=d)
            b = float(rng.normal())
            _, gw, gb = loss_grad(X, z, omega, n, w, b)
            grads = list(gw) + [gb]
            for j in range(d + 1):
                def at(delta):
                    wj = w.copy()
                    bj = b
                    if j < d:
                        wj[j] += delta
                    else:
                        bj += delta
                    return loss_grad(X, z, omega, n, wj, bj)[0]

                numeric = (at(eps) - at(-eps)) / (2 * eps)
                denom = max(abs(numeric), abs(grads[j]), 1e-8)
                assert abs(numeric - grads[j]) / denom <= 1e-5

    def test_balanced_data_zero_initial_bias_gradient(self):
        X = sparse.csr_matrix(np.array([[1.0], [2.0], [3.0], [4.0]]))
        z = np.array([1.0, 1.0, -1.0, -1.0])
        omega = np.ones(4)
        _, _, gb = _logistic_loss_grad(X, z, omega, 4, np.zeros(1), 0.0)
        assert gb == pytest.approx(0.0, abs=1e-15)

    def test_balanced_weights_zero_initial_bias_gradient_imbalanced_counts(self):
        # omega_i = n/(K * n_class) makes the signed weight sum vanish
        z = np.array([1.0, -1.0, -1.0, -1.0])
        omega = np.array([4 / (2 * 1), 4 / (2 * 3), 4 / (2 * 3), 4 / (2 * 3)])
        X = sparse.csr_matrix(np.ones((4, 1)))
        _, _, gb = _logistic_loss_grad(X, z, omega, 4, np.zeros(1), 0.0)
        assert gb == pytest.approx(0.0, abs=1e-15)


class TestFitLogreg:
    def test_separable_l2_perfect(self):
        X, y = separable_set()
        model = fit_logreg(X, y, penalty="l2", C=1.0)
        assert (predict(model, X) == y).mean() == 1.0
        assert model.converged

    def test_l2_objective_monotone(self):
        X, y = noisy_set()
        model = fit_logreg(X, y, penalty="l2", C=1.0)
        for meta in model.train_meta:
            diffs = np.diff(meta.history)
            assert (diffs <= 1e-12).all()

    def test_l1_objective_monotone(self):
        X, y = noisy_set()
        model = fit_logreg(X, y, penalty="l1", C=1.0)
        for meta in model.train_meta:
            assert (np.diff(meta.history) <= 1e-12).all()

    def test_l1_small_problems_converge_at_tight_tol(self):
        """On 100 random small three-class problems (8-40 rows, 1-6 columns
        at scales 0.1, 1 and 10, C from 1e-2 to 1e2) every L1 class fit
        converges at tol = 1e-6. The backtracking test compares the new
        loss with its quadratic bound without slack, so it never accepts a
        step that raises J near the optimum and then stalls on it."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(8, 41)), int(rng.integers(1, 7))
            X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0], size=d)
            y = rng.integers(0, 3, size=n)
            y[:3] = np.arange(3)
            C = 10.0 ** rng.uniform(-2.0, 2.0)
            model = fit_logreg(X, y, penalty="l1", C=C, tol=1e-6, max_iter=100000)
            assert [m.converged for m in model.train_meta] == [True] * 3, (seed, n, d, C)

    def test_l1_sparsity_endpoints(self):
        X, y = noisy_set()
        nnz = {}
        for C in (1e-3, 1e3):
            model = fit_logreg(X, y, penalty="l1", C=C, tol=1e-6, max_iter=5000)
            nnz[C] = int((np.abs(model.weights) > 1e-6).sum())
        assert nnz[1e-3] <= nnz[1e3]

    @on_both_storages("C", [0.01, 0.1, 1.0, 10.0])
    def test_l1_converges_to_kkt_point_on_sparse_tfidf(self, C, storage):
        """Every class fit converges under the default max_iter and meets the
        L1 optimality conditions. A converged fit is one from which a prox
        step of length s in the metric d_j = (1/n) sum_i x_ij^2 (1 for the
        bias) moves no parameter by more than tol, which bounds a weight's
        residual by tol * d_j / s and the bias gradient by tol / s. Unit-norm
        rows keep every d_j at most 1, and the step length at that test stays
        at least 1 here (4 to 8 on this matrix), so each condition holds
        within tol."""
        X, y = tfidf_set()
        with stored_as(storage):
            model = fit_logreg(X, y, penalty="l1", C=C)
        n = X.shape[0]
        lam = 1.0 / (C * n)
        tol = 1e-4
        for k, meta in enumerate(model.train_meta):
            assert meta.converged, (C, k, meta.iterations)
            z = np.where(y == model.classes[k], 1.0, -1.0)
            w, b = model.weights[k], model.bias[k]
            coef = -z / (1.0 + np.exp(z * (X @ w + b))) / n
            grad = X.T @ coef
            zero = w == 0.0
            assert abs(coef.sum()) <= tol
            assert (np.abs(grad[zero]) <= lam + tol).all()
            assert (np.abs(grad[~zero] + lam * np.sign(w[~zero])) <= tol).all()

    @on_both_storages("C", [1.0, 10.0])
    def test_l1_accurate_on_mixed_column_scales(self, C, storage):
        """With TF-IDF and standardized columns side by side, the default-tol
        fit lands within 1e-7 of a tight reference objective for every class
        and keeps the same columns."""
        X, y = mixed_scale_set()
        with stored_as(storage):
            fit = fit_logreg(X, y, penalty="l1", C=C)
            ref = fit_logreg(X, y, penalty="l1", C=C, tol=1e-10, max_iter=100000)
        for k, cls in enumerate(fit.classes):
            z = np.where(y == cls, 1.0, -1.0)
            gap = objective_l1_logistic(
                X, z, C, fit.weights[k], fit.bias[k]
            ) - objective_l1_logistic(X, z, C, ref.weights[k], ref.bias[k])
            assert gap <= 1e-7, (C, cls, gap)
            kept = np.abs(fit.weights[k]) > COEF_KEEP_THRESHOLD
            kept_ref = np.abs(ref.weights[k]) > COEF_KEEP_THRESHOLD
            assert (kept == kept_ref).all(), (C, cls, np.nonzero(kept != kept_ref)[0])

    def test_l1_determinism_bit_identical(self):
        X, y = tfidf_set()
        a = fit_logreg(X, y, penalty="l1", C=1.0)
        b = fit_logreg(X, y, penalty="l1", C=1.0)
        assert (a.weights == b.weights).all()
        assert (a.bias == b.bias).all()
        assert [m.history for m in a.train_meta] == [m.history for m in b.train_meta]

    def test_determinism_bit_identical(self):
        X, y = noisy_set()
        a = fit_logreg(X, y, penalty="l2", C=2.0)
        b = fit_logreg(X, y, penalty="l2", C=2.0)
        assert (a.weights == b.weights).all()
        assert (a.bias == b.bias).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logreg(np.ones((3, 2)), [1, 1, 1])

    def test_nonpositive_c_rejected(self):
        X, y = separable_set()
        with pytest.raises(ValueError):
            fit_logreg(X, y, C=0.0)

    def test_unknown_penalty_rejected(self):
        X, y = separable_set()
        with pytest.raises(ValueError):
            fit_logreg(X, y, penalty="l3")

    def test_nonconvergence_flagged_not_raised(self):
        X, y = noisy_set()
        model = fit_logreg(X, y, penalty="l2", C=1.0, tol=1e-14, max_iter=2)
        assert not model.converged

    def test_three_class_ovr_shape(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = np.array([0] * 10 + [1] * 10 + [2] * 10)
        model = fit_logreg(X, y)
        assert model.weights.shape == (3, 4)
        assert model.classes == (0, 1, 2)

    def test_balanced_class_weight_shifts_minority_recall(self):
        rng = np.random.default_rng(9)
        # heavy overlap, 10% minority
        X = np.vstack([rng.normal(-0.3, 1.0, (90, 2)), rng.normal(0.3, 1.0, (10, 2))])
        y = np.array([0] * 90 + [1] * 10)
        uniform = fit_logreg(X, y, class_weight="uniform")
        balanced = fit_logreg(X, y, class_weight="balanced")
        rec_u = (predict(uniform, X)[y == 1] == 1).mean()
        rec_b = (predict(balanced, X)[y == 1] == 1).mean()
        assert rec_b >= rec_u

    def test_bruteforce_grid_equivalence(self):
        """Refined 4-d grid search over (w1, w2, w3, b) reaches the same
        optimum as the solver within 1e-4 objective on a 12-row instance."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(12, 3))
        y = np.array([0] * 6 + [1] * 6)
        C = 1.0
        model = fit_logreg(X, y, penalty="l2", C=C, tol=1e-10, max_iter=5000)
        solver_obj = objective_l2_logistic(X, y, C, model.weights[1], model.bias[1])

        center = np.zeros(4)
        half_width = 4.0
        best = np.inf
        for _ in range(6):
            axes = [np.linspace(c - half_width, c + half_width, 9) for c in center]
            grids = np.meshgrid(*axes, indexing="ij")
            points = np.stack([g.ravel() for g in grids], axis=1)
            z = np.where(y == 1, 1.0, -1.0)
            margins = X @ points[:, :3].T + points[:, 3]
            losses = np.logaddexp(0.0, -z[:, None] * margins).sum(axis=0) / 12
            objs = losses + (points[:, :3] ** 2).sum(axis=1) / (2 * C * 12)
            idx = int(np.argmin(objs))
            best = float(objs[idx])
            center = points[idx]
            half_width /= 4.0
        assert abs(best - solver_obj) <= 1e-4


class TestFitLinearSvm:
    def test_separable_perfect(self):
        X, y = separable_set(seed=1)
        model = fit_linear_svm(X, y, C=1.0)
        assert (predict(model, X) == y).mean() == 1.0

    def test_hinge_gradient_matches_finite_difference(self):
        # covered generically in TestGradients; spot-check a fitted margin
        X, y = separable_set(seed=2)
        model = fit_linear_svm(X, y, C=1.0)
        margins = predict_scores(model, X)
        assert margins.shape == (40, 2)

    def test_identical_rows_two_labels_no_crash(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        model = fit_linear_svm(X, y, C=1.0)
        assert np.isfinite(model.weights).all()
        assert isinstance(model.converged, bool)

    def test_training_accuracy_nondecreasing_in_c(self):
        # frozen regression: measured once on this draw and pinned
        X, y = noisy_set(seed=8)
        accs = []
        for C in (0.01, 1.0, 100.0):
            model = fit_linear_svm(X, y, C=C, tol=1e-6, max_iter=5000)
            accs.append(float((predict(model, X) == y).mean()))
        assert accs[0] <= accs[1] <= accs[2]
        assert accs == pytest.approx([0.7333333333333333, 0.7833333333333333, 0.7833333333333333])


def raw_scale_set(seed=0):
    """tfidf_set() beside 4 unstandardized count-like columns near 100 (as
    num_chars and the like are with standardization off) that lean on the
    label: column scales of about 100 against TF-IDF's 0.1."""
    X, y = tfidf_set()
    rng = np.random.default_rng(seed)
    dense = np.abs(100.0 + 15.0 * y[:, None] + 30.0 * rng.normal(size=(X.shape[0], 4)))
    return sparse.hstack([X, sparse.csr_matrix(dense)]).tocsr(), y


def l2_objective_grad(X, y, cls, loss, C, w, b, class_weight="uniform"):
    """The L2 objective J_k of one class and its gradient in (w, b), written
    out densely from the module docstring's definition."""
    X = X.toarray() if sparse.issparse(X) else np.asarray(X)
    n = X.shape[0]
    labels, counts = np.unique(y, return_counts=True)
    if class_weight == "balanced":
        omega = (n / (labels.shape[0] * counts))[np.searchsorted(labels, y)]
    else:
        omega = np.ones(n)
    z = np.where(y == cls, 1.0, -1.0)
    margins = X @ w + b
    if loss == "logistic":
        terms = np.logaddexp(0.0, -z * margins)
        with np.errstate(over="ignore"):
            slope = -z / (1.0 + np.exp(z * margins))
    else:
        gap = np.maximum(0.0, 1.0 - z * margins)
        terms = gap * gap
        slope = -2.0 * z * gap
    value = (omega * terms).sum() / n + (w @ w) / (2 * C * n)
    grad = np.append(X.T @ (omega * slope) / n + w / (C * n), (omega * slope).sum() / n)
    return value, grad


def fit_l2(loss, X, y, C, class_weight="uniform", **kwargs):
    if loss == "logistic":
        return fit_logreg(X, y, penalty="l2", C=C, class_weight=class_weight, **kwargs)
    return fit_linear_svm(X, y, C=C, class_weight=class_weight, **kwargs)


class TestTrustRegionNewton:
    @pytest.mark.parametrize(
        "value, slope_curvature",
        [
            (_logistic_value, _logistic_slope_curvature),
            (_squared_hinge_value, _squared_hinge_slope_curvature),
        ],
    )
    def test_slope_and_curvature_match_finite_differences(self, value, slope_curvature):
        """The Hessian-vector product is X^T (c * X v), so the per-row slope
        and curvature in the margin carry its correctness. The squared
        hinge's curvature is its generalized one, exact away from the kink,
        which these margins keep clear of by more than eps."""
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(20):
            n = int(rng.integers(4, 10))
            z = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            omega = rng.uniform(0.5, 2.0, n)
            margins = rng.normal(size=n) * 2.0
            margins[np.abs(1.0 - z * margins) < 1e-3] += 0.01
            slope, curvature = slope_curvature(z, omega, n, margins)
            for i in range(n):
                step = np.zeros(n)
                step[i] = eps
                hi = value(z, omega, n, margins + step)
                numeric = (hi - value(z, omega, n, margins - step)) / (2 * eps)
                assert abs(numeric - slope[i]) <= 1e-6 * max(abs(slope[i]), 1e-3)
                s_hi = slope_curvature(z, omega, n, margins + step)[0][i]
                s_lo = slope_curvature(z, omega, n, margins - step)[0][i]
                numeric = (s_hi - s_lo) / (2 * eps)
                assert abs(numeric - curvature[i]) <= 1e-6 * max(abs(curvature[i]), 1e-3)

    def test_cg_solves_inside_the_region(self):
        """With room to spare, CG stops once ||r|| <= 0.1 ||g||, and the r
        it returns is -g - H s."""
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + 0.5 * np.eye(6)
        g = rng.normal(size=6)
        s, r, boundary = _trust_region_cg(lambda v: H @ v, g, 1e6)
        assert not boundary
        np.testing.assert_allclose(r, -g - H @ s, atol=1e-10)
        assert np.linalg.norm(r) <= 0.1 * np.linalg.norm(g)

    def test_cg_stops_on_the_boundary(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        H = A @ A.T + 0.5 * np.eye(6)
        g = rng.normal(size=6) * 10.0
        delta = 0.01
        s, r, boundary = _trust_region_cg(lambda v: H @ v, g, delta)
        assert boundary
        assert np.linalg.norm(s) == pytest.approx(delta, rel=1e-12)
        np.testing.assert_allclose(r, -g - H @ s, atol=1e-10)
        assert g @ s < 0.0

    def test_cg_takes_at_most_one_step_per_variable(self):
        calls = []

        def hess_vec(v):
            calls.append(v)
            return v * np.array([1.0, 1e3, 1e6])

        _trust_region_cg(hess_vec, np.array([1.0, 1.0, 1.0]), 1e9)
        assert len(calls) <= 3

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        loss=st.sampled_from(["logistic", "hinge"]),
        class_weight=st.sampled_from(["uniform", "balanced"]),
        log_c=st.floats(-2.0, 2.0),
        storage=st.sampled_from(STORAGES),
    )
    def test_matches_reference_lbfgs_at_tight_tol(self, seed, loss, class_weight, log_c, storage):
        """On random small problems with column scales from 0.1 to 10, the
        tol = 1e-10 fit's objective matches the L-BFGS reference's within
        1e-9 relative. Where the reference stops unconverged (L-BFGS often
        stalls near a gradient of 1e-7 here), it only bounds the fit's
        objective from above. The recorded objective never increases, and
        converged says whether ||grad J||_inf <= tol at the returned point."""
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(8, 40)), int(rng.integers(1, 7)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0], size=d)
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)
        C = 10.0**log_c
        tol = 1e-10
        with stored_as(storage):
            fit = fit_l2(loss, X, y, C, class_weight, tol=tol)
        ref_w, ref_b, ref_meta = reference_fit_l2(X, y, loss, C, class_weight, tol, 200)
        for j, cls in enumerate(fit.classes):
            meta = fit.train_meta[j]
            value, grad = l2_objective_grad(
                X, y, cls, loss, C, fit.weights[j], fit.bias[j], class_weight
            )
            ref_value, _ = l2_objective_grad(X, y, cls, loss, C, ref_w[j], ref_b[j], class_weight)
            assert meta.converged == bool(np.abs(grad).max() <= tol)
            assert (np.diff(meta.history) <= 0.0).all()
            assert meta.history[-1] == meta.objective
            assert value <= ref_value * (1.0 + 1e-9)
            if ref_meta[j].converged:
                assert value >= ref_value * (1.0 - 1e-9)

    @on_both_storages(
        "C, loss", [(C, loss) for C in (0.01, 1.0, 100.0) for loss in ("logistic", "hinge")]
    )
    def test_ill_conditioned_columns_converge(self, C, loss, storage):
        """Unstandardized columns near 100 beside TF-IDF columns near 0.1:
        every class converges under the default max_iter, to a point whose
        gradient meets tol."""
        X, y = raw_scale_set()
        with stored_as(storage):
            fit = fit_l2(loss, X, y, C)
        for j, cls in enumerate(fit.classes):
            meta = fit.train_meta[j]
            assert meta.converged and meta.iterations < DEFAULT_MAX_ITER, (j, meta.iterations)
            _, grad = l2_objective_grad(X, y, cls, loss, C, fit.weights[j], fit.bias[j])
            assert np.abs(grad).max() <= 1e-4

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_unreachable_tol_ends_unconverged_before_max_iter(self, loss):
        """A tolerance below what the objective's precision can resolve ends
        the fit when the actual and predicted reductions both vanish, not
        at max_iter, and it reports the fit unconverged."""
        X, y = noisy_set()
        fit = fit_l2(loss, X, y, 1.0, tol=1e-300)
        for meta in fit.train_meta:
            assert not meta.converged
            assert meta.iterations < 100
            assert (np.diff(meta.history) < 0.0).all()


def storage_of_fit(X, y, monkeypatch):
    """The storage of X that a fit's solver received."""
    seen = []
    tron = linmodel._tron_l2

    def spy(loss, Xc, *args):
        seen.append("csr" if sparse.issparse(Xc) else type(Xc).__name__)
        return tron(loss, Xc, *args)

    monkeypatch.setattr(linmodel, "_tron_l2", spy)
    fit_logreg(X, y)
    return seen[0]


NO_SCIPY_FIT_SCRIPT = """
import sys
import numpy as np
from hatetriage import linmodel
rng = np.random.default_rng(0)
X = rng.normal(size=(40, 5))
X[rng.random(X.shape) < 0.5] = 0.0
y = np.arange(40) % 3
assert linmodel._dense_storage(linmodel.as_csr(X))
for penalty in ("l1", "l2"):
    assert linmodel.fit_logreg(X, y, penalty=penalty).converged
counts = rng.poisson(0.2, size=(40, 30)).astype(float)
assert not linmodel._dense_storage(linmodel.as_csr(counts))
assert linmodel.fit_multinomial_nb(counts, y, alpha=0.5).converged
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestStorage:
    @pytest.mark.parametrize("nnz, storage", [(9, "csr"), (10, "ndarray"), (11, "ndarray")])
    def test_rule_boundary(self, monkeypatch, nnz, storage):
        """A 6 x 5 matrix is held dense from 3 nnz >= 30, that is 10 stored
        entries, and as scipy CSR below."""
        X = np.zeros((6, 5))
        X.flat[np.linspace(0, 29, nnz).astype(int)] = np.arange(1.0, nnz + 1.0)
        y = np.array([0, 1, 0, 1, 0, 1])
        assert linmodel.as_csr(X).nnz == nnz
        assert storage_of_fit(X, y, monkeypatch) == storage

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        problem=st.sampled_from([("logistic", "l1"), ("logistic", "l2"), ("hinge", "l2")]),
        log_c=st.floats(-2.0, 2.0),
        density=st.floats(0.1, 1.0),
    )
    def test_dense_and_csr_fits_agree(self, seed, problem, log_c, density):
        """The same problem fitted on either storage reaches objectives within
        1e-9 relative per class at tol = 1e-10, and the same converged at
        tol = 1e-6. Only the order of the products' sums differs between
        the two. At tol = 1e-10 converged itself is decided by rounding: a
        gradient that lands just above it leaves a Newton step whose
        reductions vanish at the precision of J, and FISTA mostly stalls
        there before its step test, so either storage may end on either
        side."""
        loss, penalty = problem
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(8, 40)), int(rng.integers(1, 7)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0], size=d)
        X[rng.random((n, d)) >= density] = 0.0
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)
        C = 10.0**log_c

        def fit(storage, tol):
            with stored_as(storage):
                if loss == "logistic":
                    return fit_logreg(X, y, penalty=penalty, C=C, tol=tol, max_iter=100000)
                return fit_linear_svm(X, y, C=C, tol=tol, max_iter=100000)

        tight = [fit(storage, 1e-10).train_meta for storage in STORAGES]
        for a, b in zip(*tight):
            assert abs(a.objective - b.objective) <= 1e-9 * abs(a.objective)
        loose = [fit(storage, 1e-6).train_meta for storage in STORAGES]
        assert [m.converged for m in loose[0]] == [m.converged for m in loose[1]]

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_dense_fits_are_bit_identical(self, penalty):
        """Two fits of a dense-eligible problem give the same weights bit for
        bit, also from a copy of X that sits elsewhere in memory."""
        X, y = noisy_set()
        X[np.random.default_rng(1).random(X.shape) < 0.4] = 0.0
        assert linmodel._dense_storage(linmodel.as_csr(X))
        copy = np.empty(X.size + 1)[1:].reshape(X.shape)
        copy[...] = X
        fits = [fit_logreg(M, y, penalty=penalty, C=2.0) for M in (X, X, copy)]
        for other in fits[1:]:
            assert (other.weights == fits[0].weights).all()
            assert (other.bias == fits[0].bias).all()
            assert [m.history for m in other.train_meta] == [
                m.history for m in fits[0].train_meta
            ]

    def test_dense_fit_imports_no_scipy(self):
        """A fit held dense runs on numpy alone, and so does a naive Bayes
        fit of a sparse count matrix, so scipy stays unimported."""
        package_root = pathlib.Path(linmodel.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_FIT_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestFitMultinomialNb:
    def test_log_ratio_ln2(self):
        # equal per-class totals so the smoothing denominators cancel
        X = np.array([[3.0, 3.0], [1.0, 5.0]])
        y = [0, 1]
        model = fit_multinomial_nb(X, y, alpha=1.0)
        ratio = model.weights[0, 0] - model.weights[1, 0]
        assert ratio == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bias_is_log_prior(self):
        X = np.abs(np.random.default_rng(0).random((4, 3)))
        y = [0, 0, 0, 1]
        model = fit_multinomial_nb(X, y, alpha=1.0)
        assert model.bias[0] == pytest.approx(np.log(0.75))
        assert model.bias[1] == pytest.approx(np.log(0.25))

    def test_alpha_shrinks_weight_spread(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 6, (40, 8)).astype(float)
        y = np.array([0] * 20 + [1] * 20)
        spreads = []
        for alpha in (1.0, 10.0, 100.0):
            model = fit_multinomial_nb(X, y, alpha=alpha)
            spreads.append(float(np.abs(model.weights[0] - model.weights[1]).max()))
        assert spreads[0] >= spreads[1] >= spreads[2]

    def test_negative_features_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_multinomial_nb(np.array([[1.0, -0.1], [1.0, 2.0]]), [0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_multinomial_nb(np.ones((2, 2)), [1, 1])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            fit_multinomial_nb(np.ones((2, 2)), [0, 1], alpha=-1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.booleans(),
        density=st.floats(0.02, 1.0),
        alpha=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
    )
    def test_bit_equal_to_scipy_row_sums(self, seed, counts, density, alpha):
        """Weights and bias equal those of the scipy.sparse per-class row
        sums bit for bit, on integer counts and on non-negative floats."""
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(4, 60)), int(rng.integers(1, 40)), int(rng.integers(2, 4))
        if counts:
            X = rng.poisson(3.0, size=(n, d)).astype(float)
        else:
            X = rng.exponential(rng.choice([1e-3, 1.0, 1e3]), size=(n, d))
        X[rng.random((n, d)) >= density] = 0.0
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)
        got = fit_multinomial_nb(X, y, alpha=alpha)
        want = reference_fit_multinomial_nb(X, y, alpha=alpha)
        assert got.classes == want.classes
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)


def hand_model(**kwargs):
    defaults = dict(
        weights=np.array([[1.0, 0.0], [0.0, 0.0]]),
        bias=np.zeros(2),
        classes=(0, 1),
        loss="logistic",
        penalty="l2",
        C=1.0,
    )
    defaults.update(kwargs)
    return LinearModel(**defaults)


class TestPredict:
    def test_zero_model_scores_half(self):
        model = hand_model(weights=np.zeros((2, 2)))
        scores = predict_scores(model, np.array([[5.0, -3.0]]))
        assert scores.tolist() == [[0.5, 0.5]]

    def test_sigmoid_of_two(self):
        scores = predict_scores(hand_model(), np.array([[2.0, 0.0]]))
        assert scores[0, 0] == pytest.approx(0.880797, abs=1e-6)

    def test_tie_goes_to_smallest_code(self):
        model = hand_model(weights=np.zeros((3, 2)), bias=np.zeros(3), classes=(0, 1, 2))
        assert predict(model, np.array([[1.0, 1.0]]))[0] == 0

    def test_argmax_row(self):
        model = hand_model(
            weights=np.zeros((3, 1)),
            bias=np.array([0.1, 0.9, 0.2]),
            classes=(0, 1, 2),
            loss="hinge",
        )
        assert predict(model, np.array([[0.0]]))[0] == 1

    def test_zero_column_appended_no_change(self):
        X, y = separable_set(seed=3)
        model = fit_logreg(X, y)
        extended = hand_model(
            weights=np.hstack([model.weights, np.zeros((2, 1))]),
            bias=model.bias,
            classes=model.classes,
        )
        X_ext = np.hstack([X, np.zeros((40, 1))])
        assert (predict(extended, X_ext) == predict(model, X)).all()

    def test_dimension_mismatch_rejected(self):
        model = hand_model()
        with pytest.raises(ValueError):
            predict_scores(model, np.zeros((1, 5)))

    def test_nb_scores_are_log_posteriors(self):
        X = np.array([[3.0, 1.0], [1.0, 3.0]])
        y = [0, 1]
        model = fit_multinomial_nb(X, y, alpha=1.0)
        scores = predict_scores(model, X)
        assert (scores <= 0).all()
        assert (predict(model, X) == y).all()


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(["logistic", "hinge", "nb"]),
    )
    def test_label_is_the_margin_argmax(self, margins, loss):
        """Margins this large saturate logistic scores at exactly 0 or 1,
        where distinct margins tie; the label still follows the margins."""
        model = hand_model(
            weights=np.eye(3), bias=np.zeros(3), classes=(0, 1, 2), loss=loss
        )
        X = np.array(margins)
        labels, scores = predict(model, X, return_scores=True)
        assert labels.tolist() == np.argmax(X, axis=1).tolist()
        assert (predict(model, X) == labels).all()
        assert scores.tobytes() == predict_scores(model, X).tobytes()

    def test_saturated_scores_do_not_pick_the_label(self):
        model = hand_model(weights=np.eye(3), bias=np.zeros(3), classes=(0, 1, 2))
        X = np.array([[40.0, 50.0, 60.0], [-900.0, -750.0, -800.0]])
        assert predict_scores(model, X).tolist() == [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        assert predict(model, X).tolist() == [2, 1]


class TestLinearModelType:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hand_model(weights=np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hand_model(classes=(0, 1, 2))
