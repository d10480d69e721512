"""Reference solvers and loss gradients for the tests.

The L2 solver is limited-memory BFGS with Armijo backtracking, as the
package fitted the L2 logistic and squared-hinge problems before its
trust-region Newton solver. Tests compare the trust-region objective
against this one at a tight tolerance, where both must reach the same
minimum of the same strictly convex objective.

The loss-and-gradient functions in (w, b) are thin compositions of the
package's own per-margin terms, so gradient checks on them check the math
the solvers run. The naive Bayes fit is the package's earlier one, which
summed each class's rows with scipy.sparse.
"""

import numpy as np
from scipy import sparse

from hatetriage.linmodel import (
    LinearModel,
    TrainMeta,
    _as_labels,
    _check_fit_inputs,
    _logistic_gradient,
    _logistic_value,
    _sample_weights,
    _squared_hinge_slope_curvature,
    _squared_hinge_value,
)
from hatetriage.vectorize import as_csr


def _logistic_loss_grad(Xc, z, omega, n, w, b, Xt=None):
    """Mean logistic loss and its gradient in (w, b) at (w, b)."""
    margins = Xc.dot(w) + b
    Xt = Xc.T if Xt is None else Xt
    return (_logistic_value(z, omega, n, margins), *_logistic_gradient(z, omega, n, margins, Xt))


def _squared_hinge_loss_grad(Xc, z, omega, n, w, b, Xt=None):
    """Mean squared hinge loss and its gradient in (w, b) at (w, b)."""
    margins = Xc.dot(w) + b
    coef, _ = _squared_hinge_slope_curvature(z, omega, n, margins)
    Xt = Xc.T if Xt is None else Xt
    return _squared_hinge_value(z, omega, n, margins), Xt.dot(coef), float(coef.sum())

LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_LINE_STEPS = 60


def reference_lbfgs_l2(loss_grad, Xc, Xt, z, omega, reg, tol, max_iter):
    """Limited-memory BFGS with Armijo backtracking on the L2 objective.

    theta stacks (w, b); the penalty reg/2 * ||w||^2 leaves b alone.
    """
    n_features = Xc.shape[1]
    n = Xc.shape[0]
    theta = np.zeros(n_features + 1)

    def objective(th):
        loss, gw, gb = loss_grad(Xc, z, omega, n, th[:-1], th[-1], Xt)
        value = loss + 0.5 * reg * float(th[:-1] @ th[:-1])
        grad = np.concatenate([gw + reg * th[:-1], [gb]])
        return value, grad

    f, g = objective(theta)
    history = [f]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    iterations = 0
    converged = bool(np.abs(g).max() <= tol)
    while not converged and iterations < max_iter:
        iterations += 1
        # two-loop recursion for the search direction
        q = g.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * yv
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            beta = rho * (yv @ q)
            q += (a - beta) * s
        direction = -q
        descent = float(direction @ g)
        if descent >= 0.0:
            direction = -g
            descent = float(direction @ g)

        step = 1.0 if y_hist else min(1.0, 1.0 / max(np.abs(g).max(), 1e-12))
        accepted = False
        for _ in range(MAX_LINE_STEPS):
            candidate = theta + step * direction
            f_new, g_new = objective(candidate)
            if f_new <= f + ARMIJO_C1 * step * descent:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            break  # line search stalled at numerical precision
        s_vec = candidate - theta
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, f, g = candidate, f_new, g_new
        history.append(f)
        converged = bool(np.abs(g).max() <= tol)
    return theta[:-1], float(theta[-1]), TrainMeta(iterations, f, converged, tuple(history))


def reference_fit_l2(X, y, loss, C, class_weight, tol, max_iter):
    """One-vs-rest fit of the L2 logistic ("logistic") or squared-hinge
    ("hinge") problem with the reference solver: (weights, bias, metas) per
    class in sorted class order, with the package's objective scaling."""
    labels = _as_labels(y)
    Xc = sparse.csr_matrix(X)
    classes = _check_fit_inputs(Xc, labels)
    omega = _sample_weights(labels, classes, class_weight)
    n = Xc.shape[0]
    reg = 1.0 / (C * n)
    Xt = Xc.T.tocsr()
    loss_grad = {"logistic": _logistic_loss_grad, "hinge": _squared_hinge_loss_grad}[loss]
    weights, bias, metas = [], [], []
    for cls in classes:
        z = np.where(labels == cls, 1.0, -1.0)
        w, b, meta = reference_lbfgs_l2(loss_grad, Xc, Xt, z, omega, reg, tol, max_iter)
        weights.append(w)
        bias.append(b)
        metas.append(meta)
    return np.array(weights), np.array(bias), metas


def reference_fit_multinomial_nb(X, y, alpha: float = 1.0) -> LinearModel:
    """Multinomial naive Bayes with each class's counts summed by
    scipy.sparse over that class's rows."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    X = as_csr(X)
    labels = _as_labels(y)
    classes = _check_fit_inputs(X, labels)
    if X.nnz and X.data.min() < 0:
        raise ValueError("multinomial NB requires non-negative features")
    Xc = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
    n, d = Xc.shape
    weights = np.zeros((classes.shape[0], d))
    bias = np.zeros(classes.shape[0])
    for k, cls in enumerate(classes):
        rows = labels == cls
        counts = np.asarray(Xc[np.nonzero(rows)[0]].sum(axis=0)).ravel()
        smoothed = counts + alpha
        total = counts.sum() + alpha * d
        if total <= 0 or (smoothed <= 0).any():
            raise ValueError(
                "log of zero probability; use alpha > 0 when classes have unseen features"
            )
        weights[k] = np.log(smoothed / total)
        bias[k] = np.log(rows.sum() / n)
    return LinearModel(
        weights=weights,
        bias=bias,
        classes=tuple(int(c) for c in classes),
        loss="nb",
        penalty="none",
        C=alpha,
        train_meta=(TrainMeta(iterations=1, objective=0.0, converged=True),) * classes.shape[0],
    )
