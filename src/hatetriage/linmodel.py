"""From-scratch one-vs-rest linear classifiers.

Per class k the solvers minimize the mean regularized objective

    J_k(w, b) = (1/n) sum_i omega_i * loss(z_i, x_i.w + b) + R(w)

with z in {-1, +1} for the one-vs-rest split, R(w) = ||w||_1 / (C n) for the
L1 penalty or ||w||_2^2 / (2 C n) for L2, and the bias unpenalized. Balanced
sample weights are omega_i = n / (K * n_class(i)). This scaling gives C its
conventional meaning: multiplying through by C n recovers the usual
"penalty + C * summed loss" form.

Solvers: L2 problems (logistic loss, squared hinge) run limited-memory BFGS
with Armijo backtracking, stopping at ||grad J||_inf <= tol. L1 logistic
runs monotone FISTA (Beck & Teboulle 2009): accelerated proximal gradient
with soft-threshold steps on w, plain steps on b, and a backtracking step
length that grows back after every step. Steps are taken in a fixed
diagonal metric, d_j = (1/n) sum_i omega_i x_ij^2 per column (1 for an
all-zero column and for the bias), computed once per fit and shared by the
classes, so TF-IDF columns and standardized scalar columns, whose scales
differ by about three orders of magnitude, each get a step fitted to them.
A step that would raise J is dropped and restarts the momentum
(function-value restart, O'Donoghue & Candes 2015), so the recorded
objective never increases. The fit converges when one backtracking
prox-gradient step in that metric from the returned iterate itself, without
momentum, moves no parameter by more than tol. Each fit builds X transposed
in CSR form once and every class's gradients use it. Both solvers are
deterministic from a zero start; nothing is randomized.

scipy is imported only inside the fit functions (_fit_ovr and
fit_multinomial_nb), which wrap the arrays of the package's numpy CSR
matrix in scipy.sparse without copying and run their products there.
Margins and scores need no scipy: decision_margins is a bincount per
class, and the logistic is numpy's, so loading a model and predicting
never import it.

A model is saved only inside the pipeline artifact: model_payload gives
the JSON object it embeds (classes, loss, penalty, C, weights, bias and
per-class training metadata), and model_from_payload reads it back with
predictions bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import ArtifactFormatError
from .vectorize import CSRMatrix, as_csr

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 1000

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_LINE_STEPS = 60


@dataclass(frozen=True)
class TrainMeta:
    iterations: int
    objective: float
    converged: bool
    # objective value at the start plus after each accepted step; kept for
    # diagnostics and invariant checks, not serialized
    history: tuple[float, ...] = ()


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (K, D)
    bias: np.ndarray  # (K,)
    classes: tuple[int, ...]
    loss: str  # logistic | hinge | nb
    penalty: str  # l1 | l2 | none
    C: float
    train_meta: tuple[TrainMeta, ...] = ()

    def __post_init__(self):
        if self.weights.shape[0] != len(self.classes) or self.bias.shape[0] != len(self.classes):
            raise ValueError("weights/bias rows must match the class count")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.train_meta) if self.train_meta else True


def _as_labels(y) -> np.ndarray:
    arr = np.asarray([int(v) for v in y], dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("y must be one-dimensional")
    return arr


def _sample_weights(y: np.ndarray, classes: np.ndarray, class_weight: str) -> np.ndarray:
    if class_weight == "uniform":
        return np.ones(y.shape[0])
    if class_weight != "balanced":
        raise ValueError(f"unknown class_weight {class_weight!r}")
    n = y.shape[0]
    k = classes.shape[0]
    counts = {c: int((y == c).sum()) for c in classes}
    return np.array([n / (k * counts[int(v)]) for v in y])


def _check_fit_inputs(X: CSRMatrix, y: np.ndarray) -> np.ndarray:
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("X must be non-empty")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise ValueError("training requires at least two classes in y")
    return classes


def logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) elementwise, the algebra of scipy.special.expit
    with numpy's exp. Below z of about -709, exp(-z) overflows to inf and
    the result is exactly 0, so that overflow is not reported; above about
    37, exp(-z) vanishes next to 1 and the result is exactly 1."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logistic_value(z, omega, n, margins):
    return float((omega * np.logaddexp(0.0, -z * margins)).sum() / n)


def _logistic_terms(Xc, z, omega, n, margins, Xt=None):
    """Logistic loss and its gradient in (w, b), given margins = X w + b.

    Xt is X transposed in CSR form; a fit builds it once and passes it to
    every gradient, since X.T would build a new CSC object per call.
    """
    coef = (omega * (-z) * logistic(-z * margins)) / n
    Xt = Xc.T if Xt is None else Xt
    return _logistic_value(z, omega, n, margins), Xt.dot(coef), float(coef.sum())


def _logistic_loss_grad(Xc, z, omega, n, w, b, Xt=None):
    return _logistic_terms(Xc, z, omega, n, Xc.dot(w) + b, Xt)


def _squared_hinge_loss_grad(Xc, z, omega, n, w, b, Xt=None):
    margins = Xc.dot(w) + b
    gap = np.maximum(0.0, 1.0 - z * margins)
    value = float((omega * gap * gap).sum() / n)
    coef = (omega * 2.0 * gap * (-z)) / n
    Xt = Xc.T if Xt is None else Xt
    return value, Xt.dot(coef), float(coef.sum())


def _lbfgs_l2(loss_grad, Xc, Xt, z, omega, reg, tol, max_iter):
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
        for _ in range(_MAX_LINE_STEPS):
            candidate = theta + step * direction
            f_new, g_new = objective(candidate)
            if f_new <= f + _ARMIJO_C1 * step * descent:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            break  # line search stalled at numerical precision
        s_vec = candidate - theta
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, f, g = candidate, f_new, g_new
        history.append(f)
        converged = bool(np.abs(g).max() <= tol)
    return theta[:-1], float(theta[-1]), TrainMeta(iterations, f, converged, tuple(history))


def _soft_threshold(v: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def _l1_metric(Xt, omega, n):
    """Per-column curvature scale d_j = (1/n) sum_i omega_i x_ij^2; an
    all-zero column gets 1."""
    d = Xt.multiply(Xt).dot(omega) / n
    d[d == 0.0] = 1.0
    return d


def _prox_l1(Xc, Xt, z, omega, lam, d, tol, max_iter):
    """Monotone FISTA with function-value restart for L1 logistic regression.

    Steps are taken in the fixed diagonal metric d from _l1_metric (the bias
    keeps metric 1): w+ = soft_threshold(v - s g / d, s lam / d), and the
    backtracking bound's quadratic term is (sum_j d_j dw_j^2 + db^2) / (2 s).
    TF-IDF columns have mean squares near 1e-3 and standardized scalar
    columns near 1, so one step length s would barely move the n-gram
    weights; per column, s / d_j matches the step to the column's scale.

    Each iteration takes one backtracking prox-gradient step, from the
    extrapolated point when momentum is on and from the iterate otherwise.
    A step that would raise the objective is dropped and the momentum
    restarts. A step from the iterate that moves no parameter by more than
    tol ends the solve; a momentum step that small makes the next step that
    test, and a failed test is dropped without touching the momentum. The
    test step is taken in the metric, so on a column with d_j < 1 it bounds
    the optimality residual by tol * d_j / s rather than tol / s.
    """
    n = Xc.shape[0]
    w = np.zeros(Xc.shape[1])
    b = 0.0
    margins = np.zeros(n)  # X w + b at the iterate
    objective = _logistic_value(z, omega, n, margins)
    history = [objective]
    yw, yb, ymargins = w, b, margins  # extrapolated point
    theta = 1.0
    momentum = 0.0
    check = False  # the next step is the convergence test from the iterate
    step = 1.0
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        from_iterate = check or momentum == 0.0
        vw, vb, vmargins = (w, b, margins) if from_iterate else (yw, yb, ymargins)
        loss_v, gw, gb = _logistic_terms(Xc, z, omega, n, vmargins, Xt)
        accepted = False
        for _ in range(_MAX_LINE_STEPS):
            scaled = step / d
            w_new = _soft_threshold(vw - scaled * gw, scaled * lam)
            b_new = vb - step * gb
            dw = w_new - vw
            db = b_new - vb
            margins_new = Xc.dot(w_new) + b_new
            loss_new = _logistic_value(z, omega, n, margins_new)
            quad = (
                loss_v
                + float(gw @ dw)
                + gb * db
                + (float(d @ (dw * dw)) + db * db) / (2.0 * step)
            )
            if loss_new <= quad + 1e-12:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            break
        max_move = max(float(np.abs(dw).max(initial=0.0)), abs(db))
        if from_iterate and max_move <= tol:
            converged = True
            break
        step = min(step / _BACKTRACK, 1e6)  # let the step length recover
        if check:
            check = False
            continue
        objective_new = loss_new + lam * float(np.abs(w_new).sum())
        if objective_new > objective:
            if momentum == 0.0:
                break  # no descent from the iterate itself: stalled at precision
            theta, momentum = 1.0, 0.0
            continue
        check = max_move <= tol
        theta_next = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        momentum = (theta - 1.0) / theta_next
        theta = theta_next
        yw = w_new + momentum * (w_new - w)
        yb = b_new + momentum * (b_new - b)
        # margins are affine in (w, b): no product with X for the extrapolated point
        ymargins = margins_new + momentum * (margins_new - margins)
        w, b, margins, objective = w_new, b_new, margins_new, objective_new
        history.append(objective)
    return w, b, TrainMeta(iterations, objective, converged, tuple(history))


def _fit_ovr(
    X,
    y,
    loss: str,
    penalty: str,
    C: float,
    class_weight: str,
    tol: float,
    max_iter: int,
) -> LinearModel:
    from scipy import sparse

    if C <= 0:
        raise ValueError("C must be positive")
    X = as_csr(X)
    labels = _as_labels(y)
    classes = _check_fit_inputs(X, labels)
    Xc = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
    omega = _sample_weights(labels, classes, class_weight)
    n = Xc.shape[0]
    reg = 1.0 / (C * n)
    Xt = Xc.T.tocsr()
    d = _l1_metric(Xt, omega, n) if loss == "logistic" and penalty == "l1" else None

    weights = np.zeros((classes.shape[0], Xc.shape[1]))
    bias = np.zeros(classes.shape[0])
    meta = []
    for k, cls in enumerate(classes):
        z = np.where(labels == cls, 1.0, -1.0)
        if loss == "logistic" and penalty == "l1":
            w, b, info = _prox_l1(Xc, Xt, z, omega, reg, d, tol, max_iter)
        elif loss == "logistic":
            w, b, info = _lbfgs_l2(_logistic_loss_grad, Xc, Xt, z, omega, reg, tol, max_iter)
        elif loss == "hinge":
            w, b, info = _lbfgs_l2(
                _squared_hinge_loss_grad, Xc, Xt, z, omega, reg, tol, max_iter
            )
        else:
            raise ValueError(f"unknown loss {loss!r}")
        weights[k] = w
        bias[k] = b
        meta.append(info)
    return LinearModel(
        weights=weights,
        bias=bias,
        classes=tuple(int(c) for c in classes),
        loss=loss,
        penalty=penalty,
        C=C,
        train_meta=tuple(meta),
    )


def fit_logreg(
    X,
    y,
    penalty: str = "l2",
    C: float = 1.0,
    class_weight: str = "uniform",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LinearModel:
    if penalty not in ("l1", "l2"):
        raise ValueError(f"unknown penalty {penalty!r}")
    return _fit_ovr(X, y, "logistic", penalty, C, class_weight, tol, max_iter)


def fit_linear_svm(
    X,
    y,
    C: float = 1.0,
    class_weight: str = "uniform",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LinearModel:
    return _fit_ovr(X, y, "hinge", "l2", C, class_weight, tol, max_iter)


def fit_multinomial_nb(X, y, alpha: float = 1.0) -> LinearModel:
    """weights = log smoothed class-conditional probabilities, bias = log
    priors; scores are then unnormalized log-posteriors."""
    from scipy import sparse

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


def decision_margins(model: LinearModel, X) -> np.ndarray:
    """Per-class margins X w_k + b_k, in numpy alone. Each row's products
    are added in column order starting from zero, as scipy.sparse multiplies
    a CSR matrix by a dense one, so the margins equal that product's bitwise."""
    Xc = as_csr(X)
    if Xc.shape[1] != model.n_features:
        raise ValueError(
            f"feature count {Xc.shape[1]} does not match the model ({model.n_features})"
        )
    rows = Xc.row_ids()
    margins = np.empty((Xc.shape[0], len(model.classes)))
    for k, weights in enumerate(model.weights):
        margins[:, k] = np.bincount(rows, Xc.data * weights[Xc.indices], minlength=Xc.shape[0])
    return margins + model.bias


def predict_scores(model: LinearModel, X) -> np.ndarray:
    """Per-class scores: sigmoid margins (logistic), raw margins (hinge), or
    log-posteriors (nb). No cross-class normalization."""
    margins = decision_margins(model, X)
    if model.loss == "logistic":
        return logistic(margins)
    return margins


def labels_from_scores(model: LinearModel, scores: np.ndarray) -> np.ndarray:
    """Row-wise argmax over predict_scores output; ties go to the smallest
    class code."""
    return np.asarray(model.classes)[np.argmax(scores, axis=1)]


def predict(model: LinearModel, X) -> np.ndarray:
    """Row-wise argmax over scores; ties go to the smallest class code."""
    return labels_from_scores(model, predict_scores(model, X))


def model_payload(model: LinearModel) -> dict:
    """The JSON object the pipeline artifact embeds. The selected_columns and
    standardizer keys are always null: the pipeline's feature state holds
    both, and they stay in the payload so saved artifacts keep their bytes."""
    return {
        "classes": list(model.classes),
        "loss": model.loss,
        "penalty": model.penalty,
        "C": model.C,
        "weights": [[float(v) for v in row] for row in model.weights],
        "bias": [float(v) for v in model.bias],
        "selected_columns": None,
        "standardizer": None,
        "train_meta": [
            {"iterations": m.iterations, "objective": m.objective, "converged": m.converged}
            for m in model.train_meta
        ],
    }


def model_from_payload(payload: dict) -> LinearModel:
    try:
        return LinearModel(
            weights=np.array(payload["weights"], dtype=np.float64).reshape(
                len(payload["classes"]), -1
            ),
            bias=np.array(payload["bias"], dtype=np.float64),
            classes=tuple(int(c) for c in payload["classes"]),
            loss=payload["loss"],
            penalty=payload["penalty"],
            C=float(payload["C"]),
            train_meta=tuple(
                TrainMeta(int(m["iterations"]), float(m["objective"]), bool(m["converged"]))
                for m in payload["train_meta"]
            ),
        )
    except (KeyError, TypeError) as err:
        raise ArtifactFormatError(f"model payload missing field: {err}") from None
