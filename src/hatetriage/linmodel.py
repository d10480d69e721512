"""From-scratch one-vs-rest linear classifiers.

Per class k the solvers minimize the mean regularized objective

    J_k(w, b) = (1/n) sum_i omega_i * loss(z_i, x_i.w + b) + R(w)

with z in {-1, +1} for the one-vs-rest split, R(w) = ||w||_1 / (C n) for the
L1 penalty or ||w||_2^2 / (2 C n) for L2, and the bias unpenalized. Balanced
sample weights are omega_i = n / (K * n_class(i)). This scaling gives C its
conventional meaning: multiplying through by C n recovers the usual
"penalty + C * summed loss" form.

Solvers: L2 problems (logistic loss, squared hinge) run the trust-region
Newton method of LIBLINEAR (Lin, Weng & Keerthi 2008), with its constants:
each iteration is one Newton step, solved approximately by conjugate
gradient inside the trust region with exact Hessian-vector products (the
squared hinge's generalized Hessian), and accepted only if it lowers J by
enough of the reduction the quadratic model predicts; a fit's iterations
count its Newton steps, rejected ones included. The fit converges at
||grad J||_inf <= tol, and ends unconverged if the actual and predicted
reductions both vanish at the precision of J first. L1 logistic
runs monotone FISTA (Beck & Teboulle 2009): accelerated proximal gradient
with soft-threshold steps on w, plain steps on b, and a backtracking step
length that doubles only after a step whose first trial passed; a step
that had to backtrack keeps its shorter length. Steps are taken in a fixed
diagonal metric, d_j = (1/n) sum_i omega_i x_ij^2 per column (1 for an
all-zero column and for the bias), computed once per fit and shared by the
classes, so TF-IDF columns and standardized scalar columns, whose scales
differ by about three orders of magnitude, each get a step fitted to them.
A step that would raise J is dropped and restarts the momentum
(function-value restart, O'Donoghue & Candes 2015), so the recorded
objective never increases. The fit converges when one backtracking
prox-gradient step in that metric from the returned iterate itself, without
momentum, moves no parameter by more than tol. Both solvers are
deterministic from a zero start; nothing is randomized.

Storage: a fit holds X in one of two forms, chosen once per fit by one
fixed rule (_dense_storage) and shared by every class. When X is at least a
third full (3 nnz >= n D), it is a dense array and X transposed is a view
of it, so products are BLAS calls and nothing is copied; below that, the
fit wraps the arrays of the package's numpy CSR matrix in scipy.sparse
without copying and builds X transposed in CSR form once. The solvers only
call .dot, so they run unchanged on either form; the L1 metric is read from
the stored entries. The two forms add the products' terms in different
orders, so their weights agree to rounding, not bit for bit.

scipy is imported only on the sparse path of _fit_ovr. Naive Bayes sums
each class's rows with one bincount over the stored entries, margins and
scores are a bincount per class, and the logistic is numpy's, so a naive
Bayes fit, loading a model and predicting never import it.

A model is saved only inside the pipeline artifact: model_payload gives
the JSON object it embeds (classes, loss, penalty, C, weights, bias and
per-class training metadata, and nothing else: the columns the model reads
and their standardization are the pipeline's), and model_from_payload reads
it back with predictions bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import ArtifactFormatError
from .vectorize import CSRMatrix, as_csr

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 1000

# FISTA's backtracking
_BACKTRACK = 0.5
_MAX_LINE_STEPS = 60

# trust-region Newton, with LIBLINEAR's constants: a step is accepted when
# the actual reduction exceeds _ETA0 times the predicted one, and the ratio's
# bands at _ETA0/_ETA1/_ETA2 pick the radius update from the _SIGMA factors
_ETA0, _ETA1, _ETA2 = 1e-4, 0.25, 0.75
_SIGMA1, _SIGMA2, _SIGMA3 = 0.25, 0.5, 4.0
_CG_TOL = 0.1  # CG stops at ||r|| <= _CG_TOL ||g||
_PRECISION = np.finfo(np.float64).eps  # reductions below this share of J have vanished


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
    """Mean weighted logistic loss, log(1 + e^t) per row with t = -z m, as
    log1p(e^-|t|) + max(t, 0): within a few ulps of np.logaddexp(0, t) and
    about three times faster. e^-|t| cannot overflow, and its underflow to
    a subnormal or 0 beyond |t| of about 708 is the right value."""
    t = -z * margins
    with np.errstate(under="ignore"):
        soft = np.log1p(np.exp(-np.abs(t)))
    return float((omega * (soft + np.maximum(t, 0.0))).sum() / n)


def _logistic_gradient(z, omega, n, margins, Xt):
    """Gradient of the mean logistic loss in (w, b), given margins = X w + b.

    Xt is X transposed, in CSR form or as a view of the dense array; a fit
    builds it once and passes it to every gradient, since X.T of a CSR
    matrix would build a new CSC object per call.
    """
    coef = (omega * (-z) * logistic(-z * margins)) / n
    return Xt.dot(coef), float(coef.sum())


def _logistic_slope_curvature(z, omega, n, margins):
    """Per-row first and second derivatives of the mean logistic loss in the
    margin: -omega z sigma(-z m) / n and omega sigma(-z m) sigma(z m) / n."""
    p = logistic(-z * margins)
    return (omega * (-z) * p) / n, omega * p * (1.0 - p) / n


def _squared_hinge_value(z, omega, n, margins):
    gap = np.maximum(0.0, 1.0 - z * margins)
    return float((omega * gap * gap).sum() / n)


def _squared_hinge_slope_curvature(z, omega, n, margins):
    """Per-row slope of the mean squared hinge in the margin, and its
    generalized second derivative: 2 omega / n where the gap is positive, 0
    elsewhere."""
    gap = np.maximum(0.0, 1.0 - z * margins)
    return (omega * 2.0 * gap * (-z)) / n, np.where(gap > 0.0, 2.0 * omega / n, 0.0)


# loss -> (value, slope and curvature), each a function of the margins
_L2_LOSSES = {
    "logistic": (_logistic_value, _logistic_slope_curvature),
    "hinge": (_squared_hinge_value, _squared_hinge_slope_curvature),
}


def _trust_region_cg(hess_vec, g, delta):
    """Conjugate gradient on H s = -g from s = 0, kept inside ||s|| <= delta
    (Steihaug). It stops once ||r|| <= _CG_TOL ||g||, after at most one step
    per variable, or on reaching the boundary, where it goes along the last
    direction to ||s|| = delta. Returns s, the residual r = -g - H s, and
    whether s lies on the boundary."""
    s = np.zeros_like(g)
    r = -g
    d = r
    rr = float(r @ r)
    stop = _CG_TOL * _CG_TOL * rr
    for _ in range(g.shape[0]):
        if rr <= stop:
            break
        Hd = hess_vec(d)
        dHd = float(d @ Hd)
        if dHd > 0.0:
            alpha = rr / dHd
            s_next = s + alpha * d
        if dHd <= 0.0 or float(s_next @ s_next) > delta * delta:
            # the positive root tau of ||s + tau d|| = delta
            sd, ss, dd = float(s @ d), float(s @ s), float(d @ d)
            room = max(delta * delta - ss, 0.0)
            rad = np.sqrt(sd * sd + dd * room)
            tau = room / (sd + rad) if sd >= 0.0 else (rad - sd) / dd
            return s + tau * d, r - tau * Hd, True
        s = s_next
        r = r - alpha * Hd
        rr_next = float(r @ r)
        d = r + (rr_next / rr) * d
        rr = rr_next
    return s, r, False


def _tron_l2(loss, Xc, Xt, z, omega, reg, tol, max_iter):
    """Trust-region Newton-CG (Lin, Weng & Keerthi 2008) on the L2 objective.

    theta stacks (w, b); the penalty reg/2 * ||w||^2 leaves b alone. Each
    iteration solves the Newton system approximately by _trust_region_cg,
    with Hessian-vector products X^T (c * (X v_w + v_b)) + reg v_w (and the
    bias entry sum(c * (X v_w + v_b))), where c is the loss's per-row
    curvature, computed once per accepted iterate. The step is accepted when
    the actual reduction of J exceeds _ETA0 times the reduction the
    quadratic model predicts, and the radius, ||g_0|| at the start, is
    updated from their ratio as in LIBLINEAR. A fit whose predicted
    reduction is not positive, or whose actual and predicted reductions both
    vanish at the precision of J, ends where it is, unconverged unless the
    gradient test holds there.
    """
    value, slope_curvature = _L2_LOSSES[loss]
    n, dim = Xc.shape
    theta = np.zeros(dim + 1)
    margins = np.zeros(n)  # X w + b at theta

    def objective(th, m):
        return value(z, omega, n, m) + 0.5 * reg * float(th[:-1] @ th[:-1])

    def derivatives(th, m):
        coef, c = slope_curvature(z, omega, n, m)
        return np.append(Xt.dot(coef) + reg * th[:-1], coef.sum()), c

    def hess_vec(v):
        scaled = curvature * (Xc.dot(v[:-1]) + v[-1])
        return np.append(Xt.dot(scaled) + reg * v[:-1], scaled.sum())

    f = objective(theta, margins)
    g, curvature = derivatives(theta, margins)
    history = [f]
    delta = float(np.sqrt(g @ g))
    iterations = 0
    converged = bool(np.abs(g).max() <= tol)
    while not converged and iterations < max_iter:
        iterations += 1
        s, r, boundary = _trust_region_cg(hess_vec, g, delta)
        theta_new = theta + s
        margins_new = Xc.dot(theta_new[:-1]) + theta_new[-1]
        f_new = objective(theta_new, margins_new)
        gs = float(g @ s)
        predicted = -0.5 * (gs - float(s @ r))
        actual = f - f_new
        if predicted <= 0.0:
            break  # no descent left in the model: stalled at precision
        snorm = float(np.sqrt(s @ s))
        if iterations == 1:
            delta = min(delta, snorm)  # the first radius shrinks to the first step
        # the step length, as a multiple of ||s||, that minimizes a quadratic
        # interpolating f, its slope along s and f_new
        curve = f_new - f - gs
        alpha = _SIGMA3 if curve <= 0.0 else max(_SIGMA1, -0.5 * gs / curve)
        if actual < _ETA0 * predicted:
            delta = min(alpha * snorm, _SIGMA2 * delta)
        elif actual < _ETA1 * predicted:
            delta = max(_SIGMA1 * delta, min(alpha * snorm, _SIGMA2 * delta))
        elif actual < _ETA2 * predicted:
            delta = max(_SIGMA1 * delta, min(alpha * snorm, _SIGMA3 * delta))
        elif boundary:
            delta = _SIGMA3 * delta
        else:
            delta = max(delta, min(alpha * snorm, _SIGMA3 * delta))
        if actual > _ETA0 * predicted:
            theta, margins, f = theta_new, margins_new, f_new
            history.append(f)
            g, curvature = derivatives(theta, margins)
            converged = bool(np.abs(g).max() <= tol)
        if abs(actual) <= _PRECISION * abs(f) and predicted <= _PRECISION * abs(f):
            break
    return theta[:-1], float(theta[-1]), TrainMeta(iterations, f, converged, tuple(history))


def _soft_threshold(v: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def _l1_metric(X: CSRMatrix, omega, n):
    """Per-column curvature scale d_j = (1/n) sum_i omega_i x_ij^2; an
    all-zero column gets 1. It is read from the stored entries, so both
    storages share it; each column's terms are added from zero in row order,
    as scipy's product of X^T (in CSR form) with omega adds them."""
    terms = X.data * X.data
    terms *= np.repeat(omega, np.diff(X.indptr))
    d = np.bincount(X.indices, terms, minlength=X.shape[1]) / n
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
    The step length carries over and doubles (up to 1e6) only after an
    iteration whose first trial passed; after a backtrack it stays short,
    since doubling it then mostly costs one more trial. A trial costs one
    product with X and one loss; a step from the iterate reuses its loss.
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
    loss = _logistic_value(z, omega, n, margins)  # at the iterate
    objective = loss
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
        if from_iterate:
            vw, vb, vmargins, loss_v = w, b, margins, loss
        else:
            vw, vb, vmargins = yw, yb, ymargins
            loss_v = _logistic_value(z, omega, n, ymargins)
        gw, gb = _logistic_gradient(z, omega, n, vmargins, Xt)
        for trial in range(_MAX_LINE_STEPS):
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
            if loss_new <= quad:
                break
            step *= _BACKTRACK
        else:
            break  # no step length passes the test
        max_move = max(float(np.abs(dw).max(initial=0.0)), abs(db))
        if from_iterate and max_move <= tol:
            converged = True
            break
        if trial == 0:
            step = min(step / _BACKTRACK, 1e6)  # the first trial passed: try a longer one
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
        w, b, margins, loss, objective = w_new, b_new, margins_new, loss_new, objective_new
        history.append(objective)
    return w, b, TrainMeta(iterations, objective, converged, tuple(history))


def _dense_storage(X: CSRMatrix) -> bool:
    """Whether a fit holds X as a dense array rather than as scipy CSR. The
    dense array takes 8 n D bytes and its transpose is a free view; CSR
    takes about 12 bytes per stored entry (an 8-byte value and a 4-byte
    column), twice over with the CSR transpose the products need. So from a
    third full on, dense is no larger, and its products are BLAS calls
    without scipy's per-call dispatch."""
    n, dim = X.shape
    return 3 * X.nnz >= n * dim


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
    if C <= 0:
        raise ValueError("C must be positive")
    X = as_csr(X)
    labels = _as_labels(y)
    classes = _check_fit_inputs(X, labels)
    omega = _sample_weights(labels, classes, class_weight)
    n = X.shape[0]
    reg = 1.0 / (C * n)
    # before the solver's copy of X exists, so its temporaries add no peak
    d = _l1_metric(X, omega, n) if loss == "logistic" and penalty == "l1" else None
    if _dense_storage(X):
        Xc = X.toarray()
        Xt = Xc.T  # a view: BLAS reads it transposed, nothing is copied
    else:
        from scipy import sparse

        Xc = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        Xt = Xc.T.tocsr()

    weights = np.zeros((classes.shape[0], Xc.shape[1]))
    bias = np.zeros(classes.shape[0])
    meta = []
    for k, cls in enumerate(classes):
        z = np.where(labels == cls, 1.0, -1.0)
        if loss == "logistic" and penalty == "l1":
            w, b, info = _prox_l1(Xc, Xt, z, omega, reg, d, tol, max_iter)
        elif loss in _L2_LOSSES:
            w, b, info = _tron_l2(loss, Xc, Xt, z, omega, reg, tol, max_iter)
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
    priors; scores are then unnormalized log-posteriors.

    Each class's column sums come from one bincount over the stored
    entries, keyed by (class, column): each sum adds its entries from zero
    in row order, as scipy.sparse sums the class's rows, so the weights
    equal that sum's bitwise."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    X = as_csr(X)
    labels = _as_labels(y)
    classes = _check_fit_inputs(X, labels)
    if X.nnz and X.data.min() < 0:
        raise ValueError("multinomial NB requires non-negative features")
    n, d = X.shape
    k = classes.shape[0]
    entry_class = np.searchsorted(classes, labels)[X.row_ids()]
    class_counts = np.bincount(entry_class * d + X.indices, X.data, minlength=k * d)
    weights = np.zeros((k, d))
    bias = np.zeros(k)
    for i, counts in enumerate(class_counts.reshape(k, d)):
        smoothed = counts + alpha
        total = counts.sum() + alpha * d
        if total <= 0 or (smoothed <= 0).any():
            raise ValueError(
                "log of zero probability; use alpha > 0 when classes have unseen features"
            )
        weights[i] = np.log(smoothed / total)
        bias[i] = np.log((labels == classes[i]).sum() / n)
    return LinearModel(
        weights=weights,
        bias=bias,
        classes=tuple(int(c) for c in classes),
        loss="nb",
        penalty="none",
        C=alpha,
        train_meta=(TrainMeta(iterations=1, objective=0.0, converged=True),) * k,
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


def _scores(model: LinearModel, margins: np.ndarray) -> np.ndarray:
    return logistic(margins) if model.loss == "logistic" else margins


def predict_scores(model: LinearModel, X) -> np.ndarray:
    """Per-class scores: sigmoid margins (logistic), raw margins (hinge), or
    log-posteriors (nb). No cross-class normalization."""
    return _scores(model, decision_margins(model, X))


def predict(model: LinearModel, X, return_scores: bool = False):
    """Row-wise argmax over the decision margins; ties go to the smallest
    class code. The margins, not the scores, pick the label: logistic
    scores saturate at exactly 0 and 1, so distinct margins can tie there.
    With return_scores, also predict_scores' scores, from the same margins."""
    margins = decision_margins(model, X)
    labels = np.asarray(model.classes)[np.argmax(margins, axis=1)]
    return (labels, _scores(model, margins)) if return_scores else labels


def model_payload(model: LinearModel) -> dict:
    """The JSON object the pipeline artifact embeds: the model's fields and
    per-class training metadata. Column selection and standardization belong
    to the pipeline's fitted features, which the artifact stores beside it."""
    return {
        "classes": list(model.classes),
        "loss": model.loss,
        "penalty": model.penalty,
        "C": model.C,
        "weights": [[float(v) for v in row] for row in model.weights],
        "bias": [float(v) for v in model.bias],
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
