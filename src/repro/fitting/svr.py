"""SVR fitting: linear ε-insensitive support vector regression.

The paper's third fitting method.  We solve the primal problem

    min_w  ½‖w‖² + C Σᵢ L_ε(w·xᵢ − yᵢ)

with the ε-insensitive loss L_ε(r) = max(0, |r| − ε), smoothed with a
small pseudo-Huber term so L-BFGS-B has continuous gradients (the
smoothing δ is far below the data scale and does not change which
points are support vectors in practice).  Bounds on w give the
non-negative variant for free, matching how NNLS is used.

The module also provides the warm-started LOOCV solver
(:func:`svr_warm_loocv`): every fold's L-BFGS-B run is seeded from a
polished full fit and certified via strong convexity — a fold either
proves its solution optimal or reports failure so the caller can refit
it cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .base import FitError, check_Xy

#: Iteration cap for one warm-started fold solve.  A seed that kept
#: the fold's support typically converges in a handful of steps; folds
#: that need more fail the certificate and are refit cold.
WARM_MAXITER = 200

#: L-BFGS-B history size for the polished seed fit and the fold
#: solves.  The fold problems are small (≤ ~50 columns), so a deep
#: history is nearly a full quasi-Newton method and converges in far
#: fewer iterations than the default memory of 10.
WARM_MAXCOR = 30

#: Relative optimality gap a fold must certify:
#: ‖∇f‖²/2 ≤ CERT_REL_GAP · (1 + |f|).
CERT_REL_GAP = 1e-6


@dataclass
class SVRWarmStats:
    """Certificate accounting for one warm-started LOOCV run."""

    folds: int = 0
    accepted: int = 0

    @property
    def rejected(self) -> int:
        return self.folds - self.accepted

    @property
    def acceptance(self) -> float:
        return self.accepted / self.folds if self.folds else 0.0

    def __str__(self) -> str:
        return (
            f"{self.accepted}/{self.folds} folds warm-certified "
            f"({100.0 * self.acceptance:.0f}%)"
        )


class LinearSVR:
    """Linear ε-SVR solved in the primal with smoothed loss."""

    name = "SVR"

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.1,
        nonneg: bool = False,
        smoothing: float = 1e-3,
        max_iter: int = 500,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.C = C
        self.epsilon = epsilon
        self.nonneg = nonneg
        self.smoothing = smoothing
        self.max_iter = max_iter
        self._coef: np.ndarray | None = None

    def _objective(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, epsilon: float):
        """Smoothed primal objective and gradient at ``w``.

        ``epsilon`` is passed explicitly (it is the *scaled* tube width
        of the caller's normalized problem) so concurrent fits and the
        warm LOOCV solver can share one instance without mutating
        ``self.epsilon`` around the optimizer call.
        """
        r = X @ w - y
        excess = np.abs(r) - epsilon
        active = excess > 0
        d = self.smoothing
        # pseudo-Huber on the active excess: sqrt(e² + δ²) − δ
        e = np.where(active, excess, 0.0)
        loss = np.sqrt(e * e + d * d) - d
        obj = 0.5 * float(w @ w) + self.C * float(loss.sum())
        # gradient
        dloss_de = e / np.sqrt(e * e + d * d)
        dr = np.where(active, dloss_de * np.sign(r), 0.0)
        grad = w + self.C * (X.T @ dr)
        return obj, grad

    def _prepare(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """Canonical scaling of a (sub)problem: (Xs, ys, col_scale,
        y_scale, scaled epsilon).

        Scale-only column normalization (no centering): X' = X/s with
        w = w'/s afterwards — an equivalent model family (it keeps the
        no-intercept structure and the sign of each weight) that
        conditions the optimization when counts span decades.  The
        loss scale is likewise made invariant to the target range.
        """
        col_scale = np.abs(X).max(axis=0)
        col_scale = np.where(col_scale > 1e-12, col_scale, 1.0)
        Xs = X / col_scale
        y_scale = max(float(np.abs(y).max()), 1e-12)
        ys = y / y_scale
        eps = self.epsilon / y_scale if y_scale > 1.0 else self.epsilon
        return Xs, ys, col_scale, y_scale, eps

    def _ridge_start(self, Xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Warm-start from ridge-regularized least squares."""
        n_features = Xs.shape[1]
        w0, *_ = np.linalg.lstsq(
            np.vstack([Xs, 1e-3 * np.eye(n_features)]),
            np.concatenate([ys, np.zeros(n_features)]),
            rcond=None,
        )
        if self.nonneg:
            w0 = np.clip(w0, 0.0, None)
        return w0

    def _solve(
        self,
        Xs: np.ndarray,
        ys: np.ndarray,
        eps: float,
        w0: np.ndarray,
        maxiter: int,
        maxcor: int = 10,
        gtol: float = 1e-10,
    ):
        bounds = [(0.0, None)] * Xs.shape[1] if self.nonneg else None
        return scipy.optimize.minimize(
            self._objective,
            w0,
            args=(Xs, ys, eps),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={
                "maxiter": maxiter,
                "maxcor": maxcor,
                "ftol": 1e-14,
                "gtol": gtol,
            },
        )

    def _newton_solve(
        self,
        Xs: np.ndarray,
        ys: np.ndarray,
        eps: float,
        w0: np.ndarray,
        gtol: float,
        maxiter: int = 50,
    ) -> np.ndarray | None:
        """Damped Newton for the unconstrained smoothed primal.

        The fold problems are tiny (d ≲ 50 columns) and the smoothed
        loss is stiff (curvature ~ C/δ near the tube boundary), which
        is exactly where a quasi-Newton method pays dozens of
        iterations to relearn the Hessian every fold.  The exact
        Hessian

            H = I + C · Xₐᵀ diag(δ²/(e²+δ²)^{3/2}) Xₐ   (active rows)

        is SPD (≥ I) and costs O(n·d²) to form, so full Newton steps
        with Armijo backtracking converge in a handful of iterations.
        Returns the iterate once max|∇f| ≤ gtol, or ``None`` when it
        fails to converge (caller falls back to L-BFGS-B).  Only valid
        for the unconstrained problem — bounds need the projected
        solver.
        """
        if self.nonneg:
            return None
        d = self.smoothing
        w = np.asarray(w0, dtype=np.float64).copy()
        obj, grad = self._objective(w, Xs, ys, eps)
        for _ in range(maxiter):
            if not np.isfinite(obj):
                return None
            if np.abs(grad).max() <= gtol:
                return w
            r = Xs @ w - ys
            e = np.abs(r) - eps
            active = e > 0
            h = np.zeros_like(r)
            if np.any(active):
                ea = e[active]
                h[active] = d * d / np.power(ea * ea + d * d, 1.5)
            Xa = Xs * np.sqrt(self.C * h)[:, None]
            H = Xa.T @ Xa
            H[np.diag_indices_from(H)] += 1.0
            try:
                step = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                return None
            slope = float(grad @ step)
            if slope >= 0.0:  # not a descent direction (numerical)
                return None
            t = 1.0
            for _ in range(30):
                obj_new, grad_new = self._objective(w + t * step, Xs, ys, eps)
                if obj_new <= obj + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                return None
            w = w + t * step
            obj, grad = obj_new, grad_new
        return w if np.abs(grad).max() <= gtol else None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVR":
        X, y = check_Xy(X, y)
        Xs, ys, col_scale, y_scale, eps = self._prepare(X, y)
        w0 = self._ridge_start(Xs, ys)
        result = self._solve(Xs, ys, eps, w0, maxiter=self.max_iter)
        if not np.all(np.isfinite(result.x)):
            raise FitError("SVR optimization produced non-finite weights")
        self._coef = result.x * y_scale / col_scale
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise RuntimeError("predict() before fit()")
        return np.asarray(X, dtype=np.float64) @ self._coef

    @property
    def coef_(self) -> np.ndarray:
        if self._coef is None:
            raise RuntimeError("coef_ before fit()")
        return self._coef


def svr_fold_objective(
    svr: LinearSVR, X: np.ndarray, y: np.ndarray, coef: np.ndarray
) -> float:
    """The fold's scaled primal objective at an *unscaled* coefficient
    vector — the quantity the warm-start certificate bounds.  Used by
    the equivalence tests to compare warm and cold fold solutions on
    the exact objective both solvers minimize."""
    X, y = check_Xy(X, y)
    Xs, ys, col_scale, y_scale, eps = svr._prepare(X, y)
    w = np.asarray(coef, dtype=np.float64) * col_scale / y_scale
    obj, _ = svr._objective(w, Xs, ys, eps)
    return obj


def svr_warm_loocv(
    svr: LinearSVR, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, SVRWarmStats] | None:
    """Leave-one-out raw predictions via warm-started fold solves.

    One polished full-data solve seeds every fold; each fold then runs
    a short L-BFGS-B from the seed (transformed into the fold's own
    canonical scaling, so warm and cold paths minimize the *same*
    objective) and must pass the strong-convexity certificate

        ‖∇f(w)‖² / 2  ≤  CERT_REL_GAP · (1 + |f(w)|).

    The scaled objective has Hessian ⪰ I (the ½‖w‖² term), i.e. it is
    1-strongly convex, so f(w) − f* ≤ ‖∇f(w)‖²/2: an accepted fold is
    provably within the gap of the unique fold optimum — and therefore
    of whatever a cold solve would return.  Folds that fail are left
    NaN for the caller's cold-refit fallback, mirroring the NNLS
    warm-start contract.  Returns ``None`` when the configuration is
    outside the warm contract (bounded/non-negative weights) or the
    seed solve is unusable.
    """
    if svr.nonneg:
        return None
    X, y = check_Xy(X, y)
    n = X.shape[0]
    if n < 3:
        return None
    # Polished seed: same objective as fit(), pushed to a smaller
    # gradient (deep L-BFGS-B memory, generous iteration budget) so
    # fold solves start inside their certificate basin.
    Xs, ys, _, y_scale, eps = svr._prepare(X, y)
    full = svr._solve(
        Xs,
        ys,
        eps,
        svr._ridge_start(Xs, ys),
        maxiter=max(4 * svr.max_iter, 2000),
        maxcor=WARM_MAXCOR,
    )
    if not np.all(np.isfinite(full.x)):
        return None
    col_scale = np.abs(X).max(axis=0)
    col_scale = np.where(col_scale > 1e-12, col_scale, 1.0)
    coef_full = full.x * y_scale / col_scale  # unscaled seed weights
    # Certificate-matched fold tolerance: acceptance needs
    # ‖∇f‖²/2 ≤ CERT_REL_GAP · (1 + |f|), and L-BFGS-B stops on
    # max|∇f_i| ≤ gtol, so gtol = √(2·CERT_REL_GAP/d) guarantees the
    # certificate at the stopping point for any f (the ‖·‖₂ ≤ √d·‖·‖∞
    # bound, dropping the favorable 1 + |f| ≥ 1 slack).  Running the
    # folds to the full-fit 1e-10 tolerance instead costs several times
    # more iterations for precision the certificate never uses.
    fold_gtol = float(np.sqrt(2.0 * CERT_REL_GAP / X.shape[1]))
    raw = np.full(n, np.nan)
    stats = SVRWarmStats(folds=n)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        Xi, yi = X[mask], y[mask]
        mask[i] = True
        try:
            Xi, yi = check_Xy(Xi, yi)
        except FitError:
            continue
        Xsi, ysi, cs_i, ysc_i, eps_i = svr._prepare(Xi, yi)
        # The fold recomputes its own canonical scaling (deleting a row
        # can move a column/target max); the seed is transformed into
        # that space so the fold minimizes exactly the cold objective.
        w_sol = coef_full * cs_i / ysc_i
        obj, grad = svr._objective(w_sol, Xsi, ysi, eps_i)
        gap_bound = 0.5 * float(grad @ grad)
        if gap_bound > CERT_REL_GAP * (1.0 + abs(obj)):
            # The deleted point was a support vector (or moved the
            # scaling): the seed is not the fold optimum.  A few exact
            # Newton steps from the seed, with a short warm L-BFGS-B
            # run as fallback; then re-certify.
            w_new = svr._newton_solve(Xsi, ysi, eps_i, w_sol, gtol=fold_gtol)
            if w_new is None:
                res = svr._solve(
                    Xsi,
                    ysi,
                    eps_i,
                    w_sol,
                    maxiter=WARM_MAXITER,
                    maxcor=WARM_MAXCOR,
                    gtol=fold_gtol,
                )
                if not np.all(np.isfinite(res.x)):
                    continue
                w_new = res.x
            w_sol = w_new
            obj, grad = svr._objective(w_sol, Xsi, ysi, eps_i)
            gap_bound = 0.5 * float(grad @ grad)
            if gap_bound > CERT_REL_GAP * (1.0 + abs(obj)):
                continue
        # Points inside the ε-tube contribute neither loss nor
        # gradient, so deleting one leaves the full-fit optimum the
        # fold optimum: the seed certifies directly and the fold costs
        # one objective evaluation, no solver call.
        stats.accepted += 1
        w = w_sol * ysc_i / cs_i
        raw[i] = float(X[i] @ w)
    return raw, stats
