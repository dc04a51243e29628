"""Native statistics engine for the audit regressions.

One-way fixed-effects OLS via within-group demeaning, cluster-robust
covariance with the conventional small-sample correction, t / Wald
inference, and binomial tail probabilities. All functions
are pure and safe to call concurrently.

``fe_regress`` fits one design for several outcomes at once: the group
index, singleton drop, demeaning of X, pivoted QR and (X'X)^-1 are
computed once, and each outcome gets only its own demeaning, solve,
sandwich and p-values, through the same calls as a fit of its own, so
its result is the same bit for bit. It is built from private steps
(``_kept_groups``, ``_demean``, ``_factor``, ``_solve``, ``_bread``,
``_sandwich``). ``drop_singletons``, ``within_demean`` and ``ols`` are
the same steps as public functions, one design and one outcome at a
time, for the oracle tests; ``fe_regress`` does not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, overload

import numpy as np
import scipy.linalg
from scipy import special

# Relative pivot threshold below which a column is treated as collinear.
RANK_TOL = 1e-10


class StatError(Exception):
    """Invalid input to a statistical routine."""


class UnidentifiedLabelError(StatError):
    """No within-group variation left: the treated effect cannot be estimated."""


@dataclass(frozen=True)
class RegressionFrame:
    """Outcome, treated-indicator matrix, and group (document) assignment."""

    y: np.ndarray
    X: np.ndarray
    group_ids: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        g = np.asarray(self.group_ids)
        if X.ndim != 2:
            raise StatError("X must be a 2-D matrix")
        if not (len(y) == X.shape[0] == len(g)):
            raise StatError(
                f"row mismatch: y={len(y)}, X={X.shape[0]}, groups={len(g)}"
            )
        if X.shape[1] != len(self.column_names):
            raise StatError("column_names must match X's column count")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group_ids", g)

    @property
    def n_obs(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients and cluster-robust inference for one (model, label) regression.

    Unidentified (collinear or annihilated) coefficients are NaN, with the
    `identified` mask telling which entries are estimated.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    per_coef_p: np.ndarray
    joint_p: float
    residual_dof: int
    n_obs: int
    n_groups: int
    n_dropped_singletons: int
    column_names: tuple[str, ...]
    identified: tuple[bool, ...]

    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


@dataclass(frozen=True)
class BernoulliTestResult:
    """Binomial tail test: chance of >= k significant results out of N at threshold tau."""

    n_trials: int
    n_significant: int
    threshold: float
    p_value: float


def _group_index(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _, inverse = np.unique(group_ids, return_inverse=True)
    return inverse, np.bincount(inverse)


def _demean(col: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    means = np.bincount(inverse, weights=col) / counts
    return col - means[inverse]


def _kept_groups(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows outside singleton groups, and the group index of those rows.

    Returns the keep mask, and the inverse and counts that ``_group_index``
    of the kept rows' group ids would give, compacted from one ``np.unique``.
    """
    inverse, counts = _group_index(group_ids)
    multi = counts > 1
    keep = multi[inverse]
    return keep, (np.cumsum(multi) - 1)[inverse[keep]], counts[multi]


def drop_singletons(frame: RegressionFrame) -> tuple[RegressionFrame, int]:
    """Remove rows whose group has a single observation.

    Singleton rows are annihilated by demeaning and would distort the
    degrees of freedom if kept.
    """
    keep, _, _ = _kept_groups(frame.group_ids)
    dropped = int((~keep).sum())
    if dropped == 0:
        return frame, 0
    return (
        RegressionFrame(
            y=frame.y[keep],
            X=frame.X[keep],
            group_ids=frame.group_ids[keep],
            column_names=frame.column_names,
        ),
        dropped,
    )


def within_demean(frame: RegressionFrame) -> RegressionFrame:
    """Subtract group means from y and every X column (one-way absorption)."""
    inverse, counts = _group_index(frame.group_ids)
    if np.any(counts == 1):
        raise StatError("singleton groups present; call drop_singletons first")
    y = _demean(frame.y, inverse, counts)
    X = _demean_columns(frame.X.copy(), inverse, counts)
    return RegressionFrame(y=y, X=X, group_ids=frame.group_ids, column_names=frame.column_names)


def _demean_columns(X: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Demean each column of X in place; returns X."""
    for j in range(X.shape[1]):
        X[:, j] = _demean(X[:, j], inverse, counts)
    return X


def _factor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-revealing (pivoted) QR of X: Q and R cut to the numerical rank, and the kept columns in pivot order."""
    if X.shape[1] == 0:
        raise StatError("no columns to regress on")
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    pivot0 = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > RANK_TOL * pivot0)) if pivot0 > 0 else 0
    if rank == 0:
        raise StatError("zero usable columns after rank filtering")
    return Q[:, :rank], R[:rank, :rank], piv[:rank]


def _solve(
    X: np.ndarray, factor: tuple[np.ndarray, np.ndarray, np.ndarray], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (NaN where collinear) and residuals of y on X, given X's ``_factor``."""
    Q, R, kept = factor
    beta_kept = scipy.linalg.solve_triangular(R, Q.T @ y)
    coefficients = np.full(X.shape[1], np.nan)
    coefficients[kept] = beta_kept
    return coefficients, y - X[:, kept] @ beta_kept


def ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Least squares via rank-revealing (pivoted) QR.

    Returns (coefficients, residuals, dropped_columns). Collinear columns
    (relative pivot below RANK_TOL) get NaN coefficients and are listed in
    dropped_columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise StatError("X and y are not row-aligned")
    factor = _factor(X)
    coefficients, residuals = _solve(X, factor, y)
    dropped = sorted(set(range(X.shape[1])).difference(factor[2].tolist()))
    return coefficients, residuals, dropped


def _bread(X: np.ndarray) -> np.ndarray:
    """(X'X)^-1, the outer factors of the sandwich."""
    try:
        return scipy.linalg.inv(X.T @ X)
    except scipy.linalg.LinAlgError as exc:
        raise StatError("X'X is singular") from exc


def _sandwich(
    X: np.ndarray, bread: np.ndarray, residuals: np.ndarray, inverse: np.ndarray, n_groups: int
) -> np.ndarray:
    """Cluster-robust covariance with the small-sample factor; ``inverse`` is each row's cluster.

    V = c * (X'X)^-1 (sum_g X_g' u_g u_g' X_g) (X'X)^-1,
    c = (G / (G-1)) * ((n-1) / (n-K)), where ``bread`` is (X'X)^-1.
    """
    n, k = X.shape
    group_sums = np.column_stack(
        [np.bincount(inverse, weights=X[:, j] * residuals, minlength=n_groups) for j in range(k)]
    )
    meat = group_sums.T @ group_sums

    c = (n_groups / (n_groups - 1)) * ((n - 1) / (n - k))
    cov = c * bread @ meat @ bread
    return (cov + cov.T) / 2


@overload
def fe_regress(frame: RegressionFrame) -> RegressionResult: ...
@overload
def fe_regress(frame: RegressionFrame, outcomes: Sequence[np.ndarray]) -> list[RegressionResult]: ...


def fe_regress(frame, outcomes=None):
    """Fixed-effects regression with document-clustered inference.

    Pipeline: drop singletons, demean within groups, pivoted-QR OLS,
    sandwich covariance. Per-coefficient p-values use t(G-1); the joint
    null (all treated coefficients zero) uses an F(J_identified, G-1)
    Wald statistic.

    With ``outcomes`` (vectors row-aligned with the frame, used in place of
    ``frame.y``) it returns one result per outcome, in order. The design
    work (group index, singleton drop, demeaning X, the QR and (X'X)^-1)
    runs once; per outcome only y is demeaned and solved and the sandwich
    and p-values are built, with the same calls on the same shapes, so each
    result equals ``fe_regress`` of the frame with that outcome bit for bit.
    A design error (StatError) is raised for all outcomes at once; a
    non-finite outcome on a kept row is a StatError too.
    """
    if frame.n_obs == 0:
        raise StatError("empty regression frame")
    ys = [frame.y] if outcomes is None else [np.asarray(y, dtype=float) for y in outcomes]
    if any(y.shape != frame.y.shape for y in ys):
        raise StatError("outcomes are not row-aligned with the frame")

    keep, inverse, counts = _kept_groups(frame.group_ids)
    n = len(inverse)
    if n == 0:
        raise UnidentifiedLabelError("all groups are singletons; nothing identifies the effect")
    ys = [y[keep] for y in ys]
    if not all(np.isfinite(y).all() for y in ys):
        raise StatError("outcome has non-finite values")

    X = _demean_columns(frame.X[keep], inverse, counts)  # the fit's one copy of the design
    try:
        factor = _factor(X)
    except StatError as exc:
        raise UnidentifiedLabelError(
            f"no within-document variation in treated indicators: {exc}"
        ) from None

    kept_idx = sorted(factor[2].tolist())
    identified = tuple(j in kept_idx for j in range(X.shape[1]))
    n_groups = len(counts)
    if n_groups < 2:
        raise StatError(f"need >= 2 clusters, got {n_groups}")
    X_kept = X if all(identified) else X[:, kept_idx]
    bread = _bread(X_kept)

    j_total = len(frame.column_names)
    n_identified = len(kept_idx)
    dof_t = n_groups - 1
    results = []
    for y in ys:
        coefficients, residuals = _solve(X, factor, _demean(y, inverse, counts))
        cov_kept = _sandwich(X_kept, bread, residuals, inverse, n_groups)

        covariance = np.full((j_total, j_total), np.nan)
        covariance[np.ix_(kept_idx, kept_idx)] = cov_kept

        beta = coefficients[kept_idx]
        se = np.sqrt(np.maximum(np.diag(cov_kept), 0.0))
        # A zero SE is a degenerate exact fit: a zero coefficient is trivially null.
        p_kept = np.where(beta == 0, 1.0, 0.0)
        tested = se > 0
        p_kept[tested] = 2 * special.stdtr(dof_t, -np.abs(beta[tested] / se[tested]))
        per_coef_p = np.full(j_total, np.nan)
        per_coef_p[kept_idx] = p_kept

        results.append(RegressionResult(
            coefficients=coefficients,
            covariance=covariance,
            per_coef_p=per_coef_p,
            joint_p=_wald_joint_p(beta, cov_kept, n_identified, dof_t),
            residual_dof=n - n_groups - n_identified,
            n_obs=n,
            n_groups=n_groups,
            n_dropped_singletons=frame.n_obs - n,
            column_names=frame.column_names,
            identified=identified,
        ))
    return results[0] if outcomes is None else results


def _wald_joint_p(beta: np.ndarray, cov: np.ndarray, n_identified: int, dof: int) -> float:
    if np.allclose(beta, 0.0):
        return 1.0
    if not np.any(cov):
        # Zero covariance with nonzero coefficients: infinitely precise
        # estimate, the null is rejected outright.
        return 0.0
    # pinvh tolerates the near-singular covariances that exact-fit frames
    # produce; it equals the plain inverse whenever cov is well conditioned.
    w = float(beta @ scipy.linalg.pinvh(cov) @ beta)
    if w < 0:
        w = 0.0
    f = w / n_identified
    return float(special.fdtrc(n_identified, dof, f))


def binomial_tail(n_trials: int, k: int, tau: float) -> float:
    """Upper binomial tail P[K >= k], K ~ Binomial(n_trials, tau), via the regularized incomplete beta."""
    if n_trials < 0 or not (0 <= k <= n_trials):
        raise StatError(f"need 0 <= k <= N, got k={k}, N={n_trials}")
    if not (0 < tau < 1):
        raise StatError(f"tau must be in (0, 1), got {tau}")
    if k == 0:
        return 1.0
    return float(special.bdtrc(k - 1, n_trials, tau))


def bernoulli_test(n_trials: int, n_significant: int, tau: float) -> BernoulliTestResult:
    """Package a binomial tail test over significance counts."""
    return BernoulliTestResult(
        n_trials=n_trials, n_significant=n_significant, threshold=tau,
        p_value=binomial_tail(n_trials, n_significant, tau),
    )
