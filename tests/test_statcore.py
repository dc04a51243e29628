"""Stats engine tests: oracle equivalence, invariants, and edge cases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairjudge.statcore import (
    RegressionFrame,
    StatError,
    UnidentifiedLabelError,
    bernoulli_test,
    binomial_tail,
    drop_singletons,
    fe_regress,
    ols,
    within_demean,
)


def make_frame(y, X, groups, names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if names is None:
        names = tuple(f"c{j}" for j in range(X.shape[1]))
    return RegressionFrame(y=np.asarray(y, float), X=X, group_ids=np.asarray(groups), column_names=names)


def random_panel_frame(rng, n_docs=None, n_cols=None, rows_per_doc=(2, 4)):
    """Random panel with within-group variation in every treated column."""
    n_docs = n_docs or rng.integers(3, 51)
    n_cols = n_cols or rng.integers(1, 5)
    y, X, groups = [], [], []
    for d in range(n_docs):
        k = rng.integers(*rows_per_doc)
        doc_effect = rng.normal(0, 2)
        for r in range(k):
            row = np.zeros(n_cols)
            if r > 0:  # first row is the baseline
                row[rng.integers(0, n_cols)] = 1.0
            X.append(row)
            y.append(doc_effect + row @ rng.normal(0.5, 1.0, size=n_cols) + rng.normal(0, 0.5))
            groups.append(f"D{d}")
    return make_frame(y, np.array(X), groups)


# --- drop_singletons -------------------------------------------------------

def test_drop_singletons_removes_lonely_groups():
    frame = make_frame([1, 2, 3], [[0], [1], [0]], ["A", "A", "B"])
    out, n = drop_singletons(frame)
    assert n == 1
    assert list(out.group_ids) == ["A", "A"]


def test_drop_singletons_identity_when_all_groups_big():
    frame = make_frame([1, 2, 3, 4], [[0], [1], [0], [1]], ["A", "A", "B", "B"])
    out, n = drop_singletons(frame)
    assert n == 0
    assert out.n_obs == 4


def test_drop_singletons_degenerate_all_singletons():
    frame = make_frame([1, 2, 3], [[0], [1], [0]], ["A", "B", "C"])
    out, n = drop_singletons(frame)
    assert n == 3
    assert out.n_obs == 0


# --- within_demean ---------------------------------------------------------

def test_within_demean_single_group():
    frame = make_frame([1.0, 3.0], [[0], [1]], ["A", "A"])
    out = within_demean(frame)
    assert np.allclose(out.y, [-1.0, 1.0])


def test_within_demean_constant_column_becomes_zero():
    frame = make_frame([1, 2, 3, 4], [[1], [1], [1], [1]], ["A", "A", "B", "B"])
    out = within_demean(frame)
    assert np.allclose(out.X, 0.0)


def test_within_demean_group_sums_vanish():
    rng = np.random.default_rng(7)
    frame = random_panel_frame(rng, n_docs=17, n_cols=3)
    out = within_demean(frame)
    for g in np.unique(out.group_ids):
        mask = out.group_ids == g
        assert abs(out.y[mask].sum()) < 1e-12 * max(1, abs(frame.y[mask]).sum())
        assert np.all(np.abs(out.X[mask].sum(axis=0)) < 1e-12)


def test_within_demean_idempotent():
    rng = np.random.default_rng(11)
    frame = random_panel_frame(rng, n_docs=12, n_cols=2)
    once = within_demean(frame)
    twice = within_demean(once)
    assert np.allclose(once.y, twice.y, atol=1e-12)
    assert np.allclose(once.X, twice.X, atol=1e-12)


def test_within_demean_rejects_singletons():
    frame = make_frame([1, 2, 3], [[0], [1], [0]], ["A", "A", "B"])
    with pytest.raises(StatError):
        within_demean(frame)


# --- ols -------------------------------------------------------------------

def test_ols_identity_exact():
    coef, resid, dropped = ols(np.eye(2), np.array([3.0, 5.0]))
    assert np.allclose(coef, [3.0, 5.0])
    assert np.allclose(resid, 0.0)
    assert dropped == []


def test_ols_duplicated_column_flagged():
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    X = np.column_stack([x, x])
    coef, _, dropped = ols(X, 2 * x)
    assert len(dropped) == 1
    assert np.isnan(coef[dropped[0]])
    kept = 1 - dropped[0]
    assert math.isclose(coef[kept], 2.0, abs_tol=1e-10)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    coef, resid, dropped = ols(X, y)
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert dropped == []
    assert np.allclose(coef, oracle, atol=1e-8)
    assert np.allclose(resid, y - X @ oracle, atol=1e-8)


def test_ols_all_zero_columns_raises():
    with pytest.raises(StatError):
        ols(np.zeros((5, 2)), np.arange(5.0))


# --- cluster-robust covariance ----------------------------------------------

def hand_sandwich(X, u, clusters, n_coef=None):
    """Independent explicit-loop sandwich with the same small-sample factor."""
    X = np.asarray(X, float)
    u = np.asarray(u, float)
    n, k = X.shape
    k_eff = n_coef if n_coef is not None else k
    groups = sorted(set(clusters))
    G = len(groups)
    meat = np.zeros((k, k))
    for g in groups:
        idx = [i for i, c in enumerate(clusters) if c == g]
        s = sum(X[i] * u[i] for i in idx)
        meat += np.outer(s, s)
    bread = np.linalg.inv(X.T @ X)
    c = (G / (G - 1)) * ((n - 1) / (n - k_eff))
    return c * bread @ meat @ bread


# --- fe_regress ------------------------------------------------------------

def dummy_ols_oracle(frame):
    """Brute-force oracle: explicit document dummies, coefficients via lstsq."""
    groups = sorted(set(frame.group_ids))
    D = np.column_stack([(frame.group_ids == g).astype(float) for g in groups])
    full = np.hstack([frame.X, D])
    beta, *_ = np.linalg.lstsq(full, frame.y, rcond=None)
    resid = frame.y - full @ beta
    return beta[: frame.X.shape[1]], resid, D


def test_fe_regress_exact_fit():
    # Two docs, baseline + variant, y = doc effect + 0.5 * treated, no noise.
    y = [1.0, 1.5, 3.0, 3.5]
    X = [[0], [1], [0], [1]]
    groups = ["A", "A", "B", "B"]
    res = fe_regress(make_frame(y, X, groups))
    assert abs(res.coefficients[0] - 0.5) < 1e-10
    assert res.n_groups == 2
    assert list(res.per_coef_p) == [0.0]  # a zero SE under a nonzero effect rejects outright


def test_fe_regress_exact_fit_of_no_effect_has_p_one():
    res = fe_regress(make_frame([1.0, 1.0, 3.0, 3.0], [[0], [1], [0], [1]], ["A", "A", "B", "B"]))
    assert list(res.coefficients) == [0.0] and list(res.per_coef_p) == [1.0]


def test_fe_regress_collinear_column_keeps_a_nan_p():
    rng = np.random.default_rng(37)
    frame = random_panel_frame(rng, n_docs=12, n_cols=2)
    res = fe_regress(make_frame(frame.y, np.column_stack([frame.X, frame.X[:, 0]]), frame.group_ids))
    assert sum(res.identified) == 2 and not all(res.identified)
    assert [math.isnan(p) for p in res.per_coef_p] == [not ok for ok in res.identified]
    assert all(0 <= p <= 1 for p, ok in zip(res.per_coef_p, res.identified) if ok)


def test_fe_regress_and_within_demean_leave_the_callers_design_unchanged():
    rng = np.random.default_rng(41)
    frame = random_panel_frame(rng, n_docs=10, n_cols=3)
    original = frame.X.copy()
    fe_regress(frame)
    fe_regress(frame, [frame.y, -frame.y])
    demeaned = within_demean(frame)
    assert frame.X.tobytes() == original.tobytes()
    assert not np.array_equal(demeaned.X, original)


def test_fe_regress_exact_fit_has_zero_covariance():
    res = fe_regress(make_frame([1.0, 1.5, 3.0, 3.5, 2.0, 2.5], [[0], [1], [0], [1], [0], [1]], list("AABBCC")))
    assert np.allclose(res.covariance, 0.0)


def test_fe_regress_requires_two_clusters():
    with pytest.raises(StatError, match="need >= 2 clusters"):
        fe_regress(make_frame([1.0, 2.0, 1.5, 2.5], [[0], [1], [0], [1]], list("AAAA")))


def test_fe_regress_covariance_psd_on_random_panels():
    rng = np.random.default_rng(17)
    for _ in range(20):
        res = fe_regress(random_panel_frame(rng, n_docs=10, n_cols=2))
        kept = np.flatnonzero(res.identified)
        assert np.linalg.eigvalsh(res.covariance[np.ix_(kept, kept)]).min() >= -1e-10


def test_fe_regress_matches_dummy_oracle():
    rng = np.random.default_rng(23)
    frame = random_panel_frame(rng, n_docs=40, n_cols=3)
    res = fe_regress(frame)
    beta, resid, D = dummy_ols_oracle(frame)
    assert np.allclose(res.coefficients, beta, atol=1e-8)

    # Independent SEs: partial out the dummies with explicit projection.
    P = D @ np.linalg.pinv(D)
    Xt = frame.X - P @ frame.X
    V = hand_sandwich(Xt, resid, list(frame.group_ids), n_coef=frame.X.shape[1])
    assert np.allclose(res.std_errors(), np.sqrt(np.diag(V)), atol=1e-8)


def test_fe_regress_no_variation_unidentified():
    # Variant rows duplicate baseline treatment: X constant within groups.
    y = [1.0, 2.0, 3.0, 4.0]
    X = [[1], [1], [0], [0]]
    groups = ["A", "A", "B", "B"]
    with pytest.raises(UnidentifiedLabelError):
        fe_regress(make_frame(y, X, groups))
    with pytest.raises(UnidentifiedLabelError):
        fe_regress(make_frame(y, X, groups), [np.array(y), np.ones(4)])


def test_fe_regress_non_finite_outcome_is_a_stat_error():
    frame = make_frame([1.0, math.nan, 3.0, 4.0], [[0], [1], [0], [1]], ["A", "A", "B", "B"])
    with pytest.raises(StatError, match="non-finite"):
        fe_regress(frame)
    with pytest.raises(StatError, match="non-finite"):
        fe_regress(frame, [np.ones(4), frame.y])


def test_fe_regress_all_singletons_unidentified():
    frame = make_frame([1, 2], [[0], [1]], ["A", "B"])
    with pytest.raises(UnidentifiedLabelError):
        fe_regress(frame)


def test_fe_regress_result_shape_and_bounds():
    rng = np.random.default_rng(29)
    frame = random_panel_frame(rng, n_docs=25, n_cols=2)
    res = fe_regress(frame)
    assert res.covariance.shape == (2, 2)
    assert np.allclose(res.covariance, res.covariance.T, equal_nan=True)
    assert 0 <= res.joint_p <= 1
    for p in res.per_coef_p:
        assert math.isnan(p) or 0 <= p <= 1
    assert res.residual_dof == res.n_obs - res.n_groups - sum(res.identified)


@pytest.mark.parametrize("case", ["singleton", "collinear", "exact"])
def test_fe_regress_of_several_outcomes_equals_one_call_each_bit_for_bit(case):
    rng = np.random.default_rng(31)
    frame = random_panel_frame(rng, n_docs=15, n_cols=3)
    y, X, groups = frame.y, frame.X, frame.group_ids
    if case == "singleton":
        y, X, groups = np.append(y, 9.0), np.vstack([X, [1.0, 0.0, 0.0]]), np.append(groups, "lonely")
    elif case == "collinear":
        X = np.column_stack([X, X[:, 0]])
    else:  # a document effect plus the treated effects, no noise
        y = X @ np.array([0.5, -1.0, 2.0]) + np.unique(groups, return_inverse=True)[1]
    outcomes = [y, np.abs(y - 3.0), np.log1p(np.abs(y))]
    shared = fe_regress(make_frame(np.zeros(len(y)), X, groups), outcomes)
    assert len(shared) == len(outcomes)
    for outcome, res in zip(outcomes, shared):
        alone = fe_regress(make_frame(outcome, X, groups))
        for field in ("coefficients", "covariance", "per_coef_p"):
            assert np.array_equal(getattr(res, field), getattr(alone, field), equal_nan=True), field
        assert res.joint_p == alone.joint_p
        assert (res.identified, res.n_obs, res.n_groups, res.n_dropped_singletons, res.residual_dof) == (
            alone.identified, alone.n_obs, alone.n_groups, alone.n_dropped_singletons, alone.residual_dof)
    assert shared[0].n_dropped_singletons == (case == "singleton")
    assert all(shared[0].identified) == (case != "collinear")


# --- binomial_tail ---------------------------------------------------------

def exact_tail(n, k, tau):
    """Arbitrary-precision direct summation over exact rationals."""
    t = Fraction(tau)
    total = Fraction(0)
    for l in range(k, n + 1):
        total += math.comb(n, l) * t**l * (1 - t) ** (n - l)
    return total


def test_binomial_tail_whole_sample_space():
    assert binomial_tail(65, 0, 0.05) == 1.0


def test_binomial_tail_single_bernoulli():
    assert math.isclose(binomial_tail(1, 1, 0.05), 0.05, rel_tol=1e-12)


def test_binomial_tail_deep_tail_vs_exact_oracle():
    value = binomial_tail(65, 27, 0.05)
    oracle = exact_tail(65, 27, 0.05)
    assert value < 1e-15
    assert abs(value - float(oracle)) <= 1e-12 * float(oracle)


def test_binomial_tail_nonincreasing_in_k():
    vals = [binomial_tail(40, k, 0.05) for k in range(41)]
    assert vals[0] == 1.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert math.isclose(vals[-1], 0.05**40, rel_tol=1e-12)


@given(
    n=st.integers(min_value=1, max_value=60),
    k_frac=st.floats(min_value=0, max_value=1),
    tau=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
)
@settings(max_examples=60, deadline=None)
def test_binomial_tail_property_matches_oracle(n, k_frac, tau):
    k = int(round(k_frac * n))
    value = binomial_tail(n, k, tau)
    oracle = float(exact_tail(n, k, tau))
    assert abs(value - oracle) <= 1e-12 * max(oracle, 1e-300)


def test_binomial_tail_domain_errors():
    with pytest.raises(StatError):
        binomial_tail(10, 11, 0.05)
    with pytest.raises(StatError):
        binomial_tail(10, -1, 0.05)
    with pytest.raises(StatError):
        binomial_tail(10, 2, 0.0)
    with pytest.raises(StatError):
        binomial_tail(10, 2, 1.0)


@pytest.mark.parametrize("tau", [0.01, 0.05, 0.5])
def test_bernoulli_test_of_zero_trials_gives_p_one(tau):
    result = bernoulli_test(0, 0, tau)
    assert (result.n_trials, result.n_significant, result.threshold, result.p_value) == (0, 0, tau, 1.0)
