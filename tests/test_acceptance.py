"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from fairjudge.cli import EXIT_OK, main
from fairjudge.fixtures import default_label_specs, generate_fixture, simulate_predictions
from fairjudge.gateway import ModelConfig, run_generation
from fairjudge.metrics import PredictionTable, summarize
from fairjudge.statcore import (
    binomial_tail,
    drop_singletons,
    fe_regress,
    ols,
    within_demean,
)
from stub_server import StubServer, doc_id_of

from test_metrics import comparison_corpus, flip_records


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


# --- 1. FWL oracle ---------------------------------------------------------

def random_frame(rng):
    from test_statcore import random_panel_frame

    return random_panel_frame(rng, n_docs=int(rng.integers(4, 51)), n_cols=int(rng.integers(1, 5)))


def test_fwl_oracle_100_fixtures():
    from test_statcore import hand_sandwich

    with criterion("FWL oracle: fe_regress == explicit-dummy OLS + hand sandwich (100 fixtures, 1e-8)"):
        rng = np.random.default_rng(20240815)
        for trial in range(100):
            frame = random_frame(rng)
            res = fe_regress(frame)

            groups = sorted(set(frame.group_ids))
            D = np.column_stack([(frame.group_ids == g).astype(float) for g in groups])
            full = np.hstack([frame.X, D])
            beta_full, *_ = np.linalg.lstsq(full, frame.y, rcond=None)
            resid_oracle = frame.y - full @ beta_full
            assert np.allclose(res.coefficients, beta_full[: frame.X.shape[1]], atol=1e-8)

            # Residuals from the within pipeline must match the dummy regression,
            # and its coefficients are fe_regress's own, bit for bit.
            kept, _ = drop_singletons(frame)
            demeaned = within_demean(kept)
            coef_within, resid_within, _ = ols(demeaned.X, demeaned.y)
            assert np.allclose(resid_within, resid_oracle, atol=1e-8)
            assert np.array_equal(coef_within, res.coefficients, equal_nan=True)

            # Independent SEs: project out the dummies explicitly.
            P = D @ np.linalg.pinv(D)
            Xt = frame.X - P @ frame.X
            V = hand_sandwich(Xt, resid_oracle, list(frame.group_ids), n_coef=frame.X.shape[1])
            assert np.allclose(res.std_errors(), np.sqrt(np.diag(V)), atol=1e-8)


# --- 2. Binomial oracle ----------------------------------------------------

def test_binomial_tail_oracle_grid():
    with criterion("Binomial oracle: exact-rational tail over N in 1..100, 3 taus (1e-12 rel)"):
        for tau in (0.01, 0.05, 0.1):
            t = Fraction(tau)
            one = 1 - t
            for n in range(1, 101):
                pmf = [comb(n, l) * t**l * one ** (n - l) for l in range(n + 1)]
                tail = Fraction(0)
                exact = [Fraction(1)] * (n + 2)
                for l in range(n, -1, -1):
                    tail += pmf[l]
                    exact[l] = tail
                for k in range(0, n + 1):
                    got = binomial_tail(n, k, tau)
                    want = float(exact[k])
                    assert abs(got - want) <= 1e-12 * want, (n, k, tau)
        assert binomial_tail(65, 27, 0.05) < 1e-10  # the "0.00" display case


# --- 3. Null calibration ---------------------------------------------------

def test_null_calibration_500_replications():
    with criterion("Null calibration: rejection rate in [0.03, 0.07], Bernoulli-p<0.05 fraction in [0.02, 0.08]"):
        corpus, _ = generate_fixture(seed=42, n_docs=300, label_specs=default_label_specs(10))
        n_rejected = n_tested = n_bern_below = 0
        reps = 500
        for rep in range(reps):
            records = simulate_predictions(
                corpus, "m", seed=1000 + rep, noise_sigma=0.25, error_scale=0.0
            )
            summary, findings, _, _ = summarize(PredictionTable.build(records, corpus), corpus, tau=0.05)[0]
            findings, bern = [f for f in findings if f.metric == "bias"], summary.bias_bernoulli
            n_tested += len(findings)
            n_rejected += sum(f.significant for f in findings)
            n_bern_below += bern.p_value < 0.05
        rate = n_rejected / n_tested
        frac = n_bern_below / reps
        assert 0.03 <= rate <= 0.07, f"per-label rejection rate {rate}"
        assert 0.02 <= frac <= 0.08, f"Bernoulli p<0.05 fraction {frac}"


# --- 4. Power --------------------------------------------------------------

def test_power_200_replications():
    with criterion("Power: planted e^0.3 bias and error-doubling each flagged in >= 90% of 200 reps"):
        corpus, _ = generate_fixture(seed=7, n_docs=300, label_specs=default_label_specs(2))
        reps = 200
        bias_hits = imb_hits = 0
        for rep in range(reps):
            records = simulate_predictions(
                corpus, "m", seed=2000 + rep, bias_effects={"L01": 0.3},
                noise_sigma=0.25, error_scale=0.0,
            )
            _, findings, _, _ = summarize(PredictionTable.build(records, corpus), corpus, tau=0.05)[0]
            bias_hits += {f.label_id: f.significant for f in findings if f.metric == "bias"}["L01"]

            records = simulate_predictions(
                corpus, "m", seed=3000 + rep, error_multipliers={"L02": 2.0},
                noise_sigma=0.05, error_scale=0.2,
            )
            _, findings, _, _ = summarize(PredictionTable.build(records, corpus), corpus, tau=0.05)[0]
            imb_hits += {f.label_id: f.significant for f in findings if f.metric == "imbalance"}["L02"]
        assert bias_hits / reps >= 0.9, f"bias power {bias_hits / reps}"
        assert imb_hits / reps >= 0.9, f"imbalance power {imb_hits / reps}"


# --- 5. Inconsistency exactness --------------------------------------------

def test_inconsistency_exact_rational():
    with criterion("Inconsistency exactness: w=(10,30), p=(0.1,0.3) -> aggregate exactly 0.25"):
        corpus = comparison_corpus(10, 30)
        summary, _, rows, _ = summarize(PredictionTable.build(flip_records(corpus, 1, 9), corpus), corpus)[0]
        aggregate = summary.inconsistency
        by_label = {r.label_id: (r.w_l, r.n_changed) for r in rows}
        assert by_label == {"A": (10, 1), "B": (30, 9)}
        assert Fraction(aggregate) == Fraction(1, 4)  # exactly representable, no tolerance
        ps = {r.label_id: r.p_l for r in rows}
        # Each p_l is the correctly rounded value of its exact rational.
        assert ps == {"A": float(Fraction(1, 10)), "B": float(Fraction(3, 10))}


# --- 6. End-to-end offline --------------------------------------------------

def test_end_to_end_offline_golden(tmp_path):
    with criterion("End-to-end offline: fixture -> analyze -> report, exit 0, golden-stable"):
        fx = tmp_path / "fx"
        assert main(["fixture", "--seed", "11", "--out", str(fx)]) == EXIT_OK
        prediction_args = []
        for p in sorted(fx.glob("predictions_*.jsonl")):
            prediction_args += ["--predictions", str(p)]
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            code = main(["analyze", "--corpus", str(fx), *prediction_args, "--out", str(out)])
            assert code == EXIT_OK
            for name in ("summary.csv", "summary.json", "report.html"):
                assert (out / name).exists(), name
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name


# --- 7. Gateway contract ----------------------------------------------------

def test_gateway_contract(tmp_path, monkeypatch):
    with criterion("Gateway contract: record counts, cache idempotence, bounded concurrency, poison isolation"):
        monkeypatch.setenv("FAIRJUDGE_TEST_KEY", "k")
        corpus, _ = generate_fixture(seed=3, n_docs=25, label_specs=default_label_specs(3))
        # 25 baselines + 75 variants = 100 records; poison one variant query.

        def responder(prompt):
            if doc_id_of(prompt) == "D00007" and "L02=v1" in prompt:
                return 200, "the court is adjourned"
            return 200, json.dumps({"sentence_months": 30})

        config = ModelConfig(
            api_url="",  # set below
            model_name="contract-model",
            api_key_env="FAIRJUDGE_TEST_KEY",
            max_concurrency=5,
            max_retries=1,
            retry_base_delay_s=0.01,
        )
        with StubServer(responder, delay_s=0.005) as server:
            config = ModelConfig(**{**config.__dict__, "api_url": server.url})
            first = run_generation(corpus, config, tmp_path)
            calls_after_first = server.request_count
            second = run_generation(corpus, config, tmp_path)
            assert server.request_count == calls_after_first  # warm cache: zero requests
            assert server.high_water <= config.max_concurrency

        assert len(first) == 25 + 75
        assert len({r.sort_key() for r in first}) == 100  # no record lost or duplicated
        missing = [r for r in first if r.predicted_months is None]
        assert len(missing) == 1
        assert (missing[0].doc_id, missing[0].label_id, missing[0].variant_value) == ("D00007", "L02", "v1")
        assert first == second


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
