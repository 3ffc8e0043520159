"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The detection run (criterion 7) trains a full VAE and takes a few
minutes; everything else is fast.
"""

import time

import numpy as np
import pytest
from conftest import mass_of

from gpp_extremes import compare, extremes, grid, ssa, vae


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. closed-form KL vs Monte Carlo

def test_criterion_1_kl_closed_form_vs_monte_carlo():
    t0 = time.time()
    rng = np.random.default_rng(20250801)
    n_samples = 1_000_000
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(-1.0, 1.0, size=(1, 5))
        logvar = rng.uniform(-1.0, 1.0, size=(1, 5))
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((n_samples, 5))
        log_q = -0.5 * (np.log(2 * np.pi) + logvar + ((z - mu) / sigma) ** 2).sum(axis=1)
        log_p = -0.5 * (np.log(2 * np.pi) + z ** 2).sum(axis=1)
        mc = float((log_q - log_p).mean())
        closed = vae.kl_divergence(mu, logvar)[0]
        worst = max(worst, abs(closed - mc) / abs(closed))
    elapsed = time.time() - t0
    assert worst < 0.01
    assert elapsed < 30.0
    report(1, f"20 pairs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. full VAE loss gradients vs finite differences

def test_criterion_2_gradients_vs_finite_differences():
    # seed chosen so no ReLU pre-activation sits within the 1e-5 FD step
    # of its kink (a gate flip makes central differences meaningless there)
    t0 = time.time()
    rng = np.random.default_rng(1)
    cfg = vae.TrainConfig(hidden_dims=(8, 4), latent_dim=2, dropout_rate=0.05)
    model = vae.build_model(cfg, -1.0, 1.0, rng)
    params = list(model.params)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=(1, 12))
        eps = rng.standard_normal((1, 2))
        enc_masks, dec_masks = vae.draw_dropout_masks(model, 1, rng)

        def loss():
            (t, _, _), _ = vae.loss_and_grads(
                model, x, eps, enc_masks=enc_masks, dec_masks=dec_masks
            )
            return t

        _, grads = vae.loss_and_grads(
            model, x, eps, enc_masks=enc_masks, dec_masks=dec_masks
        )
        for p, g in zip(params, grads):
            flat, gflat = p.ravel(), g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = loss()
                flat[k] = orig - h
                lm = loss()
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[k]), 1e-8)
                worst = max(worst, abs(fd - gflat[k]) / denom)
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 10.0
    report(2, f"10 points, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. SSA exact decomposition

def test_criterion_3_ssa_exact_decomposition():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        series = rng.normal(size=372)
        dec = ssa.decompose_series(series, ssa.SsaConfig())
        total = dec.trend + dec.seasonal + dec.residual
        worst = max(worst, np.linalg.norm(total - series) / np.linalg.norm(series))
    assert worst < 1e-8
    report(3, f"50 series, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. SSA trend/seasonal separation at SNR 10

def test_criterion_4_ssa_separation():
    rng = np.random.default_rng(44)
    t = np.arange(372.0)
    trend_true = 100.0 + 30.0 * (t / 372.0) ** 2 + 0.05 * t
    annual_true = 12.0 * np.sin(2 * np.pi * t / 12.0)
    noise_std = annual_true.std() / 10.0  # SNR 10 on the annual component
    series = trend_true + annual_true + rng.normal(0, noise_std, size=372)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    interior = slice(12, 360)
    trend_rmse = np.sqrt(((dec.trend - trend_true)[interior] ** 2).mean())
    trend_range = trend_true.max() - trend_true.min()
    seasonal_ratio = dec.seasonal[interior].var() / annual_true[interior].var()
    assert trend_rmse < 0.05 * trend_range
    assert seasonal_ratio >= 0.95
    report(
        4,
        f"trend RMSE {trend_rmse:.2f} < 5% of range {trend_range:.1f}, "
        f"seasonal variance ratio {seasonal_ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. threshold protocol flag fractions

def test_criterion_5_flag_fractions():
    rng = np.random.default_rng(55)
    for n_cells, n_months in ((10, 372), (40, 132), (4, 732)):
        anoms = grid.MassSeries(
            values=rng.normal(0, 40, size=(n_cells, n_months)),
            cells=np.arange(n_cells),
            start_year=1850,
            start_month=1,
        )
        valid = extremes.valid_months(n_months)
        ts = extremes.compute_thresholds(anoms, valid)
        flags = extremes.classify(anoms, valid, ts)
        n = flags[:, valid].size
        assert n >= 1000
        neg = (flags == extremes.NEG).sum() / n
        pos = (flags == extremes.POS).sum() / n
        assert abs(neg - 0.05) <= 1.0 / n
        assert abs(pos - 0.05) <= 1.0 / n
    report(5, f"three pools, last N={n}, neg {neg:.4f}, pos {pos:.4f}")


# ---------------------------------------------------------------------------
# 6. edge trimming arithmetic

def test_criterion_6_edge_trimming():
    valid = extremes.valid_months(372)
    n_valid = len(range(372)[valid])
    assert n_valid == 348
    # 1850-80 input: first valid month is Jan 1851, last is Dec 1879
    first, last = valid.start, valid.stop - 1
    assert 1850 + first // 12 == 1851
    assert 1850 + last // 12 == 1879
    report(6, f"372 months -> {n_valid} valid (1851-79)")


# ---------------------------------------------------------------------------
# 7. injected-event recall and cross-method agreement

def detection_dataset():
    """10x10 grid, 31 years, 20 suppressions in high-signal months.

    Monthly flux noise is Student-t (df 6): observed GPP anomaly
    distributions are heavy-tailed, and both detectors must agree on
    tail membership, not just on the injected events.
    """
    rng = np.random.default_rng(99)
    events = []
    while len(events) < 20:
        cell = int(rng.integers(0, 100))
        year = int(rng.integers(2, 29))
        phase = int(rng.integers(1, 4))  # high-signal months of the annual cycle
        start = year * 12 + phase
        length = int(rng.integers(1, 4))
        if any(cell == e.cell and abs(start - e.start) < 12 for e in events):
            continue
        events.append(grid.SynthEvent(cell, start, length, float(rng.uniform(0.9, 1.0))))
    spec = grid.SynthSpec(
        n_lat=10,
        n_lon=10,
        n_months=372,
        noise_std=1.2e-6,
        noise_df=6,
        cell_variation=0.15,
        events=tuple(events),
    )
    g, truth = grid.synth_generate(spec, seed=42)
    mask = grid.RegionMask("R", np.arange(100))
    return mass_of(g, mask), truth, spec, mask


@pytest.mark.slow
def test_criterion_7_injected_event_recall_and_jaccard():
    mass, truth, spec, mask = detection_dataset()

    # premise check: every injected suppression removes >= 3x the noise
    # scale. Noise-free twins (same seed) isolate the designed suppression;
    # the event-free noisy twin isolates the noise.
    from dataclasses import replace

    quiet, _ = grid.synth_generate(replace(spec, noise_std=0.0), seed=42)
    quiet_ref, _ = grid.synth_generate(replace(spec, noise_std=0.0, events=()), seed=42)
    noisy_ref, _ = grid.synth_generate(replace(spec, events=()), seed=42)
    ref = mass_of(quiet_ref, mask)
    suppressed_ggc = (ref.values - mass_of(quiet, mask).values)[truth]
    noise_ggc = (mass_of(noisy_ref, mask).values - ref.values).std()
    assert suppressed_ggc.min() >= 3.0 * noise_ggc

    t0 = time.time()
    an_ssa = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    rep_ssa = extremes.build_report(an_ssa, "R", "P", "ssa")
    t_ssa = time.time() - t0

    t0 = time.time()
    cfg = vae.TrainConfig(max_epochs=60, seed=7, batch_size=128, likelihood_var=0.05)
    model, _ = vae.train(mass, cfg)
    an_vae = vae.vae_anomalies(model, mass)
    rep_vae = extremes.build_report(an_vae, "R", "P", "vae")
    t_vae = time.time() - t0

    injected = np.zeros_like(truth)
    injected[:, rep_ssa.valid] = truth[:, rep_ssa.valid]
    recall_ssa = float((rep_ssa.flags[injected] == extremes.NEG).mean())
    recall_vae = float((rep_vae.flags[injected] == extremes.NEG).mean())
    stats = compare.compare_methods(
        "R", "P", rep_vae.flags, rep_ssa.flags, rep_vae.thresholds.q_neg, rep_ssa.thresholds.q_neg,
        *((r.monthly_mag_neg.sum(), r.monthly_mag_pos.sum()) for r in (rep_vae, rep_ssa)),
    )

    assert t_ssa < 600.0
    assert t_vae < 1200.0
    assert recall_ssa >= 0.8
    assert recall_vae >= 0.8
    assert stats.jaccard_neg >= 0.5
    report(
        7,
        f"recall ssa {recall_ssa:.2f} / vae {recall_vae:.2f}, "
        f"jaccard {stats.jaccard_neg:.3f}, ssa {t_ssa:.0f}s, vae {t_vae:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. VAE convergence on pure annual cycles

def test_criterion_8_vae_convergence():
    spec = grid.SynthSpec(n_lat=3, n_lon=3, n_months=120, noise_std=0.0, cell_variation=0.3)
    g, _ = grid.synth_generate(spec, seed=1)
    mass = mass_of(g, grid.RegionMask("all", np.arange(9)))
    cfg = vae.TrainConfig(max_epochs=200, seed=11, batch_size=64)
    _, hist = vae.train(mass, cfg)
    recons = [h["val_recon"] for h in hist["epochs"]]
    crossing = next((i + 1 for i, r in enumerate(recons) if r < 0.01), None)
    assert crossing is not None and crossing <= 200
    report(8, f"val recon MSE < 0.01 at epoch {crossing} (final {min(recons):.4f})")


# ---------------------------------------------------------------------------
# 9. byte-identical end-to-end determinism

def test_criterion_9_pipeline_determinism(tmp_path):
    import json

    from gpp_extremes import cli

    def run_all(out_dir):
        config = {
            "schema_version": 1,
            "seed": 77,
            "out_dir": str(out_dir),
            "synth": {
                "name": "det",
                "n_lat": 2,
                "n_lon": 2,
                "n_months": 48,
                "noise_std": 4e-7,
                "cell_variation": 0.2,
                "events": [{"cell": 0, "start": 20, "length": 2, "suppression": 0.8}],
            },
            "grid": {"path": str(out_dir / "det")},
            "regions": [{"name": "quad", "cells": [0, 1, 2, 3]}],
            "periods": [{"name": "p1", "start_year": 1850, "end_year": 1853}],
            "method": "both",
            "train": {"max_epochs": 6, "batch_size": 32, "hidden_dims": [16, 8],
                      "latent_dim": 2},
            "ssa": {"window": 18},
        }
        cfg_path = out_dir / "config.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(config))
        for command in ("synth", "train", "extremes"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        return out_dir

    a = run_all(tmp_path / "a")
    b = run_all(tmp_path / "b")
    compared = 0
    for fa in sorted(a.rglob("*")):
        if fa.is_dir() or fa.name == "config.json":
            continue
        fb = b / fa.relative_to(a)
        assert fb.exists(), f"missing {fb}"
        assert fa.read_bytes() == fb.read_bytes(), f"differs: {fa.name}"
        compared += 1
    assert compared >= 20
    report(9, f"{compared} output files byte-identical across runs")


# ---------------------------------------------------------------------------
# 10. threshold table shape fidelity

def test_criterion_10_threshold_table_shape():
    regions = ["WNA", "CNA", "ENA", "NCA"]
    periods = ["1850-80", "1950-80", "2050-80"]
    rng = np.random.default_rng(10)
    stats = []
    for region in regions:
        for period in periods:
            q_vae = float(rng.uniform(150, 800))
            stats.append(
                compare.AgreementStats(
                    region=region,
                    period=period,
                    freq_correlation=1.0,
                    jaccard_neg=1.0,
                    jaccard_pos=1.0,
                    threshold_vae=q_vae,
                    threshold_ssa=q_vae * 0.8,
                    cumulative_neg_vae=-1000.0,
                    cumulative_neg_ssa=-1200.0,
                    cumulative_pos_vae=1500.0,
                    cumulative_pos_ssa=1300.0,
                )
            )
    rows = compare.threshold_table(stats)
    assert rows[0] == ["Region", "Period", "VAE (GgC)", "SSA (GgC)"]
    assert len(rows) == 13
    assert all(len(r) == 4 for r in rows)
    order = [(r[0], r[1]) for r in rows[1:]]
    assert order == [(r, p) for r in regions for p in periods]
    report(10, "4 columns, 12 rows, region-major period-minor order")
