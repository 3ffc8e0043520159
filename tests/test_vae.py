import json

import numpy as np
import pytest

from gpp_extremes import grid, kernels, nn, vae
from gpp_extremes.errors import (
    ConfigError,
    DegenerateInputError,
    FormatError,
    NumericalError,
    ShapeError,
)


def tiny_model(rng, hidden=(8, 4), latent=2, dropout=0.0, beta=0.5):
    cfg = vae.TrainConfig(
        hidden_dims=hidden, latent_dim=latent, dropout_rate=dropout, beta=beta
    )
    return vae.build_model(cfg, -1.0, 1.0, rng), cfg


def zero_model(rng, latent=3):
    model, _ = tiny_model(rng, latent=latent)
    for p in model.parameters():
        p[...] = 0.0
    return model


def annual_mass(n_cells=4, n_months=120, seed=1, noise=0.0, variation=0.2):
    n_lat = int(np.sqrt(n_cells))
    spec = grid.SynthSpec(
        n_lat=n_lat, n_lon=n_cells // n_lat, n_months=n_months,
        noise_std=noise, cell_variation=variation,
    )
    g, _ = grid.synth_generate(spec, seed=seed)
    return grid.flux_to_mass(g, grid.RegionMask("all", np.arange(n_cells)))


# ---------------------------------------------------------------------------
# normalization

def test_normalize_endpoints():
    mass = grid.MassSeries(
        values=np.concatenate([[0.0, 10.0], np.full(10, 5.0)])[None, :],
        cells=np.array([0]),
        start_year=1850,
        start_month=1,
    )
    ws, (lo, hi) = vae.normalize(mass)
    assert (lo, hi) == (0.0, 10.0)
    assert ws.windows.min() == -1.0
    assert ws.windows.max() == 1.0


def test_normalize_constant_field_rejected():
    mass = grid.MassSeries(
        values=np.full((2, 24), 7.0), cells=np.array([0, 1]),
        start_year=1850, start_month=1,
    )
    with pytest.raises(DegenerateInputError):
        vae.normalize(mass)


def test_normalize_roundtrip(rng):
    mass = annual_mass()
    ws, (lo, hi) = vae.normalize(mass)
    back = vae.denormalize(vae.scale_to_unit(mass.values, lo, hi), lo, hi)
    np.testing.assert_allclose(back, mass.values, rtol=1e-12)


def test_normalize_window_count():
    mass = annual_mass(n_cells=4, n_months=48)
    ws, _ = vae.normalize(mass)
    assert len(ws) == 4 * (48 - 11)
    assert ws.windows.shape == (len(ws), 12)
    # provenance points back at the source values
    k = 77
    c, s = ws.cells[k], ws.starts[k]
    np.testing.assert_allclose(
        vae.denormalize(ws.windows[k], ws.x_min, ws.x_max),
        mass.values[c, s:s + 12],
        rtol=1e-12,
    )


# ---------------------------------------------------------------------------
# encode / reparameterize / decode

def test_encode_zero_weights_gives_zero(rng):
    model = zero_model(rng)
    mu, logvar = vae.encode(model, np.full(12, 0.5))
    np.testing.assert_array_equal(mu, np.zeros(3))
    np.testing.assert_array_equal(logvar, np.zeros(3))


def test_encode_eval_deterministic(rng):
    model, _ = tiny_model(rng, dropout=0.3)
    w = rng.uniform(-1, 1, 12)
    a = vae.encode(model, w)
    b = vae.encode(model, w)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_encode_output_dims(rng):
    model, _ = tiny_model(rng, latent=5)
    mu, logvar = vae.encode(model, rng.uniform(-1, 1, 12))
    assert mu.shape == (5,)
    assert logvar.shape == (5,)


def test_reparameterize_zero_variance_limit():
    mu = np.array([0.3, -0.7])
    z = vae.reparameterize(mu, np.full(2, -1e6), eps=np.ones(2))
    np.testing.assert_array_equal(z, mu)


def test_reparameterize_unit_case():
    z = vae.reparameterize(np.zeros(3), np.zeros(3), eps=np.ones(3))
    np.testing.assert_array_equal(z, np.ones(3))


def test_reparameterize_sample_mean(rng):
    mu = np.array([0.5])
    logvar = np.array([0.2])
    sigma = np.exp(0.1)
    n = 1_000_000
    z = vae.reparameterize(np.full(n, 0.5), np.full(n, 0.2), rng=rng)
    assert abs(z.mean() - 0.5) < 4 * sigma / np.sqrt(n)


def test_decode_bounded_by_tanh(rng):
    model, _ = tiny_model(rng)
    for _ in range(20):
        out = vae.decode(model, rng.normal(size=2) * 5)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_decode_zero_weights(rng):
    model = zero_model(rng)
    np.testing.assert_array_equal(vae.decode(model, np.ones(3)), np.zeros(12))


# ---------------------------------------------------------------------------
# loss terms

def test_kl_prior_is_zero():
    assert vae.kl_divergence(np.zeros(4), np.zeros(4)) == 0.0


def test_kl_hand_value():
    # -1/2 (1 + 0 - 1 - 1) = 0.5 for mu=1, logvar=0
    assert vae.kl_divergence(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)


def test_kl_non_negative(rng):
    for _ in range(200):
        mu = rng.uniform(-3, 3, size=5)
        logvar = rng.uniform(-3, 3, size=5)
        assert vae.kl_divergence(mu, logvar) >= 0.0


def test_kl_matches_monte_carlo(rng):
    # KL(q||p) = E_q[log q(z) - log p(z)], estimated from q samples
    for _ in range(3):
        mu = rng.uniform(-1, 1, size=5)
        logvar = rng.uniform(-1, 1, size=5)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((200_000, 5))
        log_q = -0.5 * (np.log(2 * np.pi) + logvar + (z - mu) ** 2 / sigma ** 2).sum(axis=1)
        log_p = -0.5 * (np.log(2 * np.pi) + z ** 2).sum(axis=1)
        mc = (log_q - log_p).mean()
        closed = vae.kl_divergence(mu, logvar)
        assert abs(closed - mc) / abs(closed) < 0.02


def test_vae_loss_zero_case():
    x = np.linspace(-1, 1, 12)
    total, recon, kl = vae.vae_loss(x, x, np.zeros(2), np.zeros(2), beta=0.5)
    assert total == 0.0 and recon == 0.0 and kl == 0.0


def test_vae_loss_beta_zero():
    x = np.linspace(-1, 1, 12)
    xhat = x + 0.1
    total, recon, kl = vae.vae_loss(x, xhat, np.ones(2), np.zeros(2), beta=0.0)
    assert total == recon
    assert kl > 0


def test_vae_loss_matches_recomputation(rng):
    x = rng.uniform(-1, 1, 12)
    xhat = rng.uniform(-1, 1, 12)
    mu = rng.uniform(-1, 1, 3)
    logvar = rng.uniform(-1, 1, 3)
    total, recon, kl = vae.vae_loss(x, xhat, mu, logvar, beta=0.7)
    recon_ref = float(np.mean((x - xhat) ** 2))
    kl_ref = float(-0.5 * np.sum(1 + logvar - mu ** 2 - np.exp(logvar)))
    assert recon == pytest.approx(recon_ref, abs=1e-15)
    assert kl == pytest.approx(kl_ref, abs=1e-15)
    assert total == pytest.approx(recon_ref + 0.7 * kl_ref, abs=1e-15)


# ---------------------------------------------------------------------------
# gradients

def test_objective_gradients_match_fd(rng):
    model, cfg = tiny_model(rng, dropout=0.1)
    params = model.parameters()
    x = rng.uniform(-1, 1, size=(3, 12))
    eps = rng.standard_normal((3, 2))
    enc_masks = vae.draw_dropout_masks(model.encoder, 3, rng)
    dec_masks = vae.draw_dropout_masks(model.decoder, 3, rng)

    def loss():
        (t, _, _), _ = vae.loss_and_grads(
            model, x, eps, enc_masks=enc_masks, dec_masks=dec_masks
        )
        return t

    _, grads = vae.loss_and_grads(model, x, eps, enc_masks=enc_masks, dec_masks=dec_masks)
    h = 1e-5
    worst = 0.0
    for p, g in zip(params, grads):
        flat, gflat = p.ravel(), g.ravel()
        step = max(1, flat.size // 5)
        for k in range(0, flat.size, step):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss()
            flat[k] = orig - h
            lm = loss()
            flat[k] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[k]), 1e-8)
            worst = max(worst, abs(fd - gflat[k]) / denom)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# training protocol

def pure_annual_windows(n_cells=4, n_months=120):
    ws, _ = vae.normalize(annual_mass(n_cells, n_months))
    return ws


def test_train_early_stop_patience_arithmetic():
    # lr = 0 freezes the model, validation loss is constant, training must
    # halt after 1 + patience epochs
    ws = pure_annual_windows()
    cfg = vae.TrainConfig(
        max_epochs=500, learning_rate=0.0, early_stop_patience=50, seed=0
    )
    _, hist = vae.train(ws, cfg)
    assert len(hist["epochs"]) == 51
    assert hist["best_epoch"] == 1


def test_train_history_bounded():
    ws = pure_annual_windows()
    cfg = vae.TrainConfig(max_epochs=7, seed=0)
    _, hist = vae.train(ws, cfg)
    assert len(hist["epochs"]) <= 7


def test_train_deterministic_replay():
    ws = pure_annual_windows()
    cfg = vae.TrainConfig(max_epochs=6, seed=123)
    m1, h1 = vae.train(ws, cfg)
    m2, h2 = vae.train(ws, cfg)
    assert h1 == h2
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert a.tobytes() == b.tobytes()


def test_train_lr_schedule_halves():
    ws = pure_annual_windows()
    cfg = vae.TrainConfig(
        max_epochs=40, learning_rate=0.0, early_stop_patience=30,
        plateau_patience=5, seed=0,
    )
    _, hist = vae.train(ws, cfg)
    lrs = [h["lr"] for h in hist["epochs"]]
    for a, b in zip(lrs, lrs[1:]):
        assert b <= a
        assert b == a or b == a * 0.5
    assert lrs[-1] < lrs[0] or lrs[0] == 0.0
    # an actual decay sequence with nonzero lr
    cfg2 = vae.TrainConfig(max_epochs=30, learning_rate=0.005, seed=3,
                           early_stop_patience=25)
    _, hist2 = vae.train(ws, cfg2)
    lrs2 = [h["lr"] for h in hist2["epochs"]]
    for a, b in zip(lrs2, lrs2[1:]):
        assert b == a or b == pytest.approx(a * 0.5)


def test_train_divergence_reports_epoch_and_batch():
    import warnings

    from gpp_extremes.errors import NumericalError

    ws = pure_annual_windows()
    cfg = vae.TrainConfig(max_epochs=10, learning_rate=1e8, batch_size=32,
                          hidden_dims=(16, 8), latent_dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="epoch"):
            vae.train(ws, cfg)


def test_train_requires_enough_windows():
    ws = pure_annual_windows(4, 14)
    with pytest.raises(ConfigError):
        vae.train(ws, vae.TrainConfig(batch_size=64))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        vae.TrainConfig(validation_fraction=1.5)
    with pytest.raises(ConfigError):
        vae.TrainConfig(plateau_factor=1.0)
    with pytest.raises(ConfigError):
        vae.TrainConfig(latent_dim=0)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_coverage_arithmetic():
    # stride-1 windows: month m is covered by min(m+1, 12, n-m) windows,
    # so month 11 is the first with full 12-window coverage
    windows = np.ones((50, 12))
    series = kernels.overlap_average(windows)
    counts = kernels._antidiag_counts(12, 50)
    assert counts[10] == 11
    assert counts[11] == 12
    assert counts[12] == 12
    assert series.shape == (61,)


def test_reconstruct_output_shape_and_validity(rng):
    mass = annual_mass(4, 60)
    ws, _ = vae.normalize(mass)
    model, _ = tiny_model(rng)
    model.x_min, model.x_max = ws.x_min, ws.x_max
    recon = vae.reconstruct(model, mass)
    assert recon.values.shape == mass.values.shape
    assert recon.valid.sum() == 60 - 24
    assert not recon.valid[:12].any()
    assert not recon.valid[-12:].any()


def test_reconstruct_overfit_oracle():
    # a model deliberately overfit on one repeating window (beta = 0, no
    # dropout) behaves like the identity; the tanh output saturating
    # towards the +-1 normalization endpoints sets the error floor
    mass = annual_mass(1, 72, variation=0.0)
    ws, _ = vae.normalize(mass)
    cfg = vae.TrainConfig(
        max_epochs=800, batch_size=32, seed=5, dropout_rate=0.0, beta=0.0,
        hidden_dims=(48, 24), latent_dim=4, likelihood_var=0.01,
        plateau_patience=60, early_stop_patience=200,
    )
    model, hist = vae.train(ws, cfg)
    recon = vae.reconstruct(model, mass)
    scaled_orig = vae.scale_to_unit(mass.values, model.x_min, model.x_max)
    scaled_recon = vae.scale_to_unit(recon.values, model.x_min, model.x_max)
    err = np.abs(scaled_recon - scaled_orig)[:, recon.valid]
    assert err.max() < 0.02


def test_vae_anomalies_sign_convention():
    mass = annual_mass(2, 48)
    recon_values = mass.values.copy()
    recon_values[0, 20] += 5.0  # reconstruction above original
    valid = np.zeros(48, dtype=bool)
    valid[12:36] = True
    recon = grid.MassSeries(
        values=recon_values, cells=mass.cells,
        start_year=mass.start_year, start_month=mass.start_month, valid=valid,
    )
    anoms = vae.vae_anomalies(mass, recon)
    assert anoms.method == "vae"
    assert anoms.values[0, 20] == -5.0  # suppressed productivity is negative
    assert anoms.values[1, 20] == 0.0
    np.testing.assert_array_equal(anoms.valid, valid)


def test_vae_anomalies_misaligned_rejected():
    mass = annual_mass(2, 48)
    recon = grid.MassSeries(
        values=mass.values[:, :36], cells=mass.cells,
        start_year=mass.start_year, start_month=mass.start_month,
    )
    with pytest.raises(ShapeError):
        vae.vae_anomalies(mass, recon)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path, rng):
    model, _ = tiny_model(rng, hidden=(16, 8), latent=3)
    model.x_min, model.x_max = 2.5, 9.0
    vae.save_checkpoint(model, tmp_path / "m", seed=4, epoch=17)
    loaded, manifest = vae.load_checkpoint(tmp_path / "m")
    assert manifest["epoch"] == 17
    assert loaded.latent_dim == 3
    assert (loaded.x_min, loaded.x_max) == (2.5, 9.0)
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.tobytes() == b.tobytes()
    w = rng.uniform(-1, 1, 12)
    np.testing.assert_array_equal(vae.encode(model, w)[0], vae.encode(loaded, w)[0])


@pytest.mark.parametrize("field, value", [
    ("input_dim", 24),
    ("activation_hidden", "tanh"),
    ("activation_output", "linear"),
])
def test_checkpoint_architecture_mismatch_is_a_format_error(tmp_path, rng, field, value):
    model, _ = tiny_model(rng)
    vae.save_checkpoint(model, tmp_path / "m", seed=4, epoch=1)
    header = tmp_path / "m.json"
    manifest = json.loads(header.read_text())
    manifest[field] = value
    header.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=field):
        vae.load_checkpoint(tmp_path / "m")


# ---------------------------------------------------------------------------
# flat parameter buffer

def test_parameters_are_views_of_one_buffer(rng):
    model, _ = tiny_model(rng)
    params = model.parameters()
    assert sum(p.size for p in params) == model.params.flat.size
    for p in params:
        assert np.shares_memory(p, model.params.flat)
    assert np.shares_memory(model.encoder.layers[0].weights, model.params.flat)
    assert np.shares_memory(model.decoder.layers[-1].bias, model.params.flat)


def test_nan_gradient_names_its_parameter_index(rng):
    model, cfg = tiny_model(rng)
    x = rng.uniform(-1, 1, size=(4, 12))
    eps = rng.standard_normal((4, cfg.latent_dim))
    _, grads = vae.loss_and_grads(model, x, eps, rng=rng)
    opt = nn.AdamState.for_params(model.params, lr=0.01)
    nn.adam_step(opt, model.params, grads)
    grads[5][0] = np.nan  # the mean head's bias
    with pytest.raises(NumericalError, match=r"parameter 5 at Adam step 2"):
        nn.adam_step(opt, model.params, grads)


def test_checkpoint_save_load_save_bytes_identical(tmp_path, rng):
    windows, _ = vae.normalize(annual_mass(noise=0.05))
    cfg = vae.TrainConfig(max_epochs=2, batch_size=32, hidden_dims=(8, 4), latent_dim=2)
    model, history = vae.train(windows, cfg)
    vae.save_checkpoint(model, tmp_path / "a", seed=3, epoch=history["best_epoch"])
    loaded, manifest = vae.load_checkpoint(tmp_path / "a")
    vae.save_checkpoint(loaded, tmp_path / "b", seed=manifest["seed"], epoch=manifest["epoch"])
    first = (tmp_path / "a.f64").read_bytes()
    assert first == (tmp_path / "b.f64").read_bytes()
    assert first == model.params.flat.astype("<f8").tobytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
