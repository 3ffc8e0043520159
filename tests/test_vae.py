import json
import tracemalloc

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
    for p in model.params:
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
    ws = vae.normalize(mass)
    assert (ws.x_min, ws.x_max) == (0.0, 10.0)
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
    ws = vae.normalize(mass)
    lo, hi = ws.x_min, ws.x_max
    back = vae.denormalize(vae.scale_to_unit(mass.values, lo, hi), lo, hi)
    np.testing.assert_allclose(back, mass.values, rtol=1e-12)


def test_normalize_window_count():
    mass = annual_mass(n_cells=4, n_months=48)
    ws = vae.normalize(mass)
    assert len(ws) == 4 * (48 - 11)
    assert ws.windows.shape == (len(ws), 12)
    # provenance points back at the source values
    k = 77
    c, s = divmod(k, 48 - 11)  # windows run cell after cell
    np.testing.assert_allclose(
        vae.denormalize(ws.windows[k], ws.x_min, ws.x_max),
        mass.values[c, s:s + 12],
        rtol=1e-12,
    )


@pytest.mark.parametrize("n_cells", [1, 9])
def test_normalize_windows_are_one_contiguous_copy(n_cells):
    mass = annual_mass(n_cells=n_cells, n_months=40, noise=0.05)
    ws = vae.normalize(mass)
    scaled = vae.scale_to_unit(mass.values, ws.x_min, ws.x_max)
    # the earlier construction: reshape, which copies for several cells, then copy again
    reference = np.lib.stride_tricks.sliding_window_view(scaled, 12, axis=1)
    reference = reference.reshape(-1, 12).copy()
    assert ws.windows.flags.c_contiguous
    assert ws.windows.tobytes() == reference.tobytes()
    assert not np.shares_memory(ws.windows, mass.values)


# ---------------------------------------------------------------------------
# encode / decode

def test_encode_zero_weights_gives_zero(rng):
    model = zero_model(rng)
    mu, logvar = vae.encode(model, np.full(12, 0.5)[None])
    np.testing.assert_array_equal(mu[0], np.zeros(3))
    np.testing.assert_array_equal(logvar[0], np.zeros(3))


def test_encode_eval_deterministic(rng):
    model, _ = tiny_model(rng, dropout=0.3)
    w = rng.uniform(-1, 1, 12)[None]
    a = vae.encode(model, w)
    b = vae.encode(model, w)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_encode_output_dims(rng):
    model, _ = tiny_model(rng, latent=5)
    mu, logvar = vae.encode(model, rng.uniform(-1, 1, 12)[None])
    assert mu[0].shape == (5,)
    assert logvar[0].shape == (5,)


def test_decode_bounded_by_tanh(rng):
    model, _ = tiny_model(rng)
    for _ in range(20):
        out = vae.decode(model, (rng.normal(size=2) * 5)[None])[0]
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_decode_zero_weights(rng):
    model = zero_model(rng)
    np.testing.assert_array_equal(vae.decode(model, np.ones(3)[None])[0], np.zeros(12))


def test_encode_decode_reject_batches_of_the_wrong_width(rng):
    model, _ = tiny_model(rng, latent=2)
    with pytest.raises(ShapeError, match="windows must be a 2-D batch 12 wide"):
        vae.encode(model, np.zeros((4, 11)))
    with pytest.raises(ShapeError, match="windows must be a 2-D batch 12 wide"):
        vae.encode(model, np.zeros(12))
    with pytest.raises(ShapeError, match="latent points must be a 2-D batch 2 wide"):
        vae.decode(model, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# loss terms

def test_kl_prior_is_zero():
    assert vae.kl_divergence(np.zeros((1, 4)), np.zeros((1, 4)))[0] == 0.0


def test_kl_hand_value():
    # -1/2 (1 + 0 - 1 - 1) = 0.5 for mu=1, logvar=0
    assert vae.kl_divergence(np.array([[1.0]]), np.array([[0.0]]))[0] == pytest.approx(0.5)


def test_kl_non_negative(rng):
    for _ in range(200):
        mu = rng.uniform(-3, 3, size=(1, 5))
        logvar = rng.uniform(-3, 3, size=(1, 5))
        assert vae.kl_divergence(mu, logvar)[0] >= 0.0


def test_kl_matches_monte_carlo(rng):
    # KL(q||p) = E_q[log q(z) - log p(z)], estimated from q samples
    for _ in range(3):
        mu = rng.uniform(-1, 1, size=(1, 5))
        logvar = rng.uniform(-1, 1, size=(1, 5))
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((200_000, 5))
        log_q = -0.5 * (np.log(2 * np.pi) + logvar + (z - mu) ** 2 / sigma ** 2).sum(axis=1)
        log_p = -0.5 * (np.log(2 * np.pi) + z ** 2).sum(axis=1)
        mc = (log_q - log_p).mean()
        closed = vae.kl_divergence(mu, logvar)[0]
        assert abs(closed - mc) / abs(closed) < 0.02


def batch_loss(x, xhat, mu, logvar, beta, likelihood_var):
    """(total, recon_mse, kl) of 2-D batches, from the terms training computes."""
    return vae._batch_loss(*vae._row_losses(xhat - x, mu, logvar), beta, likelihood_var)


def test_vae_loss_zero_case():
    x = np.linspace(-1, 1, 12)[None]
    total, recon, kl = batch_loss(x, x, np.zeros((1, 2)), np.zeros((1, 2)), beta=0.5,
                                  likelihood_var=0.1)
    assert total == 0.0 and recon == 0.0 and kl == 0.0


def test_vae_loss_beta_zero():
    x = np.linspace(-1, 1, 12)[None]
    xhat = x + 0.1
    total, recon, kl = batch_loss(x, xhat, np.ones((1, 2)), np.zeros((1, 2)), beta=0.0,
                                  likelihood_var=0.1)
    # only the Gaussian term is left: the window's squared error over 2 * 0.1
    assert total == pytest.approx(recon * 12 / 0.2, rel=1e-15)
    assert kl > 0


def test_vae_loss_matches_recomputation(rng):
    x = rng.uniform(-1, 1, (4, 12))
    xhat = rng.uniform(-1, 1, (4, 12))
    mu = rng.uniform(-1, 1, (4, 3))
    logvar = rng.uniform(-1, 1, (4, 3))
    total, recon, kl = batch_loss(x, xhat, mu, logvar, beta=0.7, likelihood_var=0.05)
    sq_ref = np.mean(np.sum((x - xhat) ** 2, axis=1))
    kl_ref = np.mean(-0.5 * np.sum(1 + logvar - mu ** 2 - np.exp(logvar), axis=1))
    assert recon == pytest.approx(sq_ref / 12, rel=1e-14)
    assert kl == pytest.approx(kl_ref, rel=1e-14)
    assert total == pytest.approx(sq_ref / 0.1 + 0.7 * kl_ref, rel=1e-14)


# ---------------------------------------------------------------------------
# gradients

def test_objective_gradients_match_fd(rng):
    model, cfg = tiny_model(rng, dropout=0.1)
    params = list(model.params)
    x = rng.uniform(-1, 1, size=(3, 12))
    eps = rng.standard_normal((3, 2))
    enc_masks, dec_masks = vae.draw_dropout_masks(model, 3, rng)

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


def test_float32_gradients_match_float64(rng):
    # The same parameters, batch, eps and masks, all float32-representable,
    # so only the arithmetic precision differs. float32 rounds at 2**-24;
    # through the dozen products of a step of the default architecture the
    # gradients stay within rtol 1e-4, with an absolute floor of 1e-4 of
    # each array's largest entry for entries that nearly cancel.
    model, _ = tiny_model(rng, hidden=(128, 64, 32), latent=5, dropout=0.1)
    f32 = model.astype(np.float32)
    f64 = f32.astype(np.float64)
    x = rng.uniform(-1, 1, size=(64, 12)).astype(np.float32)
    eps = rng.standard_normal((64, 5)).astype(np.float32)
    enc_masks, dec_masks = vae.draw_dropout_masks(f32, 64, rng)

    def step(model, dtype):
        def cast(arrays):
            return [a.astype(dtype) for a in arrays]
        return vae.loss_and_grads(model, x.astype(dtype), eps.astype(dtype),
                                  cast(enc_masks), cast(dec_masks))

    terms32, grads32 = step(f32, np.float32)
    terms64, grads64 = step(f64, np.float64)
    np.testing.assert_allclose(terms32, terms64, rtol=1e-5)
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4 * np.abs(g64).max())


def record_dense_dtypes(monkeypatch):
    """Dtypes of every array that enters or leaves a dense layer, as it runs."""
    seen = set()

    def recorded(func):
        def wrapper(layer, *arrays, **kwargs):
            out = func(layer, *arrays, **kwargs)
            results = out if isinstance(out, tuple) else (out,)
            for a in (layer.weights, layer.bias, *arrays, *results):
                if isinstance(a, np.ndarray):
                    seen.add(a.dtype)
            return out
        return wrapper

    for module in (nn, vae):
        for name in ("dense_forward", "dense_backward"):
            monkeypatch.setattr(module, name, recorded(getattr(nn, name)))
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_training_step_keeps_the_model_dtype(rng, monkeypatch, dtype):
    # Under NumPy 2 (NEP 50) an np.float64 scalar promotes a float32 array
    # to float64, where NumPy 1.24 keeps float32; every array a step makes
    # or touches must hold the model's dtype under both.
    model, cfg = tiny_model(rng, dropout=0.1)
    model = model.astype(dtype)
    x = rng.uniform(-1, 1, size=(4, 12)).astype(dtype)
    eps = rng.standard_normal((4, cfg.latent_dim)).astype(dtype)
    seen = record_dense_dtypes(monkeypatch)
    enc_masks, dec_masks = vae.draw_dropout_masks(model, 4, rng)
    terms, grads = vae.loss_and_grads(model, x, eps, enc_masks, dec_masks)
    opt = nn.AdamState.for_params(model.params, lr=0.01)
    nn.adam_step(opt, model.params, grads)
    val_terms = vae.eval_loss(model, x)
    arrays = [model.params.flat, *model.params, grads.flat, *grads, opt.m, opt.v, *opt.work,
              *enc_masks, *dec_masks]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert seen == {np.dtype(dtype)}
    assert all(type(t) is float for t in (*terms, *val_terms))


def test_train_returns_float64_upcasts_of_float32_parameters():
    ws = pure_annual_windows()
    cfg = vae.TrainConfig(max_epochs=3, seed=4, hidden_dims=(8, 4), latent_dim=2)
    model, history = vae.train(ws, cfg)
    p = model.params.flat
    assert p.dtype == np.float64
    assert {a.dtype for a in model.params} == {np.dtype(np.float64)}
    assert np.array_equal(p, p.astype(np.float32))
    # trained, not the float64 Glorot draws
    init = vae.build_model(cfg, ws.x_min, ws.x_max, np.random.default_rng(cfg.seed))
    assert not np.array_equal(p, init.params.flat)
    assert type(history["best_val_loss"]) is float


# ---------------------------------------------------------------------------
# dropout masks and in-place dropout

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_masks_are_views_of_one_draw(rng, dtype):
    model, _ = tiny_model(rng, hidden=(8, 4, 2), latent=2, dropout=0.3)
    model = model.astype(dtype)
    draw_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    enc_masks, dec_masks = vae.draw_dropout_masks(model, 6, draw_rng)
    flat = nn.dropout_mask(6 * (8 + 4 + 2 + 2 + 4 + 8), 0.3, ref_rng, dtype)
    masks = enc_masks + dec_masks
    # encoder then decoder, each in layer order
    assert [m.shape for m in enc_masks] == [(6, 8), (6, 4), (6, 2)]
    assert [m.shape for m in dec_masks] == [(6, 2), (6, 4), (6, 8)]
    np.testing.assert_array_equal(np.concatenate([m.ravel() for m in masks]), flat)
    for m in masks:
        assert m.dtype == dtype and m.flags.c_contiguous
        assert m.base is masks[0].base
    assert draw_rng.bit_generator.state == ref_rng.bit_generator.state


def reference_stack_forward(stack, x, masks):
    """The out-of-place formulation of a masked ``DenseStack.forward``: each
    layer's ReLU output is kept, and its masked copy feeds the next layer.
    Returns (output, inputs, activations)."""
    inputs, acts = [], []
    h = x
    for layer, mask in zip(stack.layers, masks):
        inputs.append(h)
        h = np.maximum(nn.dense_forward(layer, h), 0.0)
        acts.append(h)
        h = h * mask
    return h, inputs, acts


def reference_stack_backward(stack, inputs, acts, masks, grad_out):
    """The out-of-place backward pass: mask, then relu' from the pre-dropout
    activation, each into a new array. Returns (grad_input, [(gw, gb), ...])."""
    grads = []
    g = grad_out
    for i in range(len(stack.layers) - 1, -1, -1):
        g = g * masks[i]
        g = g * (acts[i] > 0)
        g, gw, gb = nn.dense_backward(stack.layers[i], inputs[i], g)
        grads.insert(0, (gw, gb))
    return g, grads


def reference_loss_and_grads(model, x, eps, enc_masks, dec_masks):
    """One training step with out-of-place dropout and ``np.mean`` batch
    means; the gradients are a list in parameter-buffer order."""
    n = x.shape[0]
    beta, var = model.config.beta, model.config.likelihood_var
    h, enc_inputs, enc_acts = reference_stack_forward(model.encoder, x, enc_masks)
    mu = nn.dense_forward(model.mu_head, h)
    logvar = nn.dense_forward(model.logvar_head, h)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    h_d, dec_inputs, dec_acts = reference_stack_forward(model.decoder, z, dec_masks)
    xhat = np.tanh(nn.dense_forward(model.output, h_d))
    err = xhat - x
    sq_sum = np.square(err).sum(axis=1)
    kl_rows = (-0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar))).sum(axis=1)
    recon_sum = float(np.mean(sq_sum, dtype=np.float64))
    kl = float(np.mean(kl_rows, dtype=np.float64))
    total = recon_sum / (2.0 * var) + beta * kl

    dxhat = err / (var * n)
    dh_d, gw_out, gb_out = nn.dense_backward(model.output, h_d, dxhat * (1.0 - xhat ** 2))
    dz, dec_grads = reference_stack_backward(model.decoder, dec_inputs, dec_acts, dec_masks,
                                             dh_d)
    dmu = dz + beta * mu / n
    dlogvar = dz * (0.5 * sigma * eps) + beta * (np.exp(logvar) - 1.0) * 0.5 / n
    dh_mu, gw_mu, gb_mu = nn.dense_backward(model.mu_head, h, dmu)
    dh_lv, gw_lv, gb_lv = nn.dense_backward(model.logvar_head, h, dlogvar)
    _, enc_grads = reference_stack_backward(model.encoder, enc_inputs, enc_acts, enc_masks,
                                            dh_mu + dh_lv)
    pairs = enc_grads + [(gw_mu, gb_mu), (gw_lv, gb_lv)] + dec_grads + [(gw_out, gb_out)]
    return (total, recon_sum / vae.SEQ_LEN, kl), [a for pair in pairs for a in pair]


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_stack_dropout_is_bit_identical(rng, dtype):
    stack = nn.DenseStack.init([12, 16, 8, 4], rng)
    stack = nn.DenseStack([nn.DenseLayer(layer.weights.astype(dtype), layer.bias.astype(dtype))
                           for layer in stack.layers])
    x = rng.uniform(-1, 1, size=(32, 12)).astype(dtype)
    masks = [nn.dropout_mask((32, layer.out_dim), 0.3, rng, dtype) for layer in stack.layers]
    grad_out = rng.normal(size=(32, 4)).astype(dtype)

    ref_out, ref_inputs, ref_acts = reference_stack_forward(stack, x, masks)
    ref_gx, ref_grads = reference_stack_backward(stack, ref_inputs, ref_acts, masks, grad_out)
    out, cache = stack.forward(x, masks)
    gx, grads = stack.backward(cache, grad_out.copy())

    assert_same_bits(out, ref_out)
    assert_same_bits(gx, ref_gx)
    for (gw, gb), (ref_gw, ref_gb) in zip(grads, ref_grads):
        assert_same_bits(gw, ref_gw)
        assert_same_bits(gb, ref_gb)
    # one array per layer serves as its activation and the next layer's input
    for act, next_input in zip(cache["acts"], cache["inputs"][1:]):
        assert act is next_input


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_is_bit_identical(rng, dtype):
    model, cfg = tiny_model(rng, hidden=(16, 8, 4), latent=3, dropout=0.3)
    model = model.astype(dtype)
    x = rng.uniform(-1, 1, size=(32, 12)).astype(dtype)
    eps = rng.standard_normal((32, cfg.latent_dim)).astype(dtype)
    enc_masks, dec_masks = vae.draw_dropout_masks(model, 32, rng)

    ref_terms, ref_grads = reference_loss_and_grads(model, x, eps, enc_masks, dec_masks)
    terms, grads = vae.loss_and_grads(model, x, eps, enc_masks, dec_masks)

    assert terms == ref_terms
    assert len(grads.arrays) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert_same_bits(g, ref)


# ---------------------------------------------------------------------------
# training protocol

def pure_annual_windows(n_cells=4, n_months=120):
    ws = vae.normalize(annual_mass(n_cells, n_months))
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
    for a, b in zip(m1.params, m2.params):
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


def test_overlap_average_full_coverage_values(rng):
    # interior months average exactly their 12 covering windows
    wins = rng.normal(size=(30, 12))
    series = kernels.overlap_average(wins)
    m = 20
    covering = [wins[w, m - w] for w in range(m - 11, m + 1)]
    assert len(covering) == 12
    np.testing.assert_allclose(series[m], np.mean(covering), rtol=1e-12)


def test_reconstruct_output_shape_and_validity(rng):
    mass = annual_mass(4, 60)
    ws = vae.normalize(mass)
    model, _ = tiny_model(rng)
    model.x_min, model.x_max = ws.x_min, ws.x_max
    recon = vae.reconstruct(model, mass)
    assert recon.values.shape == mass.values.shape


def test_reconstruct_overfit_oracle():
    # a model deliberately overfit on one repeating window (beta = 0, no
    # dropout) behaves like the identity; the tanh output saturating
    # towards the +-1 normalization endpoints sets the error floor
    mass = annual_mass(1, 72, variation=0.0)
    ws = vae.normalize(mass)
    cfg = vae.TrainConfig(
        max_epochs=800, batch_size=32, seed=5, dropout_rate=0.0, beta=0.0,
        hidden_dims=(48, 24), latent_dim=4, likelihood_var=0.01,
        plateau_patience=60, early_stop_patience=200,
    )
    model, hist = vae.train(ws, cfg)
    recon = vae.reconstruct(model, mass)
    scaled_orig = vae.scale_to_unit(mass.values, model.x_min, model.x_max)
    scaled_recon = vae.scale_to_unit(recon.values, model.x_min, model.x_max)
    err = np.abs(scaled_recon - scaled_orig)[:, 12:-12]
    assert err.max() < 0.02


def default_model(rng, mass):
    """The default architecture with its seeded initial weights, scaled to ``mass``."""
    lo, hi = float(mass.values.min()), float(mass.values.max())
    return vae.build_model(vae.TrainConfig(), lo, hi, rng)


def count_encode_calls(monkeypatch):
    calls = []
    encode = vae.encode

    def counted(model, window):
        calls.append(len(window))
        return encode(model, window)

    monkeypatch.setattr(vae, "encode", counted)
    return calls


@pytest.mark.parametrize("block, passes", [
    (300, 100),  # smaller than one cell's 361 windows: one cell per pass
    (1083, 34),  # three cells' windows: 100 cells split into 2- and 3-cell passes
])
def test_reconstruct_blocks_match_one_pass(rng, monkeypatch, block, passes):
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    calls = count_encode_calls(monkeypatch)
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 10 ** 9)
    whole = vae.reconstruct(model, mass)
    assert calls == [100 * 361]
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", block)
    blocked = vae.reconstruct(model, mass)
    assert len(calls) == 1 + passes
    assert max(calls[1:]) <= max(block, 361)
    assert blocked.values.tobytes() == whole.values.tobytes()


def test_eval_loss_blocks_match_one_pass(rng, monkeypatch):
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    windows = vae.normalize(mass)
    x_val = windows.windows[rng.permutation(len(windows))[:7220]]
    calls = count_encode_calls(monkeypatch)
    whole = vae.eval_loss(model, x_val)
    assert calls == [1805] * 4  # the default block splits 7,220 rows evenly
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 10 ** 9)
    assert vae.eval_loss(model, x_val) == whole
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 1000)
    assert vae.eval_loss(model, x_val) == whole


def test_eval_loss_seven_row_blocks_match_one_block(rng, monkeypatch):
    # Matrix products of a few rows may take another BLAS kernel, with
    # other rounding, than one over all rows. With parameters in {-1/8, 0,
    # 1/8} and windows in multiples of 1/8, every pre-activation is a
    # multiple of 2**-27 below 2**26 in size, so every product and sum is
    # exact and the blocked losses can only differ from one block through
    # how the per-row terms are gathered and averaged.
    model, _ = tiny_model(rng, hidden=(128, 64, 32), latent=5)
    for p in model.params:
        p[...] = rng.integers(-1, 2, size=p.shape) / 8.0
    x = rng.integers(-8, 9, size=(50, 12)) / 8.0
    calls = count_encode_calls(monkeypatch)
    whole = vae.eval_loss(model, x)
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 7)
    blocked = vae.eval_loss(model, x)
    assert calls[0] == 50 and sorted(set(calls[1:])) == [6, 7] and sum(calls[1:]) == 50
    assert np.isfinite(whole).all()
    assert blocked == whole


def test_inference_memory_is_bounded(rng):
    # 100 cells x 372 months is 36,100 windows; one pass with a backward
    # cache held about 100 MiB of activations
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    windows = vae.normalize(mass)
    tracemalloc.start()
    try:
        vae.reconstruct(model, mass)
        _, reconstruct_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vae.eval_loss(model, windows.windows)
        _, eval_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reconstruct_peak < 16 * 2 ** 20
    assert eval_peak < 16 * 2 ** 20


def test_vae_anomalies_sign_convention():
    mass = annual_mass(2, 48)
    recon_values = mass.values.copy()
    recon_values[0, 20] += 5.0  # reconstruction above original
    recon = grid.MassSeries(
        values=recon_values, cells=mass.cells,
        start_year=mass.start_year, start_month=mass.start_month,
    )
    anoms = vae.vae_anomalies(mass, recon)
    assert anoms.values[0, 20] == -5.0  # suppressed productivity is negative
    assert anoms.values[1, 20] == 0.0


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
    assert loaded.config.latent_dim == 3
    assert (loaded.x_min, loaded.x_max) == (2.5, 9.0)
    for a, b in zip(model.params, loaded.params):
        assert a.tobytes() == b.tobytes()
    w = rng.uniform(-1, 1, 12)[None]
    np.testing.assert_array_equal(vae.encode(model, w)[0][0], vae.encode(loaded, w)[0][0])


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


@pytest.mark.parametrize("damage, message", [
    (lambda text: "{", "manifest is not valid JSON"),
    (lambda text: "[]", "manifest must be a JSON object"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "x_min"}),
     "manifest missing field 'x_min'"),
    (lambda text: json.dumps({**json.loads(text), "latent_dim": "5"}),
     "manifest field 'latent_dim' must be an integer"),
    (lambda text: json.dumps({**json.loads(text), "hidden_dims": [0]}), "hidden_dims"),
    (lambda text: json.dumps({**json.loads(text), "x_max": json.loads(text)["x_min"]}),
     "manifest field 'x_max' .* must exceed x_min"),
    (lambda text: json.dumps({**json.loads(text), "x_min": float("nan")}),
     "manifest field 'x_min' must be a finite number, got nan"),
    (lambda text: json.dumps({**json.loads(text), "x_max": float("inf")}),
     "manifest field 'x_max' must be a finite number, got inf"),
    (lambda text: json.dumps({**json.loads(text), "beta": float("nan")}),
     "manifest field 'beta' must be a finite number, got nan"),
    (lambda text: json.dumps({**json.loads(text), "likelihood_var": float("inf")}),
     "manifest field 'likelihood_var' must be a finite number, got inf"),
    (lambda text: json.dumps({**json.loads(text), "beta": True}),
     "manifest field 'beta' must be a finite number, got True"),
], ids=["invalid-json", "json-list", "no-x_min", "latent_dim-string", "zero-width-layer",
        "x_max-equals-x_min", "x_min-nan", "x_max-infinity", "beta-nan",
        "likelihood_var-infinity", "beta-true"])
def test_malformed_manifest_is_a_format_error(tmp_path, rng, damage, message):
    model, _ = tiny_model(rng)
    vae.save_checkpoint(model, tmp_path / "m", seed=4, epoch=1)
    header = tmp_path / "m.json"
    header.write_text(damage(header.read_text()))
    with pytest.raises(FormatError, match=message) as info:
        vae.load_checkpoint(tmp_path / "m")
    assert str(header) in str(info.value)


def test_checkpoint_payload_of_partial_values_is_a_format_error(tmp_path, rng):
    model, _ = tiny_model(rng)
    vae.save_checkpoint(model, tmp_path / "m", seed=4, epoch=1)
    payload = (tmp_path / "m.f64").read_bytes()
    (tmp_path / "m.f64").write_bytes(payload[:-5])
    with pytest.raises(FormatError, match="m.f64: payload of .* bytes is not whole float64"):
        vae.load_checkpoint(tmp_path / "m")


# ---------------------------------------------------------------------------
# flat parameter buffer

def test_parameters_are_views_of_one_buffer(rng):
    model, _ = tiny_model(rng)
    params = list(model.params)
    assert sum(p.size for p in params) == model.params.flat.size
    for p in params:
        assert np.shares_memory(p, model.params.flat)
    assert np.shares_memory(model.encoder.layers[0].weights, model.params.flat)
    assert np.shares_memory(model.output.bias, model.params.flat)


def test_nan_gradient_names_its_parameter_index(rng):
    model, cfg = tiny_model(rng)
    x = rng.uniform(-1, 1, size=(4, 12))
    eps = rng.standard_normal((4, cfg.latent_dim))
    enc_masks, dec_masks = vae.draw_dropout_masks(model, 4, rng)
    _, grads = vae.loss_and_grads(model, x, eps, enc_masks, dec_masks)
    opt = nn.AdamState.for_params(model.params, lr=0.01)
    nn.adam_step(opt, model.params, grads)
    grads.arrays[5][0] = np.nan  # the mean head's bias
    with pytest.raises(NumericalError, match=r"parameter 5 at Adam step 2"):
        nn.adam_step(opt, model.params, grads)


def test_checkpoint_save_load_save_bytes_identical(tmp_path, rng):
    windows = vae.normalize(annual_mass(noise=0.05))
    cfg = vae.TrainConfig(max_epochs=2, batch_size=32, hidden_dims=(8, 4), latent_dim=2)
    model, history = vae.train(windows, cfg)
    vae.save_checkpoint(model, tmp_path / "a", seed=3, epoch=history["best_epoch"])
    loaded, manifest = vae.load_checkpoint(tmp_path / "a")
    vae.save_checkpoint(loaded, tmp_path / "b", seed=manifest["seed"], epoch=manifest["epoch"])
    first = (tmp_path / "a.f64").read_bytes()
    assert first == (tmp_path / "b.f64").read_bytes()
    assert first == model.params.flat.astype("<f8").tobytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
