import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import mass_of

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
    n_lat = max(d for d in range(1, int(np.sqrt(n_cells)) + 1) if n_cells % d == 0)
    spec = grid.SynthSpec(
        n_lat=n_lat, n_lon=n_cells // n_lat, n_months=n_months,
        noise_std=noise, cell_variation=variation,
    )
    g, _ = grid.synth_generate(spec, seed=seed)
    return mass_of(g, grid.RegionMask("all", np.arange(n_cells)))


def window_matrix(mass):
    """The float64 windows of a unit, cell after cell, as one matrix: the
    stride-1 windows of every row of its min-max scaled series."""
    scaled = vae.scale_to_unit(mass.values, mass.values.min(), mass.values.max())
    return np.lib.stride_tricks.sliding_window_view(scaled, 12, axis=1).reshape(-1, 12)


# ---------------------------------------------------------------------------
# normalization (a training run scales its unit's mass)

def test_normalize_endpoints():
    mass = grid.MassSeries(
        values=np.concatenate([[0.0, 10.0], np.full(10, 5.0)])[None, :],
        cells=np.array([0]),
        start_year=1850,
        start_month=1,
    )
    run = vae.TrainRun(mass, vae.TrainConfig(batch_size=1))
    assert (run.model.x_min, run.model.x_max) == (0.0, 10.0)
    assert run.windows.shape == (1, 12)  # one cell of 12 months: one window
    assert run.windows.min() == -1.0
    assert run.windows.max() == 1.0


def test_normalize_constant_field_rejected():
    # and so is a series shorter than one window
    for n_months, error, message in (
            (24, DegenerateInputError, "constant mass field cannot be normalized"),
            (11, ShapeError, "need at least 12 months, got 11")):
        mass = grid.MassSeries(
            values=np.full((2, n_months), 7.0), cells=np.array([0, 1]),
            start_year=1850, start_month=1,
        )
        for start in (vae.TrainRun, vae.train):
            with pytest.raises(error, match=message):
                start(mass, vae.TrainConfig(batch_size=1))


def test_normalize_roundtrip(rng):
    mass = annual_mass()
    run = vae.TrainRun(mass, vae.TrainConfig())
    lo, hi = run.model.x_min, run.model.x_max
    assert (lo, hi) == (mass.values.min(), mass.values.max())
    back = vae.denormalize(vae.scale_to_unit(mass.values, lo, hi), lo, hi)
    np.testing.assert_allclose(back, mass.values, rtol=1e-12)


def test_normalize_window_count():
    mass = annual_mass(n_cells=4, n_months=48)
    run = vae.TrainRun(mass, vae.TrainConfig())
    rows = vae._window_rows(np.arange(4), 48)
    assert rows.shape == (4, 48 - 11)
    # the run's train and validation rows are every cell's windows, once each
    picked = np.concatenate([run.val_rows, run.train_rows])
    assert np.array_equal(np.sort(picked), rows.ravel())
    # provenance points back at the source values: the window that starts at
    # month s of cell c
    c, s = 2, 3
    lo, hi = run.model.x_min, run.model.x_max
    np.testing.assert_allclose(
        vae.denormalize(run.windows[rows[c, s]], lo, hi),
        mass.values[c, s:s + 12],
        rtol=0, atol=1e-7 * (hi - lo),  # the run's series is float32
    )
    assert rows[c, s] == c * 48 + s
    assert np.array_equal(vae._window_rows([3, 1], 48), rows[[3, 1]])


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
    val_terms = vae.eval_loss(model, x, np.arange(4))
    arrays = [model.params.flat, *model.params, grads.flat, *grads, opt.m, opt.v, *opt.work,
              *enc_masks, *dec_masks]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert seen == {np.dtype(dtype)}
    assert all(type(t) is float for t in (*terms, *val_terms))


def test_train_returns_float64_upcasts_of_float32_parameters():
    mass = annual_mass()
    cfg = vae.TrainConfig(max_epochs=3, seed=4, hidden_dims=(8, 4), latent_dim=2)
    model, history = vae.train(mass, cfg)
    p = model.params.flat
    assert p.dtype == np.float64
    assert {a.dtype for a in model.params} == {np.dtype(np.float64)}
    assert np.array_equal(p, p.astype(np.float32))
    # trained, not the float64 Glorot draws
    init = vae.build_model(cfg, model.x_min, model.x_max, np.random.default_rng(cfg.seed))
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
    stack = nn.DenseStack([nn.DenseLayer(nn.glorot_uniform(i, o, rng), np.zeros(o))
                           for i, o in ((12, 16), (16, 8), (8, 4))])
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

def test_train_early_stop_patience_arithmetic():
    # lr = 0 freezes the model, validation loss is constant, training must
    # halt after 1 + patience epochs
    mass = annual_mass()
    cfg = vae.TrainConfig(
        max_epochs=500, learning_rate=0.0, early_stop_patience=50, seed=0
    )
    _, hist = vae.train(mass, cfg)
    assert len(hist["epochs"]) == 51
    assert hist["best_epoch"] == 1


def test_train_history_bounded():
    mass = annual_mass()
    cfg = vae.TrainConfig(max_epochs=7, seed=0)
    _, hist = vae.train(mass, cfg)
    assert len(hist["epochs"]) <= 7


def test_train_deterministic_replay():
    mass = annual_mass()
    cfg = vae.TrainConfig(max_epochs=6, seed=123)
    m1, h1 = vae.train(mass, cfg)
    m2, h2 = vae.train(mass, cfg)
    assert h1 == h2
    for a, b in zip(m1.params, m2.params):
        assert a.tobytes() == b.tobytes()


def test_train_lr_schedule_halves():
    mass = annual_mass()
    cfg = vae.TrainConfig(
        max_epochs=40, learning_rate=0.0, early_stop_patience=30,
        plateau_patience=5, seed=0,
    )
    _, hist = vae.train(mass, cfg)
    lrs = [h["lr"] for h in hist["epochs"]]
    for a, b in zip(lrs, lrs[1:]):
        assert b <= a
        assert b == a or b == a * 0.5
    assert lrs[-1] < lrs[0] or lrs[0] == 0.0
    # an actual decay sequence with nonzero lr
    cfg2 = vae.TrainConfig(max_epochs=30, learning_rate=0.005, seed=3,
                           early_stop_patience=25)
    _, hist2 = vae.train(mass, cfg2)
    lrs2 = [h["lr"] for h in hist2["epochs"]]
    for a, b in zip(lrs2, lrs2[1:]):
        assert b == a or b == pytest.approx(a * 0.5)


def test_train_divergence_reports_epoch_and_batch():
    import warnings

    from gpp_extremes.errors import NumericalError

    mass = annual_mass()
    cfg = vae.TrainConfig(max_epochs=10, learning_rate=1e8, batch_size=32,
                          hidden_dims=(16, 8), latent_dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="epoch"):
            vae.train(mass, cfg)


def test_train_requires_enough_windows():
    mass = annual_mass(4, 14)
    with pytest.raises(ConfigError, match="12 windows < batch size 64"):
        vae.train(mass, vae.TrainConfig(batch_size=64))


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
    model, _ = tiny_model(rng)
    model.x_min, model.x_max = mass.values.min(), mass.values.max()
    recon = vae.reconstruct(model, mass)
    assert recon.values.shape == mass.values.shape


def test_reconstruct_overfit_oracle():
    # a model deliberately overfit on one repeating window (beta = 0, no
    # dropout) behaves like the identity; the tanh output saturating
    # towards the +-1 normalization endpoints sets the error floor
    mass = annual_mass(1, 72, variation=0.0)
    cfg = vae.TrainConfig(
        max_epochs=800, batch_size=32, seed=5, dropout_rate=0.0, beta=0.0,
        hidden_dims=(48, 24), latent_dim=4, likelihood_var=0.01,
        plateau_patience=60, early_stop_patience=200,
    )
    model, hist = vae.train(mass, cfg)
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


def reference_reconstruct(model, mass):
    """The reconstructed values of ``vae.reconstruct`` as it was when each
    block copied its cells' windows into a window matrix and the windows
    were averaged back one cell at a time."""
    values = np.asarray(mass.values, dtype=float)
    n_cells, n_months = values.shape
    scaled = vae.scale_to_unit(values, model.x_min, model.x_max)
    per_cell = n_months - vae.SEQ_LEN + 1
    recon_scaled = np.empty_like(scaled)
    for cells in vae._blocks(n_cells, max(1, vae.INFER_BLOCK_ROWS // per_cell)):
        wins = np.lib.stride_tricks.sliding_window_view(scaled[cells], vae.SEQ_LEN, axis=1)
        mu, _ = vae.encode(model, np.ascontiguousarray(wins.reshape(-1, vae.SEQ_LEN)))
        xhat = vae.decode(model, mu).reshape(-1, per_cell, vae.SEQ_LEN)
        for c, cell_hat in enumerate(xhat, start=cells.start):
            sums = np.zeros(n_months)
            for j in range(vae.SEQ_LEN):
                sums[j:j + per_cell] += cell_hat[:, j]
            recon_scaled[c] = sums / kernels._antidiag_counts(vae.SEQ_LEN, per_cell)
    return vae.denormalize(recon_scaled, model.x_min, model.x_max)


@pytest.mark.parametrize("n_cells, n_months", [
    (23, 372),  # at most 2 cells a block, which does not divide 23: blocks of 1 and 2
    (3, 2100),  # 2,089 windows a cell, more than INFER_BLOCK_ROWS: one cell a block
    (1, 400),  # a single cell
])
def test_reconstruct_matches_the_window_matrix_reconstruction(rng, n_cells, n_months):
    mass = annual_mass(n_cells, n_months, noise=0.05)
    model = default_model(rng, mass)
    recon = vae.reconstruct(model, mass)
    assert recon.values.tobytes() == reference_reconstruct(model, mass).tobytes()
    assert recon.cells is mass.cells
    assert (recon.start_year, recon.start_month) == (mass.start_year, mass.start_month)


def test_eval_loss_blocks_match_one_pass(rng, monkeypatch):
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    windows = window_matrix(mass)
    rows = rng.permutation(len(windows))[:7220]
    calls = count_encode_calls(monkeypatch)
    whole = vae.eval_loss(model, windows, rows)
    # the default block of 1,024 rows cuts 7,220 rows into 8 near-equal blocks
    assert calls == [902, 903] * 4
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 10 ** 9)
    assert vae.eval_loss(model, windows, rows) == whole
    calls.clear()
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 2048)
    assert vae.eval_loss(model, windows, rows) == whole
    assert calls == [1805] * 4
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 1000)
    assert vae.eval_loss(model, windows, rows) == whole


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
    whole = vae.eval_loss(model, x, np.arange(50))
    monkeypatch.setattr(vae, "INFER_BLOCK_ROWS", 7)
    blocked = vae.eval_loss(model, x, np.arange(50))
    assert calls[0] == 50 and sorted(set(calls[1:])) == [6, 7] and sum(calls[1:]) == 50
    assert np.isfinite(whole).all()
    assert blocked == whole


def test_inference_memory_is_bounded(rng):
    # 100 cells x 372 months is 36,100 windows; one pass with a backward
    # cache held about 100 MiB of activations. Blocks of at most 1,024 rows
    # peak at 1.8 MiB (reconstruct) and 2.3 MiB (eval); at most 2,048 rows
    # they peaked at 3.6 and 3.9 MiB
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    windows = window_matrix(mass)
    rows = np.arange(len(windows))
    tracemalloc.start()
    try:
        vae.reconstruct(model, mass)
        _, reconstruct_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vae.eval_loss(model, windows, rows)
        _, eval_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reconstruct_peak < 3 * 2 ** 20
    assert eval_peak < 3 * 2 ** 20


@pytest.mark.parametrize("n_cells", [1, 9])
def test_a_run_gathers_the_shuffled_windows_of_the_window_matrix(n_cells):
    # the reference: the float32 rows of the window matrix in the order of the
    # permutation drawn after the initial weights, validation rows first
    mass = annual_mass(n_cells, 40, noise=0.05)
    config = vae.TrainConfig(batch_size=8, seed=5)
    run = vae.TrainRun(mass, config)
    rng = np.random.default_rng(config.seed)
    vae.build_model(config, run.model.x_min, run.model.x_max, rng)
    windows = window_matrix(mass)
    assert len(windows) == n_cells * (40 - 11)
    expected = windows[rng.permutation(len(windows))].astype(np.float32)
    gathered = run.windows[np.concatenate([run.val_rows, run.train_rows])]
    assert gathered.dtype == np.float32
    assert gathered.tobytes() == expected.tobytes()
    assert run.val_rows.size == round(0.2 * len(windows))


def test_lockstep_runs_hold_their_series_not_their_windows():
    # three units of 300 cells x 372 months: 108,300 windows each, 5.0 MiB
    # as float32 windows against 0.4 MiB as a float32 series. Runs that
    # held shuffled float32 windows peaked at 26.3 MiB together (16.0 MiB
    # for one run alone); runs that gather each batch from the series peak
    # at 10.6 MiB
    masses = [annual_mass(300, 372, seed=seed, noise=0.05) for seed in (1, 2, 3)]
    config = vae.TrainConfig(max_epochs=1, batch_size=128)
    tracemalloc.start()
    try:
        runs = [vae.TrainRun(mass, replace(config, seed=i))
                for i, mass in enumerate(masses)]
        vae.train_lockstep(runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_vae_anomalies_sign_convention(rng, monkeypatch):
    mass = annual_mass(2, 48)
    model = default_model(rng, mass)
    anoms = vae.vae_anomalies(model, mass)
    assert anoms.values.tobytes() == (mass.values - vae.reconstruct(model, mass).values).tobytes()
    assert anoms.cells is mass.cells
    assert (anoms.start_year, anoms.start_month) == (mass.start_year, mass.start_month)
    recon_values = mass.values.copy()
    recon_values[0, 20] += 5.0  # reconstruction above original
    monkeypatch.setattr(vae, "reconstruct", lambda model, m: replace(m, values=recon_values))
    anoms = vae.vae_anomalies(model, mass)
    assert anoms.values[0, 20] == -5.0  # suppressed productivity is negative
    assert anoms.values[1, 20] == 0.0


def test_vae_anomalies_hold_no_array_beside_the_reconstruction(rng, monkeypatch):
    # a 100 x 372 unit is 297,600 bytes: subtracting into a new array held it
    # a second time after the reconstruction; subtracting into the
    # reconstruction's own array holds nothing more
    mass = annual_mass(100, 372, noise=0.05)
    model = default_model(rng, mass)
    expected = mass.values - vae.reconstruct(model, mass).values
    real, held = vae.reconstruct, []

    def reconstruct_then_reset_the_peak(model, mass):
        recon = real(model, mass)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return recon

    monkeypatch.setattr(vae, "reconstruct", reconstruct_then_reset_the_peak)
    tracemalloc.start()
    try:
        anoms = vae.vae_anomalies(model, mass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert anoms.values.tobytes() == expected.tobytes()
    assert peak - held[0] < mass.values.nbytes // 4


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
    cfg = vae.TrainConfig(max_epochs=2, batch_size=32, hidden_dims=(8, 4), latent_dim=2)
    model, history = vae.train(annual_mass(noise=0.05), cfg)
    vae.save_checkpoint(model, tmp_path / "a", seed=3, epoch=history["best_epoch"])
    loaded, manifest = vae.load_checkpoint(tmp_path / "a")
    vae.save_checkpoint(loaded, tmp_path / "b", seed=manifest["seed"], epoch=manifest["epoch"])
    first = (tmp_path / "a.f64").read_bytes()
    assert first == (tmp_path / "b.f64").read_bytes()
    assert first == model.params.flat.astype("<f8").tobytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_load_checkpoint_draws_no_weights(tmp_path, rng, monkeypatch):
    model, _ = tiny_model(rng, hidden=(16, 8), latent=3)
    vae.save_checkpoint(model, tmp_path / "m", seed=4, epoch=2)

    def no_draw(*args):
        raise AssertionError("load_checkpoint drew Glorot weights")

    for module in (nn, vae):
        monkeypatch.setattr(module, "glorot_uniform", no_draw)
    loaded, _ = vae.load_checkpoint(tmp_path / "m")
    vae.save_checkpoint(loaded, tmp_path / "again", seed=4, epoch=2)
    assert (tmp_path / "again.f64").read_bytes() == (tmp_path / "m.f64").read_bytes()
    assert (tmp_path / "again.json").read_text() == (tmp_path / "m.json").read_text()


# ---------------------------------------------------------------------------
# lockstep training

def unit_masses(n_units, n_cells=9, n_months=120):
    """The mass of ``n_units`` units of one shape, each from its own grid."""
    return [annual_mass(n_cells, n_months, seed=seed, noise=0.05)
            for seed in range(1, n_units + 1)]


def train_both_ways(masses, configs, tmp_path):
    """Checkpoint bytes and histories of each unit trained alone and in one
    lockstep group."""
    alone = [vae.train(mass, cfg) for mass, cfg in zip(masses, configs)]
    runs = [vae.TrainRun(mass, cfg, name=f"unit {i}") for i, (mass, cfg)
            in enumerate(zip(masses, configs))]
    together = vae.train_lockstep(runs)
    out = []
    for way, results in (("alone", alone), ("lockstep", together)):
        for i, (model, history) in enumerate(results):
            path = tmp_path / f"{way}{i}"
            vae.save_checkpoint(model, path, seed=configs[i].seed, epoch=history["best_epoch"])
            out.append((way, (path.with_suffix(".f64").read_bytes(),
                              path.with_suffix(".json").read_text()), history))
    return out[:len(configs)], out[len(configs):]


def test_three_equal_units_in_lockstep_match_three_runs_alone(tmp_path):
    masses = unit_masses(3)
    configs = [vae.TrainConfig(max_epochs=4, batch_size=48, seed=seed, likelihood_var=0.05)
               for seed in (7, 8, 9)]
    alone, together = train_both_ways(masses, configs, tmp_path)
    for (_, ckpt_a, hist_a), (_, ckpt_b, hist_b) in zip(alone, together):
        assert ckpt_a == ckpt_b
        assert hist_a == hist_b
        assert hist_a["best_epoch"] == hist_b["best_epoch"]
    # three different models, not one model three times
    assert len({ckpt for _, ckpt, _ in alone}) == 3


def test_lockstep_runs_that_stop_and_cut_rates_at_different_epochs_match_runs_alone(tmp_path):
    # a small patience makes each run cut its rate and stop at epochs of
    # its own, so the stack loses members at different epochs
    masses = unit_masses(4)
    configs = [vae.TrainConfig(max_epochs=40, batch_size=40, seed=seed, learning_rate=0.03,
                               plateau_patience=1, early_stop_patience=3,
                               hidden_dims=(16, 8), latent_dim=2, dropout_rate=0.05)
               for seed in (21, 22, 23, 24)]
    alone, together = train_both_ways(masses, configs, tmp_path)
    for (_, ckpt_a, hist_a), (_, ckpt_b, hist_b) in zip(alone, together):
        assert ckpt_a == ckpt_b
        assert [e["lr"] for e in hist_a["epochs"]] == [e["lr"] for e in hist_b["epochs"]]
        assert hist_a == hist_b
    lengths = [len(h["epochs"]) for _, _, h in alone]
    first_cuts = [next(e["epoch"] for e in h["epochs"] if e["lr"] < 0.03) for _, _, h in alone]
    assert len(set(lengths)) > 1 and max(lengths) < 40
    assert len(set(first_cuts)) > 1


def test_lockstep_needs_one_config_and_equal_window_counts():
    masses = unit_masses(2)
    cfg = vae.TrainConfig(max_epochs=1, batch_size=32)
    with pytest.raises(ValueError, match="one config apart from the seed"):
        vae.train_lockstep([vae.TrainRun(masses[0], cfg),
                            vae.TrainRun(masses[1], vae.TrainConfig(max_epochs=2, batch_size=32))])
    short = annual_mass(9, 100, seed=3, noise=0.05)
    with pytest.raises(ValueError, match="equal window counts"):
        vae.train_lockstep([vae.TrainRun(masses[0], cfg), vae.TrainRun(short, cfg)])


def test_lockstep_error_names_the_run_with_the_non_finite_loss():
    masses = unit_masses(3)
    masses[1].values[:, 4::vae.SEQ_LEN] = np.nan  # a month of every window
    cfg = vae.TrainConfig(max_epochs=2, batch_size=32, hidden_dims=(8, 4), latent_dim=2)
    runs = [vae.TrainRun(mass, cfg, name=name) for mass, name in zip(masses, "abc")]
    with pytest.raises(NumericalError,
                       match=r"^training b aborted at epoch 1, batch 0: non-finite loss$"):
        vae.train_lockstep(runs)
