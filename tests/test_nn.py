from types import SimpleNamespace

import numpy as np
import pytest

from gpp_extremes import nn
from gpp_extremes.errors import NumericalError


def glorot_layer(in_dim, out_dim, rng):
    return nn.DenseLayer(nn.glorot_uniform(in_dim, out_dim, rng), np.zeros(out_dim))


def glorot_stack(dims, rng):
    return nn.DenseStack([glorot_layer(i, o, rng) for i, o in zip(dims, dims[1:])])


# ---------------------------------------------------------------------------
# dense layer

def test_dense_identity():
    layer = nn.DenseLayer(weights=np.eye(2), bias=np.zeros(2))
    np.testing.assert_array_equal(nn.dense_forward(layer, np.array([1.0, 2.0])), [1.0, 2.0])


def test_dense_hand_case():
    layer = nn.DenseLayer(weights=np.array([[1.0, 1.0]]), bias=np.array([3.0]))
    np.testing.assert_array_equal(nn.dense_forward(layer, np.array([2.0, 2.0])), [7.0])


def test_dense_matches_triple_loop(rng):
    layer = glorot_layer(7, 5, rng)
    x = rng.normal(size=7)
    y = nn.dense_forward(layer, x)
    for i in range(5):
        acc = layer.bias[i]
        for j in range(7):
            acc += layer.weights[i, j] * x[j]
        assert abs(y[i] - acc) < 1e-12


def test_glorot_bound(rng):
    layer = glorot_layer(30, 20, rng)
    limit = np.sqrt(6.0 / 50)
    assert np.all(np.abs(layer.weights) <= limit)
    assert np.all(layer.bias == 0)


# ---------------------------------------------------------------------------
# ReLU

def test_relu_values():
    stack = nn.DenseStack(layers=[nn.DenseLayer(weights=np.eye(3), bias=np.zeros(3))])
    np.testing.assert_array_equal(stack.infer(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])


# ---------------------------------------------------------------------------
# dropout

def test_dropout_rate_zero_identity(rng):
    x = rng.normal(size=100)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(x * nn.dropout_mask(x.shape, 0.0, rng), x)
    assert rng.bit_generator.state == state  # rate 0 draws nothing


def test_dropout_eval_identity(rng):
    stack = nn.DenseStack(layers=[nn.DenseLayer(weights=np.eye(100), bias=np.zeros(100))])
    x = np.abs(rng.normal(size=(1, 100)))  # ReLU passes non-negative input unchanged
    y, cache = stack.forward(x)  # eval mode draws no mask
    np.testing.assert_array_equal(y, x)
    assert cache["masks"] is None


@pytest.mark.parametrize("rate", [0.01, 0.3, 0.9])
def test_dropout_zero_fraction(rng, rate):
    mask = nn.dropout_mask(100_000, rate, rng)
    zero_frac = np.mean(mask == 0.0)
    assert abs(zero_frac - rate) < 0.005


def test_dropout_preserves_expectation(rng):
    rate = 0.25
    dropped = np.full(100_000, 3.0) * nn.dropout_mask(100_000, rate, rng)
    assert abs(dropped.mean() - 3.0) < 0.03  # 1% tolerance


def test_float32_dropout_mask_keeps_the_float64_draw():
    # the same zeroed positions at either dtype, and the generator left in
    # the same state
    rng32, rng64 = np.random.default_rng(7), np.random.default_rng(7)
    mask32 = nn.dropout_mask((64, 128), 0.3, rng32, np.float32)
    mask64 = nn.dropout_mask((64, 128), 0.3, rng64)
    assert mask32.dtype == np.float32 and mask64.dtype == np.float64
    np.testing.assert_array_equal(mask32 == 0.0, mask64 == 0.0)
    np.testing.assert_array_equal(mask32, mask64.astype(np.float32))
    assert rng32.bit_generator.state == rng64.bit_generator.state


def test_dropout_tiny_rate_keeps_every_unit(rng):
    # numpy's geometric gaps saturate at the int64 maximum for a vanishing
    # rate; a chunk of such gaps must not wrap when summed
    np.testing.assert_array_equal(nn.dropout_mask((4, 5), 1e-300, rng), np.ones((4, 5)))
    saturated = SimpleNamespace(geometric=lambda p, size: np.full(size, np.iinfo(np.int64).max))
    np.testing.assert_array_equal(nn.dropout_mask((4, 5), 0.5, saturated), np.full((4, 5), 2.0))


def test_dropout_positions_match_per_unit_draws():
    # The zeros sit at the running sums of the geometric gaps, less one; one
    # long draw from the same seed gives the same positions, however the
    # mask splits its draw into chunks.
    rate, size = 0.2, 5_000
    mask = nn.dropout_mask(size, rate, np.random.default_rng(11))
    gaps = np.random.default_rng(11).geometric(rate, size)
    expected = np.cumsum(gaps) - 1
    np.testing.assert_array_equal(np.flatnonzero(mask == 0.0), expected[expected < size])
    np.testing.assert_array_equal(mask[mask != 0.0], 1.0 / (1.0 - rate))


def test_dropout_invalid_rate(rng):
    with pytest.raises(ValueError):
        nn.dropout_mask(3, 1.0, rng)


# ---------------------------------------------------------------------------
# Adam

def _buffer(*arrays):
    """A ``ParamBuffer`` holding copies of ``arrays``."""
    buf = nn.ParamBuffer([a.shape for a in arrays], np.result_type(*arrays))
    for view, a in zip(buf, arrays):
        view[...] = a
    return buf


def test_adam_zero_gradient_keeps_params(rng):
    params = _buffer(rng.normal(size=(3, 2)), rng.normal(size=3))
    before = params.flat.copy()
    state = nn.AdamState.for_params(params, lr=0.1)
    state.m[...] = 1.0  # preloaded moments decay
    nn.adam_step(state, params, nn.ParamBuffer.like(params))
    # zero gradient: m decays but v stays zero, so the update direction is
    # m / (sqrt(0) + eps) — parameters move only if moments were nonzero.
    assert state.m[0] == pytest.approx(0.9)
    fresh = nn.ParamBuffer.like(params)
    fresh.flat[...] = before
    state2 = nn.AdamState.for_params(fresh, lr=0.1)
    nn.adam_step(state2, fresh, nn.ParamBuffer.like(fresh))
    np.testing.assert_array_equal(fresh.flat, before)


def test_adam_first_step_closed_form(rng):
    g = rng.normal(size=5)
    params = nn.ParamBuffer([(5,)])
    state = nn.AdamState.for_params(params, lr=0.01)
    nn.adam_step(state, params, _buffer(g))
    expected = -0.01 * g / (np.abs(g) + state.eps)
    np.testing.assert_allclose(params.arrays[0], expected, rtol=1e-12)


def test_adam_constant_gradient_limit():
    g = np.array([2.0, -0.5])
    params = nn.ParamBuffer([(2,)])
    state = nn.AdamState.for_params(params, lr=0.003)
    prev = params.arrays[0].copy()
    for _ in range(500):
        prev = params.arrays[0].copy()
        nn.adam_step(state, params, _buffer(g))
    step = params.arrays[0] - prev
    np.testing.assert_allclose(step, -0.003 * np.sign(g), rtol=1e-6)


def test_adam_lr_zero_keeps_params(rng):
    params = _buffer(rng.normal(size=4))
    before = params.arrays[0].copy()
    state = nn.AdamState.for_params(params, lr=0.0)
    for _ in range(3):
        nn.adam_step(state, params, _buffer(rng.normal(size=4)))
    np.testing.assert_array_equal(params.arrays[0], before)


def test_adam_flushes_a_decayed_first_moment_to_zero():
    # one gradient, then none: m decays by beta1 a step and would spend about
    # 150 steps as a float32 subnormal on its way to zero
    params = nn.ParamBuffer([(3,)], np.float32)
    grads = nn.ParamBuffer.like(params)
    state = nn.AdamState.for_params(params, lr=0.01)
    grads.flat[...] = [1.0, -1.0, 1e-3]
    nn.adam_step(state, params, grads)
    grads.flat[...] = 0.0
    tiny = np.finfo(np.float32).tiny
    for _ in range(1000):
        nn.adam_step(state, params, grads)
        assert not np.any((state.m != 0.0) & (np.abs(state.m) < tiny))
    assert not state.m.any()
    assert {a.dtype for a in (params.flat, state.m, state.v, *state.work)} == {
        np.dtype(np.float32)}


def test_adam_rejects_non_finite():
    params = nn.ParamBuffer([(2,)])
    state = nn.AdamState.for_params(params, lr=0.01)
    with pytest.raises(NumericalError):
        nn.adam_step(state, params, _buffer(np.array([1.0, np.nan])))


# ---------------------------------------------------------------------------
# backprop

def _stack_2_2_2(rng):
    stack = glorot_stack([2, 2, 2], rng)
    for layer in stack.layers:
        # a positive bias keeps a row that ReLU or dropout zeroed off the kink
        layer.bias[...] = rng.uniform(0.2, 0.5, size=layer.out_dim)
    return stack


def _fd_check(stack, x, target, masks, tol=1e-4):
    """Central finite differences of 0.5*sum((y-t)^2) against backprop.

    Every pre-activation must sit well clear of the ReLU kink, where a
    gate flip within the step makes central differences meaningless.
    """

    def loss():
        y, _ = stack.forward(x, masks)
        return 0.5 * float(((y - target) ** 2).sum())

    y, cache = stack.forward(x, masks)
    for layer, h in zip(stack.layers, cache["inputs"]):
        assert np.abs(nn.dense_forward(layer, h)).min() > 1e-3
    _, grads = stack.backward(cache, y - target)

    h = 1e-5
    worst = 0.0
    for layer, (gw, gb) in zip(stack.layers, grads):
        for arr, grad in ((layer.weights, gw), (layer.bias, gb)):
            flat, gflat = arr.ravel(), grad.ravel()
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
    assert worst < tol


def test_backprop_matches_fd_2_2_2(rng):
    stack = _stack_2_2_2(rng)
    x = rng.normal(size=(3, 2))
    target = rng.normal(size=(3, 2))
    _fd_check(stack, x, target, masks=None)


def test_backprop_matches_fd_with_fixed_dropout(rng):
    stack = _stack_2_2_2(rng)
    x = rng.normal(size=(4, 2))
    target = rng.normal(size=(4, 2))
    masks = [nn.dropout_mask((4, 2), 0.4, rng) for _ in stack.layers]
    _fd_check(stack, x, target, masks=masks)


def test_backprop_zero_upstream_gives_zero_grads(rng):
    stack = _stack_2_2_2(rng)
    _, cache = stack.forward(rng.normal(size=(2, 2)))
    _, grads = stack.backward(cache, np.zeros((2, 2)))
    for gw, gb in grads:
        assert np.all(gw == 0)
        assert np.all(gb == 0)


def test_backprop_linear_net_matches_least_squares(rng):
    # one linear layer with MSE loss: dW = (y - t) x^T summed over batch
    layer = glorot_layer(3, 2, rng)
    x = rng.normal(size=(6, 3))
    target = rng.normal(size=(6, 2))
    y = nn.dense_forward(layer, x)
    _, grad_w, grad_b = nn.dense_backward(layer, x, y - target)
    residual = y - target
    np.testing.assert_allclose(grad_w, residual.T @ x, rtol=1e-12)
    np.testing.assert_allclose(grad_b, residual.sum(axis=0), rtol=1e-12)


def test_infer_matches_cached_eval_forward(rng, monkeypatch):
    stack = glorot_stack([12, 16, 8, 3], rng)
    x = rng.normal(size=(40, 12))
    x_before = x.copy()
    expected, _ = stack.forward(x)
    rows = []
    dense_forward = nn.dense_forward

    def counted(layer, h):
        rows.append(h.shape[0])
        return dense_forward(layer, h)

    # infer calls dense_forward through the module, so a wrapper sees every layer
    monkeypatch.setattr(nn, "dense_forward", counted)
    got = stack.infer(x)
    assert got.tobytes() == expected.tobytes()
    assert rows == [40, 40, 40]
    np.testing.assert_array_equal(x, x_before)


# ---------------------------------------------------------------------------
# flat parameter buffer

def _adam_reference(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1.0e-8):
    """Per-array Adam, written out as the textbook update (Kingma & Ba)."""
    b1t = 1.0 - b1 ** step
    b2t = 1.0 - b2 ** step
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * g * g
        p -= lr * (mm / b1t) / (np.sqrt(vv / b2t) + eps)


def test_param_buffer_views_share_one_buffer(rng):
    buf = nn.ParamBuffer([(3, 4), (4,), (0,), (2, 3)])
    assert buf.flat.size == 12 + 4 + 0 + 6
    for a in buf:
        assert np.shares_memory(a, buf.flat) or a.size == 0
    buf.arrays[3][1, 2] = 7.0
    assert buf.flat[-1] == 7.0
    assert [buf.index_of(i) for i in (0, 11, 12, 15, 16, 21)] == [0, 0, 1, 1, 3, 3]


def test_flat_adam_matches_per_array_formula_bitwise(rng):
    shapes = [(5, 3), (5,), (2, 5), (2,)]
    params = nn.ParamBuffer(shapes)
    params.flat[...] = rng.normal(size=params.flat.size)
    ref = [p.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    grads = nn.ParamBuffer(shapes)
    state = nn.AdamState.for_params(params, lr=0.01)
    lr = 0.01
    for step in range(1, 4):
        grads.flat[...] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-6, 3)
        if step == 3:  # a plateau cut, as the trainer makes
            state.lr *= 0.5
            lr *= 0.5
        nn.adam_step(state, params, grads)
        _adam_reference(ref, list(grads), ref_m, ref_v, step, lr)
    assert params.flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


def test_flat_adam_names_the_non_finite_parameter(rng):
    params = nn.ParamBuffer([(3, 2), (3,), (4, 3), (4,)])
    grads = nn.ParamBuffer.like(params)
    state = nn.AdamState.for_params(params, lr=0.01)
    nn.adam_step(state, params, grads)
    grads.arrays[2][1, 1] = np.inf
    with pytest.raises(NumericalError, match=r"parameter 2 at Adam step 2"):
        nn.adam_step(state, params, grads)
    assert state.step == 1


# ---------------------------------------------------------------------------
# stacks of models

def test_stacked_buffer_views_each_array_across_its_rows(rng):
    shapes = [(3, 4), (3,), (2, 3), (2,)]
    stack = nn.ParamBuffer.stack([nn.ParamBuffer(shapes, np.float32)] * 5)
    assert stack.flat.shape == (5, 12 + 3 + 6 + 2) and stack.flat.dtype == np.float32
    assert [a.shape for a in stack] == [(5, 3, 4), (5, 1, 3), (5, 2, 3), (5, 1, 2)]
    stack.flat[...] = rng.normal(size=stack.flat.shape)
    one = stack.model(3)
    assert [a.shape for a in one] == shapes
    for a, b in zip(one, stack):
        assert np.shares_memory(a, stack.flat)
        assert np.array_equal(a, b[3].reshape(a.shape))
    kept = stack.take([4, 1])
    assert np.array_equal(kept.flat, stack.flat[[4, 1]]) and not np.shares_memory(kept.flat,
                                                                                 stack.flat)
    assert nn.ParamBuffer.like(stack).flat.shape == stack.flat.shape


def test_stacked_dense_passes_give_each_model_its_own_bits(rng):
    dims = [12, 16, 8]
    models = [glorot_stack(dims, rng) for _ in range(3)]
    shapes = [s for layer in models[0].layers for s in (layer.weights.shape, layer.bias.shape)]
    singles = [nn.ParamBuffer(shapes, np.float32) for _ in models]
    for buf, model in zip(singles, models):
        buf.flat[...] = np.concatenate([a.ravel() for layer in model.layers
                                        for a in (layer.weights, layer.bias)])
    stack = nn.ParamBuffer.stack(singles)

    def layers(buf):
        return nn.DenseStack([nn.DenseLayer(w, b) for w, b in zip(buf.arrays[0::2],
                                                                   buf.arrays[1::2])])

    x = rng.uniform(-1, 1, size=(3, 40, 12)).astype(np.float32)
    masks = [nn.dropout_mask((3, 40, d), 0.2, rng, np.float32) for d in dims[1:]]
    grad_out = rng.normal(size=(3, 40, 8)).astype(np.float32)
    out, cache = layers(stack).forward(x, masks)
    grads = nn.ParamBuffer.like(stack)
    gx, _ = layers(stack).backward(cache, grad_out.copy(),
                                   out=list(zip(grads.arrays[0::2], grads.arrays[1::2])))
    for i, buf in enumerate(singles):
        out_i, cache_i = layers(buf).forward(x[i], [m[i] for m in masks])
        g = nn.ParamBuffer.like(buf)
        gx_i, _ = layers(buf).backward(cache_i, grad_out[i].copy(),
                                       out=list(zip(g.arrays[0::2], g.arrays[1::2])))
        assert out_i.tobytes() == out[i].tobytes()
        assert gx_i.tobytes() == gx[i].tobytes()
        assert g.flat.tobytes() == grads.flat[i].tobytes()


def test_stacked_adam_steps_each_model_with_its_own_rate(rng):
    shapes = [(4, 3), (4,)]
    singles = [nn.ParamBuffer(shapes, np.float32) for _ in range(3)]
    for buf in singles:
        buf.flat[...] = rng.normal(size=buf.flat.size)
    stack = nn.ParamBuffer.stack(singles)
    rates = [0.01, 0.005, 0.0025]
    state = nn.AdamState.for_params(stack, np.array([[r] for r in rates], np.float32))
    states = [nn.AdamState.for_params(buf, r) for buf, r in zip(singles, rates)]
    for _ in range(3):
        grads = nn.ParamBuffer.like(stack)
        grads.flat[...] = rng.normal(size=grads.flat.shape)
        nn.adam_step(state, stack, grads)
        for i, (buf, st) in enumerate(zip(singles, states)):
            g = nn.ParamBuffer.like(buf)
            g.flat[...] = grads.flat[i]
            nn.adam_step(st, buf, g)
    for i, (buf, st) in enumerate(zip(singles, states)):
        assert buf.flat.tobytes() == stack.flat[i].tobytes()
        assert st.m.tobytes() == state.m[i].tobytes() and st.v.tobytes() == state.v[i].tobytes()
    kept = state.take([2, 0])
    assert kept.step == 3 and kept.lr.ravel().tolist() == [np.float32(0.0025), np.float32(0.01)]
    assert np.array_equal(kept.m, state.m[[2, 0]])
    grads.arrays[1][2, 0, 3] = np.nan
    with pytest.raises(NumericalError, match=r"parameter 1 at Adam step 4"):
        nn.adam_step(state, stack, grads)
