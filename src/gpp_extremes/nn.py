"""Minimal dense-network machinery with exact analytic backpropagation.

Every function operates on batches shaped (n, dim), or on a stack of M
models' batches shaped (M, n, dim) with layers stacked the same way, and
dtype follows the buffer: a pass computes in the dtype of the parameters
and inputs it is given, float32 or float64, and every scalar it mixes in
is a Python number, which takes the array's dtype under every NumPy
version. Inputs are used as given, with no coercion or width check: the
VAE checks its batches once, at its API edge. Training state (parameters,
Adam moments) is mutated sequentially by one owner; forward passes on
frozen parameters are pure.

A model keeps its parameters in one ``ParamBuffer``: every weight matrix
and bias vector is a view into a single contiguous array of one dtype.
Backward passes can write gradients straight into the views of a second
buffer of the same layout, and Adam then updates the whole buffer at once
instead of looping over the arrays. A stacked buffer holds one model per
row, and its views take each array across the rows, so one pass steps
every model of the stack. A stacked matmul, reduction or elementwise op
gives each model the bits of a separate call on its own slice, so a model
trains to the same parameters in a stack as alone.

A ``DenseStack`` is the VAE's trunk: every layer is dense, then ReLU, then
inverted dropout. Its ``forward`` is the one cached pass for a backward
pass, used by training and the gradient checks alike. The stack holds no
dropout rate: the caller supplies the masks, so a check can hold them
fixed; without masks there is no dropout. ReLU and the mask act in place
on each layer's output, which the cache keeps once; the backward pass
masks the gradient in place and takes relu' from the cached post-dropout
activations, the same bits as masking a copy.
Inference uses ``DenseStack.infer`` instead: no dropout and no cache, so a
pass holds one layer's input and output at a time. The VAE's linear heads
and its tanh output layer are single ``DenseLayer`` objects outside any
stack.

``dropout_mask`` draws only the dropped positions, as geometric gaps, so
its cost follows the number of units dropped (1% at the VAE's default
rate), not the number of units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError


def glorot_uniform(in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class ParamBuffer:
    """Arrays of the given shapes laid end to end in one buffer of ``dtype``.

    ``flat`` is the buffer and ``arrays`` are views into it, in order;
    iterating the buffer yields the views. ``flat`` adopts an existing
    buffer of the layout instead of a zeroed one; an (M, size) buffer is a
    stack of M models, one model's buffer per row, whose arrays are viewed
    across the rows as (M, *shape), a vector as (M, 1, n) so that it
    broadcasts over a batch's rows.
    """

    def __init__(self, shapes, dtype=np.float64, flat=None):
        self.shapes = [tuple(shape) for shape in shapes]
        self.offsets = np.cumsum([0] + [math.prod(shape) for shape in self.shapes])
        self.flat = np.zeros(int(self.offsets[-1]), dtype=dtype) if flat is None else flat
        lead = self.flat.shape[:-1]  # (M,) for a stack
        self.arrays = []
        for start, stop, shape in zip(self.offsets[:-1], self.offsets[1:], self.shapes):
            if lead and len(shape) == 1:
                shape = (1,) + shape
            self.arrays.append(self.flat[..., start:stop].reshape(lead + shape))

    @classmethod
    def like(cls, buffer: "ParamBuffer") -> "ParamBuffer":
        """A zeroed buffer with the layout and dtype of ``buffer``, stacked or not."""
        return cls(buffer.shapes, flat=np.zeros_like(buffer.flat))

    @classmethod
    def stack(cls, buffers) -> "ParamBuffer":
        """A stack of copies of one-model ``buffers`` of one layout and dtype."""
        return cls(buffers[0].shapes, flat=np.array([b.flat for b in buffers]))

    def model(self, i: int) -> "ParamBuffer":
        """Model ``i`` of a stack, as a one-model buffer of views into its row."""
        return ParamBuffer(self.shapes, flat=self.flat[i])

    def take(self, rows) -> "ParamBuffer":
        """A stack of copies of the models ``rows``, in that order."""
        return ParamBuffer(self.shapes, flat=self.flat[rows])

    def __iter__(self):
        return iter(self.arrays)

    def index_of(self, position: int) -> int:
        """Index of the array that holds element ``position`` of a model's buffer."""
        return int(np.searchsorted(self.offsets, position, side="right")) - 1


@dataclass
class DenseLayer:
    """Affine map y = W x + b with W shaped (out_dim, in_dim); a stack of M
    layers holds W as (M, out_dim, in_dim) and b as (M, 1, out_dim).

    ``weights_t`` is the transposed view that every forward pass multiplies
    by, made once with the layer. It follows the weights' values, so it
    stays right while they change in place.
    """

    weights: np.ndarray
    bias: np.ndarray
    weights_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights_t = np.swapaxes(self.weights, -1, -2)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    y = x @ layer.weights_t
    y += layer.bias
    return y


def dense_backward(layer, x, grad_out, grad_w=None, grad_b=None, input_grad=True):
    """Gradients of a dense layer given upstream grad at its output.

    Returns (grad_x, grad_weights, grad_bias); ``x`` and ``grad_out``
    are 2-D batches, or (M, n, dim) stacks for a stacked layer, whose bias
    gradient keeps the row axis as the stacked bias does. The weight and
    bias gradients are written into ``grad_w`` and ``grad_b`` when given.
    With ``input_grad=False`` the input gradient is not computed and
    ``grad_x`` is None.
    """
    grad_x = grad_out @ layer.weights if input_grad else None
    grad_w = np.matmul(grad_out.swapaxes(-1, -2), x, out=grad_w)
    grad_b = np.add.reduce(grad_out, axis=-2, out=grad_b, keepdims=grad_out.ndim > 2)
    return grad_x, grad_w, grad_b


def dropout_mask(shape, rate: float, rng: np.random.Generator,
                 dtype=np.float64, out=None) -> np.ndarray:
    """Inverted-dropout mask of ``dtype``: zeros w.p. ``rate``, survivors
    scaled 1/(1-rate). ``out``, a C-contiguous array of ``shape`` and
    ``dtype``, receives the mask when given.

    The zeros are the successes of a Bernoulli(``rate``) process over the
    mask's elements in C order, placed by the geometric gaps between them,
    so the draw costs about ``rate`` times the element count, not one
    uniform per element. Each element is still zeroed independently with
    probability ``rate``. Each chunk of gaps covers the expected number of
    zeros among the elements left plus four standard deviations, so one
    chunk nearly always reaches the end. Rate 0 draws nothing, and the
    generator's stream and the zeroed positions do not depend on
    ``dtype``. The stream follows numpy's ``Generator.geometric``, so it is
    fixed within one numpy build.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if out is None:
        mask = np.full(shape, 1.0 / (1.0 - rate), dtype)
    else:
        mask = out
        mask.fill(1.0 / (1.0 - rate))
    flat = mask.reshape(-1)
    size = flat.size
    last = -1  # position of the last success placed
    while rate > 0.0 and last < size - 1:
        expected = (size - 1 - last) * rate
        gaps = rng.geometric(rate, int(expected + 4.0 * math.sqrt(expected)) + 1)
        # A tiny rate draws gaps near 2**63, whose sum would wrap; a gap of
        # size + 1 already reaches past the mask from any position.
        np.minimum(gaps, size + 1, out=gaps)
        positions = np.cumsum(gaps)
        positions += last
        flat[positions[:np.searchsorted(positions, size)]] = 0.0
        last = int(positions[-1])
    return mask


# ---------------------------------------------------------------------------
# layer stack with cached forward for exact backprop

@dataclass
class DenseStack:
    """Dense layers, each followed by ReLU and the caller's inverted-dropout mask."""

    layers: list

    def forward(self, x, masks=None):
        """Run the stack; returns (output, cache) with cache usable by backward.

        ``masks`` holds one inverted-dropout mask per layer, which scales
        that layer's activations in place, or is None for no dropout. The
        cache keeps each layer's post-dropout activation once, as that
        layer's activation and the next layer's input.
        """
        inputs, acts = [], []
        h = x
        for i, layer in enumerate(self.layers):
            inputs.append(h)
            h = dense_forward(layer, h)
            np.maximum(h, 0.0, out=h)
            if masks is not None:
                h *= masks[i]
            acts.append(h)
        return h, {"inputs": inputs, "acts": acts, "masks": masks}

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Output of a float batch without dropout and without a cache.

        ReLU is applied in place on each layer's output, so only one
        layer's input and output are alive at a time.
        """
        h = x
        for layer in self.layers:
            h = dense_forward(layer, h)
            np.maximum(h, 0.0, out=h)
        return h

    def backward(self, cache, grad_out, out=None, input_grad=True):
        """Exact gradients through the cached forward pass.

        Returns (grad_input, grads) where grads is a list of
        (grad_weights, grad_bias) in layer order. ``out``, a list of
        (weights, bias) arrays per layer, receives the gradients in place
        when given. With ``input_grad=False`` the first layer's input
        gradient is skipped and grad_input is None. ``grad_out`` is
        overwritten: each layer's mask and relu' scale the gradient in place.

        relu' comes from the post-dropout activation. It is 1 where that is
        positive, which a positive mask value leaves as it was; where the
        mask dropped a unit, the gradient is already zero.
        """
        grads = [None] * len(self.layers)
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            if cache["masks"] is not None:
                g *= cache["masks"][i]
            g *= cache["acts"][i] > 0
            gw, gb = out[i] if out is not None else (None, None)
            g, gw, gb = dense_backward(
                self.layers[i], cache["inputs"][i], g, gw, gb, input_grad=input_grad or i > 0
            )
            grads[i] = (gw, gb)
        return g, grads


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """Adam accumulators of one ``ParamBuffer``; the learning rate is
    mutable so a scheduler can act.

    ``m`` and ``v`` are flat like the buffer, of its dtype, and ``work``
    holds two scratch arrays of that size and dtype that every step reuses.
    Every operation of a step writes into these arrays, so a float32
    buffer is updated in float32. For a stack of M models ``lr`` may be an
    (M, 1) column of the buffer's dtype, one rate per model; the models of
    a stack share the step count.
    """

    lr: float
    m: np.ndarray
    v: np.ndarray
    work: tuple
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1.0e-8
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamBuffer, lr) -> "AdamState":
        flat = params.flat
        return cls(
            lr=lr,
            m=np.zeros_like(flat),
            v=np.zeros_like(flat),
            work=(np.empty_like(flat), np.empty_like(flat)),
        )

    def take(self, rows) -> "AdamState":
        """The state of a stack's models ``rows``, in that order, as ``ParamBuffer.take``."""
        m = self.m[rows]
        return replace(self, lr=self.lr[rows], m=m, v=self.v[rows],
                       work=(np.empty_like(m), np.empty_like(m)))


def adam_step(state: AdamState, params: ParamBuffer, grads: ParamBuffer) -> ParamBuffer:
    """One in-place Adam update with bias correction; returns ``params``.

    ``params`` and ``grads`` share one layout and are updated as flat
    arrays, each element as m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g
    and p -= lr*(m/b1t) / (sqrt(v/b2t) + eps). A non-finite gradient is a
    NumericalError naming its parameter array.
    """
    p, g = params.flat, grads.flat
    if not np.isfinite(g).all():
        # the position within its model's row, for a stack
        i = grads.index_of(int(np.flatnonzero(~np.isfinite(g))[0]) % g.shape[-1])
        raise NumericalError(
            f"non-finite gradient in parameter {i} at Adam step {state.step + 1}"
        )
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    b1t = 1.0 - b1 ** state.step
    b2t = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    step, denom = state.work
    m *= b1
    np.multiply(g, 1.0 - b1, out=step)
    m += step
    # The first moment of a parameter whose gradient stays zero (a dead
    # ReLU unit) decays into the subnormal range, where x86 arithmetic is
    # tens of times slower: some 800 steps after its last gradient in
    # float32. Flush it to zero; the update it would have made is at most
    # about 1e-29 times the learning rate.
    m *= np.abs(m) >= np.finfo(m.dtype).tiny
    v *= b2
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v += step
    np.divide(m, b1t, out=step)
    step *= state.lr
    np.divide(v, b2t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step
    return params
