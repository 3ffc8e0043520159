"""Variational autoencoder for 12-month GPP windows.

Encoder trunk 12 -> 128 -> 64 -> 32 and decoder trunk d -> 32 -> 64 ->
128 are ``nn.DenseStack`` objects (ReLU + dropout after every layer).
Three single dense layers sit outside them: the two linear heads for the
latent mean and log-variance, and the tanh output layer 128 -> 12.
Training minimizes a Gaussian window log-likelihood (squared error summed
over the window, scaled by a fixed decoder variance) plus a beta-weighted
closed-form KL term against the standard normal prior; see ``_batch_loss``.

A unit's ``MassSeries`` is the one input. A training run scales it to
[-1, 1] by its min and max, ``reconstruct`` by the model's, and both view
the scaled series, without a copy, as the windows that start at each of
its months; batches and blocks gather their windows from that view, at
the rows ``_window_rows`` gives. ``vae_anomalies`` is the mass minus its
reconstruction.

Training is fully deterministic given the config seed. Inference
(reconstruction and the validation loss) decodes the posterior mean with
dropout off, so anomalies and thresholds are reproducible. It runs the
cache-free eval pass of ``nn.DenseStack.infer`` on blocks of at most
``INFER_BLOCK_ROWS`` windows (whole cells for reconstruction), so its
memory stays at a few MB whatever the region size. Blocks are cut to
near-equal lengths: a product of a hundred rows or so can take another
BLAS kernel, with other rounding, than one of thousands, while blocks of
a cell's windows (361 at 372 months) or more give the same bits as one
pass over all rows.

A model holds the ``TrainConfig`` it was built from, and its latent width,
loss weights and dropout rate are read from there alone: no layer or stack
keeps a copy. All parameters live in one flat buffer in checkpoint order
(encoder, mean head, log-variance head, decoder trunk, output layer;
weights before bias), and the layers are views into it, so a checkpoint
loads into a zeroed layout without drawing weights. A training step writes
its gradients into a second buffer of that layout and Adam updates the
whole buffer at once; best-epoch snapshots and checkpoints copy that
buffer directly, through the grid module's flat-binary container.

``train_lockstep`` trains several ``TrainRun`` objects of one config and
equal window counts (a region's periods of equal length) as one stack of
models: one (M, n_params) buffer, one forward pass, one backward pass and
one Adam update per step for all of them. Each run keeps its own
generator, data, learning rate, early stop and history, and a stacked
step gives each model the bits of a step alone, so every run ends as it
would have alone. ``train`` is a stack of one. A run holds its unit's
scaled float32 series and the view rows of its windows, not its windows:
12 bytes a window where float32 windows take 48, so ``cli.cmd_train``
trains all of a region's periods of equal length as one group, whatever
the region size.

``train`` runs its step loop and its validation passes in float32: it
trains a float32 copy of the float64 Glorot initialization on a float32
copy of the scaled series. Each step draws ``eps`` in float64 and casts it,
then draws all of its dropout masks at once with ``nn.dropout_mask``,
which places only the dropped units, so the generator's stream does not
depend on the precision and the draw's cost follows the units dropped.
Batch means accumulate in float64. The model it returns is
float64, holding exact upcasts of the best epoch's float32 parameters, and
everything after training (checkpoints, reconstruction, anomalies) is
float64. A computation takes the dtype of the model's parameters; the
encode and decode edges cast their batches to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ConfigError, DegenerateInputError, FormatError, NumericalError, ShapeError
from .grid import MassSeries, in_float_range, is_int, read_flat, write_flat
from .nn import (
    AdamState,
    DenseLayer,
    DenseStack,
    ParamBuffer,
    adam_step,
    dense_backward,
    dense_forward,
    dropout_mask,
    glorot_uniform,
)

SEQ_LEN = 12
# Manifest fields that load_checkpoint checks: the model it builds always has these.
_FIXED_ARCHITECTURE = {"input_dim": SEQ_LEN, "activation_hidden": "relu",
                       "activation_output": "tanh"}
# Most rows per eval-mode pass (reconstruct, eval_loss): bounds inference
# memory at a few MB of activations whatever the region size: a pass holds
# two layers' activations at a time, 1.5 MB of float64 at 1,024 rows through
# the 128- and 64-wide layers.
INFER_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one VAE training run."""

    max_epochs: int = 500
    early_stop_patience: int = 50
    plateau_patience: int = 5
    plateau_factor: float = 0.5
    learning_rate: float = 0.005
    batch_size: int = 64
    validation_fraction: float = 0.2
    seed: int = 0
    hidden_dims: tuple = (128, 64, 32)
    latent_dim: int = 5
    beta: float = 0.5
    dropout_rate: float = 0.01
    likelihood_var: float = 0.1  # Gaussian decoder variance, normalized units

    def __post_init__(self):
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not (0.0 < self.plateau_factor < 1.0):
            raise ConfigError("plateau_factor must be in (0, 1)")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError(
                f"hidden_dims must be one or more widths >= 1, got {list(self.hidden_dims)}")
        if self.beta < 0.0:
            raise ConfigError("beta must be >= 0")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be >= 1")
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.likelihood_var <= 0.0:
            raise ConfigError("likelihood_var must be > 0")


@dataclass
class VaeModel:
    """A VAE whose layers are views into one ``ParamBuffer``, in checkpoint order.

    ``params`` may be a stack of models that train in lockstep; such a
    stack shares its config's settings, and has no scaling limits.
    """

    params: ParamBuffer
    config: TrainConfig  # the one holder of the model's settings
    x_min: float | None = None
    x_max: float | None = None
    encoder: DenseStack = field(init=False, repr=False, compare=False)
    mu_head: DenseLayer = field(init=False, repr=False, compare=False)
    logvar_head: DenseLayer = field(init=False, repr=False, compare=False)
    decoder: DenseStack = field(init=False, repr=False, compare=False)
    # tanh layer from the decoder trunk back to the window
    output: DenseLayer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = self.params.arrays
        layers = [DenseLayer(w, b) for w, b in zip(arrays[0::2], arrays[1::2])]
        n_enc = len(self.config.hidden_dims)
        self.encoder = DenseStack(layers[:n_enc])
        self.mu_head, self.logvar_head = layers[n_enc:n_enc + 2]
        self.decoder = DenseStack(layers[n_enc + 2:-1])
        self.output = layers[-1]

    @classmethod
    def zeros(cls, config: TrainConfig, x_min: float, x_max: float) -> "VaeModel":
        """A float64 model of the config's layout with every parameter zero."""
        hidden, d = list(config.hidden_dims), config.latent_dim
        enc, dec = [SEQ_LEN] + hidden, [d] + hidden[::-1]
        dims = [*zip(enc, enc[1:]), (hidden[-1], d), (hidden[-1], d), *zip(dec, dec[1:]),
                (hidden[0], SEQ_LEN)]
        return cls(ParamBuffer([s for i, o in dims for s in ((o, i), (o,))]), config,
                   x_min, x_max)

    def astype(self, dtype) -> "VaeModel":
        """A copy with its parameters cast to ``dtype``, and the same settings."""
        params = ParamBuffer(self.params.shapes, flat=self.params.flat.astype(dtype))
        return replace(self, params=params)


def build_model(config: TrainConfig, x_min: float, x_max: float,
                rng: np.random.Generator) -> VaeModel:
    model = VaeModel.zeros(config, x_min, x_max)
    # Glorot draws in checkpoint order, which is the parameter buffer's; biases stay zero
    for weights in model.params.arrays[0::2]:
        weights[...] = glorot_uniform(weights.shape[1], weights.shape[0], rng)
    return model


# ---------------------------------------------------------------------------
# scaling and windows

def _window_rows(cells, n_months: int) -> np.ndarray:
    """(len(cells), n_months - 11) rows of the window view of an
    (n_cells, n_months) series that hold the windows of its rows ``cells``.

    Row r of the view, ``sliding_window_view(series.ravel(), SEQ_LEN)``,
    holds the 12 months from flat index r, so the window that starts at
    month s of cell c is row c * n_months + s; rows that cross two cells
    are never picked.
    """
    return np.asarray(cells)[:, None] * n_months + np.arange(n_months - SEQ_LEN + 1)


def scale_to_unit(x, x_min, x_max):
    return 2.0 * (np.asarray(x, dtype=float) - x_min) / (x_max - x_min) - 1.0


def denormalize(x, x_min, x_max):
    return (np.asarray(x, dtype=float) + 1.0) / 2.0 * (x_max - x_min) + x_min


# ---------------------------------------------------------------------------
# core operations

def _batch(model: VaeModel, x, width: int, what: str) -> np.ndarray:
    """``x`` as an array of the model's dtype; a ShapeError unless it is a 2-D
    batch ``width`` wide."""
    x = np.asarray(x, dtype=model.params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what} must be a 2-D batch {width} wide, got shape {x.shape}")
    return x


def encode(model: VaeModel, windows):
    """Latent means and log-variances of a 2-D batch of windows (eval mode)."""
    h = model.encoder.infer(_batch(model, windows, SEQ_LEN, "windows"))
    return dense_forward(model.mu_head, h), dense_forward(model.logvar_head, h)


def decode(model: VaeModel, z):
    """Reconstructed windows of a 2-D batch of latent points (eval mode)."""
    h = model.decoder.infer(_batch(model, z, model.config.latent_dim, "latent points"))
    xhat = dense_forward(model.output, h)
    return np.tanh(xhat, out=xhat)


def kl_divergence(mu, logvar):
    """Closed-form KL(q || N(0, I)) = -1/2 sum(1 + logvar - mu^2 - sigma^2) of each row."""
    return (-0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar))).sum(axis=-1)


def _row_losses(err, mu, logvar):
    """Each row's squared reconstruction error summed over the window, and its KL."""
    return np.square(err).sum(axis=-1), kl_divergence(mu, logvar)


def _batch_loss(sq_sum, kl, beta, likelihood_var):
    """Training objective of a batch from its rows' terms: reconstruction + beta * KL.

    The reconstruction term is the negative Gaussian log-likelihood of the
    window under a decoder with fixed variance ``likelihood_var``, i.e.
    sum((x - xhat)^2) / (2 * likelihood_var), averaged over the batch.
    Averaging the squared error over the 12 components instead would let
    the KL term dominate at beta = 0.5 and collapse the posterior before
    the windows are learned.
    Returns (total, recon_mse, kl) where recon_mse is the per-component
    mean squared error for reporting: Python floats for one model's rows,
    (M,) float64 arrays for the (M, n) rows of a stack. The means
    accumulate in float64 whatever the dtype of the rows' terms; a float64
    sum over the rows, divided by their count, gives the bits of
    ``np.mean`` with less overhead.
    """
    n = sq_sum.shape[-1]
    recon_sum = np.add.reduce(sq_sum, axis=-1, dtype=np.float64) / n
    kl = np.add.reduce(kl, axis=-1, dtype=np.float64) / n
    if sq_sum.ndim == 1:
        recon_sum, kl = float(recon_sum), float(kl)
    total = recon_sum / (2.0 * likelihood_var) + beta * kl
    return total, recon_sum / SEQ_LEN, kl


# ---------------------------------------------------------------------------
# training

def draw_dropout_masks(model: VaeModel, n_rows: int, rng) -> tuple:
    """(encoder masks, decoder masks) at the config's dropout rate, one
    (n_rows, width) mask per layer, of the model's dtype; (None, None) at
    rate 0.

    One ``dropout_mask`` call draws every mask of the step over one flat
    buffer, which holds the encoder's masks and then the decoder's, each
    in layer order; each mask is a C-contiguous view of that buffer. For a
    stack of M models ``rng`` holds one generator per model: model i's
    call draws from ``rng[i]`` into row i of an (M, size) buffer, and each
    mask is an (M, n_rows, width) view across the rows.
    """
    rate, dtype = model.config.dropout_rate, model.params.flat.dtype
    if rate == 0.0:
        return None, None
    widths = [layer.out_dim for stack in (model.encoder, model.decoder)
              for layer in stack.layers]
    size = n_rows * sum(widths)
    flat = np.empty(model.params.flat.shape[:-1] + (size,), dtype)
    for row, gen in zip(flat.reshape(-1, size), rng if flat.ndim > 1 else [rng]):
        dropout_mask(size, rate, gen, dtype, out=row)
    starts = np.cumsum([0] + widths) * n_rows
    masks = [flat[..., start:start + n_rows * width].reshape(flat.shape[:-1] + (n_rows, width))
             for start, width in zip(starts, widths)]
    n_enc = len(model.encoder.layers)
    return masks[:n_enc], masks[n_enc:]


def loss_and_grads(model: VaeModel, x, eps, enc_masks, dec_masks, out=None):
    """One training step's loss terms and exact parameter gradients.

    ``eps`` is the reparameterization draw and ``enc_masks``/``dec_masks``
    the dropout masks of ``draw_dropout_masks``, all supplied by the
    caller so gradient checks can hold them fixed.
    Returns ((total, recon, kl), grads) where grads is a ``ParamBuffer``
    aligned to ``model.params``: ``out`` when given (its contents are
    overwritten), else a new one. ``x`` is a 2-D float batch of windows;
    it, ``eps`` and the masks share the dtype of the model's parameters,
    which the whole step keeps. A stack of M models takes (M, n, width)
    stacks of them, one batch per model, and its loss terms are (M,)
    arrays (see ``_batch_loss``).
    """
    n = x.shape[-2]
    grads = ParamBuffer.like(model.params) if out is None else out
    pairs = list(zip(grads.arrays[0::2], grads.arrays[1::2]))
    n_enc = len(model.encoder.layers)
    beta, likelihood_var = model.config.beta, model.config.likelihood_var

    h, cache_e = model.encoder.forward(x, enc_masks)
    mu = dense_forward(model.mu_head, h)
    logvar = dense_forward(model.logvar_head, h)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    h_d, cache_d = model.decoder.forward(z, dec_masks)
    xhat = np.tanh(dense_forward(model.output, h_d))

    err = xhat - x
    total, recon, kl = _batch_loss(*_row_losses(err, mu, logvar), beta, likelihood_var)

    dxhat = err / (likelihood_var * n)
    dh_d, _, _ = dense_backward(model.output, h_d, dxhat * (1.0 - xhat ** 2), *pairs[-1])
    dz, _ = model.decoder.backward(cache_d, dh_d, out=pairs[n_enc + 2:-1])
    dmu = dz + beta * mu / n
    dlogvar = dz * (0.5 * sigma * eps) + beta * (np.exp(logvar) - 1.0) * 0.5 / n
    dh_mu, _, _ = dense_backward(model.mu_head, h, dmu, *pairs[n_enc])
    dh_lv, _, _ = dense_backward(model.logvar_head, h, dlogvar, *pairs[n_enc + 1])
    model.encoder.backward(cache_e, dh_mu + dh_lv, out=pairs[:n_enc], input_grad=False)
    return (total, recon, kl), grads


def eval_loss(model: VaeModel, windows, rows):
    """Validation loss terms of the windows ``windows[rows]``: dropout off,
    decode the posterior mean (z = mu).

    The rows go through the network in blocks of at most
    ``INFER_BLOCK_ROWS``, each gathered from ``windows`` (which may be a
    strided view of overlapping windows) on its own; each row's terms land
    in one vector per term, so the batch means are those of a single pass.
    """
    sq_sum = np.empty(len(rows))
    kl = np.empty(len(rows))
    for block in _blocks(len(rows), INFER_BLOCK_ROWS):
        x = windows[rows[block]]
        mu, logvar = encode(model, x)
        sq_sum[block], kl[block] = _row_losses(decode(model, mu) - x, mu, logvar)
    return _batch_loss(sq_sum, kl, model.config.beta, model.config.likelihood_var)


def _blocks(n: int, size: int) -> list:
    """Slices that cut range(n) into the fewest runs of at most ``size``, of near-equal length.

    No run is a short remainder, which could round differently from one
    pass over all rows (see the module docstring).
    """
    count = max(1, -(-n // size))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class TrainRun:
    """One model's own part of training: its generator, data, learning-rate
    schedule, early stop, best snapshot and history.

    Making a run min-max scales the unit's mass to [-1, 1], with the
    global min and max over its cells and months as the model's scaling
    limits, then draws the initial weights and the train/validation split
    from the run's generator. The run keeps a float32 copy of the scaled
    series, viewed (without a copy) as its windows, and the shuffled view
    rows of its train and validation windows (``_window_rows``); each
    batch gathers its windows from the view. ``name`` names the run in a
    training error.
    """

    def __init__(self, mass: MassSeries, config: TrainConfig, name: str = ""):
        values = np.asarray(mass.values, dtype=float)
        n_cells, n_months = values.shape
        if n_months < SEQ_LEN:
            raise ShapeError(f"need at least {SEQ_LEN} months, got {n_months}")
        x_min, x_max = float(values.min()), float(values.max())
        if x_max == x_min:
            raise DegenerateInputError("constant mass field cannot be normalized to [-1, 1]")
        rows = _window_rows(np.arange(n_cells), n_months).ravel()
        n = rows.size
        if n < config.batch_size:
            raise ConfigError(f"{n} windows < batch size {config.batch_size}")
        self.config, self.name = config, name
        self.rng = np.random.default_rng(config.seed)
        # a float32 copy of the float64 Glorot draws trains; the best epoch's
        # float32 parameters become a float64 model when the run finishes
        self.model = build_model(config, x_min, x_max, self.rng).astype(np.float32)
        rows = rows[self.rng.permutation(n)]
        n_val = min(max(int(round(config.validation_fraction * n)), 1), n - 1)
        self.val_rows, self.train_rows = rows[:n_val], rows[n_val:]
        self.windows = np.lib.stride_tricks.sliding_window_view(
            scale_to_unit(values, x_min, x_max).astype(np.float32).ravel(), SEQ_LEN)
        self.lr = config.learning_rate
        self.best_val, self.best_epoch = np.inf, 0
        self.best_params = self.model.params.flat.copy()
        self.stale_early = self.stale_plateau = 0
        self.history = []

    def end_epoch(self, epoch: int, train_loss: float, val: tuple, params: np.ndarray) -> bool:
        """Record an epoch, snapshot ``params`` on a new best validation loss
        and apply the plateau cut; whether the run stops early."""
        val_total, val_recon, val_kl = val
        self.history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_total,
                             "val_recon": val_recon, "val_kl": val_kl, "lr": self.lr})
        if val_total < self.best_val:
            self.best_val, self.best_epoch = val_total, epoch
            self.best_params = params.copy()
            self.stale_early = self.stale_plateau = 0
            return False
        self.stale_early += 1
        self.stale_plateau += 1
        if self.stale_plateau >= self.config.plateau_patience:
            self.lr *= self.config.plateau_factor
            self.stale_plateau = 0
        return self.stale_early >= self.config.early_stop_patience

    def finish(self) -> tuple:
        """(float64 model of the best epoch, history); the run's data is released."""
        self.windows = self.train_rows = self.val_rows = None
        self.model.params.flat[...] = self.best_params
        return self.model.astype(np.float64), {"epochs": self.history, "best_epoch": self.best_epoch,
                            "best_val_loss": self.best_val}


def train_lockstep(runs: list) -> list:
    """Train runs of one config (apart from the seed) and of equal window
    counts in lockstep; returns (model, history) per run, in order.

    Each step runs one forward pass, one backward pass and one Adam update
    over the stack of the active runs' float32 parameters. Each run draws
    its batch order, ``eps`` and masks from its own generator in the order
    that ``train`` documents, validates its own model and keeps its own
    learning rate, so it ends with the parameters and history it would
    have had alone. A run that stops early leaves the stack, which is
    rebuilt without it. A non-finite loss or gradient is a NumericalError
    naming the run, the epoch and the batch.
    """
    config = runs[0].config
    n_train, n_val = runs[0].train_rows.size, runs[0].val_rows.size
    for run in runs:
        if (replace(run.config, seed=config.seed) != config
                or (run.train_rows.size, run.val_rows.size) != (n_train, n_val)):
            raise ValueError("lockstep runs need one config apart from the seed and "
                             "equal window counts")
    active = list(runs)
    params = ParamBuffer.stack([run.model.params for run in runs])
    opt = AdamState.for_params(params, np.array([[run.lr] for run in runs], np.float32))
    net = None
    for epoch in range(1, config.max_epochs + 1):
        if net is None:
            net, grads = VaeModel(params, config), ParamBuffer.like(params)
            models = [VaeModel(params.model(i), config) for i in range(len(active))]
            rngs = [run.rng for run in active]
        orders = [run.train_rows[run.rng.permutation(n_train)] for run in active]
        loss_sum = 0.0
        for batch, start in enumerate(range(0, n_train, config.batch_size)):
            size = min(config.batch_size, n_train - start)
            x = np.empty((len(active), size, SEQ_LEN), np.float32)
            eps = np.empty((len(active), size, config.latent_dim), np.float32)
            for i, (run, order) in enumerate(zip(active, orders)):
                x[i] = run.windows[order[start:start + size]]
                eps[i] = run.rng.standard_normal((size, config.latent_dim))
            enc_masks, dec_masks = draw_dropout_masks(net, size, rngs)
            (total, _, _), _ = loss_and_grads(net, x, eps, enc_masks, dec_masks, out=grads)
            try:
                if not np.isfinite(total).all():
                    raise NumericalError("non-finite loss")
                adam_step(opt, params, grads)
            except NumericalError as exc:
                bad = ~np.isfinite(total)
                if not bad.any():
                    bad = ~np.isfinite(grads.flat).all(axis=-1)
                name = active[int(bad.argmax())].name
                raise NumericalError(
                    f"training {name + ' ' if name else ''}aborted at epoch {epoch}, "
                    f"batch {batch}: {exc}"
                ) from exc
            loss_sum = loss_sum + total * size

        train_loss = loss_sum / n_train
        stops = [run.end_epoch(epoch, float(train_loss[i]),
                               eval_loss(models[i], run.windows, run.val_rows), params.flat[i])
                 for i, run in enumerate(active)]
        opt.lr[:, 0] = [run.lr for run in active]
        if any(stops):
            keep = [i for i, stop in enumerate(stops) if not stop]
            for run, stop in zip(active, stops):
                if stop:
                    run.windows = run.train_rows = run.val_rows = None  # free its data now
            active = [active[i] for i in keep]
            if not active:
                break
            params, opt, net = params.take(keep), opt.take(keep), None
    return [run.finish() for run in runs]


def train(mass: MassSeries, config: TrainConfig):
    """Train on the pooled windows of a unit's mass; returns (best model,
    per-epoch history).

    Shuffled split by ``validation_fraction``; mean validation total loss
    drives both the plateau scheduler (halve the learning rate after
    ``plateau_patience`` stale epochs) and early stopping
    (``early_stop_patience``). Parameters from the best-validation epoch
    are returned. Bit-reproducible for a fixed seed: one generator draws
    the initial weights and the split, then per epoch the batch order and
    per step ``eps`` and then one ``draw_dropout_masks`` call for all
    masks, in that order.

    Steps and validation run in float32 on a float32 copy of the model;
    ``eps`` is drawn in float64 and cast, and the masks are float32 with
    the positions a float64 draw would have. Batches gather their windows
    from a float32 copy of the scaled series (see ``TrainRun``). The
    returned model is float64 and holds exact upcasts of the best epoch's
    float32 parameters. This is a ``TrainRun`` trained by
    ``train_lockstep`` as a stack of one.
    """
    return train_lockstep([TrainRun(mass, config)])[0]


# ---------------------------------------------------------------------------
# reconstruction and anomalies

def reconstruct(model: VaeModel, mass: MassSeries) -> MassSeries:
    """Window-and-average reconstruction of a mass series.

    The mass is scaled with the model's limits. Every stride-1 window is
    encoded and decoded at the posterior mean (eval mode); overlapping
    reconstructed values are averaged per month and denormalized. Cells go
    through the network in blocks of whole cells of at most
    ``INFER_BLOCK_ROWS`` windows (one cell when a cell has more); each
    block gathers only its own windows from the window view of the scaled
    series, as training does. Every month gets a value; the edge months,
    covered by fewer windows, are among those ``extremes.valid_months``
    leaves out.
    """
    values = np.asarray(mass.values, dtype=float)
    n_cells, n_months = values.shape
    if n_months < SEQ_LEN:
        raise ShapeError(f"need at least {SEQ_LEN} months to reconstruct, got {n_months}")
    scaled = scale_to_unit(values, model.x_min, model.x_max)
    view = np.lib.stride_tricks.sliding_window_view(scaled.ravel(), SEQ_LEN)
    per_cell = n_months - SEQ_LEN + 1
    recon = np.empty_like(scaled)
    for cells in _blocks(n_cells, max(1, INFER_BLOCK_ROWS // per_cell)):
        windows = view[_window_rows(np.arange(n_cells)[cells], n_months)]
        mu, _ = encode(model, windows.reshape(-1, SEQ_LEN))
        recon[cells] = kernels.overlap_average(decode(model, mu).reshape(windows.shape))
    return replace(mass, values=denormalize(recon, model.x_min, model.x_max))


def vae_anomalies(model: VaeModel, mass: MassSeries) -> MassSeries:
    """Anomaly = mass - its reconstruction by ``model``, per cell per month (GgC),
    subtracted into the reconstruction's own array."""
    recon = reconstruct(model, mass).values
    return replace(mass, values=np.subtract(mass.values, recon, out=recon))


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: VaeModel, path, seed=None, epoch=None) -> None:
    """JSON manifest of the model's config + little-endian float64 parameter payload
    (float32-exact values for a model that ``train`` returned)."""
    config, flat = model.config, model.params.flat
    manifest = {
        "input_dim": SEQ_LEN,
        "hidden_dims": list(config.hidden_dims),
        "latent_dim": config.latent_dim,
        "beta": config.beta,
        "dropout_rate": config.dropout_rate,
        "activation_hidden": "relu",
        "activation_output": "tanh",
        "likelihood_var": config.likelihood_var,
        "x_min": model.x_min,
        "x_max": model.x_max,
        "seed": seed,
        "epoch": epoch,
        "n_params": int(flat.size),
    }
    write_flat(path, manifest, flat)


# Manifest fields that build the model: what each must hold, and its check.
# The numbers follow the config's rule: finite, and a bool is not a number.
_MANIFEST_FIELDS = {
    "hidden_dims": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "latent_dim": ("an integer", is_int),
    **dict.fromkeys(("beta", "dropout_rate", "likelihood_var", "x_min", "x_max"),
                    ("a finite number",
                     lambda v: (is_int(v) or isinstance(v, float)) and in_float_range(v))),
}


def load_checkpoint(path) -> tuple[VaeModel, dict]:
    """The model and manifest of ``save_checkpoint``; a damaged file is a FormatError.

    The model's config holds the manifest's ``hidden_dims``, ``latent_dim``,
    ``beta``, ``dropout_rate`` and ``likelihood_var``; a manifest without
    ``likelihood_var`` gets TrainConfig's default. Every other config field
    (epochs, patience, learning rate, batch size, validation fraction and
    seed) is TrainConfig's default, not the training run's. The scaling
    limits must be finite with ``x_max > x_min``, or no anomaly is finite.
    """
    header_path, manifest, payload_path, payload = read_flat(path, "manifest")
    for name, expected in _FIXED_ARCHITECTURE.items():
        if manifest.get(name) != expected:
            raise FormatError(
                f"{header_path}: {name} is {manifest.get(name)!r}, expected {expected!r}"
            )
    fields = {"likelihood_var": TrainConfig.likelihood_var, **manifest}
    for name, (kind, check) in _MANIFEST_FIELDS.items():
        if name not in fields:
            raise FormatError(f"{header_path}: manifest missing field {name!r}")
        if not check(fields[name]):
            raise FormatError(
                f"{header_path}: manifest field {name!r} must be {kind}, got {fields[name]!r}")
    if not fields["x_max"] > fields["x_min"]:
        raise FormatError(
            f"{header_path}: manifest field 'x_max' ({fields['x_max']!r}) must exceed "
            f"x_min ({fields['x_min']!r})")
    try:
        config = TrainConfig(
            hidden_dims=tuple(fields["hidden_dims"]),
            latent_dim=fields["latent_dim"],
            beta=fields["beta"],
            dropout_rate=fields["dropout_rate"],
            likelihood_var=fields["likelihood_var"],
        )
    except ConfigError as exc:
        raise FormatError(f"{header_path}: {exc}") from exc
    model = VaeModel.zeros(config, fields["x_min"], fields["x_max"])
    flat = model.params.flat
    if payload.size != flat.size:
        raise ShapeError(
            f"{payload_path}: payload holds {payload.size} parameters, manifest "
            f"implies {flat.size}"
        )
    flat[...] = payload
    return model, manifest
