"""Variational autoencoder for 12-month GPP windows.

Encoder trunk 12 -> 128 -> 64 -> 32 and decoder trunk d -> 32 -> 64 ->
128 are ``nn.DenseStack`` objects (ReLU + dropout after every layer).
Three single dense layers sit outside them: the two linear heads for the
latent mean and log-variance, and the tanh output layer 128 -> 12.
Training minimizes a Gaussian window log-likelihood (squared error summed
over the window, scaled by a fixed decoder variance) plus a beta-weighted
closed-form KL term against the standard normal prior; see ``_batch_loss``.

Training is fully deterministic given the config seed. Inference
(reconstruction and the validation loss) decodes the posterior mean with
dropout off, so anomalies and thresholds are reproducible. It runs the
cache-free eval pass of ``nn.DenseStack.infer`` on blocks of at most
``INFER_BLOCK_ROWS`` windows (whole cells for reconstruction), so its
memory stays at a few MB whatever the region size. Blocks are cut to
near-equal lengths: a product of a few hundred rows or fewer can take
another BLAS kernel, with other rounding, than one of thousands, and
blocks of thousands of rows give the same bits as one pass over all rows.

A model holds the ``TrainConfig`` it was built from, and its latent width,
loss weights and dropout rate are read from there alone: no layer or stack
keeps a copy. All parameters live in one flat buffer in checkpoint order
(encoder, mean head, log-variance head, decoder trunk, output layer;
weights before bias). A training step writes its gradients into a second
buffer of that layout and Adam updates the whole buffer at once; best-epoch
snapshots and checkpoints copy that buffer directly, through the grid
module's flat-binary container.

``train`` runs its step loop and its validation passes in float32: it
trains a float32 copy of the float64 Glorot initialization on float32
copies of the windows. Each step draws ``eps`` in float64 and casts it,
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
)

SEQ_LEN = 12
# Manifest fields that load_checkpoint checks: the model it builds always has these.
_FIXED_ARCHITECTURE = {"input_dim": SEQ_LEN, "activation_hidden": "relu",
                       "activation_output": "tanh"}
# Most rows per eval-mode pass (reconstruct, eval_loss): bounds inference
# memory at a few MB of activations whatever the region size: a pass holds
# two layers' activations at a time, 3 MB of float64 at 2,048 rows through
# the 128- and 64-wide layers.
INFER_BLOCK_ROWS = 2048


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


@dataclass(frozen=True)
class WindowSet:
    """Stride-1 normalized 12-month windows pooled over a region's cells."""

    windows: np.ndarray  # (n_windows, SEQ_LEN), cell after cell, values in [-1, 1]
    x_min: float
    x_max: float

    def __len__(self) -> int:
        return self.windows.shape[0]


@dataclass
class VaeModel:
    encoder: DenseStack
    mu_head: DenseLayer
    logvar_head: DenseLayer
    decoder: DenseStack
    output: DenseLayer  # tanh layer from the decoder trunk back to the window
    config: TrainConfig  # the one holder of the model's settings
    x_min: float
    x_max: float
    params: ParamBuffer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = ParamBuffer.adopt(
            self.encoder.layers + [self.mu_head, self.logvar_head]
            + self.decoder.layers + [self.output]
        )

    def astype(self, dtype) -> "VaeModel":
        """A copy with its parameters cast to ``dtype``, and the same settings."""
        def cast(layer):
            return DenseLayer(layer.weights.astype(dtype), layer.bias.astype(dtype))

        return replace(
            self,
            encoder=DenseStack([cast(layer) for layer in self.encoder.layers]),
            mu_head=cast(self.mu_head),
            logvar_head=cast(self.logvar_head),
            decoder=DenseStack([cast(layer) for layer in self.decoder.layers]),
            output=cast(self.output),
        )


def build_model(config: TrainConfig, x_min: float, x_max: float,
                rng: np.random.Generator) -> VaeModel:
    hidden = list(config.hidden_dims)
    d = config.latent_dim
    # Glorot draws in checkpoint order, which is the parameter buffer's
    return VaeModel(
        DenseStack.init([SEQ_LEN] + hidden, rng),
        DenseLayer.init(hidden[-1], d, rng),
        DenseLayer.init(hidden[-1], d, rng),
        DenseStack.init([d] + hidden[::-1], rng),
        DenseLayer.init(hidden[0], SEQ_LEN, rng),
        config, x_min, x_max,
    )


# ---------------------------------------------------------------------------
# normalization and window construction

def normalize(mass: MassSeries) -> WindowSet:
    """Min-max scale to [-1, 1] and cut stride-1 windows from every cell.

    The scaling limits are the global min/max over all masked cells and
    months of this region-period, so one model sees one normalization.
    """
    values = np.asarray(mass.values, dtype=float)
    if values.shape[1] < SEQ_LEN:
        raise ShapeError(f"need at least {SEQ_LEN} months, got {values.shape[1]}")
    x_min = float(values.min())
    x_max = float(values.max())
    if x_max == x_min:
        raise DegenerateInputError("constant mass field cannot be normalized to [-1, 1]")
    windows = _windows(scale_to_unit(values, x_min, x_max))
    return WindowSet(windows=windows, x_min=x_min, x_max=x_max)


def _windows(scaled: np.ndarray) -> np.ndarray:
    """Stride-1 windows of every row, row after row, as one C-contiguous array.

    The windows are copied at most once: ``reshape`` copies those of
    several rows, and for one row returns a view of overlapping windows,
    which ``ascontiguousarray`` copies.
    """
    wins = np.lib.stride_tricks.sliding_window_view(scaled, SEQ_LEN, axis=1)
    return np.ascontiguousarray(wins.reshape(-1, SEQ_LEN))


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
    return (-0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar))).sum(axis=1)


def _row_losses(err, mu, logvar):
    """Each row's squared reconstruction error summed over the window, and its KL."""
    return np.square(err).sum(axis=1), kl_divergence(mu, logvar)


def _batch_loss(sq_sum, kl, beta, likelihood_var):
    """Training objective of a batch from its rows' terms: reconstruction + beta * KL.

    The reconstruction term is the negative Gaussian log-likelihood of the
    window under a decoder with fixed variance ``likelihood_var``, i.e.
    sum((x - xhat)^2) / (2 * likelihood_var), averaged over the batch.
    Averaging the squared error over the 12 components instead would let
    the KL term dominate at beta = 0.5 and collapse the posterior before
    the windows are learned.
    Returns (total, recon_mse, kl) where recon_mse is the per-component
    mean squared error for reporting. The means accumulate in float64
    whatever the dtype of the rows' terms; a float64 sum over the rows,
    divided by their count, gives the bits of ``np.mean`` with less
    overhead.
    """
    n = sq_sum.shape[0]
    recon_sum = float(np.add.reduce(sq_sum, dtype=np.float64) / n)
    kl = float(np.add.reduce(kl, dtype=np.float64) / n)
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
    in layer order; each mask is a C-contiguous view of that buffer.
    """
    rate, dtype = model.config.dropout_rate, model.params.flat.dtype
    if rate == 0.0:
        return None, None
    widths = [layer.out_dim for stack in (model.encoder, model.decoder)
              for layer in stack.layers]
    flat = dropout_mask(n_rows * sum(widths), rate, rng, dtype)
    starts = np.cumsum([0] + widths) * n_rows
    masks = [flat[start:start + n_rows * width].reshape(n_rows, width)
             for start, width in zip(starts, widths)]
    n_enc = len(model.encoder.layers)
    return masks[:n_enc], masks[n_enc:]


def loss_and_grads(model: VaeModel, x, eps, enc_masks, dec_masks, out=None):
    """One training step's loss terms and exact parameter gradients.

    ``eps`` is the reparameterization draw and ``enc_masks``/``dec_masks``
    the dropout masks of ``draw_dropout_masks``, all supplied by the
    caller so gradient checks can hold them fixed.
    Returns ((total, recon, kl), grads) where grads is a ``ParamBuffer``
    aligned to ``model.params``: ``out`` when given (its contents
    are overwritten), else a new one. ``x`` is a 2-D float batch of
    windows, as ``normalize`` cuts them; it, ``eps`` and the masks share
    the dtype of the model's parameters, which the whole step keeps.
    """
    n = x.shape[0]
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


def eval_loss(model: VaeModel, x):
    """Validation loss terms: dropout off, decode the posterior mean (z = mu).

    The windows go through the network in blocks of at most
    ``INFER_BLOCK_ROWS`` rows; each row's terms land in one vector per
    term, so the batch means are those of a single pass.
    """
    sq_sum = np.empty(x.shape[0])
    kl = np.empty(x.shape[0])
    for rows in _blocks(x.shape[0], INFER_BLOCK_ROWS):
        mu, logvar = encode(model, x[rows])
        sq_sum[rows], kl[rows] = _row_losses(decode(model, mu) - x[rows], mu, logvar)
    return _batch_loss(sq_sum, kl, model.config.beta, model.config.likelihood_var)


def _blocks(n: int, size: int) -> list:
    """Slices that cut range(n) into the fewest runs of at most ``size``, of near-equal length.

    No run is a short remainder, which could round differently from one
    pass over all rows (see the module docstring).
    """
    count = max(1, -(-n // size))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def train(windows: WindowSet, config: TrainConfig):
    """Train on pooled windows; returns (best model, per-epoch history).

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
    the positions a float64 draw would have. The float64 windows are
    released once cast; the returned model is float64 and holds exact
    upcasts of the best epoch's float32 parameters.
    """
    n = len(windows)
    if n < config.batch_size:
        raise ConfigError(f"{n} windows < batch size {config.batch_size}")

    rng = np.random.default_rng(config.seed)
    model = build_model(config, windows.x_min, windows.x_max, rng)
    work = model.astype(np.float32)
    params = work.params
    grads = ParamBuffer.like(params)

    perm = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    n_val = min(max(n_val, 1), n - 1)
    shuffled = windows.windows.astype(np.float32)[perm]
    del windows  # a caller that passes normalize(...) inline frees the float64 copy here
    x_val, x_train = shuffled[:n_val], shuffled[n_val:]

    opt = AdamState.for_params(params, config.learning_rate)
    best_val = np.inf
    best_params = params.flat.copy()
    best_epoch = 0
    stale_early = 0
    stale_plateau = 0
    history = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(x_train.shape[0])
        loss_sum = 0.0
        for start in range(0, order.size, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = x_train[idx]
            eps = rng.standard_normal((idx.size, config.latent_dim)).astype(np.float32)
            enc_masks, dec_masks = draw_dropout_masks(work, idx.size, rng)
            try:
                (total, _, _), _ = loss_and_grads(work, batch, eps, enc_masks, dec_masks,
                                                  out=grads)
                if not np.isfinite(total):
                    raise NumericalError("non-finite loss")
                adam_step(opt, params, grads)
            except NumericalError as exc:
                raise NumericalError(
                    f"training aborted at epoch {epoch}, "
                    f"batch {start // config.batch_size}: {exc}"
                ) from exc
            loss_sum += total * idx.size

        val_total, val_recon, val_kl = eval_loss(work, x_val)
        history.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / order.size,
                "val_loss": val_total,
                "val_recon": val_recon,
                "val_kl": val_kl,
                "lr": opt.lr,
            }
        )

        if val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            best_params = params.flat.copy()
            stale_early = 0
            stale_plateau = 0
        else:
            stale_early += 1
            stale_plateau += 1
            if stale_plateau >= config.plateau_patience:
                opt.lr *= config.plateau_factor
                stale_plateau = 0
            if stale_early >= config.early_stop_patience:
                break

    model.params.flat[...] = best_params
    history_meta = {"best_epoch": best_epoch, "best_val_loss": best_val}
    return model, {"epochs": history, **history_meta}


# ---------------------------------------------------------------------------
# reconstruction and anomalies

def reconstruct(model: VaeModel, mass: MassSeries) -> MassSeries:
    """Window-and-average reconstruction of a mass series.

    Every stride-1 window is encoded and decoded at the posterior mean
    (eval mode); overlapping reconstructed values are averaged per month
    and denormalized. Cells go through the network in blocks of whole
    cells of at most ``INFER_BLOCK_ROWS`` windows (one cell when a cell
    has more), and only the current block's windows are built. Every
    month gets a value; the edge months, covered by fewer windows, are
    among those ``extremes.valid_months`` leaves out.
    """
    values = np.asarray(mass.values, dtype=float)
    n_cells, n_months = values.shape
    if n_months < SEQ_LEN:
        raise ShapeError(f"need at least {SEQ_LEN} months to reconstruct, got {n_months}")
    scaled = scale_to_unit(values, model.x_min, model.x_max)
    per_cell = n_months - SEQ_LEN + 1
    recon_scaled = np.empty_like(scaled)
    for cells in _blocks(n_cells, max(1, INFER_BLOCK_ROWS // per_cell)):
        mu, _ = encode(model, _windows(scaled[cells]))
        xhat = decode(model, mu).reshape(-1, per_cell, SEQ_LEN)
        for c, cell_hat in enumerate(xhat, start=cells.start):
            recon_scaled[c] = kernels.overlap_average(cell_hat)
    return MassSeries(
        values=denormalize(recon_scaled, model.x_min, model.x_max),
        cells=mass.cells,
        start_year=mass.start_year,
        start_month=mass.start_month,
    )


def vae_anomalies(original: MassSeries, reconstructed: MassSeries) -> MassSeries:
    """Anomaly = original - reconstructed, per cell per month (GgC)."""
    if original.values.shape != reconstructed.values.shape:
        raise ShapeError(
            f"original {original.values.shape} and reconstructed "
            f"{reconstructed.values.shape} series are misaligned"
        )
    if not np.array_equal(original.cells, reconstructed.cells):
        raise ShapeError("original and reconstructed series cover different cells")
    return MassSeries(
        values=original.values - reconstructed.values,
        cells=original.cells,
        start_year=original.start_year,
        start_month=original.start_month,
    )


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
    model = build_model(config, fields["x_min"], fields["x_max"], np.random.default_rng(0))
    flat = model.params.flat
    if payload.size != flat.size:
        raise ShapeError(
            f"{payload_path}: payload holds {payload.size} parameters, manifest "
            f"implies {flat.size}"
        )
    flat[...] = payload
    return model, manifest
