"""Variational autoencoder for 12-month GPP windows.

Encoder trunk 12 -> 128 -> 64 -> 32 (ReLU + dropout after each hidden
layer), two linear heads for the latent mean and log-variance, decoder
trunk d -> 32 -> 64 -> 128 with a tanh output layer back to 12. Training
minimizes a Gaussian window log-likelihood (squared error summed over the
window, scaled by a fixed decoder variance) plus a beta-weighted
closed-form KL term against the standard normal prior; see ``objective``.

Training is fully deterministic given the config seed. Inference
(reconstruction) decodes the posterior mean with dropout off, so
anomalies and thresholds are reproducible.

All parameters live in one flat buffer in checkpoint order (encoder,
mean head, log-variance head, decoder; weights before bias). A training
step writes its gradients into a second buffer of that layout and Adam
updates the whole buffer at once; best-epoch snapshots and checkpoints
copy that buffer directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, DegenerateInputError, FormatError, NumericalError, ShapeError
from .grid import AnomalyField, MassSeries, _paths
from .nn import (
    AdamState,
    DenseLayer,
    DenseStack,
    ParamBuffer,
    adam_step,
    dense_backward,
    dense_forward,
)

SEQ_LEN = 12
# Manifest fields that load_checkpoint checks: the model it builds always has these.
_FIXED_ARCHITECTURE = {"input_dim": SEQ_LEN, "activation_hidden": "relu",
                       "activation_output": "tanh"}


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

    windows: np.ndarray  # (n_windows, SEQ_LEN), values in [-1, 1]
    cells: np.ndarray  # row index into the source MassSeries per window
    starts: np.ndarray  # start month per window
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
    latent_dim: int
    beta: float
    dropout_rate: float
    x_min: float
    x_max: float
    likelihood_var: float = 0.1
    params: ParamBuffer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = (
            self.encoder.layers + [self.mu_head, self.logvar_head] + self.decoder.layers
        )
        self.params = ParamBuffer.adopt(layers)

    def parameters(self):
        """All parameter arrays in declaration order (checkpoint order)."""
        return list(self.params)


def build_model(config: TrainConfig, x_min: float, x_max: float,
                rng: np.random.Generator) -> VaeModel:
    hidden = list(config.hidden_dims)
    d = config.latent_dim
    encoder = DenseStack.init(
        dims=[SEQ_LEN] + hidden,
        kinds=["relu"] * len(hidden),
        dropout_layers=[True] * len(hidden),
        dropout_rate=config.dropout_rate,
        rng=rng,
    )
    mu_head = DenseLayer.init(hidden[-1], d, rng)
    logvar_head = DenseLayer.init(hidden[-1], d, rng)
    decoder = DenseStack.init(
        dims=[d] + hidden[::-1] + [SEQ_LEN],
        kinds=["relu"] * len(hidden) + ["tanh"],
        dropout_layers=[True] * len(hidden) + [False],
        dropout_rate=config.dropout_rate,
        rng=rng,
    )
    return VaeModel(
        encoder=encoder,
        mu_head=mu_head,
        logvar_head=logvar_head,
        decoder=decoder,
        latent_dim=d,
        beta=config.beta,
        dropout_rate=config.dropout_rate,
        x_min=x_min,
        x_max=x_max,
        likelihood_var=config.likelihood_var,
    )


# ---------------------------------------------------------------------------
# normalization and window construction

def normalize(mass: MassSeries) -> tuple[WindowSet, tuple[float, float]]:
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
    scaled = scale_to_unit(values, x_min, x_max)
    per_cell = scaled.shape[1] - SEQ_LEN + 1
    wins = np.lib.stride_tricks.sliding_window_view(scaled, SEQ_LEN, axis=1)
    windows = wins.reshape(-1, SEQ_LEN).copy()
    n_cells = values.shape[0]
    cells = np.repeat(np.arange(n_cells), per_cell)
    starts = np.tile(np.arange(per_cell), n_cells)
    ws = WindowSet(windows=windows, cells=cells, starts=starts, x_min=x_min, x_max=x_max)
    return ws, (x_min, x_max)


def scale_to_unit(x, x_min, x_max):
    return 2.0 * (np.asarray(x, dtype=float) - x_min) / (x_max - x_min) - 1.0


def denormalize(x, x_min, x_max):
    return (np.asarray(x, dtype=float) + 1.0) / 2.0 * (x_max - x_min) + x_min


# ---------------------------------------------------------------------------
# core operations

def encode(model: VaeModel, window, mode: str = "eval", rng=None):
    """Latent mean and log-variance of a window (deterministic in eval mode)."""
    x = np.atleast_2d(np.asarray(window, dtype=float))
    h, _ = model.encoder.forward(x, mode=mode, rng=rng)
    mu = dense_forward(model.mu_head, h)
    logvar = dense_forward(model.logvar_head, h)
    if np.ndim(window) == 1:
        return mu[0], logvar[0]
    return mu, logvar


def reparameterize(mu, logvar, rng=None, eps=None):
    """z = mu + sigma * eps with eps ~ N(0, I); pass ``eps`` to fix the draw."""
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    if eps is None:
        eps = rng.standard_normal(mu.shape)
    return mu + np.exp(0.5 * logvar) * eps


def decode(model: VaeModel, z, mode: str = "eval", rng=None):
    zz = np.atleast_2d(np.asarray(z, dtype=float))
    xhat, _ = model.decoder.forward(zz, mode=mode, rng=rng)
    if np.ndim(z) == 1:
        return xhat[0]
    return xhat


def kl_divergence(mu, logvar):
    """Closed-form KL(q || N(0, I)) = -1/2 sum(1 + logvar - mu^2 - sigma^2).

    1-D inputs give a scalar; 2-D batches give one value per row.
    """
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    per = -0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar))
    if per.ndim == 1:
        return float(per.sum())
    return per.sum(axis=1)


def vae_loss(x, xhat, mu, logvar, beta):
    """(total, recon, kl) for one window: MSE over 12 values + beta * KL."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    recon = float(np.mean((x - xhat) ** 2))
    kl = float(np.mean(kl_divergence(mu, logvar)))
    return recon + beta * kl, recon, kl


def objective(x, xhat, mu, logvar, beta, likelihood_var):
    """Training objective: Gaussian-likelihood reconstruction + beta * KL.

    The reconstruction term is the negative Gaussian log-likelihood of the
    window under a decoder with fixed variance ``likelihood_var``, i.e.
    sum((x - xhat)^2) / (2 * likelihood_var), averaged over the batch.
    Averaging the squared error over the 12 components instead would let
    the KL term dominate at beta = 0.5 and collapse the posterior before
    the windows are learned.
    Returns (total, recon_mse, kl) where recon_mse is the per-component
    mean squared error for reporting.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    sq = (xhat - x) ** 2
    recon_sum = float(sq.sum(axis=1).mean())
    kl = float(np.mean(kl_divergence(mu, logvar)))
    total = recon_sum / (2.0 * likelihood_var) + beta * kl
    return total, recon_sum / SEQ_LEN, kl


# ---------------------------------------------------------------------------
# training

def draw_dropout_masks(stack: DenseStack, n_rows: int, rng) -> list:
    from .nn import dropout_mask

    masks = []
    for i, layer in enumerate(stack.layers):
        if stack.dropout_layers[i] and stack.dropout_rate > 0.0:
            masks.append(dropout_mask((n_rows, layer.out_dim), stack.dropout_rate, rng))
        else:
            masks.append(None)
    return masks


def loss_and_grads(model: VaeModel, x, eps, rng=None, enc_masks=None, dec_masks=None,
                   out=None):
    """One training step's loss terms and exact parameter gradients.

    ``eps`` is the reparameterization draw, supplied by the caller so
    gradient checks can hold it fixed. Dropout masks are drawn from
    ``rng`` unless given explicitly (again for finite-difference checks).
    Returns ((total, recon, kl), grads) where grads is a ``ParamBuffer``
    aligned to ``model.parameters()``: ``out`` when given (its contents
    are overwritten), else a new one.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    grads = ParamBuffer.like(model.params) if out is None else out
    pairs = list(zip(grads.arrays[0::2], grads.arrays[1::2]))
    n_enc = len(model.encoder.layers)

    if enc_masks is not None:
        h, cache_e = model.encoder.forward_with_masks(x, enc_masks)
    else:
        h, cache_e = model.encoder.forward(x, mode="train", rng=rng)
    mu = dense_forward(model.mu_head, h)
    logvar = dense_forward(model.logvar_head, h)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    if dec_masks is not None:
        xhat, cache_d = model.decoder.forward_with_masks(z, dec_masks)
    else:
        xhat, cache_d = model.decoder.forward(z, mode="train", rng=rng)

    total, recon, kl = objective(x, xhat, mu, logvar, model.beta, model.likelihood_var)

    dxhat = (xhat - x) / (model.likelihood_var * n)
    dz, _ = model.decoder.backward(cache_d, dxhat, out=pairs[n_enc + 2:])
    dmu = dz + model.beta * mu / n
    dlogvar = dz * (0.5 * sigma * eps) + model.beta * (np.exp(logvar) - 1.0) * 0.5 / n
    dh_mu, _, _ = dense_backward(model.mu_head, h, dmu, *pairs[n_enc])
    dh_lv, _, _ = dense_backward(model.logvar_head, h, dlogvar, *pairs[n_enc + 1])
    model.encoder.backward(cache_e, dh_mu + dh_lv, out=pairs[:n_enc], input_grad=False)
    return (total, recon, kl), grads


def eval_loss(model: VaeModel, x):
    """Validation loss terms: dropout off, decode the posterior mean (z = mu)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu, logvar = encode(model, x)
    xhat = decode(model, mu)
    return objective(x, xhat, mu, logvar, model.beta, model.likelihood_var)


def train(windows: WindowSet, config: TrainConfig):
    """Train on pooled windows; returns (best model, per-epoch history).

    Shuffled split by ``validation_fraction``; mean validation total loss
    drives both the plateau scheduler (halve the learning rate after
    ``plateau_patience`` stale epochs) and early stopping
    (``early_stop_patience``). Parameters from the best-validation epoch
    are returned. Bit-reproducible for a fixed seed.
    """
    n = len(windows)
    if n < config.batch_size:
        raise ConfigError(f"{n} windows < batch size {config.batch_size}")

    rng = np.random.default_rng(config.seed)
    model = build_model(config, windows.x_min, windows.x_max, rng)
    params = model.params
    grads = ParamBuffer.like(params)

    perm = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    n_val = min(max(n_val, 1), n - 1)
    x_val = windows.windows[perm[:n_val]]
    x_train = windows.windows[perm[n_val:]]

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
            eps = rng.standard_normal((idx.size, config.latent_dim))
            try:
                (total, _, _), _ = loss_and_grads(model, batch, eps, rng=rng, out=grads)
                if not np.isfinite(total):
                    raise NumericalError("non-finite loss")
                adam_step(opt, params, grads)
            except NumericalError as exc:
                raise NumericalError(
                    f"training aborted at epoch {epoch}, "
                    f"batch {start // config.batch_size}: {exc}"
                ) from exc
            loss_sum += total * idx.size

        val_total, val_recon, val_kl = eval_loss(model, x_val)
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

    params.flat[...] = best_params
    history_meta = {"best_epoch": best_epoch, "best_val_loss": best_val}
    return model, {"epochs": history, **history_meta}


# ---------------------------------------------------------------------------
# reconstruction and anomalies

def reconstruct(model: VaeModel, mass: MassSeries) -> MassSeries:
    """Window-and-average reconstruction of a mass series.

    Every stride-1 window is encoded and decoded at the posterior mean
    (eval mode); overlapping reconstructed values are averaged per month
    and denormalized. The first and last year are flagged invalid, which
    keeps the effective span aligned with the trimming rule downstream.
    """
    values = np.asarray(mass.values, dtype=float)
    n_cells, n_months = values.shape
    if n_months < SEQ_LEN:
        raise ShapeError(f"need at least {SEQ_LEN} months to reconstruct, got {n_months}")
    scaled = scale_to_unit(values, model.x_min, model.x_max)
    wins = np.lib.stride_tricks.sliding_window_view(scaled, SEQ_LEN, axis=1)
    per_cell = wins.shape[1]
    flat = wins.reshape(-1, SEQ_LEN)
    mu, _ = encode(model, flat)
    xhat = decode(model, mu).reshape(n_cells, per_cell, SEQ_LEN)

    recon_scaled = np.empty_like(scaled)
    for c in range(n_cells):
        recon_scaled[c] = kernels.overlap_average(np.ascontiguousarray(xhat[c]))
    recon = denormalize(recon_scaled, model.x_min, model.x_max)

    valid = np.zeros(n_months, dtype=bool)
    valid[SEQ_LEN:n_months - SEQ_LEN] = True
    return MassSeries(
        values=recon,
        cells=mass.cells,
        start_year=mass.start_year,
        start_month=mass.start_month,
        valid=valid,
    )


def vae_anomalies(original: MassSeries, reconstructed: MassSeries) -> AnomalyField:
    """Anomaly = original - reconstructed, per cell per valid month (GgC)."""
    if original.values.shape != reconstructed.values.shape:
        raise ShapeError(
            f"original {original.values.shape} and reconstructed "
            f"{reconstructed.values.shape} series are misaligned"
        )
    if not np.array_equal(original.cells, reconstructed.cells):
        raise ShapeError("original and reconstructed series cover different cells")
    valid = reconstructed.valid
    if valid is None:
        valid = np.ones(original.values.shape[1], dtype=bool)
    return AnomalyField(
        values=original.values - reconstructed.values,
        cells=np.asarray(original.cells, dtype=int),
        valid=valid.copy(),
        method="vae",
        start_year=original.start_year,
        start_month=original.start_month,
    )


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: VaeModel, path, seed=None, epoch=None) -> None:
    """JSON manifest + little-endian float64 parameter payload."""
    flat = model.params.flat
    manifest = {
        "input_dim": SEQ_LEN,
        "hidden_dims": [layer.out_dim for layer in model.encoder.layers],
        "latent_dim": model.latent_dim,
        "beta": model.beta,
        "dropout_rate": model.dropout_rate,
        "activation_hidden": "relu",
        "activation_output": "tanh",
        "likelihood_var": model.likelihood_var,
        "x_min": model.x_min,
        "x_max": model.x_max,
        "seed": seed,
        "epoch": epoch,
        "n_params": int(flat.size),
    }
    header_path, payload_path = _paths(path, ".f64")
    header_path.write_text(json.dumps(manifest, indent=2) + "\n")
    payload_path.write_bytes(flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[VaeModel, dict]:
    header_path, payload_path = _paths(path, ".f64")
    manifest = json.loads(header_path.read_text())
    for name, expected in _FIXED_ARCHITECTURE.items():
        if manifest.get(name) != expected:
            raise FormatError(
                f"{header_path}: {name} is {manifest.get(name)!r}, expected {expected!r}"
            )
    config = TrainConfig(
        hidden_dims=tuple(manifest["hidden_dims"]),
        latent_dim=manifest["latent_dim"],
        beta=manifest["beta"],
        dropout_rate=manifest["dropout_rate"],
        likelihood_var=manifest.get("likelihood_var", 0.1),
    )
    model = build_model(config, manifest["x_min"], manifest["x_max"], np.random.default_rng(0))
    flat = model.params.flat
    payload = np.frombuffer(payload_path.read_bytes(), dtype="<f8")
    if payload.size != flat.size:
        raise ShapeError(
            f"{payload_path}: payload holds {payload.size} parameters, manifest "
            f"implies {flat.size}"
        )
    flat[...] = payload
    return model, manifest
