"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: config/usage errors exit 1, data
errors exit 2, numerical failures exit 3, a worker process that died exits 4.
"""


class PipelineError(Exception):
    exit_code = 2


class ConfigError(PipelineError):
    """Bad user-supplied configuration or parameters."""

    exit_code = 1


class DataError(PipelineError):
    """Input data violates a documented contract."""

    exit_code = 2


class NumericalError(PipelineError):
    """A computation diverged or produced non-finite values."""

    exit_code = 3


class WorkerError(PipelineError):
    """A worker process ended without returning its unit's result."""

    exit_code = 4


class FormatError(DataError):
    """Malformed file container (header fields, payload framing)."""


class ShapeError(DataError):
    """Header metadata and payload disagree, or arrays are misaligned."""


class SynthSpecError(ConfigError):
    """Synthetic-data spec is internally inconsistent."""


class EmptyRegionError(DataError):
    """Region mask selects no usable cells."""


class DegenerateInputError(DataError):
    """Input has no dynamic range (e.g. constant field)."""


class SsaWindowError(ConfigError):
    """Series too short for the requested SSA window length."""
