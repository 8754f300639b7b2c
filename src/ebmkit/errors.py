"""Exception taxonomy shared by all ebmkit modules.

Every error carries a short machine-parseable ``category`` used by the CLI
to emit single-line error reports.
"""


class EbmError(Exception):
    category = "internal"


class DimensionError(EbmError):
    """Tensor/operand shapes are incompatible."""

    category = "dimension"


class ContractError(EbmError):
    """An operation was called outside its contract (e.g. non-scalar output)."""

    category = "contract"


class TapeLookupError(EbmError):
    """A node id was not found on the tape it was claimed to live on."""

    category = "tape-lookup"


class LabelError(EbmError):
    """Class labels missing, unexpected, or out of range."""

    category = "label"


class ChainDivergedError(EbmError):
    """A sampling chain produced NaN gradients; carries the offending step."""

    category = "chain-diverged"

    def __init__(self, message, step_index):
        super().__init__(f"{message} (step {step_index})")
        self.step_index = step_index


class TrainingDivergedError(EbmError):
    """NaN appeared in training gradients."""

    category = "training-diverged"


class DegenerateEstimateError(EbmError):
    """All importance weights collapsed to -inf."""

    category = "degenerate-estimate"


class ConfigError(EbmError):
    """A run configuration failed validation."""

    category = "config"


class DataError(EbmError):
    """Dataset generation parameters violate their preconditions."""

    category = "data"
