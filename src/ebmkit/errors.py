"""Exception taxonomy shared by all ebmkit modules.

Every error carries a short machine-parseable ``category`` used by the CLI
to emit single-line error reports. checked states the domain of one
numeric or boolean value; the configs, the CLI flags and the estimators
check their values through it and nowhere else.
"""

import contextlib
import math
import numbers
import operator


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
    """A sampling chain produced NaN gradients; carries the offending step.
    Both are its args, so it pickles (the CLI's second process sends its
    errors back that way)."""

    category = "chain-diverged"

    def __init__(self, message, step_index):
        super().__init__(message, step_index)
        self.step_index = step_index

    def __str__(self):
        return f"{self.args[0]} (step {self.step_index})"


class NonFiniteEnergyError(EbmError):
    """An energy or its gradient came out inf or NaN, as the weights of
    an extreme checkpoint overflow."""

    category = "non-finite-energy"


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


_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def checked(name, value, kind, error=ConfigError, **bounds):
    """value as kind (int, float or bool) within bounds, or error naming
    the field and its domain.

    An int rejects bools and every float, 2.0 included. A float takes a
    real number or a numeric string (PyYAML reads 1e-4 as a string) but
    neither a bool nor nan nor +-inf. A bool must be a bool. bounds are
    ge/gt (closed/open lower) and le/lt (closed/open upper).
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    number, ok = value, False
    if kind is bool:
        domain, ok = "true or false", isinstance(value, bool)
    elif kind is int:
        domain, ok = "an integer", real and isinstance(value, numbers.Integral)
    else:
        domain = "a finite number"
        if real or isinstance(value, str):
            with contextlib.suppress(ValueError, OverflowError):
                number = float(value)
                ok = math.isfinite(number)
    if bounds:
        domain += " " + " and ".join(f"{_BOUNDS[key][0]} {bound:g}"
                                     for key, bound in bounds.items())
    if ok and all(_BOUNDS[key][1](number, bound)
                  for key, bound in bounds.items()):
        return kind(number)
    shown = repr(value) if isinstance(value, str) else value
    raise error(f"{name} must be {domain}, got {shown}")
