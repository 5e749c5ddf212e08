"""Exception taxonomy shared across the package, and the field type check
that the config dataclasses raise through it.

The CLI maps these onto exit codes: usage/config problems exit 2, data
and checkpoint problems exit 3, a training run whose loss or gradients
stop being finite exits 5.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


class CrisisAdaptError(Exception):
    """Base class for all package errors."""


class ConfigError(CrisisAdaptError):
    """Invalid configuration or hyperparameters (exit code 2)."""


class DataError(CrisisAdaptError):
    """Base class for dataset problems (exit code 3)."""


class SchemaError(DataError):
    """Dataset file violates the TSV schema; message carries the line number."""


class UnknownEventError(DataError):
    """A record references an event id absent from the registry."""


class LabelError(DataError):
    """Raw labels outside the active unification map, or missing unified labels."""


class PlanError(DataError):
    """Invalid adaptation plan (e.g. target inside a multi-event source set)."""


class SplitError(DataError):
    """An event's training or test split, needed by a plan, is absent,
    empty, or holds another event's record."""


class VocabError(DataError):
    """Vocabulary construction or lookup failure."""


class CheckpointError(CrisisAdaptError):
    """Base class for checkpoint persistence failures."""


class IntegrityError(CheckpointError):
    """Checkpoint payload does not match its manifest (length or digest)."""


class CompatibilityError(CheckpointError):
    """Checkpoint was produced against a different vocabulary or config."""


class NonFiniteError(CrisisAdaptError):
    """A training loss or gradient norm is NaN or infinite, as when the
    learning rate is too high (exit code 5)."""


# annotation -> (accepted type, what the error message asks for)
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}
# int fields hold counts, sizes and seeds; seeds are unsigned 64-bit
# (rng.mix_seed), so the accepted range spans int64 and uint64
_INT_RANGE = (-(2**63), 2**64 - 1)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an integer past the float range
        return False


def check_field_types(config, error: type[Exception]) -> None:
    """Raise `error` naming the first field of the dataclass `config` whose
    value does not fit its annotation: an int field takes an integer that
    fits in 64 bits, a float field any real number that converts to a
    finite float, and neither takes a bool."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(getattr(f.type, "__name__", f.type))
        if kind is None:
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, kind[0]):
            raise error(f"{f.name} must be {kind[1]}, got {value!r}")
        # an integer too long to print is described by its size
        shown = (f"an integer of {int(value).bit_length()} bits"
                 if isinstance(value, numbers.Integral) else repr(value))
        if kind[0] is numbers.Integral and not _INT_RANGE[0] <= value <= _INT_RANGE[1]:
            raise error(f"{f.name} must fit in 64 bits, got {shown}")
        if not _is_finite(value):
            raise error(f"{f.name} must be finite, got {shown}")
