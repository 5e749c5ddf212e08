"""Exception taxonomy shared across the package, and the field type check
that the config dataclasses raise through it.

The CLI maps these onto exit codes: usage/config problems exit 2, data
problems exit 3, incomplete experiments exit 4.
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


class VocabError(DataError):
    """Vocabulary construction or lookup failure."""


class CheckpointError(CrisisAdaptError):
    """Base class for checkpoint persistence failures."""


class IntegrityError(CheckpointError):
    """Checkpoint payload does not match its manifest (length or digest)."""


class CompatibilityError(CheckpointError):
    """Checkpoint was produced against a different vocabulary or config."""


class IncompleteExperimentError(CrisisAdaptError):
    """An experiment finished with failing cells (exit code 4)."""


# annotation -> (accepted type, what the error message asks for)
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


def check_field_types(config, error: type[Exception]) -> None:
    """Raise `error` naming the first field of the dataclass `config` whose
    value does not fit its annotation: an int field takes an integer, a
    float field any finite real number, and neither takes a bool."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(getattr(f.type, "__name__", f.type))
        value = getattr(config, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
            raise error(f"{f.name} must be {kind[1]}, got {value!r}")
        if kind and not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
