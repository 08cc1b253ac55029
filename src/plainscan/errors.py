"""Exception hierarchy shared by every module.

CLI exit codes: usage/configuration errors map to 1, data and format
errors to 2, numerical failures to 3.
"""

import numpy as np


class PlainScanError(Exception):
    exit_code = 1


class ConfigError(PlainScanError):
    """Invalid configuration value (bad extent, indivisible resolution, ...)."""
    exit_code = 1


class ShapeError(PlainScanError):
    """Operand shapes violate an operation's contract."""
    exit_code = 2


class FormatError(PlainScanError):
    """Malformed file content (image headers, weight containers)."""
    exit_code = 2


class ManifestError(PlainScanError):
    """Weight manifest does not match the model's parameter table."""
    exit_code = 2


class NumericalError(PlainScanError):
    """NaN/Inf or domain violation during computation."""
    exit_code = 3


def check_integer(name, value, least=None):
    """Raise ConfigError unless ``value`` is a Python or numpy integer (not a
    bool), and at least ``least`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
