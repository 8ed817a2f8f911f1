"""Shared floating-point comparison policy.

All geometric comparisons (touching intervals, "length equals" checks,
threshold acceptance) go through a single tolerance, the module attribute
EPS: 1e-9, or the KCOVER_EPS environment variable, a finite number >= 0.
EPS is read on first use, not at import, so a bad KCOVER_EPS raises a
ConfigError that the CLI reports (exit 2) instead of an import traceback.
"""

import math
import os

from .errors import ConfigError


def __getattr__(name: str) -> float:
    if name != "EPS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    text = os.environ.get("KCOVER_EPS", "1e-9")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"KCOVER_EPS must be a finite number >= 0, got {text!r}")
    globals()["EPS"] = value  # later reads find the attribute directly
    return value
