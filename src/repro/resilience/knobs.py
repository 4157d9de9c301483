"""Validated `MCSS_*` environment-knob parsing.

Every env knob in the repo is read through :func:`env_int` /
:func:`env_float` so a garbage value like
``MCSS_SHARD_WORKERS=two`` fails with an error *naming the variable*
instead of a bare ``ValueError: invalid literal for int()`` from deep
inside a solve.  The registry itself lives in docs/BENCHMARKS.md and
is cross-checked both ways by repolint's EK01 rule, which recognizes
these helpers as knob reads.

Deliberately stdlib-only: every layer that reads a knob imports this
module, so it sits at the bottom of the import graph and must not
import numpy-adjacent repro modules.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["KnobError", "env_float", "env_int"]


class KnobError(ValueError):
    """An ``MCSS_*`` environment variable holds an unusable value.

    Subclasses :class:`ValueError` so existing ``pytest.raises(ValueError)``
    call sites (and callers catching broad config errors) keep working.
    """


def _parse(name: str, raw: str, kind, kind_name: str):
    try:
        return kind(raw)
    except ValueError:
        raise KnobError(
            f"environment variable {name}={raw!r} is not a valid {kind_name}"
        ) from None


def _check_minimum(name: str, value, minimum) -> None:
    if minimum is not None and value < minimum:
        raise KnobError(
            f"environment variable {name}={value!r} must be >= {minimum}"
        )


def env_int(name: str, default: int, *, minimum: Optional[int] = None) -> int:
    """Read an integer knob, with a variable-naming error on garbage."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    value = _parse(name, raw, int, "integer")
    _check_minimum(name, value, minimum)
    return value


def env_float(
    name: str, default: float, *, minimum: Optional[float] = None
) -> float:
    """Read a float knob, with a variable-naming error on garbage."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    value = _parse(name, raw, float, "number")
    _check_minimum(name, value, minimum)
    return value
