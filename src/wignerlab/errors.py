"""Exception types raised across the package.

A class exists for each failure that a command or a kept guard can raise,
in layouts, Born tables, stabilizers, marginals and configs; a frame whose
speed rounds to 1 is none, as ``spacetime.frame_for_events`` returns no
frame.  All are ValueError subclasses: each one signals a malformed or
inadmissible argument, not an internal fault.
"""

from __future__ import annotations


class LabelClashError(ValueError):
    """Two registers in one layout carry the same label."""


class UnknownLabelError(ValueError):
    """A register label is absent from the layout."""


class LayoutMismatchError(ValueError):
    """Operator and state layouts disagree (labels or dimensions)."""


class ContextIncompatibleError(ValueError):
    """Observables handed to a joint Born table do not pairwise commute."""


class NoncommutingGeneratorsError(ValueError):
    """Stabilizer generators do not pairwise commute."""


class RankNotOneError(ValueError):
    """Stabilizer projector rank is not 1 (dependent or contradictory set)."""


class MarginalMismatchError(ValueError):
    """Shared marginals of overlapping tables disagree."""


class ConfigError(ValueError):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """Configuration text is not syntactically valid."""


class ConfigValidationError(ConfigError):
    """Configuration parsed but a field is missing, unknown, or out of range."""
