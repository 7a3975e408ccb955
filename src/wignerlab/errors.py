"""Exception types raised across the package.

Every named failure mode gets its own class so callers can catch precisely.
All are ValueError subclasses: each one signals a malformed or inadmissible
argument, not an internal fault.
"""

from __future__ import annotations


class LabelClashError(ValueError):
    """Two registers in one layout carry the same label."""


class UnknownLabelError(ValueError):
    """A register label is absent from the layout."""


class LayoutMismatchError(ValueError):
    """Operator and state layouts disagree (labels or dimensions)."""


class NotHermitianError(ValueError):
    """A Pauli generator carries an imaginary phase, so it is not hermitian."""


class NotInvolutoryError(ValueError):
    """Operator is not a +-1 observable (hermitian and squaring to the identity)."""


class NonrealResultError(ValueError):
    """Imaginary residue of an expectation value exceeds ``qcore.NUMERIC_TOL``."""


class ContextIncompatibleError(ValueError):
    """Observables handed to a joint Born table do not pairwise commute."""


class LengthMismatchError(ValueError):
    """Pauli strings of different length were combined."""


class NoncommutingGeneratorsError(ValueError):
    """Stabilizer generators do not pairwise commute."""


class RankNotOneError(ValueError):
    """Stabilizer projector rank is not 1 (dependent or contradictory set)."""


class UnknownAgentError(ValueError):
    """Agent name is not part of the scenario."""


class ZeroBranchError(ValueError):
    """Conditioning on an outcome branch of (numerically) zero probability."""


class SuperluminalError(ValueError):
    """Boost velocity at or above the speed of light."""


class UniverseTooLargeError(ValueError):
    """Brute-force enumeration refused above the variable cap."""


class MarginalMismatchError(ValueError):
    """Shared marginals of overlapping tables disagree."""


class BadStrengthError(ValueError):
    """Dephasing strength outside [0, 1]."""


class ConfigError(ValueError):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """Configuration text is not syntactically valid."""


class ConfigValidationError(ConfigError):
    """Configuration parsed but a field is missing, unknown, or out of range."""
