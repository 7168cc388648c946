"""Error codes shared across the package.

Every failure mode carries a stable short code so the CLI can map it to an
exit status and reports can name it without string matching on messages.
"""

from __future__ import annotations


class SwitchSdeError(Exception):
    """Base class; ``code`` is the stable machine-readable identifier.

    ``path``, when given, is the dotted document path of the offending field
    (e.g. ``costs.running.values``) and is appended to the message.
    """

    code = "E_GENERIC"

    def __init__(self, message: str, path: str = ""):
        where = f" at '{path}'" if path else ""
        super().__init__(f"{self.code}: {message}{where}")
        self.message = message
        self.path = path


class ShapeError(SwitchSdeError):
    """Matrix or vector dimensions inconsistent with the declared model."""

    code = "E_SHAPE"


class RatesError(SwitchSdeError):
    """Switching-rate matrix violates sign or row-sum rules."""

    code = "E_RATES"


class StepError(SwitchSdeError):
    """Time step violates a stepping precondition."""

    code = "E_STEP"


class NanError(SwitchSdeError):
    """A simulated state became non-finite."""

    code = "E_NAN"


class UnboundedError(SwitchSdeError):
    """Operation requires a bounded running cost."""

    code = "E_UNBOUNDED"


class MaxIterError(SwitchSdeError):
    """Iteration budget exhausted without reaching tolerance."""

    code = "E_MAXITER"


class DegenerateError(SwitchSdeError):
    """Diffusion vanishes where a solver needs it strictly positive."""

    code = "E_DEGENERATE"


class SchemeError(SwitchSdeError):
    """A property the monotone grid scheme guarantees failed on a result."""

    code = "E_SCHEME"


class BlowupError(SwitchSdeError):
    """Integrated quantity exceeded the blow-up guard."""

    code = "E_BLOWUP"


class EigError(SwitchSdeError):
    """Definiteness or conditioning requirement failed."""

    code = "E_EIG"


class ConfigError(SwitchSdeError):
    """Configuration document rejected; ``path`` names the offending field."""

    code = "E_CONFIG"


class IoError(SwitchSdeError):
    """Output files could not be written."""

    code = "E_IO"


class CapFractionWarning(UserWarning):
    """More than 1 percent of exit paths hit the time cap."""

    code = "E_CAPFRAC"
