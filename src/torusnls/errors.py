"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "TorusNLSError",
    "DomainError",
    "NotLinearlyStableError",
    "ZeroCarrierModeError",
    "MassDeficitError",
    "ClassSetMismatchError",
    "ObserverError",
    "BlowUpError",
    "ConfigError",
]


class TorusNLSError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TorusNLSError, ValueError):
    """Parameter outside its domain (e.g. h <= 0, a non-finite rho, or |lambda| != 1)."""


class NotLinearlyStableError(TorusNLSError):
    """Diagonalizers requested for parameters that fail linear stability."""


class ZeroCarrierModeError(TorusNLSError):
    """Carrier Fourier coefficient vanishes; its phase is undefined."""


class MassDeficitError(TorusNLSError):
    """Non-carrier mass exceeds the total mass budget rho^2."""


class ClassSetMismatchError(TorusNLSError, ValueError):
    """Two super-action sets index different frequency classes."""


class ObserverError(TorusNLSError):
    """An observer callback raised during time integration."""

    def __init__(self, step: int, cause: BaseException):
        super().__init__(f"observer failed at step {step}: {cause!r}")
        self.step = step
        self.cause = cause


class BlowUpError(TorusNLSError):
    """Non-finite values detected along a trajectory."""

    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite field at step {step} (t = {time!r})")
        self.step = step
        self.time = time


class ConfigError(TorusNLSError, ValueError):
    """Invalid or inconsistent run configuration."""
