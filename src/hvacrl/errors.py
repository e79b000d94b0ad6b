"""Exception hierarchy with stable CLI exit codes."""


class HvacrlError(Exception):
    """Base class; `exit_code` is what the CLI returns for this failure."""

    exit_code = 5


class UsageError(HvacrlError):
    """Bad flags, invalid argument combinations, nonsensical values."""

    exit_code = 2


class SpecError(HvacrlError):
    """An observation or action vector does not match its declared spec."""

    exit_code = 3


class DataError(HvacrlError):
    """Corrupt, truncated or otherwise unusable input data."""

    exit_code = 3


class FingerprintMismatchError(DataError):
    """Checkpoint/dataset/config fingerprints disagree."""


class DivergenceError(HvacrlError):
    """Training diverged (Q-value guard tripped or non-finite update)."""

    exit_code = 4

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SimulationFault(HvacrlError):
    """Simulator produced non-finite state; carries a state dump."""

    exit_code = 4

    def __init__(self, message, state_dump=None):
        super().__init__(message)
        self.state_dump = state_dump
