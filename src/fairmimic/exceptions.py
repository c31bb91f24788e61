"""Exception types shared across the package."""


class FairMimicError(Exception):
    """Base class for all package-specific errors."""


class DataValidationError(FairMimicError, ValueError):
    """Raised when tabular input fails ingestion validation."""


class ConvergenceError(FairMimicError, RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget."""


class SchemaVersionError(FairMimicError, ValueError):
    """Raised when a serialized artifact has an unsupported schema version."""
