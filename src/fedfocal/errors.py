"""Exception hierarchy shared across the package."""


class FedFocalError(Exception):
    """Base class for all package errors."""


class ShapeError(FedFocalError):
    """Operands have incompatible shapes."""


class NumericError(FedFocalError):
    """An operation received or produced invalid numeric values."""


class ConfigError(FedFocalError):
    """Invalid configuration value or malformed config input."""


class ContractError(FedFocalError):
    """A caller violated an operation's precondition."""


class IngestionError(FedFocalError):
    """A dataset or artifact file is malformed."""
