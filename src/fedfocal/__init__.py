"""fedfocal: a deterministic federated-learning simulator with an
imbalance-adaptive focal loss and distribution-aware aggregation, built on
a from-scratch reverse-mode tensor core with tiny transformer and MLP
classifiers."""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractError, FedFocalError, IngestionError,
                     NumericError, ShapeError)

__all__ = ["ConfigError", "ContractError", "FedFocalError", "IngestionError",
           "NumericError", "ShapeError", "__version__"]
