"""Error types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can report
failures uniformly and callers can match on error class without string
parsing.
"""

from __future__ import annotations


class CostLabError(Exception):
    """Base class for all costlab errors."""

    code = "ERROR"

    def __str__(self) -> str:
        msg = super().__str__()
        return msg if msg else self.code


# -- dataset / ingestion ----------------------------------------------------

class ParseError(CostLabError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column '{column}'")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.row = row
        self.column = column


class SchemaMismatchError(CostLabError):
    code = "SCHEMA_MISMATCH"


class InvalidSplitError(CostLabError):
    code = "INVALID_SPLIT"


class RangeExhaustedError(CostLabError):
    code = "RANGE_EXHAUSTED"


# -- metrics -----------------------------------------------------------------

class NonpositiveActualError(CostLabError):
    code = "NONPOSITIVE_ACTUAL"


class LengthMismatchError(CostLabError):
    code = "LENGTH_MISMATCH"


class NegativeMapeError(CostLabError):
    code = "NEGATIVE_MAPE"


class ZeroSstError(CostLabError):
    code = "ZERO_SST"


class DegenerateDofError(CostLabError):
    code = "DEGENERATE_DOF"


# -- model contract ----------------------------------------------------------

class EmptyTrainError(CostLabError):
    code = "EMPTY_TRAIN"


class EmptyTestError(CostLabError):
    code = "EMPTY_TEST"


class UnfittedError(CostLabError):
    code = "UNFITTED"


class AlreadyFittedError(CostLabError):
    code = "ALREADY_FITTED"


class UnsupportedMissingError(CostLabError):
    code = "UNSUPPORTED_MISSING"


class NonconvergenceError(CostLabError):
    code = "NONCONVERGENCE"


class TransformDomainError(CostLabError):
    code = "TRANSFORM_DOMAIN"


# -- regression --------------------------------------------------------------

class RankDeficientError(CostLabError):
    code = "RANK_DEFICIENT"


class NegativeSqrtDomainError(CostLabError):
    code = "NEGATIVE_SQRT_DOMAIN"


# -- case-based reasoning ----------------------------------------------------

class NegativeAttributeError(CostLabError):
    code = "NEGATIVE_ATTRIBUTE"


class ZeroWeightSumError(CostLabError, ValueError):
    # a ValueError too, so an all-zero [model.cbr] weights is a CONFIG_ERROR
    code = "ZERO_WEIGHT_SUM"


class KTooLargeError(CostLabError):
    code = "K_TOO_LARGE"


# -- fuzzy inference ---------------------------------------------------------

class NoRuleFiresError(CostLabError):
    code = "NO_RULE_FIRES"


class RuleConflictError(CostLabError):
    code = "RULE_CONFLICT"


# -- harness -----------------------------------------------------------------

class ConfigError(CostLabError):
    code = "CONFIG_ERROR"
