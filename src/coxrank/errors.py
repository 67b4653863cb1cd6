"""Exception types shared across the package.

Every error carries a stable ``code`` string (the identifier the CLI
prints), so callers can dispatch on the kind of failure without matching
message text.
"""

from __future__ import annotations


class CoxrankError(Exception):
    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class GraphParseError(CoxrankError):
    """Defining-graph input rejected.

    ``code`` is one of DUPLICATE_VERTEX, UNKNOWN_ENDPOINT, SELF_LOOP,
    SYNTAX_ERROR, or DOUBLE_TOO_LARGE for a graph too large to double;
    ``line`` is the 1-based offending line, or None when the graph was
    built programmatically.
    """

    def __init__(self, code: str, line: int | None, message: str):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.code = code
        self.line = line


class EmptyGraphError(CoxrankError):
    code = "EMPTY_GRAPH"


class NotAFactorError(CoxrankError):
    code = "NOT_A_FACTOR"


class UnknownGeneratorError(CoxrankError):
    code = "UNKNOWN_GENERATOR"

    def __init__(self, label: str):
        super().__init__(f"unknown generator {label!r}")
        self.label = label


class RadiusCapError(CoxrankError):
    code = "RADIUS_EXCEEDS_CAP"


class NotReducedError(CoxrankError):
    code = "NOT_REDUCED"


class GeneratorAbsentError(CoxrankError):
    code = "GENERATOR_ABSENT"


class MissingGeneratorsError(CoxrankError):
    code = "MISSING_GENERATORS"

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("missing generators: " + " ".join(self.missing))


class NoBlockerError(CoxrankError):
    code = "NO_BLOCKER"


class ExponentTooSmallError(CoxrankError):
    code = "EXPONENT_TOO_SMALL"


class ContractViolationError(CoxrankError):
    """A synthesis step broke a guarantee its loop relies on.

    Never swallowed: the exception carries the trace accumulated so far as
    evidence for the discrepancy report.
    """

    code = "CONTRACT_VIOLATION"

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NotInSubgroupError(CoxrankError):
    code = "NOT_IN_SUBGROUP"


class PreconditionClassError(CoxrankError):
    code = "PRECONDITION_CLASS"


class SubgroupParseError(CoxrankError, ValueError):
    """Subgroup spec rejected: a malformed basis row or file line, or no
    ambient graph.  Also a ``ValueError`` for callers that catch that."""

    code = "SUBGROUP_PARSE_ERROR"


class ParameterRangeError(CoxrankError, ValueError):
    """A numeric parameter outside the range its check is defined on (a
    negative trial count, a word length bound below its minimum).  Also a
    ``ValueError`` for callers that catch that."""

    code = "PARAMETER_OUT_OF_RANGE"
