"""Exception hierarchy shared by the whole engine.  Each class carries the
exit code and the stderr label the CLI reports it with."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 1, "internal error"


class SchemaError(EngineError):
    """Malformed input file or unparsable expression."""

    exit_code, label = 2, "error"


class ExpressionError(SchemaError):
    """Coefficient expression rejected by the parser."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PreconditionError(EngineError):
    """An operation was called outside its stated domain."""

    exit_code, label = 3, "precondition violated"


class AmbientMismatchError(PreconditionError):
    """Operands live in different ambient spaces (n, p) or orders."""


class RingMismatchError(PreconditionError):
    """Operands belong to different coefficient rings."""


class ZeroDivisorError(PreconditionError):
    """A divisor series is identically zero."""


class NotInvertibleError(PreconditionError):
    """Coefficient is not a unit of the active ring; localize first."""


class NotARelationError(PreconditionError):
    """Input vector does not annihilate the generators (mod degree > D)."""


class IncompleteBasisError(PreconditionError):
    """A list of series claimed to be a standard basis is not one at this
    truncation degree."""


class DegeneracyError(EngineError):
    """Input family is degenerate for the requested operation."""

    exit_code, label = 4, "degenerate input"


class VanishingDenominatorError(DegeneracyError):
    """A coefficient denominator vanishes at the evaluation point."""


class DegenerateFamilyError(DegeneracyError):
    """The constant-term matrix of the change of generators is singular."""


class InvariantError(EngineError):
    """Internal consistency check failed; always a bug."""
