"""Exception hierarchy.  Every error is a ``ValueError``, as numpy's ``LinAlgError``
is, with a stable ``code`` chosen where it is raised; the CLI prints that code."""


class FemwarpError(ValueError):
    code = "ERROR"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class DegenerateElementError(FemwarpError):
    code = "DEGENERATE_ELEMENT"


class ReversedElementError(FemwarpError):
    code = "REVERSED_ELEMENT"


class BadIndexError(FemwarpError):
    code = "BAD_INDEX"


class ShapeError(FemwarpError):
    code = "BAD_SHAPE"


class NoInteriorError(FemwarpError):
    code = "NO_INTERIOR"


class NoNeighborsError(FemwarpError):
    code = "NO_NEIGHBORS"


class NodeNotInteriorError(FemwarpError):
    code = "NODE_NOT_INTERIOR_TO_NEIGHBORS"


class SingularSystemError(FemwarpError):
    code = "SINGULAR_SYSTEM"


class NotPositiveDefiniteError(FemwarpError):
    code = "NOT_POSITIVE_DEFINITE"


class DivergedError(FemwarpError):
    code = "DIVERGED"


class DomainError(FemwarpError):
    code = "DOMAIN_ERROR"


class InvalidSpecError(FemwarpError):
    code = "INVALID_SPEC"


class InvalidBoundError(FemwarpError):
    code = "INVALID_BOUND"


class ParseError(FemwarpError):
    code = "PARSE_ERROR"


class UsageError(FemwarpError):
    code = "USAGE_ERROR"
