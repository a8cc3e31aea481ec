"""Exception types shared across the package.

Most errors are precondition violations and derive from ValueError so that
callers who do not care about the fine-grained class can still catch them
uniformly.  BudgetExceededError is different in kind: it means a search gave
up within its node budget and the caller must report "unknown" rather than
an answer.
"""


class ExactColoringError(ValueError):
    """Base class for precondition and contract violations."""


class OutOfRangeError(ExactColoringError):
    """A vertex index falls outside [0, n)."""


class SelfLoopError(ExactColoringError):
    """An edge (v, v) was supplied; the library handles simple graphs only."""


class BadParameterError(ExactColoringError):
    """A numeric parameter is outside the range an operation supports."""


class ParseError(ExactColoringError):
    """Malformed graph/coloring/formula text.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InconsistentHeaderError(ParseError):
    """Declared edge count in a file header does not match the body."""


class NotAPartitionError(ExactColoringError):
    """Classes passed to a contraction do not partition the vertex set."""


class DisconnectedClassError(ExactColoringError):
    """A contraction class does not induce a connected subgraph."""


class LengthMismatchError(ExactColoringError):
    """A coloring does not cover exactly the host graph's vertices."""


class NotATreeError(ExactColoringError):
    pass


class NotACactusError(ExactColoringError):
    pass


class NotABlockGraphError(ExactColoringError):
    pass


class NotFourRegularError(ExactColoringError):
    pass


class MalformedFormulaError(ExactColoringError):
    pass


class IncompleteLabelingError(ExactColoringError):
    """Coloring extraction was handed a labeling that is not complete."""


class LiftContractViolatedError(ExactColoringError):
    """A lifted solution failed its source-side contract.

    This always signals a bug in either the reduction or the solver that
    produced the target solution; it is never a normal outcome.
    """


class InvalidWitnessError(ExactColoringError):
    """A solver's witness is not an exact coloring.  Always a bug, never an answer."""


class BudgetExceededError(RuntimeError):
    """A backtracking search exhausted its node budget without an answer."""

    def __init__(self, message: str = "node budget exhausted", nodes: int | None = None):
        if nodes is not None:
            message = f"{message} (after {nodes} nodes)"
        super().__init__(message)
        self.nodes = nodes
