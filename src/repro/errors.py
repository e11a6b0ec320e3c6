"""Exception hierarchy used across the repro package.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` on internal maps, ...) surface normally.

Errors that only bad inputs can cause derive from :class:`InputError`:
the same design, library and point raise them again, so a retry loop ends
the job on the first one instead of sleeping and repeating the work.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InputError(ReproError):
    """The inputs (design, library, point) are at fault.

    The verdict is a function of the inputs alone: the same inputs raise it
    again, so retrying cannot help.
    """


class IRError(InputError):
    """Raised for malformed CFG/DFG structures (validation failures)."""


class ElaborationError(InputError):
    """Raised when the frontend cannot lower a specification to the IR."""


class ParseError(ElaborationError):
    """Raised by the DSL lexer/parser for syntactically invalid input."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LibraryError(InputError):
    """Raised for inconsistent resource-library definitions or lookups."""


class TimingError(InputError):
    """Raised by the timing-analysis engines for invalid inputs."""


class SchedulingError(InputError):
    """Raised when a scheduling pass fails on a valid input."""


class BindingError(InputError):
    """Raised when binding/sharing cannot be completed."""


class InfeasibleDesignError(SchedulingError):
    """Raised when no relaxation can make the design schedulable.

    Mirrors the "design is overconstrained" outcome of the expert system in
    the paper's Fig. 8 scheduling framework.
    """


class DeadlineExceeded(ReproError):
    """Raised when a deadline-bounded call ran out of wall-clock budget.

    Raised by :func:`repro.core.deadline.call_with_deadline` and consumed
    by the serve layer's retry policy and the fuzzer's per-oracle budget
    enforcement; it means "the work was cut off", never "the work failed".
    """
