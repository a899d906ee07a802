"""Exception hierarchy for the motif reproduction library.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The Strand runtime distinguishes *programming* errors (parse
errors, malformed rules) from *run-time* errors (double assignment, process
failure, deadlock), mirroring the error classes described for Strand in the
paper (assigning to a bound variable "is signaled as a run-time error").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class StrandError(ReproError):
    """Base class for errors raised by the Strand language substrate."""


class ParseError(StrandError):
    """Raised when Strand source text cannot be tokenized or parsed.

    Carries ``line`` and ``column`` (1-based) of the offending position when
    known, so tooling can point at the source.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class DoubleAssignmentError(StrandError):
    """A single-assignment variable was assigned a second, different value."""


class ProcessFailureError(StrandError):
    """A process matched no rule and can never match one (all rules failed).

    In committed-choice languages this is a run-time error, not silent
    failure: there is no backtracking to undo the commitment.
    """


class DeadlockError(StrandError):
    """The computation stopped with suspended processes that can never run."""


class UnknownProcedureError(StrandError):
    """A body goal referred to a procedure that is neither defined nor foreign."""


class ForeignProcedureError(StrandError):
    """A foreign (Python) procedure raised or misbehaved."""


class PragmaError(StrandError):
    """A source-level pragma (e.g. ``@ random``) reached the engine.

    Pragmas have no operational meaning; a motif transformation must erase
    them before execution.  Seeing one at run time means a required motif was
    not applied.
    """


class TransformError(ReproError):
    """A source-to-source transformation could not be applied."""


class MotifError(ReproError):
    """A motif could not be applied or composed."""


class MachineError(ReproError):
    """The virtual multicomputer was misconfigured or misused."""


class WorkerError(MachineError):
    """A parallel-backend worker process died or its pipe broke.

    ``shard`` is the id of the worker that failed.
    """

    def __init__(self, message: str, shard: int | None = None):
        self.shard = shard
        super().__init__(message)


class TopologyError(MachineError):
    """An interconnect topology was asked for an impossible configuration."""
