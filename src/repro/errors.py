"""Common exception types used across the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelStructureError(ReproError):
    """A cognitive model is malformed (bad wiring, shape mismatch, ...)."""


class SanitizationError(ModelStructureError):
    """The sanitization run detected an inconsistency in the model."""


class CompilationError(ReproError):
    """Distill could not compile the model (e.g. unsupported construct)."""


class PipelineParseError(CompilationError):
    """A textual pipeline description could not be parsed.

    Raised by :func:`repro.parse_pipeline` with a message naming the offending
    entry and, where possible, the set of known passes/aliases.
    """


class UnsupportedConstructError(CompilationError):
    """A model uses a construct outside the compilable subset."""


class EngineError(ReproError):
    """An execution engine failed or was misconfigured."""


class WorkerLost(EngineError):
    """A worker process of a parallel engine died mid-task.

    Raised by the ``mcpu`` and ``lane`` worker pools
    (:class:`repro.backends.workerpool.WorkerPool`) after they drop the
    broken pool; the next call starts a fresh one, so one retry suffices.
    """


class ServeError(ReproError):
    """The serving daemon rejected or failed a request.

    Structured wire errors (:mod:`repro.serve.protocol`) map onto this
    family on the client side; ``code`` carries the wire error code.
    """

    code = "serve_error"

    def __init__(self, message: str, code: str = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ServerBusy(ServeError):
    """The daemon's bounded admission queue is full (backpressure)."""

    code = "server_busy"


class DeadlineExceeded(ServeError):
    """The request's deadline expired before it was dispatched."""

    code = "deadline_exceeded"


class ServerUnavailable(ServeError):
    """The daemon is draining for shutdown or the connection is gone."""

    code = "shutting_down"


class StaleAnalysisError(CompilationError):
    """A pass declared an analysis preserved that its mutations invalidated.

    Raised by :class:`repro.analysis.manager.AnalysisManager` in ``audit``
    mode when a pass reports a change, claims an analysis is preserved, and a
    recomputation of that analysis disagrees with the cached result.
    """
