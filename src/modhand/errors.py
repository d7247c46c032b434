"""Exception types shared across the package."""

from __future__ import annotations


class ModhandError(Exception):
    """Base class for all errors raised by this package."""


class ConfigSchemaError(ModhandError):
    """A configuration document violates the schema.

    The offending field path is kept in ``field`` and always starts the
    message ("<field>: ...") so CLI users can locate the problem without a
    traceback.  Object keys are joined by dots and list indices follow in
    brackets, as in ``springs.radial``, ``links_mm[1]`` or ``limits.aa[0]``;
    paths run through nested documents, so a finger's params inside a hand
    layout read ``fingers[2].params.links_mm[1]``.  A CLI input names its
    option first (``--joints[0][1]``).  ``<root>`` stands for the document
    itself, ``<file>`` and ``<document>`` for a file that cannot be read or
    parsed.  The message after the path says what is wrong, for example
    ``unknown key``, ``missing key`` or ``must be > 0``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ValidationError(ModhandError):
    """A structurally well-formed value violates a model invariant."""


class DegenerateCouplingError(ModhandError):
    """The rigid coupling ratio has a zero leading entry."""


class SingularStiffnessError(ModhandError):
    """The joint stiffness matrix is singular or not positive definite."""


class InfeasibleStartError(ModhandError):
    """Initial configuration penetrates the object beyond the recovery tolerance."""


class NonConvergedError(ModhandError):
    """Equilibrium iteration hit the cap; ``best`` carries the last iterate.

    ``best`` is the (JointState, TransmissionState, contacts) triple of the
    last iterate reached, so callers can inspect or resume.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class PreconditionError(ModhandError):
    """An operation was called outside its documented precondition."""


class SweepError(ModhandError):
    """A drive sweep failed at a specific step; ``step`` is the 0-based index."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"sweep failed at step {step}: {cause}")
