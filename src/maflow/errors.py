"""Exception hierarchy for the flow laboratory.

Configuration problems (bad schemas, inconsistent declarations, inadmissible
transform parameters) are kept apart from numeric failures so the command line
driver can map them to distinct exit codes.

A parameter declares the values it may take in its annotation, Annotated[T,
(holds, text)]: holds(value) tells whether value lies in that domain, and
text names it.  `refuse_outside` refuses a value outside it (None never is):
`cli` calls it for a document value by key path, `declared` for each argument.
"""

from __future__ import annotations

import functools
import inspect
import reprlib


class MaflowError(Exception):
    """Base class for all package errors."""


class ConfigError(MaflowError):
    """Invalid configuration, schema violation, or failed declared-bound audit."""


POSITIVE = (lambda v: v > 0, "> 0")
AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")


def one_of(*values) -> tuple:
    return values.__contains__, " or ".join(map(repr, values))


def each(domain) -> tuple:  # a list's, whose every item lies in domain
    holds, text = domain
    return (lambda items: all(map(holds, items))), f"a list of {text}"


def refuse_outside(name: str, annotation, value):
    for holds, text in getattr(annotation, "__metadata__", ()):
        if value is not None and not holds(value):
            raise ConfigError(f"{name} must be {text}, got {reprlib.repr(value)}")


# fn's signature with its annotations evaluated, resolved once per function
signature = functools.cache(functools.partial(inspect.signature, eval_str=True))


def declared(fn):
    """fn refusing each argument outside its parameter's domain; given a class, its __init__."""
    if isinstance(fn, type):
        fn.__init__ = declared(fn.__init__)
        return fn

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        params = signature(fn).parameters
        for name, value in (*zip(params, args), *kwargs.items()):
            refuse_outside(name, getattr(params.get(name), "annotation", None), value)
        return fn(*args, **kwargs)

    return checked


class MissingSnapshotsError(ConfigError):
    """A check needs snapshots at times the trajectory did not store.

    pairs lists the (s, t) time pairs the check could not find, so a caller
    can rerun with those probes added.
    """

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = list(pairs)


class NumericError(MaflowError):
    """Base class for runtime numeric failures."""


class NotKahlerError(NumericError):
    """A form that must be positive definite has a non-positive eigenvalue.

    Carries the offending grid location and the worst eigenvalue so reports
    can point at the failure.
    """

    def __init__(self, message, location=None, eigenvalue=None):
        super().__init__(message)
        self.location = location
        self.eigenvalue = eigenvalue


class CertificateError(NumericError):
    """A required standing-assumption certificate could not be established."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NewtonDivergedError(NumericError):
    """The damped Newton iteration exhausted its iteration budget.

    location is the grid index of the largest |residual|, which the message
    names.  linear_converged is False when one of the step's linear solves
    stopped short of its tolerance, which the message then names as the
    likely cause.
    """

    def __init__(
        self, message, residual=None, iterations=None, linear_converged=None, location=None
    ):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.linear_converged = linear_converged
        self.location = location


class ConeExitError(NumericError):
    """The metric form leaves the positive cone (or no damping keeps it inside).

    Carries the grid location of the lowest eigenvalue and that eigenvalue.
    """

    def __init__(self, message, location=None, eigenvalue=None):
        super().__init__(message)
        self.location = location
        self.eigenvalue = eigenvalue


class MonotonicityError(NumericError):
    """A family that must be pointwise ordered violates the ordering tolerance."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class RepairTooLargeError(NumericError):
    """The constant shift needed to restore a decreasing ladder is implausibly big.

    This almost always means the input potential was not actually admissible
    (its curvature budget is exceeded), so mollification cannot produce a
    decreasing family.
    """

    def __init__(self, message, shift=None, allowance=None):
        super().__init__(message)
        self.shift = shift
        self.allowance = allowance


class HorizonTooLongError(NumericError):
    """No admissible rate exists for the requested time-rescaling transform."""

