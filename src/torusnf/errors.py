"""Exception types shared across the package, and the one gate that raises them.

Every refusal in the package is a call `at_most(code, value, limit)`, which
accepts when value <= limit, or `above(code, value, limit)`, which accepts
when value > limit.  Each is written as the acceptance test, so a NaN value
is refused at every gate.  `GATES` maps each code to its exception class and
to what it refuses; the raised error carries the code as `bound`, and the
measured `value` and its `limit`.  A violated smallness or admissibility
condition of the construction is a `HypothesisViolation`, so batch drivers
can name the failed bound; a computation that started but missed its
tolerance is a `NumericalFailure`.
"""


class TorusNFError(Exception):
    """Base class for all package-specific errors.

    Attributes
    ----------
    bound : str
        Code of the refusing gate, a key of `GATES`, e.g. "(z1)".
    value, limit : float
        The measured value and the limit it failed.
    """

    # the `fibering.TraceRow`s of a shrinking-strip run that raised or
    # exhausted its schedule; None when the error came from elsewhere
    trace = None

    def __init__(self, bound, value, limit, message):
        self.bound = bound
        self.value = value
        self.limit = limit
        super().__init__(f"{bound} {message}")


class HypothesisViolation(TorusNFError):
    """An input fails an admissibility condition; the operation refuses to run."""


class NumericalFailure(TorusNFError):
    """A computation started but could not be completed to tolerance."""


GATES = {
    "(i2)": (HypothesisViolation, "axis average must vanish, max residue"),
    "(z1)": (HypothesisViolation, "field norm ||p||_r1 against r1 delta"),
    "(nf)": (HypothesisViolation, "part norm ||f||_r against r/(4n)"),
    "(p4)": (HypothesisViolation, "leading bound B_r against 1/2"),
    "(kn)": (HypothesisViolation, "mean monomial coefficient has modulus"),
    "(branch)": (HypothesisViolation, "sup |a| on the grid against 1/2"),
    "(exact)": (HypothesisViolation, "velocity closure defect over a turn"),
    "(embed)": (HypothesisViolation, "not an embedding, ||turning| - 1|"),
    "(noncritical)": (HypothesisViolation, "critical curve, phase slope margin"),
    "(immersion)": (NumericalFailure, "not an immersion, min curve speed"),
    "(winding)": (NumericalFailure, "winding off an integer by"),
    "(taylor)": (NumericalFailure, "Taylor composition, last order"),
    "(lie)": (NumericalFailure, "Lie series defect, last term"),
    "(expanding)": (NumericalFailure, "fixed-point iteration expanding, step"),
    "(inverse)": (NumericalFailure, "fixed-point iteration exhausted, step"),
    "(divergence)": (NumericalFailure, "constructed field has divergence"),
    "(density)": (NumericalFailure, "density 1 + b vanishes, min"),
    "(denominator)": (NumericalFailure, "denominator modulus on the grid"),
    "(jacobian)": (NumericalFailure, "Jacobian determinant vanishes, "
                   "not totally real, min |det|"),
    "(split)": (NumericalFailure, "modulus/phase factorization residual"),
    "(volume)": (NumericalFailure, "volume normalization residual"),
    "(volume-inverse)": (NumericalFailure, "volume map inversion residual"),
    "(exhausted)": (NumericalFailure, "phase normalization exhausted its "
                    "schedule, defect"),
    "(phase)": (NumericalFailure, "phase normalization residual"),
    "(closure)": (NumericalFailure, "closure correction stalled, |integral|"),
    "(slope)": (NumericalFailure, "1 + k' vanishes, critical normal form, min"),
    "(turning)": (NumericalFailure, "turning number off 1 by"),
    "(model)": (NumericalFailure, "normal form embedding check residual"),
}


def _refuse(code, value, limit, need):
    cls, what = GATES[code]
    raise cls(code, value, limit,
              f"{what}: {value:.3e}, need {need} {limit:.3e}")


def at_most(code, value, limit):
    """Refuse with `code` unless value <= limit."""
    if not value <= limit:
        _refuse(code, value, limit, "<=")


def above(code, value, limit):
    """Refuse with `code` unless value > limit."""
    if not value > limit:
        _refuse(code, value, limit, ">")
