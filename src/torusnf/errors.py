"""Exception types shared across the package.

Refusals triggered by a violated smallness/admissibility condition raise
HypothesisViolation with a short condition code, so batch drivers can name
the failed bound.  The codes and the functions that raise them:

    (i2)           series.PeriodicSeries.antiderivative
    (z1)           flows.flow
    (nf)           flows.invert_map
    (p4)           fibering.fibering_step
    (kn)           realization.check_exact, from solve_divergence and
                   realize_form
    (branch)       pipeline.modulus_phase_split
    (exact)        pipeline.normal_form_curve
    (embed)        pipeline.normal_form_embedding
    (noncritical)  curves.embedding_check
"""


class TorusNFError(Exception):
    """Base class for all package-specific errors."""

    # the `fibering.TraceRow`s of a shrinking-strip run that raised or
    # exhausted its schedule; None when the error came from elsewhere
    trace = None


class HypothesisViolation(TorusNFError):
    """An input fails an admissibility condition; the operation refuses to run.

    Attributes
    ----------
    bound : str
        Condition code of the violated bound, e.g. "(z1)".
    """

    def __init__(self, bound, message):
        self.bound = bound
        super().__init__(f"hypothesis {bound} violated: {message}")


class NumericalFailure(TorusNFError):
    """A computation started but could not be completed to tolerance."""
