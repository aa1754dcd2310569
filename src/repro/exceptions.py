"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`
raised by numpy itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input array or parameter failed validation.

    Raised when the caller passes data that the algorithms cannot
    meaningfully process: wrong dimensionality, NaN/inf where finite
    values are required, negative values where non-negativity is a
    model constraint, or out-of-range hyper-parameters.
    """


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted state was called before ``fit``."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration budget without
    meeting its convergence tolerance."""


class DegenerateDataError(ReproError, ValueError):
    """The data is degenerate for the requested operation.

    Examples: clustering with more clusters than distinct points,
    imputing a column with no observed entries, or building a k-NN
    graph with fewer points than requested neighbours.
    """


class NumericalDivergenceError(ReproError, ArithmeticError):
    """An iterative fit produced a non-finite objective: it diverged.

    Raised at the first non-finite evaluated objective instead of
    running out the iteration budget on NaN/inf factors.  The message
    names the iteration, the update rule, the step size of a
    step-size rule (gradient, SGD, SVRG) and, for a member of a
    stacked fit, the member's index in the stack.  For SGD and SVRG it
    also cites the step-size conditions under which those rules
    converge (Zhao, Haskell and Feng, arXiv:1705.06884).
    """

    @classmethod
    def at(
        cls,
        *,
        iteration: int,
        update_rule: str,
        objective: float,
        member: int | None = None,
        learning_rate: float | None = None,
    ) -> "NumericalDivergenceError":
        where = "" if member is None else f" for stacked member {member}"
        # The multiplicative rule has no step size to blame.
        step = (
            ""
            if learning_rate is None or update_rule == "multiplicative"
            else f" with learning_rate {learning_rate!r}"
        )
        # The stochastic rules converge only under step-size conditions.
        advice = (
            "; see the step-size conditions of Zhao, Haskell and Feng, "
            "'A Unified Framework for Stochastic Matrix Factorization via "
            "Variance Reduction' (arXiv:1705.06884)"
            if update_rule in ("sgd", "svrg")
            else ""
        )
        return cls(
            f"objective is {objective!r} at iteration {iteration} of "
            f"update_rule {update_rule!r}{step}{where}: the fit diverged{advice}"
        )
