"""Shared machinery for the masked factorization models.

:class:`MatrixFactorizationBase` owns what is common to NMF, SMF and
SMFL: input validation, mask handling, factor initialisation, and the
fitted-state API (``reconstruct``, ``impute``, ``fit_impute``).  The
iteration itself is delegated to :class:`repro.engine.IterativeEngine`,
which drives the fit's kernel object (built once per fit by
:func:`repro.engine.workspace.build_kernel`) and records per-iteration
telemetry into a :class:`~repro.engine.FitReport`.  Subclasses override
these hooks:

- ``_prepare_fit``     - build per-model structures (graphs, landmarks);
- ``_initial_factors`` - produce (and possibly modify) U0, V0;
- ``_kernel_context``  - the regularizers/masks the update kernel needs;
- ``_objective``       - the objective the convergence monitor tracks.

``_step`` remains overridable for models whose iteration is not one of
the update rules, but the base implementation — apply the fit's kernel
object — covers the whole NMF/SMF/SMFL family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..engine.callbacks import Callback, Telemetry
from ..engine.core import IterativeEngine
from ..engine.kernels import UPDATE_RULES, KernelContext
from ..engine.monitor import DEFAULT_EVAL_EVERY
from ..engine.report import FactorizationResult, FitReport
from ..engine.solver import Solver
from ..engine.stochastic import (
    STOCHASTIC_KERNELS,
    BatchScheduler,
    StochasticWorkspace,
)
from ..engine.workspace import (
    KERNEL_PATHS,
    ReferenceKernel,
    build_kernel,
    resolve_kernel_path,
)
from ..exceptions import NotFittedError, ValidationError
from ..masking.mask import ObservationMask
from ..model.fitted import (
    FittedModel,
    coerce_observations,
    impute_matrix,
    observed_column_bounds,
)
from ..obs.stream import get_recorder, traced
from ..validation import (
    check_in_range,
    check_nonnegative,
    check_positive_int,
    check_rank,
    resolve_rng,
)
from .convergence import DEFAULT_MAX_ITER
from .initialization import init_factors
from .updates import frozen_column_prefix

__all__ = [
    "FactorizationResult",
    "FitPlan",
    "MatrixFactorizationBase",
    "clip_columns_to_observed",
]


def _clip_columns_to_observed(
    estimate: np.ndarray, x: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """Clip each column of ``estimate`` to the [min, max] of the observed
    entries of the same column of ``x``; columns without observed
    entries pass through unchanged."""
    lows, highs = observed_column_bounds(x, observed)
    return np.clip(estimate, lows[None, :], highs[None, :])


# Public alias: baselines reuse the same safeguard.
clip_columns_to_observed = _clip_columns_to_observed

@dataclass
class FitPlan:
    """Everything :meth:`MatrixFactorizationBase.fit` prepares before
    the iteration loop starts.

    Produced by ``_fit_setup`` and consumed by ``_fit_finish``; the
    batched multi-fit path (:mod:`repro.core.batched_fit`) reuses the
    same two stages around :func:`repro.engine.batched.multi_fit`, so
    per-model pre/post-loop computation — input coercion, graph and
    landmark preparation, factor initialisation, fitted-state
    extraction — is identical between the looped and batched paths by
    construction.
    """

    x: np.ndarray
    observation: ObservationMask
    x_observed: np.ndarray
    observed: np.ndarray
    u: np.ndarray
    v: np.ndarray
    frozen: np.ndarray | None
    telemetry: Telemetry
    scheduler: BatchScheduler | None = None


class _FactorSolver(Solver):
    """Adapter presenting a factorization model to the engine.

    State is the ``(U, V)`` tuple; step/objective delegate to the
    model's hooks so subclass overrides keep working unchanged.
    """

    def __init__(
        self,
        model: "MatrixFactorizationBase",
        x_observed: np.ndarray,
        observed: np.ndarray,
    ) -> None:
        self.model = model
        self.x_observed = x_observed
        self.observed = observed
        self.name = model.method
        self.update_rule = model.update_rule
        self.learning_rate = model.learning_rate

    def step(self, state: tuple[np.ndarray, np.ndarray]):
        u, v = state
        return self.model._step(self.x_observed, self.observed, u, v)

    def objective(self, state: tuple[np.ndarray, np.ndarray]) -> float:
        u, v = state
        return self.model._objective(self.x_observed, u, v, self.observed)

    def factors(self, state: tuple[np.ndarray, np.ndarray]):
        u, v = state
        return {"u": u, "v": v}

    def step_deltas(self, state: tuple[np.ndarray, np.ndarray]):
        # A single-fit KernelWorkspace measures both factors in its step;
        # the other kernels have no such attribute and leave it to Telemetry.
        return getattr(self.model._kernel, "step_deltas", {})


class MatrixFactorizationBase:
    """Base class of the masked NMF family.

    Parameters
    ----------
    rank:
        Factorization rank ``K``.
    max_iter:
        Update-iteration budget ``t1`` (paper default 500; for the
        stochastic path this counts *epochs*).  0 is legal and yields
        the initial factors with an empty history.
    tol:
        Relative objective-decrease tolerance for early stopping.
    method:
        Solver path: ``"batch"`` (default; full-matrix updates every
        iteration) or ``"stochastic"`` (mini-batch epochs driven by a
        :class:`~repro.engine.BatchScheduler`; see DESIGN.md).  Picking
        a stochastic ``update_rule`` (``"sgd"``/``"svrg"``) implies
        ``method="stochastic"``.
    update_rule:
        Update strategy: ``"multiplicative"``
        (Formulas 13-14, the batch default), ``"gradient"``
        (Section III-B1), or the stochastic ``"sgd"`` (the
        ``method="stochastic"`` default) / ``"svrg"`` rules.  ``None``
        selects the default of the chosen ``method``.
    learning_rate:
        Step size for the gradient/stochastic rules (ignored by
        multiplicative).
    batch_size:
        Stochastic path: rows per mini-batch (``None`` uses
        ``min(64, N)``; values above ``N`` are clamped to ``N``).
    shuffle:
        Stochastic path: reshuffle the row order every epoch (each
        epoch's permutation comes from an explicit per-epoch seed, so
        fits are reproducible from ``random_state`` alone).
    lr_decay:
        Stochastic path: step-size decay rate; epoch ``e`` steps with
        ``learning_rate / (1 + lr_decay * e)``.
    init:
        Factor initialisation strategy (``"random"`` or ``"nndsvd"``).
    eval_every:
        Check convergence (evaluate the objective) at the first two
        iterations, every this many iterations and the last, and at
        every iteration once the fit nears ``tol``
        (:meth:`~repro.engine.ConvergenceMonitor.due`).  ``None``
        (default) picks :data:`~repro.engine.DEFAULT_EVAL_EVERY` for
        the monotone multiplicative rule and 1 for the gradient and
        stochastic rules, which can overshoot.  The cadence changes no
        factor bit of a fit that runs its budget; ``tol`` bounds the
        per-iteration mean decrease whatever the cadence.
        ``fit_report_.objective_history`` and ``n_increases`` cover the
        checked iterations only (pass 1 to record every iteration).
    kernel_path:
        Batch-path execution strategy, one of
        :data:`~repro.engine.workspace.KERNEL_PATHS`, resolved once per
        fit into the fit's kernel object (see
        :func:`repro.engine.workspace.build_kernel`): ``"auto"``
        (default) picks the sparse-observed fast path at low observed
        density and the allocation-free dense workspace otherwise;
        ``"workspace"`` and ``"sparse"`` force a path; ``"reference"``
        runs the naive allocating update rules (the bit-exact
        baseline).  The dense workspace is bit-identical to the
        reference; the sparse path is numerically equivalent.  Ignored
        by ``method="stochastic"`` (its epochs own their buffers).
    clip_to_observed:
        When imputing, clip each column's filled values to the range of
        that column's *observed* entries (default ``True``).  Low-rank
        models can extrapolate far outside the data range at high
        missing rates; the observed range is legitimate side
        information every practitioner applies after min-max
        normalisation.
    random_state:
        Seed or Generator.
    """

    #: Telemetry identifier; subclasses set their Table IV name.
    method: str = "mf"

    def __init__(
        self,
        rank: int,
        *,
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = 1e-6,
        method: str = "batch",
        update_rule: str | None = None,
        learning_rate: float = 1e-3,
        batch_size: int | None = None,
        shuffle: bool = True,
        lr_decay: float = 0.0,
        init: str = "random",
        eval_every: int | None = None,
        kernel_path: str = "auto",
        clip_to_observed: bool = True,
        random_state: object = None,
    ) -> None:
        self.rank = check_positive_int(rank, name="rank")
        self.max_iter = check_positive_int(max_iter, name="max_iter", minimum=0)
        self.tol = check_in_range(tol, name="tol", low=0.0)
        if method not in ("batch", "stochastic"):
            raise ValidationError(
                f"unknown method {method!r}; available: ('batch', 'stochastic')"
            )
        if update_rule is None:
            update_rule = "sgd" if method == "stochastic" else "multiplicative"
        if update_rule not in UPDATE_RULES:
            raise ValidationError(
                f"unknown update_rule {update_rule!r}; available: {UPDATE_RULES}"
            )
        if update_rule in STOCHASTIC_KERNELS:
            method = "stochastic"
        elif method == "stochastic":
            raise ValidationError(
                f"method='stochastic' needs a stochastic update_rule "
                f"{STOCHASTIC_KERNELS}, got {update_rule!r}"
            )
        self.fit_method = method
        self.update_rule = update_rule
        self.learning_rate = check_in_range(
            learning_rate, name="learning_rate", low=0.0, low_inclusive=False
        )
        self.batch_size = (
            None if batch_size is None
            else check_positive_int(batch_size, name="batch_size")
        )
        self.shuffle = bool(shuffle)
        self.lr_decay = check_in_range(lr_decay, name="lr_decay", low=0.0)
        self.init = init
        if eval_every is None:
            eval_every = DEFAULT_EVAL_EVERY if update_rule == "multiplicative" else 1
        self.eval_every = check_positive_int(eval_every, name="eval_every")
        if kernel_path not in KERNEL_PATHS:
            raise ValidationError(
                f"unknown kernel_path {kernel_path!r}; available: {KERNEL_PATHS}"
            )
        self.kernel_path = kernel_path
        self.clip_to_observed = bool(clip_to_observed)
        self.random_state = random_state

        self.u_: np.ndarray | None = None
        self.v_: np.ndarray | None = None
        self.fitted_model_: FittedModel | None = None
        self.n_iter_: int = 0
        self.converged_: bool = False
        self.objective_history_: list[float] = []
        self.fit_report_: FitReport | None = None
        self._fit_x: np.ndarray | None = None
        self._fit_mask: ObservationMask | None = None
        self._ctx_cache: tuple[tuple[int, int], KernelContext] | None = None
        # The per-fit kernel object (build_kernel), rebuilt by every fit.
        self._kernel = None

    # ----------------------------------------------------------------- hooks

    def _prepare_fit(
        self, x: np.ndarray, x_observed: np.ndarray, mask: ObservationMask
    ) -> None:
        """Build model-specific structures before iteration starts."""

    def _initial_factors(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Produce the initial non-negative factors."""
        return init_factors(
            x_observed, observed, self.rank, strategy=self.init, random_state=rng
        )

    def _frozen_v_mask(self, v_shape: tuple[int, int]) -> np.ndarray | None:
        """Landmark mask hook: cells of V the kernel must not update.

        The base family freezes nothing; SMFL overrides this with the
        landmark block Phi.
        """
        return None

    def _landmark_values(self) -> np.ndarray | None:
        """Landmark metadata hook for the extracted :class:`FittedModel`.

        The base family has none; SMFL overrides this with the frozen
        ``(K, L)`` block so artifacts stay self-describing.
        """
        return None

    def _kernel_context(self, v_shape: tuple[int, int]) -> KernelContext:
        """Assemble the per-iteration context for the update kernel."""
        return KernelContext(
            learning_rate=self.learning_rate,
            frozen_v=self._frozen_v_mask(v_shape),
        )

    def _cached_kernel_context(self, v_shape: tuple[int, int]) -> KernelContext:
        """Per-fit memo of :meth:`_kernel_context`.

        The context only references structures that are fixed for the
        duration of one fit (graph operators, frozen mask, weights), so
        it is built once per fit; ``fit`` invalidates the memo after
        ``_prepare_fit`` rebuilds those structures.
        """
        if self._ctx_cache is None or self._ctx_cache[0] != v_shape:
            self._ctx_cache = (v_shape, self._kernel_context(v_shape))
        return self._ctx_cache[1]

    def _step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One update iteration: apply the fit's kernel object.

        Outside :meth:`fit` (hooks driven by hand) no kernel object
        exists yet, and the step runs the reference rules.
        """
        kernel = self._kernel
        if kernel is None:
            kernel = ReferenceKernel(observed, self.update_rule)
        with get_recorder().span(f"kernel:{self.update_rule}", method=self.method):
            return kernel.step(
                x_observed, observed, u, v, self._cached_kernel_context(v.shape)
            )

    def _objective_kernel(self, x: np.ndarray, observed: np.ndarray):
        """The kernel object the objective terms run through: the fit's
        (the workspace's are allocation-free; dense mode bit-identical to
        the reference expressions), or the reference rules outside a fit
        or on another matrix."""
        kernel = self._kernel
        if kernel is not None and kernel.shape == x.shape:
            return kernel
        return ReferenceKernel(observed)

    def _data_term(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        observed: np.ndarray,
    ) -> float:
        """Masked reconstruction error ``||R_O(X - U V)||²``."""
        return self._objective_kernel(x, observed).masked_objective(x, u, v)

    def _objective(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        observed: np.ndarray,
    ) -> float:
        """Objective tracked by the convergence monitor."""
        return self._data_term(x, u, v, observed)

    # ------------------------------------------------------------ public API

    def fit(
        self,
        x: np.ndarray,
        mask: object = None,
        *,
        callbacks: tuple[Callback, ...] = (),
    ) -> "MatrixFactorizationBase":
        """Factorize ``x`` with unobserved cells excluded from the loss.

        Parameters
        ----------
        x:
            ``(n, m)`` non-negative data matrix.  NaN cells are treated
            as unobserved when ``mask`` is omitted.
        mask:
            Optional :class:`ObservationMask` or boolean array
            (``True`` = observed).  Overrides NaN detection.
        callbacks:
            Extra engine callbacks run alongside the built-in
            :class:`~repro.engine.Telemetry` (e.g. recorders for the
            invariant tests).
        """
        plan = self._fit_setup(x, mask)
        self._run_fit_plan(plan, callbacks=callbacks)
        return self

    def _run_fit_plan(
        self, plan: FitPlan, *, callbacks: tuple[Callback, ...] = ()
    ) -> None:
        """Drive a prepared :class:`FitPlan` through the iterative engine.

        The fit's kernel object is built here, where it runs: a stacked
        fit (:func:`~repro.core.batched_fit.fit_models_batched`) never
        steps one, so its set-up does not build it.
        """
        t_build = time.perf_counter()
        self._kernel = self._fit_kernel(plan)
        plan.telemetry.setup_seconds += time.perf_counter() - t_build
        engine = IterativeEngine(
            max_iter=self.max_iter,
            tol=self.tol,
            eval_every=self.eval_every,
            callbacks=(plan.telemetry, *callbacks),
        )
        outcome = engine.run(
            _FactorSolver(self, plan.x_observed, plan.observed), (plan.u, plan.v)
        )
        self._fit_finish(
            plan,
            state=outcome.state,
            n_iter=outcome.n_iter,
            converged=outcome.converged,
            objective_history=outcome.objective_history,
        )

    def _fit_setup(self, x: np.ndarray, mask: object = None) -> FitPlan:
        """Everything ``fit`` does before the iteration loop.

        Shared verbatim between the looped path (:meth:`fit`) and the
        batched multi-fit path, so both draw the same RNG stream, build
        the same graphs/landmarks, and start from identical factors.
        """
        t_setup = time.perf_counter()
        x, observation = self._coerce_input(x, mask)
        check_rank(self.rank, x.shape[0], x.shape[1], name="rank")
        check_nonnegative(observation.project(x), name="observed entries of X")
        x_observed = observation.project(x)
        observed = observation.observed
        rng = resolve_rng(self.random_state)

        self._prepare_fit(x, x_observed, observation)
        u, v = self._initial_factors(x_observed, observed, rng)

        # The stochastic schedule is rebuilt per fit.  Drawing the
        # shuffle seed *after* the factor initialisation keeps U0/V0
        # identical between the batch and stochastic paths for the same
        # random_state (the equivalence tests rely on this).
        scheduler = None
        if self.fit_method == "stochastic":
            scheduler = BatchScheduler(
                x.shape[0],
                batch_size=self.batch_size,
                shuffle=self.shuffle,
                seed=int(rng.integers(0, 2**63)),
                learning_rate=self.learning_rate,
                decay=self.lr_decay,
            )

        frozen = self._frozen_v_mask(v.shape)
        self._ctx_cache = None  # graph/landmark structures rebuilt
        self._kernel = None  # the last fit's; _run_fit_plan builds this one's

        if frozen is not None and frozen.any():
            telemetry = Telemetry(
                method=self.method,
                frozen_mask=frozen,
                frozen_values=v[frozen].copy(),
            )
        else:
            telemetry = Telemetry(method=self.method)
        telemetry.setup_seconds = time.perf_counter() - t_setup
        return FitPlan(
            x=x,
            observation=observation,
            x_observed=x_observed,
            observed=observed,
            u=u,
            v=v,
            frozen=frozen,
            telemetry=telemetry,
            scheduler=scheduler,
        )

    def _fit_kernel(self, plan: FitPlan):
        """The plan's kernel object (:func:`build_kernel`): a buffer arena
        plus (for SMFL on the sparse path) the Gram-cached landmark
        block, the stochastic epoch state, or the reference rules.  A
        workspace binds the fit's graph terms from the context its
        steps will receive."""
        return build_kernel(
            plan.x_observed,
            plan.observed,
            update_rule=self.update_rule,
            kernel_path=self.kernel_path,
            frozen_prefix=frozen_column_prefix(plan.frozen),
            v0=plan.v,
            scheduler=plan.scheduler,
            ctx=self._cached_kernel_context(plan.v.shape),
        )

    def _fit_finish(
        self,
        plan: FitPlan,
        *,
        state: tuple[np.ndarray, np.ndarray],
        n_iter: int,
        converged: bool,
        objective_history,
        report: FitReport | None = None,
    ) -> None:
        """Install the fitted state and extract the model-layer artifact.

        ``report=None`` (the looped path) assembles the report from the
        plan's telemetry; the batched path passes the per-member report
        its engine already built.
        """
        self.u_, self.v_ = state
        self.n_iter_ = n_iter
        self.converged_ = converged
        self.objective_history_ = list(objective_history)
        if report is not None:
            self.fit_report_ = report
        else:
            kernel = self._kernel
            stochastic = isinstance(kernel, StochasticWorkspace)
            self.fit_report_ = plan.telemetry.report(
                u=self.u_.copy(),
                v=self.v_.copy(),
                sampled_objectives=(
                    tuple(kernel.sampled_objectives) if stochastic else ()
                ),
                rows_touched=tuple(kernel.rows_touched) if stochastic else (),
            )
        self._fit_x = plan.x
        self._fit_mask = plan.observation
        # Extract the fitted state into the model layer: everything
        # imputation and serving need, decoupled from this solver.
        self.fitted_model_ = FittedModel.from_factors(
            method=self.method,
            u=self.u_,
            v=self.v_,
            x_observed=plan.x_observed,
            observed=plan.observed,
            update_rule=self.update_rule,
            kernel_path=self.kernel_path,
            n_spatial=int(getattr(self, "n_spatial", 0)),
            landmark_values=self._landmark_values(),
            clip_to_observed=self.clip_to_observed,
        )

    # ------------------------------------------------------- batched seam

    def _batched_terms(self) -> dict:
        """Graph/penalty operators the batched engine needs to replicate
        ``_kernel_context`` and ``_objective`` for this model.

        Must be overridden *together with* any ``_objective`` /
        ``_kernel_context`` override (SMF does) — the batched planner
        refuses models that customise those hooks without declaring
        their batched terms, so a subclass can never be silently
        mis-batched.  Called after ``_fit_setup`` (structures built).
        """
        return {
            "lam": 0.0,
            "similarity": None,
            "degree": None,
            "laplacian": None,
        }

    def batchable(self, observed: np.ndarray) -> bool:
        """Whether this fit can run through the batched multi-fit engine
        with bit-identical results.

        Requires the batch method with a dense-workspace-resolved
        kernel path, the base ``_step``, and either the base
        ``_objective``/``_kernel_context`` or an explicit
        :meth:`_batched_terms` override describing the custom terms.
        """
        if self.fit_method != "batch":
            return False
        if self.update_rule not in ("multiplicative", "gradient"):
            return False
        cls = type(self)
        if cls._step is not MatrixFactorizationBase._step:
            return False
        declares_terms = (
            cls._batched_terms is not MatrixFactorizationBase._batched_terms
        )
        custom_objective = (
            cls._objective is not MatrixFactorizationBase._objective
        )
        custom_context = (
            cls._kernel_context is not MatrixFactorizationBase._kernel_context
        )
        if (custom_objective or custom_context) and not declares_terms:
            return False
        # Only the dense workspace kernel object is batchable
        # bit-identically (same resolution build_kernel will make).
        resolved = resolve_kernel_path(
            self.kernel_path, update_rule=self.update_rule, observed=observed
        )
        return resolved == "workspace"

    def reconstruct(self) -> np.ndarray:
        """``X* = U* V*``: the model's full reconstruction."""
        if self.u_ is None or self.v_ is None:
            raise NotFittedError(f"{type(self).__name__}.reconstruct called before fit")
        return self.u_ @ self.v_

    def impute(self) -> np.ndarray:
        """Formula 8: observed values kept, unobserved filled from ``U V``.

        With ``clip_to_observed`` (default) each column's filled values
        are clipped to the range of its observed entries.  Delegates to
        the pure :func:`repro.model.impute_matrix` over the extracted
        :class:`~repro.model.FittedModel` (bit-identical to the legacy
        in-place implementation).
        """
        if self._fit_x is None or self._fit_mask is None or self.fitted_model_ is None:
            raise NotFittedError(f"{type(self).__name__}.impute called before fit")
        return impute_matrix(self.fitted_model_, self._fit_x, self._fit_mask)

    def fitted_model(self) -> FittedModel:
        """The extracted fitted state (factors, landmarks, clip bounds).

        This is the object to persist (``.save(path)``) and to serve
        fold-in requests from (:mod:`repro.serving`).
        """
        if self.fitted_model_ is None:
            raise NotFittedError(
                f"{type(self).__name__}.fitted_model called before fit"
            )
        return self.fitted_model_

    @traced("fit_impute")
    def fit_impute(self, x: np.ndarray, mask: object = None) -> np.ndarray:
        """Fit on ``(x, mask)`` and return the imputed matrix."""
        self.fit(x, mask)
        return self.impute()

    def result(self) -> FitReport:
        """Fitted-state summary (a full :class:`FitReport`)."""
        if self.fit_report_ is None:
            raise NotFittedError(f"{type(self).__name__}.result called before fit")
        return self.fit_report_

    # ------------------------------------------------------------- internals

    @staticmethod
    def _coerce_input(x: np.ndarray, mask: object) -> tuple[np.ndarray, ObservationMask]:
        # One input seam for the whole stack: the solvers, the pure
        # impute, and serving all normalise through repro.model.
        return coerce_observations(x, mask)
