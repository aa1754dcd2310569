"""The streaming ``partial_fit`` seam: sharded SGD against shared ``V``.

:func:`fit_oocore` is the package's entry point: one serial pass per
epoch over a :class:`~repro.oocore.blocks.RowBlockSource`, one SGD
batch per block, returned as an :class:`OocoreFitResult`.

:class:`StreamingFactorizer` owns the full factors ``U`` (``n x k``,
the only per-row state) and ``V`` (``k x m``) plus a
:class:`~repro.engine.stochastic.StochasticWorkspace`, and consumes one
:class:`~repro.oocore.blocks.RowBlock` at a time: ``partial_fit``
gathers the block's mini-batches into the same workspace buffer layout
as the in-core SGD kernel and runs the exact
:func:`~repro.engine.stochastic.gathered_batch_u_step` /
:func:`~repro.engine.stochastic.sgd_grad_v` /
:func:`~repro.engine.stochastic.apply_v_step` sequence, so nothing of
the data matrix beyond one block is ever resident.

Determinism contract (pinned by ``tests/oocore/test_equivalence.py``):

- the within-block row order of epoch ``e``, block ``i`` is
  :func:`~repro.oocore.blocks.block_order`\\ ``(rows, seed, e, i,
  shuffle)`` — a pure function of ``(seed, epoch, block)``;
- with ``shuffle=False`` and in-core batches aligned to block
  boundaries (``block_rows %% batch_size == 0``), a serial streaming
  pass over the blocks in order replays the in-core SGD epoch
  *bit-exactly*: same gathers, same gemm operand layouts, same
  ``N``-rescaled ``V`` steps in the same order;
- with ``shuffle=True`` the permutation is block-local (the in-core
  path permutes globally), so the paths agree in distribution, not
  bits — the benchmark gates the objective ratio instead.

SMFL's landmark prefix of ``V`` is bit-frozen by construction: every
``V`` step writes only ``v[:, frozen_prefix:]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.stochastic import (
    BatchScheduler,
    StochasticWorkspace,
    apply_v_step,
    gathered_batch_u_step,
    sgd_grad_v,
)
from ..engine.workspace import GramCache
from ..exceptions import ValidationError
from ..obs.stream import get_recorder, observe
from ..validation import resolve_rng
from .blocks import RowBlock, RowBlockSource, block_order

__all__ = ["OocoreFitResult", "StreamingFactorizer", "fit_oocore", "streaming_init"]


def streaming_init(
    source: RowBlockSource, rank: int, *, random_state: object = None
) -> tuple[np.ndarray, np.ndarray]:
    """Random ``(U, V)`` matching the in-core ``init_factors("random")``.

    One pass over the source accumulates the observed mean (equal to
    the in-core value up to per-block summation order; bit-identical
    when the source has a single block), then ``U`` and ``V`` are drawn
    from the same uniform stream in the same order as
    :func:`repro.core.initialization.init_factors`.
    """
    total = 0.0
    n_obs = 0
    for block in source:
        total += float(block.x_observed.sum())
        n_obs += int(block.observed.sum())
    mean = total / max(n_obs, 1)
    scale = np.sqrt(max(mean, 1e-3) / rank) * 2.0
    rng = resolve_rng(random_state)
    u = rng.random((source.n_rows, rank)) * scale + 1e-4
    v = rng.random((rank, source.n_cols)) * scale + 1e-4
    return u, v


class StreamingFactorizer:
    """Row-sharded masked NMF/SMFL fitting, one block at a time.

    Parameters
    ----------
    n_rows, v0, u0:
        Full row count and the initial factors.  ``u0`` is ``(n_rows,
        k)`` — the only full-height array the fit keeps (the data
        matrix itself never is).
    frozen_prefix:
        Leading columns of ``V`` held bit-frozen (SMFL's landmark
        block; ``0`` for plain NMF).
    batch_size:
        Rows per SGD mini-batch within a block (``None`` uses the
        engine default, clamped like :class:`BatchScheduler`).
    shuffle, seed:
        Block-local row sampling: epoch ``e`` of block ``i`` visits
        rows in :func:`block_order`\\ ``(rows, seed, e, i, shuffle)``.
    learning_rate, lr_decay:
        The in-core step-size schedule ``lr / (1 + decay * epoch)``.
    """

    def __init__(
        self,
        n_rows: int,
        v0: np.ndarray,
        *,
        u0: np.ndarray,
        frozen_prefix: int = 0,
        batch_size: int | None = None,
        shuffle: bool = True,
        seed: int = 0,
        learning_rate: float = 1e-3,
        lr_decay: float = 0.0,
    ) -> None:
        v0 = np.array(v0, dtype=np.float64, order="C", copy=True)
        u0 = np.array(u0, dtype=np.float64, order="C", copy=True)
        if v0.ndim != 2:
            raise ValidationError(f"param 'v0' must be 2-D, got {v0.ndim}-D")
        if u0.shape != (int(n_rows), v0.shape[0]):
            raise ValidationError(
                f"param 'u0' shape {u0.shape} does not match "
                f"(n_rows, rank) = ({int(n_rows)}, {v0.shape[0]})"
            )
        if not 0 <= int(frozen_prefix) <= v0.shape[1]:
            raise ValidationError(
                f"param 'frozen_prefix' must be in [0, {v0.shape[1]}], "
                f"got {frozen_prefix}"
            )
        self.n_rows = int(n_rows)
        self.n_cols = int(v0.shape[1])
        self.rank = int(v0.shape[0])
        self.u = u0
        self.v = v0
        self.frozen_prefix = int(frozen_prefix)
        self._live = slice(self.frozen_prefix, None)
        self._v_frozen = np.array(v0[:, : self.frozen_prefix], order="C", copy=True)
        self.scheduler = BatchScheduler(
            self.n_rows,
            batch_size=batch_size,
            shuffle=shuffle,
            seed=seed,
            learning_rate=learning_rate,
            decay=lr_decay,
        )
        self.workspace = StochasticWorkspace(self.scheduler)
        # The landmark Gram cache is valid for the whole fit because
        # the prefix of V is frozen; ``evaluate`` reuses it.
        self._gram: GramCache | None = (
            GramCache(
                np.zeros((0, self.n_cols)), self.v, self.frozen_prefix
            )
            if self.frozen_prefix
            else None
        )
        self._epoch_sq = 0.0
        self._epoch_rows = 0

    @property
    def epoch(self) -> int:
        """Completed epochs (``partial_fit`` runs under this epoch)."""
        return self.workspace.epoch

    @property
    def landmark_block_intact(self) -> bool:
        """The frozen prefix of ``V`` is bit-identical to ``v0``'s."""
        return bool(
            np.array_equal(self.v[:, : self.frozen_prefix], self._v_frozen)
        )

    def _coerce(
        self,
        block: RowBlock | np.ndarray,
        observed: np.ndarray | None,
        start: int | None,
        index: int | None,
    ) -> RowBlock:
        if isinstance(block, RowBlock):
            return block
        if observed is None or start is None:
            raise ValidationError(
                "raw-array partial_fit needs 'observed' and 'start' "
                "(or pass a RowBlock)"
            )
        data = np.ascontiguousarray(block, dtype=np.float64)
        return RowBlock(
            index=int(start) if index is None else int(index),
            start=int(start),
            stop=int(start) + data.shape[0],
            x_observed=data,
            observed=np.ascontiguousarray(observed),
        )

    def partial_fit(
        self,
        block: RowBlock | np.ndarray,
        observed: np.ndarray | None = None,
        *,
        start: int | None = None,
        index: int | None = None,
    ) -> float:
        """One streaming pass over ``block`` under the current epoch.

        Updates the block's rows of ``U`` and the live columns of the
        shared ``V``, mini-batch by mini-batch, running the exact
        in-core gathered-batch kernel sequence.  Accepts either a
        :class:`RowBlock` or a raw ``(data, observed)`` pair with the
        block's ``start`` row.  Returns the block's summed pre-step
        squared residual (its contribution to the epoch's sampled
        objective).
        """
        blk = self._coerce(block, observed, start, index)
        if blk.stop > self.n_rows:
            raise ValidationError(
                f"block rows [{blk.start}, {blk.stop}) exceed n_rows="
                f"{self.n_rows}"
            )
        if blk.x_observed.shape[1] != self.n_cols:
            raise ValidationError(
                f"block field 'x_observed' has {blk.x_observed.shape[1]} "
                f"columns, expected {self.n_cols}"
            )
        ws = self.workspace
        scheduler = self.scheduler
        cap = scheduler.batch_size
        lr = scheduler.step_size(ws.epoch)
        m = self.n_cols
        k = self.rank
        order = block_order(
            blk.rows, scheduler.seed, ws.epoch, blk.index, scheduler.shuffle
        )
        u_block = self.u[blk.start : blk.stop]
        sq_total = 0.0
        recorder = get_recorder()
        with recorder.span(
            "oocore:block_update", block=blk.index, rows=blk.rows,
            epoch=ws.epoch,
        ):
            for pos in range(0, blk.rows, cap):
                local = order[pos : pos + cap]
                rows = local.shape[0]
                x_rows = ws.buf("x_rows", (cap, m))[:rows]
                observed_rows = ws.buf("observed_rows", (cap, m), np.bool_)[:rows]
                unobserved_rows = ws.buf(
                    "unobserved_rows", (cap, m), np.bool_
                )[:rows]
                u_rows = ws.buf("u_rows", (cap, k))[:rows]
                np.take(blk.x_observed, local, axis=0, out=x_rows)
                np.take(blk.observed, local, axis=0, out=observed_rows)
                np.logical_not(observed_rows, out=unobserved_rows)
                np.take(u_block, local, axis=0, out=u_rows)
                residual, sq = gathered_batch_u_step(
                    ws, u_rows, x_rows, observed_rows, unobserved_rows,
                    self.v, lr, cap,
                )
                u_block[local] = u_rows
                sq_total += sq
                # Accumulate batch-by-batch (not block subtotals) so
                # the epoch total reproduces the in-core kernel's float
                # summation order bit-exactly.
                self._epoch_sq += sq
                scale = 2.0 * self.n_rows / rows
                grad_v = sgd_grad_v(
                    ws, u_rows, residual, self._live, scale, cap, m
                )
                apply_v_step(self.v, grad_v, lr, self._live, ws)
        self._epoch_rows += blk.rows
        # ``round`` is the V-step application sequence number; blocks
        # apply in index order, so it equals the block index.
        recorder.event(
            "oocore.block_done",
            epoch=ws.epoch,
            round=blk.index,
            block=blk.index,
            rows=blk.rows,
        )
        return sq_total

    def finish_epoch(self) -> None:
        """Close the current epoch: record telemetry, advance the clock."""
        self.workspace.record_epoch(self._epoch_rows, self._epoch_sq)
        self._epoch_sq = 0.0
        self._epoch_rows = 0

    @property
    def sampled_objectives(self) -> list[float]:
        return list(self.workspace.sampled_objectives)

    @property
    def rows_touched(self) -> list[int]:
        return list(self.workspace.rows_touched)

    def fit(self, source: RowBlockSource, *, epochs: int) -> "StreamingFactorizer":
        """Serial sharded fit: ``epochs`` ordered passes over ``source``."""
        with observe(
            "oocore.fit", epochs=int(epochs),
            blocks=source.n_blocks, n_rows=self.n_rows,
        ):
            for _ in range(int(epochs)):
                with observe(
                    "oocore.epoch", epoch=self.workspace.epoch,
                    blocks=source.n_blocks,
                ) as span:
                    for block in source:
                        self.partial_fit(block)
                    span.set_attr("rows", self._epoch_rows)
                    self.finish_epoch()
        return self

    def evaluate(self, source: RowBlockSource) -> float:
        """Full masked objective ``||R_O(U V - X)||_F^2``, streamed.

        The live columns are evaluated from the block residual
        directly; the frozen landmark columns reuse the per-fit
        :class:`~repro.engine.workspace.GramCache` via the identity
        ``||U_B V_L - X_L||^2 = sum((U_B G) o U_B)
        - 2 sum((X_L V_L^T) o U_B) + ||X_L||^2`` with
        ``G = V_L V_L^T`` whenever the block's landmark columns are
        fully observed (falling back to the masked residual when not).
        """
        p = self.frozen_prefix
        live = self._live
        total = 0.0
        for block in source:
            u_rows = self.u[block.start : block.stop]
            r_live = u_rows @ self.v[:, live]
            r_live -= block.x_observed[:, live]
            r_live[~block.observed[:, live]] = 0.0
            total += float(np.vdot(r_live, r_live))
            if p == 0:
                continue
            x_land = block.x_observed[:, :p]
            if self._gram is not None and bool(block.observed[:, :p].all()):
                ug = u_rows @ self._gram.gram_vl
                term = float(np.vdot(ug, u_rows))
                term -= 2.0 * float(
                    np.vdot(x_land @ self._v_frozen.T, u_rows)
                )
                term += float(np.vdot(x_land, x_land))
                total += max(term, 0.0)
            else:
                r_land = u_rows @ self.v[:, :p]
                r_land -= x_land
                r_land[~block.observed[:, :p]] = 0.0
                total += float(np.vdot(r_land, r_land))
        return total


@dataclass(frozen=True)
class OocoreFitResult:
    """The factors and telemetry of one out-of-core fit."""

    u: np.ndarray
    v: np.ndarray
    sampled_objectives: list[float] = field(default_factory=list)
    rows_touched: list[int] = field(default_factory=list)
    landmark_block_intact: bool = True
    epochs: int = 0


def fit_oocore(
    source: RowBlockSource,
    v0: np.ndarray,
    u0: np.ndarray,
    *,
    epochs: int,
    frozen_prefix: int = 0,
    shuffle: bool = True,
    seed: int = 0,
    learning_rate: float = 1e-3,
    lr_decay: float = 0.0,
) -> OocoreFitResult:
    """Serial out-of-core fit: one SGD batch per block.

    A :class:`StreamingFactorizer` at ``batch_size == block_rows``, so
    its factors are bit-identical to that streamer's.
    """
    streamer = StreamingFactorizer(
        source.n_rows,
        v0,
        u0=u0,
        frozen_prefix=frozen_prefix,
        batch_size=source.block_rows,
        shuffle=shuffle,
        seed=seed,
        learning_rate=learning_rate,
        lr_decay=lr_decay,
    ).fit(source, epochs=epochs)
    return OocoreFitResult(
        u=streamer.u,
        v=streamer.v,
        sampled_objectives=streamer.sampled_objectives,
        rows_touched=streamer.rows_touched,
        landmark_block_intact=streamer.landmark_block_intact,
        epochs=int(epochs),
    )
