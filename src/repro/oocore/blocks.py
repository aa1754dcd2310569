"""Row-block sources: huge matrices materialized one shard at a time.

The block protocol is deliberately tiny: a :class:`RowBlockSource`
knows its full shape and block size, and :meth:`~RowBlockSource.block`
materializes one :class:`RowBlock` — the half-open row range plus the
observed-projected data and mask for exactly those rows.  Everything
above this seam (:class:`~repro.oocore.streaming.StreamingFactorizer`)
touches one block at a time, so peak memory scales with
``block_rows * n_cols``, not ``n_rows * n_cols``.

Three implementations:

- :class:`ArrayBlockSource` — in-memory arrays, sliced by view; the
  reference implementation the equivalence tests compare against;
- :class:`MemmapBlockSource` — a pair of ``.npy`` files opened with
  ``np.load(mmap_mode="r")``; only the touched block's pages ever
  become resident;
- :class:`GeneratorBlockSource` — a registered :mod:`repro.bench`
  generator spec invoked per chunk with a per-block child seed, so a
  5M-row benchmark matrix is *never* written anywhere.

Validation follows the library contract: shape/dtype mismatches raise
:class:`~repro.exceptions.ValidationError` naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from ..exceptions import ValidationError
from ..obs.stream import get_recorder

__all__ = [
    "RowBlock",
    "RowBlockSource",
    "ArrayBlockSource",
    "MemmapBlockSource",
    "GeneratorBlockSource",
    "block_order",
]


def block_order(
    rows: int, seed: int, epoch: int, block_index: int, shuffle: bool
) -> np.ndarray:
    """The deterministic within-block row order of one (epoch, block).

    A pure function of ``(seed, epoch, block_index)`` — independent of
    the order blocks are visited in and of how many epochs ran before —
    which is what makes a fit replayable block by block.  With
    ``shuffle=False`` the
    order is ``arange(rows)``, the alignment the bit-exactness tests
    exploit.
    """
    if not shuffle:
        return np.arange(rows)
    return np.random.default_rng((seed, epoch, block_index)).permutation(rows)


@dataclass(frozen=True)
class RowBlock:
    """One materialized shard: rows ``[start, stop)`` of the matrix.

    ``x_observed`` is the observed-projected data (unobserved cells
    zero, exactly what the engine's stochastic path consumes) and
    ``observed`` the boolean mask, both ``(stop - start, n_cols)``.
    Construction validates the invariants and raises
    :class:`~repro.exceptions.ValidationError` naming the field.
    """

    index: int
    start: int
    stop: int
    x_observed: np.ndarray
    observed: np.ndarray

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValidationError(
                f"block field 'stop' must exceed 'start', got "
                f"[{self.start}, {self.stop})"
            )
        if self.x_observed.ndim != 2:
            raise ValidationError(
                f"block field 'x_observed' must be 2-D, got "
                f"{self.x_observed.ndim}-D"
            )
        if self.x_observed.dtype != np.float64:
            raise ValidationError(
                f"block field 'x_observed' must be float64, got "
                f"{self.x_observed.dtype}"
            )
        if self.observed.shape != self.x_observed.shape:
            raise ValidationError(
                f"block field 'observed' shape {self.observed.shape} does "
                f"not match 'x_observed' shape {self.x_observed.shape}"
            )
        if self.observed.dtype != np.bool_:
            raise ValidationError(
                f"block field 'observed' must be bool, got "
                f"{self.observed.dtype}"
            )
        if self.x_observed.shape[0] != self.stop - self.start:
            raise ValidationError(
                f"block field 'x_observed' has {self.x_observed.shape[0]} "
                f"rows but the range [{self.start}, {self.stop}) spans "
                f"{self.stop - self.start}"
            )

    @property
    def rows(self) -> int:
        return self.stop - self.start


class RowBlockSource:
    """Base class: shape bookkeeping + the iteration protocol.

    Subclasses set ``n_rows`` / ``n_cols`` / ``block_rows`` (via
    :meth:`_init_shape`) and implement :meth:`_materialize` returning
    the ``(x_observed, observed)`` pair of one block.
    """

    n_rows: int
    n_cols: int
    block_rows: int

    def _init_shape(self, n_rows: int, n_cols: int, block_rows: int) -> None:
        if n_rows <= 0 or n_cols <= 0:
            raise ValidationError(
                f"source shape must be positive, got ({n_rows}, {n_cols})"
            )
        if block_rows <= 0:
            raise ValidationError(
                f"param 'block_rows' must be positive, got {block_rows}"
            )
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.block_rows = min(int(block_rows), self.n_rows)

    @property
    def n_blocks(self) -> int:
        """Blocks per pass (the last one may be smaller)."""
        return -(-self.n_rows // self.block_rows)

    def _materialize(
        self, index: int, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def block(self, index: int) -> RowBlock:
        """Materialize block ``index`` (range-checked)."""
        if not 0 <= index < self.n_blocks:
            raise ValidationError(
                f"block index {index} out of range [0, {self.n_blocks})"
            )
        start = index * self.block_rows
        stop = min(start + self.block_rows, self.n_rows)
        with get_recorder().span(
            "oocore:block_load", block=index, rows=stop - start
        ):
            x_observed, observed = self._materialize(index, start, stop)
        return RowBlock(
            index=index, start=start, stop=stop,
            x_observed=x_observed, observed=observed,
        )

    def __iter__(self) -> Iterator[RowBlock]:
        for index in range(self.n_blocks):
            yield self.block(index)


class ArrayBlockSource(RowBlockSource):
    """Blocks sliced (by view) out of in-memory arrays.

    The reference source: wraps the exact arrays an in-core fit would
    see, so sharded-vs-in-core equivalence tests compare like with
    like.  ``x_observed`` must already be observed-projected.
    """

    def __init__(
        self, x_observed: np.ndarray, observed: np.ndarray, block_rows: int
    ) -> None:
        x_observed = np.ascontiguousarray(x_observed, dtype=np.float64)
        if x_observed.ndim != 2:
            raise ValidationError(
                f"param 'x_observed' must be 2-D, got {x_observed.ndim}-D"
            )
        observed = np.ascontiguousarray(observed)
        if observed.dtype != np.bool_:
            raise ValidationError(
                f"param 'observed' must be bool, got {observed.dtype}"
            )
        if observed.shape != x_observed.shape:
            raise ValidationError(
                f"param 'observed' shape {observed.shape} does not match "
                f"'x_observed' shape {x_observed.shape}"
            )
        self._x = x_observed
        self._observed = observed
        self._init_shape(x_observed.shape[0], x_observed.shape[1], block_rows)

    def _materialize(
        self, index: int, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._x[start:stop], self._observed[start:stop]


class MemmapBlockSource(RowBlockSource):
    """Blocks read from a memory-mapped ``.npy`` data/mask pair.

    Both files are opened with ``np.load(mmap_mode="r")`` — the OS
    pages in only the rows a block touches.  Shapes and dtypes are
    validated up front so a mismatched pair fails at construction with
    the offending field named, not deep inside an epoch.  Each block
    copies its rows out of the map (the update kernels gather from
    contiguous arrays), so resident memory stays ``O(block_rows *
    n_cols)``.
    """

    def __init__(self, data_path: Any, mask_path: Any, block_rows: int) -> None:
        self._data_path = str(data_path)
        self._mask_path = str(mask_path)
        data = np.load(data_path, mmap_mode="r")
        mask = np.load(mask_path, mmap_mode="r")
        if data.ndim != 2:
            raise ValidationError(
                f"memmap field 'data' must be 2-D, got {data.ndim}-D"
            )
        if data.dtype != np.float64:
            raise ValidationError(
                f"memmap field 'data' must be float64, got {data.dtype}"
            )
        if mask.dtype != np.bool_:
            raise ValidationError(
                f"memmap field 'mask' must be bool, got {mask.dtype}"
            )
        if mask.shape != data.shape:
            raise ValidationError(
                f"memmap field 'mask' shape {mask.shape} does not match "
                f"'data' shape {data.shape}"
            )
        self._data = data
        self._mask = mask
        self._init_shape(data.shape[0], data.shape[1], block_rows)

    def __getstate__(self) -> dict:
        # Ship the paths, never the maps: a pickled np.memmap
        # materializes the full array, defeating the point.
        return {
            "data_path": self._data_path,
            "mask_path": self._mask_path,
            "block_rows": self.block_rows,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["data_path"], state["mask_path"], state["block_rows"]
        )

    def _materialize(
        self, index: int, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        observed = np.array(self._mask[start:stop], order="C", copy=True)
        x_observed = np.array(self._data[start:stop], order="C", copy=True)
        # Project onto the observed set: the on-disk data may carry
        # arbitrary values (even NaN) in unobserved cells.
        x_observed[~observed] = 0.0
        return x_observed, observed


class GeneratorBlockSource(RowBlockSource):
    """Blocks generated chunk-by-chunk from a :mod:`repro.bench` spec.

    Block ``i`` regenerates rows ``[i * block_rows, ...)`` by invoking
    the spec with ``rows = len(block)`` under the per-block child seed
    ``SeedSequence([seed, i])`` — deterministic, process-independent,
    and never materializing more than one block.  Note the generated
    *content* is therefore a function of ``block_rows`` too: the same
    ``(spec, params, seed)`` at a different block size is a different
    (equally valid) benchmark matrix.
    """

    def __init__(
        self,
        spec: str,
        params: Mapping[str, Any] | None,
        *,
        seed: int = 0,
        block_rows: int = 65536,
    ) -> None:
        from ..bench.specs import get_spec

        self._spec = get_spec(spec)
        if params is None or "rows" not in params:
            raise ValidationError(
                f"spec {spec!r} params must pin 'rows' explicitly; the row "
                "count defines the shard layout"
            )
        self._params = self._spec.validate(params)
        self._seed = int(seed)
        # One tiny probe generation pins the column count (and proves
        # the params generate at all) before any real work runs.
        probe = dict(self._params)
        probe["rows"] = 8
        n_cols = self._spec.generate(probe, seed=self._seed).x_missing.shape[1]
        self._init_shape(self._params["rows"], n_cols, block_rows)

    @property
    def spec_name(self) -> str:
        return self._spec.name

    @property
    def params(self) -> dict[str, Any]:
        return dict(self._params)

    def block_seed(self, index: int) -> int:
        """The child seed of block ``index`` (pure function of (seed, i))."""
        return int(
            np.random.SeedSequence([self._seed, index]).generate_state(1)[0]
        )

    def _materialize(
        self, index: int, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        params = dict(self._params)
        params["rows"] = stop - start
        bench = self._spec.generate(params, seed=self.block_seed(index))
        observed = np.ascontiguousarray(bench.mask.observed)
        x_observed = bench.mask.project(np.nan_to_num(bench.x_missing))
        return np.ascontiguousarray(x_observed, dtype=np.float64), observed
