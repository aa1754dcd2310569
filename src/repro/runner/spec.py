"""Cell model for the experiment runner: :class:`RunSpec` and :class:`RunGrid`.

Every registered experiment (Tables IV-VII, Figures 4-9) expands into a
flat grid of *cells* - one ``(dataset, method, missing rate, seed)``
fit-and-score unit - that the runner can execute in any order, on any
worker, and cache content-addressed.  The paper structure is recovered
afterwards by the grid's ``assemble`` function, which consumes cell
values in grid order so the serial aggregation (seed-ordered
``np.mean``) stays bit-identical to the pre-runner regenerators.

Determinism contract: every random quantity a cell needs (injection
seed, model ``random_state``, route seed) is baked into ``params`` when
the grid is *expanded* - a pure function of the experiment definition
and the cell's position - never derived from the worker that happens to
execute it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..exceptions import ValidationError

__all__ = ["RunSpec", "RunGrid", "RunnerConfig"]


@dataclass(frozen=True)
class RunSpec:
    """One executable cell of an experiment grid.

    Parameters
    ----------
    kind:
        Name of the cell function in
        :data:`repro.runner.cells.CELL_KINDS` (e.g.
        ``"imputation_rms"``).
    params:
        JSON-ready keyword payload for the cell function.  Everything
        the cell needs - dataset name, method, rates, the baked-in
        seed - lives here; the pair ``(kind, params)`` fully determines
        the cell's value.
    volatile:
        ``True`` for cells whose value is not a deterministic function
        of ``(kind, params)`` - wall-clock timing cells.  Volatile
        cells are never cached and their values are excluded from the
        manifest's stable (determinism-checked) view.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    volatile: bool = False

    def config(self) -> dict[str, Any]:
        """The cell's canonical content: what the cache key hashes."""
        return {"kind": self.kind, "params": self.params}


@dataclass(frozen=True)
class RunGrid:
    """A fully expanded experiment: ordered cells plus an assembler.

    ``assemble`` receives the cell values *in grid order* (independent
    of execution order) and rebuilds the regenerator's return shape.
    """

    experiment: str
    cells: tuple[RunSpec, ...]
    assemble: Callable[[list[Any]], Any]

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class RunnerConfig:
    """How to execute a grid: parallelism, caching, and the manifest.

    The default configuration (``RunnerConfig()``) is the library-call
    path: serial, cache-free, manifest-free - byte-for-byte the
    behaviour the regenerators had before the runner existed.  The CLI
    constructs an explicit configuration from its flags.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs every cell in-process.
    cache_dir:
        Directory of the content-addressed result cache, or ``None``
        to disable caching entirely (nothing read, nothing written).
    resume:
        When ``True`` (default), completed cells found in the cache are
        reused; when ``False``, existing entries are ignored (every
        cell recomputes) but fresh results are still stored - the
        "recompute and refresh" switch.
    manifest_path:
        Where to write the run manifest JSON, or ``None`` to skip it.
    trace_path:
        Where to record the run (JSONL, appended; see
        :mod:`repro.obs.stream`), or ``None`` to leave recording to the
        ambient recorder (the default; with no ambient recorder active,
        recording is off and costs nothing).  When an ambient recorder
        is already active - e.g. a CLI ``--trace`` flag wrapped the
        whole invocation - it wins and this field is ignored.
    coalesce:
        When ``True`` (default), compatible same-configuration cells
        (same everything but the seed; see
        :mod:`repro.runner.coalesce`) execute as one batched super-cell
        through the 3-D multi-fit engine.  Per-cell results, cache
        entries, and manifest records are unchanged either way - the
        batched engine is bit-identical to fits run one by one - so this is a
        pure wall-time switch.
    """

    jobs: int = 1
    cache_dir: str | None = None
    resume: bool = True
    manifest_path: str | None = None
    trace_path: str | None = None
    coalesce: bool = True

    def __post_init__(self) -> None:
        if int(self.jobs) < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
