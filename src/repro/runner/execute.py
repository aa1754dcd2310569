"""Grid execution: serial or process-parallel, cache-aware, manifested.

:func:`run_grid` is the single entry point the experiment regenerators
and the CLI go through.  The flow per cell:

1. compute the content address (:func:`~repro.runner.cache.cache_key`);
2. with caching enabled and ``resume`` on, serve a stored value if one
   exists (a cache *hit* - the fit is skipped entirely);
3. otherwise execute the cell - in-process when ``jobs == 1`` (the
   bit-identical legacy path, no multiprocessing in the loop at all),
   or on a ``ProcessPoolExecutor`` worker otherwise - and store the
   fresh result.

Results are always assembled in *grid order*, independent of worker
completion order, and all randomness is baked into each cell's params
at grid-expansion time, so ``--jobs N`` is bit-identical to serial for
every deterministic cell.  Cache files are written by the parent
process only - workers just compute - so no cross-process file races
exist by construction.

Observability (see :mod:`repro.obs`): when a recorder is active - the
ambient one installed by a CLI's ``--trace`` flag, or one the runner
opens itself for ``RunnerConfig.trace_path`` - the whole grid runs
under ``observe("run")`` with one ``observe("cell")`` per cell (cache
hits included, tagged ``cache_hit=True``; a coalesced unit runs under
``observe("batch.cells")``).  Worker processes record into memory and
ship their records back with the cell payload; the parent re-parents
each worker's roots under the ``run`` span and tags every record with
the cell's content address, so serial and ``--jobs N`` runs write one
stream with the same records and tree shape.  Per-run metrics (cache
hits/misses/stores, cells executed, per-cell wall-time distribution)
land in the manifest's ``metrics`` section and, when recording, as a
``metrics`` record.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.stream import collect, get_recorder, observe, record_to
from .cache import ResultCache, cache_key
from .cells import run_cell
from .coalesce import execute_multi_cell, plan_units
from .manifest import build_manifest, write_manifest
from .spec import RunGrid, RunnerConfig, RunSpec

__all__ = ["execute_cell", "run_grid", "RunOutcome"]


def _run_cell_observed(spec: RunSpec, attrs: dict[str, Any]) -> dict[str, Any]:
    """Run one cell under ``observe("cell")``; the span clock times it."""
    with observe("cell", kind=spec.kind, **attrs) as span:
        out = run_cell(spec.kind, dict(spec.params))
    out["wall_seconds"] = span.duration
    return out


def execute_cell(
    spec: RunSpec,
    trace: bool = False,
    span_attrs: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Execute one cell and time it - the worker-safe entry point.

    Top-level (picklable) on purpose: ``ProcessPoolExecutor`` ships the
    :class:`RunSpec` to a worker and calls this by reference.  Returns
    ``{"value", "fit", "wall_seconds"}``.  The cell's wall time comes
    from its ``cell`` span (the obs clock), not a separate stopwatch.

    ``trace=True`` is the worker-process contract: records go to a
    fresh in-memory recorder (:func:`repro.obs.stream.collect`) and
    come back under ``"records"`` for the parent to merge.  A forked
    worker inherits the parent's recorder; writing into that copy would
    lose the ring and memory sinks' records when the worker exits.  The
    serial path passes ``trace=False`` and records into the ambient
    recorder directly.
    """
    attrs = dict(span_attrs or {})
    if trace:
        payload, records = collect(_run_cell_observed, spec, attrs)
        payload["records"] = records
        return payload
    return _run_cell_observed(spec, attrs)


@dataclass(frozen=True)
class RunOutcome:
    """Everything one grid execution produced.

    ``value`` is the regenerator's historical return shape;
    ``manifest`` the full run manifest (also written to disk when the
    config asks for it); ``records`` the per-cell manifest entries in
    grid order.
    """

    value: Any
    manifest: dict[str, Any]
    records: list[dict[str, Any]]

    @property
    def cache_stats(self) -> dict[str, Any]:
        return self.manifest["cache"]


def _record(
    index: int,
    spec: RunSpec,
    key: str,
    payload: dict[str, Any],
    *,
    cache_hit: bool,
) -> dict[str, Any]:
    record = {
        "index": index,
        "kind": spec.kind,
        "params": spec.params,
        "key": key,
        "volatile": spec.volatile,
        "cache_hit": cache_hit,
        "value": payload.get("value"),
        "fit": payload.get("fit"),
        "wall_seconds": float(payload.get("wall_seconds", 0.0)),
    }
    if payload.get("artifact") is not None:
        record["artifact"] = payload["artifact"]
    return record


def _merge_worker_records(
    recorder: Any, records: list[dict[str, Any]], *, parent_id: str, cell_key: str
) -> None:
    """Re-emit one worker's records into the parent's stream.

    Worker roots (spans with no parent, events outside any span in the
    worker) are re-parented under the parent's ``run`` span, and every
    record is tagged with the cell's content address so a trace row can
    always be joined back to its manifest/cache entry.
    """
    for record in records:
        record = dict(record)
        link = "parent_id" if record["kind"] == "span" else "span_id"
        if record.get(link) is None:
            record[link] = parent_id
        record["attrs"] = {"cell_key": cell_key, **(record.get("attrs") or {})}
        recorder.emit(record)


def _run_metrics(
    grid: RunGrid,
    records: list[dict[str, Any]],
    cache: ResultCache | None,
    executed: int,
) -> MetricsRegistry:
    """Assemble this run's metrics registry (mirrored into the global one)."""
    registry = MetricsRegistry()
    ambient = get_metrics()
    registry.counter("runner.cells.total").inc(len(grid.cells))
    registry.counter("runner.cells.executed").inc(executed)
    registry.counter("runner.cells.cache_hits").inc(
        sum(1 for record in records if record["cache_hit"])
    )
    wall = registry.histogram("runner.cell.wall_seconds")
    for record in records:
        if not record["cache_hit"]:
            wall.observe(record["wall_seconds"])
    if cache is not None:
        stats = cache.stats()
        for field in ("hits", "misses", "stores"):
            registry.counter(f"runner.cache.{field}").inc(stats[field])
            ambient.counter(f"runner.cache.{field}").inc(stats[field])
    return registry


def run_grid(grid: RunGrid, config: RunnerConfig | None = None) -> RunOutcome:
    """Execute every cell of ``grid`` under ``config`` and assemble.

    With ``config=None`` (the library default) this is the legacy
    serial path: no cache, no workers, no manifest file - just the
    cells in order.
    """
    config = config or RunnerConfig()
    cache = ResultCache(config.cache_dir) if config.cache_dir else None

    with ExitStack() as stack:
        recorder = get_recorder()
        if config.trace_path and not recorder.enabled:
            recorder = stack.enter_context(
                record_to(config.trace_path, experiment=grid.experiment)
            )
        tracing = recorder.enabled

        keys = [cache_key(spec) for spec in grid.cells]
        records: list[dict[str, Any] | None] = [None] * len(grid.cells)
        pending: list[int] = []
        with recorder.observe(
            "run", experiment=grid.experiment, n_cells=len(grid.cells),
            jobs=config.jobs,
        ) as run_span:
            for index, spec in enumerate(grid.cells):
                entry = None
                if cache is not None and config.resume and not spec.volatile:
                    entry = cache.load(keys[index])
                if entry is not None:
                    with recorder.observe(
                        "cell", kind=spec.kind, index=index,
                        cell_key=keys[index], cache_hit=True,
                    ):
                        pass
                    records[index] = _record(
                        index, spec, keys[index],
                        {"value": entry.get("value"), "fit": entry.get("fit"),
                         "wall_seconds": 0.0},
                        cache_hit=True,
                    )
                else:
                    pending.append(index)

            def _merge(payload: dict[str, Any], cell_key: str) -> None:
                shipped = payload.pop("records", None)
                if shipped:
                    _merge_worker_records(
                        recorder, shipped,
                        parent_id=run_span.span_id, cell_key=cell_key,
                    )

            def _complete(index: int, payload: dict[str, Any]) -> None:
                spec = grid.cells[index]
                _merge(payload, keys[index])
                records[index] = _record(
                    index, spec, keys[index], payload, cache_hit=False
                )
                if cache is not None and not spec.volatile:
                    cache.store(
                        keys[index],
                        {
                            "kind": spec.kind,
                            "params": spec.params,
                            "value": payload.get("value"),
                            "fit": payload.get("fit"),
                            "wall_seconds": payload.get("wall_seconds"),
                        },
                    )

            # Execution units: coalescing fuses compatible same-config
            # cells into one batched super-cell (see repro.runner.
            # coalesce); per-cell keys/records/cache entries above and
            # below this block are untouched either way.
            if config.coalesce:
                units = plan_units(grid.cells, pending)
            else:
                units = [[index] for index in pending]

            def _complete_unit(unit: list[int], result: dict[str, Any]) -> None:
                """Fan a coalesced unit's payloads back out per cell."""
                # One merge per unit; member records inside the fused
                # batch are tagged with the unit's lead cell key.
                _merge(result, keys[unit[0]])
                for index, payload in zip(unit, result["payloads"]):
                    _complete(index, payload)

            if pending and config.jobs <= 1:
                for unit in units:
                    if len(unit) == 1:
                        index = unit[0]
                        _complete(
                            index,
                            execute_cell(
                                grid.cells[index],
                                span_attrs={
                                    "index": index, "cell_key": keys[index]
                                },
                            ),
                        )
                    else:
                        _complete_unit(
                            unit,
                            execute_multi_cell(
                                [grid.cells[index] for index in unit],
                                span_attrs={"indices": list(unit)},
                            ),
                        )
            elif pending:
                workers = min(int(config.jobs), len(units))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {}
                    for unit in units:
                        if len(unit) == 1:
                            future = pool.submit(
                                execute_cell, grid.cells[unit[0]], tracing,
                                {"index": unit[0]},
                            )
                        else:
                            future = pool.submit(
                                execute_multi_cell,
                                [grid.cells[index] for index in unit],
                                tracing,
                                {"indices": list(unit)},
                            )
                        futures[future] = unit
                    remaining = set(futures)
                    while remaining:
                        done, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            unit = futures[future]
                            if len(unit) == 1:
                                _complete(unit[0], future.result())
                            else:
                                _complete_unit(unit, future.result())

            values = [record["value"] for record in records]  # type: ignore[index]
            with recorder.span("assemble", experiment=grid.experiment):
                value = grid.assemble(values)

            registry = _run_metrics(
                grid, records, cache, executed=len(pending)  # type: ignore[arg-type]
            )
            recorder.metrics(registry)
            run_span.set_attr("executed", len(pending))
            run_span.set_attr(
                "cache_hits", sum(1 for r in records if r and r["cache_hit"])
            )
        metrics = registry.snapshot()

        trace_info = None
        if tracing:
            trace_info = {
                "events": recorder.emitted,
                "path": getattr(next(iter(recorder.sinks), None), "path", None),
            }

        manifest = build_manifest(
            experiment=grid.experiment,
            jobs=config.jobs,
            records=records,  # type: ignore[arg-type]
            cache_stats=cache.stats() if cache is not None else None,
            resume=config.resume,
            total_wall_seconds=run_span.duration,
            metrics=metrics,
            trace=trace_info,
        )
        if config.manifest_path:
            write_manifest(config.manifest_path, manifest)
    return RunOutcome(value=value, manifest=manifest, records=records)  # type: ignore[arg-type]
