"""Benchmark layer: generator dataset specs, scaling sweeps, the gate.

Three pieces, one contract:

- :mod:`~repro.bench.specs` - seeded parametric spatial-matrix
  generators (``(spec, params, seed) -> data``, bit-identical in any
  process, content-hashed through :mod:`repro.hashing`);
- :mod:`~repro.bench.sweep` - the scaling-sweep CLI engine: a rows x
  rank x missing x kernel_path grid of volatile runner cells, emitted
  as one canonical schema-versioned JSON;
- :mod:`~repro.bench.gate` - the regression gate CI runs: schema
  validation of the committed ``results/`` baselines (``BENCH_oocore``,
  ``BENCH_sweep``, ``SLO_serving``), accepted-metric re-derivation from
  raw values, and a fresh-sweep-vs-baseline diff that fails on
  slowdown, accuracy drift, or a changed generator hash.

:mod:`~repro.bench.io` owns the shared ``BENCH_*.json`` envelope
writer every committed baseline routes through.  Engine-facing imports
stay lazy inside functions so engine-side writers can import it
without a cycle.  End-to-end and per-layer speed is measured by
``perfbench/`` (``BENCHMARK.json``), outside the package.
"""

from .gate import GateReport, compare_sweeps, run_gate
from .io import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_RESULTS_DIR,
    bench_path,
    read_bench_json,
    write_bench_json,
)
from .schema import (
    ACCEPTED_METRICS,
    BENCH_SCHEMAS,
    bench_name_from_path,
    check_metrics,
    validate_bench_payload,
)
from .specs import (
    BenchDataset,
    GeneratorSpec,
    ParamField,
    GENERATOR_SPECS,
    available_specs,
    generate,
    get_spec,
)
from .sweep import (
    DEFAULT_GRID,
    SMOKE_GRID,
    SWEEP_SCHEMA_VERSION,
    build_sweep_cells,
    cell_key,
    record_sweep,
    run_sweep,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_RESULTS_DIR",
    "bench_path",
    "write_bench_json",
    "read_bench_json",
    "BENCH_SCHEMAS",
    "ACCEPTED_METRICS",
    "bench_name_from_path",
    "validate_bench_payload",
    "check_metrics",
    "ParamField",
    "GeneratorSpec",
    "BenchDataset",
    "GENERATOR_SPECS",
    "available_specs",
    "get_spec",
    "generate",
    "SWEEP_SCHEMA_VERSION",
    "DEFAULT_GRID",
    "SMOKE_GRID",
    "cell_key",
    "build_sweep_cells",
    "run_sweep",
    "record_sweep",
    "GateReport",
    "compare_sweeps",
    "run_gate",
]
