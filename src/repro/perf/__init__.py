"""Performance layer: parallel sweeps, perf benches, regression gates.

Three pieces (see ``docs/performance.md``):

* :mod:`repro.perf.sweep` — the resumable sweep runtime: a
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out for seeded
  parameter grids with grid-order (serial-identical) result merging,
  loud per-point failure semantics (:class:`~repro.util.errors.SweepPointError`,
  explicit ``BrokenProcessPool`` recovery), and ``checkpoint=``/
  ``resume=`` persistence through the :mod:`repro.store`
  content-addressed result cache (see ``docs/sweeps.md``);
* :mod:`repro.perf.harness` — the benchmarks behind ``BENCH_mesh.json``
  and ``BENCH_engine.json`` (fast and compiled vs reference mesh
  engine, batched vs process-pool fault campaign), each asserting
  result equality before reporting a speedup;
* :mod:`repro.perf.regression` — compares a fresh bench run against the
  checked-in baselines so CI can fail on real slowdowns.
"""

from .harness import (
    SCHEMA_VERSION,
    bench_mesh_transpose,
    run_engine_benches,
    run_mesh_benches,
    write_bench_file,
)
from .regression import (
    Regression,
    ZeroBaselineWarning,
    check_files,
    compare_payloads,
)
from .sweep import (
    PointExecutor,
    PoolHealth,
    default_workers,
    grid_points,
    run_sweep,
)

__all__ = [
    "SCHEMA_VERSION",
    "bench_mesh_transpose",
    "run_engine_benches",
    "run_mesh_benches",
    "write_bench_file",
    "Regression",
    "ZeroBaselineWarning",
    "check_files",
    "compare_payloads",
    "default_workers",
    "grid_points",
    "run_sweep",
    "PointExecutor",
    "PoolHealth",
]
