"""Correctness subsystem: static invariant lint + differential fuzzing.

Three parts (see ``docs/correctness.md``):

* :mod:`repro.check.analyzer` — a **static invariant analyzer** that
  lints CP programs, global schedules and mesh configurations *before*
  simulation: slot-collision detection on the waveguide timeline (the
  Fig. 4 invariant), word conservation per gather, credit-balance and
  buffer-bound checks.  Violations become structured
  :class:`~repro.check.analyzer.Diagnostic` records with source spans
  rather than a first-failure exception.
* :mod:`repro.check.fuzz` — a **seeded differential fuzzer** that
  generates randomized workloads/configs and cross-executes every
  equivalent-engine pair in the repo (reference ↔ fast mesh, event
  kernel ↔ its documented order, measured mesh ↔ analytic Table III
  model within documented bands, obs trace oracles, CRC frame codec,
  reliable-gather determinism), failing on any divergence.
* :mod:`repro.check.shrink` — a **config shrinker** that minimizes a
  failing fuzz case and emits a committed regression seed under
  ``tests/corpus/``, auto-replayed by ``tests/test_check_corpus.py``.

CLI: ``python -m repro check lint`` / ``python -m repro check fuzz``.
"""

from .analyzer import (
    Diagnostic,
    LintReport,
    ScheduleSpec,
    SourceSpan,
    analyze_machine_spec,
    analyze_mesh_config,
    analyze_schedule,
    analyze_workload,
    lint_all,
    lint_target,
    lint_targets,
)
from .fuzz import FuzzCase, Divergence, FuzzResult, generate_case, run_case, run_fuzz
from .shrink import shrink_case, write_seed, load_seed

__all__ = [
    "Diagnostic",
    "LintReport",
    "ScheduleSpec",
    "SourceSpan",
    "analyze_machine_spec",
    "analyze_mesh_config",
    "analyze_schedule",
    "analyze_workload",
    "lint_all",
    "lint_target",
    "lint_targets",
    "FuzzCase",
    "Divergence",
    "FuzzResult",
    "generate_case",
    "run_case",
    "run_fuzz",
    "shrink_case",
    "write_seed",
    "load_seed",
]
