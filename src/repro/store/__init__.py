"""Content-addressed result store for resumable parameter sweeps.

Three pieces (see ``docs/sweeps.md``):

* :mod:`repro.store.keys` — canonical JSON serialization of grid-point
  payloads and the content-addressed key derivation
  ``sha256(worker, code fingerprint, canonical point)``;
* :mod:`repro.store.result_store` — the on-disk object store with
  atomic per-point writes and age/reference-based garbage collection;
* :mod:`repro.store.manifest` — per-sweep manifests (grid-ordered key
  lists under a content-derived run id) and append-only completion
  journals, which is what ``python -m repro sweep status`` reads.

The consumer is :func:`repro.perf.sweep.run_sweep`'s
``checkpoint=``/``resume=`` mode; campaigns and figure sweeps never
talk to this package directly.
"""

from .keys import (
    canonical_json,
    canonicalize,
    code_fingerprint,
    point_key,
    worker_name,
)
from .manifest import JournalEntry, SweepManifest, append_journal, read_journal
from .result_store import GcReport, ResultStore

__all__ = [
    "canonicalize",
    "canonical_json",
    "code_fingerprint",
    "point_key",
    "worker_name",
    "ResultStore",
    "GcReport",
    "SweepManifest",
    "JournalEntry",
    "append_journal",
    "read_journal",
]
