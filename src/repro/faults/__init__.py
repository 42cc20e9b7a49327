"""Fault injection, recovery, and resilience campaigns.

The paper presents a fault-free machine; this package asks what the
P-sync architecture does when the physics misbehaves, in three layers:

``repro.faults.models``
    Deterministic seeded injectors: transient photodetector bit errors
    (BER from optical margin), thermal ring-drift episodes, stuck mesh
    links/routers, FIFO write drops.  Installable on ``Pscan``,
    ``MeshNetwork``/``VcMeshNetwork`` and ``DualClockFifo`` without
    perturbing fault-free timing (the hooks default to ``None``).
``repro.faults.crc`` / ``repro.faults.recovery``
    The recovery protocol: CRC-16 protected SCA frames, head-node
    NACKs, scheduler-synthesized retransmission epochs with capped
    exponential backoff; stats surfaced in ``ScaExecution.retry``.
``repro.faults.report`` / ``repro.faults.campaign``
    Structured failure reports (hangs become data, not exceptions
    without context) and seeded Monte-Carlo campaigns over the 2D-FFT
    workload: delivered-correct %, retransmission overhead in cycles
    and energy, degradation curves vs fault rate.  CLI:
    ``python -m repro faults``.
``repro.faults.lanes`` / ``repro.faults.batched``
    The SIMD-lockstep campaign engine: a vectorized CPython-compatible
    MT19937 replays every lane's injector draw stream at once, lanes
    where no fault fires share one fault-free timeline, divergent lanes
    fall back to scalar replay — batched results are byte-identical to
    per-seed sequential (``run_campaign(batch=N)``,
    ``python -m repro faults --batch N``).

Dependency direction: this package builds on ``repro.core``,
``repro.mesh``, ``repro.sim`` and ``repro.photonics`` — never the
reverse.  Core components expose only neutral hooks.
"""

from .batched import (
    FifoBatchSpec,
    LaneBatchResult,
    run_fifo_batch,
    run_fifo_trial,
    run_gather_campaign_batch,
    run_mesh_campaign_batch,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    GatherCampaignRow,
    MeshCampaignRow,
    run_campaign,
)
from .lanes import LaneRng, compact_indices, merge_masks, scatter_lanes
from .crc import check_frame, flip_bits, frame_bits, pack_word, unpack_word
from .models import DriftEpisode, FifoDropFault, MeshFaultPlan, PscanFaultModel
from .recovery import ReliableGather, ReliableGatherResult, RetryPolicy
from .report import FaultReport, run_with_watchdog

__all__ = [
    "pack_word",
    "unpack_word",
    "check_frame",
    "flip_bits",
    "frame_bits",
    "DriftEpisode",
    "PscanFaultModel",
    "MeshFaultPlan",
    "FifoDropFault",
    "RetryPolicy",
    "ReliableGather",
    "ReliableGatherResult",
    "FaultReport",
    "run_with_watchdog",
    "CampaignConfig",
    "CampaignReport",
    "GatherCampaignRow",
    "MeshCampaignRow",
    "run_campaign",
    "LaneRng",
    "merge_masks",
    "compact_indices",
    "scatter_lanes",
    "LaneBatchResult",
    "FifoBatchSpec",
    "run_gather_campaign_batch",
    "run_mesh_campaign_batch",
    "run_fifo_trial",
    "run_fifo_batch",
]
