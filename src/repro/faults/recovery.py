"""Reliable SCA transfers: CRC frames, NACKs, retransmission epochs.

The recovery protocol (head-node driven, scheduler-synthesized):

1. Every contributor wraps its words in CRC-16 frames
   (:func:`repro.faults.crc.pack_word`) and the gather runs normally —
   the frame is the bus payload, so protection costs a 16-bit sideband
   per word and *no* protocol round trips in the fault-free case.
2. The head node CRC-checks each arrival.  Failures become NACKs: the
   ``(node, word)`` provenance pairs the schedule already carries.
3. After a capped exponential backoff (idle bus cycles — the photonic
   clock keeps flying, so a later epoch just aliases onto a later edge),
   the scheduler synthesizes a *retransmission epoch*: an ordinary small
   SCA over exactly the NACKed words
   (:func:`repro.core.schedule.retransmission_order` →
   :func:`~repro.core.schedule.gather_schedule`).
4. Repeat until clean or ``RetryPolicy.max_retries`` is exhausted, at
   which point :class:`~repro.util.errors.RetryExhaustedError` carries
   the residual pairs (or, for campaigns, the partial result is returned
   with the residue listed).

Everything observable lands in :class:`repro.core.pscan.RetryStats`,
attached to the first epoch's :class:`~repro.core.pscan.ScaExecution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.pscan import Pscan, RetryStats, ScaExecution
from ..core.schedule import gather_schedule, retransmission_order
from ..util.errors import ConfigError, RetryExhaustedError, TransientFaultError
from .crc import CRC_BITS, pack_word, unpack_word

__all__ = ["RetryPolicy", "ReliableGather", "ReliableGatherResult"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff for retransmission epochs."""

    max_retries: int = 4
    backoff_cycles: int = 8
    backoff_factor: float = 2.0
    max_backoff_cycles: int = 256

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_cycles < 0 or self.max_backoff_cycles < 0:
            raise ConfigError("backoff cycle counts must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")

    def backoff_for(self, retry_index: int) -> int:
        """Idle bus cycles before retransmission ``retry_index`` (1-based):
        ``backoff_cycles * backoff_factor ** (retry_index - 1)``, capped at
        ``max_backoff_cycles``."""
        if retry_index < 1:
            raise ConfigError("retry_index is 1-based")
        raw = self.backoff_cycles * self.backoff_factor ** (retry_index - 1)
        return min(int(raw), self.max_backoff_cycles)


@dataclass
class ReliableGatherResult:
    """Outcome of a CRC-protected gather (possibly multi-epoch)."""

    #: First epoch's execution record; ``execution.retry`` is the stats.
    execution: ScaExecution
    stats: RetryStats
    #: Recovered word values by provenance ``(node, word_index)``.
    values: dict[tuple[int, int], Any] = field(default_factory=dict)
    #: The original burst order (cycle -> provenance).
    order: list[tuple[int, int]] = field(default_factory=list)
    #: Provenance pairs still failing when retries ran out (empty on
    #: success; only populated with ``raise_on_exhaust=False``).
    residual: list[tuple[int, int]] = field(default_factory=list)

    @property
    def stream(self) -> list[Any]:
        """Recovered words in burst order (``None`` for residual losses)."""
        return [self.values.get(pair) for pair in self.order]

    @property
    def complete(self) -> bool:
        """True when every scheduled word was recovered (CRC-clean)."""
        return not self.residual

    def correct_fraction(self, data: dict[int, list[Any]]) -> float:
        """Fraction of scheduled words delivered *and equal to* the source."""
        if not self.order:
            return 1.0
        good = sum(
            1
            for node, word in self.order
            if (node, word) in self.values
            and self.values[(node, word)] == data[node][word]
        )
        return good / len(self.order)


class ReliableGather:
    """CRC-protected, retransmitting SCA gather on top of a :class:`Pscan`."""

    def __init__(
        self,
        pscan: Pscan,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.pscan = pscan
        self.policy = policy or RetryPolicy()
        # Optional observability hook (duck-typed ObsSession).
        self._obs: Any = None

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        ``obs`` duck-types :class:`repro.obs.session.ObsSession`: the
        recovery loop calls ``fault_epoch_begin`` / ``fault_epoch_end``
        around each (re)transmission epoch, ``fault_nack`` per CRC
        failure and ``fault_backoff`` for each idle backoff window.
        Timestamps are absolute simulator ns.  Pass ``None`` to detach.
        """
        self._obs = obs

    def _epoch_cycles(self, words: int) -> tuple[int, int]:
        """(payload, crc-sideband) bus cycles of an epoch of ``words``."""
        bits_per_cycle = self.pscan.wdm.bits_per_cycle
        crc = -(-words * CRC_BITS // bits_per_cycle)  # ceil
        return words, crc

    def gather(
        self,
        order: list[tuple[int, int]],
        data: dict[int, list[Any]],
        receiver_mm: float,
        raise_on_exhaust: bool = True,
    ) -> ReliableGatherResult:
        """Run the protected gather until clean or retries are exhausted.

        ``order`` / ``data`` are exactly what an unprotected
        :func:`~repro.core.schedule.gather_schedule` +
        :meth:`~repro.core.pscan.Pscan.execute_gather` would take; word
        framing is internal.  Raises
        :class:`~repro.util.errors.RetryExhaustedError` (with the
        residual pairs attached) when ``raise_on_exhaust`` and the cap is
        hit; otherwise returns the partial result.
        """
        frames: dict[int, list[bytes]] = {
            node: [pack_word(v) for v in words] for node, words in data.items()
        }
        stats = RetryStats(baseline_cycles=len(order))
        values: dict[tuple[int, int], Any] = {}
        first_execution: ScaExecution | None = None
        current_order = list(order)
        failed: list[tuple[int, int]] = []

        for epoch_index in range(self.policy.max_retries + 1):
            schedule = gather_schedule(current_order)
            if self._obs is not None:
                self._obs.fault_epoch_begin(
                    self.pscan.sim.now, epoch_index, len(current_order)
                )
            execution = self.pscan.execute_gather(schedule, frames, receiver_mm)
            if first_execution is None:
                first_execution = execution
            payload, crc = self._epoch_cycles(len(current_order))
            stats.total_cycles += payload + crc
            stats.crc_overhead_cycles += crc

            failed = []
            for arrival in execution.arrivals:
                pair = (arrival.source_node, arrival.word_index)
                try:
                    values[pair] = unpack_word(arrival.value)
                except TransientFaultError:
                    failed.append(pair)  # head node NACKs this word
                    if self._obs is not None:
                        self._obs.fault_nack(
                            arrival.time_ns, arrival.source_node,
                            arrival.word_index,
                        )
            stats.crc_nacks += len(failed)
            if self._obs is not None:
                self._obs.fault_epoch_end(
                    self.pscan.sim.now, epoch_index, len(failed)
                )
            if not failed:
                break

            if epoch_index == self.policy.max_retries:
                stats.undetected_errors = self._count_undetected(values, data)
                if first_execution is not None:
                    first_execution.retry = stats
                if raise_on_exhaust:
                    raise RetryExhaustedError(
                        f"{len(failed)} word(s) still failing CRC after "
                        f"{self.policy.max_retries} retransmission epoch(s)",
                        residual=sorted(failed),
                    )
                break

            # Epoch-level capped exponential backoff: idle bus cycles
            # before the retransmission SCA re-drives the NACKed words.
            backoff = self.policy.backoff_for(epoch_index + 1)
            stats.backoff_cycles += backoff
            if backoff:
                delay_ns = backoff * self.pscan.clock.period_ns
                if self._obs is not None:
                    self._obs.fault_backoff(
                        self.pscan.sim.now, backoff, delay_ns
                    )
                self.pscan.sim.run(self.pscan.sim.timeout(delay_ns))
            current_order = retransmission_order(order, set(failed))
            stats.retransmitted_words += len(current_order)
            stats.epochs += 1

        stats.undetected_errors = self._count_undetected(values, data)
        assert first_execution is not None
        first_execution.retry = stats
        return ReliableGatherResult(
            execution=first_execution,
            stats=stats,
            values=values,
            order=list(order),
            residual=sorted(failed),
        )

    @staticmethod
    def _count_undetected(
        values: dict[tuple[int, int], Any], data: dict[int, list[Any]]
    ) -> int:
        """Delivered-but-wrong words (CRC collisions), via the oracle.

        The receiver cannot know these; the *simulator* can, because it
        holds the ground truth.  Campaigns report them as the honest
        residual risk of a 16-bit checksum.
        """
        return sum(
            1
            for (node, word), v in values.items()
            if not _values_equal(v, data[node][word])
        )


def _values_equal(a: Any, b: Any) -> bool:
    """Equality that tolerates NaN-free numerics and arbitrary payloads.

    Only the two comparison failures the payload vocabulary can actually
    produce are treated as "not equal": ``TypeError`` (no ``==`` between
    the types) and ``ValueError`` (ambiguous truth value, e.g. an array
    compare).  Anything else — ``KeyboardInterrupt``, ``RecursionError``,
    a broken ``__eq__`` — is a programming error and propagates with the
    original traceback instead of being silently counted as a mismatch.
    """
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False
