"""The P-sync machine (paper Section IV).

Assembles the pieces into the architecture of Fig. 6: processors on a
shared photonic waveguide (serpentine over the chip), a photonic clock
generator at the head, a head node streaming from DRAM onto the SCA⁻¹
bus, and a memory interface at the tail receiving SCA bursts.

The machine exposes the two primitive collective operations:

* :meth:`PsyncMachine.scatter` — SCA⁻¹: one burst from the head node,
  sliced in flight across the processors.
* :meth:`PsyncMachine.gather` — SCA: processor contributions coalesced in
  flight into one burst at the memory interface.

Both run on the event simulator and return full execution records, so the
same machine object backs unit tests, the Fig.-4 waveform example, and the
transpose experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..memory.controller import PscanMemoryController
from ..photonics.devices import PhotonicLink
from ..photonics.layout import SerpentineLayout
from ..photonics.waveguide import Waveguide
from ..photonics.wdm import WdmPlan, paper_pscan_plan
from ..sim.engine import Simulator
from ..util import constants
from ..util.errors import ConfigError
from .headnode import HeadNode
from .pscan import Pscan, ScaExecution
from .schedule import (
    GlobalSchedule,
    gather_schedule,
    round_robin_order,
    scatter_schedule,
    transpose_order,
)

__all__ = ["PsyncConfig", "PsyncMachine"]


@dataclass(frozen=True, slots=True)
class PsyncConfig:
    """Shape of a P-sync machine.

    ``word_granular_clock``: when True, one schedule cycle spans the bus
    cycles a full ``word_bits`` word needs on the WDM plan (e.g. a 64-bit
    sample on 32 wavelengths takes 2 x 0.1 ns), so wall-clock durations
    reflect the paper's arithmetic exactly.  The default (False) keeps
    the legacy one-word-per-bus-cycle timing, which preserves all
    relative results and matches Table III's 64-bit-bus cycle counting.

    ``engine``: ``"event"`` (default) runs scatter/gather on the
    discrete-event kernel; ``"compiled"`` lowers each schedule to
    closed-form vectorized timeline evaluation with bit-identical
    execution records (see :mod:`repro.core.compiled`).  Unsupported
    configurations (fault hooks) raise
    :class:`~repro.util.errors.EngineUnsupportedError` at execute time.

    ``layout``: serpentine variant.  ``"auto"`` (default, the seed
    behaviour) snakes square processor counts over the chip and falls
    back to one row otherwise; ``"square"`` demands a perfect square
    (raising :class:`ConfigError` otherwise); ``"single-row"`` forces
    the one-row layout — the longest-bus worst case — at any count.
    """

    processors: int = 16
    chip_edge_mm: float = constants.CHIP_EDGE_MM
    response_ns: float = 0.01
    word_bits: int = constants.FFT_SAMPLE_BITS
    word_granular_clock: bool = False
    engine: str = "event"
    layout: str = "auto"

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ConfigError(f"need >= 1 processor, got {self.processors}")
        if self.word_bits < 1:
            raise ConfigError(f"word_bits must be >= 1, got {self.word_bits}")
        if self.engine not in ("event", "compiled"):
            raise ConfigError(
                f"unknown core engine {self.engine!r}; "
                "choose 'event' or 'compiled'"
            )
        if self.layout not in ("auto", "square", "single-row"):
            raise ConfigError(
                f"unknown layout {self.layout!r}; "
                "choose 'auto', 'square' or 'single-row'"
            )
        if self.layout == "square":
            side = int(self.processors ** 0.5)
            while side * side < self.processors:
                side += 1
            if side * side != self.processors:
                raise ConfigError(
                    f"layout 'square' needs a perfect-square processor "
                    f"count, got {self.processors}"
                )


class PsyncMachine:
    """A P-sync CMP: processors + head node + memory on one PSCAN.

    The waveguide runs from the head node (position 0) through every
    processor (serpentine order) to the memory interface at the tail.
    Word-granular scheduling: one schedule cycle moves one ``word_bits``
    word (the WDM plan's per-cycle bit count is scaled to match, keeping
    the paper's "32 wavelengths carry a 64-bit sample in 2 bus cycles"
    arithmetic inside the wdm plan).
    """

    def __init__(
        self,
        config: PsyncConfig | None = None,
        wdm: WdmPlan | None = None,
        link: PhotonicLink | None = None,
    ) -> None:
        self.config = config or PsyncConfig()
        self.wdm = wdm or paper_pscan_plan()
        side = 1
        while side * side < self.config.processors:
            side += 1
        if self.config.layout == "single-row" or side * side != self.config.processors:
            # Non-square counts (and the explicit single-row variant)
            # get a one-row layout.
            self.layout = SerpentineLayout(
                rows=1,
                cols=self.config.processors,
                chip_edge_mm=self.config.chip_edge_mm,
            )
        else:
            self.layout = SerpentineLayout(
                rows=side, cols=side, chip_edge_mm=self.config.chip_edge_mm
            )

        margin = 1.0  # mm of waveguide before the first / after the last tile
        tile_positions = [p + margin for p in self.layout.positions_mm()]
        self.head_position_mm = 0.0
        self.memory_position_mm = tile_positions[-1] + margin
        self.waveguide = Waveguide(length_mm=self.memory_position_mm)

        #: Processor ids are 0..P-1 in serpentine (waveguide) order.
        self.positions_mm: dict[int, float] = {
            pid: pos for pid, pos in enumerate(tile_positions)
        }

        self.sim = Simulator()
        #: Bus cycles one word occupies on the WDM plan.
        self.cycles_per_word = self.wdm.cycles_for_words(1, self.config.word_bits)
        if self.config.word_granular_clock and self.cycles_per_word > 1:
            # Stretch the schedule clock so one schedule cycle carries a
            # whole word: effective per-word rate on the same plan.
            effective = WdmPlan(
                data_wavelengths=self.wdm.data_wavelengths,
                rate_per_wavelength_gbps=(
                    self.wdm.rate_per_wavelength_gbps / self.cycles_per_word
                ),
                clock_wavelengths=self.wdm.clock_wavelengths,
                bits_per_symbol=self.wdm.bits_per_symbol,
            )
        else:
            effective = self.wdm
        self.pscan = Pscan(
            sim=self.sim,
            waveguide=self.waveguide,
            positions_mm=self.positions_mm,
            wdm=effective,
            response_ns=self.config.response_ns,
            link=link,
            engine=self.config.engine,
        )
        self.head = HeadNode(wdm=self.wdm, word_bits=self.config.word_bits)
        self.memory = PscanMemoryController()
        #: Local data memory of each processor (word lists).
        self.local_memory: dict[int, list[Any]] = {
            pid: [] for pid in range(self.config.processors)
        }

    # -- convenience schedule builders ---------------------------------------

    def model1_scatter_schedule(self, words_per_processor: int) -> GlobalSchedule:
        """Model I delivery: all of processor 0's data, then processor 1's, ..."""
        order = round_robin_order(
            self.config.processors, words_per_processor, block=words_per_processor
        )
        return scatter_schedule(order)

    def model2_scatter_schedule(
        self, words_per_processor: int, k: int
    ) -> GlobalSchedule:
        """Model II delivery: ``k`` round-robin blocks per processor."""
        if k < 1 or words_per_processor % k != 0:
            raise ConfigError(
                f"k={k} must divide words_per_processor={words_per_processor}"
            )
        order = round_robin_order(
            self.config.processors, words_per_processor, block=words_per_processor // k
        )
        return scatter_schedule(order)

    def transpose_gather_schedule(self, row_length: int) -> GlobalSchedule:
        """SCA transpose: processor r holds row r; memory wants column-major."""
        return gather_schedule(
            transpose_order(self.config.processors, row_length)
        )

    # -- collective operations -------------------------------------------

    def scatter(
        self, schedule: GlobalSchedule, burst: list[Any]
    ) -> ScaExecution:
        """Execute an SCA⁻¹ from the head node; fills processor memories."""
        execution = self.pscan.execute_scatter(
            schedule, burst, source_mm=self.head_position_mm
        )
        for pid, words in execution.delivered.items():
            self.local_memory[pid].extend(words)
        return execution

    def scatter_from_dram(
        self,
        schedule: GlobalSchedule,
        base_address: int = 0,
        require_streaming: bool = False,
    ) -> tuple[ScaExecution, Any]:
        """Stream the burst out of head-node DRAM, then scatter it.

        Returns ``(execution, stream_plan)`` where the plan reports
        DRAM-side stalls (zero when the memory sustains the bus rate).
        With ``require_streaming=True`` a plan with stalls raises
        :class:`ConfigError` — the just-in-time guarantee of Section IV
        demands the head node never starve the waveguide.
        """
        plan, burst = self.head.fetch_burst(base_address, schedule.total_cycles)
        if require_streaming and plan.stall_cycles > 0:
            raise ConfigError(
                f"head-node DRAM stalls the bus for {plan.stall_cycles} "
                f"cycles (efficiency {plan.streaming_efficiency:.1%}); add "
                "banks or lower the bus rate"
            )
        execution = self.scatter(schedule, burst)
        return execution, plan

    def gather(
        self, schedule: GlobalSchedule, data: dict[int, list[Any]] | None = None
    ) -> ScaExecution:
        """Execute an SCA into the memory interface.

        ``data`` defaults to the processors' local memories.
        """
        if data is None:
            data = self.local_memory
        return self.pscan.execute_gather(
            schedule, data, receiver_mm=self.memory_position_mm
        )

    def gather_to_dram(
        self,
        schedule: GlobalSchedule,
        base_address: int = 0,
        data: dict[int, list[Any]] | None = None,
    ) -> tuple[ScaExecution, int]:
        """SCA into memory and store the stream; returns (execution, dram_cycles)."""
        execution = self.gather(schedule, data)
        dram_cycles = self.memory.store_stream(base_address, execution.stream)
        return execution, dram_cycles

    # -- reporting ------------------------------------------------------------

    @property
    def waveguide_flight_ns(self) -> float:
        """Head-to-memory flight time."""
        return self.waveguide.end_to_end_delay_ns()

    def describe(self) -> dict[str, Any]:
        """Human-readable machine summary (used by examples)."""
        return {
            "processors": self.config.processors,
            "layout": f"{self.layout.rows}x{self.layout.cols} serpentine",
            "waveguide_length_mm": round(self.waveguide.length_mm, 3),
            "end_to_end_flight_ns": round(self.waveguide_flight_ns, 4),
            "bus_cycle_ns": self.wdm.bus_cycle_ns,
            "aggregate_bandwidth_gbps": self.wdm.aggregate_bandwidth_gbps,
            "bits_in_flight": round(
                self.waveguide.total_bits_in_flight(
                    self.wdm.aggregate_bandwidth_gbps
                ),
                1,
            ),
        }
