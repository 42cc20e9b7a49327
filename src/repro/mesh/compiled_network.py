"""Schedule-compiled analytic mesh engine (``MeshConfig(engine="compiled")``).

The electronic-mesh side of the paper's Table III experiment is a
*single-sink coalesced gather*: every processor sends its rows to one
memory interface in column 0.  Under that traffic pattern the reference
simulator's cycle-accurate run collapses to closed form, because the
memory interface's reorder pipeline is the system bottleneck from the
very first ejection: the sink serializes at ``s = 1 + (nf - 1) * r``
cycles per packet (``nf`` = flits per packet, ``r`` =
``memory_reorder_cycles``), the network keeps the sink's input buffer
backlogged throughout, and west-first minimal-adaptive routing makes
every packet's path — and therefore every per-router flit count —
deterministic.

This engine evaluates those closed forms directly instead of simulating
flit movement, producing the *same* :class:`~repro.mesh.network.MeshStats`
the reference engine computes (cycles, packet latencies in delivery
order, per-node flit heat map, memory busy cycles, hop counts) at any
scale.  At the paper's 1024-processor configuration (cols=32) it
answers in about a tenth of a second; the fast flit-level engine takes
about 23 s for the same run and agrees on every ``MeshStats`` field.
Injection is packet-level: a packet is admitted and recorded whole, and
no flit objects are built.

Applicability predicate (checked, never assumed)
------------------------------------------------
Everything outside the empirically pinned domain raises
:class:`~repro.util.errors.EngineUnsupportedError` — the compiled engine
refuses loudly rather than silently degrading (callers that want a
fallback catch the error and re-run with ``engine="reference"`` or
``"fast"``).  The domain, validated flit-for-flit against the reference
engine across mesh sizes 2x2..16x16, 1-8 packets/node, ``r`` in {2, 4},
2-5 flits/packet and several column-0 sinks:

* exactly one destination for all packets, registered as a memory
  interface, in mesh column 0 (``sink.x == 0``) — west-first routing
  then fixes every path (west along the row, one vertical candidate);
* ``memory_reorder_cycles >= 2`` — at ``r == 1`` the sink can briefly
  starve near the end of a run and the latency spacing stretches, so
  the run is network-bound, not sink-bound;
* default microarchitecture: ``buffer_flits == 2``,
  ``header_route_cycles == 1``,
  :class:`~repro.mesh.routing.MinimalAdaptiveRouting`;
* uniform traffic: every node sources the same number of packets
  (>= 1, so the sink's own first packet pins the first ejection to
  cycle 2), all packets the same ``flit_count >= 2``, all created and
  injected at cycle 0;
* fault-free: ``fail_link`` / ``fail_router`` / ``run_resilient`` /
  ``step`` are refused outright.

One documented divergence: the per-flit ``sunk`` delivery log is left
empty and no per-packet ``mesh_deliver`` obs events are synthesized.
Which flit — and therefore which packet — ejects at each sink cycle
depends on round-robin arbitration noise at the sink's input buffers
that the closed form does not model; the tail-ejection *instants*
(``packet_latencies``, in delivery order) and every other ``MeshStats``
field are exact, and the differential suites compare exactly those.
"""

from __future__ import annotations

from typing import Any

from ..util.errors import EngineUnsupportedError, NetworkError
from .flit import Packet
from .network import MeshNetwork, MeshStats
from .routing import MinimalAdaptiveRouting
from .topology import MeshTopology

__all__ = ["CompiledMeshNetwork"]


class CompiledMeshNetwork(MeshNetwork):
    """Closed-form mesh engine for single-sink coalesced gathers.

    Construction, :meth:`add_memory_interface` and :meth:`inject`'s
    admission step are inherited (so observability's ``mesh_inject``
    events and all bookkeeping match the other engines).  Injection is
    packet-level: the packet is recorded whole and never expanded into
    flits.  :meth:`run` replaces the cycle loop with the analytic
    evaluation.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Injection-order record of whole packets (the closed forms are
        #: per-packet, so no flit train is ever built).
        self._packets: list[Packet] = []

    # -- traffic ---------------------------------------------------------

    def _queue_flits(self, packet: Packet, inject_cycle: int) -> None:
        """Record the packet whole; the closed forms need no flit train."""
        self._packets.append(packet)

    # -- refused capabilities -------------------------------------------

    def fail_link(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        raise EngineUnsupportedError(
            "compiled",
            "fault_injection",
            "closed-form evaluation assumes a fault-free mesh; use "
            "engine='reference' or 'fast' for fail_link/fail_router runs",
        )

    def fail_router(self, node: tuple[int, int]) -> None:
        raise EngineUnsupportedError(
            "compiled",
            "fault_injection",
            "closed-form evaluation assumes a fault-free mesh; use "
            "engine='reference' or 'fast' for fail_link/fail_router runs",
        )

    def run_resilient(self, max_cycles: int | None = None):
        raise EngineUnsupportedError(
            "compiled",
            "run_resilient",
            "graceful degradation is defined in terms of flit-level "
            "recovery; use engine='reference' or 'fast'",
        )

    def step(self) -> int:
        raise EngineUnsupportedError(
            "compiled",
            "step",
            "the compiled engine evaluates whole runs in closed form; "
            "single-cycle stepping needs engine='reference' or 'fast'",
        )

    # -- applicability predicate ----------------------------------------

    def _require_supported(
        self,
    ) -> tuple[tuple[int, int], int, dict[tuple[int, int], int]]:
        """Validate the closed-form domain.

        Returns ``(sink, flit_count, per_node)``, ``per_node`` mapping
        every mesh node to the number of packets it sources.
        """

        def refuse(feature: str, reason: str) -> EngineUnsupportedError:
            return EngineUnsupportedError("compiled", feature, reason)

        cfg = self.config
        if type(self.topology) is not MeshTopology:
            raise refuse(
                "topology",
                f"{type(self.topology).__name__}: the closed forms model "
                "west-first paths on a plain rectangular mesh; torus and "
                "other fabrics need engine='reference' or 'fast'",
            )
        if cfg.memory_reorder_cycles < 2:
            raise refuse(
                "reorder_cycles",
                f"memory_reorder_cycles={cfg.memory_reorder_cycles}: at "
                "r=1 the run is network-bound (the sink can starve) and "
                "the sink-serialized closed form does not hold",
            )
        if cfg.buffer_flits != 2 or cfg.header_route_cycles != 1:
            raise refuse(
                "microarchitecture",
                f"buffer_flits={cfg.buffer_flits}, "
                f"header_route_cycles={cfg.header_route_cycles}: the "
                "closed form is pinned against the default 2-flit "
                "buffers and 1-cycle header route",
            )
        if type(self.routing) is not MinimalAdaptiveRouting:
            raise refuse(
                "routing_policy",
                f"{type(self.routing).__name__}: paths are only "
                "deterministic under the default west-first "
                "MinimalAdaptiveRouting",
            )
        if self._faults_enabled or self._dead:
            raise refuse(
                "fault_injection",
                "faults were armed before run()",
            )
        if self.cycle != 0:
            raise refuse(
                "resumed_run",
                "the closed form covers one whole run from cycle 0",
            )
        # One pass over the packets gathers everything the predicate and
        # the closed forms read.
        sinks: set[tuple[int, int]] = set()
        counts: set[int] = set()
        created: set[int] = set()
        per_node: dict[tuple[int, int], int] = {}
        for p in self._packets:
            sinks.add(p.dest)
            counts.add(p.flit_count)
            created.add(p.created_cycle)
            src = p.source
            per_node[src] = per_node.get(src, 0) + 1
        if len(sinks) != 1:
            raise refuse(
                "multiple_sinks",
                f"{len(sinks)} distinct destinations: the closed form "
                "models one serializing memory-interface sink",
            )
        (sink,) = sinks
        if sink not in self._memory_nodes:
            raise refuse(
                "processor_sink",
                f"destination {sink} is not a registered memory "
                "interface (add_memory_interface)",
            )
        if sink[0] != 0:
            raise refuse(
                "sink_column",
                f"sink {sink} is not in mesh column 0; west-first paths "
                "are only source-independent when every source is east "
                "of (or on) the sink column",
            )
        if len(counts) != 1 or min(counts) < 2:
            raise refuse(
                "flit_shape",
                f"flit counts {sorted(counts)}: need a uniform "
                "flit_count >= 2 (header + at least one data flit)",
            )
        if created != {0}:
            raise refuse(
                "staggered_injection",
                "all packets must be created and injected at cycle 0",
            )
        if set(per_node) != set(self._nodes) or len(set(per_node.values())) != 1:
            raise refuse(
                "traffic_shape",
                "every mesh node must source the same number of packets "
                "(the coalesced-gather pattern the closed form is "
                "pinned against)",
            )
        return sink, counts.pop(), per_node

    # -- closed-form evaluation -----------------------------------------

    def run(self, max_cycles: int | None = None) -> MeshStats:
        """Evaluate the run analytically; identical ``MeshStats``.

        Raises :class:`~repro.util.errors.NetworkError` exactly when the
        reference engine would: ``max_cycles`` smaller than the finish
        cycle means traffic would still be in flight.
        """
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run")
        if not self._packets:
            # No traffic: the reference loop exits immediately.
            self.stats.cycles = self.cycle
            if self._obs is not None:
                self._obs.mesh_run_end(self.cycle, "run", self.stats)
            return self.stats
        sink, nf, per_node = self._require_supported()
        r = self.config.memory_reorder_cycles
        n = len(self._packets)

        # Sink-serialized service: the head flit (payload None) ejects in
        # 1 cycle, every other flit in r; the j-th packet's tail ejects at
        #   tail_j = 2 + j*s + 1 + (nf - 2)*r
        # with the first head pinned to cycle 2 by the sink's own
        # injection pipeline (inject -> local buffer -> 1-cycle route).
        s = 1 + (nf - 1) * r
        tail_const = 1 + (nf - 2) * r
        tails = [2 + j * s + tail_const for j in range(n)]
        finish = tails[-1] + 1
        if max_cycles is not None and max_cycles < finish:
            raise NetworkError(
                f"traffic undelivered after max_cycles={max_cycles}"
            )

        stats = self.stats
        stats.cycles = finish
        stats.packets_delivered = n
        stats.flits_delivered = n * (nf - 1)
        stats.packet_latencies = tails  # injected at cycle 0, so latency == tail
        stats.memory_busy_cycles[sink] = n * s

        # Deterministic west-first paths: west along the source row to
        # column 0, then vertically along column 0 to the sink.  Each
        # traversed router (including the ejecting sink; injection does
        # not count) forwards all nf flits of the packet.  Evaluated from
        # the per-node packet counts, so the cost is O(width * height),
        # not O(packets * path_length).
        sx, sy = sink
        stats.flit_hops = nf * sum(
            c * (abs(x - sx) + abs(y - sy)) for (x, y), c in per_node.items()
        )
        width, height = self.topology.width, self.topology.height
        ftn: dict[tuple[int, int], int] = {}
        for y in range(height):
            # Column-0 router of the row: every row packet turns here.
            passing = nf * sum(per_node[(x, y)] for x in range(width))
            row_total = passing
            ftn[(0, y)] = ftn.get((0, y), 0) + row_total
            # Horizontal legs: router (x, y) forwards every packet
            # sourced at or east of x in its row.
            for x in range(1, width):
                passing -= nf * per_node[(x - 1, y)]
                ftn[(x, y)] = passing
            # Vertical leg down/up column 0 toward the sink row.
            if y != sy:
                step = 1 if sy > y else -1
                for j in range(y + step, sy + step, step):
                    ftn[(0, j)] = ftn.get((0, j), 0) + row_total
        stats.flits_through_node = ftn

        # Leave the network drained, exactly as a completed run would.
        self._pending_flits = 0
        self.cycle = finish

        if self._obs is not None:
            # No per-packet mesh_deliver events: which packet ejects at
            # each tail instant depends on the sink's round-robin input
            # arbitration, the same noise that leaves `sunk` empty (see
            # the module docstring).  The run-level summary — cycles,
            # latencies, per-node flit heat map — is exact and flows
            # through mesh_run_end's stats export.
            self._obs.mesh_run_end(self.cycle, "run", stats)
        return stats
