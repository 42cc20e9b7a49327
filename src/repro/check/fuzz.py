"""Seeded differential fuzzer: cross-execute every equivalent-engine pair.

The repo ships several *pairs* (or families) of implementations that claim
observational equivalence — a fast mesh engine behind
``MeshConfig(engine="fast")``, cycle skipping behind
``MeshConfig(cycle_skip=...)``, an analytic Table III model next to the
measured flit simulator, a canonical CRC frame codec, and the
CRC-protected retransmitting gather — plus the event kernel's
documented dispatch order.  Each pair is covered by targeted
unit tests on a handful of hand-picked workloads; this module generates
*randomized* workloads from a seed and fails on any divergence.

Case kinds
----------

``mesh``
    Reference vs fast engine (and cycle-skip on/off) on randomized
    topology size / workload / reorder latency / fault plan, compared by
    full observable signature (stats, per-packet delivery order,
    normalized packet ids) and — when ``trace`` is set — by the
    normalized semantic obs trace (categories ``mesh``/``mesh.fault``).

``queue``
    The event kernel under a randomized timeout storm with priority
    ties, checked against its documented total order: dispatch times
    never decrease, ticker ``j`` wakes exactly at ``k * delay_j`` for
    ``k = 1..count``, and at each instant the tie timeouts fire sorted
    by ``(priority, index)``.

``crc``
    The canonical frame codec: round-trip, frame determinism across
    equal values, guaranteed detection of 1–3 bit flips (CRC-16/CCITT
    has Hamming distance 4 at these frame lengths), involutive
    ``flip_bits`` and exhaustive accounting of heavier corruption into
    detected / collision / decode-error bins.

``analytic``
    Measured mesh transpose vs :func:`mesh_transpose_cycles_model`
    within the documented calibration band (see
    ``docs/correctness.md``): the measured/model ratio must lie in
    ``ANALYTIC_BAND`` and the measurement must respect the sink
    serialization floor ``elements * (1 + t_p)``.

``gather``
    The CRC-protected :class:`~repro.faults.ReliableGather` under a
    seeded BER: bit-identical determinism across two runs, word
    conservation, and exact zero-overhead behaviour at BER 0.

``schedule``
    The static analyzer itself: every compiled schedule from the
    :mod:`repro.core.schedule` front-ends must lint clean, and every
    random single mutation of its raw spec (dropped / extended /
    shifted slot, corrupted word offset) must produce at least one
    ERROR diagnostic.

``compiled``
    The schedule-compiled analytic backends against their event-driven
    references.  ``Pscan(engine="compiled")`` gather/scatter executions
    must be bit-identical to the event engine — arrivals, modulation
    times, delivered words, clock window, moved bits, final simulator
    time, and (when ``trace`` is set) the semantic ``sca`` obs trace —
    including back-to-back transactions sharing one clock epoch chain.
    ``MeshConfig(engine="compiled")`` transpose runs must reproduce the
    reference engine's full stats signature (``sunk`` records excluded:
    the compiled mesh documents them as unpopulated).  Out-of-domain
    parameters (``reorder=1``) must refuse with a structured
    :class:`~repro.util.errors.EngineUnsupportedError` naming the
    unsupported feature — never silently fall back or mis-answer.

``batched``
    The SIMD-lockstep campaign engine (:mod:`repro.faults.batched`) vs
    the per-seed scalar path, across all three batched injector
    families — CRC-protected gathers under BER / thermal drift, mesh
    transposes under permanent dead links, dual-clock FIFOs under
    seeded write drops.  Batched rows must be byte-identical to a
    scalar loop over the same lanes, the clean/replayed lane accounting
    must balance, and a disabled injector (BER or drop probability 0)
    must never trigger a scalar replay.

``workload``
    The :mod:`repro.workloads` registry, per family: the same
    name+params built twice and run on the reference vs fast mesh
    engines must agree on the *full* run result — mesh signature, the
    shared :mod:`repro.obs.slo` latency block (P50/P95/P99), and the
    per-pair bandwidth/latency table.  Families with a photonic
    lowering additionally replay their CP phases on the event vs
    compiled SCA engines (bit-exact executions), and every description
    must lint clean under :func:`repro.check.analyzer.analyze_traffic`.

``build``
    The declarative builder (:mod:`repro.build`) vs literal hand
    assembly.  A randomized :class:`~repro.build.MachineSpec` is
    instantiated through ``build_machine`` / ``run_mesh`` (the shared
    mesh run path) / ``build_multibus`` and cross-executed against the
    same machine constructed by hand from ``PsyncConfig`` / ``MeshConfig`` /
    ``MultiBusPscan`` keyword arguments — SCA execution signatures,
    mesh stats signatures, and striped multibus streams must be
    byte-identical.  Torus cases instead pin reference ↔ fast engine
    agreement on the spec-built wrap-around fabric and require the
    compiled engine to refuse in the *spec* layer (lint BLD027).
    Every spec also round-trips through JSON and the canonical
    :func:`repro.store.keys.canonicalize` form.

Every case is reconstructible from ``(kind, seed, params)`` — the JSON
form committed under ``tests/corpus/`` by :mod:`repro.check.shrink`.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "ANALYTIC_BAND",
    "CASE_KINDS",
    "FuzzCase",
    "Divergence",
    "FuzzResult",
    "generate_case",
    "run_case",
    "run_fuzz",
]

#: Documented calibration band for measured/model transpose cycles at
#: sub-paper scales (empirical range 0.716..0.882 over 16..100
#: processors; see docs/correctness.md for the derivation sweep).
ANALYTIC_BAND = (0.65, 1.00)

CASE_KINDS = (
    "mesh", "queue", "crc", "analytic", "gather", "schedule", "compiled",
    "batched", "workload", "build",
)


# ---------------------------------------------------------------------------
# case / result plumbing
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One reproducible differential-execution case."""

    kind: str
    seed: int
    params: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        """JSON-safe dict (the corpus seed format)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FuzzCase":
        return cls(
            kind=str(data["kind"]),
            seed=int(data["seed"]),
            params=dict(data.get("params", {})),
            note=str(data.get("note", "")),
        )

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind}(seed={self.seed}, {inner})"


@dataclass
class Divergence:
    """One observed disagreement between supposedly equivalent paths."""

    case: FuzzCase
    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.case.describe()}: {self.detail}"


@dataclass
class FuzzResult:
    """Outcome of a fuzzing run."""

    cases_run: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    by_kind: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        kinds = ", ".join(f"{k}:{n}" for k, n in sorted(self.by_kind.items()))
        verdict = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"fuzz: {self.cases_run} case(s) [{kinds}] "
            f"in {self.elapsed_s:.1f}s — {verdict}"
        )


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def generate_case(seed: int, kinds: Iterable[str] | None = None) -> FuzzCase:
    """Deterministically derive one case from ``seed``.

    ``kinds`` restricts the pool (default: all of :data:`CASE_KINDS`).
    The seed fully determines the case; the same seed always fuzzes the
    same workload, which is what makes corpus seeds replayable.
    """
    pool = tuple(kinds) if kinds is not None else CASE_KINDS
    for kind in pool:
        if kind not in CASE_KINDS:
            raise ValueError(f"unknown fuzz kind {kind!r}; know {CASE_KINDS}")
    rng = random.Random(seed)
    kind = pool[rng.randrange(len(pool))]
    params = _GENERATORS[kind](rng)
    return FuzzCase(kind=kind, seed=seed, params=params)


def _gen_mesh(rng: random.Random) -> dict[str, Any]:
    processors = rng.choice([4, 9, 16, 25])
    workload = rng.choice(["transpose", "random", "scatter"])
    params: dict[str, Any] = {
        "processors": processors,
        "workload": workload,
        "reorder": rng.choice([1, 2, 4]),
        "fault": rng.choice(["none", "none", "link", "router"]),
        "trace": rng.random() < 0.5,
    }
    if workload == "transpose":
        params["cols"] = rng.choice([2, 4])
    elif workload == "random":
        params["packets_per_node"] = rng.choice([2, 4])
        params["wseed"] = rng.randrange(1000)
    else:
        k = rng.choice([1, 2])
        params["k"] = k
        params["words_per_processor"] = k * rng.choice([2, 3])
    return params


def _gen_queue(rng: random.Random) -> dict[str, Any]:
    return {
        "processes": rng.randrange(4, 17),
        "count": rng.randrange(8, 33),
        "delay_mod": rng.choice([2, 3, 5]),
        "ties": rng.randrange(12, 37),
    }


def _gen_crc(rng: random.Random) -> dict[str, Any]:
    return {
        "values": rng.randrange(4, 13),
        "depth": rng.choice([1, 2, 3]),
        "flip_trials": rng.randrange(8, 25),
        "max_flips": rng.choice([4, 6, 8]),
    }


def _gen_analytic(rng: random.Random) -> dict[str, Any]:
    processors = rng.choice([16, 36, 64])
    # pscan reference needs processors*cols*64 bits to fill whole
    # 2048-bit DRAM rows: processors * cols % 32 == 0.
    cols_pool = {16: [2, 4, 8], 36: [8, 16], 64: [2, 4]}[processors]
    return {
        "processors": processors,
        "cols": rng.choice(cols_pool),
        "reorder": rng.choice([1, 2, 4, 8]),
    }


def _gen_gather(rng: random.Random) -> dict[str, Any]:
    return {
        "nodes": rng.choice([4, 8]),
        "words": rng.choice([4, 8]),
        # BER exponent: 0 disables the injector entirely.
        "ber_exp": rng.choice([0, 0, 4, 3]),
        "drift": rng.random() < 0.3,
        "fseed": rng.randrange(1000),
    }


def _gen_schedule(rng: random.Random) -> dict[str, Any]:
    family = rng.choice(
        ["transpose", "round_robin", "block", "control", "permuted"]
    )
    params: dict[str, Any] = {"family": family, "mutation": rng.choice(
        ["none", "drop_slot", "extend_slot", "shift_slot", "word_offset"]
    )}
    if family == "transpose":
        params["rows"] = rng.choice([4, 8, 16])
        params["cols"] = rng.choice([2, 4, 8])
    elif family == "round_robin":
        params["nodes"] = rng.choice([2, 4, 8])
        block = rng.choice([1, 2, 4])
        params["block"] = block
        params["words"] = block * rng.choice([1, 2, 4])
    elif family == "block":
        params["nodes"] = rng.choice([2, 4, 8, 16])
        params["words"] = rng.choice([2, 4, 8])
    elif family == "control":
        params["nodes"] = rng.choice([2, 4, 8])
        params["control_words"] = rng.choice([0, 1, 2])
        k = rng.choice([1, 2])
        params["k"] = k
        params["data_words"] = k * rng.choice([2, 3])
    else:  # permuted: a random bijection order
        params["nodes"] = rng.choice([2, 3, 4, 6])
        params["words"] = rng.choice([2, 3, 5])
        params["pseed"] = rng.randrange(1000)
    return params


def _gen_compiled(rng: random.Random) -> dict[str, Any]:
    target = rng.choice(["sca", "sca", "mesh"])
    if target == "mesh":
        cols = rng.choice([1, 2, 4])
        return {
            "target": "mesh",
            "processors": rng.choice([4, 16, 25]),
            "cols": cols,
            # reorder=1 is outside the compiled domain: must refuse.
            "reorder": rng.choice([1, 2, 4]),
            # elements_per_packet must divide cols.
            "elements_per_packet": rng.choice(
                [e for e in (1, 2) if cols % e == 0]
            ),
            "header_flits": rng.choice([1, 2]),
        }
    family = rng.choice(["transpose", "round_robin", "block", "permuted"])
    words = rng.choice([1, 2, 3, 5])
    params: dict[str, Any] = {
        "target": "sca",
        "family": family,
        "op": rng.choice(["gather", "scatter"]),
        "nodes": rng.choice([2, 4, 8]),
        "words": words,
        "repeat": rng.random() < 0.4,
        "trace": rng.random() < 0.5,
    }
    if family == "round_robin":
        params["block"] = rng.choice([1, words])
    elif family == "permuted":
        params["pseed"] = rng.randrange(1000)
    return params


def _gen_batched(rng: random.Random) -> dict[str, Any]:
    target = rng.choice(["gather", "gather", "mesh", "fifo"])
    params: dict[str, Any] = {
        "target": target,
        "lanes": rng.randrange(2, 13),
        "sseed": rng.randrange(1000),
    }
    if target == "gather":
        params.update({
            "processors": rng.choice([4, 16]),
            "row_samples": rng.choice([2, 4]),
            # BER exponent: 0 disables the injector (all lanes clean).
            "ber_exp": rng.choice([0, 6, 4, 3]),
            "drift": rng.random() < 0.3,
        })
    elif target == "mesh":
        params["lanes"] = rng.randrange(2, 7)
        params.update({
            "processors": rng.choice([4, 16]),
            "max_dead": rng.choice([1, 2]),
        })
    else:  # fifo
        params.update({
            "words": rng.choice([16, 48]),
            "depth": rng.choice([4, 8]),
            # Drop-probability exponent: 0 disables the injector.
            "prob_exp": rng.choice([0, 3, 2, 1]),
        })
    return params


def _gen_workload(rng: random.Random) -> dict[str, Any]:
    name = rng.choice([
        "all_to_all", "allreduce", "allgather", "halo2d", "dnn_layer",
        "uniform_random", "transpose_multi_mc",
    ])
    params: dict[str, Any] = {
        "name": name,
        "processors": rng.choice([4, 9, 16]),
        "reorder": rng.choice([1, 2, 4]),
    }
    if name == "all_to_all":
        params["words_per_pair"] = rng.choice([1, 2, 3])
    elif name in ("allreduce", "allgather"):
        params["words"] = rng.choice([1, 2, 4])
    elif name == "halo2d":
        params["halo"] = rng.choice([1, 2, 4])
    elif name == "dnn_layer":
        params["batch"] = rng.choice([2, 4, 8])
        params["features_in"] = rng.choice([4, 8])
        params["features_out"] = rng.choice([4, 8])
    elif name == "uniform_random":
        params["packets_per_node"] = rng.choice([2, 4])
        params["seed"] = rng.randrange(1000)
    else:  # transpose_multi_mc
        params["cols"] = rng.choice([2, 4])
    return params


def _gen_build(rng: random.Random) -> dict[str, Any]:
    target = rng.choice(["psync", "mesh", "torus", "multibus"])
    params: dict[str, Any] = {"target": target}
    if target == "psync":
        params.update(
            processors=rng.choice([4, 9, 16]),
            words=rng.choice([2, 3, 4]),
            signaling=rng.choice(["nrz", "pam4"]),
            word_granular=rng.random() < 0.5,
            engine=rng.choice(["event", "compiled"]),
        )
    elif target == "mesh":
        params.update(
            processors=rng.choice([4, 9, 16]),
            cols=rng.choice([2, 4]),
            reorder=rng.choice([2, 4]),
            engine=rng.choice(["reference", "fast", "compiled"]),
        )
    elif target == "torus":
        params.update(
            processors=rng.choice([4, 9, 16]),
            cols=rng.choice([2, 4]),
            reorder=rng.choice([1, 2, 4]),
        )
    else:  # multibus
        params.update(
            processors=rng.choice([4, 9]),
            words=rng.choice([2, 4]),
            waveguides=rng.choice([1, 2, 3]),
        )
    return params


_GENERATORS: dict[str, Callable[[random.Random], dict[str, Any]]] = {
    "mesh": _gen_mesh,
    "queue": _gen_queue,
    "crc": _gen_crc,
    "analytic": _gen_analytic,
    "gather": _gen_gather,
    "schedule": _gen_schedule,
    "compiled": _gen_compiled,
    "batched": _gen_batched,
    "workload": _gen_workload,
    "build": _gen_build,
}


# ---------------------------------------------------------------------------
# mesh oracle
# ---------------------------------------------------------------------------

#: Engine-independent obs categories compared by the trace oracle.
SEMANTIC_CATEGORIES = ("mesh", "mesh.fault")


def _mesh_packets(topology, params: dict[str, Any]):
    from ..mesh.workloads import (
        make_scatter_delivery,
        make_transpose_gather,
        make_uniform_random,
    )

    workload = params["workload"]
    if workload == "transpose":
        return make_transpose_gather(topology, cols=params["cols"]).packets
    if workload == "random":
        return make_uniform_random(
            topology,
            packets_per_node=params["packets_per_node"],
            seed=params["wseed"],
        )
    if workload == "scatter":
        return make_scatter_delivery(
            topology,
            words_per_processor=params["words_per_processor"],
            k=params["k"],
        )
    raise ValueError(f"unknown mesh workload {workload!r}")


def _run_mesh_case(
    params: dict[str, Any],
    engine: str,
    *,
    cycle_skip: bool | None = None,
    session=None,
):
    """One observed run; returns ``(signature, fault_report_or_None)``."""
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology, mesh_signature

    topology = MeshTopology.square(params["processors"])
    net = MeshNetwork(
        topology,
        MeshConfig(
            engine=engine,
            memory_reorder_cycles=params["reorder"],
            cycle_skip=cycle_skip,
        ),
    )
    if session is not None:
        net.attach_observer(session)
    net.add_memory_interface((0, 0))
    for packet in _mesh_packets(topology, params):
        net.inject(packet)
    fault = params.get("fault", "none")
    if fault == "link":
        net.fail_link((1, 0), (0, 0))
    elif fault == "router":
        net.fail_router((1, 1))
    if fault == "none":
        return mesh_signature(net, net.run()), None
    stats, report = net.run_resilient()
    base = min(net._packet_meta)
    rep = None
    if report is not None:
        rep = (
            report.kind,
            report.cycle,
            tuple(p - base for p in report.undelivered_packets),
            tuple(p - base for p in report.lost_packets),
            report.flits_dropped,
            tuple(report.quarantined_links),
        )
    return (
        (mesh_signature(net, stats), stats.reroutes, stats.quarantine_events),
        rep,
    )


def _canon_trace(events: list[dict]) -> list[dict]:
    """Remap packet ids by first appearance (process-global counter)."""
    remap: dict[int, int] = {}
    out = []
    for ev in events:
        args = ev.get("args")
        if isinstance(args, dict) and "packet" in args:
            pid = args["packet"]
            if pid not in remap:
                remap[pid] = len(remap)
            ev = {**ev, "args": {**args, "packet": remap[pid]}}
        out.append(ev)
    return out


def _mesh_trace(params: dict[str, Any], engine: str) -> list[dict]:
    from ..obs import ObsConfig, ObsSession, normalize_events

    session = ObsSession(ObsConfig())
    _run_mesh_case(params, engine, session=session)
    return _canon_trace(
        normalize_events(session.tracer.events, categories=SEMANTIC_CATEGORIES)
    )


def _check_mesh(case: FuzzCase) -> list[Divergence]:
    out: list[Divergence] = []
    p = case.params
    ref = _run_mesh_case(p, "reference")
    fast = _run_mesh_case(p, "fast")
    if ref != fast:
        out.append(Divergence(case, "mesh.engine", _diff_repr(ref, fast)))
    skip_on = _run_mesh_case(p, "reference", cycle_skip=True)
    skip_off = _run_mesh_case(p, "reference", cycle_skip=False)
    if skip_on != skip_off:
        out.append(
            Divergence(case, "mesh.cycle_skip", _diff_repr(skip_on, skip_off))
        )
    if p.get("trace"):
        ref_tr = _mesh_trace(p, "reference")
        fast_tr = _mesh_trace(p, "fast")
        if not ref_tr:
            out.append(
                Divergence(case, "mesh.trace", "semantic trace is empty")
            )
        elif ref_tr != fast_tr:
            out.append(
                Divergence(case, "mesh.trace", _diff_repr(ref_tr, fast_tr))
            )
    return out


# ---------------------------------------------------------------------------
# queue oracle
# ---------------------------------------------------------------------------


def _storm_trace(params: dict[str, Any]) -> list[tuple]:
    """A mixed-granularity timeout storm plus a same-instant priority wave.

    Returns the firing trace: ``(time, "p<j>", i)`` for the ``i``-th wake
    of ticker ``j`` and ``(time, "tie", i)`` for tie timeout ``i``.
    """
    from ..sim.engine import Simulator

    sim = Simulator()
    trace: list[tuple] = []

    def ticker(name: str, count: int, delay: float):
        for i in range(count):
            yield sim.timeout(delay)
            trace.append((sim.now, name, i))

    for j in range(params["processes"]):
        sim.process(ticker(f"p{j}", params["count"], _ticker_delay(params, j)))
    for i in range(params["ties"]):
        tmo = sim.timeout(float(i % 5), priority=_tie_priority(i))
        tmo.callbacks.append(
            lambda ev, i=i: trace.append((sim.now, "tie", i))
        )
    sim.run()
    return trace


def _ticker_delay(params: dict[str, Any], j: int) -> float:
    return 1.0 + 0.5 * (j % params["delay_mod"])


def _tie_priority(i: int) -> int:
    from ..sim.engine import LOW, NORMAL, URGENT

    return (URGENT, NORMAL, LOW)[i % 3]


def _check_queue(case: FuzzCase) -> list[Divergence]:
    """The storm must fire in the kernel's documented total order."""
    p = case.params
    trace = _storm_trace(p)
    out: list[Divergence] = []
    times = [t for t, _name, _i in trace]
    if times != sorted(times):
        out.append(
            Divergence(case, "queue.monotone", "dispatch time went backwards")
        )
    for j in range(p["processes"]):
        name = f"p{j}"
        delay = _ticker_delay(p, j)
        got = [(t, i) for t, n, i in trace if n == name]
        want = [(k * delay, k - 1) for k in range(1, p["count"] + 1)]
        if got != want:
            out.append(Divergence(case, "queue.ticker", _diff_repr(want, got)))
            break
    ties = [(t, i) for t, n, i in trace if n == "tie"]
    want_ties = sorted(
        ((float(i % 5), i) for i in range(p["ties"])),
        key=lambda ti: (ti[0], _tie_priority(ti[1]), ti[1]),
    )
    if ties != want_ties:
        out.append(Divergence(case, "queue.order", _diff_repr(want_ties, ties)))
    return out


# ---------------------------------------------------------------------------
# crc oracle
# ---------------------------------------------------------------------------


def _random_value(rng: random.Random, depth: int) -> Any:
    kinds = ["int", "bigint", "float", "complex", "str", "bytes", "none",
             "bool"]
    if depth > 0:
        kinds += ["tuple", "list"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(2 ** 16), 2 ** 16)
    if kind == "bigint":
        return rng.randrange(-(2 ** 80), 2 ** 80)
    if kind == "float":
        # Exact binary fractions round-trip bit-for-bit through the
        # big-endian double encoding.
        return rng.randrange(-(2 ** 20), 2 ** 20) / 1024.0
    if kind == "complex":
        return complex(rng.randrange(-100, 100) / 8.0,
                       rng.randrange(-100, 100) / 8.0)
    if kind == "str":
        alphabet = "abcXYZ012 éπ"
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 12))
        )
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 10)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return tuple(items) if kind == "tuple" else list(items)


def _check_crc(case: FuzzCase) -> list[Divergence]:
    from ..faults.crc import (
        check_frame,
        flip_bits,
        frame_bits,
        pack_word,
        unpack_word,
    )
    from ..util.errors import TransientFaultError

    out: list[Divergence] = []
    rng = random.Random(case.seed ^ 0xC2C)
    p = case.params
    values = [_random_value(rng, p["depth"]) for _ in range(p["values"])]
    for value in values:
        frame = pack_word(value)
        # Round-trip.
        try:
            back = unpack_word(frame)
        except TransientFaultError as exc:
            out.append(Divergence(
                case, "crc.roundtrip",
                f"clean frame for {value!r} rejected: {exc}",
            ))
            continue
        if back != value or type(back) is not type(value):
            out.append(Divergence(
                case, "crc.roundtrip", f"{value!r} decoded as {back!r}",
            ))
        # Frame determinism across object identity (the pack_word bug
        # this subsystem regression-guards: see tests/corpus/).
        twin = pack_word(copy.deepcopy(value))
        if twin != frame:
            out.append(Divergence(
                case, "crc.determinism",
                f"{value!r}: frame differs for an equal copy "
                f"({frame.hex()} vs {twin.hex()})",
            ))
        nbits = frame_bits(frame)
        # 1-3 bit flips are always detected: CRC-16/CCITT keeps Hamming
        # distance 4 far beyond these frame lengths.
        for k in (1, 2, 3):
            if k > nbits:
                continue
            positions = rng.sample(range(nbits), k)
            corrupted = flip_bits(frame, positions)
            if check_frame(corrupted):
                out.append(Divergence(
                    case, "crc.detection",
                    f"{k}-bit flip at {positions} passed CRC for {value!r}",
                ))
            if flip_bits(corrupted, positions) != frame:
                out.append(Divergence(
                    case, "crc.involution",
                    f"flip_bits not involutive at {positions}",
                ))
    # Heavy-corruption accounting on one representative frame.
    frame = pack_word(tuple(values) if values else 0)
    nbits = frame_bits(frame)
    detected = collisions = decode_errors = 0
    for _ in range(p["flip_trials"]):
        k = rng.randrange(1, min(p["max_flips"], nbits) + 1)
        corrupted = flip_bits(frame, rng.sample(range(nbits), k))
        if not check_frame(corrupted):
            detected += 1
            continue
        collisions += 1
        try:
            unpack_word(corrupted)
        except TransientFaultError:
            decode_errors += 1
    if detected + collisions != p["flip_trials"]:
        out.append(Divergence(
            case, "crc.accounting",
            f"{detected} detected + {collisions} collisions != "
            f"{p['flip_trials']} trials",
        ))
    return out


# ---------------------------------------------------------------------------
# analytic oracle
# ---------------------------------------------------------------------------


def _check_analytic(case: FuzzCase) -> list[Divergence]:
    from ..analysis.transpose_model import (
        measure_mesh_transpose,
        mesh_transpose_cycles_model,
    )

    p = case.params
    out: list[Divergence] = []
    measured = measure_mesh_transpose(
        p["processors"], p["cols"], reorder_cycles=p["reorder"]
    )
    model = mesh_transpose_cycles_model(
        p["processors"], p["cols"], reorder_cycles=p["reorder"]
    )
    # The hot sink serializes every element at (header decode + t_p)
    # cycles apiece; the final element's service overlaps run teardown,
    # hence the (elements - 1) floor.
    floor = (measured.elements - 1) * (1 + p["reorder"])
    if measured.mesh_cycles < floor:
        out.append(Divergence(
            case, "analytic.floor",
            f"measured {measured.mesh_cycles} below the sink serialization "
            f"floor {floor}",
        ))
    ratio = measured.mesh_cycles / model
    lo, hi = ANALYTIC_BAND
    if not (lo <= ratio <= hi):
        out.append(Divergence(
            case, "analytic.band",
            f"measured/model ratio {ratio:.3f} outside [{lo}, {hi}] "
            f"(measured={measured.mesh_cycles}, model={model:.1f})",
        ))
    return out


# ---------------------------------------------------------------------------
# gather oracle
# ---------------------------------------------------------------------------


def _gather_run(p: dict[str, Any]):
    """One protected gather; fresh simulator/fault model per run."""
    from ..core.pscan import Pscan
    from ..core.schedule import transpose_order
    from ..faults import DriftEpisode, PscanFaultModel, ReliableGather, RetryPolicy
    from ..photonics import Waveguide
    from ..sim import Simulator

    nodes, words = p["nodes"], p["words"]
    sim = Simulator()
    pitch = 2.0
    length = pitch * (nodes + 1)
    pscan = Pscan(
        sim,
        Waveguide(length_mm=length),
        {i: pitch * (i + 1) for i in range(nodes)},
    )
    if p["ber_exp"]:
        episodes = ()
        if p["drift"]:
            episodes = (
                DriftEpisode(start_ns=0.0, end_ns=50.0, drift_nm=0.02,
                             node=0, peak_penalty_db=2.0),
            )
        PscanFaultModel(
            ber=10.0 ** -p["ber_exp"],
            drift_episodes=episodes,
            seed=p["fseed"],
        ).install(pscan)
    order = transpose_order(nodes, words)
    data = {
        n: [complex(n + 0.25 * w, -w) for w in range(words)]
        for n in range(nodes)
    }
    gather = ReliableGather(pscan, RetryPolicy(max_retries=16))
    result = gather.gather(order, data, receiver_mm=length,
                           raise_on_exhaust=False)
    stats = result.stats
    return (
        {
            "epochs": stats.epochs,
            "crc_nacks": stats.crc_nacks,
            "retransmitted": stats.retransmitted_words,
            "undetected": stats.undetected_errors,
            "backoff": stats.backoff_cycles,
            "baseline": stats.baseline_cycles,
            "total": stats.total_cycles,
            "crc_overhead": stats.crc_overhead_cycles,
            "values": sorted(result.values.items()),
            "residual": result.residual,
        },
        order,
        data,
        result,
    )


def _check_gather(case: FuzzCase) -> list[Divergence]:
    out: list[Divergence] = []
    p = case.params
    sig_a, order, data, result_a = _gather_run(p)
    sig_b, _, _, _ = _gather_run(p)
    if sig_a != sig_b:
        out.append(Divergence(
            case, "gather.determinism", _diff_repr(sig_a, sig_b)
        ))
    pairs = set(order)
    extra = set(dict(sig_a["values"])) - pairs
    if extra:
        out.append(Divergence(
            case, "gather.conservation",
            f"delivered words never scheduled: {sorted(extra)[:5]}",
        ))
    if result_a.complete:
        wrong = [
            (node, w)
            for (node, w), v in result_a.values.items()
            if sig_a["undetected"] == 0 and v != data[node][w]
        ]
        if wrong:
            out.append(Divergence(
                case, "gather.payload",
                f"complete gather delivered wrong words: {wrong[:5]}",
            ))
    if p["ber_exp"] == 0:
        clean = (
            sig_a["epochs"] == 1
            and sig_a["crc_nacks"] == 0
            and sig_a["retransmitted"] == 0
            and sig_a["backoff"] == 0
            and sig_a["total"] == sig_a["baseline"] + sig_a["crc_overhead"]
            and not sig_a["residual"]
        )
        if not clean:
            out.append(Divergence(
                case, "gather.zero_overhead",
                f"fault-free gather shows recovery activity: {sig_a}",
            ))
        if dict(sig_a["values"]) != {
            (n, w): data[n][w] for n, w in pairs
        }:
            out.append(Divergence(
                case, "gather.payload", "fault-free gather payload mismatch"
            ))
    return out


# ---------------------------------------------------------------------------
# schedule / analyzer oracle
# ---------------------------------------------------------------------------


def _schedule_order(p: dict[str, Any]) -> list[tuple[int, int]]:
    from ..core.schedule import (
        block_interleave_order,
        control_then_data_order,
        round_robin_order,
        transpose_order,
    )

    family = p["family"]
    if family == "transpose":
        return transpose_order(p["rows"], p["cols"])
    if family == "round_robin":
        return round_robin_order(p["nodes"], p["words"], p["block"])
    if family == "block":
        return block_interleave_order(p["nodes"], p["words"])
    if family == "control":
        return control_then_data_order(
            p["nodes"], p["control_words"], p["data_words"], p["k"]
        )
    if family == "permuted":
        rng = random.Random(p["pseed"])
        order = [
            (n, w) for n in range(p["nodes"]) for w in range(p["words"])
        ]
        rng.shuffle(order)
        return order
    raise ValueError(f"unknown schedule family {family!r}")


def _mutate_spec(spec, mutation: str, rng: random.Random) -> None:
    """Apply one raw-level mutation in place.  Every mutation is a bug."""
    nodes = sorted(spec.programs)
    node = nodes[rng.randrange(len(nodes))]
    slots = spec.programs[node]
    idx = rng.randrange(len(slots))
    start, length, role, offset = slots[idx]
    if mutation == "drop_slot":
        # Vacates >= 1 cycle: guaranteed SCH002 gap (or SCH005/6).
        del slots[idx]
        if not slots:
            del spec.programs[node]
    elif mutation == "extend_slot":
        # Claims one extra cycle: collision or beyond-total.
        slots[idx] = (start, length + 1, role, offset)
    elif mutation == "shift_slot":
        # Vacates its first cycle and claims one past its end.
        slots[idx] = (start + 1, length, role, offset)
    elif mutation == "word_offset":
        # Moves the wrong words: conservation / order mismatch.
        slots[idx] = (start, length, role, offset + 1 + rng.randrange(3))
    else:
        raise ValueError(f"unknown mutation {mutation!r}")


def _check_schedule(case: FuzzCase) -> list[Divergence]:
    from ..core.schedule import gather_schedule
    from .analyzer import ScheduleSpec, analyze_schedule

    out: list[Divergence] = []
    p = case.params
    order = _schedule_order(p)
    schedule = gather_schedule(order)
    expected_words: dict[int, list[int]] = {}
    for node, word in order:
        expected_words.setdefault(node, []).append(word)
    spec = ScheduleSpec.from_schedule(schedule, expected_words=expected_words)
    report = analyze_schedule(spec)
    if not report.ok:
        out.append(Divergence(
            case, "schedule.clean",
            f"valid compiled schedule flagged: {report.codes()}",
        ))
    mutation = p["mutation"]
    if mutation != "none":
        rng = random.Random(case.seed ^ 0x5CED)
        mutant = copy.deepcopy(spec)
        _mutate_spec(mutant, mutation, rng)
        mutant_report = analyze_schedule(mutant)
        if not mutant_report.errors:
            out.append(Divergence(
                case, "schedule.mutant",
                f"mutation {mutation!r} produced no ERROR diagnostic",
            ))
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _diff_repr(a: Any, b: Any, limit: int = 300) -> str:
    ra, rb = repr(a), repr(b)
    if ra == rb:
        return "objects differ but share a repr (identity-level divergence)"
    # Find the first point of disagreement for a readable excerpt.
    i = next(
        (k for k, (x, y) in enumerate(zip(ra, rb)) if x != y),
        min(len(ra), len(rb)),
    )
    lo = max(0, i - 40)
    return (
        f"first differs at char {i}: "
        f"...{ra[lo:i + 80]}... vs ...{rb[lo:i + 80]}..."
    )[:limit]


# ---------------------------------------------------------------------------
# compiled-engine oracle
# ---------------------------------------------------------------------------


def _compiled_sca_order(params: dict[str, Any]) -> list[tuple[int, int]]:
    from ..core.schedule import (
        block_interleave_order,
        round_robin_order,
        transpose_order,
    )

    nodes, words = params["nodes"], params["words"]
    family = params["family"]
    if family == "transpose":
        return transpose_order(nodes, words)
    if family == "round_robin":
        return round_robin_order(nodes, words, block=params["block"])
    if family == "block":
        return block_interleave_order(nodes, words)
    order = [(n, w) for n in range(nodes) for w in range(words)]
    random.Random(params["pseed"]).shuffle(order)
    return order


def _compiled_sca_signature(ps, ex) -> tuple:
    """Full observable signature of one SCA execution (bit-exact floats)."""
    return (
        ex.kind,
        tuple(
            (a.time_ns, a.cycle, a.source_node, a.word_index, a.value)
            for a in ex.arrivals
        ),
        tuple(sorted((n, tuple(ts)) for n, ts in ex.modulation_times.items())),
        ex.start_ns,
        ex.end_ns,
        ex.period_ns,
        tuple(sorted((n, tuple(vs)) for n, vs in ex.delivered.items())),
        ps.total_bits_moved,
        ps.sim.now,
    )


def _run_compiled_sca(params: dict[str, Any], engine: str, session=None):
    """Run one (or two back-to-back) SCA transactions; return signatures."""
    from ..core import Pscan, gather_schedule, scatter_schedule
    from ..photonics import Waveguide
    from ..sim import Simulator

    nodes, words = params["nodes"], params["words"]
    pitch = 10.0
    length = (nodes + 1) * pitch + 10.0
    sim = Simulator()
    wg = Waveguide(length_mm=length)
    positions = {i: (i + 1) * pitch for i in range(nodes)}
    ps = Pscan(sim, wg, positions, engine=engine)
    if session is not None:
        ps.attach_observer(session)
    order = _compiled_sca_order(params)
    sigs = []
    for rep in range(2 if params.get("repeat") else 1):
        if params["op"] == "gather":
            sched = gather_schedule(order)
            data = {
                n: [complex(n, w + 7 * rep) for w in range(words)]
                for n in range(nodes)
            }
            ex = ps.execute_gather(sched, data, receiver_mm=length)
        else:
            sched = scatter_schedule(order)
            burst = [complex(rep, i) for i in range(len(order))]
            ex = ps.execute_scatter(sched, burst, source_mm=0.0)
        sigs.append(_compiled_sca_signature(ps, ex))
    return tuple(sigs)


def _canon_sca_trace(events: list[dict]) -> list[dict]:
    """Order exactly-coincident instants canonically.

    The waveguide geometry makes word flight times exact multiples of
    the bus period, so a later modulation and an earlier word's arrival
    can share one float timestamp; the event queue breaks that tie by
    timeout insertion sequence, which is not part of the compiled
    engine's contract.  Comparing canonically-sorted traces still pins
    the exact multiset of instants at every timestamp.
    """
    return sorted(events, key=lambda ev: (
        ev.get("ts", 0.0),
        ev.get("name", ""),
        ev.get("track", ""),
        sorted((ev.get("args") or {}).items()),
    ))


def _compiled_sca_trace(params: dict[str, Any], engine: str) -> list[dict]:
    from ..obs import ObsConfig, ObsSession, normalize_events

    session = ObsSession(ObsConfig())
    _run_compiled_sca(params, engine, session=session)
    return _canon_sca_trace(
        normalize_events(session.tracer.events, categories=("sca",))
    )


def _check_compiled_sca(case: FuzzCase) -> list[Divergence]:
    out: list[Divergence] = []
    p = case.params
    event = _run_compiled_sca(p, "event")
    compiled = _run_compiled_sca(p, "compiled")
    if event != compiled:
        out.append(Divergence(case, "compiled.sca", _diff_repr(event, compiled)))
    if p.get("trace"):
        ev_tr = _compiled_sca_trace(p, "event")
        co_tr = _compiled_sca_trace(p, "compiled")
        if not ev_tr:
            out.append(
                Divergence(case, "compiled.sca.trace", "sca trace is empty")
            )
        elif ev_tr != co_tr:
            out.append(
                Divergence(case, "compiled.sca.trace", _diff_repr(ev_tr, co_tr))
            )
    return out


def _run_hand_transpose(params: dict[str, Any], engine: str) -> tuple:
    """A literal hand-assembled transpose gather; its full mesh signature."""
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology, mesh_signature
    from ..mesh.workloads import make_transpose_gather

    topology = MeshTopology.square(params["processors"])
    net = MeshNetwork(
        topology,
        MeshConfig(engine=engine, memory_reorder_cycles=params["reorder"]),
    )
    net.add_memory_interface((0, 0))
    workload = make_transpose_gather(
        topology,
        cols=params["cols"],
        elements_per_packet=params.get("elements_per_packet", 1),
        header_flits=params.get("header_flits", 1),
    )
    for packet in workload.packets:
        net.inject(packet)
    return mesh_signature(net, net.run())


def _check_compiled_mesh(case: FuzzCase) -> list[Divergence]:
    from ..util.errors import EngineUnsupportedError

    out: list[Divergence] = []
    p = case.params
    if p["reorder"] < 2:
        try:
            _run_hand_transpose(p, "compiled")
        except EngineUnsupportedError as exc:
            if exc.feature != "reorder_cycles":
                out.append(Divergence(
                    case, "compiled.mesh.refusal",
                    f"expected feature 'reorder_cycles', got {exc.feature!r}",
                ))
        else:
            out.append(Divergence(
                case, "compiled.mesh.refusal",
                "reorder=1 must raise EngineUnsupportedError, ran instead",
            ))
        return out
    # Drop the trailing ``sunk`` records: the compiled engine documents
    # them as unpopulated (flit interleaving is not modelled).
    ref = _run_hand_transpose(p, "reference")[:-1]
    comp = _run_hand_transpose(p, "compiled")[:-1]
    if ref != comp:
        out.append(Divergence(case, "compiled.mesh", _diff_repr(ref, comp)))
    return out


def _check_compiled(case: FuzzCase) -> list[Divergence]:
    if case.params.get("target") == "mesh":
        return _check_compiled_mesh(case)
    return _check_compiled_sca(case)


# ---------------------------------------------------------------------------
# batched-campaign oracle
# ---------------------------------------------------------------------------


def _check_batched(case: FuzzCase) -> list[Divergence]:
    """Cross-execute the SIMD-lockstep engine against the scalar loop.

    One batched call per case; the scalar reference replays exactly the
    same lanes one seed at a time.  Any row-level difference — result
    payload, stats, timing — is a divergence, as is unbalanced
    clean/replayed accounting or a scalar replay with the injector off.
    """
    from ..faults.batched import (
        FifoBatchSpec,
        run_fifo_batch,
        run_fifo_trial,
        run_gather_campaign_batch,
        run_mesh_campaign_batch,
    )
    from ..faults.campaign import (
        CampaignConfig,
        _run_gather_trial,
        _run_mesh_trial,
    )
    from ..faults.models import DriftEpisode

    out: list[Divergence] = []
    p = case.params
    rng = random.Random(p["sseed"])
    seeds = [rng.randrange(2 ** 32) for _ in range(p["lanes"])]
    target = p["target"]
    injector_off = False

    if target == "gather":
        episodes = ()
        if p.get("drift"):
            # Two part-coverage windows: some words see a raised BER,
            # others the base rate — the draw-lockstep accounting must
            # stay exact either way.
            episodes = (
                DriftEpisode(start_ns=0.0, end_ns=60.0, drift_nm=0.03),
                DriftEpisode(
                    start_ns=80.0, end_ns=200.0, drift_nm=0.05, node=1
                ),
            )
        config = CampaignConfig(
            processors=p["processors"],
            row_samples=p["row_samples"],
            trials=1,
            seed=0,
            drift_episodes=episodes,
        )
        ber = 10.0 ** -p["ber_exp"] if p["ber_exp"] else 0.0
        injector_off = ber == 0.0
        batch = run_gather_campaign_batch(config, ber, seeds)
        scalar = [_run_gather_trial(config, ber, s) for s in seeds]
    elif target == "mesh":
        config = CampaignConfig(
            processors=p["processors"], row_samples=2, trials=1, seed=0
        )
        lanes = [(rng.randrange(p["max_dead"] + 1), s) for s in seeds]
        injector_off = all(dead == 0 for dead, _ in lanes)
        batch = run_mesh_campaign_batch(config, lanes)
        scalar = [_run_mesh_trial(config, dead, s) for dead, s in lanes]
    elif target == "fifo":
        probability = 10.0 ** -p["prob_exp"] if p["prob_exp"] else 0.0
        injector_off = probability == 0.0
        spec = FifoBatchSpec(
            words=p["words"], depth=p["depth"], probability=probability
        )
        batch = run_fifo_batch(spec, seeds)
        scalar = [run_fifo_trial(spec, s) for s in seeds]
    else:
        raise ValueError(f"unknown batched target {target!r}")

    if batch.rows != scalar:
        lane = next(
            (i for i, (b, s) in enumerate(zip(batch.rows, scalar)) if b != s),
            None,
        )
        out.append(Divergence(
            case, f"batched.{target}",
            f"lane {lane} (seed {seeds[lane] if lane is not None else '?'}): "
            + _diff_repr(batch.rows, scalar),
        ))
    if batch.lanes_clean + batch.lanes_replayed != len(seeds):
        out.append(Divergence(
            case, "batched.accounting",
            f"{batch.lanes_clean} clean + {batch.lanes_replayed} replayed "
            f"!= {len(seeds)} lanes",
        ))
    if injector_off and batch.lanes_replayed:
        out.append(Divergence(
            case, "batched.zero_replay",
            f"injector disabled yet {batch.lanes_replayed} lane(s) fell "
            f"back to scalar replay",
        ))
    return out


# ---------------------------------------------------------------------------
# workload-registry oracle
# ---------------------------------------------------------------------------


def _cp_signature(executions) -> tuple:
    """Bit-exact observable signature of a CP-phase replay sequence."""
    return tuple(
        (
            ex.kind,
            tuple(
                (a.time_ns, a.cycle, a.source_node, a.word_index, a.value)
                for a in ex.arrivals
            ),
            tuple(
                sorted((n, tuple(ts)) for n, ts in ex.modulation_times.items())
            ),
            ex.start_ns,
            ex.end_ns,
            ex.period_ns,
            tuple(sorted((n, tuple(vs)) for n, vs in ex.delivered.items())),
        )
        for ex in executions
    )


def _check_workload(case: FuzzCase) -> list[Divergence]:
    from ..workloads import build_workload, run_cp_phases, run_on_mesh
    from .analyzer import analyze_traffic

    out: list[Divergence] = []
    params = dict(case.params)
    name = params.pop("name")
    reorder = params.pop("reorder")

    # Descriptions are single-shot; build one per run so each network
    # gets fresh packet objects.
    ref = run_on_mesh(build_workload(name, **params), "reference",
                      reorder=reorder)
    fast = run_on_mesh(build_workload(name, **params), "fast",
                       reorder=reorder)
    for aspect in ("mesh_signature", "slo", "pairs"):
        a, b = getattr(ref, aspect), getattr(fast, aspect)
        if a != b:
            out.append(Divergence(
                case, f"workload.{aspect}", _diff_repr(a, b)
            ))

    description = build_workload(name, **params)
    report = analyze_traffic(description)
    if not report.ok:
        out.append(Divergence(
            case, "workload.lint",
            "; ".join(str(d) for d in report.errors[:4]),
        ))

    if description.cp_phases:
        event = _cp_signature(
            run_cp_phases(build_workload(name, **params), "event")
        )
        compiled = _cp_signature(
            run_cp_phases(build_workload(name, **params), "compiled")
        )
        if event != compiled:
            out.append(Divergence(
                case, "workload.cp", _diff_repr(event, compiled)
            ))
    return out


# ---------------------------------------------------------------------------
# build oracle
# ---------------------------------------------------------------------------


def _build_spec_for(params: dict[str, Any]):
    from ..build import BusSpec, FabricSpec, MachineSpec

    target = params["target"]
    if target == "psync":
        return MachineSpec(
            processors=params["processors"],
            word_granular_clock=params["word_granular"],
            engine=params["engine"],
            banks=(BusSpec(signaling=params["signaling"]),),
        )
    if target in ("mesh", "torus"):
        return MachineSpec(
            processors=params["processors"],
            fabric=FabricSpec(
                kind="torus" if target == "torus" else "mesh",
                engine=params.get("engine", "reference"),
                memory_reorder_cycles=params["reorder"],
            ),
        )
    return MachineSpec(
        processors=params["processors"],
        banks=(BusSpec(waveguides=params["waveguides"]),),
    )


def _check_build_roundtrip(case: FuzzCase, spec, out: list[Divergence]) -> None:
    import json as _json

    from ..build import MachineSpec
    from ..store.keys import canonicalize

    rt = MachineSpec.from_json(_json.loads(_json.dumps(spec.to_json())))
    if rt != spec:
        out.append(Divergence(case, "build.roundtrip", _diff_repr(spec, rt)))
    elif canonicalize(rt) != canonicalize(spec):
        out.append(Divergence(
            case, "build.canonical",
            "JSON round-trip changed the canonical form",
        ))


def _psync_gather_signature(machine, words: int) -> tuple:
    for pid in range(machine.config.processors):
        machine.local_memory[pid] = [f"p{pid}w{w}" for w in range(words)]
    ex = machine.gather(machine.transpose_gather_schedule(words))
    return _compiled_sca_signature(machine.pscan, ex)


def _check_build_psync(case: FuzzCase, spec, out: list[Divergence]) -> None:
    from ..build import build_machine
    from ..core.psync import PsyncConfig, PsyncMachine
    from ..photonics.wdm import WdmPlan

    p = case.params
    built = build_machine(spec)
    hand = PsyncMachine(
        PsyncConfig(
            processors=p["processors"],
            word_granular_clock=p["word_granular"],
            engine=p["engine"],
        ),
        wdm=WdmPlan(bits_per_symbol=2 if p["signaling"] == "pam4" else 1),
    )
    a = _psync_gather_signature(built, p["words"])
    b = _psync_gather_signature(hand, p["words"])
    if a != b:
        out.append(Divergence(case, "build.psync", _diff_repr(a, b)))


def _check_build_mesh(case: FuzzCase, spec, out: list[Divergence]) -> None:
    import dataclasses

    from ..build import build_mesh_network, build_mesh_topology, run_mesh
    from ..mesh import mesh_signature
    from ..mesh.workloads import make_transpose_gather
    from ..util.errors import ConfigError

    p = case.params
    # The compiled mesh documents its ``sunk`` log as unpopulated.
    keep = -1 if p.get("engine") == "compiled" else None

    def run(spec) -> tuple:
        workload = make_transpose_gather(build_mesh_topology(spec), cols=p["cols"])
        return mesh_signature(*run_mesh(spec, workload.packets))[:keep]

    if p["target"] == "torus":
        # Spec-built torus: the two flit-level engines must agree...
        fast = dataclasses.replace(
            spec, fabric=dataclasses.replace(spec.fabric, engine="fast")
        )
        a = run(spec)
        b = run(fast)
        if a != b:
            out.append(Divergence(case, "build.torus", _diff_repr(a, b)))
        # ...and the compiled engine must be refused in the spec layer.
        comp = dataclasses.replace(
            spec, fabric=dataclasses.replace(spec.fabric, engine="compiled")
        )
        try:
            build_mesh_network(comp)
        except ConfigError as exc:
            if "BLD027" not in str(exc):
                out.append(Divergence(
                    case, "build.torus.refusal",
                    f"expected BLD027 in the ConfigError, got: {exc}",
                ))
        else:
            out.append(Divergence(
                case, "build.torus.refusal",
                "a compiled torus spec must raise ConfigError, ran instead",
            ))
        return

    a = run(spec)
    b = _run_hand_transpose(p, p["engine"])[:keep]
    if a != b:
        out.append(Divergence(case, "build.mesh", _diff_repr(a, b)))


def _check_build_multibus(case: FuzzCase, spec, out: list[Divergence]) -> None:
    from ..build import build_machine, build_multibus
    from ..core.multibus import MultiBusPscan

    p = case.params
    machine = build_machine(spec)  # geometry reference
    data = {
        pid: [f"p{pid}w{w}" for w in range(p["words"])]
        for pid in machine.positions_mm
    }

    def sig(ex) -> tuple:
        return (
            ex.waveguides,
            tuple(ex.stream),
            ex.duration_ns,
            ex.all_gapless,
            ex.total_cycles,
        )

    striped = build_multibus(spec)
    a = sig(striped.execute_gather(
        machine.transpose_gather_schedule(p["words"]),
        data,
        receiver_mm=machine.memory_position_mm,
    ))
    hand = MultiBusPscan(
        waveguides=p["waveguides"],
        waveguide_length_mm=machine.waveguide.length_mm,
        positions_mm=machine.positions_mm,
        wdm=machine.pscan.wdm,
    )
    b = sig(hand.execute_gather(
        machine.transpose_gather_schedule(p["words"]),
        data,
        receiver_mm=machine.memory_position_mm,
    ))
    if a != b:
        out.append(Divergence(case, "build.multibus", _diff_repr(a, b)))


def _check_build(case: FuzzCase) -> list[Divergence]:
    """Cross-execute spec-built machines against hand-built ones.

    Every case also round-trips its spec through JSON and the canonical
    store form; the per-target differentials then pin the builder's
    output to a literal hand assembly of the same machine (psync SCA
    signatures, mesh stats signatures, striped multibus streams), and
    torus cases double as an engine-agreement and spec-layer-refusal
    check.
    """
    out: list[Divergence] = []
    spec = _build_spec_for(case.params)
    _check_build_roundtrip(case, spec, out)
    target = case.params["target"]
    if target == "psync":
        _check_build_psync(case, spec, out)
    elif target in ("mesh", "torus"):
        _check_build_mesh(case, spec, out)
    else:
        _check_build_multibus(case, spec, out)
    return out


_ORACLES: dict[str, Callable[[FuzzCase], list[Divergence]]] = {
    "mesh": _check_mesh,
    "queue": _check_queue,
    "crc": _check_crc,
    "analytic": _check_analytic,
    "gather": _check_gather,
    "schedule": _check_schedule,
    "compiled": _check_compiled,
    "batched": _check_batched,
    "workload": _check_workload,
    "build": _check_build,
}


def run_case(case: FuzzCase) -> list[Divergence]:
    """Execute one case's oracle; unexpected exceptions are divergences."""
    oracle = _ORACLES.get(case.kind)
    if oracle is None:
        raise ValueError(f"unknown fuzz kind {case.kind!r}")
    try:
        return oracle(case)
    except Exception as exc:  # noqa: BLE001 — a crash *is* a finding
        return [
            Divergence(case, f"{case.kind}.exception",
                       f"{type(exc).__name__}: {exc}")
        ]


def run_fuzz(
    cases: int = 50,
    seed: int = 0,
    kinds: Iterable[str] | None = None,
    on_divergence: Callable[[Divergence], None] | None = None,
) -> FuzzResult:
    """Generate and run ``cases`` cases derived from ``seed``.

    Case ``i`` uses derived seed ``seed * 1_000_003 + i``, so a corpus
    seed file can name the exact case without replaying the run.
    """
    result = FuzzResult()
    start = time.perf_counter()
    for i in range(cases):
        case = generate_case(seed * 1_000_003 + i, kinds=kinds)
        result.by_kind[case.kind] = result.by_kind.get(case.kind, 0) + 1
        found = run_case(case)
        result.divergences.extend(found)
        if on_divergence is not None:
            for div in found:
                on_divergence(div)
        result.cases_run += 1
    result.elapsed_s = time.perf_counter() - start
    return result
