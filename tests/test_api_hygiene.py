"""API hygiene: every public item is exported deliberately and documented.

These tests freeze two contracts a downstream user relies on: (a) names
in ``__all__`` exist and carry docstrings, and (b) the subpackage
surfaces stay importable from the top level.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.photonics",
    "repro.core",
    "repro.mesh",
    "repro.memory",
    "repro.energy",
    "repro.fft",
    "repro.analysis",
    "repro.llmore",
    "repro.util",
    "repro.store",
    "repro.faults",
    "repro.workloads",
    "repro.build",
]

MODULES = [
    "repro.viz",
    "repro.cli",
    "repro.report",
    "repro.sim.engine",
    "repro.core.pscan",
    "repro.core.schedule",
    "repro.mesh.network",
    "repro.mesh.vc_network",
    "repro.workloads.registry",
    "repro.workloads.runner",
    "repro.obs.slo",
    "repro.memory.layout",
    "repro.analysis.perf_model",
    "repro.build.spec",
    "repro.build.builder",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} has no __all__"
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_public_items_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"
    undocumented = []
    for item in getattr(module, "__all__", []):
        obj = getattr(module, item)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(item)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_public_classes_document_their_methods():
    """Public methods of the flagship classes carry docstrings."""
    from repro.core.pscan import Pscan
    from repro.core.psync import PsyncMachine
    from repro.mesh.network import MeshNetwork
    from repro.sim.engine import Simulator

    for cls in (Simulator, Pscan, PsyncMachine, MeshNetwork):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__ and member.__doc__.strip(), (
                f"{cls.__name__}.{name} lacks a docstring"
            )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_drivers_assemble_machines_through_the_builder():
    """No driver module hand-assembles a machine outside repro.build.

    Every ``PsyncMachine(...)`` / ``MeshNetwork(...)`` construction in a
    driver must route through :mod:`repro.build`, so one validated
    ``MachineSpec`` stays the single source of truth.  The machine
    subsystems themselves (``core``, ``mesh``), the builder, and the
    check fuzzer (which deliberately hand-assembles one side of its
    differentials) are exempt.
    """
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    exempt_parts = {"core", "mesh", "build", "check"}
    pattern = re.compile(
        r"\b(PsyncMachine|MeshNetwork|VcMeshNetwork|MultiBusPscan)\s*\("
    )
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] in exempt_parts:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0]
            if (">>>" in line) or ('"""' in line):
                continue  # doctest / docstring examples
            if pattern.search(stripped):
                offenders.append(f"src/repro/{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "hand-assembled machines outside repro.build "
        "(use build_machine/build_mesh_network):\n" + "\n".join(offenders)
    )
