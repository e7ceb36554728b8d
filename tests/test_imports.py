"""The package import graph: no cycles, a small analytic footprint, the
quick-tour names resolving lazily to their defining modules, and no module
that the entry points never load."""

import ast
import importlib
import inspect
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.sim

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Every importable module under ``repro``; ``__main__`` modules are
#: entry points that run their CLI when imported.
MODULES = sorted(
    ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in SRC.rglob("*.py")
    if path.stem != "__main__"
)

#: Layers only a discrete-event run needs.
DES_PREFIXES = ("repro.sim", "repro.mpi", "repro.machine", "repro.net", "repro.system",
                "repro.kernel.scheduler")


def _fresh_python(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    ).stdout


def test_every_module_imports_first():
    """Each ``repro`` module imports cleanly as the first ``repro`` import
    (no import cycle through it).  One interpreter clears ``repro*`` from
    ``sys.modules`` before each module instead of starting afresh."""
    code = f"""
import importlib, json, sys, traceback
failed = {{}}
for name in {MODULES!r}:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed[name] = traceback.format_exc(limit=-3)
print(json.dumps(failed))
"""
    failed = json.loads(_fresh_python(code))
    assert not failed, "\n".join(f"{name}:\n{tb}" for name, tb in failed.items())


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(repro.sim.__path__))
)
def test_sim_module_imports_first(module):
    """Each ``repro.sim`` module imports cleanly as the first ``repro``
    import of a fresh interpreter (no import cycle through it)."""
    _fresh_python(f"import repro.sim.{module}")


def test_analytic_and_harness_path_loads_no_des():
    """The campaign path (trial specs, runner, store, journal) loads none of
    the discrete-event layers."""
    loaded = json.loads(_fresh_python(
        "import json, sys\n"
        "import repro.experiments.common, repro.experiments.runner, repro.store, "
        "repro.checkpoint.harness\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    ))
    des = [m for m in loaded if m.startswith(DES_PREFIXES)]
    assert not des, f"the analytic path loaded DES modules: {des}"


def test_harness_chaos_loads_no_des():
    """The worker-kill and store-fault plans load no simulator layer, so
    the supervisor and the store CLI import them at module level."""
    loaded = json.loads(_fresh_python(
        "import json, sys\n"
        "import repro.chaos.harness_faults\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    ))
    des = [m for m in loaded if m.startswith(("repro.sim", "repro.mpi", "repro.system"))]
    assert not des, f"repro.chaos.harness_faults loaded DES modules: {des}"


def _repro_imports(scripts) -> list[tuple[str, list[str]]]:
    """``(module, names)`` of every ``from repro... import`` in *scripts*
    (read from the source; the scripts are not run)."""
    return [
        (node.module, [alias.name for alias in node.names])
        for script in scripts
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
    ]


def test_entry_points_reach_every_module():
    """Every ``repro`` module is loaded by some entry point: the
    ``repro-experiments`` CLI (which holds the ``store`` subcommands), the
    quick-tour names, what the examples import, and what the benchmark
    harness imports (the sharded DES runs only there).  A module none of
    them reaches is dead code."""
    scripts = sorted(EXAMPLES.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    code = f"""
import importlib, json, sys
import repro, repro.experiments.cli
for name in repro.__all__:
    getattr(repro, name)
for module, names in {_repro_imports(scripts)!r}:
    mod = importlib.import_module(module)
    for name in names:
        if not hasattr(mod, name):
            importlib.import_module(module + "." + name)
print(json.dumps(sorted(sys.modules)))
"""
    loaded = set(json.loads(_fresh_python(code)))
    unreached = [m for m in MODULES if m not in loaded]
    assert not unreached, f"no entry point loads {unreached}"


def test_quick_tour_names_resolve_to_their_defining_modules():
    assert set(repro.__all__) == set(repro._MODULE_OF) | {"__version__"}
    for name, home in repro._MODULE_OF.items():
        value = getattr(repro, name)
        assert value is getattr(importlib.import_module(home), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home, name
    with pytest.raises(AttributeError):
        repro.NoSuchName


@pytest.mark.parametrize("example", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name)
def test_example_imports_resolve(example):
    """Every ``from repro... import`` name in the examples resolves."""
    for module, names in _repro_imports([example]):
        mod = importlib.import_module(module)
        for name in names:
            if not hasattr(mod, name):
                importlib.import_module(f"{module}.{name}")
