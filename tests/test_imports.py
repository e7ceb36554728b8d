"""The package import graph: no cycles, a small analytic footprint, and the
quick-tour names resolving lazily to their defining modules."""

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
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

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
    """Every ``from repro... import`` name in the examples resolves (read
    from the source; the examples are not run)."""
    for node in ast.walk(ast.parse(example.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
