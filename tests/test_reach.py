"""What the entry points and the benchmark reach in src/mhdlab.

scripts/reach.py keeps src/ to what the command line entry points reach,
apart from an allowlist; the benchmark reaches into src/ by name, and a
name it looks up that is gone fails only its own runs, so it is checked
here too.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# what perfbench/tracer.py patches on objects it holds in local names
_PATCHED = (
    ("mhdlab.projection", "DivFreeProjector.__init__"),
    ("mhdlab.projection", "DivFreeProjector.project"),
    ("mhdlab.projection", "DivFreeProjector.div_transpose"),
    ("mhdlab.mms", "ManufacturedCase.source_callable"),
    ("mhdlab.snapshots", "write_snapshot"),
)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_script_passes_and_names_real_tests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reach.py")], capture_output=True, text=True
    )
    # it fails on an unreached function that is not allowed, and on an
    # allowed one that is gone or now reached
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "functions unreached" in proc.stdout
    reach = _load(ROOT / "scripts" / "reach.py", "reach_script")
    for name, (reason, test) in reach.ALLOWED.items():
        path, func = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert func in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, (name, test)
        assert reason


def _mhdlab_attributes(path: Path) -> set:
    """(module, dotted attribute) of every attribute chain read off a
    module that the file imports by `from mhdlab import ...`."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name: f"mhdlab.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mhdlab"
        for alias in node.names
    }
    found = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            found.add((aliases[node.id], ".".join(reversed(parts))))
    return found


def test_every_name_the_benchmark_reaches_resolves():
    tracer = _load(PERFBENCH / "tracer.py", "perfbench_tracer")
    names = {(home, attr) for home, attr, _ in tracer.SPANS} | set(_PATCHED)
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _mhdlab_attributes(path)
    # the scan sees the calls of the workloads and of the timing probe
    assert {("mhdlab.scenario", "run_scenario"), ("mhdlab.solver", "run")} <= names
    for module, dotted in sorted(names):
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{module}.{dotted}"
            obj = getattr(obj, part)
