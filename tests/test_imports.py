"""Every import in a maflow module is used, or kept for perfbench's tracer,
only spectral.py imports from scipy.fft, and a run loads no scipy
subpackage beyond scipy.fft.

The unused-import check reads each module under src/maflow
(``__init__.py`` re-exports, so it is left out) with ``ast``, so it needs no
linter.  An imported name the module never reads is allowed only on a
``noqa: F401`` line and only if perfbench/tracer.py's PATCHES wraps that
name in that module.  The tracer is imported from its own directory,
unchanged.  spectral.rfftn and irfftn call pocketfft directly; the scipy.fft
check keeps every other module on them (and so on the tracer's spans)
rather than on scipy.fft's dispatching functions.  The scipy check runs a
flow and an oracle solve in a fresh interpreter and reads its sys.modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

MODULES = sorted(p for p in (ROOT / "src" / "maflow").glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _read_names(tree):
    """Every name the module reads, those in quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                names.update(m.id for m in ast.walk(quoted) if isinstance(m, ast.Name))
    return names


def _unused_imports(path):
    """(line, name, has noqa: F401) of each imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = _read_names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("noqa: F401" in lines[i - 1]
                   for i in range(node.lineno, node.end_lineno + 1))
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append((node.lineno, name, noqa))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_a_tracer_target(path):
    module = f"maflow.{path.stem}"
    targets = {attr for mod, attr, _ in tracer.PATCHES if mod == module}
    bad = [(line, name) for line, name, noqa in _unused_imports(path)
           if not (noqa and name in targets)]
    assert not bad, f"{path.name}: unused imports {bad}"


def test_the_guard_flags_an_unused_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\nimport numpy as np\n"
                    "from typing import Optional  # noqa: F401\n"
                    "from .grid import (\n    TorusGrid,\n    ScalarField,  # noqa: F401\n)\n\n\n"
                    "def f(x: \"Optional[TorusGrid]\") -> None:\n    return np.sum(x)\n")
    assert _unused_imports(path) == [(1, "os", False), (4, "ScalarField", True)]


def _imports_from_scipy_fft(path):
    """Line of each import of scipy.fft or one of its submodules in the module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(m == "scipy.fft" or m.startswith("scipy.fft.") for m in names):
            lines.append(node.lineno)
    return lines


def test_only_spectral_imports_from_scipy_fft():
    paths = sorted((ROOT / "src" / "maflow").glob("*.py"))
    found = {p.name for p in paths if _imports_from_scipy_fft(p)}
    assert found == {"spectral.py"}


def test_the_scipy_fft_guard_flags_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import scipy\nimport scipy.fft\nfrom scipy import fft\n"
                    "from scipy.fft import rfftn\nfrom scipy.fft._pocketfft import pypocketfft\n"
                    "from scipy import special\nimport numpy.fft\n")
    assert _imports_from_scipy_fft(path) == [2, 3, 4, 5]


RUN_IN_A_FRESH_INTERPRETER = """
import sys
from maflow import runner
from maflow.config import config_from_kv
from maflow.verification import RUN1_KV, RUN2_KV

runner.execute_flow(config_from_kv(dict(RUN1_KV, **{"flow.horizon": "2"})))
runner.execute_elliptic(config_from_kv(dict(RUN2_KV, mode="solve-elliptic")))
print(" ".join(sorted(sys.modules)))
"""


def test_a_run_loads_no_scipy_beyond_fft():
    # scipy.optimize, with scipy.linalg, sparse and spatial, adds ~22 MB of
    # resident memory to every process; only verify's certified fits need it
    # (scipy.special comes with scipy.fft)
    proc = subprocess.run([sys.executable, "-c", RUN_IN_A_FRESH_INTERPRETER],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True, timeout=120)
    loaded = set(proc.stdout.split())
    assert "scipy.fft" in loaded
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial")
    assert not [m for m in heavy if m in loaded]
