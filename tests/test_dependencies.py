"""numpy is the only runtime dependency: the library never imports scipy,
so `tv` does not pay for loading it (scipy stays a test oracle).  Every
name a module imports is used.  And the output pipeline stays single:
one module turns scattering maps into figures of merit, one guard
checks every solve, and one check decides every drift's stability."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tvmeter

PACKAGE = Path(tvmeter.__file__).resolve().parent


def test_importing_the_cli_loads_no_scipy():
    probe = "import sys, tvmeter.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out.strip() == "False"


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_every_import_is_used():
    """No module imports a name it never uses (a removal leaves such names
    behind); ``__init__`` is exempt, as it imports to export."""
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in used]
    assert unused == []


#: pipeline step -> the modules that may call it; ``cross_spectral_density``
#: is the public one-block case of ``_output_density``, which ``metrics`` calls
PIPELINE_CALLERS = {
    "detected": {"metrics"},
    "_output_density": {"core", "metrics"},
    "cross_spectral_density": set(),
    "measured_figures": {"metrics", "pulsed"},
}


def test_one_output_pipeline():
    """Only ``metrics`` forms and detects output densities, and only it and
    ``pulsed`` (which has no scattering map) reduce them to figures: every
    kernel with a scattering map goes through ``metrics``."""
    stray = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if path.stem not in PIPELINE_CALLERS.get(name, {path.stem}):
                    stray.append(f"{path.name}:{node.lineno} {name}")
    assert stray == []


def test_one_guard_and_no_matrix_products_in_the_sideband_solve():
    """Every kernel reaches the SVD rcond through ``core._require_regular``
    alone, and the sideband solve is elementwise arithmetic on the entries
    of its blocks: ``floquet`` has no ``@``, which numpy would hand to BLAS
    one 4 x 4 matrix at a time."""
    def cond_calls(tree):
        return sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cond"
                   for node in ast.walk(tree))

    anywhere = in_guard = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        anywhere += cond_calls(tree)
        if path.stem == "core":
            in_guard += sum(cond_calls(node) for node in tree.body
                            if getattr(node, "name", None) == "_require_regular")
        if path.stem == "floquet":
            matmuls = [node.lineno for node in ast.walk(tree)
                       if isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult)]
    assert anywhere == in_guard == 1
    assert matmuls == []


def _matrix_products(tree) -> list[int]:
    """Lines of the ``@`` operators and ``matmul`` names under ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or "matmul" in (getattr(node, "attr", None), getattr(node, "id", None))]


def test_no_matrix_products_in_the_output_density_or_the_figures():
    """The output density and everything ``metrics`` does with it are
    elementwise sums on the entries: ``core._output_density`` and
    ``metrics`` have no ``@`` and no ``matmul``, which numpy hands to BLAS
    one small matrix at a time, with bits that may depend on the stack."""
    core = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    [density] = [node for node in core.body if getattr(node, "name", None) == "_output_density"]
    metrics = ast.parse((PACKAGE / "metrics.py").read_text(encoding="utf-8"))
    assert _matrix_products(density) == _matrix_products(metrics) == []


#: the typed errors of the per-point guards
GUARD_ERRORS = {"DegenerateMeter", "UnstableModel", "SingularAtFrequency", "NegativeLinewidth"}


def test_one_first_failure_rule():
    """No module raises a per-point guard's error itself: each guard hands
    its (failed, error) pair to ``core.raise_first``, which alone picks the
    failing point.  And ``pulsed`` has no ``except TvmeterError`` handler,
    which a rerun of a failing stack would need."""
    named, handlers = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = {id(node) for top in tree.body if getattr(top, "name", None) == "raise_first"
                for node in ast.walk(top)} if path.stem == "core" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in rule:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if (getattr(exc, "id", None) or getattr(exc, "attr", None)) in GUARD_ERRORS:
                    named.append(f"{path.name}:{node.lineno}")
            if (path.stem == "pulsed" and isinstance(node, ast.ExceptHandler)
                    and node.type is not None
                    and any(getattr(n, "id", None) == "TvmeterError" for n in ast.walk(node.type))):
                handlers.append(f"{path.name}:{node.lineno}")
    assert named == [] and handlers == []


def test_one_stability_check():
    """Every drift's stability is ``core.check_stable``'s: no other code
    calls ``np.linalg.eigvals`` or reads ``STABILITY_TOL``, which appears
    only there and in its own definition, so a second path that decides
    stability on its own cannot come back unseen."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = {id(node) for top in tree.body if getattr(top, "name", None) == "check_stable"
                or "STABILITY_TOL" in (getattr(t, "id", None) for t in getattr(top, "targets", ()))
                for node in ast.walk(top)} if path.stem == "core" else set()
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if id(node) not in rule and (name == "STABILITY_TOL" or (
                    name == "eigvals" and not isinstance(node, ast.Name))):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []


def test_no_allocator_setting_or_environment_variable():
    """The library sets no allocator option and no environment variable:
    no module imports ctypes, names mallopt or a MALLOC_ variable, or
    assigns to os.environ (its entries or the mapping itself)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                names = []
            found += [f"{path.name}:{node.lineno} import {name}" for name in names
                      if name.split(".")[0] == "ctypes"]
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:
                base = target.value if isinstance(target, ast.Subscript) else target
                if "os.environ" in ast.unparse(base) or ast.unparse(base) == "environ":
                    found.append(f"{path.name}:{node.lineno} assigns {ast.unparse(target)}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "os.environ.update", "os.environ.setdefault", "os.putenv", "putenv"):
                found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}")
        found += [f"{path.name}: names {word}" for word in ("mallopt", "MALLOC_") if word in text]
    assert found == []
