"""numpy is the only runtime dependency: the library never imports scipy,
so `tv` does not pay for loading it (scipy stays a test oracle)."""

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
