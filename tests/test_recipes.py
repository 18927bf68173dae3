"""Recipe tables against golden CSVs.

``tests/golden/`` holds the tables of the eight figure recipes and of
``tv pulsed --tau-log 1e-2 1e2 --n 50 --n-m 1e7``.  A rerun must keep the
header lines and the regimes exactly and every float to relative 1e-12,
so a refactor of the evaluation pipeline that moves a figure shows here.
The frequency-optimized tables (fig2, fig4) must also keep every byte:
their rows come from the lockstep refinement of all rows, which gives
each row the bits of a scan of the row alone.

To re-record a table after a deliberate change of the physics, run the
command below with ``--output tests/golden/<name>.csv`` and say why in
``CHANGES.md``.
"""

import math
from pathlib import Path

import pytest

from tvmeter.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    **{f"fig{n}": ["sweep", "--config", str(ROOT / "recipes" / f"fig{n}.json")]
       for n in (2, 3, 4, 5, 7, 9)},
    **{f"fig{n}": ["sql", "--config", str(ROOT / "recipes" / f"fig{n}.json")]
       for n in (6, 8)},
    "pulsed": ["pulsed", "--tau-log", "1e-2", "1e2", "--n", "50", "--n-m", "1e7"],
}

REL = 1e-12

#: tables that must match their golden file byte for byte
BYTE_IDENTICAL = ("fig2", "fig4")


def _split(text):
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return header, table


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want  # the regime, exactly
    if math.isinf(w) or math.isnan(w):
        return got == want
    return math.isclose(g, w, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_recipe_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(COMMANDS[name] + ["--output", str(out)]) == 0
    got_header, got = _split(out.read_text())
    want_header, want = _split((GOLDEN / f"{name}.csv").read_text())
    assert got_header == want_header
    assert got[0] == want[0], "columns differ"
    assert len(got) == len(want)
    columns = want[0]
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:])):
        bad = [
            f"{col}: {g} != {w}"
            for col, g, w in zip(columns, g_row, w_row)
            if not _same_cell(g, w)
        ]
        assert not bad, f"row {i}: " + "; ".join(bad)
    if name in BYTE_IDENTICAL:
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
