"""Workloads of the tvmeter benchmark: the `tv` commands each one runs.

Seed 0 runs the figure recipes exactly (fig3, fig5 and fig7 at ten times
their row count).  Any other seed redraws each sweep's points inside the
same range and with the same row count.  The `tv` CLI takes a sweep as an
evenly spaced grid between two endpoints, so a redrawn sweep is cut into
``SEGMENTS`` disjoint intervals whose endpoints are drawn log-uniformly or
uniformly (following the recipe's ``scale``) and sorted; each interval is
one `tv` command with its share of the rows.  The threshold command's
level is redrawn uniformly within 10% of 0.5.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: random intervals a redrawn sweep is cut into (one `tv` command each)
SEGMENTS = 4

WHY = {
    "freq-opt": (
        "frequency-optimized sweeps (fig2, fig4): about 230 evaluations per row "
        "of a model that does not depend on omega; shows build-once, stacked-omega "
        "solves and cheaper condition checks"
    ),
    "sql-scan": (
        "generalized-SQL scans over C (fig6, fig8, threshold bisection): every grid "
        "point is a new model, so per-model caches are bypassed; most of fig8 is "
        "in floquet"
    ),
    "direct-rows": (
        "fixed-omega sweeps of every other scenario (fig3/5/7 at 10x rows, fig9, "
        "lev-single, tv pulsed): one evaluation per row, no optimizer; CLI "
        "overhead, model builds, levitation and pulsed dominate"
    ),
}


@dataclass(frozen=True)
class Sweep:
    """One recipe-like sweep: a `tv` subcommand over a parameter grid."""

    label: str
    subcommand: str          # sweep, sql or pulsed
    doc: dict                # configuration document, including "sweep"
    recipe: str | None = None  # recipes/<recipe>.json when doc is that recipe
    rows_factor: int = 1


@dataclass(frozen=True)
class Command:
    """One `tv` invocation of a workload pass."""

    label: str               # recipe or command name, as in cli.<label>_s
    argv: tuple[str, ...]    # tv arguments without --output
    rows: int                # rows the command writes


#: the threshold command's bisection bounds on nu and its C scan (the CLI
#: defaults, not passed on the command line)
THRESHOLD_BOUNDS = (0.05, 0.3)
THRESHOLD_C_BOUNDS = (1e-3, 1e3)
THRESHOLD_C_COUNT = 200


def _recipe(root: Path, name: str) -> dict:
    return json.loads((root / "recipes" / f"{name}.json").read_text(encoding="utf-8"))


def _sweeps(root: Path, workload: str) -> list[Sweep]:
    if workload == "freq-opt":
        return [
            Sweep("fig2", "sweep", _recipe(root, "fig2"), recipe="fig2"),
            Sweep("fig4", "sweep", _recipe(root, "fig4"), recipe="fig4"),
        ]
    if workload == "sql-scan":
        return [
            Sweep("fig6", "sql", _recipe(root, "fig6"), recipe="fig6"),
            Sweep("fig8", "sql", _recipe(root, "fig8"), recipe="fig8"),
        ]
    if workload == "direct-rows":
        lev_single = {
            "scenario": "lev-single",
            "parameters": {"g": 0.3},
            "bath": {"n_m": 1.0},
            "sweep": {"param": "alpha", "lo": 0.01, "hi": 0.5, "n": 500, "scale": "lin"},
        }
        pulsed = {
            "scenario": "lev-pulsed",
            "bath": {"n_m": 1e7},
            "sweep": {"param": "tau", "lo": 1e-2, "hi": 1e2, "n": 500, "scale": "log"},
        }
        return [
            Sweep("fig3", "sweep", _recipe(root, "fig3"), recipe="fig3", rows_factor=10),
            Sweep("fig5", "sweep", _recipe(root, "fig5"), recipe="fig5", rows_factor=10),
            Sweep("fig7", "sweep", _recipe(root, "fig7"), recipe="fig7", rows_factor=10),
            Sweep("fig9", "sweep", _recipe(root, "fig9"), recipe="fig9"),
            Sweep("lev_single", "sweep", lev_single),
            Sweep("pulsed", "pulsed", pulsed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _split(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _segments(sweep: dict, rows: int, rng: random.Random | None) -> list[tuple[float, float, int]]:
    """(lo, hi, n) of each command covering the sweep's rows."""
    lo, hi = float(sweep["lo"]), float(sweep["hi"])
    if rng is None:
        return [(lo, hi, rows)]
    parts = max(1, min(SEGMENTS, rows // 2))
    u = sorted(rng.random() for _ in range(2 * parts))
    if sweep.get("scale", "log") == "log":
        points = [lo * (hi / lo) ** x for x in u]
    else:
        points = [lo + (hi - lo) * x for x in u]
    counts = _split(rows, parts)
    return [(points[2 * i], points[2 * i + 1], counts[i]) for i in range(parts)]


def _threshold_argv(level: float) -> tuple[str, ...]:
    return (
        "threshold", "--scenario", "qnd-imperfect", "--vary", "nu",
        "--bounds", *(repr(b) for b in THRESHOLD_BOUNDS), "--level", repr(level),
        "--quantity", "min-vc", "--n-m", "1",
    )


def commands(
    root: Path, workload: str, seed: int, config_dir: Path, rows: int | None = None
) -> list[Command]:
    """The commands of one pass, in run order.

    ``rows`` replaces every sweep's row count (small runs: warm-up and
    self-test); configuration files are written into ``config_dir``.
    """
    out: list[Command] = []
    for index, sw in enumerate(_sweeps(root, workload)):
        rng = random.Random(seed * 1000 + index) if seed != 0 else None
        spec = sw.doc["sweep"]
        n = rows if rows is not None else int(spec["n"]) * sw.rows_factor
        for k, (lo, hi, count) in enumerate(_segments(spec, n, rng)):
            if sw.subcommand == "pulsed":
                argv: tuple[str, ...] = (
                    "pulsed", "--n-m", repr(sw.doc["bath"]["n_m"]),
                    "--tau-log", repr(lo), repr(hi), "--n", str(count),
                )
            elif sw.recipe is not None and count == spec["n"] and (lo, hi) == (spec["lo"], spec["hi"]):
                argv = (sw.subcommand, "--config", str(root / "recipes" / f"{sw.recipe}.json"))
            else:
                doc = dict(sw.doc, sweep=dict(spec, lo=lo, hi=hi, n=count))
                path = config_dir / f"{sw.label}-{k}.json"
                path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
                argv = (sw.subcommand, "--config", str(path))
            out.append(Command(sw.label, argv, count))
    if workload == "sql-scan":
        level = 0.5 if seed == 0 else 0.5 * (1.0 + random.Random(seed * 1000 + 99).uniform(-0.1, 0.1))
        out.append(Command("threshold", _threshold_argv(level), 1))
    return out


#: every command label, for the per-layer cli.<label>_s metrics
LABELS = (
    "fig2", "fig4", "fig6", "fig8", "threshold",
    "fig3", "fig5", "fig7", "fig9", "lev_single", "pulsed",
)
