"""Record the seed-0 reference tables the benchmark compares against.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Runs every workload's seed-0 commands once and copies each table to
``perfbench/reference/<label>.csv``.  ``reference/competing.json`` lists,
per optimized table, the rows whose optimum has a competing branch
within 1% (``BRANCH_MARGIN``); on those rows only V_c is compared.
Re-record only when a change is meant to alter the tables, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets up paths; importing it runs nothing

import checks
import workloads


def competing_rows(tv, path) -> list[int]:
    config, columns, rows = checks.read_table(path)
    if "n_branches" in columns:
        return [i for i, row in enumerate(rows) if row["n_branches"] > 0]
    if not config.get("optimize_frequency"):
        return []
    bath = checks._bath(tv, config["bath"])
    lo, hi = config["omega_bounds"]
    out = []
    for i, row in enumerate(rows):
        p = dict(config["parameters"], C=row["C"], g=None)
        res = tv.minimize_vc_over_frequency(
            lambda w: checks.scalar_figures(tv, config["scenario"], p, bath, w, config["conditioning"]),
            lo, hi,
        )
        if res.branches:
            out.append(i)
    return out


def main() -> int:
    tv = run.prepare()
    import tvmeter.cli as cli

    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks.REFERENCE.mkdir(exist_ok=True)
    competing = {}
    for workload in workloads.WHY:
        cmds = workloads.commands(run.ROOT, workload, 0, work)
        if not all(run.run_pass(cli, cmds, work / workload, run.SpeedProbe()).ok):
            print(f"record_reference: a {workload} command failed", file=sys.stderr)
            return 1
        for i, cmd in enumerate(cmds):
            target = checks.REFERENCE / f"{cmd.label}.csv"
            shutil.copyfile(work / workload / f"{i:03d}-{cmd.label}.csv", target)
            rows = competing_rows(tv, target)
            if rows:
                competing[cmd.label] = rows
            print(f"{cmd.label}: {cmd.rows} rows, {len(rows)} with a competing optimum")
    (checks.REFERENCE / "competing.json").write_text(
        json.dumps(competing, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
