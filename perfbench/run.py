"""Benchmark of the tvmeter `tv` CLI: whole tables, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload freq-opt --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The benchmark drives ``tvmeter.cli.main`` in this process, on one thread
and in a closed loop: each command starts when the previous one has
finished.  ``OPENBLAS_NUM_THREADS`` is 1 and ``TV_THREADS`` is unset.
After an untimed warm-up it repeats passes over the workload's commands
for ``--seconds`` (at least two passes), then checks every row of the
first pass and the byte identity of the later ones.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one warm pass,
the median over passes, each stretch of rows scaled by a speed probe; see
``SpeedProbe``), ``rows_per_s``, ``setup_s`` (median time of fresh
interpreters importing ``tvmeter.cli``, scaled likewise) and
``peak_rss_mb`` (this process, which ran only the workload).  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics of the traced ones (see NOTES.md).  The last line of
standard output is the JSON result; spans of the last traced pass go to
``.perfbench_out/<workload>-seed<seed>/spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh-interpreter imports timed for setup_s
SETUP_REPEATS = 5
#: fewest passes of a run (untraced, untraced+traced pairs)
MIN_PASSES = (2, 1)
#: rows per sweep in the untimed warm-up pass and in the self-test
WARMUP_ROWS = 2
SELF_TEST_ROWS = 4

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_row", "_per_eval", "max_rel_dev")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, wrong import)."""


def prepare() -> object:
    """Pin the thread settings and import tvmeter from this checkout."""
    if not (SRC / "tvmeter" / "cli.py").is_file() or not (ROOT / "recipes").is_dir():
        raise BenchError(f"no tvmeter sources under {ROOT}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("TV_THREADS", None)
    sys.path.insert(0, str(SRC))
    import tvmeter
    import tvmeter.cli

    if SRC.resolve() not in Path(tvmeter.__file__).resolve().parents:
        raise BenchError(f"tvmeter imported from {tvmeter.__file__}, not from {SRC}")
    return tvmeter


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps['name']} {deps['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "TV_THREADS": os.environ.get("TV_THREADS", "unset"),
                    "benchmark": "one thread, closed loop"},
    }


def measure_setup(repeats: int, probe: "SpeedProbe") -> float:
    """Median time of a fresh interpreter running `import tvmeter.cli`,
    each scaled by the speed probe run before and after it."""
    times = []
    for _ in range(repeats):
        before = probe.speed()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import tvmeter.cli"], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True, stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 0.5 * (before + probe.speed()))
    return statistics.median(times)


class SpeedProbe:
    """A fixed piece of Python and 4x4 numpy work, timed between rows.

    A shared host slows this machine by up to 2x, in bursts and in
    phases lasting minutes, so raw pass times spread by 20-30% between
    runs.  Scaling each stretch of rows by ``REFERENCE_S`` over the time of
    the probe run right after it removes most of that (pass times track
    the probe about proportionally): the benchmark's times are seconds at
    the speed where the probe takes ``REFERENCE_S``.
    """

    #: probe time at the host's fast speed (2-vCPU Xeon, numpy 2.4); the
    #: scale of the reported times, not a tuned threshold
    REFERENCE_S = 150e-6
    #: a stretch of rows is at most this long before a probe runs
    EVERY_S = 0.05

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.A = np.array([[-5.0, 0, 0, 0], [0, -5.0, -0.3, 0], [0, 0, -0.005, 1.0],
                           [-0.3, 0, -1.0, -0.005]])
        self.H = np.diag([3.0, 3.0, 0.1, 0.1])
        self.I = np.eye(4)

    def _once(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(4):
            M = self.A + 1j * (0.5 + 0.01 * k) * self.I
            acc += float(np.abs(np.linalg.solve(M, self.H)).max())
            acc += float(np.linalg.eigvals(self.A).real.max())
            acc += sum(0.5 * i for i in range(100))
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Reference over probe time (1 at the fast speed); the better of
        two probes, so that a burst within one probe counts less."""
        return self.REFERENCE_S / min(self._once(), self._once())


#: tvmeter.cli functions after whose return the probe may run: the end of
#: each output row, and each generalized-SQL scan (a threshold step)
PROBE_POINTS = ("_figures_row", "generalized_sql")


@dataclass
class Pass:
    """One pass: per command, its time and its time scaled by the probe."""

    raw: list[float]
    scaled: list[float]
    ok: list[bool]


def run_pass(cli, commands, pass_dir: Path, probe: SpeedProbe, tracer=None) -> Pass:
    """Run the commands once, in order.

    The probe runs after each command and, once ``EVERY_S`` has passed
    since the last probe, at the returns of the ``PROBE_POINTS`` functions
    of ``tvmeter.cli`` that exist; its own time is excluded.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    acc = {"start": 0.0, "raw": 0.0, "scaled": 0.0}

    def stretch_done() -> None:
        now = time.perf_counter()
        acc["raw"] += now - acc["start"]
        acc["scaled"] += (now - acc["start"]) * probe.speed()
        acc["start"] = time.perf_counter()

    def probe_after(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if time.perf_counter() - acc["start"] >= probe.EVERY_S:
                stretch_done()
            return out
        return wrapper

    originals = {name: getattr(cli, name) for name in PROBE_POINTS if hasattr(cli, name)}
    for name, fn in originals.items():
        setattr(cli, name, probe_after(fn))
    result = Pass([], [], [])
    try:
        for i, cmd in enumerate(commands):
            argv = list(cmd.argv) + ["--output", str(pass_dir / f"{i:03d}-{cmd.label}.csv")]
            acc.update(raw=0.0, scaled=0.0, start=time.perf_counter())
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(f"cli.{cmd.label}"):
                        rc = cli.main(argv)
            except Exception:  # a crashing command is a failed operation, not a crash here
                traceback.print_exc()
                rc = -1
            stretch_done()
            result.raw.append(acc["raw"])
            result.scaled.append(acc["scaled"])
            result.ok.append(rc == 0)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return result


def wall(passes: list[Pass]) -> float:
    """One warm pass: the median over passes of the pass's scaled time."""
    return statistics.median(sum(p.scaled) for p in passes)


def bench(workload: str, seed: int, seconds: float, trace: int,
          rows: int | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, list[str]]:
    """Run one benchmark; returns the result object and report lines."""
    tv = prepare()
    import tvmeter.cli as cli

    out_dir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "config").mkdir(parents=True)
    report = [f"env: {json.dumps(environment(), sort_keys=True)}",
              f"workload: {workload} (seed {seed}) - {workloads.WHY[workload]}"]

    cmds = workloads.commands(ROOT, workload, seed, out_dir / "config", rows)
    warm_dir = out_dir / "config" / "warmup"
    warm_dir.mkdir()
    probe = SpeedProbe()
    setup_s = measure_setup(setup_repeats, probe) if trace == 0 else None
    run_pass(cli, workloads.commands(ROOT, workload, seed, warm_dir, WARMUP_ROWS),
             out_dir / "warmup", probe)

    untraced, traced_passes, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        untraced.append(run_pass(cli, cmds, out_dir / f"pass{len(untraced)}", probe))
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                traced_passes.append(
                    run_pass(cli, cmds, out_dir / f"traced{len(tracers)}", probe, tracer))
            tracers.append(tracer)
        now = time.perf_counter()
        # stop before a pass that would end after the time is up
        if len(untraced) >= MIN_PASSES[trace] and now + (now - t_pass) - t_start > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness, outside the timed region
    checker = checks.Checker(tv)
    failed = 0
    first_ok = untraced[0].ok
    dirs = [out_dir / f"pass{k}" for k in range(len(untraced))]
    dirs += [out_dir / f"traced{k}" for k in range(len(tracers))]
    for i, cmd in enumerate(cmds):
        name = f"{i:03d}-{cmd.label}.csv"
        first = dirs[0] / name
        if not first_ok[i]:
            failed += cmd.rows * len(dirs)
            checker.messages.append(f"{cmd.label}: `tv {' '.join(cmd.argv)}` failed")
            continue
        bad = checker.check(cmd.label, first)
        if seed == 0 and rows is None:
            bad |= checker.compare_reference(cmd.label, first)
        failed += len(bad)
        content = first.read_bytes()
        for d in dirs[1:]:
            path = d / name
            if not path.is_file() or path.read_bytes() != content:
                failed += cmd.rows
                checker.messages.append(f"{cmd.label}: output of {d.name} differs from pass0")
    attempted = sum(cmd.rows for cmd in cmds) * len(dirs)
    correct = failed == 0

    pass_rows = sum(cmd.rows for cmd in cmds)
    wall_s = wall(untraced)
    for label in dict.fromkeys(cmd.label for cmd in cmds):
        idx = [i for i, cmd in enumerate(cmds) if cmd.label == label]
        per_pass = [sum(p.scaled[i] for i in idx) for p in untraced]
        report.append(f"command {label}: {sum(cmds[i].rows for i in idx)} rows in "
                      f"{len(idx)} tv call(s), median {statistics.median(per_pass):.4f} s "
                      f"over {len(per_pass)} passes: {[round(t, 4) for t in per_pass]}")
    report.append(f"unscaled pass times: {[round(sum(p.raw), 4) for p in untraced]} s")
    if trace == 0:
        metrics = {"wall_s": wall_s, "rows_per_s": pass_rows / wall_s,
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        per_tracer = [tracing.layer_metrics(t, pass_rows, workloads.LABELS) for t in tracers]
        metrics = {}
        for name in per_tracer[0]:
            values = [m[name] for m in per_tracer]
            if name.endswith("_s"):
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) != 1:
                correct = False
                checker.messages.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        metrics["check.max_rel_dev"] = checker.max_rel_dev
        metrics["check.rows_checked"] = checker.rows_checked
        metrics["check.t_rounding_rows"] = checker.t_rounding_rows
        metrics["trace.overhead_s"] = wall(traced_passes) - wall_s
        missing = tracing.missing_spans(tracers[-1], workload)
        if missing:
            raise BenchError(f"expected spans recorded zero calls on {workload}: {missing}")
        tracers[-1].write(out_dir / "spans.csv")
        units = {name: unit(name) for name in metrics}
        report.append(f"spans: {len(tracers[-1])} in the last traced pass, "
                      f"written to {out_dir / 'spans.csv'}")
    report.append(f"passes: {len(untraced)} untraced, {len(tracers)} traced; "
                  f"rows per pass {pass_rows}; attempted {attempted}, failed {failed}")
    report += [f"check: {msg}" for msg in checker.messages[:50]]
    for name, value in metrics.items():
        report.append(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def self_test() -> int:
    """Tiny run of every workload in both modes: every metric of
    BENCHMARK.json prints with its unit and every row check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    tv = prepare()
    checker = checks.Checker(tv)
    for path in sorted(checks.REFERENCE.glob("*.csv")):
        if checker.check(path.stem, path):
            errors.append(f"reference table {path.name} fails its row checks")
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report = bench(wl["name"], 1, 0.0, trace, rows=SELF_TEST_ROWS, setup_repeats=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{wl['name']} trace {trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{wl['name']} trace {trace}: {result['failed']} failed rows")
                errors += [line for line in report if line.startswith("check:")]
            print(f"self-test {wl['name']} trace {trace}: {result['attempted']} rows, "
                  f"{result['failed']} failed, {len(got)} metrics")
    for err in errors:
        print(f"self-test: {err}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result, report = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
