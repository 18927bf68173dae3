"""Per-layer spans recorded from outside the program.

Public functions of the tvmeter layers are wrapped where their callers
look them up: every ``tvmeter`` module attribute bound to a traced
function is replaced for the duration of a traced pass and restored
afterwards.  Each call records a span (name, start, end, parent) in
flat in-memory arrays; nothing is written until the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

#: layer -> traced functions, as (module, attribute) of their definition
TRACED = {
    "cli": [("tvmeter.cli", "scenario_figures"), ("tvmeter.cli", "write_table")],
    "optimize": [
        ("tvmeter.optimize", "minimize_vc_over_frequency"),
        ("tvmeter.optimize", "generalized_sql"),
        ("tvmeter.optimize", "find_threshold"),
        ("tvmeter.optimize", "minimize_on_grid"),
        ("tvmeter.optimize", "golden_section"),
    ],
    "models": [
        ("tvmeter.models", "displacement_model"),
        ("tvmeter.models", "cqnc_model"),
        ("tvmeter.models", "imperfect_qnd_model"),
        ("tvmeter.levitation", "single_tweezer_qnd_model"),
        ("tvmeter.floquet", "decompose_drift"),
    ],
    "core": [("tvmeter.core", "check_stable"), ("tvmeter.core", "build_scattering")],
    "metrics": [("tvmeter.metrics", "evaluate")],
    "floquet": [("tvmeter.floquet", "floquet_metrics"), ("tvmeter.floquet", "sideband_scattering")],
    "levitation": [("tvmeter.levitation", "reduced_metrics")],
    "pulsed": [("tvmeter.pulsed", "pulsed_metrics"), ("tvmeter.pulsed", "prepare_state_lyapunov")],
}

#: span name of LinearModel.__post_init__ (patched on the class)
VALIDATE = "core.validate"


class Tracer:
    """Spans of one traced pass, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.singular = array("b")  # span ended by raising SingularAtFrequency
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.singular.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, singular_error):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except singular_error:
                self.singular[i] = 1
                raise
            finally:
                self._close(i)

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, parent, start, end."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


@contextmanager
def traced(tracer: Tracer):
    """Patch every traced function where it is looked up; restore on exit."""
    import tvmeter.core
    from tvmeter.errors import SingularAtFrequency

    patches = []  # (owner, attribute, original)
    try:
        for layer, targets in TRACED.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapper = tracer.wrap(f"{layer}.{attr}", original, SingularAtFrequency)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "tvmeter" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        cls = tvmeter.core.LinearModel
        original = cls.__post_init__
        patches.append((cls, "__post_init__", original))
        cls.__post_init__ = tracer.wrap(VALIDATE, original, SingularAtFrequency)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def span_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, total and self time (total minus direct children) per span name."""
    n = len(tracer)
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    stats: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names
    }
    for i in range(n):
        s = stats[tracer.names[tracer.name[i]]]
        dur = tracer.end[i] - tracer.start[i]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rows: int, labels) -> dict[str, float]:
    """Per-layer metrics of one traced pass that wrote ``rows`` rows."""
    stats = span_stats(tracer)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    names = [tracer.names[k] for k in tracer.name]
    parent_name = [names[p] if p >= 0 else "" for p in tracer.parent]
    opt_names = {f"optimize.{a}" for _, a in TRACED["optimize"]}
    build_names = {f"models.{a}" for _, a in TRACED["models"]}
    # in_opt[i]: span i runs inside an optimizer call (parents precede children)
    in_opt = [False] * len(names)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            in_opt[i] = in_opt[p] or names[p] in opt_names
    evals = [i for i, nm in enumerate(names) if nm == "cli.scenario_figures"]
    builds = sum(1 for nm, pn in zip(names, parent_name) if nm in build_names and pn not in build_names)
    model_evals = get("metrics.evaluate", "calls") + get("floquet.floquet_metrics", "calls")

    m: dict[str, float] = {f"cli.{label}_s": get(f"cli.{label}", "total_s") for label in labels}
    m.update({
        "cli.scenario_figures.calls": get("cli.scenario_figures", "calls"),
        "cli.scenario_figures.self_s": get("cli.scenario_figures", "self_s"),
        "cli.write_table_s": get("cli.write_table", "total_s"),
        "optimize.grid_evals": sum(1 for i in evals if parent_name[i] == "optimize.minimize_on_grid"),
        "optimize.refine_evals": sum(1 for i in evals if parent_name[i] == "optimize.golden_section"),
        "optimize.evals_per_row": _ratio(sum(1 for i in evals if in_opt[i]), rows),
        "optimize.self_s": sum(get(nm, "self_s") for nm in opt_names),
        "models.builds": builds,
        "models.build_self_s": sum(get(nm, "self_s") for nm in build_names),
        "models.builds_per_eval": _ratio(builds, model_evals),
        "core.validate_s": get(VALIDATE, "total_s"),
        "core.check_stable.calls": get("core.check_stable", "calls"),
        "core.check_stable_s": get("core.check_stable", "total_s"),
        "core.build_scattering.calls": get("core.build_scattering", "calls"),
        "core.build_scattering_s": get("core.build_scattering", "total_s"),
        "core.singular_raises": sum(
            1 for i, nm in enumerate(names) if nm == "core.build_scattering" and tracer.singular[i]
        ),
        "metrics.evaluate.calls": get("metrics.evaluate", "calls"),
        "metrics.evaluate.self_s": get("metrics.evaluate", "self_s"),
        "floquet.floquet_metrics.calls": get("floquet.floquet_metrics", "calls"),
        "floquet.floquet_metrics_s": get("floquet.floquet_metrics", "total_s"),
        "floquet.sideband_scattering_s": get("floquet.sideband_scattering", "total_s"),
        "levitation.reduced_metrics.calls": get("levitation.reduced_metrics", "calls"),
        "levitation.reduced_metrics_s": get("levitation.reduced_metrics", "total_s"),
        "pulsed.pulsed_metrics.calls": get("pulsed.pulsed_metrics", "calls"),
        "pulsed.pulsed_metrics_s": get("pulsed.pulsed_metrics", "total_s"),
        "pulsed.prepare_state_lyapunov.calls": get("pulsed.prepare_state_lyapunov", "calls"),
        "pulsed.prepare_state_lyapunov_s": get("pulsed.prepare_state_lyapunov", "total_s"),
        "pulsed.lyapunov_per_row": _ratio(
            get("pulsed.prepare_state_lyapunov", "calls"), get("pulsed.pulsed_metrics", "calls")
        ),
    })
    return m


#: spans that must record calls on each workload (the layers it exercises)
EXPECTED = {
    "freq-opt": [
        "cli.scenario_figures", "cli.write_table", "optimize.minimize_vc_over_frequency",
        "optimize.minimize_on_grid", "optimize.golden_section", "models.displacement_model",
        "models.cqnc_model", VALIDATE, "core.check_stable", "core.build_scattering",
        "metrics.evaluate",
    ],
    "sql-scan": [
        "cli.scenario_figures", "cli.write_table", "optimize.generalized_sql",
        "optimize.find_threshold", "optimize.minimize_on_grid", "optimize.golden_section",
        "models.imperfect_qnd_model", "models.decompose_drift", VALIDATE, "core.check_stable",
        "core.build_scattering", "metrics.evaluate", "floquet.floquet_metrics",
        "floquet.sideband_scattering",
    ],
    "direct-rows": [
        "cli.scenario_figures", "cli.write_table", "models.cqnc_model",
        "models.imperfect_qnd_model", "models.single_tweezer_qnd_model",
        "models.decompose_drift", VALIDATE, "core.check_stable", "core.build_scattering",
        "metrics.evaluate", "floquet.floquet_metrics", "floquet.sideband_scattering",
        "levitation.reduced_metrics", "pulsed.pulsed_metrics", "pulsed.prepare_state_lyapunov",
    ],
}


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    stats = span_stats(tracer)
    return [nm for nm in EXPECTED[workload] if stats.get(nm, {}).get("calls", 0) == 0]
