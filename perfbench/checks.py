"""Row checks on the tables a workload pass wrote (run outside timing).

Every row: 0 <= T_s, T_m <= 1 (up to ``T_ROUNDING``), V_c >= 0 and the regime equals
``classify_regime``.  fig5 rows match ``nu_model_closed_metrics`` and fig9
rows ``dual_tweezer_metrics`` (on the compound signal variance), both at
relative 1e-9.  Every omega- or C-optimized row reproduces, at relative
1e-9, with a scalar library evaluation at the row's reported argument;
the threshold crossing reproduces its level with a scalar generalized-SQL
scan.  At seed 0 the tables are also compared with the reference tables
in ``reference/``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"

#: tolerance of the scalar-path and closed-form comparisons
REL_TOL = 1e-9
#: reference tolerances: exact-path rows, and the V_c / other columns of
#: optimized rows, whose argument may move within the scan's 1e-6 tolerance
REF_TOL = 1e-9
REF_VC_OPT_TOL = 1e-6
REF_OPT_TOL = 1e-3
#: relative tolerance of the threshold level (bisection stops at 1e-6 in nu)
LEVEL_TOL = 1e-5

#: rounding admitted above T = 1: a transfer coefficient computed as
#: V_x / (V_x + n_eq) with n_eq = -0 up to rounding reads 1 + 2.2e-16
#: (fig9 rows 42, 50, 52 and 53 at seed 0); such rows are counted apart
T_ROUNDING = 1e-15

FIGURES = ("Vc", "Ts", "Tm")


def read_table(path: Path) -> tuple[dict, list[str], list[dict]]:
    """(resolved configuration, columns, rows) of a `tv` CSV table."""
    config: dict = {}
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif not line.startswith("#"):
            lines.append(line)
    columns = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        row = {}
        for col, text in zip(columns, line.split(",")):
            try:
                row[col] = float(text)
            except ValueError:
                row[col] = text
        rows.append(row)
    return config, columns, rows


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _bath(tv, b: dict):
    return tv.BathSpec(
        n_m=b["n_m"], m_sq=complex(b["m_sq_re"], b["m_sq_im"]), n_c=b["n_c"], eta=b["eta"]
    )


def scalar_figures(tv, scenario: str, p: dict, bath, omega: float, conditioning: str):
    """Figures of one optimized row through the scalar library path, with
    the CLI's parameter conventions (mu/nu/xi in units of gamma)."""
    if scenario == "displacement":
        model = tv.displacement_model(
            tv.DisplacementParams(p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"]), bath)
        return tv.evaluate(model, omega, bath=bath)
    if scenario == "cqnc":
        model = tv.cqnc_model(
            tv.CqncParams(p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"]), bath)
        return tv.evaluate(model, omega, bath=bath, conditioning=conditioning)
    if scenario == "qnd-imperfect":
        model = tv.imperfect_qnd_model(tv.ImperfectQndParams(
            p["kappa"], p["gamma"], g=p["g"], C=p["C"],
            delta_c=p["delta_c"] * p["kappa"], mu=p["mu"] * p["gamma"],
            nu=p["nu"] * p["gamma"], xi=p["xi"] * p["gamma"]), bath)
        return tv.evaluate(model, omega, bath=bath)
    if scenario == "qnd-floquet":
        fd = tv.decompose_drift(
            p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"], order=int(p["order"]))
        return tv.floquet_metrics(fd, bath, omega)
    raise ValueError(f"no scalar path for optimized scenario {scenario!r}")


class Checker:
    """Accumulates failed rows and the largest scalar/closed-form deviation."""

    def __init__(self, tv) -> None:
        self.tv = tv
        self.max_rel_dev = 0.0
        self.rows_checked = 0
        self.t_rounding_rows = 0
        self.messages: list[str] = []

    def _close(self, row: dict, want, label: str, index: int) -> bool:
        ok = True
        for col in FIGURES:
            dev = rel_dev(row[col], float(getattr(want, col)))
            self.max_rel_dev = max(self.max_rel_dev, dev)
            if not dev <= REL_TOL:
                self.messages.append(f"{label} row {index}: {col} deviates by {dev:.3g}")
                ok = False
        return ok

    def _generic(self, row: dict, label: str, index: int) -> bool:
        Vc, Ts, Tm = row["Vc"], row["Ts"], row["Tm"]
        regime = self.tv.classify_regime(Vc, Ts, Tm).value
        top = 1.0 + T_ROUNDING
        ok = 0.0 <= Ts <= top and 0.0 <= Tm <= top and Vc >= 0.0 and row["regime"] == regime
        if ok and max(Ts, Tm) > 1.0:
            self.t_rounding_rows += 1
            self.messages.append(f"{label} row {index}: T exceeds 1 by {max(Ts, Tm) - 1.0:.2g} (rounding)")
        if not ok:
            self.messages.append(
                f"{label} row {index}: Vc={Vc!r} Ts={Ts!r} Tm={Tm!r} regime={row['regime']}"
            )
        return ok

    def check(self, label: str, path: Path) -> set[int]:
        """Check one table; returns the indices of failed rows."""
        tv = self.tv
        config, columns, rows = read_table(path)
        self.rows_checked += len(rows)
        if "crossing" in columns:
            return {i for i, row in enumerate(rows) if not self._threshold(row, config, label)}
        bath = _bath(tv, config["bath"])
        scenario, params = config["scenario"], config["parameters"]
        swept = columns[0]
        failed = set()
        for i, row in enumerate(rows):
            ok = self._generic(row, label, i)
            p = dict(params)
            p[swept] = row[swept]
            if swept == "C":
                p["g"] = None
            if "C_opt" in columns:
                p["C"], p["g"] = row["C_opt"], None
            if "C_opt" in columns or config["optimize_frequency"]:
                want = scalar_figures(tv, scenario, p, bath, row["omega"], config["conditioning"])
                ok &= self._close(row, want, label, i)
            elif label == "fig5":
                want = tv.nu_model_closed_metrics(p["C"], p["nu"] * p["gamma"], p["gamma"], bath)
                ok &= self._close(row, want, label, i)
            elif label == "fig9":
                frac = p["readout_fraction"]
                dp = tv.DualTweezerParams(
                    omega_m=p["omega_m"], gamma=p["gamma"], kappa_1=p["kappa1"],
                    kappa_2=p["kappa2"], g_1=p["g_total"] * (1.0 - frac) ** 0.5,
                    g_2=p["g_total"] * frac**0.5, alpha_1=p["alpha1"], alpha_2=p["alpha2"])
                vx = tv.compound_signal_variances(dp, bath, 0.0)[1]
                want = tv.dual_tweezer_metrics(dp.C_1, dp.C_2, p["alpha1"], p["alpha2"], vx)
                ok &= self._close(row, want, label, i)
            if not ok:
                failed.add(i)
        return failed

    def _threshold(self, row: dict, config: dict, label: str) -> bool:
        tv = self.tv
        lo, hi = workloads.THRESHOLD_BOUNDS
        bath = _bath(tv, config["bath"])
        p = dict(config["parameters"])
        p[row["vary"]] = row["crossing"]

        def family(C: float):
            return scalar_figures(tv, config["scenario"], dict(p, C=C, g=None), bath, 0.0, "meter")

        value = tv.generalized_sql(
            family, *workloads.THRESHOLD_C_BOUNDS, count=workloads.THRESHOLD_C_COUNT).value
        dev = rel_dev(value, row["level"])
        ok = lo <= row["crossing"] <= hi and dev <= LEVEL_TOL
        if not ok:
            self.messages.append(
                f"{label}: min Vc at crossing {row['crossing']!r} is {value!r}, level {row['level']!r}"
            )
        return ok

    def compare_reference(self, label: str, path: Path) -> set[int]:
        """Compare a seed-0 table with its reference; returns failed row indices.

        On optimized rows with a competing optimum within 1% only V_c is
        compared, because the argmin can legitimately switch branch.
        """
        config, columns, rows = read_table(path)
        optimized = bool(config.get("optimize_frequency")) or "C_opt" in columns
        _, ref_columns, ref_rows = read_table(REFERENCE / f"{label}.csv")
        if columns != ref_columns or len(rows) != len(ref_rows):
            self.messages.append(f"{label}: table shape differs from the reference")
            return set(range(max(len(rows), 1)))
        competing = set(json.loads((REFERENCE / "competing.json").read_text()).get(label, []))
        failed = set()
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            cols = ["Vc"] if i in competing else columns
            bad = []
            for col in cols:
                got, want = row[col], ref[col]
                if isinstance(want, str) or col in ("at_boundary", "n_branches"):
                    if got != want:
                        bad.append(col)
                    continue
                if col == "crossing":
                    tol = LEVEL_TOL
                elif not optimized or col == columns[0]:
                    tol = REF_TOL
                elif col == "Vc":
                    tol = REF_VC_OPT_TOL
                else:
                    tol = REF_OPT_TOL
                if not rel_dev(got, want) <= tol:
                    bad.append(col)
            if bad:
                self.messages.append(f"{label} row {i}: {', '.join(bad)} differ from the reference")
                failed.add(i)
        return failed
