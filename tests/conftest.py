"""Shared test settings.

Hypothesis runs without its per-example deadline: the test hosts are
small and slow down in bursts, which a wall-clock deadline reports as
flaky failures.  ``max_examples`` stays with each test.  The
``row_by_row_table`` fixture is the reference for stacked sweeps, and
:func:`output_covariance` the real output covariance of a model.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import settings

from tvmeter import build_scattering, cross_spectral_density
from tvmeter.cli import (
    _collect_param_flags,
    _default_omega,
    _figures_row,
    _swept_params,
    _sweep_values,
    build_config,
    build_parser,
    scenario_figures,
    write_table,
)

settings.register_profile("tvmeter", deadline=None)
settings.load_profile("tvmeter")


def output_covariance(model, omega):
    """Symmetrized (real) output covariance of ``model`` at one frequency:
    the real part of the cross-spectral density S V_in S^dagger."""
    return cross_spectral_density(build_scattering(model, omega), model.Vin).real


@pytest.fixture
def row_by_row_table():
    """Bytes of a fixed-frequency `tv sweep` (argv as for ``tv``, with
    ``--config`` read as the CLI reads it) from one ``scenario_figures``
    call per row: the scalar path that stacked sweeps must reproduce."""

    def table(argv: list[str]) -> bytes:
        args = build_parser().parse_args(argv)
        _collect_param_flags(args)
        doc = json.loads(Path(args.config).read_text()) if args.config else None
        cfg = build_config(doc, args)
        bath, omega = cfg.bath_spec(), _default_omega(cfg)
        rows = [
            _figures_row(cfg.sweep["param"], value, scenario_figures(
                cfg.scenario, _swept_params(cfg, value), bath, omega, cfg.conditioning))
            for value in _sweep_values(cfg)
        ]
        buf = io.StringIO()
        write_table(cfg, rows, buf)
        return buf.getvalue().encode()

    return table
