"""Write ``golden/pulsed_oracle.json``: the figures of the pulsed readout
from 30-digit quadrature (``test_pulsed._oracle``) on the grid gamma /
kappa in {1e-9, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1} x kappa tau in {0.012,
0.53, 1, 5, 50}, for both filters, at kappa = 1, g = alpha2 = 0.6, n_m =
1e7 and the V0 of the ``tv pulsed`` preparation.  Every value is a string
of 30 significant digits.  Takes about a minute:

    python tests/record_pulsed_oracle.py
"""

import json
from pathlib import Path

import mpmath as mp
from test_pulsed import _grid_params, _oracle

from tvmeter import BathSpec, prepare_state_lyapunov

GAMMAS = [1e-9, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0]
TAUS = [0.012, 0.53, 1.0, 5.0, 50.0]


def main():
    V0, _ = prepare_state_lyapunov(1.0, 1e-9, 0.6, 0.2, BathSpec(n_m=1e7))
    grid = dict(kappa=1.0, g=0.6, alpha2=0.6, n_m=1e7, V0=V0, gammas=GAMMAS, taus=TAUS, rows=[])
    for shape in ("matched", "flat"):
        for gamma in GAMMAS:
            p = _grid_params(grid, gamma)
            for tau in TAUS:
                figures = _oracle(p, tau, shape)
                grid["rows"].append(dict(pulse_shape=shape, gamma=gamma, tau=tau, **{
                    name: mp.nstr(value, 30) for name, value in figures.items()}))
    out = Path(__file__).parent / "golden" / "pulsed_oracle.json"
    out.write_text(json.dumps(grid, indent=1) + "\n")


if __name__ == "__main__":
    main()
