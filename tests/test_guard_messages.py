"""The error each guard raises, by class and exact text, on one point and
on a stack whose first failing point is not its first point.

A stack raises the error of its first failing point, in stack order,
with that point's numbers, as a loop over the points would; one point
raises the same error as the stack of it alone.
"""

import numpy as np
import pytest

from tvmeter import (
    FOUR_MODE,
    BathSpec,
    DegenerateMeter,
    LinearModel,
    SingularAtFrequency,
    UnstableModel,
    check_stable,
    conditional_variance,
    cqnc_conditional_variance,
    evaluate,
    vc_on_grid,
)

GOOD = np.diag([0.5, 2.0, 1.5, 1.5, 1.0, 1.0]).astype(complex)


def _with(**entries):
    """GOOD with the (i, j) entries ``e<i><j>`` set, Hermitian."""
    V = GOOD.copy()
    for key, value in entries.items():
        i, j = int(key[1]), int(key[2])
        V[i, j], V[j, i] = value, np.conj(value)
    return V


#: a dead meter (V_mm at the floor), then V_c below -tol, in both orders
DEAD_METER = _with(e11=1e-15)
NEGATIVE = _with(e22=0.1, e21=0.6 + 0.8j)
#: the CQNC channel (V_aa at the floor) and block (V_mm V_aa - |V_ma|^2 = 0)
DEAD_ANCILLA = _with(e44=1e-16)
SINGULAR_BLOCK = _with(e44=0.5, e14=1.0j)


def _meter(V):
    return conditional_variance(V[..., :4, :4], FOUR_MODE)


@pytest.mark.parametrize("kernel, stack, message", [
    (_meter, [DEAD_METER], "meter variance 1.000e-15 is not positive"),
    (_meter, [NEGATIVE], "conditional variance -4.000e-01 below zero"),
    (_meter, [GOOD, NEGATIVE, DEAD_METER], "conditional variance -4.000e-01 below zero"),
    (_meter, [GOOD, DEAD_METER, NEGATIVE], "meter variance 1.000e-15 is not positive"),
    (cqnc_conditional_variance, [DEAD_ANCILLA], "conditioning channel has vanishing variance"),
    (cqnc_conditional_variance, [SINGULAR_BLOCK], "meter/ancilla covariance block is singular"),
    (cqnc_conditional_variance, [NEGATIVE], "conditional variance -4.000e-01 below zero"),
    (cqnc_conditional_variance, [GOOD, GOOD, SINGULAR_BLOCK, DEAD_ANCILLA],
     "meter/ancilla covariance block is singular"),
    (cqnc_conditional_variance, [GOOD, DEAD_ANCILLA, SINGULAR_BLOCK],
     "conditioning channel has vanishing variance"),
    (cqnc_conditional_variance, [GOOD, NEGATIVE, DEAD_ANCILLA],
     "conditional variance -4.000e-01 below zero"),
], ids=["meter-floor", "below-zero", "stack-below-zero", "stack-meter-floor", "cqnc-channel",
        "cqnc-block", "cqnc-below-zero", "stack-cqnc-block", "stack-cqnc-channel",
        "stack-cqnc-below-zero"])
def test_degenerate_meter(kernel, stack, message):
    for V in (stack[0], np.array(stack)) if len(stack) == 1 else (np.array(stack),):
        with pytest.raises(DegenerateMeter) as err:
            kernel(V)
        assert type(err.value) is DegenerateMeter and str(err.value) == message


def test_degenerate_meter_of_a_model():
    # decoupled modes: a meter squeezed to 2.5e-17 (degenerate at every
    # frequency) and an undamped mechanical mode (singular at omega = 1)
    A = np.diag([-1.0, -1.0, 0.0, 0.0])
    A[2, 3], A[3, 2] = 1.0, -1.0
    Vin = np.diag([1e16, 2.5e-17, 0.5, 0.5])
    model = LinearModel(A, np.diag([np.sqrt(2.0)] * 2 + [0.0] * 2), Vin, FOUR_MODE)
    with pytest.raises(DegenerateMeter) as one:
        evaluate(model, 0.5)
    with pytest.raises(DegenerateMeter) as stacked:
        vc_on_grid(model, np.array([0.5, 1.0]))
    assert str(one.value) == str(stacked.value) == "meter variance 2.500e-17 is not positive"


def _undamped(omega_0):
    """A model whose mechanics are undamped at omega_0: A + iwI is singular
    there (and at -omega_0)."""
    A = np.diag([-1.0, -1.0, 0.0, 0.0])
    A[2, 3], A[3, 2] = omega_0, -omega_0
    A[1, 2] = A[3, 0] = 0.5
    return LinearModel(A, np.diag([np.sqrt(2.0)] * 2 + [0.1] * 2), np.diag([0.5] * 4), FOUR_MODE)


def test_singular_at_frequency():
    model = _undamped(1.0)
    with pytest.raises(SingularAtFrequency) as one:
        evaluate(model, 1.0)
    assert str(one.value) == "drift matrix singular at omega=1.0 (reciprocal condition 1.872e-17)"
    with pytest.raises(SingularAtFrequency) as grid:
        vc_on_grid(model, np.array([0.5, -1.0, 1.0]))
    assert str(grid.value) == "drift matrix singular at omega=-1.0 (reciprocal condition 1.872e-17)"
    assert grid.value.omega == -1.0 and type(grid.value.omega) is float


def test_singular_model_of_a_stack():
    models = [_undamped(w) for w in (2.0, 1.0, 1.0)]
    stack = LinearModel(np.array([m.A for m in models]), models[0].H, models[0].Vin, FOUR_MODE)
    with pytest.raises(SingularAtFrequency) as err:
        evaluate(stack, 1.0, BathSpec())
    assert str(err.value) == "drift matrix singular at omega=1.0 (reciprocal condition 1.872e-17)"


def test_unstable_model():
    stable, unstable, worse = -np.eye(4), -np.eye(4), -np.eye(4)
    unstable[2, 2], worse[2, 2] = 0.25, 2.0
    for A in (unstable, np.array([stable, unstable, worse])):
        with pytest.raises(UnstableModel) as err:
            check_stable(A)
        assert str(err.value) == "drift matrix is not strictly stable (max Re eigenvalue 2.500e-01)"
        assert type(err.value.max_real) is float
