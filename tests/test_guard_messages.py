"""The error each guard raises, by class and exact text, on one point and
on a stack whose first failing point is not its first point.

A stack raises the error of its first failing point, in stack order,
with that point's numbers, as a loop over the points would; one point
raises the same error as the stack of it alone.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tvmeter import (
    FOUR_MODE,
    BathSpec,
    DegenerateMeter,
    LinearModel,
    PulsedParams,
    SingularAtFrequency,
    UnstableModel,
    check_stable,
    conditional_variance,
    cqnc_conditional_variance,
    evaluate,
    minimize_vc_over_frequency,
    pulsed_covariances,
    pulsed_metrics,
    vc_on_grid,
)
from tvmeter import (DualTweezerParams, NegativeLinewidth, TvmeterError, measurement_gain,
                     reduced_metrics)
from tvmeter.core import raise_first

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


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "vc"])
def test_singular_at_frequency_of_a_scan(stacked):
    # the grid 0.5, 1.0, 2.0 fails at its middle point, which the scan
    # names as evaluate names it, with a Python float
    model = _undamped(1.0)
    vc = (lambda ws: vc_on_grid(model, ws)) if stacked else None
    with pytest.raises(SingularAtFrequency) as scan:
        minimize_vc_over_frequency(lambda w: evaluate(model, w), 0.5, 2.0, count=3, vc=vc)
    with pytest.raises(SingularAtFrequency) as one:
        evaluate(model, 1.0)
    assert str(scan.value) == str(one.value)
    assert type(scan.value.omega) is float


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


#: a pulsed readout whose matched filter is undefined at tau = 0.05, 0.1 and
#: 0.2, each with its own number (kappa and gamma 3e-7 apart: M23 cancels)
CANCELLED_M23 = PulsedParams(kappa=1.0, gamma=0.9999997, omega_m=100.0, g=1.0, alpha2=1.0,
                             V0=1.0, bath=BathSpec(n_m=1.0))


@pytest.mark.parametrize("kernel", [pulsed_metrics, pulsed_covariances])
@pytest.mark.parametrize("tau, value", [
    (0.05, "-6.104e-05"),
    (0.2, "0.000e+00"),
    (np.array([0.05, 0.1, 0.2]), "-6.104e-05"),
    (np.array([0.2, 0.1, 0.05]), "0.000e+00"),
], ids=["first", "last", "stack-ascending", "stack-descending"])
def test_matched_filter_of_a_tau_stack(kernel, tau, value):
    """A tau stack raises for its first failing tau in the caller's order,
    with the text of that tau alone, although its rows run sorted."""
    with pytest.raises(DegenerateMeter) as err:
        kernel(CANCELLED_M23, tau)
    assert str(err.value) == f"matched filter undefined: kappa * int M23^2 = {value}"


@pytest.mark.parametrize("tau, value", [
    (0.65, "-1.885e+12"),
    (0.9, "-1.199e+12"),
    (np.array([0.65, 1.0, 0.9]), "-1.885e+12"),
    (np.array([0.9, 1.0, 0.65]), "-1.199e+12"),
], ids=["first", "last", "stack-ascending", "stack-descending"])
def test_meter_variance_of_a_tau_stack(tau, value):
    """The filtered meter variance cancels to noise of order -1e12 at these
    tau (tau = 1 passes): a stack raises for its first failing tau in the
    caller's order, with the text of that tau alone (a stack of one),
    although the stack's own noise differs and its smallest is another
    row's."""
    with pytest.raises(DegenerateMeter) as err:
        pulsed_metrics(CANCELLED_M23, tau)
    assert str(err.value) == f"meter variance {value} is not positive"


def _raised(call):
    """(class, text) of the error that ``call()`` raises, or None."""
    try:
        call()
    except Exception as err:  # noqa: BLE001 - any error is compared
        return type(err), str(err)
    return None


def _loop(calls):
    """The error of the first call that raises, as a loop over them would."""
    return next(filter(None, map(_raised, calls)), None)


def test_tau_stack_raises_what_a_loop_raises():
    # tau = -1 fails its first guard, but tau = 0.05 before it fails the matched filter
    taus = [0.05, -1.0]
    want = _loop(lambda t=t: pulsed_metrics(CANCELLED_M23, t) for t in taus)
    assert want == (DegenerateMeter, "matched filter undefined: kappa * int M23^2 = -6.104e-05")
    assert _raised(lambda: pulsed_metrics(CANCELLED_M23, np.array(taus))) == want


def test_parameter_stack_raises_what_a_loop_raises():
    # kappa fails at row 1, but row 0 fails on gamma first
    rows = dict(kappa=[1.0, -1.0], gamma=[-1.0, 1.0])
    fixed = dict(omega_m=100.0, g=1.0, alpha2=1.0, V0=1.0, bath=BathSpec())
    want = _loop(lambda k=k: PulsedParams(**{f: v[k] for f, v in rows.items()}, **fixed)
                 for k in range(2))
    assert want == (ValueError, "gamma must be positive, got -1.0")
    assert _raised(lambda: PulsedParams(**{f: np.array(v) for f, v in rows.items()},
                                        **fixed)) == want


#: gamma = 1e-9 overflows the power series at tau = 3.2e8, and gamma =
#: 0.9999997 loses the matched filter (kappa * int M23^2 = 0) at tau = 0.05
OVERFLOWING = PulsedParams(kappa=1.0, gamma=1e-9, omega_m=100.0, g=0.6, alpha2=0.6, V0=1.0,
                           bath=BathSpec(n_m=1.0))


@pytest.mark.parametrize("kernel", [pulsed_metrics, pulsed_covariances])
@pytest.mark.parametrize("gamma, tau, text", [
    ([1e-9, 0.9999997], [3.2e8, 0.05], "pulsed readout integrals: overflow encountered in "),
    ([0.9999997, 1e-9], [0.05, 3.2e8], "matched filter undefined: kappa * int M23^2 = 0.000e+00"),
    ([1e-9, 1e-9], [1.0, 3.2e8], "pulsed readout integrals: overflow encountered in "),
], ids=["overflow-first", "filter-first", "shared-rates"])
def test_overflowing_row_in_caller_order(kernel, gamma, tau, text):
    """A row whose term algebra overflows fails in its place in the
    caller's order, with the text it raises alone."""
    want = _loop(lambda g=g, t=t: kernel(replace(OVERFLOWING, gamma=g), t)
                 for g, t in zip(gamma, tau))
    assert want[1].startswith(text)
    stack = replace(OVERFLOWING, gamma=np.array(gamma) if gamma[0] != gamma[1] else gamma[0])
    assert _raised(lambda: kernel(stack, np.array(tau))) == want


@pytest.mark.parametrize("kernel", [pulsed_metrics, pulsed_covariances])
@pytest.mark.parametrize("tau", [np.nan, np.array([1.0, np.nan])], ids=["nan", "stack-nan"])
def test_nan_pulse_duration_fails_its_guard(kernel, tau):
    """A NaN pulse duration is not positive: it raises instead of giving NaN figures."""
    with pytest.raises(ValueError, match="^pulse duration must be positive$"):
        kernel(OVERFLOWING, tau)
    with pytest.raises(ValueError, match="^pulse duration must be nonnegative$"):
        measurement_gain(OVERFLOWING, np.nan)


class _Failed(Exception):
    """The error of guard ``g`` at flat point ``k``."""


@st.composite
def _guards(draw):
    """1-3 failure masks over a stack of up to two axes: bools, or arrays
    whose shapes broadcast to the stack's (its trailing axes, each of its
    length or 1), as the masks of ``raise_first`` must."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    masks = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            masks.append(draw(st.booleans()))
            continue
        axes = shape[len(shape) - draw(st.integers(0, len(shape))):]
        own = tuple(draw(st.sampled_from([n, 1])) for n in axes)
        masks.append(draw(hnp.arrays(bool, own, elements=st.booleans())))
    return masks


@settings(max_examples=200)
@given(masks=_guards())
# masks of shapes (2, 1) and (3, 1) once came for a (1, 1) stack: each broadcasts with
# the stack but not with the other; these are masks of such stacks that broadcast to them
@example(masks=[np.array([[True]]), np.array([False]), False])
@example(masks=[np.array([[False], [True]]), np.array([[True]]), np.array([False])])
def test_raise_first_is_the_loop_over_points_and_guards(masks):
    shape = np.broadcast_shapes(*map(np.shape, masks))
    want = None
    for k in range(math.prod(shape)):
        failing = [g for g, mask in enumerate(masks) if np.broadcast_to(mask, shape).flat[k]]
        if failing:
            want = (failing[0], k)
            break
    try:
        raise_first(*((mask, lambda k, g=g: _Failed(g, k)) for g, mask in enumerate(masks)))
    except _Failed as err:
        got = err.args
    else:
        got = None
    assert got == want


@pytest.mark.parametrize("diagonal, text", [
    ([0.1, 0.5, 0.2, 0.5], "input covariance block of mode 0 violates the Heisenberg bound "
                           "(det = 0.05)"),
    ([0.5, 0.5, 0.2, 0.5], "input covariance block of mode 1 violates the Heisenberg bound "
                           "(det = 0.1)"),
], ids=["first-of-two", "second"])
def test_heisenberg_bound_names_the_first_failing_mode(diagonal, text):
    with pytest.raises(ValueError) as err:
        LinearModel(-np.eye(4), np.eye(4), np.diag(diagonal), FOUR_MODE)
    assert str(err.value) == text


#: a primary cavity so narrow that kappa_1^2 underflows: the compound signal overflows
NARROW = 2.2250738585072014e-308


@pytest.mark.parametrize("kappa_1, alpha_1, error", [
    (NARROW, 0.2, (TvmeterError, "kappa_1 = 2.225e-308 overflows the compound signal")),
    (1.0, 3.0, (NegativeLinewidth, "broadened linewidth -1.250e+00 is not positive")),
    ([NARROW, 1.0], [0.2, 3.0], None),
    ([1.0, NARROW], [3.0, 0.2], None),
], ids=["overflow", "negative", "stack-overflow-first", "stack-negative-first"])
def test_broadened_linewidth_of_a_stack(kappa_1, alpha_1, error):
    """A kappa_1 whose square underflows fails as a numerical error (it
    divided by zero), in loop order with the negative linewidth."""
    params = dict(omega_m=100.0, gamma=1e-9, kappa_2=1.0, g_1=1.0, g_2=0.5, alpha_2=0.2)
    if np.ndim(kappa_1):
        error = _loop(lambda k=k: reduced_metrics(DualTweezerParams(
            kappa_1=kappa_1[k], alpha_1=alpha_1[k], **params), BathSpec()) for k in range(2))
        kappa_1, alpha_1 = np.array(kappa_1), np.array(alpha_1)
    stack = DualTweezerParams(kappa_1=kappa_1, alpha_1=alpha_1, **params)
    assert _raised(lambda: reduced_metrics(stack, BathSpec())) == error
