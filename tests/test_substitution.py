"""The block forward substitution of ``build_scattering`` against the dense
path (``core._dense_scattering``, LAPACK's solve) and a 40-digit solve.

Drifts that are block lower triangular after a permutation, with diagonal
blocks of one or two quadratures, take the substitution.  On generated
patterns of that kind and on each builder's pattern, a stack of 0 to 3
points must agree with the dense path and the 40-digit solve, raise the
dense path's ``SingularAtFrequency`` (frequency and rcond) on near-singular
and NaN matrices, and give each point the bits of its one-point call.  The
recipe scenarios take the substitution; a detuned imperfect readout, whose
loop X -> p -> x -> Y -> X is one block of four, takes the dense path.
An empty stack gives empty results on both paths.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tvmeter.core as core
from tvmeter import (
    CQNC_LAYOUT,
    FOUR_MODE,
    SCENARIOS,
    BathSpec,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    LinearModel,
    SingularAtFrequency,
    TweezerParams,
    build_scattering,
    cqnc_model,
    decompose_drift,
    displacement_model,
    evaluate,
    floquet_vc,
    ideal_qnd_model,
    imperfect_qnd_model,
    single_tweezer_qnd_model,
    vc_on_grid,
    with_parameter,
)

BATH = BathSpec(n_m=1.0)

#: the drift of each builder whose pattern takes the substitution
BUILDERS = {
    "displacement": displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=2.0), BATH),
    "cqnc": cqnc_model(CqncParams(10.0, 0.01, 1.0, C=2.0), BATH),
    "qnd-ideal": ideal_qnd_model(10.0, 0.01, BATH, C=2.0),
    "qnd-imperfect": imperfect_qnd_model(ImperfectQndParams(
        10.0, 0.01, C=2.0, mu=0.002, nu=0.001, xi=0.001), BATH),
    "lev-single": single_tweezer_qnd_model(TweezerParams(
        omega_m=100.0, alpha=0.2, g=0.3, kappa=1.0, gamma=1e-6, Omega=100.5), BATH),
}

PATTERNS = [model.A != 0 for model in BUILDERS.values()]


@st.composite
def _block_pattern(draw, n):
    """Nonzero entries of a drift that is block lower triangular, with
    blocks of one or two quadratures, after a random permutation."""
    order = draw(st.permutations(range(n)))
    blocks = []
    while sum(map(len, blocks)) < n:
        start = sum(map(len, blocks))
        size = draw(st.sampled_from([1, 2])) if n - start > 1 else 1
        blocks.append(order[start:start + size])
    pattern = np.eye(n, dtype=bool)
    for later, block in enumerate(blocks):
        if len(block) == 2:
            pattern[block[0], block[1]] = pattern[block[1], block[0]] = True
        for earlier in blocks[:later]:
            for i in block:
                for j in earlier:
                    pattern[i, j] = draw(st.booleans())
    return pattern


@st.composite
def _drifts(draw):
    """(A, h, omega): a stack of 0 to 3 drifts on one pattern (a generated
    one or a builder's), input couplings (some of them zero), and
    frequencies, one for the stack or one per point."""
    n = draw(st.sampled_from([4, 6]))
    pattern = draw(st.one_of(_block_pattern(n), st.sampled_from(
        [p for p in PATTERNS if len(p) == n])))
    points = draw(st.sampled_from([0, 1, 2, 3]))
    A = draw(arrays(float, (points, n, n), elements=st.floats(-1.0, 1.0)))
    A = np.where(pattern, np.where(np.abs(A) < 1e-3, 0.5, A), 0.0)
    diagonal = np.arange(n)
    A[:, diagonal, diagonal] = -0.1 - np.abs(A[:, diagonal, diagonal])  # damped
    h = draw(arrays(float, n, elements=st.one_of(st.floats(0.1, 3.0), st.just(0.0))))
    if draw(st.booleans()):
        omega = draw(st.floats(-2.0, 2.0))
    else:
        omega = draw(arrays(float, points, elements=st.floats(-2.0, 2.0)))
    return A, h, omega


def _model(A, h):
    n = A.shape[-1]
    return LinearModel(A, np.diag(h), 0.5 * np.eye(n), FOUR_MODE if n == 4 else CQNC_LAYOUT)


def _mp_scattering(A, h, omega):
    """S = -[H (A + iwI)^-1 H + I] of one drift at 40 digits."""
    import mpmath as mp

    n = len(A)
    with mp.workdps(40):
        M = mp.matrix([[mp.mpc(A[i, j], omega if i == j else 0) for j in range(n)]
                       for i in range(n)])
        H = mp.diag([mp.mpf(x) for x in h])
        S = -(H * mp.inverse(M) * H + mp.eye(n))
        return np.array([[complex(S[i, j]) for j in range(n)] for i in range(n)])


def _same_raise(model, omega):
    """The dense path's SingularAtFrequency (omega, rcond), or None; the
    substitution raises the same."""
    try:
        core._dense_scattering(model, omega)
    except SingularAtFrequency as err:
        with pytest.raises(SingularAtFrequency) as got:
            build_scattering(model, omega)
        assert (got.value.omega, got.value.rcond) == (err.omega, err.rcond)
        return err
    return None


@settings(max_examples=60, deadline=None)
@given(drift=_drifts(), defect=st.sampled_from([None, "tiny", "zero", "nan"]),
       where=st.integers(0, 5), exponent=st.floats(11.0, 15.0))
def test_substitution_matches_the_dense_path_and_the_oracle(drift, defect, where, exponent):
    A, h, omega = drift
    if defect and len(A):  # at one point and w = 0, a tiny, zero or NaN diagonal entry
        k, i = where % len(A), where % A.shape[-1]
        A[k, i, i] = {"tiny": -(10.0 ** -exponent), "zero": 0.0, "nan": np.nan}[defect]
        omega = np.where(np.arange(len(A)) == k, 0.0, omega)
    model = _model(A, h)
    n = A.shape[-1]
    assert core._substitution((A != 0).reshape(-1, n * n).any(0).tobytes(), n) is not None
    if _same_raise(model, omega):
        return
    S = build_scattering(model, omega)
    assert S.shape == (len(A), n, n)
    dense = core._dense_scattering(model, omega)
    for k, (a, w) in enumerate(zip(A, np.broadcast_to(omega, len(A)))):
        one = build_scattering(_model(a, h), float(w))
        np.testing.assert_array_equal(S[k], one)  # a stacked point has its own bits
        M = a + 1j * w * np.eye(n)
        bound = 64 * np.finfo(float).eps * np.linalg.cond(M)
        want = _mp_scattering(a, h, w)
        scale = np.abs(want).max()
        assert np.abs(S[k] - want).max() <= bound * scale
        assert np.abs(S[k] - dense[k]).max() <= 2 * bound * scale


@pytest.mark.parametrize("build, params", [
    (displacement_model, lambda C: DisplacementParams(10.0, 0.01, 1.0, C=C)),
    (imperfect_qnd_model, lambda C: ImperfectQndParams(10.0, 0.01, C=C, delta_c=0.5, nu=0.001)),
])
def test_stack_with_zero_couplings_keeps_each_points_bits(build, params):
    # C = 0 drops the couplings: those points take a plan of their own, and
    # the detuned coupled points, one block of four, the dense path
    Cs = np.array([0.0, 1.0, 0.0, 5.0])
    S = build_scattering(build(params(Cs), BATH), 0.7)
    for k, C in enumerate(Cs):
        np.testing.assert_array_equal(S[k], build_scattering(build(params(float(C)), BATH), 0.7))


def test_zero_on_the_diagonal_keeps_the_stack_whole(monkeypatch):
    # the plan reads the off-diagonal pattern alone: a point whose drift
    # has an exact zero on its diagonal is solved with the rest of the stack
    A = np.array([BUILDERS["displacement"].A] * 3)
    A[1, 0, 0] = 0.0
    singles = [build_scattering(_model(a, np.ones(4)), 0.7) for a in A]
    monkeypatch.setattr(core, "_by_pattern", lambda *a: pytest.fail("split by pattern"))
    np.testing.assert_array_equal(build_scattering(_model(A, np.ones(4)), 0.7), singles)


def test_split_stack_never_returns_a_group_that_raised(monkeypatch):
    # should the whole-stack guard pass where a group's guard raised, the
    # group's error stands instead of unfilled entries of S
    model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=np.array([0.0, 1.0])),
                               BATH)
    guard = core._require_regular

    def group_guard_raises(M, omega, solved=None, at=None):
        if at is not None:
            raise SingularAtFrequency(0.7, 0.0)
        guard(M, omega, solved, at)

    monkeypatch.setattr(core, "_require_regular", group_guard_raises)
    with pytest.raises(SingularAtFrequency) as err:
        build_scattering(model, 0.7)
    assert (err.value.omega, err.value.rcond) == (0.7, 0.0)


def _imperfect(delta_c):
    qnd = SCENARIOS["qnd-imperfect"]
    params = dict(qnd.defaults, nu=0.1, mu=0.05, xi=0.02, delta_c=delta_c, C=3.0)
    return qnd, params


#: recipe scenarios and parameters whose drifts take the substitution
STRUCTURED = {
    "displacement": (SCENARIOS["displacement"], SCENARIOS["displacement"].defaults),
    "cqnc": (SCENARIOS["cqnc"], SCENARIOS["cqnc"].defaults),
    "qnd-ideal": (SCENARIOS["qnd-ideal"], SCENARIOS["qnd-ideal"].defaults),
    "qnd-imperfect": _imperfect(0.0),
    "lev-single": (SCENARIOS["lev-single"], SCENARIOS["lev-single"].defaults),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_recipe_drifts_take_the_substitution(name, monkeypatch):
    scenario, params = STRUCTURED[name]
    monkeypatch.setattr(core, "_dense_scattering", lambda *a: pytest.fail("dense path"))
    conditioning = scenario.conditionings[-1]
    scenario.figures(params, BATH, scenario.default_omega(params), conditioning)
    scenario.vc(with_parameter(params, "C" if params.get("C") else "g", np.array([0.5, 2.0])),
                BATH, np.array([0.3, 1.0]), conditioning)


def test_detuned_imperfect_readout_takes_the_dense_path(monkeypatch):
    scenario, params = _imperfect(0.05)
    monkeypatch.setattr(core, "_substituted", lambda *a: pytest.fail("substitution"))
    scenario.figures(params, BATH, 0.3)


@pytest.mark.parametrize("model", [BUILDERS["displacement"], BUILDERS["cqnc"],
                                   imperfect_qnd_model(ImperfectQndParams(
                                       10.0, 0.01, C=0.3, delta_c=0.05, nu=0.001), BATH)])
def test_empty_stacks_give_empty_results(model):
    none = np.array([])
    n = model.A.shape[-1]
    assert build_scattering(model, none).shape == (0, n, n)
    assert vc_on_grid(model, none, BATH).shape == (0,)
    assert evaluate(model, none, BATH) == []
    stack = LinearModel(model.A[None][:0], model.H, model.Vin, model.layout)
    assert vc_on_grid(stack, 0.3, BATH).shape == (0,)
    assert evaluate(stack, 0.3, BATH) == []


def test_empty_parameter_arrays_build_empty_stacks():
    model = displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=np.array([])), BATH)
    assert model.A.shape == (0, 4, 4) and evaluate(model, 1.0, BATH) == []
    fd = decompose_drift(10.0, 0.01, 1.0, C=np.array([]))
    assert fd.A_zero.shape == (0, 4, 4) and floquet_vc(fd, BATH, 0.0).shape == (0,)


#: frequency grids of two stack shapes, each called again on the work array
#: the first call left
GRIDS = [np.geomspace(0.1, 10.0, 40), np.geomspace(0.2, 20.0, 40).reshape(2, 20)]


@pytest.mark.parametrize("name", ["displacement", "cqnc", "lev-single"])
@pytest.mark.parametrize("kernel", ["build_scattering", "vc_on_grid"])
def test_kept_work_arrays_leave_results_alone(name, kernel):
    """A result is unchanged by the next call of the same shape, and shares
    no memory with it: the work array a thread keeps never leaves a call."""
    model = BUILDERS[name]
    call = (lambda ws: build_scattering(model, ws, (2, 1))) if kernel == "build_scattering" \
        else (lambda ws: vc_on_grid(model, ws, BATH))
    for grid in GRIDS:
        first = call(grid)
        kept = first.copy()
        second = call(grid * 1.1)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(call(grid), kept)


@pytest.mark.parametrize("name", ["displacement", "cqnc", "qnd-imperfect"])
def test_results_do_not_depend_on_what_the_work_arrays_held(name):
    """Every entry of the kept work array that a call reads, it writes
    first: NaN in all of it changes no bit."""
    model, ws = BUILDERS[name], GRIDS[1]
    want = vc_on_grid(model, ws, BATH), build_scattering(model, ws)
    core._work.buffer.fill(np.nan)
    got = vc_on_grid(model, ws, BATH), build_scattering(model, ws)
    assert all(np.array_equal(w, g) for w, g in zip(want, got))


def test_threads_keep_their_own_work_arrays():
    """Four threads scanning two models at once, on one stack shape, get
    the bits of a serial run: each thread writes only its own work array."""
    models = [BUILDERS["cqnc"], BUILDERS["displacement"]] * 2
    grids = [GRIDS[1] * (1.0 + 0.01 * k) for k in range(30)]
    serial = [[vc_on_grid(m, ws, BATH) for ws in grids] for m in models]
    found, start = [None] * len(models), threading.Barrier(len(models), timeout=60)

    def scan(t):
        start.wait()
        found[t] = [vc_on_grid(models[t], ws, BATH) for ws in grids]

    threads = [threading.Thread(target=scan, args=(t,)) for t in range(len(models))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert None not in found  # no scan raised
    assert all(np.array_equal(a, b) for t in range(len(models)) for a, b in zip(found[t], serial[t]))
