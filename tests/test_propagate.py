import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from tclgen.baths import ExactBath, boson_mode_bath, qubit_bath
from tclgen.propagate import (
    Trajectory,
    _rk4_run,
    propagate_observable,
    propagate_state,
    trajectory_to_csv,
    truncated_states,
)
from tclgen.superops import (
    MATRIX_RECURSION,
    TERM_EXPANSION,
    Grid,
    ModelSpec,
    QuadratureConfig,
    commutator_super,
    vec,
)
from test_baths import is_stationary

rng = np.random.default_rng(41)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_herm(d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (x + x.conj().T)


def rand_state(d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_zero_coupling_freezes_the_state():
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.0, qubit_bath(1.0))
    rho0 = rand_state(2)
    traj = propagate_state(model, rho0, Grid(2.0, 50), 2)
    np.testing.assert_allclose(traj.payload[-1], rho0, atol=1e-14)
    assert traj.trace_dev.max() < 1e-14


def test_first_order_constant_mean_is_unitary_rotation():
    # [H_S, A] = 0 and <phi> = c constant: the exact solution is
    # exp(-i c t [A, .]) acting on rho0
    shift = 0.8
    bath = boson_mode_bath(1.0, 4, shift=shift)   # vacuum: <phi> = shift
    g = 0.3
    model = ModelSpec(0.5 * SZ, SZ, g, bath)
    grid = Grid(2.0, 200)
    rho0 = rand_state(2)
    traj = propagate_state(model, rho0, grid, 1)
    gen = -1j * g * shift * commutator_super(SZ)
    for i in (50, 200):
        want = (expm(gen * grid.times[i]) @ rho0.reshape(-1)).reshape(2, 2)
        np.testing.assert_allclose(traj.payload[i], want, atol=1e-9)


def test_monitor_budgets_on_desk_model():
    bath = qubit_bath(1.1, beta=0.9, shift=0.4)
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.25, bath)
    traj = propagate_state(model, rand_state(2), Grid(4.0, 400), 2)
    assert traj.trace_dev.max() <= 1e-6
    assert traj.herm_residual.max() <= 1e-8


def test_min_eig_reported_not_clamped():
    # resonant strong coupling at second order pushes an eigenvalue
    # negative, and the monitor must report it as-is
    bath = boson_mode_bath(1.0, 10)
    model = ModelSpec(0.5 * SZ, SX, 0.9, bath)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate_state(model, rho0, Grid(6.0, 240), 2)
    assert traj.min_eig.min() < -0.05


def test_order_consistency_scales_with_coupling():
    bath = qubit_bath(1.2, beta=0.8, shift=0.5)
    grid = Grid(2.0, 200)
    rho0 = rand_state(2)
    h_s, a = rand_herm(2), rand_herm(2)
    gaps = {}
    for g in (0.2, 0.1):
        model = ModelSpec(h_s, a, g, bath)
        r1 = propagate_state(model, rho0, grid, 1)
        r2 = propagate_state(model, rho0, grid, 2)
        gaps[g] = np.abs(r2.payload - r1.payload).max()
    # || rho^(2) - rho^(1) || = O(g^2)
    ratio = gaps[0.2] / gaps[0.1]
    assert 2.8 < ratio < 5.8


def test_state_validation():
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, qubit_bath(1.0))
    grid = Grid(1.0, 20)
    with pytest.raises(ValueError):
        propagate_state(model, np.eye(2, dtype=complex), grid, 1)  # trace 2
    with pytest.raises(ValueError):
        propagate_state(model, np.array([[1.5, 0], [0, -0.5]]), grid, 1)
    bad = np.array([[0.5, 0.5], [0.1, 0.5]])
    with pytest.raises(ValueError):
        propagate_state(model, bad, grid, 1)


def test_truncated_states_are_the_trajectory_payload():
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.2,
                      qubit_bath(1.0, beta=0.8, shift=0.3))
    rho0 = rand_state(2)
    grid = Grid(2.0, 30)
    for path in (MATRIX_RECURSION, TERM_EXPANSION):
        np.testing.assert_array_equal(
            truncated_states(model, rho0, grid, 3, path=path),
            propagate_state(model, rho0, grid, 3, path=path).payload)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_initial_values_are_refused(value):
    # NaN fails every tolerance comparison, so the Hermitian, trace and
    # positivity checks alone returned a NaN trajectory
    model = ModelSpec(SZ, SX, 0.1, qubit_bath(1.0))
    grid = Grid(1.0, 20)
    rho0 = np.array([[0.5, value], [value, 0.5]])
    with pytest.raises(ValueError, match="rho0 must be finite"):
        propagate_state(model, rho0, grid, 1)
    with pytest.raises(ValueError, match="O0 must be finite"):
        propagate_observable(model, rho0, grid, 1)


def test_observable_identity_and_zero_coupling():
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.3,
                      qubit_bath(1.0, beta=1.0))
    grid = Grid(2.0, 100)
    traj = propagate_observable(model, np.eye(2), grid, 2)
    np.testing.assert_allclose(traj.payload[-1], np.eye(2), atol=1e-13)
    model0 = ModelSpec(model.H_S, model.A, 0.0, model.bath)
    o0 = rand_herm(2)
    traj0 = propagate_observable(model0, o0, grid, 2)
    np.testing.assert_allclose(traj0.payload[-1], o0, atol=1e-14)


def test_observable_state_duality():
    bath = qubit_bath(1.1, beta=1.0)
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.02, bath)
    grid = Grid(3.0, 300)
    rho0 = rand_state(2)
    o0 = SX
    otraj = propagate_observable(model, o0, grid, 2)
    straj = propagate_state(model, rho0, grid, 2)
    lhs = np.einsum("tij,ji->t", otraj.payload, rho0)
    rhs = np.einsum("ij,tji->t", o0, straj.payload)
    assert np.abs(lhs - rhs).max() < 1e-5


def test_observable_guards():
    grid = Grid(1.0, 20)
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, qubit_bath(1.0))
    with pytest.raises(ValueError):
        propagate_observable(model, np.array([[0, 1], [0, 0]]), grid, 1)
    # a drifting bath is served: the identity stays put, and a Hermitian
    # observable stays Hermitian
    drifting = ExactBath(rand_herm(3), rand_herm(3), rand_state(3))
    assert not is_stationary(drifting)
    model2 = ModelSpec(rand_herm(2), rand_herm(2), 0.1, drifting)
    traj = propagate_observable(model2, np.eye(2), grid, 2)
    np.testing.assert_allclose(traj.payload, np.broadcast_to(
        np.eye(2), traj.payload.shape), rtol=0, atol=1e-13)
    o0 = rand_herm(2)
    traj = propagate_observable(model2, o0, grid, 2)
    assert np.abs(traj.payload[-1] - o0).max() > 1e-3
    assert traj.herm_residual.max() < 1e-12
    # the identity carried beside o0 is its unitality monitor
    assert traj.unitality_dev.shape == (21,)
    assert traj.unitality_dev.max() < 1e-13
    assert propagate_state(model2, rand_state(2), grid, 2).unitality_dev is None


def test_trajectory_invariants_and_csv():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2, 2)),
                   np.zeros(2), np.zeros(2), np.zeros(2))
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, qubit_bath(1.0))
    traj = propagate_state(model, rand_state(2), Grid(1.0, 10), 1)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == ("t,re_0_0,im_0_0,re_0_1,im_0_1,re_1_1,im_1_1,"
                        "trace_dev,herm_residual,min_eig")
    assert len(lines) == 12
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def cell_by_cell_csv(traj):
    """The CSV schema written one f-string per cell, as a byte reference."""
    d = traj.payload.shape[1]
    cols = ["t"]
    for i in range(d):
        for j in range(i, d):
            cols += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(cols + ["trace_dev", "herm_residual", "min_eig"])]
    for k, t in enumerate(traj.times):
        row = [f"{t:.12e}"]
        for i in range(d):
            for j in range(i, d):
                z = traj.payload[k, i, j]
                row += [f"{z.real:.12e}", f"{z.imag:.12e}"]
        row += [f"{traj.trace_dev[k]:.12e}", f"{traj.herm_residual[k]:.12e}",
                f"{traj.min_eig[k]:.12e}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [2, 3])
def test_csv_rows_match_cell_by_cell_formatting(d):
    # signed zeros, subnormal-adjacent and huge values keep their bytes
    m1 = 9
    payload = rng.normal(size=(m1, d, d)) + 1j * rng.normal(size=(m1, d, d))
    payload[1, 0, 0] = complex(-0.0, 1e-300)
    payload[2, 0, 1] = complex(1e-300, -0.0)
    payload[3, d - 1, d - 1] = complex(-1e300, 5e-324)
    monitors = [rng.normal(size=m1) for _ in range(3)]
    monitors[0][4], monitors[1][5], monitors[2][6] = -0.0, 1e-300, -1e-300
    traj = Trajectory(np.linspace(0.0, 2.0, m1), payload, *monitors)
    assert trajectory_to_csv(traj) == cell_by_cell_csv(traj)
    assert "-0.000000000000e+00" in trajectory_to_csv(traj)


def test_min_eig_monitor_matches_one_call_per_step():
    from tclgen.propagate import _monitors
    x = rng.normal(size=(12, 3, 3)) + 1j * rng.normal(size=(12, 3, 3))
    payload = x + np.conj(np.swapaxes(x, 1, 2)) + 0.1 * x
    hermitized = 0.5 * (payload + np.conj(np.swapaxes(payload, 1, 2)))
    want = np.array([np.linalg.eigvalsh(m)[0] for m in hermitized])
    assert _monitors(payload, 1.0)[2].tobytes() == want.tobytes()


def test_observable_checks_the_quadrature_grid():
    bath = boson_mode_bath(1.0, 6, shift=0.7)
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3, bath)
    grid = Grid(5.0, 60)
    quad = QuadratureConfig(Grid(3.0, 60), max_order=2)
    with pytest.raises(ValueError, match="grid"):
        propagate_observable(model, SZ, grid, 2, quad=quad)
    with pytest.raises(ValueError, match="grid"):
        propagate_state(model, np.diag([0.8, 0.2]), grid, 2, quad=quad)
    same = QuadratureConfig(Grid(5.0, 60), max_order=2)
    np.testing.assert_allclose(
        propagate_observable(model, SZ, grid, 2, quad=same).final,
        propagate_observable(model, SZ, grid, 2).final, atol=1e-14)


def test_observed_convergence_order_is_two():
    # quadrature and generator interpolation are O(h^2): successive
    # differences of the final state shrink by about 4 per grid halving
    bath = boson_mode_bath(1.0, 6, shift=0.7)
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3, bath)
    rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
    finals = [propagate_state(model, rho0, Grid(5.0, m), 2).final
              for m in (50, 100, 200)]
    ratio = (np.abs(finals[1] - finals[0]).max()
             / np.abs(finals[2] - finals[1]).max())
    assert 1.9 <= np.log2(ratio) <= 2.5


def test_reused_quadrature_keeps_one_engine():
    # one cache entry, whichever kind each call propagates
    model = ModelSpec(rand_herm(2), rand_herm(2), 0.2,
                      qubit_bath(1.1, beta=1.0, shift=0.4))
    grid = Grid(1.0, 20)
    quad = QuadratureConfig(grid, max_order=2)
    o0 = rand_herm(2)
    first = propagate_observable(model, o0, grid, 2, quad=quad)
    for _ in range(4):
        again = propagate_observable(model, o0, grid, 2, quad=quad)
        assert len(quad._cache) == 1
    np.testing.assert_array_equal(again.payload, first.payload)
    propagate_state(model, rand_state(2), grid, 2, quad=quad)
    assert len(quad._cache) == 1


def test_both_kinds_share_one_engine(monkeypatch):
    # three observables and one state on one forward model and quadrature
    # build a single engine, and give the payloads of engines of their own
    from tclgen.superops import GeneratorEngine
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                      boson_mode_bath(1.0, 6, shift=0.7))
    grid = Grid(5.0, 30)
    rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
    runs = [(propagate_observable, o0) for o0 in (SZ, SX, rand_herm(2))]
    runs.append((propagate_state, rho0))

    def payloads(quad_for):
        return [run(model, x0, grid, 3, quad=quad_for()).payload
                for run, x0 in runs]

    own = payloads(lambda: QuadratureConfig(grid, max_order=3))
    built = []
    init = GeneratorEngine.__init__
    monkeypatch.setattr(GeneratorEngine, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    quad = QuadratureConfig(grid, max_order=3)
    shared = payloads(lambda: quad)
    assert len(built) == 1
    for got, want in zip(shared, own):
        assert got.tobytes() == want.tobytes()


def stagewise_rk4(l_tab, x0, h):
    """The RK4 reference: four stages per step, each one matvec on the state,
    with the generator interpolated linearly mid-step."""
    steps = len(l_tab) - 1
    out = np.empty((steps + 1, x0.size), dtype=complex)
    out[0] = vec(x0)
    y = out[0].copy()
    for i in range(steps):
        l0, l1 = l_tab[i], l_tab[i + 1]
        lm = 0.5 * (l0 + l1)
        k1 = l0 @ y
        k2 = lm @ (y + 0.5 * h * k1)
        k3 = lm @ (y + 0.5 * h * k2)
        k4 = l1 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def random_generator_table(gen, d, M, kind):
    """(M+1, d^2, d^2) table whose rows preserve the trace (forward-like) or
    annihilate the identity (adjoint-like), of norm about one per row."""
    d2 = d * d
    x = gen.normal(size=(M + 1, d2, d2)) + 1j * gen.normal(size=(M + 1, d2, d2))
    x /= d2
    ident = vec(np.eye(d)) / np.sqrt(d)
    proj = np.eye(d2) - np.outer(ident, ident.conj())
    return proj @ x if kind == "forward" else x @ proj


@pytest.mark.parametrize("kind", ["forward", "adjoint"])
@pytest.mark.parametrize("M", [2, 17, 160])
@pytest.mark.parametrize("d", [2, 3])
def test_rk4_propagators_match_the_stagewise_reference(d, M, kind):
    gen = np.random.default_rng(100 * d + M)
    l_tab = random_generator_table(gen, d, M, kind)
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    x0 = x + x.conj().T
    h = 2.0 / M
    got = _rk4_run(l_tab, x0, h)
    want = stagewise_rk4(l_tab, x0, h)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if kind == "forward":
        # a trace-preserving table keeps the trace through every step
        np.testing.assert_allclose(got @ vec(np.eye(d)), np.trace(x0),
                                   atol=1e-12)


def test_rk4_stack_has_the_bits_of_each_run_alone():
    gen = np.random.default_rng(9)
    l_tab = random_generator_table(gen, 2, 40, "adjoint")
    ops = gen.normal(size=(2, 2, 2)) + 1j * gen.normal(size=(2, 2, 2))
    got = _rk4_run(l_tab, ops, 0.05)
    assert got.shape == (41, 2, 4)
    for k, op in enumerate(ops):
        assert np.array_equal(got[:, k], _rk4_run(l_tab, op, 0.05))


def test_rk4_memory_is_a_few_generator_tables():
    l_tab = random_generator_table(np.random.default_rng(5), 3, 160,
                                   "forward")
    x0 = np.eye(3) / 3
    tracemalloc.start()
    try:
        _rk4_run(l_tab, x0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * l_tab.nbytes
