import numpy as np
import pytest
from scipy.linalg import expm

from tclgen.baths import ExactBath, boson_mode_bath, qubit_bath
from tclgen.propagate import (
    Trajectory,
    propagate_observable,
    propagate_state,
    trajectory_to_csv,
)
from tclgen.superops import Grid, ModelSpec, QuadratureConfig, commutator_super

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
    drifting = ExactBath(rand_herm(3), rand_herm(3), rand_state(3))
    model2 = ModelSpec(rand_herm(2), rand_herm(2), 0.1, drifting)
    with pytest.raises(ValueError, match="stationary"):
        propagate_observable(model2, rand_herm(2), grid, 1)


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
