import numpy as np
import pytest
from scipy.linalg import expm

from tclgen.baths import ExactBath, boson_mode_bath, qubit_bath
from tclgen.oracle import (
    FullModel,
    duality_check,
    exact_reduced_states,
    exact_reduced_trajectory,
    scaling_probe,
    tcl_vs_exact_error,
)
from tclgen.propagate import propagate_observable, propagate_state
from tclgen.superops import Grid, ModelSpec, QuadratureConfig
from test_baths import is_stationary

rng = np.random.default_rng(57)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def rand_herm(d, gen=rng):
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return 0.5 * (x + x.conj().T)


def rand_state(d, gen=rng):
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def partial_trace_bath(x, d_s, d_e):
    """Tr_E of (..., d_s*d_e, d_s*d_e) operators; leading axes are a batch."""
    x = np.asarray(x)
    return np.einsum("...aebe->...ab",
                     x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e)))


def explicit_reduced(full, grid):
    """The oracle by the explicit route: expm of the whole composite state at
    every grid time, an einsum partial trace, then the rotation back."""
    out = []
    for t in grid.times:
        u = expm(-1j * t * full.H_total)
        red = partial_trace_bath(u @ full.rho_total0 @ u.conj().T,
                                 full.d_S, full.d_E)
        back = expm(1j * t * full.model.H_S)
        out.append(back @ red @ back.conj().T)
    return np.array(out)


def dephasing_setup(g=0.15, omega=1.0, n_max=6):
    bath = boson_mode_bath(omega, n_max)
    model = ModelSpec(0.7 * SZ, SZ, g, bath)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return model, rho0


class TestExactTrajectory:
    def test_zero_coupling_is_constant(self):
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.0, qubit_bath(1.0))
        rho0 = rand_state(2)
        traj = exact_reduced_trajectory(FullModel(model, rho0), Grid(2.0, 40))
        np.testing.assert_allclose(traj.payload[-1], rho0, atol=1e-12)

    def test_dephasing_matches_closed_form(self):
        # commuting model: populations frozen and the coherence magnitude
        # follows exp(-4 g^2 (1 - cos(w t)) / w^2) for the vacuum mode
        g, omega = 0.15, 1.0
        model, rho0 = dephasing_setup(g, omega)
        grid = Grid(5.0, 200)
        traj = exact_reduced_trajectory(FullModel(model, rho0), grid)
        np.testing.assert_allclose(traj.payload[:, 0, 0], 0.5, atol=1e-10)
        want = 0.5 * np.exp(-4 * g ** 2 / omega ** 2
                            * (1 - np.cos(omega * grid.times)))
        np.testing.assert_allclose(np.abs(traj.payload[:, 0, 1]), want,
                                   atol=1e-9)

    def test_trace_and_hermiticity_exact(self):
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.4,
                          qubit_bath(1.2, beta=0.7, shift=0.3))
        traj = exact_reduced_trajectory(FullModel(model, rand_state(2)),
                                        Grid(3.0, 60))
        assert traj.trace_dev.max() < 1e-12
        assert traj.herm_residual.max() < 1e-12

    def test_bath_energy_shift_gauge(self):
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.3,
                          qubit_bath(1.0, beta=0.9))
        rho0 = rand_state(2)
        grid = Grid(2.0, 40)
        a = exact_reduced_trajectory(FullModel(model, rho0), grid)
        shifted = ExactBath(model.bath.H_E + 2.7 * np.eye(2),
                            model.bath.phi, model.bath.rho_E)
        model2 = ModelSpec(model.H_S, model.A, model.g, shifted)
        b = exact_reduced_trajectory(FullModel(model2, rho0), grid)
        assert np.abs(a.payload - b.payload).max() < 1e-10

    def test_partial_trace_is_trace_compatible(self):
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        red = partial_trace_bath(x, 2, 3)
        assert np.trace(red) == pytest.approx(np.trace(x))
        batch = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
        red = partial_trace_bath(batch, 2, 3)
        assert red.shape == (4, 2, 2)
        for k in range(4):
            np.testing.assert_array_equal(red[k],
                                          partial_trace_bath(batch[k], 2, 3))

    def test_wide_bath_final_state_matches_direct_expm(self):
        # pins the sign convention: the state moves with exp(-iHt), the
        # reduced state is rotated back with exp(+i H_S t)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                          boson_mode_bath(1.0, 40, beta=1.0, shift=0.7))
        rho0 = rand_state(2)
        full = FullModel(model, rho0)
        grid = Grid(2.0, 8)
        got = exact_reduced_trajectory(full, grid).payload[-1]
        u = expm(-1j * grid.T * full.H_total)
        red = partial_trace_bath(u @ full.rho_total0 @ u.conj().T, 2, 41)
        back = expm(1j * grid.T * model.H_S)
        want = back @ red @ back.conj().T
        assert np.abs(got - want).max() < 1e-12

    def test_drifting_bath_matches_explicit_route_at_every_time(self):
        # rho_E off-diagonal and not commuting with H_E, d_S = 3, d_E = 4
        gen = np.random.default_rng(15)
        h_e = rand_herm(4, gen)
        rho_e = rand_state(4, gen)
        assert np.abs(h_e @ rho_e - rho_e @ h_e).max() > 0.1
        bath = ExactBath(h_e, rand_herm(4, gen), rho_e)
        model = ModelSpec(rand_herm(3, gen), rand_herm(3, gen), 0.4, bath)
        full = FullModel(model, rand_state(3, gen))
        grid = Grid(2.5, 12)
        got = exact_reduced_trajectory(full, grid).payload
        assert np.abs(got - explicit_reduced(full, grid)).max() < 1e-12

    def test_thermal_mode_matches_explicit_route_at_every_time(self):
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1,
                          boson_mode_bath(1.0, 40, beta=1.0))
        rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
        full = FullModel(model, rho0)
        grid = Grid(5.0, 16)
        got = exact_reduced_trajectory(full, grid).payload
        assert np.abs(got - explicit_reduced(full, grid)).max() < 1e-12

    @pytest.mark.parametrize("h_s,dtype", [
        (0.5 * SZ + 0.2 * SX, np.float64), (0.5 * SZ + 0.2 * SY, np.complex128),
    ], ids=["real", "sigma-y"])
    def test_composite_hamiltonian_dtype_follows_the_inputs(self, h_s, dtype):
        # a real H_total runs eigh's real symmetric solver; both kinds
        # match the dense expm route at every grid time
        model = ModelSpec(h_s, SX, 0.3,
                          boson_mode_bath(1.0, 6, beta=1.0, shift=0.7))
        full = FullModel(model, rand_state(2, np.random.default_rng(3)))
        assert full.H_total.dtype == dtype
        grid = Grid(2.0, 10)
        got = exact_reduced_states(full, grid)
        assert np.abs(got - explicit_reduced(full, grid)).max() < 1e-12

    @pytest.mark.parametrize("h_s", [0.5 * SZ + 0.2 * SX, 0.5 * SZ + 0.2 * SY],
                             ids=["real", "sigma-y"])
    def test_states_are_the_trajectory_payload(self, h_s):
        model = ModelSpec(h_s, SX, 0.3,
                          boson_mode_bath(1.0, 6, beta=1.0, shift=0.7))
        full = FullModel(model, rand_state(2, np.random.default_rng(4)))
        grid = Grid(2.0, 10)
        np.testing.assert_array_equal(
            exact_reduced_states(full, grid),
            exact_reduced_trajectory(full, grid).payload)

    @pytest.mark.parametrize("h_s", [0.5 * SZ + 0.2 * SX, 0.5 * SZ + 0.2 * SY],
                             ids=["real", "sigma-y"])
    def test_composite_matrices_are_the_kronecker_products(self, h_s):
        # the broadcast outer products keep every bit of np.kron, signed
        # zeros included
        bath = boson_mode_bath(1.0, 6, beta=1.0, shift=0.7)
        model = ModelSpec(h_s, SX + 0.3 * SZ, 0.3, bath)
        rho0 = rand_state(2, np.random.default_rng(5))
        full = FullModel(model, rho0)
        mats = (model.H_S, model.A, bath.H_E, bath.phi)
        if not any(m.imag.any() for m in mats):
            mats = tuple(m.real for m in mats)
        h, a, h_e, phi = mats
        want = (np.kron(h, np.eye(bath.dim)) + np.kron(np.eye(2), h_e)
                + model.g * np.kron(a, phi))
        assert full.H_total.dtype == want.dtype
        assert full.H_total.tobytes() == want.tobytes()
        assert (full.rho_total0.tobytes()
                == np.kron(np.asarray(rho0, dtype=complex),
                           bath.rho_E).tobytes())

    def test_desk_dimension_bound(self):
        bath = boson_mode_bath(1.0, 4095)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, bath)
        with pytest.raises(ValueError, match="desk bound"):
            FullModel(model, rand_state(2))


class TestScalingProbe:
    def test_first_order_zero_mean_ratio(self):
        # TCL1 reduces to free evolution; the residual is O(g^2)
        bath = boson_mode_bath(1.0, 6)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        rows = scaling_probe(model, rand_state(2), Grid(4.0, 200), 1,
                             [0.1, 0.05])
        assert rows[0]["ratio"] == pytest.approx(2.0, abs=0.45)
        assert rows[1]["ratio"] is None

    def test_second_order_ratio_with_odd_moments(self):
        bath = boson_mode_bath(1.0, 6, shift=0.7)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
        rows = scaling_probe(model, rho0, Grid(6.0, 300), 2, [0.1, 0.05])
        assert rows[0]["ratio"] == pytest.approx(3.0, abs=0.6)

    def test_fifth_order_ratio_with_odd_moments(self):
        # halving g from 0.2 stays where the truncation error dominates the
        # first-order O(g h^2) grid error
        bath = boson_mode_bath(1.0, 6, shift=0.7)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
        rows = scaling_probe(model, rho0, Grid(5.0, 40), 5, [0.2, 0.1])
        assert 5.5 <= rows[0]["ratio"] <= 7.0

    def test_error_vanishes_with_coupling(self):
        bath = boson_mode_bath(1.0, 6, shift=0.5)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        rows = scaling_probe(model, rand_state(2), Grid(3.0, 150), 2,
                             [0.2, 0.1, 0.05, 0.025])
        errs = [r["err"] for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_needs_two_couplings(self):
        model, rho0 = dephasing_setup()
        with pytest.raises(ValueError):
            scaling_probe(model, rho0, Grid(1.0, 50), 2, [0.1])


def coherent_mode_bath():
    """A boson mode in a coherent superposition: not stationary."""
    mode = boson_mode_bath(1.0, 3)
    psi = np.zeros(4)
    psi[:2] = np.sqrt(0.5)
    return ExactBath(mode.H_E, mode.phi, np.outer(psi, psi))


def random_drifting_bath(d_e, gen):
    """A random exact bath whose state is not a function of H_E."""
    return ExactBath(rand_herm(d_e, gen), rand_herm(d_e, gen),
                     rand_state(d_e, gen))


class TestDuality:
    def test_residuals_are_tiny_for_stationary_bath(self):
        bath = qubit_bath(1.1, beta=1.0, shift=0.4)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.2, bath)
        quad = QuadratureConfig(Grid(2.0, 80), max_order=3)
        res = duality_check(model, rand_herm(2), rand_state(2), quad)
        assert set(res) == {1, 2, 3}
        assert max(res.values()) < 1e-12

    def test_serves_nonstationary_bath(self):
        # the adjoint momenta are Hilbert-Schmidt duals on a drifting bath too
        drifting = random_drifting_bath(3, rng)
        assert not is_stationary(drifting)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, drifting)
        quad = QuadratureConfig(Grid(2.0, 80), max_order=3)
        res = duality_check(model, rand_herm(2), rand_state(2), quad)
        assert set(res) == {1, 2, 3}
        assert max(res.values()) < 1e-12

    def test_first_order_closed_form(self):
        # both sides equal -i <phi> integrated against Tr[O0 [A(tau), rho]]
        shift = 0.6
        bath = qubit_bath(1.0, beta=1.0, shift=shift)
        h_s, a = 0.5 * SZ, SZ
        model = ModelSpec(h_s, a, 0.3, bath)
        grid = Grid(1.5, 100)
        quad = QuadratureConfig(grid, max_order=1)
        o0, rho0 = rand_herm(2), rand_state(2)
        res = duality_check(model, o0, rho0, quad, orders=(1,))
        assert res[1] < 1e-13
        from tclgen.superops import apply_superop, evaluate_mu
        lhs = np.trace(o0 @ apply_superop(
            -1j * evaluate_mu(1, grid.M, model, quad), rho0))
        want = (-1j * model.g * shift * grid.T
                * np.trace(o0 @ (a @ rho0 - rho0 @ a)))
        assert abs(lhs - want) < 1e-12

    def test_identity_observable_gives_zero_sides(self):
        bath = qubit_bath(1.0, beta=0.8, shift=0.3)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.2, bath)
        quad = QuadratureConfig(Grid(1.0, 40), max_order=2)
        from tclgen.superops import apply_superop, evaluate_mu
        rho0 = rand_state(2)
        for n in (1, 2):
            lhs = np.trace(np.eye(2) @ apply_superop(
                (-1j) ** n * evaluate_mu(n, 40, model, quad), rho0))
            assert abs(lhs) < 1e-13

    @pytest.mark.parametrize("N", [2, 3])
    def test_adjoint_expectations_converge_to_the_oracle_at_order_n_plus_1(
            self, N):
        # the truncated observable against full unitary evolution, which
        # shares no code with the generator or the integrator: the error in
        # Tr[O(t) rho0] is the first neglected order, O(g^(N+1)), on a
        # stationary shifted mode and on two drifting baths
        baths = {"shifted mode": boson_mode_bath(1.0, 6, shift=0.7),
                 "coherent mode": coherent_mode_bath(),
                 "random d_E=4": random_drifting_bath(
                     4, np.random.default_rng(0))}
        rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
        grid = Grid(3.0, 400)
        for name, bath in baths.items():
            errs = []
            for g in (0.2, 0.1, 0.05, 0.025):
                model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, g, bath)
                obs = propagate_observable(model, SZ, grid, N)
                exact = exact_reduced_trajectory(FullModel(model, rho0), grid)
                lhs = np.einsum("tij,ji->t", obs.payload, rho0)
                rhs = np.einsum("ij,tji->t", SZ, exact.payload)
                errs.append(np.abs(lhs - rhs).max())
            ratio = np.log2(errs[-2] / errs[-1])
            assert ratio >= N + 1 - 0.3, f"{name}: log2 ratio {ratio:.2f}"


def test_tcl_vs_exact_error_series_shape():
    model, rho0 = dephasing_setup(g=0.1)
    err, series = tcl_vs_exact_error(model, rho0, Grid(2.0, 80), 2)
    assert series.shape == (81,)
    assert err == pytest.approx(series.max())
    assert series[0] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("h_s", [0.5 * SZ + 0.2 * SX, 0.5 * SZ + 0.2 * SY],
                         ids=["real", "sigma-y"])
def test_tcl_vs_exact_error_is_the_distance_of_the_public_payloads(h_s):
    # the comparison computes no monitor, but its two payloads are those
    # of propagate_state and exact_reduced_trajectory, bit for bit
    model = ModelSpec(h_s, SX, 0.2, boson_mode_bath(1.0, 6, shift=0.7))
    rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
    grid = Grid(3.0, 30)
    err, series = tcl_vs_exact_error(model, rho0, grid, 3)
    diff = (propagate_state(model, rho0, grid, 3).payload
            - exact_reduced_trajectory(FullModel(model, rho0), grid).payload)
    want = np.linalg.svd(diff, compute_uv=False).sum(-1)
    np.testing.assert_array_equal(series, want)
    assert err == want.max()


def test_tcl_vs_exact_error_validates_rho0_first():
    model, _ = dephasing_setup()
    for rho0, match in ((np.array([[0.5, 0.5], [0.1, 0.5]]), "Hermitian"),
                        (np.eye(2), "unit trace"),
                        (np.eye(3) / 3, "dimension")):
        with pytest.raises(ValueError, match=match):
            tcl_vs_exact_error(model, rho0, Grid(1.0, 20), 2)
