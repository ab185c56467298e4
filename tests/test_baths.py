import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm

from tclgen.baths import (
    CorrelationQuery,
    ExactBath,
    GaussianBath,
    all_pairings,
    boson_mode_bath,
    correlator_table,
    interaction_picture,
    ordered_correlation,
    qubit_bath,
    thermal_mode_two_point,
    two_point_from_samples,
    wick_sum,
)
from tclgen.terms import ADJOINT

rng = np.random.default_rng(11)


def rand_herm(d, scale=1.0):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (x + x.conj().T)


def rand_bath(d=3, beta=0.9):
    h = rand_herm(d)
    phi = rand_herm(d)
    w = np.linalg.eigvalsh(h)
    e, v = np.linalg.eigh(h)
    p = np.exp(-beta * e)
    rho = v @ np.diag(p / p.sum()).astype(complex) @ v.conj().T
    return ExactBath(h, phi, rho)


def is_stationary(bath, tol=1e-10):
    """Whether the bath state commutes with H_E."""
    comm = bath.H_E @ bath.rho_E - bath.rho_E @ bath.H_E
    return np.linalg.norm(comm) <= tol


def chain_by_left_right_expansion(bath, signs, times):
    """Independent oracle: expand every phi^+/- into its two one-sided
    placements and sum the 2^n plain operator products."""
    total = 0.0 + 0.0j
    n = len(signs)
    for placements in itertools.product("LR", repeat=n):
        coef = 1.0
        mat = bath.rho_E.copy()
        left, right = [], []
        for sgn, pl, tau in zip(signs, placements, times):
            phi = bath.phi_at(tau)
            if pl == "L":
                left.append(phi)
            else:
                right.insert(0, phi)
                if sgn == "-":
                    coef = -coef
        for m in reversed(left):
            mat = m @ mat
        for m in right:
            mat = mat @ m
        total += coef * np.trace(mat)
    return total / 2 ** n


class TestSpecValidation:
    def test_exact_bath_rejects_bad_inputs(self):
        good = rand_bath()
        with pytest.raises(ValueError):
            ExactBath(good.H_E + 1j * np.eye(3), good.phi, good.rho_E)
        with pytest.raises(ValueError):
            ExactBath(good.H_E, good.phi, 2.0 * good.rho_E)
        with pytest.raises(ValueError):
            ExactBath(good.H_E, np.eye(2, dtype=complex), good.rho_E)

    @pytest.mark.parametrize("name", ["H_E", "phi", "rho_E"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_exact_bath_refuses_non_finite_entries(self, name, value):
        # a NaN norm fails no comparison, so the Hermitian check alone
        # would let it through
        good = boson_mode_bath(1.0, 3, beta=1.0)
        mats = {k: np.array(getattr(good, k)) for k in ("H_E", "phi", "rho_E")}
        mats[name][1, 1] = value
        with pytest.raises(ValueError, match=f"{name} has a non-finite"):
            ExactBath(mats["H_E"], mats["phi"], mats["rho_E"])

    def test_inverted_mode_states_do_not_overflow(self):
        # beta omega < 0 is a valid inverted state; at -1000 the plain
        # Boltzmann weights overflow to inf
        mode = boson_mode_bath(1.0, 6, beta=-1000.0)
        np.testing.assert_array_equal(np.diag(mode.rho_E),
                                      [0, 0, 0, 0, 0, 0, 1])
        qubit = qubit_bath(1.0, beta=-1000.0)
        np.testing.assert_array_equal(np.diag(qubit.rho_E), [1, 0])
        # beta omega > 0 keeps the bits of the plain Boltzmann weights
        for beta, omega in ((0.7, 1.3), (-0.4, -2.0)):
            p = np.exp(-beta * omega * np.arange(7.0))
            got = np.real(np.diag(boson_mode_bath(omega, 6,
                                                  beta=beta).rho_E))
            assert got.tobytes() == (p / p.sum()).tobytes()

    def test_minus_infinite_beta_is_the_inverted_limit(self):
        # beta -> -inf is the fully inverted state, the limit of finite
        # negative beta, not the vacuum of beta -> +inf
        for omega, want in ((1.0, [0, 0, 0, 1]), (-1.0, [1, 0, 0, 0])):
            mode = boson_mode_bath(omega, 3, beta=-np.inf)
            np.testing.assert_array_equal(np.diag(mode.rho_E), want)
            np.testing.assert_array_equal(
                mode.rho_E, boson_mode_bath(omega, 3, beta=-1000.0).rho_E)
        np.testing.assert_array_equal(
            np.diag(qubit_bath(1.0, beta=-np.inf).rho_E), [1, 0])
        np.testing.assert_array_equal(
            np.diag(boson_mode_bath(1.0, 3, beta=np.inf).rho_E), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="beta \\* omega > 0"):
            thermal_mode_two_point(1.0, beta=-np.inf)

    @pytest.mark.parametrize("beta", [None, 1.0, -np.inf])
    def test_boson_mode_refuses_a_negative_n_max(self, beta):
        # n_max = -1 used to index an empty state (IndexError) or reduce
        # an empty array; n_max = 0 is the one-level mode
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            boson_mode_bath(1.0, -1, beta=beta)
        mode = boson_mode_bath(1.0, 0, beta=beta, shift=0.5)
        np.testing.assert_array_equal(mode.rho_E, [[1.0]])
        np.testing.assert_array_equal(mode.phi, [[0.5]])

    def test_thermal_kernel_needs_positive_beta_omega(self):
        # at beta omega = 0 the occupation diverges, below it is negative
        # and C(t, t) < 0
        for beta, omega in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="beta \\* omega > 0"):
                thermal_mode_two_point(omega, beta=beta)
        for beta in (None, np.inf, 1.0):
            assert thermal_mode_two_point(1.0, beta=beta)(0.3, 0.3).real > 0

    def test_builders_take_beta_and_shift_by_keyword(self):
        # the coupling constant is ModelSpec.g alone; beta and shift are
        # keyword-only, so a call that passed g by position is refused
        # rather than read as a shift
        for call in (lambda: boson_mode_bath(1.0, 6, 1.0),
                     lambda: boson_mode_bath(1.0, 6, None, 0.5),
                     lambda: qubit_bath(1.0, 1.0),
                     lambda: thermal_mode_two_point(1.0, 1.0)):
            with pytest.raises(TypeError):
                call()

    def test_exact_bath_stores_hermitian_parts(self):
        # a matrix Hermitian within HERM_TOL is stored as its Hermitian part,
        # and an exactly Hermitian one is stored bit for bit
        good = rand_bath(d=4)
        phi = rand_herm(4)
        assert ExactBath(good.H_E, phi, good.rho_E).phi.tobytes() == \
            phi.tobytes()
        skew = 1e-13 * 1j * rand_herm(4)
        bath = ExactBath(good.H_E + skew, good.phi + skew, good.rho_E - skew)
        for name in ("H_E", "phi", "rho_E"):
            mat = getattr(bath, name)
            assert np.array_equal(mat, mat.conj().T)
            want = getattr(good, name)
            assert np.abs(mat - want).max() <= 1e-15 * np.abs(want).max()

    def test_gaussian_bath_rejects_nonhermitian_kernel(self):
        with pytest.raises(ValueError):
            GaussianBath(lambda tau, s: 1.0 + 1j * (tau + s))

    def test_gaussian_bath_rejects_kernels_that_do_not_broadcast(self):
        import cmath
        base = thermal_mode_two_point(1.0)
        scalar_only = [
            (lambda tau, s: cmath.exp(-1j * (tau - s)), None),
            (lambda tau, s: np.exp(-1j * np.subtract.outer(tau, s)), None),
            (base, lambda tau: complex(0.3 * np.cos(tau))),
            (base, lambda tau: np.cos(np.ravel(tau)[:1])),
        ]
        for two_point, mean in scalar_only:
            with pytest.raises(ValueError, match="broadcast"):
                GaussianBath(two_point, mean=mean)
        GaussianBath(base, mean=lambda tau: 0.3)   # a constant broadcasts

    @pytest.mark.parametrize("two_point,mean", [
        (lambda tau, s: np.nan * (tau - s + 1), None),
        (lambda tau, s: np.inf * (1.0 + 0.0 * (tau - s)), None),
        (lambda tau, s: np.where(tau > 0.8, np.nan, 1.0 + 0.0 * s), None),
        (thermal_mode_two_point(1.0), lambda tau: np.nan * tau),
        (thermal_mode_two_point(1.0), lambda tau: np.inf + 0.0 * tau),
    ], ids=["nan-kernel", "inf-kernel", "nan-at-one-time", "nan-mean",
            "inf-mean"])
    def test_gaussian_bath_refuses_non_finite_samples(self, two_point, mean):
        # NaN fails every comparison, so the broadcast and hermiticity
        # spot checks alone let it through
        with pytest.raises(ValueError, match="finite"):
            GaussianBath(two_point, mean=mean)

    @pytest.mark.parametrize("mean", [
        lambda tau: 0.3 + 0.2j + 0.0 * tau,
        lambda tau: np.exp(1j * tau),
        lambda tau: 0.4 * np.cos(tau) + 1e-6j * tau,
    ], ids=["constant", "phase", "small-drift"])
    def test_gaussian_bath_refuses_a_complex_mean(self, mean):
        # <phi(tau)> of a Hermitian phi is real; a mean with an imaginary
        # part was evaluated without a word
        with pytest.raises(ValueError, match="mean must be real"):
            GaussianBath(thermal_mode_two_point(1.0), mean=mean)
        # a real mean handed back as a complex array is served
        GaussianBath(thermal_mode_two_point(1.0),
                     mean=lambda tau: 0.4 * np.cos(tau) + 0j)

    @pytest.mark.parametrize("two_point,mean,match", [
        (thermal_mode_two_point(1.0),
         lambda tau: 0.3 + 0.5j * np.maximum(tau - 1.0, 0.0),
         "mean must be real on the grid"),
        (lambda tau, s: (thermal_mode_two_point(1.0)(tau, s)
                         + np.maximum(tau - 1.0, 0.0)),
         None, "conj"),
        (lambda tau, s: np.where(tau > 2.0, np.nan, 1.0 + 0.0 * s), None,
         "two_point must be finite on the grid"),
        (thermal_mode_two_point(1.0),
         lambda tau: np.where(tau > 2.0, np.inf, 0.3), "mean must be finite"),
    ], ids=["mean-complex-after-one", "kernel-skew-after-one",
            "kernel-nan-after-two", "mean-inf-after-two"])
    def test_grid_table_refuses_defects_beyond_the_sampled_times(
            self, two_point, mean, match):
        # the bath spot-checks four times in [0, 1), so these construct;
        # on a grid to T = 5 the mean's imaginary part reaches 2.0 and the
        # kernel's hermiticity defect 4.0, and the table refuses them
        bath = GaussianBath(two_point, mean=mean)
        with pytest.raises(ValueError, match=match):
            correlator_table(bath, np.linspace(0.0, 5.0, 41), 0.3)
        correlator_table(bath, np.linspace(0.0, 1.0, 11), 0.3)

    def test_query_invariants(self):
        with pytest.raises(ValueError):
            CorrelationQuery("+-", (0.1,))
        with pytest.raises(ValueError):
            CorrelationQuery("+-", (0.1, 0.5))  # ascending
        with pytest.raises(ValueError):
            CorrelationQuery("+x", (0.5, 0.1))
        with pytest.raises(ValueError):
            CorrelationQuery("+-", (0.5, 0.1), kind="sideways")
        CorrelationQuery("+-", (0.5, 0.5))  # ties are the caller's business

    def test_adjoint_is_the_reversed_signed_chain(self):
        # on a drifting bath state, D~ is (-1)^(number of MINUS) times the
        # standard chain of the same factors applied in the opposite order
        h = rand_herm(4)
        rho = np.eye(4, dtype=complex) / 4 + 0.1 * rand_herm(4, 0.1)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        bath = ExactBath(h, rand_herm(4), rho)
        assert not is_stationary(bath)
        for n in range(1, 5):
            times = tuple(np.sort(rng.uniform(0.0, 2.0, n))[::-1])
            for signs in itertools.product("+-", repeat=n):
                signs = "".join(signs)
                got = ordered_correlation(
                    bath, CorrelationQuery(signs, times, kind=ADJOINT))
                x = bath.rho_E
                for sign, tau in zip(signs, times):
                    phi = bath.phi_at(tau)
                    x = 0.5 * (phi @ x + (1 if sign == "+" else -1) * x @ phi)
                want = (-1) ** signs.count("-") * np.trace(x)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestHeisenbergPhi:
    def test_zero_time_is_identity_rotation(self):
        bath = rand_bath()
        np.testing.assert_allclose(bath.phi_at(0.0), bath.phi,
                                   atol=1e-14)

    def test_commuting_case_is_constant(self):
        h = np.diag([0.3, 1.1, 2.0]).astype(complex)
        phi = np.diag([1.0, -1.0, 0.5]).astype(complex)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        bath = ExactBath(h, phi, rho)
        np.testing.assert_allclose(bath.phi_at(1.7), phi, atol=1e-13)

    def test_spectrum_preserved(self):
        bath = rand_bath()
        for tau in (0.37, 2.9):
            got = np.linalg.eigvalsh(bath.phi_at(tau))
            want = np.linalg.eigvalsh(bath.phi)
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestInteractionPicture:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           times=st.lists(st.floats(min_value=0.0, max_value=3.0),
                          min_size=1, max_size=4))
    def test_matches_expm_rotation(self, d, seed, times):
        gen = np.random.default_rng(seed)

        def herm():
            x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
            return 0.5 * (x + x.conj().T)

        h = herm()
        ts = np.concatenate([times, -np.asarray(times)])
        want_single, want_stack, stack = [], [], []
        x = herm()
        for t in ts:
            u = expm(1j * t * h)
            stack.append(herm())
            want_single.append(u @ x @ u.conj().T)
            want_stack.append(u @ stack[-1] @ u.conj().T)
        np.testing.assert_allclose(interaction_picture(h, x, ts),
                                   want_single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(interaction_picture(h, np.array(stack), ts),
                                   want_stack, rtol=0, atol=1e-12)


class TestOrderedCorrelation:
    def test_leading_minus_vanishes(self):
        for bath in (rand_bath(), boson_mode_bath(1.0, 4, beta=0.8)):
            val = ordered_correlation(bath, CorrelationQuery("-", (0.4,)))
            assert abs(val) < 1e-14
            val = ordered_correlation(bath,
                                      CorrelationQuery("-+", (0.9, 0.2)))
            assert abs(val) < 1e-13

    def test_trailing_minus_vanishes_for_adjoint(self):
        bath = qubit_bath(1.2, beta=0.5)
        for signs in ("+-", "++-", "+--"):
            q = CorrelationQuery(signs, tuple(np.sort(
                rng.uniform(0, 2, len(signs)))[::-1]), kind=ADJOINT)
            assert abs(ordered_correlation(bath, q)) < 1e-13

    def test_vacuum_first_moment_vanishes(self):
        bath = boson_mode_bath(1.0, 5)
        val = ordered_correlation(bath, CorrelationQuery("+", (0.3,)))
        assert abs(val) < 1e-14

    @pytest.mark.parametrize("signs", ["+-", "++", "+-+", "++-", "+---"])
    def test_against_left_right_expansion(self, signs):
        bath = qubit_bath(1.3, beta=0.7, shift=0.4)
        times = tuple(np.sort(rng.uniform(0, 2, len(signs)))[::-1])
        got = ordered_correlation(bath, CorrelationQuery(signs, times))
        want = chain_by_left_right_expansion(bath, signs, times)
        assert abs(got - want) < 1e-12

    def test_stationary_shift_invariance(self):
        bath = rand_bath()
        times = (1.9, 1.2, 0.4)
        base = ordered_correlation(bath, CorrelationQuery("+-+", times))
        for shift in (0.31, 1.7):
            moved = tuple(t + shift for t in times)
            val = ordered_correlation(bath, CorrelationQuery("+-+", moved))
            assert abs(val - base) < 1e-10

    def test_coupling_scaling_is_exact_power(self):
        bath = rand_bath()
        g = 0.37
        scaled = ExactBath(bath.H_E, g * bath.phi, bath.rho_E)
        times = (1.4, 0.8, 0.1)
        v1 = ordered_correlation(bath, CorrelationQuery("++-", times))
        v2 = ordered_correlation(scaled, CorrelationQuery("++-", times))
        assert abs(v2 - g ** 3 * v1) < 1e-14 * max(1.0, abs(v2))

    def test_correlator_level_duality(self):
        # transpose duality: applying the chain to rho and tracing equals
        # (-1)^(#minus) times pairing rho with the reversed chain applied to
        # the identity (leading factor acting first); this is the identity
        # the adjoint evaluation path rests on
        from tclgen.baths import _apply_phi
        bath = qubit_bath(0.9, beta=1.1, shift=0.5)
        for signs in ("+-", "++", "+-+", "++-", "+--", "+++"):
            times = tuple(np.sort(rng.uniform(0, 2, len(signs)))[::-1])
            fwd = ordered_correlation(bath, CorrelationQuery(signs, times))
            x = np.eye(bath.dim, dtype=complex)
            for sgn, tau in zip(signs, times):
                x = _apply_phi(bath.phi_at(tau), sgn, x)
            back = np.trace(bath.rho_E @ x)
            eta = (-1) ** signs.count("-")
            assert abs(fwd - eta * back) < 1e-13


def isserlis_correlation(two_point, ordered_times):
    """Plain zero-mean Gaussian moment: the pairing sum over C(tau_a, tau_b)
    with a before b in operator order; odd lengths give exactly 0."""
    times = list(ordered_times)
    return complex(wick_sum(len(times),
                            lambda a, b: two_point(times[a], times[b])))


class TestIsserlis:
    def test_two_point_is_identity(self):
        c = thermal_mode_two_point(1.0, beta=2.0)
        assert isserlis_correlation(c, (0.8, 0.1)) == pytest.approx(
            c(0.8, 0.1))

    def test_four_point_matching_formula(self):
        c = thermal_mode_two_point(1.3, beta=1.0)
        ts = (2.0, 1.4, 0.9, 0.3)
        want = (c(ts[0], ts[1]) * c(ts[2], ts[3])
                + c(ts[0], ts[2]) * c(ts[1], ts[3])
                + c(ts[0], ts[3]) * c(ts[1], ts[2]))
        assert isserlis_correlation(c, ts) == pytest.approx(want)

    def test_odd_lengths_are_exactly_zero(self):
        c = thermal_mode_two_point(1.0)
        assert isserlis_correlation(c, (0.5,)) == 0
        assert isserlis_correlation(c, (0.9, 0.5, 0.1)) == 0

    def test_matching_count(self):
        assert sum(1 for _ in all_pairings(range(6))) == 15

    @pytest.mark.parametrize("npts", [4, 6])
    def test_thermal_mode_traces_reproduced(self, npts):
        # thermal single-mode states are Gaussian, so the exact backend is
        # an oracle for the pairing sum; the truncation must leave room for
        # the chain to climb six levels above the occupied sector
        beta, omega = 2.0, 1.0
        bath = boson_mode_bath(omega, 24, beta=beta)
        c = thermal_mode_two_point(omega, beta=beta)
        ts = tuple(np.sort(rng.uniform(0, 3, npts))[::-1])
        mat = bath.rho_E.copy()
        for t in reversed(ts):
            mat = bath.phi_at(t) @ mat
        exact = np.trace(mat)
        assert abs(isserlis_correlation(c, ts) - exact) < 1e-10


class TestGaussianBackend:
    def test_matches_exact_thermal_mode_chains(self):
        beta, omega = 2.0, 1.0
        bex = boson_mode_bath(omega, 16, beta=beta)
        gb = GaussianBath(thermal_mode_two_point(omega, beta=beta))
        for signs in ("++", "+-", "++--", "+++-"):
            times = tuple(np.sort(rng.uniform(0, 2, len(signs)))[::-1])
            q = CorrelationQuery(signs, times)
            got = ordered_correlation(gb, q)
            want = ordered_correlation(bex, q)
            assert abs(got - want) < 1e-10
            qa = CorrelationQuery(signs, times, kind=ADJOINT)
            assert abs(ordered_correlation(gb, qa)
                       - ordered_correlation(bex, qa)) < 1e-10

    def test_odd_zero_mean_chains_vanish_exactly(self):
        gb = GaussianBath(thermal_mode_two_point(1.0, beta=1.5))
        q = CorrelationQuery("++-", (1.2, 0.7, 0.1))
        assert ordered_correlation(gb, q) == 0

    def test_nonzero_mean_matches_shifted_exact_mode(self):
        # vacuum mode with phi -> phi + c: mean c, covariance unchanged
        c_shift = 0.6
        bex = boson_mode_bath(1.0, 14, shift=c_shift)
        base = thermal_mode_two_point(1.0)
        gb = GaussianBath(lambda tau, s: base(tau, s) + c_shift ** 2,
                          mean=lambda tau: c_shift)
        for signs in ("+", "++", "+-", "+-+", "+++", "++--"):
            times = tuple(np.sort(rng.uniform(0, 2, len(signs)))[::-1])
            q = CorrelationQuery(signs, times)
            got = ordered_correlation(gb, q)
            want = ordered_correlation(bex, q)
            assert abs(got - want) < 1e-9

    def test_sampled_two_point_interpolates(self):
        base = thermal_mode_two_point(1.0, beta=1.0)
        taus = np.linspace(0, 3, 241)
        table = np.array([[base(a, b) for b in taus] for a in taus])
        interp = two_point_from_samples(taus, taus, table)
        for tau, s in rng.uniform(0, 3, size=(5, 2)):
            assert abs(interp(tau, s) - base(tau, s)) < 5e-4

    def test_sampled_two_point_matches_scipy(self):
        # uneven tau samples, a different s grid, noisy complex values
        taus = np.concatenate([[0.0], np.sort(rng.uniform(0, 10, 38)), [10.0]])
        ss = np.linspace(0, 10, 43)
        values = (thermal_mode_two_point(1.0, beta=2.0)(taus[:, None],
                                                        ss[None, :])
                  * (1 + 0.3 * rng.normal(size=(40, 43))))
        parts = [RegularGridInterpolator((taus, ss), v, bounds_error=False,
                                         fill_value=None)
                 for v in (values.real, values.imag)]

        def scipy_kernel(tau, s):
            tau, s = np.broadcast_arrays(tau, s)
            pts = np.stack([tau.ravel(), s.ravel()], axis=-1)
            return (parts[0](pts) + 1j * parts[1](pts)).reshape(tau.shape)

        interp = two_point_from_samples(taus, ss, values)
        on_grid = interp(taus[:, None], ss[None, :])
        assert on_grid.tobytes() == scipy_kernel(taus[:, None],
                                                 ss[None, :]).tobytes()
        assert on_grid.tobytes() == values.tobytes()
        for lo, hi in ((0, 10), (-3, 13)):  # inside, then beyond the samples
            tau, s = rng.uniform(lo, hi, size=(2, 20000))
            assert np.abs(interp(tau, s) - scipy_kernel(tau, s)).max() <= 1e-15

    @pytest.mark.parametrize("taus,shape", [
        ([0.0], (1, 3)), ([0.0, 2.0, 1.0], (3, 3)), ([0.0, 1.0, 2.0], (3, 2)),
    ], ids=["single-sample", "unsorted", "wrong-shape"])
    def test_sampled_two_point_rejects_bad_grids(self, taus, shape):
        with pytest.raises(ValueError, match="ascending"):
            two_point_from_samples(np.array(taus), np.linspace(0, 2, 3),
                                   np.ones(shape))


class TestCorrelatorTables:
    def test_tables_match_scalar_path(self):
        bath = qubit_bath(1.3, beta=0.7, shift=0.5)
        times = np.linspace(0, 2.0, 9)
        tab = correlator_table(bath, times)
        for signs in ("+", "+-", "++"):
            arr = tab.pair_free(signs)
            for a in range(9):
                idx = (a,) if len(signs) == 1 else (a, rng.integers(0, a + 1))
                tq = tuple(times[list(idx)])
                want = ordered_correlation(bath, CorrelationQuery(signs, tq))
                assert abs(arr[idx] - want) < 1e-13
        sl = tab.triple_slice("+-+", 8)
        want = ordered_correlation(
            bath, CorrelationQuery("+-+", (times[8], times[5], times[2])))
        assert abs(sl[5, 2] - want) < 1e-13
        rows = tab.chain_rows("++--", (8, 6, 3))
        want = ordered_correlation(
            bath, CorrelationQuery("++--",
                                   (times[8], times[6], times[3], times[1])))
        assert abs(rows[1] - want) < 1e-13

    def test_exact_table_is_kept_in_the_eigenbasis(self):
        # a chain is a trace, so it does not see the basis, as long as
        # rho_E is rotated with phi: a drifting state checks that it is
        x = rand_herm(4)
        bath = ExactBath(rand_herm(4), rand_herm(4), x @ x / np.trace(x @ x))
        times = np.linspace(0, 2.0, 9)
        tab = correlator_table(bath, times, 0.7)
        e = np.linalg.eigvalsh(bath.H_E)
        phases = np.exp(1j * np.subtract.outer(e, e) * times[5])
        np.testing.assert_allclose(tab.phi_tab[5], tab.phi_tab[0] * phases,
                                   rtol=0, atol=1e-14)
        for mat in (*tab.phi_tab, tab.rho_e):
            assert np.array_equal(mat, mat.conj().T)
        scaled = ExactBath(bath.H_E, 0.7 * bath.phi, bath.rho_E)
        rows = tab.chain_rows("+-+", (8,))
        for a, b in ((5, 2), (8, 0), (3, 3)):
            want = ordered_correlation(
                scaled, CorrelationQuery("+-+", tuple(times[[8, a, b]])))
            assert abs(rows[a, b] - want) < 1e-13

    @pytest.mark.parametrize("bath", [
        qubit_bath(1.3, beta=0.7, shift=0.5),
        boson_mode_bath(1.1, 4, beta=0.8, shift=0.6),
    ], ids=["descending", "ascending"])
    def test_diagonal_hamiltonian_keeps_its_basis(self, bath):
        # the qubit's levels are not in ascending order, and still the
        # table is the rotated coupling of the bath's own basis
        times = np.linspace(0, 2.0, 9)
        tab = correlator_table(bath, times, 0.3)
        assert np.array_equal(
            tab.phi_tab, interaction_picture(bath.H_E, 0.3 * bath.phi, times))
        assert tab.rho_e.tobytes() == bath.rho_E.tobytes()

    @pytest.mark.parametrize("max_order,levels", [(1, 2), (2, 3), (3, 3),
                                                  (4, 4), (8, 6)])
    def test_max_order_keeps_the_levels_a_chain_can_reach(self, max_order,
                                                          levels):
        # a state on levels 0 and 1 of a mode reaches max_order // 2 links
        # further; the kept table is the full one on those levels, bit for
        # bit, and the default keeps every level
        mode = boson_mode_bath(1.0, 5, shift=0.5)
        psi = np.zeros(6)
        psi[:2] = np.sqrt(0.5)
        bath = ExactBath(mode.H_E, mode.phi, np.outer(psi, psi))
        times = np.linspace(0, 2.0, 9)
        full = correlator_table(bath, times, 0.3)
        cut = correlator_table(bath, times, 0.3, max_order)
        assert full.phi_tab.shape == (9, 6, 6)
        assert cut.phi_tab.shape == (9, levels, levels)
        assert (cut.phi_tab.tobytes()
                == full.phi_tab[:, :levels, :levels].tobytes())
        assert cut.rho_e.tobytes() == full.rho_e[:levels, :levels].tobytes()

    def test_gaussian_table_matches_scalar_path(self):
        gb = GaussianBath(thermal_mode_two_point(1.0, beta=1.2))
        times = np.linspace(0, 2.0, 7)
        tab = correlator_table(gb, times)
        pair = tab.pair_free("+-")
        want = ordered_correlation(
            gb, CorrelationQuery("+-", (times[5], times[2])))
        assert abs(pair[5, 2] - want) < 1e-13

    def test_gaussian_views_are_one_chain_call_each(self):
        gb = GaussianBath(thermal_mode_two_point(1.0, beta=1.2),
                          mean=lambda tau: 0.3)
        times = np.linspace(0, 2.0, 7)
        tab = correlator_table(gb, times)
        calls = []
        chain = tab._chain
        tab._chain = lambda *args: calls.append(args) or chain(*args)
        queries = [("pair_free", ("+-",)), ("pair_free", ("+",)),
                   ("triple_slice", ("+-+", 5)),
                   ("chain_rows", ("+--+", (6, 4, 2)))]
        first = [getattr(tab, meth)(*args) for meth, args in queries]
        assert len(calls) == len(queries)
        want = ordered_correlation(
            gb, CorrelationQuery("+-+", (times[5], times[3], times[1])))
        assert abs(first[2][3, 1] - want) < 1e-13
        want = ordered_correlation(
            gb, CorrelationQuery("+--+", (times[6], times[4], times[2],
                                          times[0])))
        assert abs(first[3][0] - want) < 1e-13

    @pytest.mark.parametrize("backend", ["exact", "gaussian", "gaussian-mean"])
    def test_coupling_is_folded_into_the_tables(self, backend):
        # the table of a bath with g folded in has the bits of the table of
        # the explicitly scaled bath
        g = 0.3
        times = np.linspace(0, 2.0, 9)
        if backend == "exact":
            bath = boson_mode_bath(1.1, 4, beta=0.8, shift=0.6)
            scaled = ExactBath(bath.H_E, g * bath.phi, bath.rho_E)
        else:
            two = thermal_mode_two_point(1.1, beta=0.8)
            mean = (None if backend == "gaussian"
                    else lambda tau: 0.4 + 0.2 * np.cos(0.9 * tau))
            bath = GaussianBath(two, mean=mean)
            scaled = GaussianBath(
                lambda tau, s: g * g * two(tau, s),
                None if mean is None else lambda tau: g * mean(tau))
        got, want = (correlator_table(b, times, c)
                     for b, c in ((bath, g), (scaled, 1.0)))
        names = ("phi_tab",) if backend == "exact" else ("cc", "mvec")
        for name in names:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for signs in ("+", "+-", "++"):
            assert (got.pair_free(signs).tobytes()
                    == want.pair_free(signs).tobytes())
        assert got.chain_rows("++-+", (8, 5)).tobytes() == want.chain_rows(
            "++-+", (8, 5)).tobytes()
