import itertools

import numpy as np
import pytest

from tclgen.baths import (
    CorrelationQuery,
    ExactBath,
    GaussianBath,
    all_pairings,
    boson_mode_bath,
    correlator_table,
    heisenberg_phi,
    isserlis_correlation,
    ordered_correlation,
    qubit_bath,
    thermal_mode_two_point,
    two_point_from_samples,
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

    def test_gaussian_bath_rejects_nonhermitian_kernel(self):
        with pytest.raises(ValueError):
            GaussianBath(lambda tau, s: 1.0 + 1j * (tau + s))

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

    def test_adjoint_needs_stationary_state(self):
        h = rand_herm(3)
        rho = np.eye(3, dtype=complex) / 3 + 0.1 * rand_herm(3, 0.1)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        bath = ExactBath(h, rand_herm(3), rho)
        assert not bath.is_stationary()
        with pytest.raises(ValueError, match="stationary"):
            ordered_correlation(bath, CorrelationQuery("+-", (0.5, 0.1),
                                                       kind=ADJOINT))


class TestHeisenbergPhi:
    def test_zero_time_is_identity_rotation(self):
        bath = rand_bath()
        np.testing.assert_allclose(heisenberg_phi(bath, 0.0), bath.phi,
                                   atol=1e-14)

    def test_commuting_case_is_constant(self):
        h = np.diag([0.3, 1.1, 2.0]).astype(complex)
        phi = np.diag([1.0, -1.0, 0.5]).astype(complex)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        bath = ExactBath(h, phi, rho)
        np.testing.assert_allclose(heisenberg_phi(bath, 1.7), phi, atol=1e-13)

    def test_spectrum_preserved(self):
        bath = rand_bath()
        for tau in (0.37, 2.9):
            got = np.linalg.eigvalsh(heisenberg_phi(bath, tau))
            want = np.linalg.eigvalsh(bath.phi)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_gaussian_variant(self):
        gb = GaussianBath(thermal_mode_two_point(1.0, beta=1.0))
        with pytest.raises(TypeError):
            heisenberg_phi(gb, 0.5)


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

    def test_gaussian_table_matches_scalar_path(self):
        gb = GaussianBath(thermal_mode_two_point(1.0, beta=1.2))
        times = np.linspace(0, 2.0, 7)
        tab = correlator_table(gb, times)
        pair = tab.pair_free("+-")
        want = ordered_correlation(
            gb, CorrelationQuery("+-", (times[5], times[2])))
        assert abs(pair[5, 2] - want) < 1e-13

    def test_gaussian_tables_are_built_once(self):
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
        n_built = len(calls)
        again = [getattr(tab, meth)(*args) for meth, args in queries]
        assert len(calls) == n_built
        assert all(a is b for a, b in zip(first, again))
        want = ordered_correlation(
            gb, CorrelationQuery("+-+", (times[5], times[3], times[1])))
        assert abs(first[2][3, 1] - want) < 1e-13
        want = ordered_correlation(
            gb, CorrelationQuery("+--+", (times[6], times[4], times[2],
                                          times[0])))
        assert abs(first[3][0] - want) < 1e-13
