import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tclgen.baths import (
    ExactBath,
    GaussianBath,
    boson_mode_bath,
    qubit_bath,
    thermal_mode_two_point,
)
from tclgen.superops import (
    MATRIX_RECURSION,
    TERM_EXPANSION,
    Grid,
    ModelSpec,
    QuadratureConfig,
    anticommutator_super,
    apply_superop,
    assemble_generator,
    build_system_superops,
    commutator_super,
    engine_for,
    evaluate_mu,
    evaluate_mu_dot,
    evaluate_term,
    evaluate_vk_generator,
    generator_table,
    left_mult,
    right_mult,
    unvec,
    vec,
)
from tclgen.terms import (
    ADJOINT,
    MINUS,
    PLUS,
    SCHRODINGER,
    ClusteredTerm,
    momentum_terms,
)
from test_baths import is_stationary

rng = np.random.default_rng(23)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_herm(d, scale=1.0, gen=rng):
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return scale * 0.5 * (x + x.conj().T)


def rand_state(d, gen=rng):
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def rand_model(g=0.4, shift=0.6, d=2, gen=rng):
    bath = qubit_bath(1.3, beta=0.8, shift=shift)
    return ModelSpec(rand_herm(d, gen=gen), rand_herm(d, gen=gen), g, bath)


@pytest.fixture(scope="module")
def setup():
    model = rand_model()
    grid = Grid(1.2, 60)
    quad = QuadratureConfig(grid, max_order=3)
    return model, grid, quad


class TestVectorization:
    def test_stack_is_the_kron_of_each_matrix(self):
        gen = np.random.default_rng(31)
        stack = gen.normal(size=(5, 3, 3)) + 1j * gen.normal(size=(5, 3, 3))
        stack[1, 0, 2] = complex(-1.0, -0.0)
        for op, want in ((left_mult, lambda x: np.kron(x, np.eye(3))),
                         (right_mult, lambda x: np.kron(np.eye(3), x.T))):
            got = op(stack)
            assert got.shape == (5, 9, 9)
            assert got.tobytes() == np.stack([want(x)
                                              for x in stack]).tobytes()

    def test_basis_self_test(self):
        # the defining left/right action on random matrices
        for d in (2, 3):
            x, rho = rand_herm(d), rand_state(d)
            np.testing.assert_allclose(
                apply_superop(left_mult(x), rho), x @ rho, atol=1e-13)
            np.testing.assert_allclose(
                apply_superop(right_mult(x), rho), rho @ x, atol=1e-13)
            np.testing.assert_allclose(
                apply_superop(commutator_super(x), rho),
                x @ rho - rho @ x, atol=1e-13)
            np.testing.assert_allclose(
                apply_superop(anticommutator_super(x), rho),
                x @ rho + rho @ x, atol=1e-13)
            np.testing.assert_allclose(unvec(vec(rho), d), rho)


class TestSystemSuperops:
    def test_commuting_case_constant(self):
        bath = qubit_bath(1.0)
        model = ModelSpec(0.5 * SZ, SZ, 0.1, bath)
        grid = Grid(2.0, 10)
        tabs = build_system_superops(model, grid)
        want = commutator_super(SZ)
        for i in (0, 5, 10):
            np.testing.assert_allclose(tabs["-"][i], want, atol=1e-13)

    def test_commutator_action_and_tracelessness(self):
        model = rand_model()
        grid = Grid(1.0, 8)
        tabs = build_system_superops(model, grid)
        e, v = np.linalg.eigh(model.H_S)
        for i in (3, 8):
            t = grid.times[i]
            u = v @ np.diag(np.exp(1j * e * t)) @ v.conj().T
            a_t = u @ model.A @ u.conj().T
            x = rand_herm(2) + 1j * rand_herm(2)
            np.testing.assert_allclose(
                apply_superop(tabs["-"][i], x), a_t @ x - x @ a_t, atol=1e-12)
            assert abs(np.trace(apply_superop(tabs["-"][i], x))) < 1e-13


class TestSpecGuards:
    def test_model_validation(self):
        bath = qubit_bath(1.0)
        with pytest.raises(ValueError):
            ModelSpec(SZ + 1j * np.eye(2), SX, 0.1, bath)
        with pytest.raises(ValueError):
            ModelSpec(np.zeros((1, 1)), np.zeros((1, 1)), 0.1, bath)
        with pytest.raises(ValueError):
            ModelSpec(SZ, SX, 0.1 + 0.2j, bath)

    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_model_refuses_a_non_finite_coupling(self, g):
        # NaN has a zero imaginary part, so the reality check alone let it
        # through
        with pytest.raises(ValueError, match="g must be finite"):
            ModelSpec(SZ, SX, g, qubit_bath(1.0))

    def test_quadrature_validation(self):
        grid = Grid(1.0, 5)
        with pytest.raises(ValueError):
            QuadratureConfig(grid, max_order=3)  # M < 2N
        with pytest.raises(ValueError):
            QuadratureConfig(Grid(1.0, 20), max_order=0)
        for bad_t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                Grid(bad_t, 10)

    def test_any_order_on_a_fine_enough_grid(self):
        assert QuadratureConfig(Grid(1.0, 14), max_order=7).max_order == 7
        with pytest.raises(ValueError, match="grid too coarse"):
            QuadratureConfig(Grid(1.0, 13), max_order=7)

    def test_index_and_order_guards(self, setup):
        model, grid, quad = setup
        term = ClusteredTerm("-", (1,), True)
        with pytest.raises(IndexError):
            evaluate_term(term, grid.M + 1, model, quad)
        big = ClusteredTerm("----", (4,), True)
        with pytest.raises(ValueError):
            evaluate_term(big, 3, model, quad)
        with pytest.raises(ValueError):
            assemble_generator(4, 3, model, quad)
        for n in (0, 4):
            with pytest.raises(ValueError):
                evaluate_mu(n, 3, model, quad)

    @pytest.mark.parametrize("name", ["H_S", "A"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_model_refuses_non_finite_matrices(self, name, value):
        # a NaN norm fails no comparison, so the Hermitian check alone
        # would let it through
        mats = {"H_S": SZ.astype(complex), "A": SX.astype(complex)}
        mats[name][0, 1] = value
        with pytest.raises(ValueError, match=f"{name} has a non-finite"):
            ModelSpec(mats["H_S"], mats["A"], 0.1, qubit_bath(1.0))


class TestEvaluateTerm:
    def test_single_minus_vanishes_for_zero_mean(self, setup):
        _, grid, quad = setup
        bath = qubit_bath(1.3, beta=0.8)  # no shift: <phi> = 0
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.4, bath)
        val = evaluate_term(ClusteredTerm("-", (1,), True), 30, model, quad)
        assert np.abs(val).max() < 1e-14

    def test_factorized_cluster_product(self, setup):
        model, grid, quad = setup
        i = grid.M
        whole = evaluate_term(ClusteredTerm("--", (1, 1), True,
                                            SCHRODINGER, -1), i, model, quad)
        pin = evaluate_term(ClusteredTerm("-", (1,), True), i, model, quad)
        free = evaluate_term(ClusteredTerm("-", (1,)), i, model, quad)
        np.testing.assert_allclose(whole, -(pin @ free), atol=1e-15)

    def test_richardson_self_convergence(self):
        # trapezoid rule: halving h divides the error by about four
        model = rand_model()
        term = ClusteredTerm("--", (2,), True)
        vals = {}
        for m in (50, 100, 200):
            quad = QuadratureConfig(Grid(1.5, m), max_order=2)
            vals[m] = evaluate_term(term, m, model, quad)
        d1 = np.abs(vals[100] - vals[50]).max()
        d2 = np.abs(vals[200] - vals[100]).max()
        assert 2.5 < d1 / d2 < 6.0

    def test_identity_term(self, setup):
        model, grid, quad = setup
        val = evaluate_term(ClusteredTerm("", ()), 10, model, quad)
        np.testing.assert_allclose(val, np.eye(4))


class TestMomenta:
    def test_zero_coupling_kills_every_order(self, setup):
        _, grid, quad = setup
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.0,
                          qubit_bath(1.0, shift=0.3))
        for n in (1, 2, 3):
            assert np.abs(evaluate_mu(n, 40, model, quad)).max() < 1e-15

    def test_first_momentum_matches_direct_quadrature(self, setup):
        model, grid, quad = setup
        i = 45
        tabs = build_system_superops(model, grid)
        moments = np.array(
            [model.g * np.trace(model.bath.phi_at(t) @ model.bath.rho_E)
             for t in grid.times])
        w = np.full(i + 1, grid.h)
        w[0] = w[-1] = grid.h / 2
        want = np.einsum("j,jab->ab", w * moments[:i + 1], tabs["-"][:i + 1])
        np.testing.assert_allclose(evaluate_mu(1, i, model, quad), want,
                                   atol=1e-13)

    def test_derivative_by_finite_differences(self, setup):
        # central differences of mu_n converge at O(h^2) to mu_dot_n
        model = rand_model()
        errs = {}
        for m in (40, 80):
            quad = QuadratureConfig(Grid(1.2, m), max_order=2)
            h = quad.grid.h
            mid = m // 2
            for n in (1, 2):
                fd = (evaluate_mu(n, mid + 1, model, quad)
                      - evaluate_mu(n, mid - 1, model, quad)) / (2 * h)
                md = evaluate_mu_dot(n, mid, model, quad)
                errs[(n, m)] = np.abs(fd - md).max()
        for n in (1, 2):
            assert errs[(n, 80)] < errs[(n, 40)] / 2.5


class TestGeneratorAssembly:
    def test_paths_agree(self, setup):
        model, grid, quad = setup
        for n in (1, 2, 3):
            for i in (20, 60):
                a = assemble_generator(n, i, model, quad, TERM_EXPANSION)
                b = assemble_generator(n, i, model, quad, MATRIX_RECURSION)
                scale = max(np.abs(a).max(), 1e-30)
                assert np.abs(a - b).max() / scale < 1e-12

    def test_trace_preservation_and_hermiticity(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        rho = rand_state(2)
        for n in (1, 2, 3):
            for i in (10, 35, 60):
                ln = eng.generator_order(n)[i]
                out = apply_superop(ln, rho)
                scale = max(np.abs(out).max(), 1e-30)
                assert abs(np.trace(out)) < 1e-10 * max(scale, 1.0)
                h = (-1j) ** n * out
                assert np.abs(h - h.conj().T).max() < 1e-9 * max(scale, 1.0)

    def test_coupling_scaling_is_exact(self):
        base = rand_model(g=1.0)
        grid = Grid(1.0, 30)
        quad1 = QuadratureConfig(grid, max_order=3)
        quad2 = QuadratureConfig(grid, max_order=3)
        scaled = ModelSpec(base.H_S, base.A, 0.5, base.bath)
        e1 = engine_for(base, quad1)
        e2 = engine_for(scaled, quad2)
        for n in (1, 2, 3):
            a = e1.generator_order(n)[30]
            b = e2.generator_order(n)[30]
            np.testing.assert_allclose(b, 0.5 ** n * a, atol=1e-14)

    def test_first_order_vanishing_mean(self):
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.3,
                          qubit_bath(1.1, beta=0.9))
        quad = QuadratureConfig(Grid(1.0, 20), max_order=1)
        val = assemble_generator(1, 20, model, quad)
        assert np.abs(val).max() < 1e-14

    def test_pure_dephasing_action(self):
        # commuting algebra: populations are left invariant at second order
        bath = boson_mode_bath(1.0, 5)
        model = ModelSpec(0.8 * SZ, SZ, 0.2, bath)
        quad = QuadratureConfig(Grid(2.0, 40), max_order=2)
        gen = assemble_generator(2, 40, model, quad)
        rho = rand_state(2)
        out = apply_superop(gen, rho)
        assert abs(out[0, 0]) < 1e-13 and abs(out[1, 1]) < 1e-13
        assert abs(out[0, 1]) > 1e-4

    def test_adjoint_generator_serves_a_drifting_bath(self):
        # a random bath state, not a function of H_E: the adjoint generator
        # is still the brute tuple sum of its momenta
        bath = ExactBath(rand_herm(3), rand_herm(3), rand_state(3))
        assert not is_stationary(bath)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.3, bath)
        quad = QuadratureConfig(Grid(1.0, 10), max_order=2)
        got = assemble_generator(2, 5, model, quad, kind=ADJOINT)
        eng = engine_for(model, quad)
        want = sum(1j ** n * brute_generator_order(eng, n, 5, ADJOINT)
                   for n in (1, 2))
        assert np.abs(want).max() > 1e-3
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    @staticmethod
    def coherent_mode_model():
        """A boson mode in a coherent superposition: not stationary."""
        mode = boson_mode_bath(1.0, 3)
        psi = np.zeros(4)
        psi[:2] = np.sqrt(0.5)
        bath = ExactBath(mode.H_E, mode.phi, np.outer(psi, psi))
        assert not is_stationary(bath)
        return ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3, bath)

    @pytest.mark.parametrize("entry", [
        "evaluate_mu", "evaluate_mu_dot", "evaluate_term", "cluster_value",
        "cluster_value_stack", "mu", "generator_order"])
    def test_adjoint_entry_points_serve_a_drifting_bath(self, entry):
        # each adjoint entry point against brute tuple sums over the
        # standard correlator of the drifting bath
        brute = TestClusterQuadratureOracle.brute_cluster
        model = self.coherent_mode_model()
        quad = QuadratureConfig(Grid(1.0, 12), max_order=3)
        eng = engine_for(model, quad)
        term = ClusteredTerm("+-", (2,), False, ADJOINT)
        grid_points = range(quad.grid.M + 1)
        got, want = {
            "evaluate_mu": lambda: (
                evaluate_mu(3, 12, model, quad, ADJOINT),
                brute_momentum(eng, 3, False, 12, ADJOINT)),
            "evaluate_mu_dot": lambda: (
                evaluate_mu_dot(3, 12, model, quad, ADJOINT),
                brute_momentum(eng, 3, True, 12, ADJOINT)),
            "evaluate_term": lambda: (
                evaluate_term(term, 12, model, quad),
                term.coeff * brute(eng, "+-", False, 12, ADJOINT)),
            "cluster_value": lambda: (
                eng.cluster_value("+-", False, ADJOINT)[12],
                brute(eng, "+-", False, 12, ADJOINT)),
            "cluster_value_stack": lambda: (
                eng.cluster_value("-", True, ADJOINT),
                [brute(eng, "-", True, i, ADJOINT) for i in grid_points]),
            "mu": lambda: (
                eng.mu(2, ADJOINT)[12],
                brute_momentum(eng, 2, False, 12, ADJOINT)),
            "generator_order": lambda: (
                eng.generator_order(3, ADJOINT)[::4],
                [brute_generator_order(eng, 3, i, ADJOINT)
                 for i in grid_points[::4]]),
        }[entry]()
        want = np.asarray(want)
        # entries near zero make a relative error meaningless
        assert np.abs(want).max() > 1e-4
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_adjoint_unitality_and_hermiticity(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        ident = np.eye(2, dtype=complex)
        o0 = rand_herm(2)
        for n in (1, 2, 3):
            ln = eng.generator_order(n, ADJOINT)[grid.M]
            assert np.abs(apply_superop(ln, ident)).max() < 1e-14
            h = 1j ** n * apply_superop(ln, o0)
            assert np.abs(h - h.conj().T).max() < 1e-10

    def test_adjoint_paths_agree(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for n in (1, 2, 3):
            a = eng.generator_order(n, ADJOINT, TERM_EXPANSION)[50]
            b = eng.generator_order(n, ADJOINT, MATRIX_RECURSION)[50]
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_generator_table_matches_single_times(self, setup):
        model, grid, quad = setup
        tab = generator_table(model, quad, 2)
        for i in (0, 17, 60):
            np.testing.assert_allclose(
                tab[i], assemble_generator(2, i, model, quad), atol=1e-14)

    def test_gaussian_backend_generator_matches_exact_mode(self):
        # same physical bath through both backends at second order
        beta, omega = 1.4, 1.0
        h_s, a = 0.6 * SZ + 0.3 * SX, SX
        grid = Grid(1.5, 60)
        m_ex = ModelSpec(h_s, a, 0.3, boson_mode_bath(omega, 20, beta=beta))
        m_gs = ModelSpec(h_s, a, 0.3,
                         GaussianBath(thermal_mode_two_point(omega, beta=beta)))
        q1 = QuadratureConfig(grid, max_order=2)
        q2 = QuadratureConfig(grid, max_order=2)
        a_ = assemble_generator(2, 60, m_ex, q1)
        b_ = assemble_generator(2, 60, m_gs, q2)
        np.testing.assert_allclose(a_, b_, atol=1e-9)


class TestClusterQuadratureOracle:
    """Brute-force tuple sums as the oracle for every cluster branch."""

    @staticmethod
    def brute_cluster(eng, signs, pinned, i, kind):
        import itertools as it
        from tclgen.baths import CorrelationQuery, ordered_correlation
        m = len(signs)
        bath, g = eng.model.bath, eng.model.g
        if isinstance(bath, ExactBath):
            bath = ExactBath(bath.H_E, g * bath.phi, bath.rho_E)
        else:
            two, mean = bath.two_point, bath.mean
            bath = GaussianBath(
                lambda tau, s: g * g * two(tau, s),
                None if mean is None else lambda tau: g * mean(tau))
        w = eng.weights(i)
        times = eng.grid.times
        if kind == ADJOINT:
            asigns, dsig = signs[::-1], "".join(
                "+" if c == "-" else "-" for c in signs)[::-1]
            eta, rev = (-1) ** signs.count("+"), True
        else:
            asigns, dsig = signs, "".join(
                "+" if c == "-" else "-" for c in signs)
            eta, rev = 1, False
        free = m - 1 if pinned else m
        total = np.zeros((eng.d2, eng.d2), dtype=complex)
        for tup in it.product(range(i + 1), repeat=free):
            idx = (i,) + tup if pinned else tup
            wgt = 1.0
            for j in tup:
                wgt *= w[j]
            start = 1 if pinned else 0
            for a, b in zip(idx[start:], idx[start + 1:]):
                # ordering factor: strictly ordered 1, tied 1/2, else 0
                wgt *= 1.0 if a > b else 0.5 if a == b else 0.0
            if wgt == 0.0:
                continue
            dval = ordered_correlation(
                bath, CorrelationQuery(dsig, tuple(times[list(idx)])))
            mats = [eng.a_tab[s][j] for s, j in zip(asigns, idx)]
            if rev:
                mats = mats[::-1]
            chain = mats[0]
            for mat in mats[1:]:
                chain = chain @ mat
            total += wgt * dval * chain
        return eta * total

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("signs,pinned", [
        ("-", True), ("-", False), ("-+", True), ("--", False),
        ("-+-", True), ("--+", False), ("-++-", True), ("-+--", False),
    ])
    def test_cluster_value_matches_tuple_sum(self, signs, pinned, kind):
        # on an exact bath and a Gaussian one with and without a mean, on
        # every engine whose max_order serves the cluster: a Gaussian
        # engine takes one and two slots from the sweep's pair rule at any
        # max_order, and larger clusters from its box loop
        if kind == ADJOINT:
            signs = signs[::-1]  # adjoint admissibility: last slot MINUS
        gen = np.random.default_rng(41)
        for model in (rand_model(g=0.5), gaussian_model(False, gen=gen),
                      gaussian_model(True, gen=gen)):
            want = None
            for top in range(len(signs), 5):
                quad = QuadratureConfig(Grid(0.6, 8), max_order=top)
                eng = engine_for(model, quad)
                got = eng.cluster_value(signs, pinned, kind)[8]
                if want is None:
                    want = self.brute_cluster(eng, signs, pinned, 8, kind)
                np.testing.assert_allclose(
                    got, want, atol=1e-13,
                    err_msg=f"{type(model.bath).__name__} max_order {top}")


def admissible_signs(m, kind):
    """Sign strings of size m whose bath correlator can be nonzero."""
    out = []
    for tail in itertools.product("-+", repeat=m - 1):
        signs = "-" + "".join(tail)
        out.append(signs[::-1] if kind == ADJOINT else signs)
    return out


def brute_momentum(eng, n, dotted, i, kind):
    """mu_n (or its derivative) at t_i as brute tuple sums, one per string."""
    return sum(TestClusterQuadratureOracle.brute_cluster(eng, signs, dotted,
                                                         i, kind)
               for signs in admissible_signs(n, kind))


def brute_generator_order(eng, n, i, kind):
    """L_n at t_i from brute momenta: mu_n' - sum_k L_(n-k) mu_k."""
    out = brute_momentum(eng, n, True, i, kind)
    for k in range(1, n):
        out = out - (brute_generator_order(eng, n - k, i, kind)
                     @ brute_momentum(eng, k, False, i, kind))
    return out


def gaussian_model(with_mean, g=0.5, gen=rng):
    """Qubit system on a Gaussian bath; the mean varies in time."""
    base = thermal_mode_two_point(1.3, beta=0.8)
    if not with_mean:
        return ModelSpec(rand_herm(2, gen=gen), rand_herm(2, gen=gen), g,
                         GaussianBath(base))

    def mean(tau):
        return 0.4 + 0.2 * np.cos(0.9 * tau)

    bath = GaussianBath(lambda tau, s: base(tau, s) + mean(tau) * mean(s),
                        mean=mean)
    return ModelSpec(rand_herm(2, gen=gen), rand_herm(2, gen=gen), g, bath)


class TestChainSweep:
    """Exact-bath sweep and Gaussian recursion against tuple sums."""

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_every_endpoint_matches_tuple_sum(self, pinned, kind):
        # engines of max_order 1 to 4: each serves the clusters up to its
        # max_order, a Gaussian one the one- and two-slot clusters from the
        # sweep's pair rule at every max_order
        brute = TestClusterQuadratureOracle.brute_cluster
        for model in (rand_model(g=0.5), gaussian_model(False),
                      gaussian_model(True)):
            engines = {top: engine_for(model, QuadratureConfig(Grid(0.6, 8),
                                                               max_order=top))
                       for top in (1, 2, 3, 4)}
            for m in (1, 2, 3, 4):
                for signs in admissible_signs(m, kind):
                    for i in range(9):
                        want = brute(engines[4], signs, pinned, i, kind)
                        for top in range(m, 5):
                            got = engines[top].cluster_value(signs, pinned,
                                                             kind)[i]
                            np.testing.assert_allclose(
                                got, want, rtol=0, atol=1e-13,
                                err_msg=f"{type(model.bath).__name__} "
                                        f"{signs} at {i}, max_order {top}")

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_size_five_exact_clusters_match_tuple_sum(self, pinned, kind):
        brute = TestClusterQuadratureOracle.brute_cluster
        quad = QuadratureConfig(Grid(0.6, 10), max_order=5)
        eng = engine_for(rand_model(g=0.5, gen=np.random.default_rng(5)),
                         quad)
        for signs in admissible_signs(5, kind):
            for i in range(7):
                got = eng.cluster_value(signs, pinned, kind)[i]
                want = brute(eng, signs, pinned, i, kind)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13,
                                           err_msg=f"{signs} at {i}")

    @pytest.mark.parametrize("M", [10, 95, 96])
    def test_pair_traces_match_the_joint_state_sweep(self, M, monkeypatch):
        # at max_order 2 level 1 comes from blocked two-point products, in
        # blocks of 3 K d_S^4 grid points: 48 for the momenta and 96 for the
        # clusters at d_S = 2.  M + 1 = 11 is below one block, 96 a whole
        # number of blocks of both, and 97 one point past that.  The level-1
        # table takes rho_E phi_b as (phi_b rho_E)^dagger, so it also runs a
        # phi that is Hermitian only within HERM_TOL: the bath keeps its
        # Hermitian part
        from tclgen.superops import GeneratorEngine
        gen = np.random.default_rng(70 + M)
        bath = ExactBath(rand_herm(4, gen=gen), rand_herm(4, gen=gen),
                         rand_state(4, gen=gen))
        assert not is_stationary(bath)
        model = ModelSpec(rand_herm(2, gen=gen), rand_herm(2, gen=gen), 0.4,
                          bath)
        skew = 1j * rand_herm(4, gen=gen)
        skewed = replace(model, bath=ExactBath(
            bath.H_E, bath.phi + 3e-13 * skew / np.linalg.norm(skew),
            bath.rho_E))
        grid = Grid(1.5, M)

        def forbidden(*args, **kwargs):
            raise AssertionError("the other level-1 evaluation ran")

        def values(model, max_order, other):
            monkeypatch.setattr(GeneratorEngine, other, forbidden)
            eng = engine_for(model, QuadratureConfig(grid, max_order))
            out = {}
            for kind in (SCHRODINGER, ADJOINT):
                for n in (1, 2):
                    for dotted in (False, True):
                        out["mu", n, kind, dotted] = eng.mu(n, kind, dotted)
                    for path in (MATRIX_RECURSION, TERM_EXPANSION):
                        out["L", n, kind, path] = eng.generator_order(
                            n, kind, path)
                    for signs in admissible_signs(n, kind):
                        for pinned in (False, True):
                            out[signs, kind, pinned] = eng.cluster_value(
                                signs, pinned, kind)
            monkeypatch.undo()
            return out

        for case in (model, skewed):
            pair = values(case, 2, "_level_traces")
            deep = values(case, 3, "_pair_traces")
            for key, want in deep.items():
                err = np.abs(pair[key] - want).max()
                assert err <= 1e-14 * np.abs(want).max(), (key, err)

    @pytest.mark.parametrize("M", [10, 95, 96])
    def test_gaussian_pair_blocks_match_dense_sums(self, M):
        # a Gaussian bath takes its one- and two-slot clusters from the
        # sweep's pair rule, in blocks of 48 (momenta) and 96 (clusters)
        # grid points, the earlier blocks read from slices of the centred
        # table and a carried mean row; the reference sums the weight rule
        # of brute_cluster over the whole pair table of the chain, densely
        gen = np.random.default_rng(80 + M)
        grid = Grid(1.5, M)
        for with_mean in (False, True):
            model = gaussian_model(with_mean, gen=gen)
            for top in (2, 3):
                eng = engine_for(model, QuadratureConfig(grid, top))
                tab, th = eng.a_tab, np.tri(M + 1) - 0.5 * np.eye(M + 1)
                want = {}
                for signs in ("-", "--", "-+"):
                    dsig = "".join("+" if c == "-" else "-" for c in signs)
                    pair = eng.ctab.pair_free(dsig)
                    free, pinned = np.zeros((2, M + 1, eng.d2, eng.d2),
                                            dtype=complex)
                    for i in range(M + 1):
                        n, w = i + 1, eng.weights(i)
                        if len(signs) == 1:
                            free[i] = np.einsum("a,a,aij->ij", w, pair[:n],
                                                tab["-"][:n])
                            pinned[i] = pair[i] * tab["-"][i]
                            continue
                        later = tab[signs[1]][:n]
                        weight = w * th[:n, :n] * pair[:n, :n] * w[:, None]
                        inner = np.einsum("ab,bjk->ajk", weight, later)
                        free[i] = np.einsum("aij,ajk->ik", tab["-"][:n], inner)
                        pinned[i] = tab["-"][i] @ np.einsum(
                            "b,bjk->jk", w * pair[i, :n], later)
                    want[signs] = free, pinned
                    for p, stack in enumerate(want[signs]):
                        got = eng.cluster_value(signs, bool(p), SCHRODINGER)
                        scale = max(np.abs(stack).max(), 1.0)
                        assert np.abs(got - stack).max() <= 1e-13 * scale, (
                            signs, p, with_mean, top)
                for n, strings in ((1, ("-",)), (2, ("--", "-+"))):
                    for p in (0, 1):
                        stack = sum(want[sg][p] for sg in strings)
                        got = eng.mu(n, SCHRODINGER, bool(p))
                        scale = max(np.abs(stack).max(), 1.0)
                        assert np.abs(got - stack).max() <= 1e-13 * scale, (
                            n, p, with_mean, top)

    def test_gaussian_bath_refuses_more_than_four_slots(self):
        # its slot recursion costs O(M^m) for m slots; the refusal comes
        # before any cluster is evaluated
        model = gaussian_model(False, gen=np.random.default_rng(6))
        quad = QuadratureConfig(Grid(0.6, 10), max_order=5)
        with pytest.raises(ValueError, match="at most 4 slots"):
            engine_for(model, quad)
        with pytest.raises(ValueError, match="at most 4 slots"):
            generator_table(model, quad, 4)

    def test_inadmissible_strings_vanish(self):
        model = rand_model(g=0.5)
        eng = engine_for(model, QuadratureConfig(Grid(0.6, 8), max_order=4))
        for signs, kind in (("+-", SCHRODINGER), ("-+", ADJOINT)):
            for pinned in (True, False):
                assert not eng.cluster_value(signs, pinned, kind)[8].any()

    def test_exact_bath_does_not_query_correlator_tables(self, monkeypatch):
        from tclgen.baths import ExactCorrelatorTable

        def forbidden(*args, **kwargs):
            raise AssertionError("correlator table queried")

        for meth in ("pair_free", "triple_slice", "chain_rows"):
            monkeypatch.setattr(ExactCorrelatorTable, meth, forbidden)
        model = rand_model()
        for kind in (SCHRODINGER, ADJOINT):
            quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
            tab = generator_table(model, quad, 4, kind=kind)
            assert np.isfinite(tab).all() and np.abs(tab).max() > 0


class TestSuffixTrieSweep:
    """One exact-bath sweep serves every cluster size of both kinds."""

    def test_one_sweep_serves_every_cluster_of_both_kinds(self, monkeypatch):
        # an adjoint cluster is the dual of a forward one, so the forward
        # sweep serves both kinds
        from tclgen.superops import GeneratorEngine
        calls = []
        sweep = GeneratorEngine._kind_sweep

        def counted(self):
            calls.append(self)
            return sweep(self)

        monkeypatch.setattr(GeneratorEngine, "_kind_sweep", counted)
        quad = QuadratureConfig(Grid(0.6, 8), max_order=4)
        eng = engine_for(rand_model(g=0.5), quad)
        for kind in (SCHRODINGER, ADJOINT):
            for m in (1, 2, 3, 4):
                for signs in admissible_signs(m, kind):
                    for pinned in (True, False):
                        for i in range(quad.grid.M + 1):
                            val = eng.cluster_value(signs, pinned, kind)[i]
                            assert val.shape == (eng.d2, eng.d2)
                            assert np.isfinite(val).all()
        assert calls == [eng]

    def test_cluster_above_max_order_is_refused(self):
        eng = engine_for(rand_model(),
                         QuadratureConfig(Grid(0.6, 8), max_order=2))
        with pytest.raises(ValueError, match="cluster size"):
            eng.cluster_value("-+-", False, SCHRODINGER)


def cluster_momentum(eng, n, kind, dotted):
    """mu_n (or its derivative) as the sum of its clusters, one per string."""
    return sum(t.coeff * eng.cluster_value(t.signs, dotted, kind)
               for t in momentum_terms(n, kind))


def qutrit_model(gen):
    """A random d_S=3 system on a random stationary d_E=3 bath."""
    e, v = np.linalg.eigh(rand_herm(3, gen=gen))
    p = np.exp(-0.9 * (e - e.min()))
    bath = ExactBath((v * e) @ v.conj().T, rand_herm(3, gen=gen),
                     (v * (p / p.sum())) @ v.conj().T)
    return ModelSpec(rand_herm(3, gen=gen), rand_herm(3, gen=gen), 0.4, bath)


class TestMomentumSweep:
    """Exact-bath momenta from one sign-summed sweep per kind."""

    @pytest.mark.parametrize("which", ["qubit", "qutrit"])
    def test_momenta_match_the_cluster_sums(self, which):
        gen = np.random.default_rng(11)
        model = rand_model(gen=gen) if which == "qubit" else qutrit_model(gen)
        eng = engine_for(model, QuadratureConfig(Grid(0.8, 12), max_order=6))
        for kind in (SCHRODINGER, ADJOINT):
            for n in range(1, 7):
                for dotted in (False, True):
                    want = cluster_momentum(eng, n, kind, dotted)
                    got = eng.mu(n, kind, dotted)
                    assert np.abs(want).max() > 1e-6
                    np.testing.assert_allclose(
                        got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                        err_msg=f"{kind} n={n} dotted={dotted}")

    @pytest.mark.parametrize("kind,backend", [
        (SCHRODINGER, "exact"), (ADJOINT, "exact"),
        (SCHRODINGER, "gaussian"), (ADJOINT, "gaussian"),
        (SCHRODINGER, "drifting"), (ADJOINT, "drifting"),
    ], ids=[SCHRODINGER, ADJOINT, f"gaussian-{SCHRODINGER}",
            f"gaussian-{ADJOINT}", f"drifting-{SCHRODINGER}",
            f"drifting-{ADJOINT}"])
    def test_momenta_match_brute_tuple_sums(self, kind, backend):
        # independent of the chain recurrence that the sweep shares with
        # the cluster path, and of the forward-to-adjoint dual: plain sums
        # over the standard ordered_correlation, with the system product
        # reversed and signed for the adjoint kind (brute_cluster)
        # on engines of max_order n to 4; the Gaussian bath with and
        # without a mean, whose odd momenta vanish
        gen = np.random.default_rng(13)
        models = {"exact": lambda: [rand_model(g=0.5, gen=gen)],
                  "gaussian": lambda: [gaussian_model(True, gen=gen),
                                       gaussian_model(False, gen=gen)],
                  "drifting": lambda: [
                      TestGeneratorAssembly.coherent_mode_model()],
                  }[backend]()
        for model in models:
            engines = {top: engine_for(model, QuadratureConfig(Grid(0.6, 8),
                                                               max_order=top))
                       for top in (1, 2, 3, 4)}
            vanish = (isinstance(model.bath, GaussianBath)
                      and model.bath.mean is None)
            for n in range(1, 5):
                for dotted in (False, True):
                    for i in (3, 8):
                        want = brute_momentum(engines[4], n, dotted, i, kind)
                        assert (np.abs(want).max() > 1e-6) != (vanish
                                                               and n % 2)
                        for top in range(n, 5):
                            got = engines[top].mu(n, kind, dotted)[i]
                            np.testing.assert_allclose(
                                got, want, rtol=0,
                                atol=1e-13 * np.abs(want).max(),
                                err_msg=f"n={n} dotted={dotted} at {i}, "
                                        f"max_order {top}")

    def test_generator_table_reads_only_the_sweep(self, monkeypatch):
        # no cluster, trie sweep or momentum term list on the matrix path
        import tclgen.superops as superops
        from tclgen.superops import GeneratorEngine

        def forbidden(*args, **kwargs):
            raise AssertionError("the momenta left the sweep")

        for name in ("cluster_value", "_kind_sweep"):
            monkeypatch.setattr(GeneratorEngine, name, forbidden)
        for name in ("momentum_terms", "momentum_derivative_terms"):
            monkeypatch.setattr(superops, name, forbidden)
        model = rand_model()
        for kind in (SCHRODINGER, ADJOINT):
            quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
            tab = generator_table(model, quad, 4, kind=kind)
            assert np.isfinite(tab).all() and np.abs(tab).max() > 0


def reachable_sweep_model(case):
    """A qubit on an exact bath whose sweep drops none, some or most levels.

    ``vacuum``: a shifted vacuum mode, reduced to max_order // 2 + 1 levels;
    ``degenerate``: two two-level modes of one frequency in vacuum, H_E =
    diag(0, 1, 1, 2); ``drifting``: a mode in a superposition of levels 0
    and 1; ``thermal``: a thermal mode, whose state has full support.
    """
    if case == "degenerate":
        a, eye = np.diag([1.0], k=1), np.eye(2)
        bath = ExactBath(
            np.kron(a.T @ a, eye) + np.kron(eye, a.T @ a),
            np.kron(a + a.T, eye) + 0.6 * np.kron(eye, a + a.T)
            + 0.4 * np.eye(4),
            np.diag([1.0, 0.0, 0.0, 0.0]))
    elif case == "drifting":
        mode = boson_mode_bath(1.0, 5, shift=0.5)
        psi = np.zeros(6)
        psi[:2] = np.sqrt(0.5)
        bath = ExactBath(mode.H_E, mode.phi, np.outer(psi, psi))
    else:
        bath = boson_mode_bath(1.0, 6 if case == "vacuum" else 4,
                               beta=0.8 if case == "thermal" else None,
                               shift=0.7)
    return ModelSpec(0.5 * SZ + 0.2 * SX, SX + 0.3 * SZ, 0.3, bath)


def brute_generator_orders(eng, N, i, kind):
    """L_1..L_N at t_i from brute momenta over the full bath, each once."""
    mu = {(n, dotted): brute_momentum(eng, n, dotted, i, kind)
          for n in range(1, N + 1) for dotted in (False, True)}
    orders = []
    for n in range(1, N + 1):
        orders.append(mu[n, True] - sum(orders[n - k - 1] @ mu[k, False]
                                        for k in range(1, n)))
    return orders


class TestReachableSweep:
    """The exact-bath sweep runs on the levels a chain can reach, exactly."""

    @pytest.mark.parametrize("case,N", [
        *[("vacuum", N) for N in range(2, 8)],
        ("degenerate", 2), ("degenerate", 3),
        ("drifting", 2), ("drifting", 3), ("drifting", 4),
        ("thermal", 3), ("thermal", 4),
    ])
    def test_generator_orders_match_full_bath_tuple_sums(self, case, N):
        # brute_cluster sums ordered_correlation over the full bath in its
        # own basis; the engine sweeps d_R levels of the eigenbasis
        model = reachable_sweep_model(case)
        eng = engine_for(model, QuadratureConfig(Grid(0.1 * 2 * N, 2 * N),
                                                 max_order=N))
        d_r = len(eng.sweep_bath[1])
        assert (d_r == model.bath.dim) == (case == "thermal"), d_r
        i = 2 if N > 5 else 3
        for kind in (SCHRODINGER, ADJOINT):
            want = brute_generator_orders(eng, N, i, kind)
            for n in range(1, N + 1):
                scale = np.abs(want[n - 1]).max()
                assert scale > 0
                for path in (MATRIX_RECURSION, TERM_EXPANSION):
                    np.testing.assert_allclose(
                        eng.generator_order(n, kind, path)[i], want[n - 1],
                        rtol=0, atol=1e-13 * scale,
                        err_msg=f"{kind} {path} n={n}")

    @pytest.mark.parametrize("N", range(2, 7))
    def test_vacuum_mode_sweeps_half_the_order_plus_one_levels(self, N):
        eng = engine_for(reachable_sweep_model("vacuum"),
                         QuadratureConfig(Grid(1.0, 12), max_order=N))
        phi, rho = eng.sweep_bath
        assert phi.shape == (13, N // 2 + 1, N // 2 + 1)
        assert rho.shape == (N // 2 + 1, N // 2 + 1)

    def test_full_support_keeps_the_table_itself(self):
        eng = engine_for(reachable_sweep_model("thermal"),
                         QuadratureConfig(Grid(1.0, 12), max_order=6))
        phi, rho = eng.sweep_bath
        assert phi is eng.ctab.phi_tab and rho is eng.ctab.rho_e
        assert rho.shape == (5, 5)

    @pytest.mark.parametrize("variant", ["rotated", "dusted"])
    def test_only_exact_zeros_cut_a_link(self, variant):
        # in a randomly rotated basis the eigenbasis of H_E has no exact
        # zeros in phi or rho_E, and a phi dusted with 1e-15 entries keeps
        # the eigenbasis and the state but has none in phi: nothing is cut,
        # and the generator is that of the plain vacuum mode
        from tclgen.superops import GeneratorEngine
        model = reachable_sweep_model("vacuum")
        bath = model.bath
        gen = np.random.default_rng(31)
        if variant == "rotated":
            u, _ = np.linalg.qr(gen.normal(size=(7, 7))
                                + 1j * gen.normal(size=(7, 7)))
            other = ExactBath(*(u @ mat @ u.conj().T
                                for mat in (bath.H_E, bath.phi, bath.rho_E)))
        else:
            dust = 1e-15 * rand_herm(7, gen=gen)
            other = ExactBath(bath.H_E, bath.phi + dust, bath.rho_E)
        quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
        eng, full = (GeneratorEngine(m, quad)
                     for m in (model, replace(model, bath=other)))
        assert len(eng.sweep_bath[1]) == 3 and len(full.sweep_bath[1]) == 7
        for kind in (SCHRODINGER, ADJOINT):
            for path in (MATRIX_RECURSION, TERM_EXPANSION):
                want = eng.generator(4, kind, path)
                got = full.generator(4, kind, path)
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                    err_msg=f"{kind} {path}")


def drifting_four_level_model():
    """A qubit on a random d_E = 4 bath whose state drifts (no level cut)."""
    gen = np.random.default_rng(77)
    bath = ExactBath(rand_herm(4, gen=gen), rand_herm(4, gen=gen),
                     rand_state(4, gen=gen))
    assert not is_stationary(bath)
    return ModelSpec(rand_herm(2, gen=gen), rand_herm(2, gen=gen), 0.4, bath)


class TestSweepBlocks:
    """The sweep's block length changes no bit of any generator table."""

    @staticmethod
    def block_budget(model, N, path, points):
        # the block buffers of one grid point (``_level_traces``):
        # (8 K^(N-2) + 3 (K + ... + K^(N-1))) d^4 d_R^2 complex elements,
        # K = 1 for the momenta and 2 for the clusters
        eng = engine_for(model, QuadratureConfig(Grid(1.0, 2 * N), N))
        k = 1 if path == MATRIX_RECURSION else 2
        per_point = ((8 * k ** (N - 2) + 3 * sum(k ** lv
                                                   for lv in range(1, N)))
                     * eng.d2 ** 2 * len(eng.sweep_bath[1]) ** 2)
        return points * per_point

    @staticmethod
    def tables(model, N, path):
        eng = engine_for(model, QuadratureConfig(Grid(1.2, 12), N))
        return [eng.generator_order(n, kind, path)
                for kind in (SCHRODINGER, ADJOINT) for n in range(1, N + 1)]

    @pytest.mark.parametrize("path", [MATRIX_RECURSION, TERM_EXPANSION])
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("case", ["vacuum", "thermal", "drifting",
                                      "four-level"])
    def test_tables_are_those_of_one_point_blocks(self, case, N, path,
                                                  monkeypatch):
        # M + 1 = 13 points: blocks of 1, of 2 and of 5 (both with a
        # partial last block), and one block of the whole grid
        from tclgen import superops
        model = (drifting_four_level_model() if case == "four-level"
                 else reachable_sweep_model(case))
        runs = {}
        for points in (1, 2, 5, 13):
            monkeypatch.setattr(superops, "_SWEEP_BLOCK", self.block_budget(
                model, N, path, points))
            runs[points] = self.tables(model, N, path)
        assert all(np.abs(tab).max() > 0 for tab in runs[1])
        for points, got in runs.items():
            for n, (a, b) in enumerate(zip(got, runs[1])):
                assert np.array_equal(a, b), (points, n)

    @pytest.mark.parametrize("path", [MATRIX_RECURSION, TERM_EXPANSION])
    def test_first_order_has_no_sweep_level(self, path, monkeypatch):
        from tclgen import superops
        model = reachable_sweep_model("drifting")
        runs = []
        for budget in (1, 2 ** 40):
            monkeypatch.setattr(superops, "_SWEEP_BLOCK", budget)
            runs.append(self.tables(model, 1, path))
        assert np.abs(runs[0][0]).max() > 0
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


class TestWholeGridStacks:
    """The recursion runs on (M+1, d^2, d^2) stacks; single times index them."""

    @pytest.mark.parametrize("path", [MATRIX_RECURSION, TERM_EXPANSION])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("backend", ["exact", "gaussian"])
    def test_table_is_the_stack_of_single_times(self, backend, adjoint, path):
        model = rand_model() if backend == "exact" else gaussian_model(True)
        kind = ADJOINT if adjoint else SCHRODINGER
        grid = Grid(0.8, 12)
        tab = generator_table(model, QuadratureConfig(grid, max_order=4), 4,
                              path, kind)
        quad = QuadratureConfig(grid, max_order=4)
        single = np.stack([assemble_generator(4, i, model, quad, path, kind)
                           for i in range(grid.M + 1)])
        assert tab.tobytes() == single.tobytes()
        assert np.abs(tab).max() > 0

    def test_gaussian_cluster_is_evaluated_once_per_forward_signs(
            self, monkeypatch):
        # the box loop serves the clusters of three or more slots, each
        # forward sign string once; the one- and two-slot clusters and
        # momenta come from one sweep each
        from collections import Counter

        from tclgen.superops import GeneratorEngine
        from tclgen.terms import generator_terms
        calls = Counter()

        def counted(name):
            method = getattr(GeneratorEngine, name)

            def wrapper(self, *args):
                calls[args[0] if args else name] += 1
                return method(self, *args)
            return wrapper

        for name in ("_gaussian_cluster", "_kind_sweep", "_momentum_sweep"):
            monkeypatch.setattr(GeneratorEngine, name, counted(name))
        eng = engine_for(gaussian_model(True),
                         QuadratureConfig(Grid(0.8, 12), max_order=3))
        for kind in (SCHRODINGER, ADJOINT):
            for path in (MATRIX_RECURSION, TERM_EXPANSION):
                assert np.isfinite(eng.generator(3, kind, path)).all()
        # the backend sees each cluster as its forward chain, an adjoint
        # cluster's sign string reversed, and one engine shares it between
        # both kinds
        wanted = {block[::-1] if kind == ADJOINT else block
                  for kind in (SCHRODINGER, ADJOINT)
                  for n in (1, 2, 3) for term in generator_terms(n, kind)
                  for block in term.cluster_signs() if len(block) >= 3}
        assert wanted and wanted <= set(calls)
        assert calls.pop("_kind_sweep") == calls.pop("_momentum_sweep") == 1
        assert all(len(signs) >= 3 for signs in calls)
        assert set(calls.values()) == {1}

    def test_gaussian_prefix_tables_are_not_kept(self):
        import tracemalloc
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                          GaussianBath(thermal_mode_two_point(1.0, beta=1.0)))
        quad = QuadratureConfig(Grid(5.0, 32), max_order=4)
        tracemalloc.start()
        try:
            tab = generator_table(model, quad, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(tab).all()
        assert peak < 10 * 2 ** 20

    def test_exact_engine_build_memory_is_linear_in_the_grid(self):
        # an engine on an exact bath keeps O(M) grid tables: no (M+1)^2
        # table is built, not even for a moment
        import tracemalloc

        from tclgen.superops import GeneratorEngine
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                          boson_mode_bath(1.0, 6, shift=0.7))
        quad = QuadratureConfig(Grid(5.0, 1600), max_order=2)
        tracemalloc.start()
        try:
            GeneratorEngine(model, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 1601 ** 2 * 8

    @pytest.mark.parametrize("branches", [1, 2])
    def test_exact_sweep_memory_is_bounded_by_the_block_budget(self,
                                                                branches):
        # the level sweep at N = 4 keeps its traces and O(M) copies of the
        # factors, and the states of one block of grid points at a time:
        # below twice _SWEEP_BLOCK complex elements (4 MiB), while one
        # (d^2, d^2, d_R, d_R) state on every grid point takes 3.5 MiB
        import tracemalloc

        from tclgen import superops
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                          boson_mode_bath(1.0, 6, shift=0.7))
        eng = superops.GeneratorEngine(
            model, QuadratureConfig(Grid(5.0, 1600), max_order=4))
        minus, plus = eng.a_tab[MINUS], eng.a_tab[PLUS]
        left, right = ((minus + plus)[None], (minus - plus)[None])
        if branches == 2:
            left, right = (np.stack((minus, plus)),
                           np.stack((minus, -plus)))
        tracemalloc.start()
        try:
            traces = eng._level_traces(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(tr[0, 0]) for tr in traces] == [branches ** lv
                                                    for lv in (1, 2, 3)]
        # both factors, once as level-1 pairs and once per side
        factors = 4 * left.nbytes
        excess = peak - sum(tr.nbytes for tr in traces) - factors
        assert 0 < excess < 2 * superops._SWEEP_BLOCK * 16

    def test_gaussian_second_order_builds_no_grid_square(self):
        # the pair rule reads the earlier grid points from slices of the
        # engine's centred (M+1)^2 table and masks only each block's
        # square, so second order makes no temporary of the table's order
        import tracemalloc
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.3,
                          GaussianBath(thermal_mode_two_point(1.0, beta=1.0)))
        eng = engine_for(model, QuadratureConfig(Grid(5.0, 1600),
                                                 max_order=2))
        table = eng.ctab.cc.nbytes
        tracemalloc.start()
        try:
            tab = eng.generator(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(tab).all() and np.abs(tab).max() > 0
        assert peak < 0.25 * table

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    def test_gaussian_four_slot_cluster_is_one_box_per_outer_time(self,
                                                                  kind):
        # the later slots at each outer index j0 come from one correlator
        # box, built by one _chain call and kept by no table
        quad = QuadratureConfig(Grid(0.6, 10), max_order=4)
        eng = engine_for(gaussian_model(True, gen=np.random.default_rng(10)),
                         quad)
        calls = []
        chain = eng.ctab._chain
        eng.ctab._chain = lambda *args: calls.append(args) or chain(*args)
        signs = "-+-+" if kind == SCHRODINGER else "+-+-"
        assert eng.cluster_value(signs, False, kind).any()
        assert len(calls) == quad.grid.M + 1

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    def test_zero_mean_odd_gaussian_clusters_are_not_evaluated(self, kind,
                                                               order):
        # every odd moment of a zero-mean Gaussian bath vanishes (Isserlis);
        # with a mean, the same clusters are evaluated and do not vanish
        quad = QuadratureConfig(Grid(0.6, 10), max_order=order)
        for with_mean in (False, True):
            eng = engine_for(gaussian_model(
                with_mean, gen=np.random.default_rng(12)), quad)
            calls, nonzero = [], []
            chain = eng.ctab._chain
            eng.ctab._chain = lambda *args: calls.append(args) or chain(*args)
            for signs in admissible_signs(3, kind):
                for pinned in (False, True):
                    val = eng.cluster_value(signs, pinned, kind)
                    assert val.shape == (quad.grid.M + 1, eng.d2, eng.d2)
                    nonzero.append(val.any())
            assert any(nonzero) == with_mean
            assert bool(calls) == with_mean

    SINGLE_TIME = {
        "evaluate_term": lambda i, m, q, kind: evaluate_term(
            ClusteredTerm("--", (1, 1), True, kind), i, m, q),
        "evaluate_mu": lambda i, m, q, kind: evaluate_mu(2, i, m, q, kind),
        "evaluate_mu_dot": lambda i, m, q, kind: evaluate_mu_dot(2, i, m, q,
                                                                 kind),
        "assemble_generator": lambda i, m, q, kind: assemble_generator(
            3, i, m, q, kind=kind),
        "evaluate_vk_generator": lambda i, m, q, kind: evaluate_vk_generator(
            2, i, m, q),
    }

    @pytest.mark.parametrize("name", sorted(SINGLE_TIME))
    def test_single_times_refuse_indices_outside_the_grid(self, setup, name):
        # a negative index would otherwise read a row from the end
        model, grid, quad = setup
        for i in (-1, grid.M + 1):
            with pytest.raises(IndexError):
                self.SINGLE_TIME[name](i, model, quad, SCHRODINGER)

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("backend", ["exact", "gaussian"])
    def test_single_times_are_rows_of_the_stack(self, backend, kind):
        gen = np.random.default_rng(32)
        model = (rand_model(gen=gen) if backend == "exact"
                 else gaussian_model(True, gen=gen))
        quad = QuadratureConfig(Grid(0.8, 12), max_order=3)
        eng = engine_for(model, quad)
        stacks = {
            "evaluate_term": eng.term_value(
                ClusteredTerm("--", (1, 1), True, kind)),
            "evaluate_mu": eng.mu(2, kind),
            "evaluate_mu_dot": eng.mu(2, kind, dotted=True),
            "assemble_generator": eng.generator(3, kind),
        }
        for name, stack in stacks.items():
            assert np.abs(stack).max() > 0
            for i in (0, quad.grid.M):
                row = self.SINGLE_TIME[name](i, model, quad, kind)
                assert row.tobytes() == stack[i].tobytes(), (name, i)

    def test_generator_refuses_orders_outside_one_to_max_order(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for n in (0, quad.max_order + 1):
            for call in (lambda: eng.generator(n),
                         lambda: generator_table(model, quad, n),
                         lambda: assemble_generator(n, 3, model, quad)):
                with pytest.raises(ValueError, match="N must be in"):
                    call()

    @pytest.mark.parametrize("backend", ["exact", "gaussian"])
    def test_a_stale_grid_index_is_an_unknown_kind(self, backend):
        # a grid index passed where the kind goes is refused, not read as
        # a kind
        gen = np.random.default_rng(33)
        model = (rand_model(gen=gen) if backend == "exact"
                 else gaussian_model(True, gen=gen))
        eng = engine_for(model, QuadratureConfig(Grid(0.8, 12), max_order=3))
        for call in (lambda: eng.cluster_value("-", True, 5),
                     lambda: eng.mu(2, 5),
                     lambda: eng.mu(2, 5, SCHRODINGER),
                     lambda: eng.generator_order(2, 5),
                     lambda: eng.generator_order(2, 5, ADJOINT),
                     lambda: eng.generator(2, 5)):
            with pytest.raises(ValueError, match="unknown kind 5"):
                call()

    def test_cached_stacks_are_read_only(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for val in (eng.cluster_value("-+", True, SCHRODINGER)[5],
                    eng.mu(2)[5], eng.generator_order(2)[5]):
            with pytest.raises(ValueError):
                val[0, 0] = 1.0


class TestFrozenSpecs:
    def test_model_and_grid_cannot_change_under_a_cached_engine(self):
        bath = boson_mode_bath(1.0, 6, shift=0.7)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        grid = Grid(5.0, 20)
        quad = QuadratureConfig(grid, max_order=2)
        before = assemble_generator(2, 20, model, quad)
        with pytest.raises(FrozenInstanceError):
            model.g = 0.5
        with pytest.raises(ValueError):
            model.A[0, 1] = 2.0
        with pytest.raises(FrozenInstanceError):
            grid.T = 3.0
        with pytest.raises(ValueError):
            grid.times[3] = 0.0
        with pytest.raises(FrozenInstanceError):
            quad.grid = Grid(4.0, 40)
        with pytest.raises(FrozenInstanceError):
            quad.max_order = 3
        np.testing.assert_array_equal(
            assemble_generator(2, 20, model, quad), before)
        # a derived spec gets its own engine, even on the same quadrature
        stronger = replace(model, g=0.5)
        after = assemble_generator(2, 20, stronger, quad)
        assert np.abs(after - before).max() > 0.1
        np.testing.assert_allclose(
            after, assemble_generator(2, 20, stronger,
                                      QuadratureConfig(grid, max_order=2)),
            atol=1e-14)

    def test_inputs_are_copied(self):
        h_s = 0.5 * SZ
        model = ModelSpec(h_s, SX, 0.1, qubit_bath(1.0))
        h_s[0, 0] = 7.0
        assert model.H_S[0, 0] == 0.5

    def test_bath_cannot_change_under_a_cached_engine(self):
        bath = boson_mode_bath(1.0, 6, shift=0.7)
        model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
        quad = QuadratureConfig(Grid(5.0, 20), max_order=2)
        before = assemble_generator(2, 20, model, quad)
        with pytest.raises(FrozenInstanceError):
            bath.phi = 3 * bath.phi
        for name in ("H_E", "phi", "rho_E"):
            with pytest.raises(ValueError):
                getattr(bath, name)[0, 1] = 2.0
        gauss = GaussianBath(thermal_mode_two_point(1.0))
        with pytest.raises(FrozenInstanceError):
            gauss.mean = lambda tau: 0.3
        np.testing.assert_array_equal(
            assemble_generator(2, 20, model, quad), before)
        phi = bath.phi.copy()
        copied = ExactBath(bath.H_E, phi, bath.rho_E)
        phi[0, 1] = 2.0
        assert copied.phi[0, 1] == bath.phi[0, 1]


class TestOrderFour:
    def test_paths_duality_and_structure_at_max_order(self):
        # exercises pinned and free size-4 clusters for both kinds
        model = rand_model()
        quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
        eng = engine_for(model, quad)
        rho, o0 = rand_state(2), rand_herm(2)
        for kind in (SCHRODINGER, ADJOINT):
            a = eng.generator_order(4, kind, TERM_EXPANSION)[12]
            b = eng.generator_order(4, kind, MATRIX_RECURSION)[12]
            assert np.abs(a - b).max() < 1e-13
        lhs = np.trace(o0 @ apply_superop(eng.mu(4)[12], rho))
        rhs = np.trace(apply_superop(eng.mu(4, ADJOINT)[12], o0) @ rho)
        assert abs(lhs - rhs) < 1e-13
        assert abs(np.trace(apply_superop(
            eng.generator_order(4)[12], rho))) < 1e-13
        assert np.abs(apply_superop(eng.generator_order(4, ADJOINT)[12],
                                    np.eye(2))).max() < 1e-13


class TestOrdersFiveAndSix:
    """Exact baths above order 4: the same structure as below it."""

    @pytest.mark.parametrize("order", [5, 6])
    def test_term_and_matrix_paths_agree(self, order):
        quad = QuadratureConfig(Grid(0.8, 12), max_order=order)
        eng = engine_for(rand_model(gen=np.random.default_rng(7)), quad)
        for kind in (SCHRODINGER, ADJOINT):
            a = eng.generator_order(order, kind, TERM_EXPANSION)
            b = eng.generator_order(order, kind, MATRIX_RECURSION)
            assert np.abs(b).max() > 1e-4
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_momentum_duality_at_orders_four_to_six(self):
        # Tr[O (-i)^n mu_n(rho)] = Tr[(i^n mu~_n(O)) rho] at every grid time
        gen = np.random.default_rng(8)
        eng = engine_for(rand_model(gen=gen),
                         QuadratureConfig(Grid(0.8, 12), max_order=6))
        rho, o0 = rand_state(2, gen), rand_herm(2, gen=gen)
        for n in (4, 5, 6):
            lhs = (-1j) ** n * (eng.mu(n) @ vec(rho)) @ vec(o0.T)
            rhs = 1j ** n * (eng.mu(n, ADJOINT) @ vec(o0)) @ vec(rho.T)
            assert np.abs(lhs).max() > 1e-5
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestVanKampenEvaluation:
    def test_matches_recursion_orders_1_to_3(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for n in (1, 2, 3):
            vk = evaluate_vk_generator(n, grid.M, model, quad)
            rec = eng.generator_order(n)[grid.M]
            scale = max(np.abs(rec).max(), 1e-30)
            assert np.abs(vk - rec).max() / scale < 1e-12

    def test_order_4_tabulated_list_is_incomplete(self):
        # the published order-4 list drops the six terms whose first block
        # is a bare single average followed by a pair and a single; with
        # those restored, the ordered-cumulant sum converges to the
        # recursion at the quadrature's own second-order rate (exactness is
        # lost at order 4 because three-way grid ties carry weight 6/4)
        from tclgen.terms import VKTerm
        missing = [
            VKTerm(((0,), (1, 2), (3,)), 1), VKTerm(((0,), (1, 3), (2,)), 1),
            VKTerm(((0,), (2, 3), (1,)), 1), VKTerm(((0,), (1,), (2, 3)), 1),
            VKTerm(((0,), (2,), (1, 3)), 1), VKTerm(((0,), (3,), (1, 2)), 1),
        ]
        model = rand_model(gen=np.random.default_rng(9))
        gaps, fixed = {}, {}
        for m in (10, 20):
            quad = QuadratureConfig(Grid(0.8, m), max_order=4)
            eng = engine_for(model, quad)
            rec = eng.generator_order(4)[m]
            vk20 = eng.vk_generator(4, m)
            extra = sum(t.coeff * eng._vk_term(t, m) for t in missing)
            scale = np.abs(rec).max()
            gaps[m] = np.abs(vk20 - rec).max() / scale
            fixed[m] = np.abs(vk20 + extra - rec).max() / scale
        assert gaps[20] > 0.05              # genuinely missing terms
        assert fixed[10] < 0.02
        assert 2.5 < fixed[10] / fixed[20] < 6.0   # second-order convergence
        assert fixed[10] / fixed[20] > 3.5   # the rate is close to 4
