import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tclgen.baths import GaussianBath, boson_mode_bath, qubit_bath, thermal_mode_two_point
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
from tclgen.terms import ADJOINT, SCHRODINGER, ClusteredTerm

rng = np.random.default_rng(23)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_herm(d, scale=1.0):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (x + x.conj().T)


def rand_state(d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def rand_model(g=0.4, shift=0.6, d=2):
    bath = qubit_bath(1.3, beta=0.8, shift=shift)
    return ModelSpec(rand_herm(d), rand_herm(d), g, bath)


@pytest.fixture(scope="module")
def setup():
    model = rand_model()
    grid = Grid(1.2, 60)
    quad = QuadratureConfig(grid, max_order=3)
    return model, grid, quad


class TestVectorization:
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

    def test_quadrature_validation(self):
        grid = Grid(1.0, 5)
        with pytest.raises(ValueError):
            QuadratureConfig(grid, max_order=3)  # M < 2N
        with pytest.raises(ValueError):
            QuadratureConfig(Grid(1.0, 20), max_order=5)
        with pytest.raises(ValueError):
            Grid(0.0, 10)

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
                ln = eng.generator_order(n, i)
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
            a = e1.generator_order(n, 30)
            b = e2.generator_order(n, 30)
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

    def test_adjoint_requires_stationary_bath(self):
        h = rand_herm(3)
        rho = rand_state(3)
        from tclgen.baths import ExactBath
        bath = ExactBath(h, rand_herm(3), rho)
        model = ModelSpec(rand_herm(2), rand_herm(2), 0.1, bath, adjoint=True)
        quad = QuadratureConfig(Grid(1.0, 10), max_order=2)
        with pytest.raises(ValueError, match="stationary"):
            assemble_generator(2, 5, model, quad)

    def test_adjoint_unitality_and_hermiticity(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        ident = np.eye(2, dtype=complex)
        o0 = rand_herm(2)
        for n in (1, 2, 3):
            ln = eng.generator_order(n, grid.M, ADJOINT)
            assert np.abs(apply_superop(ln, ident)).max() < 1e-14
            h = 1j ** n * apply_superop(ln, o0)
            assert np.abs(h - h.conj().T).max() < 1e-10

    def test_adjoint_paths_agree(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for n in (1, 2, 3):
            a = eng.generator_order(n, 50, ADJOINT, TERM_EXPANSION)
            b = eng.generator_order(n, 50, ADJOINT, MATRIX_RECURSION)
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
        from tclgen.superops import scaled_bath
        m = len(signs)
        bath = scaled_bath(eng.model.bath, eng.model.g)
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
                wgt *= eng.theta[a, b]
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
        if kind == ADJOINT:
            signs = signs[::-1]  # adjoint admissibility: last slot MINUS
        model = rand_model(g=0.5)
        quad = QuadratureConfig(Grid(0.6, 8), max_order=4)
        eng = engine_for(model, quad)
        got = eng.cluster_value(signs, pinned, 8, kind)
        want = self.brute_cluster(eng, signs, pinned, 8, kind)
        np.testing.assert_allclose(got, want, atol=1e-13)


def admissible_signs(m, kind):
    """Sign strings of size m whose bath correlator can be nonzero."""
    out = []
    for tail in itertools.product("-+", repeat=m - 1):
        signs = "-" + "".join(tail)
        out.append(signs[::-1] if kind == ADJOINT else signs)
    return out


class TestChainSweep:
    """The exact-bath sweep against tuple sums at every endpoint."""

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_every_endpoint_matches_tuple_sum(self, pinned, kind):
        model = rand_model(g=0.5)
        quad = QuadratureConfig(Grid(0.6, 8), max_order=4)
        eng = engine_for(model, quad)
        brute = TestClusterQuadratureOracle.brute_cluster
        for m in (1, 2, 3, 4):
            for signs in admissible_signs(m, kind):
                for i in range(quad.grid.M + 1):
                    got = eng.cluster_value(signs, pinned, i, kind)
                    want = brute(eng, signs, pinned, i, kind)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13,
                                               err_msg=f"{signs} at {i}")

    def test_inadmissible_strings_vanish(self):
        model = rand_model(g=0.5)
        eng = engine_for(model, QuadratureConfig(Grid(0.6, 8), max_order=4))
        for signs, kind in (("+-", SCHRODINGER), ("-+", ADJOINT)):
            for pinned in (True, False):
                assert not eng.cluster_value(signs, pinned, 8, kind).any()

    def test_exact_bath_does_not_query_correlator_tables(self, monkeypatch):
        from tclgen.baths import ExactCorrelatorTable

        def forbidden(*args, **kwargs):
            raise AssertionError("correlator table queried")

        for meth in ("pair_free", "triple_slice", "chain_rows"):
            monkeypatch.setattr(ExactCorrelatorTable, meth, forbidden)
        model = rand_model()
        for kind_model in (model, replace(model, adjoint=True)):
            quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
            tab = generator_table(kind_model, quad, 4)
            assert np.isfinite(tab).all() and np.abs(tab).max() > 0


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


class TestOrderFour:
    def test_paths_duality_and_structure_at_max_order(self):
        # exercises pinned and free size-4 clusters for both kinds
        model = rand_model()
        quad = QuadratureConfig(Grid(0.8, 12), max_order=4)
        eng = engine_for(model, quad)
        rho, o0 = rand_state(2), rand_herm(2)
        for kind in (SCHRODINGER, ADJOINT):
            a = eng.generator_order(4, 12, kind, TERM_EXPANSION)
            b = eng.generator_order(4, 12, kind, MATRIX_RECURSION)
            assert np.abs(a - b).max() < 1e-13
        lhs = np.trace(o0 @ apply_superop(eng.mu(4, 12), rho))
        rhs = np.trace(apply_superop(eng.mu(4, 12, ADJOINT), o0) @ rho)
        assert abs(lhs - rhs) < 1e-13
        assert abs(np.trace(apply_superop(
            eng.generator_order(4, 12), rho))) < 1e-13
        assert np.abs(apply_superop(eng.generator_order(4, 12, ADJOINT),
                                    np.eye(2))).max() < 1e-13


class TestVanKampenEvaluation:
    def test_matches_recursion_orders_1_to_3(self, setup):
        model, grid, quad = setup
        eng = engine_for(model, quad)
        for n in (1, 2, 3):
            vk = evaluate_vk_generator(n, grid.M, model, quad)
            rec = eng.generator_order(n, grid.M)
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
        model = rand_model()
        gaps, fixed = {}, {}
        for m in (10, 20):
            quad = QuadratureConfig(Grid(0.8, m), max_order=4)
            eng = engine_for(model, quad)
            rec = eng.generator_order(4, m)
            vk20 = eng.vk_generator(4, m)
            extra = sum(t.coeff * eng._vk_term(t, m) for t in missing)
            scale = np.abs(rec).max()
            gaps[m] = np.abs(vk20 - rec).max() / scale
            fixed[m] = np.abs(vk20 + extra - rec).max() / scale
        assert gaps[20] > 0.05              # genuinely missing terms
        assert fixed[10] < 0.02
        assert 2.5 < fixed[10] / fixed[20] < 6.0   # second-order convergence
