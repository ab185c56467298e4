"""Structural properties of the generator expansion on random models.

Hypothesis draws Hermitian H_S and A (d_S = 2-3) and a bath: a random
exact bath (d_E = 2-4) or the thermal single-mode Gaussian kernel.  The
exact bath state is a thermal state of H_E, so stationary, or any density
matrix, so drifting, with equal odds; both kinds run on either.  Grids
have M <= 12 points past t = 0, and orders N <= 5 on an exact bath and
N <= 4 on the Gaussian kernel, whose engine serves clusters of at most four
slots.  Residuals are measured against the size of the objects they come
from.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgen.baths import ExactBath, GaussianBath, thermal_mode_two_point
from tclgen.superops import (
    MATRIX_RECURSION,
    TERM_EXPANSION,
    Grid,
    ModelSpec,
    QuadratureConfig,
    engine_for,
    vec,
)
from tclgen.terms import ADJOINT, SCHRODINGER, momentum_terms

RTOL = 1e-12
EXAMPLES = settings(max_examples=12, deadline=None)


@dataclass
class Case:
    engine: object
    order: int
    d_s: int
    gen: np.random.Generator

    def orders(self, kind, path=MATRIX_RECURSION):
        return [self.engine.generator_order(n, kind, path)
                for n in range(1, self.order + 1)]


def _herm(gen, d):
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return 0.5 * (x + x.conj().T)


@st.composite
def cases(draw):
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d_s = draw(st.integers(2, 3))
    exact = draw(st.sampled_from(["exact", "gaussian"])) == "exact"
    order = draw(st.integers(1, 5 if exact else 4))
    m = draw(st.integers(2 * order, 12))
    if exact:
        d_e = draw(st.integers(2, 4))
        h_e = _herm(gen, d_e)
        if draw(st.booleans()):
            e, v = np.linalg.eigh(h_e)
            p = np.exp(-gen.uniform(0.2, 2.0) * (e - e.min()))
            rho = (v * (p / p.sum())) @ v.conj().T
        else:
            x = gen.normal(size=(d_e, d_e)) + 1j * gen.normal(size=(d_e, d_e))
            rho = x @ x.conj().T / np.trace(x @ x.conj().T)
        bath = ExactBath(h_e, _herm(gen, d_e), rho)
    else:
        bath = GaussianBath(thermal_mode_two_point(
            gen.uniform(0.5, 2.0), beta=gen.uniform(0.5, 2.0)))
    model = ModelSpec(_herm(gen, d_s), _herm(gen, d_s),
                      gen.uniform(0.2, 0.8), bath)
    quad = QuadratureConfig(Grid(gen.uniform(0.5, 2.0), m), max_order=order)
    return Case(engine_for(model, quad), order, d_s, gen)


def _scale(*arrays):
    return max(1.0, *(float(np.abs(a).max()) for a in arrays))


@EXAMPLES
@given(cases())
def test_every_order_preserves_trace(case):
    ident = vec(np.eye(case.d_s))
    for ln in case.orders(SCHRODINGER):
        assert np.abs(ident @ ln).max() <= RTOL * _scale(ln)


@EXAMPLES
@given(cases())
def test_every_adjoint_order_is_unital(case):
    ident = vec(np.eye(case.d_s))
    for ln in case.orders(ADJOINT):
        assert np.abs(ln @ ident).max() <= RTOL * _scale(ln)


@EXAMPLES
@given(cases())
def test_every_order_preserves_hermiticity(case):
    # (-i)^n L_n maps Hermitian matrices to Hermitian ones, as i^n L~_n does
    # for the adjoint kind
    x = _herm(case.gen, case.d_s)
    for kind, base in ((SCHRODINGER, -1j), (ADJOINT, 1j)):
        for n, ln in enumerate(case.orders(kind), start=1):
            y = (base ** n * ln @ vec(x)).reshape(-1, case.d_s, case.d_s)
            assert (np.abs(y - y.conj().transpose(0, 2, 1)).max()
                    <= RTOL * _scale(ln) * _scale(x))


@EXAMPLES
@given(cases(), st.floats(0.3, 3.0))
def test_every_order_scales_as_g_to_the_n(case, factor):
    model = case.engine.model
    other = engine_for(replace(model, g=factor * model.g),
                       QuadratureConfig(case.engine.grid, case.order))
    for n, ln in enumerate(case.orders(SCHRODINGER), start=1):
        got, want = other.generator_order(n), factor ** n * ln
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=RTOL * _scale(got, want))


@EXAMPLES
@given(cases())
def test_term_and_matrix_paths_agree(case):
    for kind in (SCHRODINGER, ADJOINT):
        for terms, matrix in zip(case.orders(kind, TERM_EXPANSION),
                                 case.orders(kind)):
            np.testing.assert_allclose(terms, matrix, rtol=0,
                                       atol=RTOL * _scale(terms, matrix))


@EXAMPLES
@given(cases())
def test_momentum_duality_at_every_order(case):
    # Tr[O (-i)^n mu_n(rho)] = Tr[(i^n mu~_n(O)) rho] at every grid time
    obs = _herm(case.gen, case.d_s)
    x = _herm(case.gen, case.d_s) + 2 * case.d_s * np.eye(case.d_s)
    rho = x / np.trace(x)
    for n in range(1, case.order + 1):
        mu = case.engine.mu(n, SCHRODINGER)
        mu_adj = case.engine.mu(n, ADJOINT)
        lhs = (-1j) ** n * (mu @ vec(rho)) @ vec(obs.T)
        rhs = 1j ** n * (mu_adj @ vec(obs)) @ vec(rho.T)
        assert np.abs(lhs - rhs).max() <= RTOL * _scale(mu, mu_adj) * _scale(
            obs)


@EXAMPLES
@given(cases())
def test_momenta_match_the_cluster_sums(case):
    # an exact bath's momenta come from one sign-summed sweep per kind; the
    # term path sums their clusters, one per sign string
    eng = case.engine
    if not isinstance(eng.model.bath, ExactBath):
        return
    for kind in (SCHRODINGER, ADJOINT):
        for n in range(1, case.order + 1):
            for dotted in (False, True):
                want = sum(t.coeff * eng.cluster_value(t.signs, dotted, kind)
                           for t in momentum_terms(n, kind))
                np.testing.assert_allclose(
                    eng.mu(n, kind, dotted), want, rtol=0,
                    atol=1e-13 * np.abs(want).max())
