"""System superoperators, ordered quadrature, and generator assembly.

Vectorization convention (fixed once for the whole package): operators are
flattened row-major, ``vec(rho) = rho.reshape(-1)``, so left multiplication
is ``X_L = kron(X, I)`` and right multiplication is ``X_R = kron(I, X.T)``.
A superoperator is the (d^2, d^2) complex matrix acting on such vectors.

Quadrature: all integrals run over the uniform grid restricted to [0, t_i]
with trapezoid weights per variable; the descending time order inside a
cluster is enforced by ordering factors that give weight 1 to strictly
ordered pairs, 1/2 to tied grid points and 0 otherwise.  The pair formed by
the pinned slot and its neighbour is a domain edge and keeps full weight.
These conventions make the term-expansion path, the matrix-recursion path
and the Van Kampen evaluation agree to round-off, not merely to quadrature
accuracy.

Exact-bath clusters (one sweep per sign string, all endpoints at once): a
cluster of m slots, after the adjoint remap below, is carried from the
inside out as running joint system x bath states of shape
(d^2, d^2, d_E, d_E).  ``Op_k(j)`` multiplies the system factor of slot k at
t_j into the state (on the right for adjoint chains) and applies
``(phi_j Y +- Y phi_j)/2`` to its bath factor.  With the interior weight
``wb(0) = h/2, wb(j>0) = h`` and the corner weight ``c(0) = 0,
c(j>0) = h/2``::

    X_{m-1}(j) = D_{m-1}(j) = Op_{m-1}(j)[rho_E]
    X_k(j) = Op_k(j)[E_{k+1}(j) + wb(j)/2 X_{k+1}(j)]
    D_k(j) = Op_k(j)[E_{k+1}(j) + c(j)/2 D_{k+1}(j)]
    E_k(j) = sum_{j' < j} wb(j') X_k(j')

X is the slot state for an interior point, D the one whose latest time is
the endpoint itself, and E the strict running sum.  The free cluster at t_i
is ``Tr_E[E_0(i) + c(i) D_0(i)]`` and the pinned one is
``Tr_E Op_0(i)[E_1(i) + c(i) D_1(i)]``; this is the same iterated trapezoid
with tie and edge weights, to round-off.  Both share slots 1..m-1, so one
sweep j = 0..M gives both.  A nonzero cluster has a PLUS outer bath sign,
so slot 0 is only ever needed traced and costs no d_E^3 work.  A sweep
costs O(m M (d_S^6 d_E^2 + d_S^4 d_E^3)) time and keeps only the running
states in memory, against O(M^3) to O(M^4) per endpoint for cell-by-cell
correlator tables.  Gaussian baths still go through the correlator tables
of ``baths``, one branch per cluster size up to 4.

Adjoint evaluation: an adjoint-kind cluster (last slot of every cluster
MINUS) is evaluated as the transpose dual of the corresponding forward
chain: the system factors multiply in reversed slot order (the pinned,
latest time acts first on the observable) and the bath factor reduces to a
standard correlator with the sign string reversed, times a parity factor
(-1)^(number of PLUS slots).  This is what makes state/observable duality
hold numerically order by order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from tclgen.baths import (
    ExactBath,
    GaussianBath,
    _check_hermitian,
    _frozen_array,
    correlator_table,
    interaction_picture,
)
from tclgen.terms import (
    ADJOINT,
    MINUS,
    PLUS,
    SCHRODINGER,
    flip_signs,
    generator_terms,
    momentum_derivative_terms,
    momentum_terms,
    vankampen_terms,
)

TERM_EXPANSION = "term_expansion"
MATRIX_RECURSION = "matrix_recursion"


def vec(rho):
    return np.asarray(rho).reshape(-1)


def unvec(v, d):
    return np.asarray(v).reshape(d, d)


def left_mult(x):
    return np.kron(x, np.eye(x.shape[0]))


def right_mult(x):
    return np.kron(np.eye(x.shape[0]), x.T)


def commutator_super(x):
    return left_mult(x) - right_mult(x)


def anticommutator_super(x):
    return left_mult(x) + right_mult(x)


def apply_superop(mat, rho):
    d = rho.shape[0]
    return unvec(mat @ vec(rho), d)


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with M+1 points on [0, T]; immutable."""

    T: float
    M: int

    def __post_init__(self):
        if self.T <= 0 or self.M < 1:
            raise ValueError("grid needs T > 0 and M >= 1")
        object.__setattr__(self, "T", float(self.T))
        times = np.linspace(0.0, self.T, self.M + 1)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def h(self):
        return self.T / self.M


@dataclass
class QuadratureConfig:
    grid: Grid
    max_order: int = 3
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.max_order <= 4:
            raise ValueError("max_order must be in 1..4")
        if self.grid.M < 2 * self.max_order:
            raise ValueError("grid too coarse: require M >= 2*max_order")


@dataclass(frozen=True)
class ModelSpec:
    """System matrices plus bath and scalar coupling.

    ``bath`` carries the bare coupling operator; the scalar ``g`` is folded
    into it once per engine so every order-n object scales as g^n.  The spec
    is immutable (engines are cached per spec); derive variants with
    ``dataclasses.replace``.
    """

    H_S: np.ndarray
    A: np.ndarray
    g: float
    bath: object
    adjoint: bool = False

    def __post_init__(self):
        object.__setattr__(self, "H_S", _frozen_array(self.H_S))
        object.__setattr__(self, "A", _frozen_array(self.A))
        for name in ("H_S", "A"):
            mat = getattr(self, name)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            _check_hermitian(mat, name)
        if self.H_S.shape != self.A.shape:
            raise ValueError("H_S and A must share the system dimension")
        if self.d_S < 2:
            raise ValueError("system dimension must be >= 2")
        if np.imag(complex(self.g)) != 0.0:
            raise ValueError("coupling g must be real")
        object.__setattr__(self, "g", float(np.real(complex(self.g))))

    @property
    def d_S(self):
        return self.H_S.shape[0]


def scaled_bath(bath, g):
    """Fold the scalar coupling into the bath operator / kernels."""
    if isinstance(bath, ExactBath):
        return ExactBath(bath.H_E, g * bath.phi, bath.rho_E)
    if isinstance(bath, GaussianBath):
        two = bath.two_point
        mean = bath.mean
        gb = GaussianBath(
            lambda tau, s: g * g * two(tau, s),
            None if mean is None else (lambda tau: g * mean(tau)))
        return gb
    raise TypeError(f"unsupported bath type {type(bath)!r}")


def build_system_superops(model, grid):
    """Tables of A^+(t_j), A^-(t_j) superoperators on the grid.

    Interaction picture: A(tau) = exp(i H_S tau) A exp(-i H_S tau).
    """
    a_t = interaction_picture(model.H_S, model.A, grid.times)
    d = model.d_S
    eye = np.eye(d)
    lmul = np.einsum("tij,kl->tikjl", a_t, eye).reshape(-1, d * d, d * d)
    rmul = np.einsum("ij,tlk->tikjl", eye, a_t).reshape(-1, d * d, d * d)
    return {PLUS: lmul + rmul, MINUS: lmul - rmul}


def _remap(signs, kind):
    """Slot signs, bath signs, parity and order flag of a cluster.

    An adjoint cluster is the transpose dual of a forward chain: reversed
    factor order, reversed bath string and a parity factor from the
    commutator duals.
    """
    if kind == ADJOINT:
        parity = (-1) ** signs.count(PLUS)
        return signs[::-1], flip_signs(signs)[::-1], parity, True
    return signs, flip_signs(signs), 1, False


def _theta_tilde(m1):
    th = np.zeros((m1, m1))
    idx = np.arange(m1)
    th[idx[:, None] > idx[None, :]] = 1.0
    th[idx, idx] = 0.5
    return th


class GeneratorEngine:
    """Shared tables and caches for one (model, quadrature) pair.

    All evaluation entry points below delegate here; reusing one engine
    across calls is what makes the two generator paths agree to round-off
    (they literally share the cached cluster integrals).
    """

    def __init__(self, model, quad):
        self.model = model
        self.quad = quad
        self.grid = quad.grid
        self.a_tab = build_system_superops(model, self.grid)
        self.ctab = correlator_table(scaled_bath(model.bath, model.g),
                                     self.grid.times)
        self.theta = _theta_tilde(self.grid.M + 1)
        self._weights = {}
        self._exact = isinstance(model.bath, ExactBath)
        self._sweeps = {}
        self._clusters = {}
        self._mu = {}
        self._gen = {}
        self.d2 = model.d_S ** 2

    # -- quadrature primitives ------------------------------------------

    def weights(self, i):
        w = self._weights.get(i)
        if w is None:
            if i == 0:
                w = np.zeros(1)
            else:
                w = np.full(i + 1, self.grid.h)
                w[0] = w[-1] = 0.5 * self.grid.h
            self._weights[i] = w
        return w

    def _check_index(self, i):
        if not 0 <= i <= self.grid.M:
            raise IndexError(f"t_index {i} outside grid 0..{self.grid.M}")

    def cluster_value(self, signs, pinned, i, kind):
        """Ordered quadrature of one cluster as a (d^2, d^2) matrix."""
        self._check_index(i)
        if self._exact:
            key = (signs, kind)
            vals = self._sweeps.get(key)
            if vals is None:
                vals = self._sweeps[key] = self._chain_sweep(signs, kind)
            return vals[pinned][i]
        key = (signs, pinned, i, kind)
        val = self._clusters.get(key)
        if val is None:
            val = self._cluster_value(signs, pinned, i, kind)
            self._clusters[key] = val
        return val

    def _chain_sweep(self, signs, kind):
        """One exact-bath cluster at every endpoint, free and pinned.

        Returns the pair (free, pinned) of (M+1, d^2, d^2) arrays, so that
        indexing it with the ``pinned`` flag selects one.  The inner slots
        are carried as joint system x bath states of shape
        (d^2, d^2, d_E, d_E), shared by both variants; see the module
        docstring for the recurrence.  Adjoint chains multiply on the right,
        so they are swept transposed in the system indices.
        """
        asigns, dsig, eta, rev = _remap(signs, kind)
        m1, d2, m = self.grid.M + 1, self.d2, len(signs)
        free = np.zeros((m1, d2, d2), dtype=complex)
        pinned = np.zeros((m1, d2, d2), dtype=complex)
        if dsig[0] == MINUS:
            return free, pinned
        h = self.grid.h
        phi = self.ctab.phi_tab
        rho = self.ctab.bath.rho_E
        de = rho.shape[0]
        fac = [self.a_tab[s].transpose(0, 2, 1) if rev else self.a_tab[s]
               for s in asigns]
        bsign = [1.0 if s == PLUS else -1.0 for s in dsig]

        def op(k, j, y):
            z = (fac[k][j] @ y.reshape(d2, -1)).reshape(d2, d2, de, de)
            return 0.5 * (phi[j] @ z + bsign[k] * (z @ phi[j]))

        def traced_top(j, y):
            # Tr_E Op_0(j)[y]; the outer bath sign is PLUS, so the bath
            # factor traces to Tr_E[phi_j y] and slot 0 needs no d_E^3 work
            tr = y.reshape(d2 * d2, -1) @ phi[j].T.reshape(-1)
            return fac[0][j] @ tr.reshape(d2, d2)

        run = [None] + [np.zeros((d2, d2, de, de), dtype=complex)
                        for _ in range(1, m)]
        xs = [None] * m
        top_run = np.zeros((d2, d2), dtype=complex)
        if m == 1:
            xin = din = pin = np.eye(d2)[:, :, None, None] * rho
        for j in range(m1):
            wbar = 0.5 * h if j == 0 else h
            corner = 0.0 if j == 0 else 0.5 * h
            if m > 1:
                inner = 0.5 * (phi[j] @ rho + bsign[-1] * (rho @ phi[j]))
                x = dcorner = xs[-1] = fac[-1][j][:, :, None, None] * inner
                for k in range(m - 2, 0, -1):
                    dcorner = op(k, j, run[k + 1] + 0.5 * corner * dcorner)
                    x = xs[k] = op(k, j, run[k + 1] + 0.5 * wbar * x)
                xin = run[1] + 0.5 * wbar * x
                din = run[1] + 0.5 * corner * dcorner
                pin = run[1] + corner * dcorner
            free[j] = top_run + corner * traced_top(j, din)
            pinned[j] = traced_top(j, pin)
            top_run += wbar * traced_top(j, xin)
            for k in range(1, m):
                run[k] += wbar * xs[k]
        if rev:
            free, pinned = free.transpose(0, 2, 1), pinned.transpose(0, 2, 1)
        return eta * free, eta * pinned

    def _cluster_value(self, signs, pinned, i, kind):
        """Gaussian-bath cluster quadrature from correlator tables."""
        m = len(signs)
        if m > 4:
            raise ValueError("clusters beyond size 4 are not supported")
        asigns, dsig, eta, rev = _remap(signs, kind)
        a = self.a_tab
        sl = slice(0, i + 1)
        w = self.weights(i)
        ct = self.ctab

        if m == 1:
            d1 = ct.pair_free(dsig)
            if pinned:
                mat = a[asigns[0]][i] * d1[i]
            else:
                mat = np.einsum("j,jab->ab", w * d1[sl], a[asigns[0]][sl])
            return eta * mat

        if m == 2:
            if pinned:
                drow = ct.pair_free(dsig)[i, sl]
                inner = np.einsum("j,jab->ab", w * drow, a[asigns[1]][sl])
                pin = a[asigns[0]][i]
                mat = pin @ inner if not rev else inner @ pin
            else:
                wd = (w[:, None] * w[None, :] * self.theta[sl, sl]
                      * ct.pair_free(dsig)[sl, sl])
                mat = self._double(wd, a[asigns[0]][sl], a[asigns[1]][sl], rev)
            return eta * mat

        if m == 3:
            if pinned:
                wd = (w[:, None] * w[None, :] * self.theta[sl, sl]
                      * ct.triple_slice(dsig, i)[sl, sl])
                core = self._double(wd, a[asigns[1]][sl], a[asigns[2]][sl], rev)
                pin = a[asigns[0]][i]
                mat = pin @ core if not rev else core @ pin
            else:
                mat = np.zeros((self.d2, self.d2), dtype=complex)
                for top in range(i + 1):
                    slb = slice(0, top + 1)
                    wb = w[slb]
                    wd = (wb[:, None] * wb[None, :]
                          * self.theta[top, slb][:, None]
                          * self.theta[slb, slb]
                          * ct.triple_slice(dsig, top)[slb, slb])
                    core = self._double(wd, a[asigns[1]][slb],
                                        a[asigns[2]][slb], rev)
                    lead = a[asigns[0]][top]
                    mat += w[top] * (lead @ core if not rev else core @ lead)
            return eta * mat

        # m == 4: python loops over the two outer free variables
        mat = np.zeros((self.d2, self.d2), dtype=complex)
        outer = [i] if pinned else range(i + 1)
        for top in outer:
            acc = np.zeros_like(mat)
            for b in range(top + 1):
                th_top = 1.0 if pinned else self.theta[top, b]
                if th_top == 0.0:
                    continue
                for c in range(b + 1):
                    rows = ct.chain_rows(dsig, (top, b, c))[:c + 1]
                    win = w[:c + 1] * self.theta[c, :c + 1]
                    inner = np.einsum("d,dab->ab", win * rows,
                                      a[asigns[3]][:c + 1])
                    f1, f2 = a[asigns[1]][b], a[asigns[2]][c]
                    wgt = w[b] * w[c] * th_top * self.theta[b, c]
                    if not rev:
                        acc += wgt * (f1 @ f2 @ inner)
                    else:
                        acc += wgt * (inner @ f2 @ f1)
            lead = a[asigns[0]][top]
            piece = lead @ acc if not rev else acc @ lead
            mat += piece if pinned else w[top] * piece
        return eta * mat

    @staticmethod
    def _double(wd, a_first, a_second, rev):
        if not rev:
            inner = np.einsum("ab,bjk->ajk", wd, a_second)
            return np.einsum("aij,ajk->ik", a_first, inner)
        inner = np.einsum("ab,ajk->bjk", wd, a_first)
        return np.einsum("bij,bjk->ik", a_second, inner)

    # -- expansion objects ----------------------------------------------

    def term_value(self, term, i):
        if term.order > self.quad.max_order:
            raise ValueError(f"term order {term.order} exceeds max_order "
                             f"{self.quad.max_order}")
        self._check_index(i)
        if term.order == 0:
            return term.coeff * np.eye(self.d2, dtype=complex)
        mats = []
        for k, (sl, block) in enumerate(zip(term.cluster_slices(),
                                            term.cluster_signs())):
            pinned = term.pinned and k == 0
            mats.append(self.cluster_value(block, pinned, i, term.kind))
        out = mats[0]
        for mat in mats[1:]:
            out = out @ mat
        return term.coeff * out

    def mu(self, n, i, kind=SCHRODINGER, dotted=False):
        key = (n, i, kind, dotted)
        val = self._mu.get(key)
        if val is None:
            poly = (momentum_derivative_terms(n, kind) if dotted
                    else momentum_terms(n, kind))
            val = sum(self.term_value(t, i) for t in poly)
            self._mu[key] = val
        return val

    def generator_order(self, n, i, kind=SCHRODINGER, path=MATRIX_RECURSION):
        """The n-th expansion coefficient L_n(t_i) without its i^n weight."""
        if path == TERM_EXPANSION:
            return sum(self.term_value(t, i) for t in generator_terms(n, kind))
        if path != MATRIX_RECURSION:
            raise ValueError(f"unknown generator path {path!r}")
        key = (n, i, kind)
        val = self._gen.get(key)
        if val is None:
            val = self.mu(n, i, kind, dotted=True).copy()
            for k in range(1, n):
                val -= self.generator_order(n - k, i, kind) @ self.mu(k, i, kind)
            self._gen[key] = val
        return val

    def generator(self, levels, i, kind=SCHRODINGER, path=MATRIX_RECURSION):
        """Truncated generator: sum of (-i)^n L_n (or i^n for the adjoint)."""
        base = 1j if kind == ADJOINT else -1j
        out = np.zeros((self.d2, self.d2), dtype=complex)
        for n in range(1, levels + 1):
            out += base ** n * self.generator_order(n, i, kind, path)
        return out

    # -- Van Kampen evaluation ------------------------------------------

    def vk_generator(self, n, i):
        """L_n from the tabulated ordered-cumulant list, global simplex."""
        if n > self.quad.max_order:
            raise ValueError("order exceeds max_order")
        self._check_index(i)
        out = np.zeros((self.d2, self.d2), dtype=complex)
        for term in vankampen_terms(n):
            out += term.coeff * self._vk_term(term, i)
        return out

    def _vk_sign_choices(self, block):
        tails = itertools.product((MINUS, PLUS), repeat=len(block) - 1)
        return [MINUS + "".join(t) for t in tails]

    def _vk_term(self, vk, i):
        total = np.zeros((self.d2, self.d2), dtype=complex)
        for combo in itertools.product(
                *(self._vk_sign_choices(b) for b in vk.blocks)):
            total += self._vk_resolved(vk, combo, i)
        return total

    def _vk_resolved(self, vk, block_signs, i):
        """One sign-resolved summand of a Van Kampen term."""
        nvar = vk.order - 1
        w = self.weights(i)
        sl = slice(0, i + 1)
        if nvar == 0:
            (block,), (signs,) = vk.blocks, block_signs
            dval = self.ctab.value(flip_signs(signs), (i,))
            return self.a_tab[signs[0]][i] * dval

        if nvar <= 2:
            grids = np.meshgrid(*([np.arange(i + 1)] * nvar), indexing="ij")
            idx = [g.reshape(-1) for g in grids]
            wgt = w[idx[0]].astype(complex)
            for k in range(1, nvar):
                wgt = wgt * w[idx[k]] * self.theta[idx[k - 1], idx[k]]
            dprod, chain = self._vk_gather(vk, block_signs, i, idx)
            return np.einsum("g,g,gab->ab", wgt, dprod, chain)

        # nvar == 3: chunk over the outermost simplex variable
        out = np.zeros((self.d2, self.d2), dtype=complex)
        for j1 in range(i + 1):
            grids = np.meshgrid(np.arange(i + 1), np.arange(i + 1),
                                indexing="ij")
            idx = [np.full((i + 1) ** 2, j1)] + [g.reshape(-1) for g in grids]
            wgt = (w[j1] * w[idx[1]] * self.theta[j1, idx[1]]
                   * w[idx[2]] * self.theta[idx[1], idx[2]]).astype(complex)
            if not wgt.any():
                continue
            dprod, chain = self._vk_gather(vk, block_signs, i, idx)
            out += np.einsum("g,g,gab->ab", wgt, dprod, chain)
        return out

    def _vk_gather(self, vk, block_signs, i, idx):
        """Correlator products and superoperator chains on flat index sets."""
        nflat = idx[0].shape[0]
        label_idx = {0: i}
        for lbl in range(1, vk.order):
            label_idx[lbl] = idx[lbl - 1]
        dprod = np.ones(nflat, dtype=complex)
        for block, signs in zip(vk.blocks, block_signs):
            dsig = flip_signs(signs)
            ids = [label_idx[lbl] for lbl in block]
            if len(block) == 1:
                vals = self.ctab.pair_free(dsig)[ids[0]]
            elif len(block) == 2:
                vals = self.ctab.pair_free(dsig)[ids[0], ids[1]]
            elif len(block) == 3:
                vals = self._vk_triple(dsig, ids)
            else:
                vals = self._vk_quad(dsig, ids)
            dprod = dprod * vals
        chain = np.broadcast_to(np.eye(self.d2, dtype=complex),
                                (nflat, self.d2, self.d2)).copy()
        for block, signs in zip(vk.blocks, block_signs):
            for lbl, sgn in zip(block, signs):
                mats = self.a_tab[sgn][label_idx[lbl]]
                if np.ndim(label_idx[lbl]) == 0:
                    chain = np.einsum("gab,bc->gac", chain, mats)
                else:
                    chain = np.einsum("gab,gbc->gac", chain, mats)
        return dprod, chain

    def _vk_triple(self, dsig, ids):
        lead = ids[0]
        if np.ndim(lead) == 0:
            return self.ctab.triple_slice(dsig, int(lead))[ids[1], ids[2]]
        # leading index varies: gather per distinct value
        out = np.empty(lead.shape, dtype=complex)
        for val in np.unique(lead):
            mask = lead == val
            tab = self.ctab.triple_slice(dsig, int(val))
            out[mask] = tab[ids[1][mask], ids[2][mask]]
        return out

    @staticmethod
    def _flat_scalar(x):
        arr = np.asarray(x)
        if arr.ndim == 0:
            return int(arr)
        vals = np.unique(arr)
        if len(vals) != 1:
            raise NotImplementedError("leading block indices must be chunked")
        return int(vals[0])

    def _vk_quad(self, dsig, ids):
        # only reached for the fully connected order-4 block
        lead, second = self._flat_scalar(ids[0]), self._flat_scalar(ids[1])
        third, last = ids[2], ids[3]
        out = np.empty(third.shape, dtype=complex)
        for val in np.unique(third):
            rows = self.ctab.chain_rows(dsig, (lead, second, int(val)))
            mask = third == val
            out[mask] = rows[last[mask]]
        return out


def engine_for(model, quad):
    """One engine per (model, quadrature) pair, cached on the quadrature."""
    key = id(model)
    entry = quad._cache.get(key)
    if entry is None or entry[0] is not model:
        entry = (model, GeneratorEngine(model, quad))
        quad._cache[key] = entry
    return entry[1]


def _kind_of(model):
    return ADJOINT if model.adjoint else SCHRODINGER


def _require_stationary_for_adjoint(model, kind):
    if kind != ADJOINT:
        return
    bath = model.bath
    if isinstance(bath, ExactBath) and not bath.is_stationary():
        raise ValueError("adjoint evaluation requires a stationary bath")


def evaluate_term(term, t_index, model, quad):
    """Numeric value of one symbolic term at grid time t_index."""
    return engine_for(model, quad).term_value(term, t_index)


def evaluate_mu(n, t_index, model, quad, kind=SCHRODINGER):
    return engine_for(model, quad).mu(n, t_index, kind)


def evaluate_mu_dot(n, t_index, model, quad, kind=SCHRODINGER):
    return engine_for(model, quad).mu(n, t_index, kind, dotted=True)


def assemble_generator(N, t_index, model, quad, path=MATRIX_RECURSION):
    """Truncated generator at one grid time, by either assembly path."""
    if not 1 <= N <= quad.max_order:
        raise ValueError(f"N must be in 1..{quad.max_order}")
    kind = _kind_of(model)
    _require_stationary_for_adjoint(model, kind)
    return engine_for(model, quad).generator(N, t_index, kind, path)


def generator_table(model, quad, N, path=MATRIX_RECURSION):
    """Truncated generator on the whole grid, shape (M+1, d^2, d^2)."""
    if not 1 <= N <= quad.max_order:
        raise ValueError(f"N must be in 1..{quad.max_order}")
    kind = _kind_of(model)
    _require_stationary_for_adjoint(model, kind)
    eng = engine_for(model, quad)
    out = np.empty((quad.grid.M + 1, eng.d2, eng.d2), dtype=complex)
    for i in range(quad.grid.M + 1):
        out[i] = eng.generator(N, i, kind, path)
    return out


def evaluate_vk_generator(n, t_index, model, quad):
    """L_n evaluated from the tabulated Van Kampen list (no i^n weight)."""
    return engine_for(model, quad).vk_generator(n, t_index)
