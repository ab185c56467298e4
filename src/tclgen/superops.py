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

One cluster contract for both bath backends.  For each forward sign string
(first slot MINUS) a backend forms the outer-slot terms X(j0), D(j0) and
P(j0) as (M+1, d^2, d^2) stacks, already multiplied by the system factor
of slot 0 at t_j0: X sums the later slots with the interior weight of j0,
D with its endpoint weight, and P is the pinned variant.  With
``wb(0) = h/2, wb(j>0) = h`` and ``c(0) = 0, c(j>0) = h/2``, one sum shared
by both backends gives the free cluster at t_i,
``sum_{j0 < i} wb(j0) X(j0) + c(i) D(i)``, and the pinned one is P(i); a
backend returns these (free, pinned) stacks.  An adjoint-kind cluster (last
slot of every cluster MINUS) is the transpose dual of the forward chain of
its reversed sign string, run in the transposed system factors: transposed
back and times (-1)^(number of PLUS slots), its pinned, latest time acts
first on the observable and its bath factor is a standard correlator, which
makes state/observable duality hold numerically order by order.  The dual
needs a stationary bath state, so an adjoint cluster on a non-stationary
exact bath is refused.

Exact-bath chains: a chain of m slots is carried from the inside out as
running joint system x bath states of shape (d^2, d^2, d_E, d_E).
``Op_k(j)`` multiplies the system factor of slot k at t_j into the state
and applies ``(phi_j Y +- Y phi_j)/2`` to its bath factor::

    X_{m-1}(j) = D_{m-1}(j) = Op_{m-1}(j)[rho_E]
    X_k(j) = Op_k(j)[E_{k+1}(j) + wb(j)/2 X_{k+1}(j)]
    D_k(j) = Op_k(j)[E_{k+1}(j) + c(j)/2 D_{k+1}(j)]
    E_k(j) = sum_{j' < j} wb(j') X_k(j')

X is the slot state for an interior point, D the one whose latest time is
the endpoint itself, and E the strict running sum.  The outer-slot terms
are ``Tr_E X_0``, ``Tr_E D_0`` and ``Tr_E Op_0(j)[E_1(j) + c(j) D_1(j)]``;
the outer-slot sum, run once per level (below), then gives the same
iterated trapezoid with tie and edge weights, to round-off.  A nonzero
cluster has a PLUS outer bath sign, so slot 0 is only ever needed traced
and costs no d_E^3 work.  Level L of a sweep holds the states of slot
k = m-1-L, which do not depend on m.

Exact-bath momenta (one sweep per kind; the matrix-recursion path reads
nothing else).  mu_n sums the 2^(n-1) clusters of size n with a MINUS
outer slot, and the chain is linear in every inner slot, so the sum over
the inner signs moves inside it: every inner slot applies one summed
operator::

    Op_S(j)[Y] = A^-(t_j) {phi_j, Y}/2 + eta A^+(t_j) [phi_j, Y]/2
               = (A^- + eta A^+)(t_j) (phi_j Y)/2
                 + (A^- - eta A^+)(t_j) (Y phi_j)/2

with eta = +1 for the forward kind.  An adjoint momentum sums forward
chains in the transposed factors, each times (-1)^(number of PLUS slots),
so eta = -1 there and the result is transposed back.  The recurrence above
with Op_S in every inner slot keeps one X, D and E state per level, and the
traced top over level L gives mu_{L+1} (free) and its derivative (pinned).
Level 1 is two outer products, each deeper level one Op_S on the pair
``[E + wb/2 X, E + c/2 D]`` of the level below: an order-N sweep costs
2N - 3 state applications per grid point (5 at N=4, 13 at N=8) and
O(N M (d_S^6 d_E^2 + d_S^4 d_E^3)) time.  The top traces each state before
the weighted sums, ``Tr_E[phi_j (E + w X)] = Tr_E[phi_j E] + w Tr_E[phi_j
X]``, so the sweep keeps 3(N-1) states, made once, and the traces of each
level at every grid point.

Exact-bath clusters (one trie sweep per kind; the term-expansion path,
and so the check on the momentum sweep).  The states of slot k depend
only on the suffix of the sign string from slot k on, so one sweep keeps
them per suffix, as a trie: level L holds the states of all 2^L suffixes
as one stack, level L+1 is ``Op_+`` and ``Op_-`` applied to the stacked
``[E + wb/2 X, E + c/2 D]`` of level L, and the traced top slot over level
L gives every string of size L+1.  Each distinct suffix state is then
built once per grid point: an order-N sweep costs 2^(N+1) - 8 state
applications per grid point, against (N-3) 2^(N+1) + 8 for one sweep per
string (24 against 40 at N=4, 56 against 136 at N=5).  ``Op`` runs on
batches of stacked states: the system factor is one matmul per state, and
each bath product is one 2-D matmul over the whole batch.  A batch holds
at most ``GeneratorEngine.CHUNK`` matrix elements, so a large bath state
goes through alone.  The sweep costs O(2^N M (d_S^6 d_E^2 + d_S^4 d_E^3))
time and keeps only the running states in memory.

Gaussian-bath clusters (one evaluation per sign string and kind): the bath
correlator does not factor into slot states, so the later slots are summed
per outer index j0 with one weight rule.  A later slot at grid point b,
following its neighbour at a, has the weight ``w(b) theta[a, b]``, where
theta is the ordering factor and w the trapezoid weights of the grid
points 0..j0: interior (wb) in X, with the endpoint corner c at j0 in D and
P.  P drops theta between slots 0 and 1, the domain edge.  Ties at j0 are
then weights, not separate terms.  For two slots the sums at every j0 are
one masked (M+1)^2 matmul of the pair table with the stack of slot-1
factors, plus its diagonal.  For m >= 3 slots each j0 gets the correlator
box of the later m-1 slots over grid points 0..j0 from one ``_chain``
call; the weighted box is contracted with the system factors from the
innermost slot out, one matmul per slot.  A box holds O(j0^(m-1))
entries, so a free cluster costs O(M^m) time for all endpoints together,
as much as one endpoint evaluated on its own, and an engine on a Gaussian
bath refuses a ``max_order`` above ``GAUSSIAN_MAX_SLOTS``.  Only the
whole-grid pair tables are kept; a box lives for its j0 alone.

Expansion objects on whole-grid stacks: a term is the product of its
cluster stacks, one batched matmul per factor.  The momenta and their
derivatives come from the momentum sweep on an exact bath and are sums of
cluster stacks on a Gaussian one, and the orders L_n are batched products
of momenta; all are cached per (order, kind).  Batched matmul multiplies
each grid point's matrices with the same product as a single 2-D matmul,
so a grid index of a stack has the bits of that grid point evaluated
alone.
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
    """Grid and largest expansion order, the largest cluster size.

    Any ``max_order >= 1`` is accepted with ``M >= 2*max_order``.  An exact
    bath serves every order; an engine on a Gaussian bath refuses a
    ``max_order`` above ``GeneratorEngine.GAUSSIAN_MAX_SLOTS`` (4), since
    a Gaussian cluster of m slots costs O(M^m).
    """

    grid: Grid
    max_order: int = 3
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
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


# trie order of a slot sign, and the bath sign that multiplies z phi in
# that slot's Op (the bath string is the flipped system string)
_TRIE_SIGNS = (MINUS, PLUS)
_BATH_SIGN = (1.0, -1.0)


def _slot_op(fac_j, half_j, bsign, y, out, work):
    """``out = Op(j)[y]`` for a stack of joint states; ``half_j = phi_j/2``.

    The system factor multiplies each state by one matmul per state; both
    bath products are one 2-D matmul over the whole stack, ``phi_j z`` on a
    transposed copy.  Halving is exact in binary floating point, so folding
    the 1/2 and the bath sign into phi gives the bits of
    ``(phi_j z +- z phi_j)/2``.  The products go to ``work``, three flat
    arrays of at least ``y.size`` elements.
    """
    d2, de = fac_j.shape[0], half_j.shape[0]
    z, zt, zp = (w[:y.size].reshape(-1, de, de) for w in work)
    np.matmul(fac_j, y.reshape(-1, d2, d2 * de * de),
              out=z.reshape(-1, d2, d2 * de * de))
    np.copyto(zt, z.transpose(0, 2, 1))
    np.matmul(z.reshape(-1, de), bsign * half_j, out=zp.reshape(-1, de))
    pz = np.matmul(zt.reshape(-1, de), half_j.T, out=z.reshape(-1, de))
    np.add(pz.reshape(-1, de, de).transpose(0, 2, 1).reshape(out.shape),
           zp.reshape(out.shape), out=out)


def _summed_op(left_j, right_j, half_j, y, out, work):
    """``out = Op_S(j)[y]`` for a stack of joint states; ``half_j = phi_j/2``.

    ``Op_S(j)[Y] = left_j (phi_j Y)/2 + right_j (Y phi_j)/2`` is the slot
    operator summed over both signs (module docstring).  ``phi_j Y`` is one
    2-D matmul on a transposed copy and stays transposed through its system
    factor; the sum transposes it back.  ``work`` holds three arrays of the
    shape of ``y``.
    """
    s, d2, de = y.shape[0], y.shape[1], y.shape[-1]
    zt, p, q = work
    np.copyto(zt, y.swapaxes(-1, -2))
    np.matmul(zt.reshape(-1, de), half_j.T, out=p.reshape(-1, de))
    np.matmul(y.reshape(-1, de), half_j, out=q.reshape(-1, de))
    np.matmul(left_j, p.reshape(s, d2, -1), out=zt.reshape(s, d2, -1))
    np.matmul(right_j, q.reshape(s, d2, -1), out=p.reshape(s, d2, -1))
    np.add(zt.swapaxes(-1, -2), p, out=out)


def _theta_tilde(m1):
    th = np.zeros((m1, m1))
    idx = np.arange(m1)
    th[idx[:, None] > idx[None, :]] = 1.0
    th[idx, idx] = 0.5
    return th


def _frozen(stack):
    """Mark a cached stack read-only, so no caller can alter the cache."""
    stack.setflags(write=False)
    return stack


class GeneratorEngine:
    """Shared tables and caches for one (model, quadrature) pair.

    All evaluation entry points below delegate here.  Clusters, terms,
    momenta and generator orders are evaluated on the whole grid at once,
    as (M+1, d^2, d^2) stacks; an entry point given a grid index ``i``
    returns that slice of the stack, and ``i=None`` returns the stack.
    On an exact bath the two generator paths share no arithmetic: the
    matrix recursion reads the momentum sweep and the term expansion the
    trie sweep's clusters, so their agreement to round-off checks both.  On
    a Gaussian bath both read the same cached cluster stacks.
    """

    def __init__(self, model, quad):
        self._exact = isinstance(model.bath, ExactBath)
        if not self._exact and quad.max_order > self.GAUSSIAN_MAX_SLOTS:
            raise ValueError(f"a Gaussian bath serves clusters of at most "
                             f"{self.GAUSSIAN_MAX_SLOTS} slots, not "
                             f"max_order {quad.max_order}")
        self.model = model
        self.quad = quad
        self.grid = quad.grid
        self.a_tab = build_system_superops(model, self.grid)
        # system factors of the forward chains of each kind: an adjoint
        # cluster is a forward chain in the transposed factors
        self.factors = {SCHRODINGER: self.a_tab,
                        ADJOINT: {s: tab.transpose(0, 2, 1)
                                  for s, tab in self.a_tab.items()}}
        self.ctab = correlator_table(scaled_bath(model.bath, model.g),
                                     self.grid.times)
        m1, h = self.grid.M + 1, self.grid.h
        self.theta = _theta_tilde(m1)
        # trapezoid weights of a grid point: interior wb, endpoint corner c
        self.wb = np.full(m1, h)
        self.wb[0] = 0.5 * h
        self.c = np.full(m1, 0.5 * h)
        self.c[0] = 0.0
        self._clusters = {}    # (signs, kind) -> (free, pinned) stacks
        self._mu = {}          # (n, kind, dotted) -> stack
        self._gen = {}         # (n, kind, path) -> stack
        self.d2 = model.d_S ** 2

    # the sweep applies Op to batches of at most this many matrix elements
    CHUNK = 1 << 14
    # a Gaussian cluster of m slots costs O(M^m): larger ones are refused
    GAUSSIAN_MAX_SLOTS = 4

    # -- quadrature primitives ------------------------------------------

    def weights(self, i):
        """Trapezoid weights of grid points 0..i on [0, t_i]."""
        w = self.wb[:i + 1].copy()
        w[i] = self.c[i]
        return w

    def _check_index(self, i):
        if i is not None and not 0 <= i <= self.grid.M:
            raise IndexError(f"t_index {i} outside grid 0..{self.grid.M}")

    @staticmethod
    def _at(stack, i):
        """Grid index ``i`` of a stack, or the whole stack for ``i=None``."""
        return stack if i is None else stack[i]

    def cluster_value(self, signs, pinned, i, kind):
        """Ordered quadrature of one cluster at t_i as a (d^2, d^2) matrix.

        ``i=None`` gives the (M+1, d^2, d^2) stack over every endpoint.  The
        first query evaluates the cluster at every endpoint at once: one
        sweep per kind serves every exact-bath cluster, and a Gaussian-bath
        cluster is one evaluation per sign string and kind.  Both backends
        return forward (free, pinned) stacks from the one outer-slot sum;
        the adjoint mapping is done here (see the module docstring).
        """
        self._check_index(i)
        if not 1 <= len(signs) <= self.quad.max_order:
            raise ValueError(f"cluster size {len(signs)} outside "
                             f"1..{self.quad.max_order}")
        key = (signs, kind)
        stacks = self._clusters.get(key)
        if stacks is None:
            adjoint = kind == ADJOINT
            if (adjoint and self._exact
                    and not self.model.bath.is_stationary()):
                raise ValueError("adjoint evaluation requires a stationary "
                                 "bath")
            forward = signs[::-1] if adjoint else signs
            if forward[0] != MINUS:
                # inadmissible: a leading MINUS bath sign traces to zero
                return self._at(np.zeros((self.grid.M + 1, self.d2, self.d2),
                                         dtype=complex), i)
            if self._exact:
                found = self._kind_sweep(kind).items()
            else:
                found = [(forward, self._gaussian_cluster(forward, kind))]
            for chain, pair in found:
                if adjoint:
                    eta = (-1) ** chain.count(PLUS)
                    pair = tuple(eta * v.transpose(0, 2, 1) for v in pair)
                    chain = chain[::-1]
                self._clusters[chain, kind] = tuple(map(_frozen, pair))
            stacks = self._clusters[key]
        return self._at(stacks[pinned], i)

    def _outer_sum(self, x, d, p):
        """``(free, pinned)`` stacks from the outer-slot terms X, D and P.

        ``free(i) = sum_{j0 < i} wb(j0) X(j0) + c(i) D(i)``, with the strict
        sum accumulated in grid order, and ``pinned = P``.  The grid is the
        third axis from the end, (..., M+1, d^2, d^2), so one call serves a
        stack of sign strings; each string gets the bits of a call alone.
        """
        free = np.zeros_like(x)
        np.cumsum(self.wb[:-1, None, None] * x[..., :-1, :, :], axis=-3,
                  out=free[..., 1:, :, :])
        free += self.c[:, None, None] * d
        return free, p

    def _kind_sweep(self, kind):
        """Every admissible exact-bath chain of one kind.

        Returns ``{signs: (free, pinned)}`` with (M+1, d^2, d^2) stacks for
        each forward sign string of size 1..max_order, in the system factors
        ``self.factors[kind]``.  The slot states are indexed by the suffix
        of the string they depend on: level L of the trie holds the X, D
        and running E states of all 2^L suffixes, and the leading sign of a
        suffix is bit 0 of its index.  The outer-slot terms of a level are
        one (3, 2^L, M+1, d^2, d^2) array, summed by one ``_outer_sum``.
        See the module docstring for the recurrence.
        """
        tab = self.factors[kind]
        m1, d2, top = self.grid.M + 1, self.d2, self.quad.max_order
        phi = self.ctab.phi_tab
        rho = self.ctab.bath.rho_E
        de = rho.shape[0]
        shape = (d2, d2, de, de)
        fac = np.stack([tab[s] for s in _TRIE_SIGNS])
        bsign = np.array(_BATH_SIGN)[:, None, None]
        lead = fac[0]  # the outer slot of an admissible string is MINUS
        per = max(1, self.CHUNK // (2 * d2 * d2 * de * de))
        outer = [np.zeros((3, 2 ** lv, m1, d2, d2), dtype=complex)
                 for lv in range(top)]
        run = [None] + [np.zeros((2 ** lv,) + shape, dtype=complex)
                        for lv in range(1, top)]
        base = (np.eye(d2)[:, :, None, None] * rho)[None]
        # work space allocated once: state-sized temporaries made afresh at
        # every grid point would go back to the system and fault in again
        batch = min(2 ** (top - 1), per) * d2 * d2 * de * de
        space = np.empty(3 * batch, dtype=complex)
        work = np.empty((3, 2 * batch), dtype=complex)
        first = np.empty((min(2, per),) + shape, dtype=complex)
        nxts = [None] + [np.empty((2, 2 ** lv, 2) + shape, dtype=complex)
                         for lv in range(1, top - 1)]

        def traced_top(j, phi_t, y):
            # Tr_E Op_0(j)[y] for a stack of states; the outer bath sign is
            # PLUS, so the bath factor traces to Tr_E[phi_j y]
            tr = y.reshape(-1, de * de) @ phi_t
            return np.matmul(lead[j], tr.reshape(y.shape[:-4] + (d2, d2)))

        for j in range(m1):
            wbar, corner = self.wb[j], self.c[j]
            phi_t = phi[j].T.reshape(-1)
            outer[0][:, :, j] = traced_top(j, phi_t, base)
            if top > 1:
                inner = 0.5 * (phi[j] @ rho + bsign * (rho @ phi[j]))
            states = None
            for lv in range(1, top):
                n = 2 ** lv
                # next level's X and D; its new leading sign is bit 0
                nxt = nxts[lv] if lv + 1 < top else None
                for lo in range(0, n, per):
                    hi = min(n, lo + per)
                    part = slice(lo, hi)
                    if lv == 1:
                        x = d = np.multiply(fac[part, j][:, :, :, None, None],
                                            inner[part, None, None],
                                            out=first[:hi - lo])
                    else:
                        x, d = states[0, part], states[1, part]
                    e = run[lv][part]
                    # [E + wb/2 X, E + c/2 D, E + c D], each summed in
                    # place: the bits of E + w Y without a temporary
                    buf = space[:3 * e.size].reshape((3,) + e.shape)
                    for b, (w, y) in enumerate(((0.5 * wbar, x),
                                                (0.5 * corner, d),
                                                (corner, d))):
                        np.multiply(w, y, out=buf[b])
                        buf[b] += e
                    outer[lv][:, part, j] = traced_top(j, phi_t, buf)
                    if nxt is not None:
                        for s in range(2):
                            _slot_op(fac[s][j], 0.5 * phi[j], _BATH_SIGN[s],
                                     buf[:2], nxt[:, part, s], work)
                    # buf is spent: it holds wb X for the running sum
                    e += np.multiply(wbar, x, out=buf[0])
                if nxt is not None:
                    states = nxt.reshape((2, 2 * n) + shape)
        out = {}
        for lv in range(top):
            free, pinned = self._outer_sum(*outer[lv])
            # a copy, so that the cached pinned stacks keep no X or D alive
            pinned = pinned.copy()
            for idx in range(2 ** lv):
                signs = MINUS + "".join(_TRIE_SIGNS[(idx >> b) & 1]
                                        for b in range(lv))
                out[signs] = free[idx], pinned[idx]
        return out

    def _momentum_sweep(self, kind):
        """Cache every exact-bath momentum of one kind from one chain sweep.

        Fills ``self._mu`` under ``(n, kind, dotted)`` for n = 1..max_order.
        Level L keeps one X, D and E state: the sums over the signs of the
        L inner slots, with the parity eta of each PLUS slot for the adjoint
        kind.  Their traces at every grid point are kept, and the traced top
        over level L gives mu_{L+1} and its derivative through
        ``_outer_sum``.  See the module docstring for the recurrence.
        """
        if kind == ADJOINT and not self.model.bath.is_stationary():
            raise ValueError("adjoint evaluation requires a stationary bath")
        tab = self.factors[kind]
        eta = -1.0 if kind == ADJOINT else 1.0
        lead = tab[MINUS]  # the outer slot of a momentum is MINUS
        left, right = lead + eta * tab[PLUS], lead - eta * tab[PLUS]
        factors = np.stack((left, right), -1)
        halves = 0.5 * np.stack((self.wb, self.c), -1)
        m1, d2, top = self.grid.M + 1, self.d2, self.quad.max_order
        phi = self.ctab.phi_tab
        rho = self.ctab.bath.rho_E
        de = rho.shape[0]
        # all buffers are made once: [E, X, D] per level, the traces of
        # those at every grid point, and the slot operator's work space
        states = np.zeros((top - 1, 3, d2, d2, de, de), dtype=complex)
        traces = np.empty((top - 1, m1, 3, d2, d2), dtype=complex)
        buf = np.empty((2, d2, d2, de, de), dtype=complex)
        work = np.empty((3,) + buf.shape, dtype=complex)
        pair = np.empty((2, de, de), dtype=complex)
        for j in range(m1 if top > 1 else 0):
            half = 0.5 * phi[j]
            phi_t = phi[j].T.reshape(-1)
            # level 1: X = D = Op_S(j)[rho_E], two outer products
            np.matmul(half, rho, out=pair[0])
            np.matmul(rho, half, out=pair[1])
            np.matmul(factors[j].reshape(-1, 2), pair.reshape(2, -1),
                      out=states[0, 1].reshape(d2 * d2, -1))
            states[0, 2] = states[0, 1]
            for lv, st in enumerate(states):
                np.matmul(st.reshape(-1, de * de), phi_t,
                          out=traces[lv, j].reshape(-1))
                if lv + 2 < top:
                    # [E + wb/2 X, E + c/2 D] into the next level's X, D
                    np.multiply(halves[j, :, None, None, None, None], st[1:],
                                out=buf)
                    buf += st[0]
                    _summed_op(left[j], right[j], half, buf,
                               states[lv + 1, 1:], work)
                st[0] += np.multiply(self.wb[j], st[1], out=work[0, 0])
        # outer-slot terms X, D, P of every level: traced top on
        # [E + wb/2 X, E + c/2 D, E + c D], summed after tracing
        tr0 = np.einsum("jab,ba->j", phi, rho)[:, None, None]
        terms = np.empty((3, top, m1, d2, d2), dtype=complex)
        terms[:, 0] = tr0 * lead
        e, x, d = (traces[:, :, k] for k in range(3))
        for out, w, y in ((terms[0], 0.5 * self.wb, x),
                          (terms[1], 0.5 * self.c, d),
                          (terms[2], self.c, d)):
            np.matmul(lead, e + w[:, None, None] * y, out=out[1:])
        free, pinned = self._outer_sum(*terms)
        for n in range(1, top + 1):
            for dotted, val in ((False, free[n - 1]), (True, pinned[n - 1])):
                if kind == ADJOINT:
                    val = val.transpose(0, 2, 1)
                # a copy, so that no cached stack keeps the others alive
                self._mu[n, kind, dotted] = _frozen(np.array(val))

    def _gaussian_cluster(self, signs, kind):
        """(free, pinned) stacks of one forward Gaussian-bath chain.

        ``signs`` is a forward sign string and the system factors are
        ``self.factors[kind]``.  A later slot at b, following its neighbour
        at a, has the weight ``w(b) theta[a, b]``, where w is wb for X and
        ``weights(j0)`` for D and P, and P drops theta between slots 0 and
        1.  For one or two slots this rule is applied at every j0 at once.
        For more, each j0 gets the correlator box of the later slots over
        grid points 0..j0 from one ``_chain`` call, and the weighted box is
        contracted with the system factors from the innermost slot out,
        one matmul per slot.  On a zero-mean bath an odd cluster of three or
        more slots is zero (Isserlis) and is not evaluated.
        """
        tab, wb, c, th = self.factors[kind], self.wb, self.c, self.theta
        dsig = flip_signs(signs)
        m1, d2 = self.grid.M + 1, self.d2
        if len(signs) > 1 and len(signs) % 2 and self.ctab.bath.mean is None:
            zero = np.zeros((m1, d2, d2), dtype=complex)
            return zero, zero
        lead = tab[signs[0]]
        if len(signs) == 1:
            x = self.ctab.pair_free(dsig)[:, None, None] * lead
            return self._outer_sum(x, x, x)
        a1 = tab[signs[1]]
        if len(signs) == 2:
            pair = self.ctab.pair_free(dsig)
            strict = np.tril(pair, -1) * wb
            core = (strict @ a1.reshape(m1, -1)).reshape(a1.shape)
            tie = np.diagonal(pair)[:, None, None] * a1
            x, d, p = (core + w[:, None, None] * tie
                       for w in (0.5 * wb, 0.5 * c, c))
        else:
            x, d, p = np.empty((3,) + a1.shape, dtype=complex)
            for j0 in range(m1):
                n = j0 + 1
                # axes j0 (of length 1), j1, ..., j_{m-1}
                box = self.ctab._chain(
                    dsig, np.ix_([j0], *[np.arange(n)] * (len(signs) - 1)))
                # slot 1 follows j0: X and D with theta, P without
                top = np.vstack([th[j0, :n], np.ones(n)])
                for w, rows, outs in ((wb[:n], top[:1], (x,)),
                                      (self.weights(j0), top, (d, p))):
                    ww = w * th[:n, :n]
                    r = ((box * ww) @ tab[signs[-1]][:n].reshape(n, -1)
                         ).reshape(box.shape[:-1] + (d2, d2))
                    for k in range(len(signs) - 2, 0, -1):
                        r = r * (ww if k > 1 else w * rows)[..., None, None]
                        ak = tab[signs[k]][:n].transpose(1, 0, 2)
                        r = ak.reshape(d2, -1) @ r.reshape(
                            r.shape[:-3] + (n * d2, d2))
                    for out, v in zip(outs, r):
                        out[j0] = v
        return self._outer_sum(*(lead @ v for v in (x, d, p)))

    # -- expansion objects on the whole grid ----------------------------

    def term_value(self, term, i=None):
        """One symbolic term at t_i, or its stack over the grid (``i=None``).

        The cluster factors multiply as stacks, one batched matmul each.
        """
        if term.order > self.quad.max_order:
            raise ValueError(f"term order {term.order} exceeds max_order "
                             f"{self.quad.max_order}")
        self._check_index(i)
        if term.order == 0:
            out = np.broadcast_to(np.eye(self.d2, dtype=complex),
                                  (self.grid.M + 1, self.d2, self.d2))
        else:
            out = None
            for k, block in enumerate(term.cluster_signs()):
                stack = self.cluster_value(block, term.pinned and k == 0,
                                           None, term.kind)
                out = stack if out is None else out @ stack
        return self._at(term.coeff * out, i)

    def mu(self, n, i=None, kind=SCHRODINGER, dotted=False):
        """The n-th momentum (or its derivative) at t_i, or its stack.

        An exact bath gets every momentum of the kind from one
        ``_momentum_sweep``; a Gaussian bath sums its cluster terms.
        """
        self._check_index(i)
        if not 1 <= n <= self.quad.max_order:
            raise ValueError(f"momentum order {n} outside "
                             f"1..{self.quad.max_order}")
        key = (n, kind, dotted)
        val = self._mu.get(key)
        if val is None:
            if self._exact:
                self._momentum_sweep(kind)
                val = self._mu[key]
            else:
                make = momentum_derivative_terms if dotted else momentum_terms
                val = self._mu[key] = _frozen(sum(
                    self.term_value(t) for t in make(n, kind)))
        return self._at(val, i)

    def generator_order(self, n, i=None, kind=SCHRODINGER,
                        path=MATRIX_RECURSION):
        """The n-th expansion coefficient L_n(t_i) without its i^n weight."""
        if path not in (TERM_EXPANSION, MATRIX_RECURSION):
            raise ValueError(f"unknown generator path {path!r}")
        self._check_index(i)
        key = (n, kind, path)
        val = self._gen.get(key)
        if val is None:
            if path == TERM_EXPANSION:
                val = sum(self.term_value(t)
                          for t in generator_terms(n, kind))
            else:
                val = self.mu(n, None, kind, dotted=True).copy()
                for k in range(1, n):
                    val -= (self.generator_order(n - k, None, kind)
                            @ self.mu(k, None, kind))
            self._gen[key] = _frozen(val)
        return self._at(val, i)

    def generator(self, levels, i=None, kind=SCHRODINGER,
                  path=MATRIX_RECURSION):
        """Truncated generator: sum of (-i)^n L_n (or i^n for the adjoint)."""
        self._check_index(i)
        base = 1j if kind == ADJOINT else -1j
        out = np.zeros((self.grid.M + 1, self.d2, self.d2), dtype=complex)
        for n in range(1, levels + 1):
            out += base ** n * self.generator_order(n, None, kind, path)
        return self._at(out, i)

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

    def _vk_term(self, vk, i):
        """One Van Kampen term as a plain sum over the ordered simplex.

        Label 0 sits at t_i and labels 1..n-1 run over the grid points
        t_i >= t_j1 >= ... >= t_j(n-1) with nonzero trapezoid and ordering
        weight.  Every block takes each system sign string that starts with
        MINUS (the others have a vanishing correlator) and contributes its
        bath correlator; the system factors multiply in block order.
        """
        pts = np.array(list(itertools.combinations_with_replacement(
            range(i, -1, -1), vk.order - 1)), dtype=int)
        idx = [np.full(len(pts), i)] + list(pts.T)
        w = self.weights(i)
        wgt = np.ones(len(pts))
        for k in range(1, vk.order):
            # no ordering factor between t_i and label 1: a domain edge
            tie = self.theta[idx[k - 1], idx[k]] if k > 1 else 1.0
            wgt *= w[idx[k]] * tie
        keep = np.flatnonzero(wgt)
        idx, wgt = [j[keep] for j in idx], wgt[keep]
        choices = [[MINUS + "".join(tail) for tail in
                    itertools.product((MINUS, PLUS), repeat=len(block) - 1)]
                   for block in vk.blocks]
        total = np.zeros((self.d2, self.d2), dtype=complex)
        for combo in itertools.product(*choices):
            val, chain = wgt.astype(complex), np.eye(self.d2, dtype=complex)
            for block, signs in zip(vk.blocks, combo):
                ids = [idx[lbl] for lbl in block]
                val = val * self.ctab._chain(flip_signs(signs), ids)
                for sign, j in zip(signs, ids):
                    chain = chain @ self.a_tab[sign][j]
            total += np.einsum("g,gab->ab", val, chain)
        return total


def engine_for(model, quad):
    """The engine of (model, quad), cached on the quadrature.

    Only the last model's engine is kept, so a quadrature reused with many
    derived models holds one engine at a time.
    """
    entry = quad._cache.get("last")
    if entry is None or entry[0] is not model:
        entry = quad._cache["last"] = (model, GeneratorEngine(model, quad))
    return entry[1]


def _kind_of(model):
    return ADJOINT if model.adjoint else SCHRODINGER


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
    return engine_for(model, quad).generator(N, t_index, _kind_of(model),
                                             path)


def generator_table(model, quad, N, path=MATRIX_RECURSION):
    """Truncated generator on the whole grid, shape (M+1, d^2, d^2)."""
    if not 1 <= N <= quad.max_order:
        raise ValueError(f"N must be in 1..{quad.max_order}")
    return engine_for(model, quad).generator(N, None, _kind_of(model), path)


def evaluate_vk_generator(n, t_index, model, quad):
    """L_n evaluated from the tabulated Van Kampen list (no i^n weight)."""
    return engine_for(model, quad).vk_generator(n, t_index)
