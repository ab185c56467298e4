"""System superoperators, ordered quadrature, and generator assembly.

Vectorization convention (fixed once for the whole package): operators are
flattened row-major, ``vec(rho) = rho.reshape(-1)``, so left multiplication
is ``X_L = kron(X, I)`` and right multiplication is ``X_R = kron(I, X.T)``,
of one matrix or of each matrix of a stack.  A superoperator is the (d^2,
d^2) complex matrix acting on such vectors.

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
backend returns these (free, pinned) stacks.

Only forward chains are evaluated.  ``dual(S)[(a, b), (c, e)] = S[(e, c),
(b, a)]``, the Hilbert-Schmidt dual in this vec convention, swaps left and
right multiplication and reverses products.  An adjoint-kind cluster of m
slots (last slot MINUS) is ``(-1)^m dual`` of the forward cluster of its
reversed sign string, pinned or free, and the adjoint momenta (and their
derivatives) are ``(-1)^n dual(mu_n)``: state/observable duality, order by
order.  L_n is not mapped, as the dual reverses products.

Chains of one and two slots on either bath, and exact-bath chains of any
size, come from one ``_sweep`` per branch set.  Exact-bath chains run on
the engine's one table, ``correlator_table`` built with max_order: the
(phi_j, rho_E) of the eigenbasis of H_E on the d_R <= d_E levels within
max_order // 2 links of the support of rho_E.  A chain of n slots traced
on rho_E is a sum over walks of n links that start and end on that
support, and only exact zeros of phi cut a link, so the dropped levels
change no chain of up to max_order slots: on a vacuum boson mode d_R =
min(max_order // 2 + 1, d_E), and a bath whose state has full support
keeps d_R = d_E.  A chain of m slots is carried from the inside out as
running joint system x bath states of shape (d^2, d^2, d_R, d_R).  An
inner slot at t_j applies the operator of its branch k, ``Op_k(j)[Y] =
left_k(t_j) (phi_j Y)/2 + right_k(t_j) (Y phi_j)/2``::

    X_{m-1}(j) = D_{m-1}(j) = Op(j)[rho_E]
    X_k(j) = Op(j)[E_{k+1}(j) + wb(j)/2 X_{k+1}(j)]
    D_k(j) = Op(j)[E_{k+1}(j) + c(j)/2 D_{k+1}(j)]
    E_k(j) = sum_{j' < j} wb(j') X_k(j')

X is the slot state for an interior point, D the one whose latest time is
the endpoint itself, and E the strict running sum.  The outer-slot terms
are ``Tr_E X_0``, ``Tr_E D_0`` and ``Tr_E Op_0(j)[E_1(j) + c(j) D_1(j)]``,
traced before the weighted sums, and the outer-slot sum then gives the
same iterated trapezoid with tie and edge weights, to round-off.  A
nonzero cluster has a PLUS outer bath sign, so slot 0 is only needed
traced and costs no d_R^3 work.  The states of slot k = m-1-L do not
depend on m: level L of a sweep holds them for all K^L branch strings, and
its traced top gives every chain of size L+1.  Level 1 is two outer
products per branch, and each deeper level applies every ``Op_k`` to
``[E + wb/2 X, E + c/2 D]``.  The levels run over blocks of grid points,
as many as keep a block's states and temporaries within a cache-sized
budget: each step is one batched NumPy expression on plain arrays per
block, about a dozen per level, and only the running sum E takes one call
per point and level.  Nothing but the traces and each level's carried E
outlives a block.

Level 0 is the first moment ``Tr(phi_j rho_E)``, a Gaussian table's mean.
When two slots are the longest chain of a sweep, no deeper level reads the
level-1 states, so none is built: for any bath ``Tr_E[phi_a
Op_k(b)[rho_E]] = left_k(b) g[a, b] + right_k(b) g[b, a]`` needs only the
uncentred two-point table ``g[a, b] = <phi_a phi_b>/2``, and
``_pair_traces`` sums it in blocks of 3 K d_S^4 grid points.  An exact
bath carries the earlier blocks as one (d_R^2, K d_S^4) matrix, in O(M (K
d_S^4 d_R^2 + d_R^3)) time; a Gaussian one reads them from row and column
slices of its centred (M+1)^2 table, views that are not copied, plus a
carried row for the mean's rank-one part, in O(M^2 K d_S^4) time and O(M
K d_S^4) memory.  Neither loops over grid points.  An exact sweep runs to
max_order; a Gaussian sweep stops at two slots, as its correlator does not
factor into slot states.

* Clusters, K = 2 (the term-expansion path): a MINUS slot is ``A^-
  {phi_j, Y}/2`` and a PLUS slot ``A^+ [phi_j, Y]/2``, as the bath string
  is the flipped system string.  Every suffix state is built once per grid
  point: 2^(N+1) - 8 state applications below level 1 per grid point at
  order N, against (N-3) 2^(N+1) + 8 for one sweep per string (24 against
  40 at N=4), in O(2^N M (d_S^6 d_R^2 + d_S^4 d_R^3)) time for N >= 3
  and O(M (d_S^4 d_R^2 + d_R^3)) at N = 2 on an exact bath.
* Momenta, K = 1 (the matrix-recursion path reads nothing else): mu_n
  sums the clusters of size n, and the chain is linear in every inner
  slot, so one branch applies the sum over both signs, left = A^- + A^+
  and right = A^- - A^+.  Level L gives mu_{L+1} (free) and its
  derivative (pinned) in 2N - 3 state applications per grid point (5 at
  N=4, 13 at N=8) and O(N M (d_S^6 d_R^2 + d_S^4 d_R^3)) time for N >= 3,
  O(M (d_S^4 d_R^2 + d_R^3)) at N = 2 on an exact bath.

Gaussian-bath clusters of three or more slots (one evaluation per forward
sign string): the bath correlator does not factor into slot states, so
the later slots are summed per outer index j0 with one weight rule.  A
later slot at grid point b, following its neighbour at a, has the weight
``w(b) theta[a, b]``, where theta is the ordering factor and w the
trapezoid weights of the grid points 0..j0: interior (wb) in X, with the
endpoint corner c at j0 in D and P.  P drops theta between slots 0 and 1,
the domain edge.  Ties at j0 are then weights, not separate terms.  Each
j0 gets the correlator box of the later m-1 slots over grid points 0..j0
from one ``_chain`` call; the weighted box is contracted with the system
factors from the innermost slot out, one matmul per slot.  A box holds
O(j0^(m-1)) entries, so a free cluster costs O(M^m) time for all
endpoints together, as much as one endpoint evaluated on its own, and an
engine on a Gaussian bath refuses a ``max_order`` above
``GAUSSIAN_MAX_SLOTS``.  No box is kept beyond its j0.  The one- and
two-slot clusters, and mu_1 and mu_2 with their derivatives, come from the
sweep at every max_order, in O(M^2 d_S^4) time for all endpoints
together.

Expansion objects on whole-grid stacks: a term is the product of its
cluster stacks, one batched matmul per factor.  The momenta and their
derivatives come from the momentum sweep, up to mu_2 on a Gaussian bath,
whose higher momenta are sums of cluster stacks, and the orders L_n are
batched products of momenta; all are cached per (order, kind).  The
single-time functions read one row of a stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from tclgen.baths import (
    ExactBath,
    _check_matrix,
    _frozen_array,
    correlator_table,
    interaction_picture,
)
from tclgen.terms import (
    ADJOINT,
    MINUS,
    PLUS,
    SCHRODINGER,
    _check_kind,
    flip_signs,
    generator_terms,
    momentum_derivative_terms,
    momentum_terms,
    vankampen_terms,
)

TERM_EXPANSION = "term_expansion"
MATRIX_RECURSION = "matrix_recursion"

# complex elements (2 MiB) that bound the arrays one block of grid points
# holds at once in the exact-bath sweep: few enough to stay in a core's
# cache
_SWEEP_BLOCK = 2 ** 17


def vec(rho):
    return np.asarray(rho).reshape(-1)


def unvec(v, d):
    return np.asarray(v).reshape(d, d)


def left_mult(x):
    return np.kron(x, np.eye(x.shape[-1]))


def right_mult(x):
    return np.kron(np.eye(x.shape[-1]), np.swapaxes(x, -1, -2))


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
        if not 0 < self.T < np.inf or self.M < 1:
            raise ValueError("grid needs a finite T > 0 and M >= 1")
        object.__setattr__(self, "T", float(self.T))
        times = np.linspace(0.0, self.T, self.M + 1)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def h(self):
        return self.T / self.M


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid and largest expansion order, the largest cluster size.

    Any ``max_order >= 1`` is accepted with ``M >= 2*max_order``.  An exact
    bath serves every order; an engine on a Gaussian bath refuses a
    ``max_order`` above ``GeneratorEngine.GAUSSIAN_MAX_SLOTS`` (4), since
    a Gaussian cluster of m >= 3 slots costs O(M^m).  Its clusters of one
    and two slots cost O(M^2 d_S^4) for all endpoints together.
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
    into the engine's one grid table of the bath, ``correlator_table(bath,
    times, g, max_order)``, so every order-n object scales as g^n.  The
    spec is immutable (engines are cached per spec); derive variants with
    ``dataclasses.replace``.
    """

    H_S: np.ndarray
    A: np.ndarray
    g: float
    bath: object

    def __post_init__(self):
        object.__setattr__(self, "H_S", _frozen_array(self.H_S))
        object.__setattr__(self, "A", _frozen_array(self.A))
        for name in ("H_S", "A"):
            _check_matrix(getattr(self, name), name)
        if self.H_S.shape != self.A.shape:
            raise ValueError("H_S and A must share the system dimension")
        if self.d_S < 2:
            raise ValueError("system dimension must be >= 2")
        g = complex(self.g)
        if g.imag != 0.0:
            raise ValueError("coupling g must be real")
        if not np.isfinite(g):
            raise ValueError("coupling g must be finite")
        object.__setattr__(self, "g", g.real)

    @property
    def d_S(self):
        return self.H_S.shape[0]


def build_system_superops(model, grid):
    """Tables of A^+(t_j), A^-(t_j) superoperators on the grid.

    Interaction picture: A(tau) = exp(i H_S tau) A exp(-i H_S tau).
    """
    a_t = interaction_picture(model.H_S, model.A, grid.times)
    # kron gives 0 * x = -0.0 for x < 0; adding +0.0 makes every zero +0.0
    return {PLUS: anticommutator_super(a_t) + 0.0,
            MINUS: commutator_super(a_t) + 0.0}


def _ordering(a, b):
    """Ordering factor of grid indices a, b: 1 if a > b, 1/2 if tied, else 0."""
    return (np.sign(a - b) + 1) / 2


def _frozen(stack):
    """Mark a cached stack read-only, so no caller can alter the cache."""
    stack.setflags(write=False)
    return stack


class GeneratorEngine:
    """Shared tables and caches for one (model, quadrature) pair.

    All evaluation entry points below delegate here.  Clusters, terms,
    momenta and generator orders are evaluated on the whole grid at once,
    and each query returns its (M+1, d^2, d^2) stack, which the module's
    single-time functions index; an unknown ``kind`` is refused.
    Chains are evaluated forward only; ``_dual`` maps them to the adjoint
    kind.  On an exact bath the two generator paths share the slot
    recurrence (``_sweep``): the matrix recursion reads its one-branch
    momenta and the term expansion its two-branch clusters, so their
    agreement checks the sign sums and the term algebra.  The tests' brute
    tuple sums over the standard ``baths.ordered_correlation``, with the
    system product reversed and signed for the adjoint kind, check the
    recurrence and the dual.  On a Gaussian bath the sweep stops at two
    slots, and both paths read the same cached stacks of the larger
    clusters.
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
        # an exact table keeps only the levels that its chains can reach
        self.ctab = correlator_table(model.bath, self.grid.times, model.g,
                                     quad.max_order)
        # the largest chain that _sweep serves: a Gaussian correlator does
        # not factor into slot states beyond the pair rule of two slots
        self.sweep_slots = (quad.max_order if self._exact
                            else min(quad.max_order, 2))
        m1, h = self.grid.M + 1, self.grid.h
        # trapezoid weights of a grid point: interior wb, endpoint corner c
        self.wb = np.full(m1, h)
        self.wb[0] = 0.5 * h
        self.c = np.full(m1, 0.5 * h)
        self.c[0] = 0.0
        self._clusters = {}    # (signs, kind) -> (free, pinned) stacks
        self._mu = {}          # (n, kind, dotted) -> stack
        self._gen = {}         # (n, kind, path) -> stack
        self.d2 = model.d_S ** 2

    # a Gaussian cluster of m >= 3 slots costs O(M^m) in the box loop, and
    # larger ones are refused; one and two slots take the sweep's pair rule
    GAUSSIAN_MAX_SLOTS = 4

    # -- quadrature primitives ------------------------------------------

    def weights(self, i):
        """Trapezoid weights of grid points 0..i on [0, t_i]."""
        w = self.wb[:i + 1].copy()
        w[i] = self.c[i]
        return w

    def _check_index(self, i):
        if not 0 <= i <= self.grid.M:
            raise IndexError(f"t_index {i} outside grid 0..{self.grid.M}")

    def cluster_value(self, signs, pinned, kind):
        """Ordered quadrature of one cluster, the (M+1, d^2, d^2) stack.

        Row i is the cluster at t_i; every endpoint is evaluated by the
        first query.  Forward clusters come from one sweep, or on a
        Gaussian bath from one box-loop evaluation each from three slots
        on; an adjoint cluster is the ``_dual`` of the forward one of its
        reversed signs.
        """
        _check_kind(kind)
        if not 1 <= len(signs) <= self.quad.max_order:
            raise ValueError(f"cluster size {len(signs)} outside "
                             f"1..{self.quad.max_order}")
        key = (signs, kind)
        if key not in self._clusters:
            if kind == ADJOINT:
                self._clusters[key] = tuple(self._dual(np.stack([
                    self.cluster_value(signs[::-1], p, SCHRODINGER)
                    for p in (False, True)]), len(signs)))
            elif signs[0] != MINUS:
                # inadmissible: a leading MINUS bath sign traces to zero
                return np.zeros_like(self.a_tab[MINUS])
            elif len(signs) <= self.sweep_slots:
                self._kind_sweep()
            else:
                self._clusters[key] = tuple(map(_frozen,
                                                self._gaussian_cluster(signs)))
        return self._clusters[key][pinned]

    def _dual(self, stack, n):
        """The adjoint-kind stack ``(-1)^n dual(stack)`` of order n.

        ``dual`` (module docstring) maps the last two axes.
        """
        dual = stack.reshape(stack.shape[:-2] + (self.model.d_S,) * 4)
        dual = (-1) ** n * dual.swapaxes(-4, -1).swapaxes(-3, -2)
        return _frozen(dual.reshape(stack.shape))

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

    def _sweep(self, left, right):
        """(free, pinned) stacks of every exact-bath chain of K branches.

        ``left`` and ``right`` are (K, M+1, d^2, d^2) factor stacks: branch
        k applies ``Op_k(j)[Y] = left_k(t_j) (phi_j Y)/2 + right_k(t_j)
        (Y phi_j)/2`` in every inner slot, and the outer slot is the MINUS
        factor A^-.  Returns (S, M+1, d^2, d^2) stacks, S = 1 + K + ... +
        K^(n-1) for chains of up to n = ``sweep_slots`` slots, of every
        level's chains in turn; within level L the slot-1 branch of chain
        ``idx`` is ``idx % K``.  On an exact bath (phi_j, rho_E) is the
        table's.  See the module docstring for the recurrence.
        """
        lead = self.a_tab[MINUS]
        m1, d2 = self.grid.M + 1, self.d2
        # outer-slot terms X, D, P of every level: traced top on
        # [E + wb/2 X, E + c/2 D, E + c D], summed after tracing; when two
        # slots are the longest chain no deeper level reads the level-1
        # states
        traces = (self._pair_traces(left, right) if self.sweep_slots == 2
                  else self._level_traces(left, right))
        counts = [tr.shape[2] for tr in traces]
        terms = np.empty((3, 1 + sum(counts), m1, d2, d2), dtype=complex)
        # level 0: the first moment Tr(phi_j rho_E), a Gaussian table's mean
        first = (np.einsum("jab,ba->j", self.ctab.phi_tab, self.ctab.rho_e)
                 if self._exact else self.ctab.mvec)
        terms[:, 0] = first[:, None, None] * lead
        lo = 1
        for n in counts:
            # each level's traces are dropped once used
            e, x, d = traces.pop(0).transpose(1, 2, 0, 3, 4)
            for out, w, y in ((terms[0], 0.5 * self.wb, x),
                              (terms[1], 0.5 * self.c, d),
                              (terms[2], self.c, d)):
                np.matmul(lead, e + w[:, None, None] * y, out=out[lo:lo + n])
            lo += n
        return self._outer_sum(*terms)

    def _level_traces(self, left, right):
        """``Tr_E[phi_j Y]`` of the [E, X, D] states of sweep levels 1..N-1.

        One (M+1, 3, K^L, d^2, d^2) array per level L; state ``i`` of level
        L branches into states ``i K + k`` of level L+1.  The states live on
        the d_R levels of the table: a state of level L may reach further,
        but its trace with phi_j closes a walk of L + 1 <= max_order links,
        which stays within the kept levels.  Each level costs O(M K^L (d^6
        d_R^2 + d^4 d_R^3)).

        The grid runs in blocks of points, and each level of a block is a
        few NumPy expressions on arrays with a leading block axis: each
        per-point product is one GEMM of a batched matmul.  A block holds as
        many points (at least one) as fit ``_SWEEP_BLOCK`` complex elements
        at (8 K^(N-2) + 3 (K + ... + K^(N-1))) d^4 d_R^2 per point.  For K
        <= 2 that is at least the (9 + 4 K) K^(N-2) d^4 d_R^2 that the
        states and temporaries of the deepest level step hold at once, so a
        block's arrays stay within the budget.  Only the traces and each
        level's E sum outlive a block: E of a block's first point is the sum
        carried from the earlier blocks, and each later point adds wb X of
        the point before it, one add per point and level (``cumsum`` over
        the block axis would run one inner loop per state element).  Every
        sum is thus formed in grid order, as with one point per block, and
        the traces do not depend on the block length to the last bit.
        """
        nb = len(left)
        m1, d2, top = self.grid.M + 1, self.d2, self.sweep_slots
        counts = [nb ** lv for lv in range(1, top)]
        if not counts:
            return []
        phi, rho = self.ctab.phi_tab, self.ctab.rho_e
        de = rho.shape[0]
        shape = (d2, d2, de, de)
        blk = max(1, min(m1, _SWEEP_BLOCK // (
            (8 * nb ** (top - 2) + 3 * sum(counts)) * d2 * d2 * de * de)))
        # per grid point: both factors of every branch as one (K d^2 d^2, 2)
        # matrix for level 1, and each side alone for the deeper levels
        both = np.ascontiguousarray(
            np.stack((left, right), -1).swapaxes(0, 1)).reshape(m1, -1, 2)
        left, right = (np.ascontiguousarray(f.swapaxes(0, 1))[:, None, None]
                       for f in (left, right))
        halves = 0.5 * np.stack((self.wb, self.c), -1)[(...,) + (None,) * 5]
        wb = self.wb[(slice(None),) + (None,) * 5]
        traces = [np.empty((m1, 3, n, d2, d2), dtype=complex) for n in counts]
        carry = [np.zeros((n,) + shape, dtype=complex) for n in counts]
        for lo in range(0, m1, blk):
            hi = min(lo + blk, m1)
            b, half = hi - lo, 0.5 * phi[lo:hi]
            phi_t = phi[lo:hi].swapaxes(1, 2).reshape(b, -1, 1)
            # level 1: X = D = Op_k(j)[rho_E], two outer products per branch
            pair = np.stack((half @ rho, rho @ half), 1).reshape(b, 2, -1)
            x = (both[lo:hi] @ pair).reshape((b, nb) + shape)
            xd = x[:, None]
            for lv, (tr, n) in enumerate(zip(traces, counts)):
                # E of the block's later points: point k takes wb X of
                # point k - 1, then adds E of point k - 1, in grid order
                e = np.empty_like(x)
                e[0] = carry[lv]
                np.multiply(wb[lo:hi - 1], x[:-1], out=e[1:])
                for k in range(1, b):
                    e[k] += e[k - 1]
                carry[lv] = e[-1] + self.wb[hi - 1] * x[-1]
                for rows, st in ((tr[lo:hi, :1], e), (tr[lo:hi, 1:], xd)):
                    rows[...] = (st.reshape(b, -1, de * de) @ phi_t
                                 ).reshape(b, -1, n, d2, d2)
                if lv + 2 < top:
                    # Op_k on y = [E + wb/2 X, E + c/2 D]: the left products
                    # act on p = (phi y/2)^T, the right ones on q = y phi/2
                    y = halves[lo:hi] * xd + e[:, None]
                    p = (np.ascontiguousarray(y.swapaxes(-1, -2))
                         .reshape(b, -1, de) @ half.swapaxes(1, 2))
                    q = y.reshape(b, -1, de) @ half
                    xd = (right[lo:hi] @ q.reshape(b, 2, n, 1, d2, -1)
                          ).reshape((b, 2, n * nb) + shape)
                    xd += (left[lo:hi] @ p.reshape(b, 2, n, 1, d2, -1)
                           ).reshape((b, 2, n * nb) + shape).swapaxes(-1, -2)
                    x = xd[:, 0]
        return traces

    def _pair_traces(self, left, right):
        """``_level_traces`` of level 1 alone, with no joint state.

        ``Tr_E[phi_a Op_k(b)[rho_E]]`` is ``left_k(b) g[a, b] + right_k(b)
        g[b, a]`` for any bath, with the uncentred two-point table ``g[a, b]
        = Tr(phi_a phi_b rho_E)/2``, so level 1 needs only this table, and
        the grid runs in blocks.  Within a block E is one masked matmul of
        the block's n x n square of g with both weighted factors, and X = D
        = ``g[j, j] (left + right)``.  The earlier blocks add their part of
        E by backend:

        * exact: the block's table is one product of ``vec(phi_a)`` with
          ``vec(Q_b^T)``, ``Q_b = rho_E phi_b/2 = P_b^dagger`` for ``P_b =
          phi_b rho_E/2``; it gives g transposed, so the partner term needs
          no second product.  The earlier blocks enter through one carried
          (d_R^2, K d^4) matrix, the sum of ``vec(P_b^T)`` and ``vec(Q_b^T)``
          times the weighted factors, which one GEMM per block updates.
          g[a, b] closes a walk of two links on the support of rho_E, so the
          table's d_R levels serve it.  A block of n
          points costs n^2 d_R^2 for its table and 3 n K d^4 d_R^2 for the
          carried trace and update, so blocks of 3 K d^4 points keep the
          table no dearer: O(M (K d^4 d_R^2 + d_R^3)) time and O(K d^4
          d_R^2) extra memory.
        * Gaussian: ``g = (cc + m m^T)/2`` from the centred table ``cc`` and
          the mean m.  The earlier blocks are the products of the row and
          column slices ``cc[lo:hi, :lo]`` and ``cc[:lo, lo:hi]^T``, views of
          ``cc``, with the weighted factors before the block, and the mean's
          rank-one part is ``m_a`` times a carried sum of ``m_b`` times
          them.  Only the n x n square is masked, so no (M+1)^2 temporary is
          made: O(M^2 K d^4) time and O(M K d^4) extra memory.
        """
        m1, d2 = self.grid.M + 1, self.d2
        cols = len(left) * d2 * d2
        block = 3 * cols
        # per grid point the rows of every branch's left and right factors
        fac = np.stack((left, right)).swapaxes(1, 2).reshape(2, m1, cols)
        wfac = fac * self.wb[:, None]
        out = np.empty((m1, 3, cols), dtype=complex)
        if self._exact:
            phi, rho = self.ctab.phi_tab, self.ctab.rho_e
            de = rho.shape[0]
        else:
            cc, mean = self.ctab.cc, self.ctab.mvec
        # the earlier blocks' (d_R^2, K d^4) matrix (exact) or K d^4 row of
        # m_b/2 times their weighted factors (Gaussian)
        carry = None
        for lo in range(0, m1, block):
            hi = min(lo + block, m1)
            n = hi - lo
            weighted = wfac[:, lo:hi].reshape(2 * n, -1)
            if self._exact:
                rows = phi[lo:hi].reshape(n, -1)
                prod = phi[lo:hi].reshape(-1, de) @ (0.5 * rho)
                prod = prod.reshape(n, de, de)
                # Tr(phi_a Z) = vec(phi_a) . vec(Z^T), and Q_b^T = conj(P_b):
                # gt[a, b] = Tr(phi_a Q_b) = g[b, a]
                qt = np.conjugate(prod, out=prod).reshape(n, -1)
                gt = rows @ qt.T
            else:
                m = mean[lo:hi]
                gt = 0.5 * (cc[lo:hi, lo:hi].T + np.multiply.outer(m, m))
            e = np.hstack((np.tril(gt.T, -1), np.tril(gt, -1))) @ weighted
            if lo and self._exact:
                e += rows @ carry
            elif lo:
                # the slices are views: no (M+1)^2 temporary
                e += 0.5 * (cc[lo:hi, :lo] @ wfac[0, :lo]
                            + cc[:lo, lo:hi].T @ wfac[1, :lo])
                e += m[:, None] * carry
            out[lo:hi, 0] = e
            out[lo:hi, 1] = np.diagonal(gt)[:, None] * (fac[0, lo:hi]
                                                        + fac[1, lo:hi])
            out[lo:hi, 2] = out[lo:hi, 1]
            if hi < m1:
                if self._exact:
                    # P_b^T = conj(Q_b), the transpose of conj(P_b)
                    pt = np.conjugate(prod.swapaxes(1, 2)).reshape(n, -1)
                    step = pt.T @ weighted[:n] + qt.T @ weighted[n:]
                else:
                    step = 0.5 * m @ (weighted[:n] + weighted[n:])
                carry = step if lo == 0 else carry + step
        return [out.reshape(m1, 3, len(left), d2, d2)]

    def _kind_sweep(self):
        """Cache every admissible forward exact-bath cluster from one sweep.

        Fills ``self._clusters`` under ``(signs, SCHRODINGER)`` for each
        forward sign string of size 1..max_order from ``_sweep`` with a
        MINUS and a PLUS branch, so a slot's sign is its branch.
        """
        tab = self.a_tab
        free, pinned = self._sweep(np.stack((tab[MINUS], tab[PLUS])),
                                   np.stack((tab[MINUS], -tab[PLUS])))
        # a copy, so that the cached pinned stacks keep no X or D alive
        free, pinned = _frozen(free), _frozen(pinned.copy())
        # level by level; slot 1 is the fastest-varying branch
        strings = (MINUS + "".join(tail[::-1])
                   for lv in range(self.sweep_slots)
                   for tail in itertools.product((MINUS, PLUS), repeat=lv))
        for idx, signs in enumerate(strings):
            self._clusters[signs, SCHRODINGER] = free[idx], pinned[idx]

    def _momentum_sweep(self):
        """Cache every forward exact-bath momentum from one sweep.

        ``_sweep`` with one branch, the slot operator summed over both
        signs: level n-1 gives mu_n (free) and its derivative (pinned).
        """
        tab = self.a_tab
        stacks = self._sweep((tab[MINUS] + tab[PLUS])[None],
                             (tab[MINUS] - tab[PLUS])[None])
        for dotted, stack in zip((False, True), stacks):
            for n, val in enumerate(stack, 1):
                # a copy, so that no cached stack keeps the others alive
                self._mu[n, SCHRODINGER, dotted] = _frozen(np.array(val))

    def _gaussian_cluster(self, signs):
        """(free, pinned) stacks of one forward Gaussian-bath chain of m >= 3.

        ``signs`` is a forward sign string of three or more slots; shorter
        chains come from ``_sweep``.  A later slot at b, following its
        neighbour at a, has the weight ``w(b) theta[a, b]``, where w is wb
        for X and ``weights(j0)`` for D and P, and P drops theta between
        slots 0 and 1.  Each j0 gets the correlator box of the later slots
        over grid points 0..j0 from one ``_chain`` call, and the weighted
        box is contracted with the system factors from the innermost slot
        out, one matmul per slot.  On a zero-mean bath an odd cluster is
        zero (Isserlis) and is not evaluated.
        """
        tab, wb = self.a_tab, self.wb
        dsig = flip_signs(signs)
        m1, d2 = self.grid.M + 1, self.d2
        if len(signs) % 2 and self.ctab.bath.mean is None:
            zero = np.zeros((m1, d2, d2), dtype=complex)
            return zero, zero
        x, d, p = np.empty((3, m1, d2, d2), dtype=complex)
        for j0 in range(m1):
            n = j0 + 1
            # axes j0 (of length 1), j1, ..., j_{m-1}
            box = self.ctab._chain(
                dsig, np.ix_([j0], *[np.arange(n)] * (len(signs) - 1)))
            th = _ordering(*np.ogrid[:n, :n])
            # slot 1 follows j0: X and D with theta, P without
            top = np.vstack([th[j0], np.ones(n)])
            for w, rows, outs in ((wb[:n], top[:1], (x,)),
                                  (self.weights(j0), top, (d, p))):
                ww = w * th
                r = ((box * ww) @ tab[signs[-1]][:n].reshape(n, -1)
                     ).reshape(box.shape[:-1] + (d2, d2))
                for k in range(len(signs) - 2, 0, -1):
                    r = r * (ww if k > 1 else w * rows)[..., None, None]
                    ak = tab[signs[k]][:n].transpose(1, 0, 2)
                    r = ak.reshape(d2, -1) @ r.reshape(
                        r.shape[:-3] + (n * d2, d2))
                for out, v in zip(outs, r):
                    out[j0] = v
        return self._outer_sum(*(tab[signs[0]] @ v for v in (x, d, p)))

    # -- expansion objects on the whole grid ----------------------------

    def term_value(self, term):
        """One symbolic term as its stack over the grid.

        The cluster factors multiply as stacks, one batched matmul each.
        """
        if term.order > self.quad.max_order:
            raise ValueError(f"term order {term.order} exceeds max_order "
                             f"{self.quad.max_order}")
        if term.order == 0:
            out = np.broadcast_to(np.eye(self.d2, dtype=complex),
                                  (self.grid.M + 1, self.d2, self.d2))
        else:
            out = None
            for k, block in enumerate(term.cluster_signs()):
                stack = self.cluster_value(block, term.pinned and k == 0,
                                           term.kind)
                out = stack if out is None else out @ stack
        return term.coeff * out

    def mu(self, n, kind=SCHRODINGER, dotted=False):
        """The stack of the n-th momentum, or of its derivative.

        An exact bath gets every forward momentum from one
        ``_momentum_sweep``, a Gaussian bath mu_1 and mu_2; its higher
        momenta sum their forward cluster terms.
        The adjoint momentum is the ``_dual`` of the forward one.
        """
        _check_kind(kind)
        if not 1 <= n <= self.quad.max_order:
            raise ValueError(f"momentum order {n} outside "
                             f"1..{self.quad.max_order}")
        key = (n, kind, dotted)
        if key not in self._mu:
            if kind == ADJOINT:
                self._mu[key] = self._dual(
                    self.mu(n, SCHRODINGER, dotted), n)
            elif n <= self.sweep_slots:
                self._momentum_sweep()
            else:
                make = momentum_derivative_terms if dotted else momentum_terms
                self._mu[key] = _frozen(sum(self.term_value(t)
                                            for t in make(n, kind)))
        return self._mu[key]

    def generator_order(self, n, kind=SCHRODINGER, path=MATRIX_RECURSION):
        """The stack of the n-th expansion coefficient L_n, no i^n weight."""
        _check_kind(kind)
        if path not in (TERM_EXPANSION, MATRIX_RECURSION):
            raise ValueError(f"unknown generator path {path!r}")
        key = (n, kind, path)
        val = self._gen.get(key)
        if val is None:
            if path == TERM_EXPANSION:
                val = sum(self.term_value(t)
                          for t in generator_terms(n, kind))
            else:
                val = self.mu(n, kind, dotted=True).copy()
                for k in range(1, n):
                    val -= self.generator_order(n - k, kind) @ self.mu(k, kind)
            self._gen[key] = _frozen(val)
        return val

    def generator(self, N, kind=SCHRODINGER, path=MATRIX_RECURSION):
        """The stack of sum_{n <= N} (-i)^n L_n (i^n L_n for the adjoint)."""
        if not 1 <= N <= self.quad.max_order:
            raise ValueError(f"N must be in 1..{self.quad.max_order}")
        base = 1j if kind == ADJOINT else -1j
        out = np.zeros((self.grid.M + 1, self.d2, self.d2), dtype=complex)
        for n in range(1, N + 1):
            out += base ** n * self.generator_order(n, kind, path)
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
            tie = _ordering(idx[k - 1], idx[k]) if k > 1 else 1.0
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


def _row(t_index, model, quad, query, *args):
    """Row ``t_index``, checked first, of the engine stack ``query(*args)``."""
    engine = engine_for(model, quad)
    engine._check_index(t_index)
    return getattr(engine, query)(*args)[t_index]


def evaluate_term(term, t_index, model, quad):
    """Numeric value of one symbolic term at grid time t_index."""
    return _row(t_index, model, quad, "term_value", term)


def evaluate_mu(n, t_index, model, quad, kind=SCHRODINGER):
    return _row(t_index, model, quad, "mu", n, kind)


def evaluate_mu_dot(n, t_index, model, quad, kind=SCHRODINGER):
    return _row(t_index, model, quad, "mu", n, kind, True)


def assemble_generator(N, t_index, model, quad, path=MATRIX_RECURSION,
                       kind=SCHRODINGER):
    """Truncated generator at one grid time, by either assembly path."""
    return _row(t_index, model, quad, "generator", N, kind, path)


def generator_table(model, quad, N, path=MATRIX_RECURSION, kind=SCHRODINGER):
    """Truncated generator on the whole grid, shape (M+1, d^2, d^2).

    Either kind is served by the one engine of (model, quad).
    """
    return engine_for(model, quad).generator(N, kind, path)


def evaluate_vk_generator(n, t_index, model, quad):
    """L_n evaluated from the tabulated Van Kampen list (no i^n weight)."""
    return engine_for(model, quad).vk_generator(n, t_index)
