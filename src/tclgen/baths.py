"""Bath ordered correlation functions.

A cluster of the term algebra evaluates to one scalar correlator: the bath
trace of a chain of superoperators ``phi^+`` (anticommutator) and ``phi^-``
(commutator) at descending times, carrying a 1/2 per factor.  Two backends
are provided: EXACT diagonalizes a finite-dimensional bath and applies the
chain literally; GAUSSIAN reduces every chain to two-point functions through
a Wick/Isserlis pairing sum.

The scalar coupling g of the interaction ``g * A x phi`` is folded into the
grid tables by ``correlator_table``: they are built from g*phi (exact), or
from g^2 C and g m (Gaussian), so an order-n correlator scales as g^n.

Time ordering inside a chain is resolved by the caller: queries list times
in non-increasing order and ties are evaluated in the listed order (the
quadrature layer assigns half weight to tied grid points).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from tclgen.terms import ADJOINT, MINUS, PLUS

STANDARD = "standard"

HERM_TOL = 1e-12


def _check_matrix(mat, name):
    """Refuse a matrix unless square, finite and Hermitian within HERM_TOL."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    # before the norms: a NaN norm fails every comparison
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.linalg.norm(mat - mat.conj().T) > HERM_TOL * max(1.0, np.linalg.norm(mat)):
        raise ValueError(f"{name} is not Hermitian within {HERM_TOL}")


def _frozen_array(x):
    """Complex copy that cannot be written through, for frozen specs."""
    arr = np.array(x, dtype=complex)
    arr.setflags(write=False)
    return arr


def _hermitian_part(mat):
    """``(X + X^dagger)/2``; an exactly Hermitian X is kept bit for bit."""
    return (mat + mat.conj().T) / 2


def _eigenbasis(H):
    """Eigenvalues and eigenvectors of a Hermitian H.

    A diagonal H is its own eigenbasis: it keeps its order and its basis,
    so that a matrix rotated into it keeps its bits.
    """
    if (H - np.diag(np.diag(H))).any():
        return np.linalg.eigh(H)
    return np.real(np.diag(H)), np.eye(len(H))


def _phased(x, e, times):
    """``x * exp(i (e_a - e_b) t)`` for every t in ``times``, (T, d, d).

    The phases are built in the result itself, so no other array of its
    size is made; ``x`` is one (d, d) matrix or a (T, d, d) stack.
    """
    t = np.asarray(times, dtype=float)
    out = np.zeros((len(t), len(e), len(e)), dtype=complex)
    np.multiply(np.subtract.outer(e, e), t[:, None, None], out=out.imag)
    np.exp(out, out=out)
    return np.multiply(x, out, out=out)


def interaction_picture(H, X, times):
    """``exp(iHt) X exp(-iHt)`` for every t in ``times``, shape (T, d, d).

    ``X`` is one (d, d) matrix or a (T, d, d) stack, one matrix per time.
    ``H`` is diagonalised once; each rotation is then a phase factor in its
    eigenbasis and two matrix products, O(T d^3) in all.  Negative times
    give the Schroedinger-picture evolution ``exp(-iHt) X exp(iHt)``.
    """
    e, v = _eigenbasis(H)
    vh = v.conj().T
    return v @ _phased(vh @ X @ v, e, times) @ vh


@dataclass(frozen=True)
class ExactBath:
    """Finite-dimensional bath: Hamiltonian, coupling operator, state.

    ``phi`` is bare: ``correlator_table`` folds in ``ModelSpec.g``.  The
    bath is immutable and holds read-only copies of its matrices, so
    engines cached on a model can never see it change.  Each matrix must
    be finite and Hermitian within ``HERM_TOL``; its Hermitian part is kept.
    """

    H_E: np.ndarray
    phi: np.ndarray
    rho_E: np.ndarray

    def __post_init__(self):
        for name in ("H_E", "phi", "rho_E"):
            mat = np.array(getattr(self, name), dtype=complex)
            _check_matrix(mat, name)
            if mat.shape != np.shape(self.H_E):
                raise ValueError("bath matrices must share one dimension")
            # exactly Hermitian, so that (phi rho_E)^dagger = rho_E phi holds
            # bit for bit; an exactly Hermitian input is kept as it is
            object.__setattr__(self, name,
                               _frozen_array(_hermitian_part(mat)))
        if abs(np.trace(self.rho_E) - 1.0) > HERM_TOL:
            raise ValueError("rho_E must have unit trace")
        off = self.rho_E - np.diag(np.diag(self.rho_E))
        spectrum = (np.real(np.diag(self.rho_E)) if not off.any()
                    else np.linalg.eigvalsh(self.rho_E))
        if spectrum.min() < -1e-10:
            raise ValueError("rho_E must be positive semidefinite")

    @property
    def dim(self):
        return self.H_E.shape[0]

    def phi_at(self, tau):
        """Interaction-picture coupling operator at one time."""
        return interaction_picture(self.H_E, self.phi, [tau])[0]


def _broadcast_values(x, shape):
    """Complex array of ``shape`` from a kernel value that broadcasts to it."""
    return np.array(np.broadcast_to(x, shape), dtype=complex)


def _check_kernel(cc, means, where):
    """Refuse a Gaussian kernel and mean sampled on a set of times.

    ``cc`` is C(tau, s) on the square of the times and ``means`` m(tau) on
    them.  The kernel must be finite and Hermitian, C(tau, s) = conj(C(s,
    tau)), and the mean finite and real, each within 1e-9 of its largest
    entry (or of 1); ``where`` names the times in the messages.
    """
    # before the comparisons below, which NaN fails silently
    for name, x in (("two_point", cc), ("mean", means)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite on {where}")
    defect = np.conj(cc.T)
    defect -= cc
    if np.abs(defect).max() > 1e-9 * max(1.0, np.abs(cc).max()):
        raise ValueError("two_point violates C(tau,s) = conj(C(s,tau)) on "
                         + where)
    # <phi(tau)> of a Hermitian phi is real
    if np.abs(means.imag).max() > 1e-9 * max(1.0, np.abs(means).max()):
        raise ValueError(f"mean must be real on {where}")


@dataclass(frozen=True)
class GaussianBath:
    """Bath defined by its two-point function C(tau, s) = <phi(tau) phi(s)>.

    ``mean`` is the first moment m(tau); omitted means identically zero.
    Both are called with NumPy arrays of times as well as with scalars and
    must broadcast like ufuncs (a constant may come back as a scalar), so
    that a grid table is one call.  Finiteness, broadcasting, the
    hermiticity of C and a real mean are spot-checked on a small sample at
    construction; ``GaussianCorrelatorTable`` makes the same
    ``_check_kernel`` of finiteness, hermiticity and a real mean again on
    every time of its grid.
    """

    two_point: object
    mean: object = None

    def __post_init__(self):
        # four fixed times in [0, 1), written out so that the check does
        # not import numpy.random
        pts = np.array([0.625095466604667, 0.8972138009695755,
                        0.7756856902451935, 0.22520718999059186])
        try:
            grid = _broadcast_values(
                self.two_point(pts[:, None], pts[None, :]), (4, 4))
            means = _broadcast_values(
                0.0 if self.mean is None else self.mean(pts), (4,))
            single = [[complex(self.two_point(a, b)) for b in pts]
                      for a in pts]
            single_means = [self.mean_at(a) for a in pts]
        except (TypeError, ValueError) as exc:
            raise ValueError("two_point and mean must accept NumPy arrays "
                             "of times and broadcast them") from exc
        _check_kernel(grid, means, "the sampled times")
        # written so that NaN fails it: the checked array samples are
        # finite, so a NaN scalar value is a broadcasting defect
        scale = 1e-9 * max(1.0, np.abs(grid).max())
        if not (np.abs(grid - single).max() <= scale
                and np.abs(means - single_means).max() <= scale):
            raise ValueError("two_point and mean must broadcast elementwise: "
                             "arrays of times give other values than scalars")

    def mean_at(self, tau):
        return 0.0 if self.mean is None else complex(self.mean(tau))

    def centered(self, tau, s):
        c = complex(self.two_point(tau, s))
        if self.mean is not None:
            c -= self.mean_at(tau) * self.mean_at(s)
        return c


@dataclass(frozen=True)
class CorrelationQuery:
    """Bath-sign string paired with non-increasing times."""

    bath_signs: str
    times: tuple
    kind: str = STANDARD

    def __post_init__(self):
        if len(self.bath_signs) != len(self.times):
            raise ValueError("one time per bath sign required")
        if any(c not in (PLUS, MINUS) for c in self.bath_signs):
            raise ValueError("bath signs must be '+'/'-'")
        for i in range(len(self.times) - 1):
            if self.times[i] < self.times[i + 1]:
                raise ValueError("times must be non-increasing")
        if self.kind not in (STANDARD, ADJOINT):
            raise ValueError(f"unknown correlation kind {self.kind!r}")


def _apply_phi(phi, sign, x):
    # one superoperator factor, including its 1/2 prefactor
    if sign == PLUS:
        return 0.5 * (phi @ x + x @ phi)
    return 0.5 * (phi @ x - x @ phi)


def all_pairings(items):
    """All perfect matchings of a list; pairs keep the original order."""
    items = list(items)
    if not items:
        yield []
        return
    first = items.pop(0)
    for i, other in enumerate(items):
        rest = items[:i] + items[i + 1:]
        for tail in all_pairings(rest):
            yield [(first, other)] + tail


def wick_sum(n, pair, mean=None, mean_slots=()):
    """Gaussian moment of n slots as a sum over pairings (Isserlis/Wick).

    Every slot is either contracted with one other slot, contributing
    ``pair(a, b)`` for a < b, or, if it is in ``mean_slots``, left alone and
    contributing ``mean(a)``; ``mean=None`` leaves every slot contracted.
    Values may be scalars or arrays that broadcast together.  A moment with
    no complete pairing is exactly 0.
    """
    total = 0.0 + 0.0j
    sizes = range(len(mean_slots) + 1) if mean is not None else (0,)
    for taken in itertools.chain.from_iterable(
            itertools.combinations(mean_slots, r) for r in sizes):
        rest = [i for i in range(n) if i not in taken]
        if len(rest) % 2 == 1:
            continue
        prefactor = 1.0 + 0.0j
        for i in taken:
            prefactor = prefactor * mean(i)
        subtotal = 0.0 + 0.0j
        for pairing in all_pairings(rest):
            prod = 1.0 + 0.0j
            for a, b in pairing:
                prod = prod * pair(a, b)
            subtotal = subtotal + prod
        total = total + prefactor * subtotal
    return total


def _pair_value(sa, sb, c_ab, c_ba, kind):
    """Centered pair functional of two chain-ordered phi^+/- factors.

    ``c_ab`` and ``c_ba`` are the centered C(t_a, t_b) and C(t_b, t_a);
    they may be arrays.
    """
    if (sa if kind == STANDARD else sb) == MINUS:
        return 0.0
    flip = sb if kind == STANDARD else sa
    sgn = 1.0 if flip == PLUS else -1.0
    return 0.5 * (c_ab + sgn * c_ba)


def ordered_correlation(bath, query):
    """Evaluate one bath correlator D (STANDARD) or D~ (ADJOINT).

    STANDARD applies the chain to rho_E innermost (rightmost) first and
    traces; ADJOINT applies it to the identity and pairs with rho_E.  The
    1/2-per-factor prefactor is included.  Each factor is its own
    Hilbert-Schmidt adjoint and maps Hermitian operators to Hermitian
    (PLUS) or anti-Hermitian (MINUS) ones, so for any bath state D~ is
    (-1)^(number of MINUS) times the trace of the same factors applied to
    rho_E in the opposite order, leftmost first.
    """
    signs, times, kind = query.bath_signs, query.times, query.kind
    if isinstance(bath, GaussianBath):
        # every '+' slot may contribute its scalar mean instead of an operator
        plus_slots = [i for i, s in enumerate(signs) if s == PLUS]
        return complex(wick_sum(
            len(signs),
            lambda a, b: _pair_value(signs[a], signs[b],
                                     bath.centered(times[a], times[b]),
                                     bath.centered(times[b], times[a]), kind),
            None if bath.mean is None else (lambda i: bath.mean_at(times[i])),
            plus_slots))
    x = bath.rho_E if kind == STANDARD else np.eye(bath.dim, dtype=complex)
    phis = interaction_picture(bath.H_E, bath.phi, times)
    for sign, phi in zip(reversed(signs), phis[::-1]):
        x = _apply_phi(phi, sign, x)
    if kind == STANDARD:
        return complex(np.trace(x))
    return complex(np.trace(bath.rho_E @ x))


# ---------------------------------------------------------------------------
# grid-bound correlator tables used by the quadrature kernels
# ---------------------------------------------------------------------------

class _GridTable:
    """Correlator tables on the grid, the same query views for both backends.

    A backend supplies ``_chain(signs, idx)``, the standard correlator of a
    bath-sign string at grid indices that broadcast together, from its grid
    tables, into which ``correlator_table`` folded the coupling g.  Each view
    fixes the leading indices and builds the table over the one or two free
    ones with one ``_chain`` call; nothing is cached here, as the engine
    keeps what it reuses.
    """

    def __init__(self, bath, times):
        self.bath = bath
        self.times = np.asarray(times, dtype=float)
        self._grid = np.arange(len(self.times))

    def pair_free(self, signs):
        """Full grid table for a 1- or 2-sign string (leading index first)."""
        return self._chain(signs, np.ix_(*[self._grid] * len(signs)))

    def triple_slice(self, signs, j1):
        """(M+1, M+1) table over the trailing two indices, first index fixed."""
        return self._chain(signs, (j1,) + np.ix_(self._grid, self._grid))

    def chain_rows(self, signs, prefix):
        """Table over the one or two grid indices that follow ``prefix``."""
        free = [self._grid] * (len(signs) - len(prefix))
        return self._chain(signs, tuple(prefix) + np.ix_(*free))

    def value(self, signs, indices):
        return complex(self._chain(signs, tuple(indices)))


class ExactCorrelatorTable(_GridTable):
    """Vectorized correlator lookups keyed by grid indices, EXACT backend.

    The table is kept in the eigenbasis of H_E, where each rotation is a
    phase: ``phi_tab[j] = phi_e * exp(i (e_a - e_b) t_j)`` with ``phi_e``
    the coupling g*phi in that basis, and ``rho_e`` is rho_E rotated once.
    Every reader of ``phi_tab`` takes its state from ``rho_e``; a chain is
    a trace, so its value does not depend on the basis.  Both matrices are
    exactly Hermitian, and so is each ``phi_tab[j]``, as the phases are
    exact conjugates of their transposes.  A diagonal H_E keeps its basis,
    so there the table is the bath's own matrices times the phases.

    Given ``max_order``, both keep only the levels within max_order // 2
    links of the support of rho_E, levels a and b being linked when
    ``phi_e[a, b]`` is nonzero: a chain of n slots traced on rho_E is a sum
    over closed walks of n links from that support, so every chain of up
    to max_order slots stays exact.  Only exact zeros cut a link; the
    default keeps every level.  The phases are built in the table itself.
    ``mvec[j] = Tr(phi_tab[j] rho_e)``, built with them, is the first
    moment g <phi(t_j)>, as a Gaussian table's ``mvec`` is its mean.
    """

    # chain states are built in batches of at most this many matrix elements
    CHUNK = 4_000_000

    def __init__(self, bath, times, g, max_order=None):
        super().__init__(bath, times)
        e, v = _eigenbasis(bath.H_E)
        phi_e, self.rho_e = (_hermitian_part(v.conj().T @ mat @ v)
                             for mat in (g * bath.phi, bath.rho_E))
        if max_order is not None:
            # both matrices are exactly Hermitian, so their patterns are too
            keep = (self.rho_e != 0).any(axis=0)
            for _ in range(max_order // 2):
                keep = keep | (phi_e[keep] != 0).any(axis=0)
            e, phi_e, self.rho_e = (e[keep], phi_e[np.ix_(keep, keep)],
                                    self.rho_e[np.ix_(keep, keep)])
        self.phi_tab = _phased(phi_e, e, self.times)
        self.mvec = np.einsum("jab,ba->j", self.phi_tab, self.rho_e)

    def _chain(self, signs, idx):
        """Chain value with broadcast grid-index arguments.

        The phi^+/- factors act on rho_E innermost first, batched over the
        grid points; a leading MINUS traces to exactly 0.
        """
        idx = np.broadcast_arrays(*idx)
        out = np.zeros(idx[0].shape, dtype=complex)
        if signs[0] == MINUS:
            return out
        flat, res = [j.reshape(-1) for j in idx], out.reshape(-1)
        chunk = max(1, self.CHUNK // self.rho_e.size)
        for lo in range(0, res.size, chunk):
            part = slice(lo, lo + chunk)
            x = self.rho_e
            for sign, j in zip(signs[:0:-1], flat[:0:-1]):
                x = _apply_phi(self.phi_tab[j[part]], sign, x)
            # leading '+', traced: Tr[(phi x + x phi)/2] = Tr[phi x]
            lead = self.phi_tab[flat[0][part]]
            res[part] = np.einsum("gij,gji->g", lead,
                                  np.broadcast_to(x, lead.shape))
        return out

    # the query views sit in each backend's own namespace, where
    # perfbench/tracer.py wraps them
    pair_free = _GridTable.pair_free
    triple_slice = _GridTable.triple_slice
    chain_rows = _GridTable.chain_rows
    value = _GridTable.value


class GaussianCorrelatorTable(_GridTable):
    """Correlator lookups on the grid for the GAUSSIAN backend.

    ``cc`` is the centred (M+1)^2 table g^2 C(t_a, t_b) - m_a m_b and
    ``mvec`` the mean g m(t_j), zeros when the bath has none.  ``_chain``
    pairs them by Isserlis; the engine's two-slot pair rule reads ``cc``
    in row and column slices and ``mvec`` as it is.  The build refuses a
    kernel that is not finite or not Hermitian on the grid, and a mean that
    is not finite or not real there, with the bath's 1e-9 relative scale:
    O(M^2) once, in set-up.
    """

    def __init__(self, bath, times, g):
        super().__init__(bath, times)
        t, m1 = self.times, len(self.times)
        # the bath spot-checks four times in [0, 1); the grid runs to T, so
        # the kernel and the mean are checked again on every grid time
        self.cc = _broadcast_values(bath.two_point(t[:, None], t[None, :]),
                                    (m1, m1))
        mean = 0.0 if bath.mean is None else bath.mean(t)
        _check_kernel(self.cc, _broadcast_values(mean, (m1,)), "the grid")
        self.cc *= g * g
        if bath.mean is None:
            self.mvec = np.zeros(m1, dtype=complex)
        else:
            self.mvec = _broadcast_values(g * mean, (m1,))
            self.cc -= np.multiply.outer(self.mvec, self.mvec)

    def _chain(self, signs, idx):
        """Chain value with grid-index arguments; entries may be arrays."""
        cc, mvec = self.cc, self.mvec
        plus_slots = [i for i, s in enumerate(signs) if s == PLUS]
        val = wick_sum(
            len(signs),
            lambda a, b: _pair_value(signs[a], signs[b], cc[idx[a], idx[b]],
                                     cc[idx[b], idx[a]], STANDARD),
            None if self.bath.mean is None else (lambda i: mvec[idx[i]]),
            plus_slots)
        # one result array; adding +0.0 turns a -0.0 part into +0.0
        return np.add(val, 0.0, out=np.empty(np.broadcast(*idx).shape,
                                             dtype=complex))

    pair_free = _GridTable.pair_free
    triple_slice = _GridTable.triple_slice
    chain_rows = _GridTable.chain_rows
    value = _GridTable.value


def correlator_table(bath, times, g=1.0, max_order=None):
    """Grid table of ``bath`` on ``times`` with the scalar coupling g folded in.

    The bath itself is not rescaled: an exact table rotates g*phi, and a
    Gaussian one tabulates g^2 C and g m.  ``max_order`` cuts an exact
    table to the levels its chains can visit (``ExactCorrelatorTable``).
    """
    if isinstance(bath, ExactBath):
        return ExactCorrelatorTable(bath, times, g, max_order)
    if isinstance(bath, GaussianBath):
        return GaussianCorrelatorTable(bath, times, g)
    raise TypeError(f"unsupported bath type {type(bath)!r}")


# ---------------------------------------------------------------------------
# built-in baths
# ---------------------------------------------------------------------------

def _thermal_occupations(omega, beta, dim):
    if beta is None or beta == np.inf:
        return np.eye(dim)[0]
    if beta == -np.inf:
        # the beta -> -inf limit: all weight on the levels of largest
        # omega n (the top level for omega > 0, the fully inverted state)
        x = omega * np.arange(dim, dtype=float)
        p = (x == x.max()).astype(float)
    else:
        # exp of x minus its largest entry (0 if beta omega > 0) cannot
        # overflow
        x = -beta * omega * np.arange(dim, dtype=float)
        p = np.exp(x - x.max())
    return p / p.sum()


def boson_mode_bath(omega, n_max, *, beta=None, shift=0.0):
    """Single truncated bosonic mode with phi = a + a^dag + shift.

    beta=None (or +inf) gives the vacuum and beta=-inf the fully inverted
    state; ``shift`` adds a scalar to the coupling operator, which turns on
    odd moments while keeping the state stationary.  The scalar coupling g
    is ``ModelSpec.g``.  ``n_max >= 0`` is the top level kept.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    dim = n_max + 1
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:]), k=1)
    h = omega * np.diag(n.astype(float))
    phi = a + a.conj().T + shift * np.eye(dim)
    rho = np.diag(_thermal_occupations(omega, beta, dim)).astype(complex)
    return ExactBath(h, phi, rho)


def qubit_bath(omega, *, beta=1.0, shift=0.0):
    """Two-level bath: H_E = omega*sz/2, phi = sx + shift, thermal state."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = 0.5 * omega * sz
    phi = sx + shift * np.eye(2)
    # level 1 is the ground state in the sz/2 convention
    w = _thermal_occupations(omega, beta, 2)
    rho = np.diag([w[1], w[0]]).astype(complex)
    return ExactBath(h, phi, rho)


def thermal_mode_two_point(omega, *, beta=None):
    """Two-point function of a vacuum or thermal (beta omega > 0) boson mode.

    beta=None or +inf is the vacuum; -inf, like any beta omega <= 0, is
    refused.
    """
    if beta is None or beta == np.inf:
        nbar = 0.0
    elif beta * omega > 0:
        nbar = 1.0 / np.expm1(beta * omega)
    else:
        raise ValueError("a thermal mode kernel needs beta * omega > 0")

    def two_point(tau, s):
        d = tau - s
        return ((nbar + 1.0) * np.exp(-1j * omega * d)
                + nbar * np.exp(1j * omega * d))

    return two_point


def two_point_from_samples(tau_grid, s_grid, values):
    """Bilinear interpolation of a sampled two-point function.

    The kernel broadcasts its time arguments.  Outside the sampled grid it
    extrapolates linearly from the edge cell, so callers check coverage
    themselves.  The cell search, the weights and the order of the four
    products are those of the linear ``RegularGridInterpolator``, with the
    real and imaginary parts interpolated apart, so the values agree with
    it bit for bit (``tests/test_baths.py`` checks this).
    """
    grids = [np.array(g, dtype=float) for g in (tau_grid, s_grid)]
    values = np.asarray(values)
    if (values.shape != tuple(g.size for g in grids)
            or not all(g.size >= 2 and (np.diff(g) > 0).all() for g in grids)):
        raise ValueError("sampled two-point values need strictly ascending "
                         "tau and s grids of at least two points each, "
                         "indexed [tau, s]")
    parts = values.real.copy(), values.imag.copy()

    def cell(grid, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(grid, x, side="right") - 1,
                    0, grid.size - 2)
        return i, (x - grid[i]) / (grid[i + 1] - grid[i])

    def two_point(tau, s):
        (i, y0), (j, y1) = cell(grids[0], tau), cell(grids[1], s)
        # starting from 0.0, as the reference does, makes an all -0.0 sum +0.0
        re, im = (0.0 + v[i, j] * (1 - y0) * (1 - y1)
                  + v[i, j + 1] * (1 - y0) * y1
                  + v[i + 1, j] * y0 * (1 - y1)
                  + v[i + 1, j + 1] * y0 * y1 for v in parts)
        return re + 1j * im

    return two_point
