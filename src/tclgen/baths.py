"""Bath ordered correlation functions.

A cluster of the term algebra evaluates to one scalar correlator: the bath
trace of a chain of superoperators ``phi^+`` (anticommutator) and ``phi^-``
(commutator) at descending times, carrying a 1/2 per factor.  Two backends
are provided: EXACT diagonalizes a finite-dimensional bath and applies the
chain literally; GAUSSIAN reduces every chain to two-point functions through
a Wick/Isserlis pairing sum.

The scalar coupling g of the interaction ``g * A x phi`` is folded into phi
here (phi -> g*phi), so an order-n correlator scales as g^n automatically.

Time ordering inside a chain is resolved by the caller: queries list times
in non-increasing order and ties are evaluated in the listed order (the
quadrature layer assigns half weight to tied grid points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tclgen.terms import ADJOINT, MINUS, PLUS

STANDARD = "standard"

HERM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _check_hermitian(mat, name):
    if np.linalg.norm(mat - mat.conj().T) > HERM_TOL * max(1.0, np.linalg.norm(mat)):
        raise ValueError(f"{name} is not Hermitian within {HERM_TOL}")


@dataclass
class ExactBath:
    """Finite-dimensional bath: Hamiltonian, coupling operator, state.

    ``phi`` already includes the system-bath coupling constant.
    """

    H_E: np.ndarray
    phi: np.ndarray
    rho_E: np.ndarray

    def __post_init__(self):
        self.H_E = np.asarray(self.H_E, dtype=complex)
        self.phi = np.asarray(self.phi, dtype=complex)
        self.rho_E = np.asarray(self.rho_E, dtype=complex)
        for name in ("H_E", "phi", "rho_E"):
            mat = getattr(self, name)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
            if mat.shape != self.H_E.shape:
                raise ValueError("bath matrices must share one dimension")
            _check_hermitian(mat, name)
        if abs(np.trace(self.rho_E) - 1.0) > HERM_TOL:
            raise ValueError("rho_E must have unit trace")
        off = self.rho_E - np.diag(np.diag(self.rho_E))
        spectrum = (np.real(np.diag(self.rho_E)) if not off.any()
                    else np.linalg.eigvalsh(self.rho_E))
        if spectrum.min() < -1e-10:
            raise ValueError("rho_E must be positive semidefinite")
        self._eig = None
        self._phi_cache = {}

    @property
    def dim(self):
        return self.H_E.shape[0]

    @property
    def _energies(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.H_E)
        return self._eig[0]

    @property
    def _modes(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.H_E)
        return self._eig[1]

    def is_stationary(self, tol=STATIONARY_TOL):
        comm = self.H_E @ self.rho_E - self.rho_E @ self.H_E
        return np.linalg.norm(comm) <= tol

    def phi_at(self, tau):
        """Interaction-picture coupling operator, cached per time."""
        tau = float(tau)
        cached = self._phi_cache.get(tau)
        if cached is not None:
            return cached
        v, e = self._modes, self._energies
        phases = np.exp(1j * np.subtract.outer(e, e) * tau)
        out = v @ ((v.conj().T @ self.phi @ v) * phases) @ v.conj().T
        self._phi_cache[tau] = out
        return out


@dataclass
class GaussianBath:
    """Bath defined by its two-point function C(tau, s) = <phi(tau) phi(s)>.

    ``mean`` is the first moment m(tau); omitted means identically zero.
    Hermiticity of C is spot-checked on a small sample at construction.
    """

    two_point: object
    mean: object = None

    def __post_init__(self):
        rng = np.random.default_rng(7)
        for tau, s in rng.uniform(0.0, 1.0, size=(4, 2)):
            a, b = self.two_point(tau, s), self.two_point(s, tau)
            if abs(a - np.conj(b)) > 1e-9 * max(1.0, abs(a)):
                raise ValueError("two_point violates C(tau,s) = conj(C(s,tau))")

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


def isserlis_correlation(two_point, ordered_times):
    """Plain Gaussian moment via the pairing sum.

    Sum over perfect matchings of products C(tau_a, tau_b) where a precedes
    b in operator order; odd lengths give exactly 0 (zero mean assumed).
    """
    times = list(ordered_times)
    if len(times) % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for pairing in all_pairings(range(len(times))):
        prod = 1.0 + 0.0j
        for a, b in pairing:
            prod *= two_point(times[a], times[b])
        total += prod
    return total


def _gauss_pair_value(bath, signs, times, kind):
    """Centered pair functional of two chain-ordered phi^+/- factors."""
    (sa, sb), (ta, tb) = signs, times
    if kind == STANDARD and sa == MINUS:
        return 0.0 + 0.0j
    if kind == ADJOINT and sb == MINUS:
        return 0.0 + 0.0j
    flip = sb if kind == STANDARD else sa
    sgn = 1.0 if flip == PLUS else -1.0
    return 0.5 * (bath.centered(ta, tb) + sgn * bath.centered(tb, ta))


def _gauss_chain_value(bath, signs, times, kind):
    n = len(signs)
    plus_slots = [i for i, s in enumerate(signs) if s == PLUS]
    total = 0.0 + 0.0j
    # every '+' slot may contribute its scalar mean instead of an operator
    import itertools as _it
    for r in range(len(plus_slots) + 1):
        if bath.mean is None and r > 0:
            break
        for taken in _it.combinations(plus_slots, r):
            rest = [i for i in range(n) if i not in taken]
            if len(rest) % 2 == 1:
                continue
            prefactor = 1.0 + 0.0j
            for i in taken:
                prefactor *= bath.mean_at(times[i])
            subtotal = 0.0 + 0.0j
            for pairing in all_pairings(rest):
                prod = 1.0 + 0.0j
                for a, b in pairing:
                    prod *= _gauss_pair_value(
                        bath, (signs[a], signs[b]), (times[a], times[b]), kind)
                    if prod == 0.0:
                        break
                subtotal += prod
            total += prefactor * subtotal
    return total


def ordered_correlation(bath, query):
    """Evaluate one bath correlator D (STANDARD) or D~ (ADJOINT).

    STANDARD applies the chain to rho_E innermost (rightmost) first and
    traces; ADJOINT applies it to the identity and pairs with rho_E.  The
    1/2-per-factor prefactor is included.
    """
    signs, times = query.bath_signs, query.times
    if isinstance(bath, GaussianBath):
        return _gauss_chain_value(bath, signs, times, query.kind)
    if query.kind == ADJOINT and not bath.is_stationary():
        raise ValueError("adjoint correlators require a stationary bath state")
    x = bath.rho_E if query.kind == STANDARD else np.eye(bath.dim, dtype=complex)
    for sign, tau in zip(reversed(signs), reversed(times)):
        x = _apply_phi(bath.phi_at(tau), sign, x)
    if query.kind == STANDARD:
        return complex(np.trace(x))
    return complex(np.trace(bath.rho_E @ x))


def heisenberg_phi(bath, tau):
    """Interaction-picture coupling operator of an EXACT bath."""
    if not isinstance(bath, ExactBath):
        raise TypeError("heisenberg_phi requires an EXACT bath")
    return bath.phi_at(tau)


# ---------------------------------------------------------------------------
# grid-bound correlator tables used by the quadrature kernels
# ---------------------------------------------------------------------------

class ExactCorrelatorTable:
    """Vectorized correlator lookups keyed by grid indices, EXACT backend."""

    def __init__(self, bath, times):
        self.bath = bath
        self.times = np.asarray(times, dtype=float)
        m1 = len(self.times)
        de = bath.dim
        phases = np.exp(1j * np.subtract.outer(bath._energies, bath._energies)
                        [None, :, :] * self.times[:, None, None])
        tilde = bath._modes.conj().T @ bath.phi @ bath._modes
        v = bath._modes
        self.phi_tab = np.einsum("ij,tjk,lk->til", v, tilde * phases, v.conj())
        self._inner = {}       # sign -> batch of chain states over last index
        self._pairs = {}       # 2-sign string -> (m1, m1) array
        self._rows = {}        # (signs, prefix) -> (m1,) vector
        self._slices = {}      # (signs, j1) -> (m1, m1) array
        self._m1, self._de = m1, de

    def _innermost(self, sign):
        batch = self._inner.get(sign)
        if batch is None:
            rho = self.bath.rho_E
            left = np.einsum("tij,jk->tik", self.phi_tab, rho)
            right = np.einsum("ij,tjk->tik", rho, self.phi_tab)
            batch = 0.5 * (left + right) if sign == PLUS else 0.5 * (left - right)
            self._inner[sign] = batch
        return batch

    def moments(self):
        return self.pair_free("+")

    def pair_free(self, signs):
        """Full grid table for a 1- or 2-sign string (leading index first)."""
        tab = self._pairs.get(signs)
        if tab is not None:
            return tab
        if signs[0] == MINUS:
            shape = (self._m1,) * len(signs)
            tab = np.zeros(shape, dtype=complex)
        elif len(signs) == 1:
            # leading '+', traced: 0.5 * Tr[(phi rho + rho phi)] = Tr[phi rho]
            tab = np.einsum("tij,ji->t", self.phi_tab, self.bath.rho_E)
        else:
            y = self._innermost(signs[1])
            tab = np.einsum("aij,cji->ac", self.phi_tab, y)
        self._pairs[signs] = tab
        return tab

    def triple_slice(self, signs, j1):
        """(M+1, M+1) table over the trailing two indices, first index fixed."""
        key = (signs, j1)
        tab = self._slices.get(key)
        if tab is not None:
            return tab
        if signs[0] == MINUS:
            tab = np.zeros((self._m1, self._m1), dtype=complex)
        else:
            y = self._innermost(signs[2])
            phi1 = self.phi_tab[j1]
            tab = np.empty((self._m1, self._m1), dtype=complex)
            chunk = max(1, 4_000_000 // (self._m1 * self._de * self._de))
            for lo in range(0, self._m1, chunk):
                hi = min(lo + chunk, self._m1)
                blk = self.phi_tab[lo:hi]
                z = 0.5 * (np.einsum("bij,cjk->bcik", blk, y)
                           + (1 if signs[1] == PLUS else -1)
                           * np.einsum("cij,bjk->bcik", y, blk))
                tab[lo:hi] = np.einsum("ij,bcji->bc", phi1, z)
            self._slices[key] = tab
        return tab

    def chain_rows(self, signs, prefix):
        """Vector over the last grid index with all earlier indices fixed."""
        key = (signs, tuple(prefix))
        row = self._rows.get(key)
        if row is not None:
            return row
        if signs[0] == MINUS:
            row = np.zeros(self._m1, dtype=complex)
        else:
            x = self._innermost(signs[-1])
            for sign, j in zip(reversed(signs[1:-1]), reversed(prefix[1:])):
                phi = self.phi_tab[j]
                left = np.einsum("ij,tjk->tik", phi, x)
                right = np.einsum("tij,jk->tik", x, phi)
                x = 0.5 * (left + right) if sign == PLUS else 0.5 * (left - right)
            row = np.einsum("ij,tji->t", self.phi_tab[prefix[0]], x)
        self._rows[key] = row
        return row

    def value(self, signs, indices):
        if len(signs) == 1:
            return self.pair_free(signs)[indices[0]]
        return self.chain_rows(signs, indices[:-1])[indices[-1]]


class GaussianCorrelatorTable:
    """Correlator lookups on the grid for the GAUSSIAN backend."""

    def __init__(self, bath, times):
        self.bath = bath
        self.times = np.asarray(times, dtype=float)
        m1 = len(self.times)
        self.cc = np.empty((m1, m1), dtype=complex)
        for a in range(m1):
            for b in range(m1):
                self.cc[a, b] = bath.centered(self.times[a], self.times[b])
        if bath.mean is None:
            self.mvec = np.zeros(m1, dtype=complex)
        else:
            self.mvec = np.array([bath.mean_at(t) for t in self.times],
                                 dtype=complex)
        self._m1 = m1
        self._pairs = {}       # sign string -> (m1,) or (m1, m1) array
        self._slices = {}      # (signs, j1) -> (m1, m1) array
        self._rows = {}        # (signs, prefix) -> (m1,) vector

    def _pair(self, sa, sb, ia, ib):
        # chain-ordered centered pair; ia/ib may be ints or index arrays
        if sa == MINUS:
            return np.zeros(np.broadcast(ia, ib).shape) + 0.0j
        sgn = 1.0 if sb == PLUS else -1.0
        return 0.5 * (self.cc[ia, ib] + sgn * self.cc[ib, ia])

    def _chain(self, signs, idx):
        """Chain value with grid-index arguments; entries may be arrays."""
        n = len(signs)
        shape = np.broadcast(*idx).shape if n > 1 else np.shape(idx[0])
        total = np.zeros(shape, dtype=complex)
        plus_slots = [i for i, s in enumerate(signs) if s == PLUS]
        import itertools as _it
        for r in range(len(plus_slots) + 1):
            if self.bath.mean is None and r > 0:
                break
            for taken in _it.combinations(plus_slots, r):
                rest = [i for i in range(n) if i not in taken]
                if len(rest) % 2 == 1:
                    continue
                pre = np.ones(shape, dtype=complex)
                for i in taken:
                    pre = pre * self.mvec[idx[i]]
                sub = np.zeros(shape, dtype=complex)
                for pairing in all_pairings(rest):
                    prod = np.ones(shape, dtype=complex)
                    for a, b in pairing:
                        prod = prod * self._pair(signs[a], signs[b],
                                                 idx[a], idx[b])
                    sub = sub + prod
                total = total + pre * sub
        return total

    def moments(self):
        return self.mvec.copy()

    def pair_free(self, signs):
        tab = self._pairs.get(signs)
        if tab is None:
            if len(signs) == 1:
                tab = (self.mvec if signs == PLUS
                       else np.zeros(self._m1, complex))
            else:
                a = np.arange(self._m1)[:, None]
                b = np.arange(self._m1)[None, :]
                tab = self._chain(signs, (a, b))
            self._pairs[signs] = tab
        return tab

    def triple_slice(self, signs, j1):
        key = (signs, j1)
        tab = self._slices.get(key)
        if tab is None:
            b = np.arange(self._m1)[:, None]
            c = np.arange(self._m1)[None, :]
            tab = self._slices[key] = self._chain(signs, (j1, b, c))
        return tab

    def chain_rows(self, signs, prefix):
        key = (signs, tuple(prefix))
        row = self._rows.get(key)
        if row is None:
            last = np.arange(self._m1)
            row = self._rows[key] = self._chain(signs, key[1] + (last,))
        return row

    def value(self, signs, indices):
        return complex(self._chain(signs, tuple(indices)))


def correlator_table(bath, times):
    if isinstance(bath, ExactBath):
        return ExactCorrelatorTable(bath, times)
    if isinstance(bath, GaussianBath):
        return GaussianCorrelatorTable(bath, times)
    raise TypeError(f"unsupported bath type {type(bath)!r}")


# ---------------------------------------------------------------------------
# built-in baths
# ---------------------------------------------------------------------------

def _thermal_occupations(omega, beta, dim):
    n = np.arange(dim, dtype=float)
    if beta is None or np.isinf(beta):
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    p = np.exp(-beta * omega * n)
    return p / p.sum()

def boson_mode_bath(omega, n_max, beta=None, g=1.0, shift=0.0):
    """Single truncated bosonic mode with phi = g*(a + a^dag + shift).

    beta=None (or inf) gives the vacuum; ``shift`` adds a scalar to the
    coupling operator, which turns on odd moments while keeping the state
    stationary.
    """
    dim = n_max + 1
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:]), k=1)
    h = omega * np.diag(n.astype(float))
    phi = g * (a + a.conj().T + shift * np.eye(dim))
    rho = np.diag(_thermal_occupations(omega, beta, dim)).astype(complex)
    return ExactBath(h, phi, rho)


def qubit_bath(omega, beta=1.0, g=1.0, shift=0.0):
    """Two-level bath: H_E = omega*sz/2, phi = g*(sx + shift), thermal state."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = 0.5 * omega * sz
    phi = g * (sx + shift * np.eye(2))
    # level 1 is the ground state in the sz/2 convention
    w = _thermal_occupations(omega, beta, 2)
    rho = np.diag([w[1], w[0]]).astype(complex)
    return ExactBath(h, phi, rho)


def thermal_mode_two_point(omega, beta=None, g=1.0):
    """Analytic two-point function of a thermal (or vacuum) bosonic mode."""
    if beta is None or np.isinf(beta):
        nbar = 0.0
    else:
        nbar = 1.0 / np.expm1(beta * omega)

    def two_point(tau, s):
        d = tau - s
        return g * g * ((nbar + 1.0) * np.exp(-1j * omega * d)
                        + nbar * np.exp(1j * omega * d))

    return two_point


def two_point_from_samples(tau_grid, s_grid, values):
    """Bilinear interpolation of a sampled two-point function."""
    from scipy.interpolate import RegularGridInterpolator
    re = RegularGridInterpolator((tau_grid, s_grid), values.real,
                                 bounds_error=False, fill_value=None)
    im = RegularGridInterpolator((tau_grid, s_grid), values.imag,
                                 bounds_error=False, fill_value=None)

    def two_point(tau, s):
        pt = np.array([[tau, s]])
        return complex(re(pt)[0] + 1j * im(pt)[0])

    return two_point
