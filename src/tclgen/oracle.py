"""Ground truth by full system+bath unitary evolution and partial trace.

The composite propagator comes from one eigendecomposition, so the reference
trajectory carries no integrator error; the reduced state is rotated back to
the interaction picture with the same system Hamiltonian used on the
perturbative side.  The bath is traced out in the eigenbasis of the
composite Hamiltonian, so no composite state is ever built at a grid time:
for a composite dimension D = d_S d_E and M+1 grid times the oracle costs
O(D^3 + d_S^2 (d_E + M) D^2) time and O(D^2 + M D) memory.  The O(D^3)
eigendecomposition runs the real symmetric solver when the composite
Hamiltonian is real: at D = 82 it takes 0.46 ms against 0.80 ms for the
complex Hermitian one (one BLAS thread of a shared 2-vCPU x86-64 host).

``exact_reduced_states`` is the payload alone and
``exact_reduced_trajectory`` adds the monitors of ``propagate``.  The
comparison ``tcl_vs_exact_error`` needs payloads only, so it computes no
monitor on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tclgen.baths import ExactBath, interaction_picture
from tclgen.propagate import (
    Trajectory,
    _monitors,
    require_finite,
    truncated_states,
)
from tclgen.superops import MATRIX_RECURSION, apply_superop, evaluate_mu, kron
from tclgen.terms import ADJOINT, SCHRODINGER

DESK_DIM_BOUND = 4096


@dataclass
class FullModel:
    """Composite model: H = H_S x 1 + 1 x H_E + g A x phi, product state.

    ``H_total`` follows its inputs: it is a real array when H_S, A, H_E and
    phi have no imaginary part (g is real), so that ``np.linalg.eigh`` runs
    the real symmetric solver on it, and complex otherwise.  The real one
    holds the real parts of the complex one bit for bit; only the solver's
    round-off differs.  ``rho_total0`` is complex.
    """

    model: object
    rho_S0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.model.bath, ExactBath):
            raise TypeError("the exact oracle needs an EXACT bath")
        self.rho_S0 = np.asarray(self.rho_S0, dtype=complex)
        bath = self.model.bath
        self.d_S = self.model.d_S
        self.d_E = bath.dim
        if self.d_S * self.d_E > DESK_DIM_BOUND:
            raise ValueError("composite dimension exceeds the desk bound")
        mats = (self.model.H_S, self.model.A, bath.H_E, bath.phi)
        if not any(m.imag.any() for m in mats):
            mats = tuple(m.real for m in mats)
        h_s, a, h_e, phi = mats
        self.H_total = (kron(h_s, np.eye(self.d_E))
                        + kron(np.eye(self.d_S), h_e)
                        + self.model.g * kron(a, phi))
        self.rho_total0 = kron(self.rho_S0, bath.rho_E)


def exact_reduced_states(full, grid):
    """The (M+1, d_S, d_S) reduced interaction-picture states.

    With H_total = V diag(e) V^dagger, x = V^dagger rho_total0 V and phases
    p_k(t) = exp(-i e_k t), the (a, b) element of Tr_E[rho(t)] is
    sum_kl p_k(t) Y_ab[k, l] conj(p_l(t)), where Y_ab = (w_a^T conj(w_b)) * x
    and w_a = V[a d_E:(a+1) d_E, :] is the block of system index a.  Each
    (a, b) costs one (D, d_E)(d_E, D) and one (M+1, D)(D, D) product, so the
    whole trajectory costs O(D^3 + d_S^2 (d_E + M) D^2) time and needs
    O(D^2 + M D) memory; no (M+1, D, D) stack is formed.  The O(D^3)
    eigendecomposition dominates at small M; it runs the real symmetric
    solver when ``full.H_total`` is real.
    """
    d_s, d_e = full.d_S, full.d_E
    e, v = np.linalg.eigh(full.H_total)
    x = v.conj().T @ full.rho_total0 @ v
    w = v.reshape(d_s, d_e, -1)
    phase = np.exp(-1j * np.outer(grid.times, e))
    reduced = np.empty((len(grid.times), d_s, d_s), dtype=complex)
    for a in range(d_s):
        for b in range(d_s):
            y = (w[a].T @ w[b].conj()) * x
            reduced[:, a, b] = ((phase @ y) * phase.conj()).sum(axis=1)
    # rotate back to the interaction picture with the system Hamiltonian
    return interaction_picture(full.model.H_S, reduced, grid.times)


def exact_reduced_trajectory(full, grid):
    """``exact_reduced_states`` with the trajectory monitors of ``propagate``.

    The monitors (trace deviation, hermiticity residual, minimum eigenvalue)
    add one batched eigvalsh over the (M+1, d_S, d_S) states to the cost of
    the payload.
    """
    payload = exact_reduced_states(full, grid)
    return Trajectory(grid.times.copy(), payload, *_monitors(payload, 1.0))


def tcl_vs_exact_error(model, rho0, grid, N, quad=None, path=MATRIX_RECURSION):
    """Trace-norm distance between the truncated and exact dynamics.

    Returns its maximum over the grid and the (M+1,) series.  Only the two
    payloads are computed, ``truncated_states`` and ``exact_reduced_states``,
    no monitor of either; they equal the payloads of ``propagate_state`` and
    ``exact_reduced_trajectory`` bit for bit.  The cost is the truncated run
    plus the oracle's, whose eigendecomposition of ``H_total`` takes the
    real symmetric solver on a real model.  ``rho0`` is validated as
    ``propagate_state`` does, and an overflowed truncated run is refused
    before the exact one is computed.  The truncated run assembles its
    generator along ``path``.
    """
    tcl = truncated_states(model, rho0, grid, N, quad, path)
    require_finite("the truncated trajectory is not finite", tcl)
    exact = exact_reduced_states(FullModel(model, rho0), grid)
    require_finite("the exact trajectory is not finite", exact)
    series = np.linalg.svd(tcl - exact, compute_uv=False).sum(-1)
    return float(series.max()), series


def scaling_probe(model, rho0, grid, N, couplings, path=MATRIX_RECURSION):
    """Truncation-order check: err(g) and log2(err(g)/err(g/2)) ratios.

    The expected ratio is N+1 when the first neglected expansion order is
    populated.  Couplings are processed in the given order; ratios pair
    each entry with a following entry equal to half of it.
    """
    if len(couplings) < 2:
        raise ValueError("need at least two couplings")

    rows = [{"g": float(g),
             "err": tcl_vs_exact_error(replace(model, g=float(g)),
                                       rho0, grid, N, path=path)[0]}
            for g in couplings]
    for k, row in enumerate(rows):
        row["ratio"] = None
        for other in rows[k + 1:]:
            if abs(other["g"] - 0.5 * row["g"]) <= 1e-12 * abs(row["g"]):
                row["ratio"] = float(np.log2(row["err"] / other["err"]))
                break
    return rows


def duality_check(model, O0, rho0, quad, orders=(1, 2, 3)):
    """Momentum-level duality residuals at the final grid time.

    For each order n: | Tr[O0 (-i)^n mu_n rho] - Tr[(i^n mu~_n O0) rho] |.
    """
    i = quad.grid.M
    out = {}
    for n in orders:
        mu_n = evaluate_mu(n, i, model, quad, SCHRODINGER)
        mu_adj = evaluate_mu(n, i, model, quad, ADJOINT)
        lhs = np.trace(O0 @ apply_superop((-1j) ** n * mu_n, rho0))
        rhs = np.trace(apply_superop(1j ** n * mu_adj, O0) @ rho0)
        out[n] = float(abs(lhs - rhs))
    return out
