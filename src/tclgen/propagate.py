"""Time integration of the truncated master equation and its adjoint.

The generator is precomputed on the full grid and interpolated linearly at
the half steps of a classical Runge-Kutta (RK4) one-step scheme.  The
trapezoid quadrature of the generator and its linear interpolation are both
O(h^2), so the end-to-end error is O(h^2): halving h divides the final-state
error by about four (measured observed order 2.0-2.1 from M=50 to 400), not
by sixteen.  Health monitors
(trace deviation, hermiticity residual, minimum eigenvalue) are diagnostics
only: nothing is renormalized or clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tclgen.superops import (
    MATRIX_RECURSION,
    QuadratureConfig,
    generator_table,
    vec,
)
from tclgen.terms import ADJOINT, SCHRODINGER

PSD_TOL = 1e-10


@dataclass
class Trajectory:
    """Grid times plus per-time payload matrices and health monitors."""

    times: np.ndarray
    payload: np.ndarray          # (M+1, d, d)
    trace_dev: np.ndarray
    herm_residual: np.ndarray
    min_eig: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if len(self.payload) != len(self.times):
            raise ValueError("payload length must match the grid")

    @property
    def final(self):
        return self.payload[-1]


def _monitors(payload, trace_ref):
    traces = np.einsum("tii->t", payload)
    trace_dev = np.abs(traces - trace_ref)
    herm = payload - np.conj(np.swapaxes(payload, 1, 2))
    herm_residual = np.linalg.norm(herm, axis=(1, 2))
    hermitized = 0.5 * (payload + np.conj(np.swapaxes(payload, 1, 2)))
    min_eig = np.linalg.eigvalsh(hermitized)[:, 0]
    return trace_dev, herm_residual, min_eig


def _rk4_run(l_tab, x0, h):
    """RK4 steps with the generator interpolated linearly mid-step."""
    steps = len(l_tab) - 1
    d2 = x0.size
    out = np.empty((steps + 1, d2), dtype=complex)
    out[0] = vec(x0)
    y = out[0].copy()
    for i in range(steps):
        l0, l1 = l_tab[i], l_tab[i + 1]
        lm = 0.5 * (l0 + l1)
        k1 = l0 @ y
        k2 = lm @ (y + 0.5 * h * k1)
        k3 = lm @ (y + 0.5 * h * k2)
        k4 = l1 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def _validate_state(rho0):
    rho0 = np.asarray(rho0, dtype=complex)
    if np.linalg.norm(rho0 - rho0.conj().T) > PSD_TOL:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > PSD_TOL:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(rho0).min() < -PSD_TOL:
        raise ValueError("rho0 must be positive semidefinite")
    return rho0


def _quad_for(grid, N, quad):
    """The quadrature to use on ``grid``: a fresh one, or ``quad`` checked."""
    if quad is None:
        return QuadratureConfig(grid, max_order=max(N, 1))
    if quad.grid is not grid and not np.array_equal(quad.grid.times,
                                                    grid.times):
        raise ValueError("quadrature grid does not match the propagation grid")
    return quad


def _propagate(model, x0, grid, N, quad, path, kind, trace_ref):
    """RK4 trajectory of ``x0`` under the generator of ``kind``."""
    quad = _quad_for(grid, N, quad)
    l_tab = generator_table(model, quad, N, path, kind)
    d = model.d_S
    payload = _rk4_run(l_tab, x0, grid.h).reshape(-1, d, d)
    return Trajectory(grid.times.copy(), payload,
                      *_monitors(payload, trace_ref))


def propagate_state(model, rho0, grid, N, quad=None, path=MATRIX_RECURSION):
    """Integrate the truncated master equation for the state."""
    rho0 = _validate_state(rho0)
    if rho0.shape[0] != model.d_S:
        raise ValueError("rho0 dimension does not match the model")
    return _propagate(model, rho0, grid, N, quad, path, SCHRODINGER, 1.0)


def propagate_observable(model, O0, grid, N, quad=None, path=MATRIX_RECURSION):
    """Integrate the adjoint equation for an observable (stationary bath)."""
    O0 = np.asarray(O0, dtype=complex)
    if np.linalg.norm(O0 - O0.conj().T) > PSD_TOL:
        raise ValueError("O0 must be Hermitian")
    if O0.shape[0] != model.d_S:
        raise ValueError("O0 dimension does not match the model")
    return _propagate(model, O0, grid, N, quad, path, ADJOINT,
                      float(np.real(np.trace(O0))))


def format_rows(table, fmt):
    """CSV lines of a 2-D table; ``fmt`` lists one %-conversion per column.

    Floats use ``%.12e``, so the output is byte-reproducible.
    """
    line = ",".join(fmt) + "\n"
    return "".join(line % tuple(row) for row in np.asarray(table).tolist())


def trajectory_to_csv(traj):
    """Render a trajectory in the shared CSV schema.

    Columns: t, re/im of the upper triangle (row-major, i <= j), then the
    three monitors.  Floats are %.12e so output is byte-reproducible.
    """
    d = traj.payload.shape[1]
    rows, cols = np.triu_indices(d)
    upper = traj.payload[:, rows, cols]
    parts = np.stack([upper.real, upper.imag], axis=-1).reshape(len(upper), -1)
    table = np.column_stack([traj.times, parts, traj.trace_dev,
                             traj.herm_residual, traj.min_eig])
    header = ["t"] + [f"{part}_{i}_{j}" for i, j in zip(rows, cols)
                      for part in ("re", "im")]
    header += ["trace_dev", "herm_residual", "min_eig"]
    return ",".join(header) + "\n" + format_rows(table,
                                                ["%.12e"] * len(header))
