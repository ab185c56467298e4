"""Time integration of the truncated master equation and its adjoint.

The generator is precomputed on the full grid, and each step is a classical
Runge-Kutta (RK4) step with the generator interpolated linearly at the half
step.  The equation is linear, so an RK4 step is one d^2 x d^2 matrix, a
polynomial in the generator at the step's start, middle and end: every step
matrix is built in one batched pass over the (M, d^2, d^2) generator stacks,
in four stacks the size of the generator table, and each step is then one
matvec.  The trapezoid quadrature of the generator and its linear
interpolation are both O(h^2), so the end-to-end error is O(h^2): halving h
divides the final-state error by about four (measured observed order 2.0-2.1
from M=50 to 400), not by sixteen.  Health monitors (trace deviation,
hermiticity residual, minimum eigenvalue) are diagnostics only: nothing is
renormalized or clamped, and ``truncated_states`` returns the state payload
of ``propagate_state`` without them, for callers that write no monitor.
The adjoint equation preserves the identity, not the trace of the
observable, so an observable run also carries the identity through the
same steps and reports its unitality deviation ||Phi~_t(1) - 1||_F.
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
    unitality_dev: np.ndarray | None = None   # adjoint runs only

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
    adj = np.conj(np.swapaxes(payload, 1, 2))
    herm_residual = np.linalg.norm(payload - adj, axis=(1, 2))
    min_eig = np.linalg.eigvalsh(0.5 * (payload + adj))[:, 0]
    return trace_dev, herm_residual, min_eig


def _rk4_run(l_tab, x0, h):
    """Classical RK4 on the grid, as one precomputed propagator per step.

    With l0 = L(t_i), l1 = L(t_{i+1}) and the mid-step lm = (l0 + l1)/2, the
    four stages of a linear equation compose into one matrix
    P_i = I + h/6 (l0 + 2 K2 + 2 K3 + K4), with K2 = lm (I + h/2 l0),
    K3 = lm (I + h/2 K2) and K4 = l1 (I + h K3).  Every P_i is built in one
    batched pass over the (M, d^2, d^2) stacks, then each step is one matvec.
    The build costs O(M d^6), the order of the generator table's own batched
    products, and works in place in four stacks the size of ``l_tab``.
    ``x0`` is one (d, d) operator, giving (M+1, d^2) vectors, or a (c, d, d)
    stack, giving (M+1, c, d^2).  A stack shares each step's one product as
    a stack of matvecs, so every operator gets the bits of a run alone.
    """
    l0, l1 = l_tab[:-1], l_tab[1:]
    diag = np.arange(l_tab.shape[-1])
    lm = np.add(l0, l1)
    lm *= 0.5
    lift = np.multiply(l0, 0.5 * h)
    lift[:, diag, diag] += 1.0
    k2 = np.matmul(lm, lift)
    np.multiply(k2, 0.5 * h, out=lift)
    lift[:, diag, diag] += 1.0
    k3 = np.matmul(lm, lift)
    np.multiply(k3, h, out=lift)
    lift[:, diag, diag] += 1.0
    prop = np.matmul(l1, lift, out=lm)      # K4, in the buffer of lm
    k2 += k3
    k2 *= 2.0
    prop += k2
    prop += l0
    prop *= h / 6.0
    prop[:, diag, diag] += 1.0
    one = np.ndim(x0) == 2
    shape = (diag.size,) if one else (len(x0), diag.size, 1)
    out = np.empty((len(l_tab),) + shape, dtype=complex)
    out[0] = np.reshape(x0, shape)
    for i, step in enumerate(prop):
        np.matmul(step, out[i], out=out[i + 1])
    return out if one else out[..., 0]


def _hermitian_operator(x, name, d):
    """``x`` as a complex array, refused unless finite, Hermitian, d x d."""
    x = np.asarray(x, dtype=complex)
    # before the tolerance checks, which NaN fails silently
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    if np.linalg.norm(x - x.conj().T) > PSD_TOL:
        raise ValueError(f"{name} must be Hermitian")
    if x.shape[0] != d:
        raise ValueError(f"{name} dimension does not match the model")
    return x


def _validate_state(rho0, d):
    rho0 = _hermitian_operator(rho0, "rho0", d)
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


def _run(model, x0, grid, N, quad, path, kind):
    """RK4 run of ``x0`` under the generator of ``kind``, as ``_rk4_run``
    returns it: the payload only, no monitor."""
    l_tab = generator_table(model, _quad_for(grid, N, quad), N, path, kind)
    return _rk4_run(l_tab, x0, grid.h)


def truncated_states(model, rho0, grid, N, quad=None, path=MATRIX_RECURSION):
    """The (M+1, d_S, d_S) states of the truncated master equation.

    This is ``propagate_state``'s payload, bit for bit, without its
    monitors.
    """
    d = model.d_S
    rho0 = _validate_state(rho0, d)
    return _run(model, rho0, grid, N, quad, path,
                SCHRODINGER).reshape(-1, d, d)


def propagate_state(model, rho0, grid, N, quad=None, path=MATRIX_RECURSION):
    """Integrate the truncated master equation for the state."""
    payload = truncated_states(model, rho0, grid, N, quad, path)
    return Trajectory(grid.times.copy(), payload, *_monitors(payload, 1.0))


def propagate_observable(model, O0, grid, N, quad=None, path=MATRIX_RECURSION):
    """Integrate the adjoint equation for an observable.

    The identity is carried beside ``O0`` for the unitality deviation.
    """
    d = model.d_S
    O0 = _hermitian_operator(O0, "O0", d)
    run = _run(model, np.stack((O0, np.eye(d))), grid, N, quad, path, ADJOINT)
    payload = run[:, 0].reshape(-1, d, d)
    return Trajectory(grid.times.copy(), payload,
                      *_monitors(payload, float(np.real(np.trace(O0)))),
                      np.linalg.norm(run[:, 1] - vec(np.eye(d)), axis=1))


def require_finite(message, *arrays):
    """Raise ``ValueError(message)`` if a given array has a NaN or infinity.

    An array given as None is absent and skipped.
    """
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError(message)


def format_rows(table, fmt):
    """CSV lines of a 2-D table; ``fmt`` lists one %-conversion per column.

    Floats use ``%.12e``, so the output is byte-reproducible.  The whole
    table is one %-format of one flat tuple, so rendering it allocates no
    Python object per row.
    """
    table = np.asarray(table)
    return (",".join(fmt) + "\n") * len(table) % tuple(table.ravel().tolist())


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
