"""Benchmark workloads: their inputs, independent references and checks.

Every workload is a strict-schema tclgen config plus, for the Gaussian
workload, a sampled two-point kernel CSV.  The references here share no
code with tclgen: the exact baths are evolved in the full system+bath
Hilbert space with this module's own matrices, and the Gaussian dephasing
workload has a closed form.

The seed only shuffles the key order of the JSON config and the row order
of the kernel CSV.  Neither may change a single output byte, so every
output check and ``tcl_error`` repeat exactly across seeds.

Regenerate the inputs of one workload (config and, if any, kernel CSV):

    python3 perfbench/workloads.py --workload dephasing-gaussian-csv \
        --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
H_QUBIT = 0.5 * SZ + 0.2 * SX
RHO0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
RHO0_DEPHASING = np.array([[0.6, 0.4 - 0.2j], [0.4 + 0.2j, 0.4]])

# Outputs are printed as %.12e; trace, hermiticity and oracle agreement
# hold to machine precision times dimension, far below this.
ROUNDOFF = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    task: str            # CLI subcommand: propagate or compare
    order: int           # N
    M: int
    T: float
    g: float
    bath: str            # spinboson, thermal-wide or gaussian-csv
    adjoint: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("spinboson-tcl3", "propagate", 3, 40, 5.0, 0.1, "spinboson"),
    Workload("spinboson-tcl4-adjoint", "propagate", 4, 18, 5.0, 0.1,
             "spinboson", adjoint=True),
    Workload("dephasing-gaussian-csv", "propagate", 2, 160, 10.0, 0.3,
             "gaussian-csv"),
    Workload("wide-bath-compare", "compare", 2, 16, 5.0, 0.1, "thermal-wide"),
)}

# bath parameters (unit coupling; g scales phi)
OMEGA = 1.0
SPINBOSON = {"n_max": 6, "beta": None, "shift": 0.7}
THERMAL_WIDE = {"n_max": 40, "beta": 1.0, "shift": 0.0}
GAUSS_BETA = 1.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(mat, dtype=complex)]


def _shuffled(obj, rng):
    """Same JSON object with the key order of every level permuted."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    return obj


def config_dict(wl, M, kernel_csv=None):
    model = {"d_S": 2, "A": _pairs(SZ if wl.bath == "gaussian-csv" else SX),
             "g": wl.g}
    if wl.bath == "gaussian-csv":
        model["H_S"] = _pairs(0.5 * SZ)
        model["rho0"] = _pairs(RHO0_DEPHASING)
        bath = {"type": "gaussian", "two_point_csv": kernel_csv}
    else:
        model["H_S"] = _pairs(H_QUBIT)
        params = SPINBOSON if wl.bath == "spinboson" else THERMAL_WIDE
        bath = {"type": "boson-mode", "omega": OMEGA,
                "n_max": params["n_max"]}
        if params["beta"] is not None:
            bath["beta"] = params["beta"]
        if params["shift"]:
            bath["shift"] = params["shift"]
        if wl.adjoint:
            model["observable"] = _pairs(SZ)
        else:
            model["rho0"] = _pairs(RHO0)
    cfg = {"model": model, "bath": bath, "grid": {"T": wl.T, "M": M},
           "order": wl.order}
    if wl.adjoint:
        cfg["adjoint"] = True
    return cfg


def thermal_kernel(tau, s, beta=GAUSS_BETA, omega=OMEGA):
    """<phi(tau) phi(s)> of a thermal mode, phi = a + a^dag, unit coupling."""
    nbar = 1.0 / math.expm1(beta * omega)
    d = tau - s
    return ((nbar + 1.0) * np.exp(-1j * omega * d)
            + nbar * np.exp(1j * omega * d))


def write_kernel_csv(path, times, rng):
    rows = [(a, b) for a in times for b in times]
    rng.shuffle(rows)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("tau", "s", "re", "im"))
        for a, b in rows:
            c = thermal_kernel(a, b)
            out.writerow((repr(float(a)), repr(float(b)),
                          repr(float(c.real)), repr(float(c.imag))))


def write_inputs(wl, seed, out_dir, M=None):
    """Write the config (and kernel CSV) for one run; returns its path."""
    M = wl.M if M is None else M
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    kernel = None
    if wl.bath == "gaussian-csv":
        kernel = out_dir / "kernel.csv"
        write_kernel_csv(kernel, np.linspace(0.0, wl.T, M + 1), rng)
        kernel = str(kernel.resolve())
    path = out_dir / "config.json"
    path.write_text(json.dumps(_shuffled(config_dict(wl, M, kernel), rng)))
    return path


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def boson_mode(params):
    """H_E, phi (unit coupling) and rho_E of one truncated bosonic mode."""
    dim = params["n_max"] + 1
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:]), k=1).astype(complex)
    h_e = OMEGA * np.diag(n).astype(complex)
    phi = a + a.T + params["shift"] * np.eye(dim)
    if params["beta"] is None:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        p = np.exp(-params["beta"] * OMEGA * n)
        p /= p.sum()
    return h_e, phi, np.diag(p).astype(complex)


def exact_reduced(h_s, a_op, g, h_e, phi, rho_e, rho0, times):
    """Interaction-picture reduced state from full unitary evolution."""
    d_s, d_e = h_s.shape[0], h_e.shape[0]
    h = (np.kron(h_s, np.eye(d_e)) + np.kron(np.eye(d_s), h_e)
         + g * np.kron(a_op, phi))
    e, v = np.linalg.eigh(h)
    es, vs = np.linalg.eigh(h_s)
    r0 = v.conj().T @ np.kron(rho0, rho_e) @ v
    out = np.empty((len(times), d_s, d_s), dtype=complex)
    for k, t in enumerate(times):
        ph = np.exp(-1j * e * t)
        full = v @ (ph[:, None] * r0 * ph.conj()[None, :]) @ v.conj().T
        red = np.trace(full.reshape(d_s, d_e, d_s, d_e), axis1=1, axis2=3)
        back = (vs * np.exp(1j * es * t)) @ vs.conj().T
        out[k] = back @ red @ back.conj().T
    return out


def trace_norm(x):
    return float(np.linalg.svd(x, compute_uv=False).sum())


def _abs_moment(phi, rho_e, n):
    lam, vec = np.linalg.eigh(phi)
    weights = np.real(np.einsum("ij,ik,kj->j", vec.conj(), rho_e, vec))
    return float(np.sum(np.abs(lam) ** n * weights))


@dataclass
class Reference:
    times: np.ndarray
    states: np.ndarray | None     # exact reduced states (exact baths)
    coherence: np.ndarray | None  # closed-form rho_01(t) (dephasing)
    tol: float                    # a-priori bound on tcl_error
    tol_parts: dict


def reference(wl, M=None):
    """The benchmark's own reference and the a-priori tcl_error tolerance.

    tol = tau_n + gamma_h.  tau_n = (2 g |A| T)^n m_n / n! is the size of
    the first non-vanishing neglected term of the coupling expansion
    (simplex volume T^n/n!, each interaction factor at most 2 g |A| |phi|,
    m_n = Tr[rho_E |phi|^n]).  n = N+1, or N+2 when N+1 is odd and the
    mode is unshifted: then rho_E is diagonal in the number basis, phi
    changes the number by one, and every odd-order bath function vanishes.
    gamma_h = (Omega h)^2/4 * S_2 covers three O(h^2) rules (two nested
    trapezoid sums and the linear interpolation of the generator inside
    RK4), each with relative error (Omega h)^2/12 on an oscillation of the
    highest leading frequency Omega, applied to the size S_2 of the
    second-order effect.
    """
    M = wl.M if M is None else M
    times = np.linspace(0.0, wl.T, M + 1)
    h = wl.T / M
    if wl.bath == "gaussian-csv":
        nbar = 1.0 / math.expm1(GAUSS_BETA * OMEGA)
        gamma = (4 * wl.g ** 2 * (2 * nbar + 1)
                 * (1 - np.cos(OMEGA * times)) / OMEGA ** 2)
        coherence = RHO0_DEPHASING[0, 1] * np.exp(-gamma)
        # Gaussian pure dephasing: cumulants beyond second order vanish,
        # so TCL2 is exact and only the grid term remains
        parts = {"truncation": 0.0,
                 "grid": (OMEGA * h) ** 2 / 4 * gamma.max()
                 * abs(RHO0_DEPHASING[0, 1])}
        return Reference(times, None, coherence, sum(parts.values()), parts)
    params = SPINBOSON if wl.bath == "spinboson" else THERMAL_WIDE
    h_e, phi, rho_e = boson_mode(params)
    states = exact_reduced(H_QUBIT, SX, wl.g, h_e, phi, rho_e, RHO0, times)
    n = wl.order + 1
    if n % 2 and params["shift"] == 0.0:
        n += 1
    a_norm = np.linalg.norm(SX, 2)
    lead = 2 * wl.g * a_norm * wl.T
    eig_s = np.linalg.eigvalsh(H_QUBIT)
    omega_max = OMEGA + (eig_s[-1] - eig_s[0])
    obs_norm = np.linalg.norm(SZ, 2) if wl.adjoint else 1.0
    parts = {
        "truncation": obs_norm * lead ** n * _abs_moment(phi, rho_e, n)
        / math.factorial(n),
        "grid": obs_norm * (omega_max * h) ** 2 / 4
        * lead ** 2 * _abs_moment(phi, rho_e, 2) / 2,
    }
    return Reference(times, states, None, sum(parts.values()), parts)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def trajectory_payload(header, data, d=2):
    """Full matrices from the upper-triangle columns (hermitian completion)."""
    col = {name: k for k, name in enumerate(header)}
    out = np.empty((len(data), d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            z = data[:, col[f"re_{i}_{j}"]] + 1j * data[:, col[f"im_{i}_{j}"]]
            out[:, i, j] = z
            if i != j:
                out[:, j, i] = z.conj()
    return out


def output_files(wl):
    return (("distance.csv", "summary.json") if wl.task == "compare"
            else ("trajectory.csv", "summary.json"))


def digest(out_dir, wl):
    h = hashlib.sha256()
    for name in output_files(wl):
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


class CheckFailed(Exception):
    def __init__(self, check, message):
        super().__init__(f"{check}: {message}")
        self.check = check


def _require(cond, check, message):
    if not cond:
        raise CheckFailed(check, message)


def check_trajectory(wl, ref, header, data, state):
    """Shared checks of one trajectory CSV; returns its payload."""
    _require(header[0] == "t" and header[-3:] == [
        "trace_dev", "herm_residual", "min_eig"], "files",
        f"unexpected trajectory columns {header}")
    _require(data.shape[0] == len(ref.times)
             and np.allclose(data[:, 0], ref.times, rtol=0, atol=1e-12),
             "files", "trajectory times are not the workload grid")
    col = {name: k for k, name in enumerate(header)}
    payload = trajectory_payload(header, data)
    diag_im = np.abs(np.einsum("tii->ti", payload).imag).max()
    _require(data[:, col["herm_residual"]].max() <= ROUNDOFF
             and diag_im <= ROUNDOFF, "hermiticity",
             f"herm_residual {data[:, col['herm_residual']].max():.3e}, "
             f"imaginary diagonal {diag_im:.3e}")
    if state:
        own = np.abs(np.einsum("tii->t", payload) - 1.0).max()
        _require(data[:, col["trace_dev"]].max() <= ROUNDOFF
                 and own <= ROUNDOFF, "trace",
                 f"trace_dev {data[:, col['trace_dev']].max():.3e}, "
                 f"own trace deviation {own:.3e}")
    return payload


def state_error(ref, payload):
    return max(trace_norm(a - b) for a, b in zip(payload, ref.states))


def check_outputs(wl, ref, out_dir, tcl_traj=None):
    """Check one CLI run's outputs; returns tcl_error or raises CheckFailed.

    ``tcl_traj`` is the trajectory directory of the TCL state run that the
    compare workload's distance is checked against.
    """
    out_dir = Path(out_dir)
    for name in output_files(wl):
        _require((out_dir / name).is_file(), "files", f"{name} missing")
    summary = json.loads((out_dir / "summary.json").read_text())
    _require(summary.get("task") == wl.task and summary.get("order")
             == wl.order, "files", "summary does not match the workload")
    if wl.task == "compare":
        header, data = read_csv(out_dir / "distance.csv")
        _require(header == ["t", "trace_distance"]
                 and data.shape[0] == len(ref.times)
                 and np.allclose(data[:, 0], ref.times, rtol=0, atol=1e-12),
                 "files", "distance.csv does not cover the workload grid")
        th, td = read_csv(Path(tcl_traj) / "trajectory.csv")
        payload = check_trajectory(wl, ref, th, td, state=True)
        own = np.array([trace_norm(a - b)
                        for a, b in zip(payload, ref.states)])
        dev = np.abs(own - data[:, 1]).max()
        _require(dev <= ROUNDOFF and abs(summary["max_error"] - own.max())
                 <= ROUNDOFF, "distance",
                 f"distance.csv differs from the own distance by {dev:.3e}")
        err = float(own.max())
    else:
        header, data = read_csv(out_dir / "trajectory.csv")
        payload = check_trajectory(wl, ref, header, data, state=not wl.adjoint)
        if wl.adjoint:
            own = np.einsum("tij,ji->t", payload, RHO0)
            exact = np.einsum("ij,tji->t", SZ, ref.states)
            err = float(np.abs(own - exact).max())
        elif ref.coherence is not None:
            pops = np.abs(payload[:, 0, 0].real - RHO0_DEPHASING[0, 0].real)
            _require(pops.max() <= ROUNDOFF, "populations",
                     f"populations drift by {pops.max():.3e}")
            err = float(np.abs(payload[:, 0, 1] - ref.coherence).max())
        else:
            err = state_error(ref, payload)
    _require(err <= ref.tol, "reference",
             f"tcl_error {err:.3e} exceeds the a-priori bound {ref.tol:.3e}")
    return err


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(write_inputs(WORKLOADS[args.workload], args.seed, args.out))


if __name__ == "__main__":
    main()
