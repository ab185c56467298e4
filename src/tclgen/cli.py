"""Command-line interface.

Subcommands: terms, count, evaluate, propagate, oracle, compare.  Numeric
tasks read a strict-schema JSON config (unknown keys are rejected so
experiment files stay self-documenting) and write CSV files plus a JSON
summary.  All floats are printed as %.12e and iteration orders are fixed,
so output is byte-reproducible for a given config.

Exit codes: 0 success, 2 config or usage error, 3 numerical validation
failure (for example a non-Hermitian input matrix).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from tclgen import baths, oracle, propagate, superops, terms


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# strict config parsing
# ---------------------------------------------------------------------------

def _require_keys(section, mapping, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"missing keys in {section}: {sorted(missing)}")


def _integer(section, value):
    """An integer config value; floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section} must be an integer, got {value!r}")
    return value


def _boolean(section, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{section} must be true or false, got {value!r}")
    return value


def _parse_matrix(section, raw, dim=None):
    """Row-major matrix of [re, im] pairs."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ConfigError(f"{section} must be a square matrix of [re, im] pairs")
    if dim is not None and arr.shape[0] != dim:
        raise ConfigError(f"{section} must have dimension {dim}")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_bath(cfg):
    _require_keys("bath", cfg, ("type",), (
        "H_E", "phi", "rho_E", "omega", "beta", "n_max", "shift",
        "two_point", "two_point_csv"))
    kind = cfg["type"]
    if kind == "exact":
        _require_keys("bath(exact)", cfg, ("type", "H_E", "phi", "rho_E"))
        return baths.ExactBath(_parse_matrix("bath.H_E", cfg["H_E"]),
                               _parse_matrix("bath.phi", cfg["phi"]),
                               _parse_matrix("bath.rho_E", cfg["rho_E"]))
    if kind == "boson-mode":
        _require_keys("bath(boson-mode)", cfg, ("type", "omega", "n_max"),
                      ("beta", "shift"))
        return baths.boson_mode_bath(float(cfg["omega"]),
                                     _integer("bath.n_max", cfg["n_max"]),
                                     beta=cfg.get("beta"),
                                     shift=float(cfg.get("shift", 0.0)))
    if kind == "dephasing-qubit":
        # vacuum single mode; the canonical dephasing environment
        _require_keys("bath(dephasing-qubit)", cfg, ("type",),
                      ("omega", "n_max"))
        return baths.boson_mode_bath(
            float(cfg.get("omega", 1.0)),
            _integer("bath.n_max", cfg.get("n_max", 6)), beta=None)
    if kind == "gaussian":
        _require_keys("bath(gaussian)", cfg, ("type",),
                      ("two_point", "two_point_csv", "omega", "beta"))
        if "two_point_csv" in cfg:
            return baths.GaussianBath(
                _two_point_from_csv(cfg["two_point_csv"]))
        if cfg.get("two_point") != "single-mode-thermal":
            raise ConfigError("gaussian bath needs two_point="
                              "'single-mode-thermal' or two_point_csv")
        if "omega" not in cfg:
            raise ConfigError("gaussian single-mode-thermal needs omega")
        return baths.GaussianBath(
            baths.thermal_mode_two_point(float(cfg["omega"]),
                                         beta=cfg.get("beta")))
    raise ConfigError(f"unknown bath type {kind!r}")


def _two_point_from_csv(path):
    taus, ss, vals = [], [], {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if set(reader.fieldnames or ()) != {"tau", "s", "re", "im"}:
            raise ConfigError("two-point CSV needs columns tau,s,re,im")
        for row in reader:
            tau, s = float(row["tau"]), float(row["s"])
            taus.append(tau)
            ss.append(s)
            vals[(tau, s)] = float(row["re"]) + 1j * float(row["im"])
    tau_grid = np.array(sorted(set(taus)))
    s_grid = np.array(sorted(set(ss)))
    table = np.empty((len(tau_grid), len(s_grid)), dtype=complex)
    try:
        for a, tau in enumerate(tau_grid):
            for b, s in enumerate(s_grid):
                table[a, b] = vals[(tau, s)]
    except KeyError as exc:
        raise ConfigError("two-point CSV must sample a full tau x s grid") from exc
    return baths.two_point_from_samples(tau_grid, s_grid, table)


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _require_keys("config", cfg, ("model", "bath", "grid", "order"),
                  ("adjoint", "path", "couplings"))
    mcfg = cfg["model"]
    _require_keys("model", mcfg, ("d_S", "H_S", "A", "g"),
                  ("rho0", "observable"))
    d_s = _integer("model.d_S", mcfg["d_S"])
    gcfg = cfg["grid"]
    _require_keys("grid", gcfg, ("T", "M"))
    order = _integer("order", cfg["order"])
    if not 1 <= order <= 4:
        raise ConfigError("order must be in 1..4")
    parsed = {
        "H_S": _parse_matrix("model.H_S", mcfg["H_S"], d_s),
        "A": _parse_matrix("model.A", mcfg["A"], d_s),
        "g": float(mcfg["g"]),
        "rho0": (_parse_matrix("model.rho0", mcfg["rho0"], d_s)
                 if "rho0" in mcfg else None),
        "observable": (_parse_matrix("model.observable",
                                     mcfg["observable"], d_s)
                       if "observable" in mcfg else None),
        "bath_cfg": cfg["bath"],
        "T": float(gcfg["T"]),
        "M": _integer("grid.M", gcfg["M"]),
        "order": order,
        "adjoint": _boolean("adjoint", cfg.get("adjoint", False)),
        "path": cfg.get("path", "matrix"),
        "couplings": cfg.get("couplings"),
    }
    if parsed["path"] not in ("matrix", "terms"):
        raise ConfigError("path must be 'matrix' or 'terms'")
    if parsed["couplings"] is not None:
        if (not isinstance(parsed["couplings"], list)
                or len(parsed["couplings"]) < 2):
            raise ConfigError("couplings must be a list of at least two values")
        parsed["couplings"] = [float(g) for g in parsed["couplings"]]
    return parsed


def _build_problem(parsed):
    """Construct model/grid/quad; raises ValueError on numeric violations."""
    bath = _parse_bath(parsed["bath_cfg"])
    model = superops.ModelSpec(parsed["H_S"], parsed["A"], parsed["g"], bath,
                               adjoint=parsed["adjoint"])
    grid = superops.Grid(parsed["T"], parsed["M"])
    quad = superops.QuadratureConfig(grid, max_order=max(parsed["order"], 1))
    return model, grid, quad


def _gen_path(parsed):
    return (superops.TERM_EXPANSION if parsed["path"] == "terms"
            else superops.MATRIX_RECURSION)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_terms(args):
    kind = terms.ADJOINT if args.kind == "adjoint" else terms.SCHRODINGER
    fmt = {"text": terms.OPERATOR_TEXT, "diagram": terms.DIAGRAM_ASCII,
           "latex": terms.LATEX}[args.format]
    try:
        poly = terms.generator_terms(args.order, kind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for term in poly:
        print(terms.render_term(term, fmt))
    return 0


def cmd_count(args):
    if args.max_order < 1:
        print("error: max order must be >= 1", file=sys.stderr)
        return 2
    print("order,recursive_v,recursive_pm,vankampen")
    for n in range(1, args.max_order + 1):
        vk = (str(terms.count_terms(n, terms.VANKAMPEN)) if n <= 4 else "")
        print(f"{n},{terms.count_terms(n, terms.RECURSIVE_V)},"
              f"{terms.count_terms(n, terms.RECURSIVE_PM)},{vk}")
    return 0


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _summary(out_dir, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(out_dir, "summary.json", text)
    print(text, end="")


def cmd_evaluate(args, parsed):
    model, grid, quad = _build_problem(parsed)
    table = superops.generator_table(model, quad, parsed["order"],
                                     path=_gen_path(parsed))
    buf = io.StringIO()
    buf.write("t,row,col,re,im\n")
    d2 = model.d_S ** 2
    for i, t in enumerate(grid.times):
        for r in range(d2):
            for c in range(d2):
                z = table[i, r, c]
                buf.write(f"{t:.12e},{r},{c},{z.real:.12e},{z.imag:.12e}\n")
    _write(args.out, "generator.csv", buf.getvalue())
    _summary(args.out, {
        "task": "evaluate",
        "order": parsed["order"],
        "adjoint": parsed["adjoint"],
        "grid": {"T": parsed["T"], "M": parsed["M"]},
        "final_frobenius": float(np.linalg.norm(table[-1])),
    })
    return 0


def cmd_propagate(args, parsed):
    model, grid, quad = _build_problem(parsed)
    if parsed["adjoint"]:
        if parsed["observable"] is None:
            raise ConfigError("adjoint propagation needs model.observable")
        traj = propagate.propagate_observable(model, parsed["observable"],
                                              grid, parsed["order"], quad=quad,
                                              path=_gen_path(parsed))
    else:
        if parsed["rho0"] is None:
            raise ConfigError("state propagation needs model.rho0")
        traj = propagate.propagate_state(model, parsed["rho0"], grid,
                                         parsed["order"], quad=quad,
                                         path=_gen_path(parsed))
    _write(args.out, "trajectory.csv", propagate.trajectory_to_csv(traj))
    _summary(args.out, {
        "task": "propagate",
        "adjoint": parsed["adjoint"],
        "order": parsed["order"],
        "final_trace_dev": float(traj.trace_dev[-1]),
        "max_trace_dev": float(traj.trace_dev.max()),
        "max_herm_residual": float(traj.herm_residual.max()),
        "min_eig": float(traj.min_eig.min()),
    })
    return 0


def cmd_oracle(args, parsed):
    model, grid, _ = _build_problem(parsed)
    if parsed["rho0"] is None:
        raise ConfigError("the oracle needs model.rho0")
    full = oracle.FullModel(model, parsed["rho0"])
    traj = oracle.exact_reduced_trajectory(full, grid)
    _write(args.out, "trajectory.csv", propagate.trajectory_to_csv(traj))
    _summary(args.out, {
        "task": "oracle",
        "composite_dim": full.d_S * full.d_E,
        "max_trace_dev": float(traj.trace_dev.max()),
        "max_herm_residual": float(traj.herm_residual.max()),
        "min_eig": float(traj.min_eig.min()),
    })
    return 0


def cmd_compare(args, parsed):
    model, grid, quad = _build_problem(parsed)
    if parsed["rho0"] is None:
        raise ConfigError("compare needs model.rho0")
    err, series = oracle.tcl_vs_exact_error(model, parsed["rho0"], grid,
                                            parsed["order"], quad=quad,
                                            return_series=True)
    buf = io.StringIO()
    buf.write("t,trace_distance\n")
    for t, val in zip(grid.times, series):
        buf.write(f"{t:.12e},{val:.12e}\n")
    _write(args.out, "distance.csv", buf.getvalue())
    scaling = None
    if parsed["couplings"]:
        scaling = oracle.scaling_probe(model, parsed["rho0"], grid,
                                       parsed["order"], parsed["couplings"])
    _summary(args.out, {
        "task": "compare",
        "order": parsed["order"],
        "max_error": err,
        "scaling": scaling,
    })
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tclgen",
        description="Recursive time-convolutionless master-equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terms", help="list the generator terms at one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("schrodinger", "adjoint"),
                   default="schrodinger")
    p.add_argument("--format", choices=("text", "diagram", "latex"),
                   default="text")

    p = sub.add_parser("count", help="term-count table per expansion order")
    p.add_argument("--max-order", type=int, default=4)

    for name, needs_help in (("evaluate", "generator matrices on the grid"),
                             ("propagate", "integrate state or observable"),
                             ("oracle", "exact reduced trajectory"),
                             ("compare", "truncated dynamics vs exact")):
        p = sub.add_parser(name, help=needs_help)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "terms":
        return cmd_terms(args)
    if args.command == "count":
        return cmd_count(args)
    handler = {"evaluate": cmd_evaluate, "propagate": cmd_propagate,
               "oracle": cmd_oracle, "compare": cmd_compare}[args.command]
    try:
        parsed = load_config(args.config)
        return handler(args, parsed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
