"""Command-line interface.

Subcommands: terms, count, evaluate, propagate, oracle, compare.  Numeric
tasks read a strict-schema UTF-8 JSON config (unknown and repeated keys
are rejected so experiment files stay self-documenting) and write CSV files
plus a JSON summary.  All floats are printed as %.12e and iteration orders
are fixed, so output is byte-reproducible for a given config.

Exit codes: 0 success, 2 config or usage error, 3 numerical validation
failure (for example a non-Hermitian input matrix).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from tclgen import baths, oracle, propagate, superops, terms


class ConfigError(Exception):
    """A refusal with exit code 2, printed on one line after ``label``."""

    label = "config error"


class OutputError(ConfigError):
    label = "error"


# ---------------------------------------------------------------------------
# strict config parsing
# ---------------------------------------------------------------------------

class _Section(dict):
    """A JSON object that remembers the keys its text repeats."""

    def __init__(self, pairs):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = sorted({key for key in keys if keys.count(key) > 1})


def _require_keys(section, mapping, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be an object")
    if getattr(mapping, "repeated", None):
        raise ConfigError(f"repeated keys in {section}: {mapping.repeated}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"missing keys in {section}: {sorted(missing)}")


def _integer(section, value, least=None):
    """An integer config value of at least ``least``; no float or bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{section} must be >= {least}")
    return value


def _number(section, value):
    """A finite real config value; no string, bool, null, NaN or Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{section} is too large for a float") from None
    if not np.isfinite(value):
        raise ConfigError(f"{section} must be finite, got {value!r}")
    return value


def _boolean(section, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{section} must be true or false, got {value!r}")
    return value


def _parse_matrix(section, raw, dim=None):
    """Row-major square matrix of [re, im] pairs of finite numbers."""
    if not (isinstance(raw, list) and raw and all(
            isinstance(row, list) and len(row) == len(raw)
            and all(isinstance(z, list) and len(z) == 2 for z in row)
            for row in raw)):
        raise ConfigError(f"{section} must be a square matrix of [re, im] pairs")
    arr = np.array([[[_number(section, x) for x in z] for z in row]
                    for row in raw])
    if dim is not None and arr.shape[0] != dim:
        raise ConfigError(f"{section} must have dimension {dim}")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_bath(cfg, T):
    _require_keys("bath", cfg, ("type",), (
        "H_E", "phi", "rho_E", "omega", "beta", "n_max", "shift",
        "two_point", "two_point_csv"))
    kind = cfg["type"]
    # a null or +Infinity beta is the vacuum
    beta = cfg.get("beta")
    if beta is not None and beta != np.inf:
        beta = _number("bath.beta", beta)
    if kind == "exact":
        _require_keys("bath(exact)", cfg, ("type", "H_E", "phi", "rho_E"))
        return baths.ExactBath(_parse_matrix("bath.H_E", cfg["H_E"]),
                               _parse_matrix("bath.phi", cfg["phi"]),
                               _parse_matrix("bath.rho_E", cfg["rho_E"]))
    if kind in ("boson-mode", "dephasing-qubit"):
        # a dephasing qubit is the canonical dephasing environment: a vacuum
        # single mode with a default omega and n_max
        _require_keys(f"bath({kind})", cfg, *(
            (("type", "omega", "n_max"), ("beta", "shift"))
            if kind == "boson-mode" else (("type",), ("omega", "n_max"))))
        return baths.boson_mode_bath(
            _number("bath.omega", cfg.get("omega", 1.0)),
            _integer("bath.n_max", cfg.get("n_max", 6), 0), beta=beta,
            shift=_number("bath.shift", cfg.get("shift", 0.0)))
    if kind == "gaussian":
        _require_keys("bath(gaussian)", cfg, ("type",),
                      ("two_point", "two_point_csv", "omega", "beta"))
        if "two_point_csv" in cfg:
            extra = [k for k in ("two_point", "omega", "beta") if k in cfg]
            if extra:
                raise ConfigError("gaussian bath with two_point_csv takes no "
                                  + ", ".join(extra))
            return baths.GaussianBath(
                _two_point_from_csv(cfg["two_point_csv"], T))
        if cfg.get("two_point") != "single-mode-thermal":
            raise ConfigError("gaussian bath needs two_point="
                              "'single-mode-thermal' or two_point_csv")
        if "omega" not in cfg:
            raise ConfigError("gaussian single-mode-thermal needs omega")
        return baths.GaussianBath(
            baths.thermal_mode_two_point(_number("bath.omega", cfg["omega"]),
                                         beta=beta))
    raise ConfigError(f"unknown bath type {kind!r}")


def _two_point_from_csv(path, T):
    """Sampled kernel from a tau,s,re,im CSV whose grids cover [0, T].

    The columns may come in any order.  Every (tau, s) pair of a full
    tau x s grid must appear exactly once.  The kernel would extrapolate
    outside its samples, so a grid that stops short of [0, T] (beyond a
    relative 1e-9 of T) is refused.
    """
    columns = ("tau", "s", "re", "im")
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            if sorted(header) != sorted(columns):
                raise ConfigError("two-point CSV needs columns tau,s,re,im")
            with warnings.catch_warnings():
                # a header-only file warns here and is refused below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  quotechar='"')
    except OSError as exc:
        raise ConfigError(f"cannot read two-point CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"two-point CSV: {exc}") from exc
    if not data.size or data.shape[1] != len(columns):
        raise ConfigError("two-point CSV needs rows of four numbers")
    if not np.isfinite(data).all():
        raise ConfigError("two-point CSV entries must be finite")
    tau, s, re, im = (data[:, header.index(name)] for name in columns)
    tau_grid, a = np.unique(tau, return_inverse=True)
    s_grid, b = np.unique(s, return_inverse=True)
    shape = (tau_grid.size, s_grid.size)
    count = np.bincount(a * shape[1] + b, minlength=shape[0] * shape[1])
    count = count.reshape(shape)
    if count.max() > 1:
        i, j = np.argwhere(count > 1)[0]
        raise ConfigError(f"two-point CSV lists the pair tau="
                          f"{float(tau_grid[i])}, s={float(s_grid[j])} "
                          "more than once")
    if count.min() < 1:
        raise ConfigError("two-point CSV must sample a full tau x s grid")
    table = np.empty(shape, dtype=complex)
    table[a, b] = re + 1j * im
    slack = 1e-9 * T
    for name, grid in (("tau", tau_grid), ("s", s_grid)):
        if grid[0] > slack or grid[-1] < T - slack:
            raise ConfigError(f"two-point CSV samples of {name} must cover "
                              f"the time grid [0, {T}]")
    return baths.two_point_from_samples(tau_grid, s_grid, table)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_Section)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    _require_keys("config", cfg, ("model", "bath", "grid", "order"),
                  ("adjoint", "path", "couplings"))
    mcfg = cfg["model"]
    _require_keys("model", mcfg, ("d_S", "H_S", "A", "g"),
                  ("rho0", "observable"))
    d_s = _integer("model.d_S", mcfg["d_S"])
    gcfg = cfg["grid"]
    _require_keys("grid", gcfg, ("T", "M"))
    order = _integer("order", cfg["order"], 1)
    parsed = {
        "H_S": _parse_matrix("model.H_S", mcfg["H_S"], d_s),
        "A": _parse_matrix("model.A", mcfg["A"], d_s),
        "g": _number("model.g", mcfg["g"]),
        "rho0": (_parse_matrix("model.rho0", mcfg["rho0"], d_s)
                 if "rho0" in mcfg else None),
        "observable": (_parse_matrix("model.observable",
                                     mcfg["observable"], d_s)
                       if "observable" in mcfg else None),
        "bath_cfg": cfg["bath"],
        "T": _number("grid.T", gcfg["T"]),
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
        parsed["couplings"] = [_number("couplings", g)
                               for g in parsed["couplings"]]
    return parsed


def _build_problem(parsed):
    """Construct model/grid/quad; raises ValueError on numeric violations."""
    bath = _parse_bath(parsed["bath_cfg"], parsed["T"])
    model = superops.ModelSpec(parsed["H_S"], parsed["A"], parsed["g"], bath)
    grid = superops.Grid(parsed["T"], parsed["M"])
    quad = superops.QuadratureConfig(grid, max_order=parsed["order"])
    return model, grid, quad


def _given(parsed, name, task):
    """The config's ``model.<name>``, which ``task`` cannot run without."""
    if parsed[name] is None:
        raise ConfigError(f"{task} needs model.{name}")
    return parsed[name]


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
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write --out {out_dir!r}: {exc}") from exc


# the refusal of a run whose results are not finite, before any file is
# written
OVERFLOWED = ("the {} is not finite: the run overflowed at this coupling "
              "and grid")


def _summary(out_dir, payload):
    text = json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    _write(out_dir, "summary.json", text)
    print(text, end="")


def cmd_evaluate(args, parsed):
    model, grid, quad = _build_problem(parsed)
    kind = terms.ADJOINT if parsed["adjoint"] else terms.SCHRODINGER
    table = superops.generator_table(model, quad, parsed["order"],
                                     _gen_path(parsed), kind)
    propagate.require_finite(OVERFLOWED.format("generator table"), table)
    # one line per matrix entry, grid time outermost, then row, then column
    cells = table[0].size
    row, col = np.divmod(np.tile(np.arange(cells), len(table)),
                         table.shape[2])
    flat = table.reshape(-1)
    entries = np.column_stack([np.repeat(grid.times, cells), row, col,
                               flat.real, flat.imag])
    _write(args.out, "generator.csv", "t,row,col,re,im\n"
           + propagate.format_rows(entries, ["%.12e", "%d", "%d", "%.12e",
                                             "%.12e"]))
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
        run, start = propagate.propagate_observable, _given(
            parsed, "observable", "adjoint propagation")
    else:
        run, start = propagate.propagate_state, _given(
            parsed, "rho0", "state propagation")
    traj = run(model, start, grid, parsed["order"], quad=quad,
               path=_gen_path(parsed))
    propagate.require_finite(OVERFLOWED.format("trajectory"), traj.payload,
                             traj.trace_dev, traj.herm_residual,
                             traj.min_eig, traj.unitality_dev)
    _write(args.out, "trajectory.csv", propagate.trajectory_to_csv(traj))
    summary = {
        "task": "propagate",
        "adjoint": parsed["adjoint"],
        "order": parsed["order"],
        "max_herm_residual": float(traj.herm_residual.max()),
    }
    if parsed["adjoint"]:
        # the adjoint equation preserves the identity, not Tr O or PSD
        summary["max_unitality_dev"] = float(traj.unitality_dev.max())
    else:
        summary.update({
            "final_trace_dev": float(traj.trace_dev[-1]),
            "max_trace_dev": float(traj.trace_dev.max()),
            "min_eig": float(traj.min_eig.min()),
        })
    _summary(args.out, summary)
    return 0


def cmd_oracle(args, parsed):
    model, grid, _ = _build_problem(parsed)
    full = oracle.FullModel(model, _given(parsed, "rho0", "the oracle"))
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
    problem = model, _given(parsed, "rho0", "compare"), grid, parsed["order"]
    err, series = oracle.tcl_vs_exact_error(*problem, quad, _gen_path(parsed))
    scaling = None
    if parsed["couplings"]:
        # before any write: a coupling may overflow and be refused
        scaling = oracle.scaling_probe(*problem, parsed["couplings"],
                                       _gen_path(parsed))
    _write(args.out, "distance.csv", "t,trace_distance\n"
           + propagate.format_rows(np.column_stack([grid.times, series]),
                                   ["%.12e"] * 2))
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
        if not args.out or (os.path.exists(args.out)
                            and not os.path.isdir(args.out)):
            raise OutputError(f"--out {args.out!r} is not a directory")
        parsed = load_config(args.config)
        # an overflowing run is refused with exit 3 below, so numpy's
        # overflow warnings on the way there would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            return handler(args, parsed)
    except ConfigError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
