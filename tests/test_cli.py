import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tclgen
from tclgen.cli import main
from tclgen.terms import generator_terms, parse_term


def cplx(mat):
    """Matrix of [re, im] pairs from a complex array, row-major."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


SZ = np.diag([1.0, -1.0])
PLUS_STATE = np.array([[0.5, 0.5], [0.5, 0.5]])


def dephasing_config(**overrides):
    cfg = {
        "model": {
            "d_S": 2,
            "H_S": cplx(0.7 * SZ),
            "A": cplx(SZ),
            "g": 0.05,
            "rho0": cplx(PLUS_STATE),
        },
        "bath": {"type": "dephasing-qubit", "omega": 1.0, "n_max": 6},
        "grid": {"T": 5.0, "M": 400},
        "order": 2,
    }
    cfg.update(overrides)
    return cfg


def two_point_rows(taus, columns=("tau", "s", "re", "im")):
    """CSV lines sampling C(tau, s) = exp(-i(tau - s)) on taus x taus."""
    rows = [",".join(columns)]
    for a in taus:
        for b in taus:
            c = np.exp(-1j * (a - b))
            cell = {"tau": a, "s": b, "re": c.real, "im": c.imag}
            rows.append(",".join(str(cell[k]) for k in columns))
    return rows


def csv_bath_config(csv_path, T, M=60):
    cfg = dephasing_config()
    cfg["bath"] = {"type": "gaussian", "two_point_csv": str(csv_path)}
    cfg["grid"] = {"T": T, "M": M}
    return cfg


@pytest.fixture
def config_path(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


class TestTermsCommand:
    def test_order_two_lines(self, capsys):
        assert main(["terms", "--order", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert sorted(lines) == sorted([
            "+1 * A-_t A-_tau1 D++_{t,tau1}",
            "-1 * A-_t A-_tau1 D+_{t} D+_{tau1}",
            "+1 * A-_t A+_tau1 D+-_{t,tau1}",
        ])

    def test_order_three_diagrams(self, capsys):
        assert main(["terms", "--order", "3", "--format", "diagram"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9
        assert ".*-*-*" in lines and ".* * *" in lines

    def test_order_one(self, capsys):
        assert main(["terms", "--order", "1"]) == 0
        assert capsys.readouterr().out.strip() == "+1 * A-_t D+_{t}"

    def test_invalid_order_exits_2(self, capsys):
        assert main(["terms", "--order", "0"]) == 2

    def test_output_reparses_to_the_polynomial(self, capsys):
        main(["terms", "--order", "3"])
        lines = capsys.readouterr().out.strip().split("\n")
        parsed = [parse_term(line) for line in lines]
        want = {t.key(): t.coeff for t in generator_terms(3)}
        assert {t.key(): t.coeff for t in parsed} == want


class TestCountCommand:
    def test_table(self, capsys):
        assert main(["count", "--max-order", "5"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "order,recursive_v,recursive_pm,vankampen"
        assert out[1] == "1,1,1,1"
        assert out[3] == "3,4,9,6"
        assert out[4] == "4,8,27,20"
        assert out[5] == "5,16,81,"  # blank beyond the tabulated orders


class TestNumericCommands:
    def test_compare_dephasing_budget(self, config_path, tmp_path, capsys):
        path = config_path(dephasing_config())
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", path, "--out", out]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["task"] == "compare"
        assert summary["max_error"] <= 1e-3
        lines = (tmp_path / "cmp" / "distance.csv").read_text().split("\n")
        assert lines[0] == "t,trace_distance"

    def test_compare_zero_coupling(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["model"]["g"] = 0.0
        cfg["grid"] = {"T": 2.0, "M": 100}
        path = config_path(cfg)
        out = str(tmp_path / "cmp0")
        assert main(["compare", "--config", path, "--out", out]) == 0
        summary = json.loads((tmp_path / "cmp0" / "summary.json").read_text())
        assert summary["max_error"] <= 1e-12

    def test_compare_with_scaling_probe(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"] = {"T": 2.0, "M": 100}
        cfg["couplings"] = [0.1, 0.05]
        path = config_path(cfg)
        out = str(tmp_path / "scal")
        assert main(["compare", "--config", path, "--out", out]) == 0
        summary = json.loads((tmp_path / "scal" / "summary.json").read_text())
        rows = summary["scaling"]
        assert [r["g"] for r in rows] == [0.1, 0.05]
        assert rows[0]["ratio"] is not None

    def test_propagate_and_oracle_trajectories(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"] = {"T": 2.0, "M": 100}
        path = config_path(cfg)
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "p")]) == 0
        assert main(["oracle", "--config", path,
                     "--out", str(tmp_path / "o")]) == 0
        for sub in ("p", "o"):
            text = (tmp_path / sub / "trajectory.csv").read_text()
            assert text.startswith("t,re_0_0,im_0_0,")
            assert len(text.strip().split("\n")) == 102

    def test_adjoint_propagation_reproduces_state_expectations(
            self, config_path, tmp_path):
        sx = np.array([[0, 1], [1, 0]])

        def column(sub, name):
            lines = (tmp_path / sub / "trajectory.csv").read_text().strip().split("\n")
            head = lines[0].split(",")
            k = head.index(name)
            return np.array([float(l.split(",")[k]) for l in lines[1:]])

        # a stationary bath state, and a drifting one that does not commute
        # with H_E
        for tag, rho_e in (("eq", np.diag([0.3, 0.7])),
                           ("drift", np.array([[0.3, 0.2], [0.2, 0.7]]))):
            cfg = dephasing_config()
            cfg["model"]["g"] = 0.05
            cfg["model"]["observable"] = cplx(sx)
            cfg["bath"] = {"type": "exact",
                           "H_E": cplx(0.55 * SZ),
                           "phi": cplx(sx),
                           "rho_E": cplx(rho_e)}
            cfg["grid"] = {"T": 2.0, "M": 160}
            cfg["adjoint"] = True
            adj, st = f"{tag}-adj", f"{tag}-st"
            path = config_path(cfg, f"{adj}.json")
            assert main(["propagate", "--config", path,
                         "--out", str(tmp_path / adj)]) == 0
            cfg["adjoint"] = False
            path = config_path(cfg, f"{st}.json")
            assert main(["propagate", "--config", path,
                         "--out", str(tmp_path / st)]) == 0

            # Tr[O(t) rho0] vs Tr[sx rho(t)] with rho0 = |+><+|: both reduce
            # to the 01 real part times 2
            adj_expect = column(adj, "re_0_1") + 0.5 * (
                column(adj, "re_0_0") + column(adj, "re_1_1"))
            st_expect = 2.0 * column(st, "re_0_1")
            assert np.abs(adj_expect - st_expect).max() < 1e-5, tag

    def test_evaluate_writes_generator_entries(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"] = {"T": 1.0, "M": 20}
        path = config_path(cfg)
        out = str(tmp_path / "ev")
        assert main(["evaluate", "--config", path, "--out", out]) == 0
        lines = (tmp_path / "ev" / "generator.csv").read_text().strip().split("\n")
        assert lines[0] == "t,row,col,re,im"
        assert len(lines) == 1 + 21 * 16

    def test_evaluate_and_compare_rows_match_cell_by_cell_formatting(
            self, config_path, tmp_path, monkeypatch):
        # signed zeros, tiny and huge values keep their bytes in both files
        from tclgen import oracle, superops
        m1 = 9
        rng = np.random.default_rng(8)
        table = rng.normal(size=(m1, 4, 4)) + 1j * rng.normal(size=(m1, 4, 4))
        table[1, 0, 0] = complex(-0.0, 1e-300)
        table[2, 3, 1] = complex(1e300, -0.0)
        table[3, 2, 2] = complex(-1e300, -1e-300)
        series = rng.normal(size=m1)
        series[[1, 2, 3, 4]] = -0.0, 1e-300, 1e300, -1e300
        monkeypatch.setattr(superops, "generator_table",
                            lambda *args, **kwargs: table)
        monkeypatch.setattr(oracle, "tcl_vs_exact_error",
                            lambda *args, **kwargs: (1.0, series))
        path = config_path(dephasing_config(grid={"T": 2.0, "M": m1 - 1}))
        out = tmp_path / "x"
        for task in ("evaluate", "compare"):
            assert main([task, "--config", path, "--out", str(out)]) == 0
        times = np.linspace(0.0, 2.0, m1)
        want = ["t,row,col,re,im"]
        for i, t in enumerate(times):
            for r in range(4):
                for c in range(4):
                    z = table[i, r, c]
                    want.append(f"{t:.12e},{r},{c},{z.real:.12e},"
                                f"{z.imag:.12e}")
        assert (out / "generator.csv").read_text() == "\n".join(want) + "\n"
        want = ["t,trace_distance"] + [f"{t:.12e},{v:.12e}"
                                       for t, v in zip(times, series)]
        assert (out / "distance.csv").read_text() == "\n".join(want) + "\n"
        for name in ("generator.csv", "distance.csv"):
            text = (out / name).read_text()
            assert "-0.000000000000e+00" in text
            assert "1.000000000000e+300" in text

    def test_gaussian_bath_config(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["bath"] = {"type": "gaussian", "two_point": "single-mode-thermal",
                       "omega": 1.0, "beta": None}
        cfg["grid"] = {"T": 2.0, "M": 100}
        path = config_path(cfg)
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "g")]) == 0

    def test_two_point_csv_bath(self, config_path, tmp_path):
        csv_path = tmp_path / "two_point.csv"
        csv_path.write_text("\n".join(two_point_rows(np.linspace(0, 2.2, 45)))
                            + "\n")
        path = config_path(csv_bath_config(csv_path, 2.0))
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "csvbath")]) == 0

    def test_two_point_csv_column_order_and_blank_lines(self, config_path,
                                                         tmp_path):
        # permuted columns and trailing blank lines give the same bytes
        taus = np.linspace(0, 2.2, 12)
        variants = {
            "plain": "\n".join(two_point_rows(taus)) + "\n",
            "permuted": "\n".join(two_point_rows(taus, ("s", "im", "tau",
                                                         "re"))) + "\n",
            "blank_tail": "\n".join(two_point_rows(taus)) + "\n\n\n",
        }
        outs = []
        for name, text in variants.items():
            csv_path = tmp_path / f"{name}.csv"
            csv_path.write_text(text)
            path = config_path(csv_bath_config(csv_path, 2.0, M=30),
                               name=f"{name}.json")
            assert main(["propagate", "--config", path,
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "trajectory.csv").read_bytes()
                        + (tmp_path / name / "summary.json").read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @staticmethod
    def csv_run_imports(config_path, tmp_path, module):
        """Whether a fresh interpreter that runs ``propagate`` on a sampled
        Gaussian kernel has ``module`` in ``sys.modules`` afterwards."""
        csv_path = tmp_path / "two_point.csv"
        csv_path.write_text("\n".join(two_point_rows(np.linspace(0, 2.0, 9)))
                            + "\n")
        path = config_path(csv_bath_config(csv_path, 2.0, M=20))
        script = ("import sys\n"
                  "from tclgen.cli import main\n"
                  f"code = main(['propagate', '--config', {path!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}])\n"
                  f"print(code, {module!r} in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(tclgen.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        code, loaded = done.stdout.splitlines()[-1].split()
        assert code == "0"
        return loaded == "True"

    def test_csv_bath_runs_without_scipy(self, config_path, tmp_path):
        # scipy is a test dependency only; the sampled kernel must not pull
        # it back in
        assert not self.csv_run_imports(config_path, tmp_path, "scipy")

    def test_gaussian_bath_runs_without_numpy_random(self, config_path,
                                                     tmp_path):
        # numpy loads numpy.random lazily, and the Gaussian bath's spot
        # check uses fixed times, so no run of the Gaussian path imports it
        assert not self.csv_run_imports(config_path, tmp_path,
                                        "numpy.random")

    @pytest.mark.parametrize("order", [5, 6])
    @pytest.mark.parametrize("command", ["evaluate", "propagate", "compare"])
    def test_orders_above_four_on_an_exact_bath(self, config_path, tmp_path,
                                                command, order):
        # a shifted mode and a coupling that does not commute with H_S
        # populate every order
        cfg = dephasing_config(grid={"T": 2.0, "M": 24}, order=order)
        cfg["model"]["H_S"] = cplx([[0.5, 0.2], [0.2, -0.5]])
        cfg["model"]["A"] = cplx([[0.0, 1.0], [1.0, 0.0]])
        cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 4,
                       "shift": 0.7}
        path = config_path(cfg)
        outs = []
        for name in ("r1", "r2"):
            assert main([command, "--config", path,
                         "--out", str(tmp_path / name)]) == 0
            outs.append(sorted((f.name, f.read_bytes())
                               for f in (tmp_path / name).iterdir()))
        assert len(outs[0]) == 2 and outs[0] == outs[1]

    def test_byte_determinism(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"] = {"T": 1.0, "M": 50}
        path = config_path(cfg)
        outs = []
        for name in ("r1", "r2"):
            assert main(["propagate", "--config", path,
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "trajectory.csv").read_bytes()
                        + (tmp_path / name / "summary.json").read_bytes())
        assert outs[0] == outs[1]


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


def sample_runs():
    """(config, command) for every command each sample config supports.

    ``oracle`` needs a state and an exact bath; ``compare`` also needs a
    forward model.
    """
    for path in CONFIGS:
        cfg = json.loads(path.read_text())
        yield path, "evaluate"
        yield path, "propagate"
        if "rho0" in cfg["model"] and cfg["bath"]["type"] != "gaussian":
            yield path, "oracle"
            if not cfg.get("adjoint", False):
                yield path, "compare"


class TestSampleConfigs:
    def test_samples_include_a_gaussian_bath_at_order_four(self):
        # the Gaussian sample reaches four-slot clusters through the CLI
        cfgs = [json.loads(path.read_text()) for path in CONFIGS]
        assert any(cfg["bath"]["type"] == "gaussian" and cfg["order"] == 4
                   for cfg in cfgs)

    @pytest.mark.parametrize("path,command", list(sample_runs()),
                             ids=lambda v: getattr(v, "stem", v))
    def test_sample_runs_are_byte_identical(self, tmp_path, path, command):
        outs = []
        for name in ("r1", "r2"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / name)]) == 0
            outs.append(sorted((f.name, f.read_bytes())
                               for f in (tmp_path / name).iterdir()))
        assert len(outs[0]) == 2 and outs[0] == outs[1]

    def test_adjoint_summary_reports_unitality(self, tmp_path):
        # the adjoint equation preserves the identity, not Tr O: on the
        # drifting sample |Tr O(t) - Tr O0| reaches 0.1 while the identity
        # stays put to round-off
        path = CONFIGS[0].parent / "adjoint_drifting_bath.json"
        assert main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "adj")]) == 0
        summary = json.loads((tmp_path / "adj" / "summary.json").read_text())
        assert sorted(summary) == ["adjoint", "max_herm_residual",
                                   "max_unitality_dev", "order", "task"]
        assert summary["max_unitality_dev"] <= 1e-13
        header = (tmp_path / "adj" / "trajectory.csv").read_text().split(
            "\n", 1)[0].split(",")
        assert header[-3:] == ["trace_dev", "herm_residual", "min_eig"]

    def test_terms_path_is_reproducible_and_matches_matrix(self, config_path,
                                                           tmp_path):
        # the term expansion through the CLI, on the order-6 sample
        cfg = json.loads((CONFIGS[0].parent / "spinboson_tcl6.json"
                          ).read_text())
        tables = {}
        for path, runs in (("matrix", ("m",)), ("terms", ("t1", "t2"))):
            cfg["path"] = path
            src = config_path(cfg, f"{path}.json")
            for name in runs:
                assert main(["evaluate", "--config", src,
                             "--out", str(tmp_path / name)]) == 0
                tables[name] = (tmp_path / name / "generator.csv").read_bytes()
        assert tables["t1"] == tables["t2"]
        want, got = (np.loadtxt(tmp_path / name / "generator.csv",
                                delimiter=",", skiprows=1)[:, 3:]
                     for name in ("m", "t1"))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("gen_path", ["matrix", "terms"])
    def test_compare_applies_the_path(self, config_path, tmp_path,
                                      monkeypatch, gen_path):
        # the compared run and every coupling of its scaling probe assemble
        # the generator along the configured path, and along no other
        from tclgen import superops
        calls = set()
        order = superops.GeneratorEngine.generator_order

        def spy(self, n, kind=superops.SCHRODINGER,
                path=superops.MATRIX_RECURSION):
            calls.add((self.model.g, path))
            return order(self, n, kind, path)

        monkeypatch.setattr(superops.GeneratorEngine, "generator_order", spy)
        cfg = dephasing_config(grid={"T": 2.0, "M": 40}, order=3,
                               couplings=[0.2, 0.1], path=gen_path)
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "cmp")]) == 0
        want = (superops.TERM_EXPANSION if gen_path == "terms"
                else superops.MATRIX_RECURSION)
        assert calls == {(g, want) for g in (0.05, 0.2, 0.1)}


class TestErrorPaths:
    def test_unknown_key_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["surprise"] = 1
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_bath_key_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["bath"]["coupling_strength"] = 2.0
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_rho0_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        del cfg["model"]["rho0"]
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_nonhermitian_input_is_validation_failure(self, config_path,
                                                      tmp_path):
        cfg = dephasing_config()
        cfg["model"]["H_S"][0][1] = [3.0, 1.0]
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 3

    def test_bad_rho0_is_validation_failure(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["model"]["rho0"] = cplx(np.diag([2.0, -1.0]))
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 3

    def test_order_out_of_range_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["order"] = 0
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("order", 2.7), ("order", True), ("order", "2"),
        ("adjoint", "false"), ("adjoint", 0),
    ])
    def test_mistyped_top_level_value_is_config_error(self, config_path,
                                                      tmp_path, key, value):
        cfg = dephasing_config()
        cfg[key] = value
        cfg["model"]["observable"] = cplx(SZ)
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model", "g", "0.05"), ("model", "g", True), ("model", "g", None),
        pytest.param("model", "g", 10 ** 400, id="model-g-huge-int"),
        ("grid", "T", "1.0"), ("grid", "T", True),
        ("bath", "omega", "abc"), ("bath", "omega", True),
        ("bath", "shift", "0.5"), ("bath", "shift", False),
        ("bath", "beta", True), ("bath", "beta", "1.0"),
        (None, "couplings", ["0.05", 0.1]), (None, "couplings", [0.05, True]),
    ])
    def test_mistyped_real_value_is_config_error(self, config_path, tmp_path,
                                                 section, key, value):
        # strings and booleans used to pass through float(); true ran as 1
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 2,
                       "beta": 1.0, "shift": 0.5}
        (cfg if section is None else cfg[section])[key] = value
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_integer_real_values_and_null_beta_are_accepted(self, config_path,
                                                           tmp_path):
        cfg = dephasing_config(grid={"T": 1, "M": 20})
        cfg["model"]["g"] = 0
        cfg["bath"] = {"type": "boson-mode", "omega": 1, "n_max": 2,
                       "beta": None, "shift": 1}
        assert main(["evaluate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["grid"] == {"T": 1.0, "M": 20}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", [
        ("model", "g"), ("grid", "T"), ("bath", "omega"), ("bath", "shift"),
        (None, "couplings"),
    ], ids=["model.g", "grid.T", "bath.omega", "bath.shift", "couplings"])
    def test_non_finite_real_value_is_config_error(
            self, config_path, tmp_path, capsys, monkeypatch, section, key,
            value):
        # json reads NaN and Infinity; they used to run the whole task and
        # exit 3, or fail inside an eigensolver
        from tclgen.superops import GeneratorEngine

        def forbidden(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(GeneratorEngine, "__init__", forbidden)
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 2,
                       "beta": 1.0, "shift": 0.5}
        cfg["couplings"] = [0.05, 0.1]
        if section is None:
            cfg[key][1] = value
        else:
            cfg[section][key] = value
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{section + '.' if section else ''}{key} must be finite" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [math.nan, -math.inf],
                             ids=["nan", "-inf"])
    def test_beta_refuses_nan_and_negative_infinity(self, config_path,
                                                    tmp_path, capsys, value):
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 2,
                       "beta": value}
        assert main(["evaluate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert "bath.beta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_infinite_beta_is_the_vacuum(self, config_path, tmp_path):
        # like null: +Infinity is the zero-temperature limit
        outs = []
        for beta in (None, math.inf):
            cfg = dephasing_config(grid={"T": 1.0, "M": 20})
            cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 2,
                           "beta": beta, "shift": 0.5}
            out = tmp_path / f"x{len(outs)}"
            assert main(["evaluate", "--config", config_path(cfg),
                         "--out", str(out)]) == 0
            outs.append((out / "generator.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", ["H_S", "A"])
    @pytest.mark.parametrize("edit", [
        lambda m: m[0][0].__setitem__(0, "0.7"),
        lambda m: m[0][0].__setitem__(0, True),
        lambda m: m[1][1].__setitem__(1, None),
        lambda m: m[0][1].__setitem__(0, math.nan),
        lambda m: m[1][0].__setitem__(1, math.inf),
        lambda m: m[1][1].__setitem__(0, -math.inf),
        lambda m: m[1].pop(),
        lambda m: m[0][1].append(0.0),
        lambda m: m.pop(),
        lambda m: m.append(m[0]),
        lambda m: m.clear(),
        "[[0.7, 0], [0, 0]]",
        0.7,
    ], ids=["string-entry", "boolean-entry", "null-entry", "nan-entry",
            "inf-entry", "-inf-entry", "ragged-row", "triple-entry",
            "missing-row", "extra-row", "empty", "string-matrix",
            "scalar-matrix"])
    def test_malformed_matrix_is_config_error(self, config_path, tmp_path,
                                              capsys, monkeypatch, name,
                                              edit):
        # entries used to be cast: "0.7" and true ran, NaN ran the whole
        # task, and a ragged matrix exited 3 with numpy's message
        from tclgen.superops import GeneratorEngine

        def forbidden(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(GeneratorEngine, "__init__", forbidden)
        cfg = json.loads((CONFIGS[0].parent / "dephasing_qubit.json")
                         .read_text())
        cfg["grid"]["M"] = 20
        if callable(edit):
            edit(cfg["model"][name])
        else:
            cfg["model"][name] = edit
        assert main(["evaluate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"model.{name}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("t_max,T", [(1.5, 2.0), (3.06, 9.0)])
    def test_two_point_csv_must_cover_the_grid(self, config_path, tmp_path,
                                               t_max, T):
        # the sampled kernel would extrapolate beyond t_max without notice
        csv_path = tmp_path / "two_point.csv"
        csv_path.write_text("\n".join(two_point_rows(np.linspace(0, t_max,
                                                                 18))) + "\n")
        assert main(["propagate", "--config",
                     config_path(csv_bath_config(csv_path, T)),
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: rows[:1], "rows of four numbers"),
        (lambda rows: rows[:7] + ["0.5,0.5,x,0.0"] + rows[8:], "'x'"),
        (lambda rows: rows[:7] + ["0.5,0.5,1.0"] + rows[8:],
         "columns changed"),
        (lambda rows: rows + ["0.5,1.0,99.0,0.0"], "more than once"),
        (lambda rows: rows[:-1], "full tau x s grid"),
        (lambda rows: ["tau,s,re,im,tau"] + rows[1:], "columns tau,s,re,im"),
        (lambda rows: rows[:7] + ["0.5,0.5,nan,0.0"] + rows[8:], "finite"),
        (None, "cannot read"),
    ], ids=["header-only", "non-numeric", "short-row", "duplicate-pair",
            "missing-pair", "repeated-column", "nan-value", "missing-file"])
    def test_two_point_csv_malformed_is_config_error(
            self, config_path, tmp_path, capsys, edit, message):
        # a duplicated (tau, s) pair used to let its last row win silently
        csv_path = tmp_path / "two_point.csv"
        if edit is not None:
            rows = edit(two_point_rows(np.linspace(0, 2.0, 5)))
            csv_path.write_text("\n".join(rows) + "\n")
        assert main(["propagate", "--config",
                     config_path(csv_bath_config(csv_path, 2.0, M=20)),
                     "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value", [
        ("two_point", "nonsense"), ("omega", 1.0), ("beta", 1.0)])
    def test_two_point_csv_refuses_kernel_keys(self, config_path, tmp_path,
                                               capsys, key, value):
        # a sampled kernel has no built-in kernel, frequency or temperature;
        # these keys used to be ignored silently
        csv_path = tmp_path / "two_point.csv"
        csv_path.write_text("\n".join(two_point_rows(np.linspace(0, 2.0, 5)))
                            + "\n")
        cfg = csv_bath_config(csv_path, 2.0, M=20)
        cfg["bath"][key] = value
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"two_point_csv takes no {key}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["evaluate", "propagate", "compare"])
    def test_gaussian_bath_above_order_four_is_refused(
            self, config_path, tmp_path, capsys, command):
        cfg = dephasing_config(grid={"T": 2.0, "M": 20}, order=5)
        cfg["bath"] = {"type": "gaussian", "two_point": "single-mode-thermal",
                       "omega": 1.0, "beta": 1.0}
        assert main([command, "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:")
        assert "at most 4 slots" in lines[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_thermal_kernel_refuses_non_positive_beta(
            self, config_path, tmp_path, capsys, recwarn, beta):
        # at beta = 0 the occupation 1/expm1(0) diverges, and below it the
        # kernel has C(t, t) < 0
        cfg = dephasing_config(grid={"T": 2.0, "M": 20})
        cfg["bath"] = {"type": "gaussian", "two_point": "single-mode-thermal",
                       "omega": 1.0, "beta": beta}
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:")
        assert "beta * omega > 0" in lines[0]
        assert not recwarn.list
        assert not (tmp_path / "x").exists()

    def test_inverted_boson_mode_runs(self, config_path, tmp_path):
        # the plain Boltzmann weights overflow at beta omega = -1000
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["bath"] = {"type": "boson-mode", "omega": 1.0, "n_max": 2,
                       "beta": -1000}
        assert main(["evaluate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("command,g,couplings", [
        ("evaluate", 1e200, None), ("propagate", 1e200, None),
        ("compare", 1e200, None), ("compare", 0.05, [0.05, 1e200]),
    ], ids=["evaluate", "propagate", "compare", "compare-couplings"])
    def test_non_finite_run_is_refused(self, config_path, tmp_path, capsys,
                                       command, g, couplings):
        # g = 1e200 overflows the expansion; this used to exit 0 with NaN
        # rows in the CSV and bare NaN (not JSON) in summary.json
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["model"]["g"] = g
        if couplings is not None:
            cfg["couplings"] = couplings
        with np.errstate(all="ignore"):
            code = main([command, "--config", config_path(cfg),
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["propagate", "compare"])
    def test_overflow_is_refused_quietly(self, config_path, tmp_path,
                                         command):
        # numpy's overflow warnings would precede the refusal on stderr
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        cfg["model"]["g"] = 1e200
        env = dict(os.environ,
                   PYTHONPATH=str(Path(tclgen.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "tclgen.cli", command, "--config",
             config_path(cfg), "--out", str(tmp_path / "x")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:")
        assert "not finite" in lines[0]

    @pytest.mark.parametrize("couplings", [None, [0.05, 1e200]],
                             ids=["compare", "compare-couplings"])
    def test_overflow_skips_the_oracle(self, config_path, tmp_path,
                                       monkeypatch, couplings):
        from tclgen import oracle
        calls = []
        exact = oracle.exact_reduced_states

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(oracle, "exact_reduced_states", counted)
        cfg = dephasing_config(grid={"T": 1.0, "M": 20})
        if couplings is None:
            cfg["model"]["g"] = 1e200
        else:
            cfg["couplings"] = couplings
        assert main(["compare", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        # only the finite run at g = 0.05 reaches the oracle, once for the
        # comparison and once for the first coupling of the probe
        assert len(calls) == (0 if couplings is None else 2)

    def test_summary_refuses_non_finite_values(self, tmp_path):
        from tclgen.cli import _summary
        with pytest.raises(ValueError):
            _summary(str(tmp_path / "x"), {"min_eig": float("nan")})
        assert not (tmp_path / "x" / "summary.json").exists()

    def test_mistyped_grid_size_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"]["M"] = 40.5
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
