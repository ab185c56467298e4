import json

import numpy as np
import pytest

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
        cfg = dephasing_config()
        cfg["model"]["g"] = 0.05
        cfg["model"]["observable"] = cplx(sx)
        cfg["bath"] = {"type": "exact",
                       "H_E": cplx(0.55 * SZ),
                       "phi": cplx(sx),
                       "rho_E": cplx(np.diag([0.3, 0.7]))}
        cfg["grid"] = {"T": 2.0, "M": 160}
        cfg["adjoint"] = True
        path = config_path(cfg)
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "adj")]) == 0
        cfg2 = json.loads(json.dumps(cfg))
        cfg2["adjoint"] = False
        path2 = config_path(cfg2, "state.json")
        assert main(["propagate", "--config", path2,
                     "--out", str(tmp_path / "st")]) == 0

        def column(sub, name):
            lines = (tmp_path / sub / "trajectory.csv").read_text().strip().split("\n")
            head = lines[0].split(",")
            k = head.index(name)
            return np.array([float(l.split(",")[k]) for l in lines[1:]])

        # Tr[O(t) rho0] vs Tr[sx rho(t)] with rho0 = |+><+|: both reduce to
        # the 01 real part times 2
        adj_expect = column("adj", "re_0_1") + 0.5 * (
            column("adj", "re_0_0") + column("adj", "re_1_1"))
        st_expect = 2.0 * column("st", "re_0_1")
        assert np.abs(adj_expect - st_expect).max() < 1e-5

    def test_evaluate_writes_generator_entries(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"] = {"T": 1.0, "M": 20}
        path = config_path(cfg)
        out = str(tmp_path / "ev")
        assert main(["evaluate", "--config", path, "--out", out]) == 0
        lines = (tmp_path / "ev" / "generator.csv").read_text().strip().split("\n")
        assert lines[0] == "t,row,col,re,im"
        assert len(lines) == 1 + 21 * 16

    def test_gaussian_bath_config(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["bath"] = {"type": "gaussian", "two_point": "single-mode-thermal",
                       "omega": 1.0, "beta": None}
        cfg["grid"] = {"T": 2.0, "M": 100}
        path = config_path(cfg)
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "g")]) == 0

    def test_two_point_csv_bath(self, config_path, tmp_path):
        taus = np.linspace(0, 2.2, 45)
        rows = ["tau,s,re,im"]
        for a in taus:
            for b in taus:
                c = np.exp(-1j * (a - b))
                rows.append(f"{a},{b},{c.real},{c.imag}")
        csv_path = tmp_path / "two_point.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = dephasing_config()
        cfg["bath"] = {"type": "gaussian", "two_point_csv": str(csv_path)}
        cfg["grid"] = {"T": 2.0, "M": 60}
        path = config_path(cfg)
        assert main(["propagate", "--config", path,
                     "--out", str(tmp_path / "csvbath")]) == 0

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
        cfg["order"] = 7
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

    def test_mistyped_grid_size_is_config_error(self, config_path, tmp_path):
        cfg = dephasing_config()
        cfg["grid"]["M"] = 40.5
        assert main(["propagate", "--config", config_path(cfg),
                     "--out", str(tmp_path / "x")]) == 2
