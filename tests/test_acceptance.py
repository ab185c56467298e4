"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime.
"""

import numpy as np
import pytest

from tclgen.baths import boson_mode_bath, qubit_bath, thermal_mode_two_point, wick_sum
from tclgen.cli import main as cli_main
from tclgen.oracle import duality_check, scaling_probe
from tclgen.propagate import propagate_observable, propagate_state
from tclgen.superops import (
    MATRIX_RECURSION,
    TERM_EXPANSION,
    Grid,
    ModelSpec,
    QuadratureConfig,
    apply_superop,
    engine_for,
    evaluate_vk_generator,
)
from tclgen.terms import (
    OPERATOR_TEXT,
    diagram_generator_terms,
    generator_terms,
    render_term,
)

rng = np.random.default_rng(2026)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def report(num, text):
    print(f"[PASS] criterion {num:2d}: {text}")


def rand_herm(d, scale=1.0):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (x + x.conj().T)


def rand_state(d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def rand_qubit_model(g=0.4, shift=None):
    if shift is None:
        shift = float(rng.uniform(0.2, 0.8))
    bath = qubit_bath(float(rng.uniform(0.6, 1.6)),
                      beta=float(rng.uniform(0.5, 1.5)), shift=shift)
    return ModelSpec(rand_herm(2), rand_herm(2), g, bath)


def trace_norm(x):
    return float(np.abs(np.linalg.svd(x, compute_uv=False)).sum())


def test_criterion_1_term_count_table(capsys):
    assert cli_main(["count", "--max-order", "4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    with capsys.disabled():
        rows = [line.split(",") for line in out[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 4, 8]
        assert [int(r[3]) for r in rows] == [1, 2, 6, 20]
        report(1, "count table: recursive_V = 1,2,4,8 and "
                  "van Kampen = 1,2,6,20 for orders 1..4")


GOLDEN_L1 = {"+1 * A-_t D+_{t}"}

GOLDEN_L2 = {
    "+1 * A-_t A+_tau1 D+-_{t,tau1}",
    "+1 * A-_t A-_tau1 D++_{t,tau1}",
    "-1 * A-_t A-_tau1 D+_{t} D+_{tau1}",
}

GOLDEN_L3 = {
    "+1 * A-_t A-_tau1 A-_tau2 D+++_{t,tau1,tau2}",
    "-1 * A-_t A-_tau1 A-_tau2 D+_{t} D++_{tau1,tau2}",
    "-1 * A-_t A-_tau1 A-_tau2 D++_{t,tau1} D+_{tau2}",
    "+1 * A-_t A-_tau1 A-_tau2 D+_{t} D+_{tau1} D+_{tau2}",
    "+1 * A-_t A-_tau1 A+_tau2 D++-_{t,tau1,tau2}",
    "-1 * A-_t A-_tau1 A+_tau2 D+_{t} D+-_{tau1,tau2}",
    "+1 * A-_t A+_tau1 A-_tau2 D+-+_{t,tau1,tau2}",
    "-1 * A-_t A+_tau1 A-_tau2 D+-_{t,tau1} D+_{tau2}",
    "+1 * A-_t A+_tau1 A+_tau2 D+--_{t,tau1,tau2}",
}


def test_criterion_2_golden_symbolic_output():
    rendered = {n: {render_term(t, OPERATOR_TEXT) for t in generator_terms(n)}
                for n in (1, 2, 3)}
    assert rendered[1] == GOLDEN_L1
    assert rendered[2] == GOLDEN_L2
    assert sorted(s[:2] for s in rendered[2]) == ["+1", "+1", "-1"]
    assert rendered[3] == GOLDEN_L3
    for term in generator_terms(3):
        assert term.coeff == (-1) ** (len(term.clusters) - 1)
    report(2, "golden symbolic output at orders 1..3 (1, 3 and 9 terms, "
              "canonical strings, coefficients (-1)^(q-1))")


def test_criterion_3_recursion_diagrammatics_equivalence():
    for n in range(1, 7):
        assert diagram_generator_terms(n) == generator_terms(n)
    report(3, "diagram procedure == recursion as term polynomials, n = 1..6")


def test_criterion_4_trace_preservation():
    grid = Grid(1.0, 40)
    quad = QuadratureConfig(grid, max_order=3)
    worst = 0.0
    for _ in range(20):
        model = rand_qubit_model(g=float(rng.uniform(0.2, 0.6)))
        eng = engine_for(model, quad)
        rho = rand_state(2)
        for n in (1, 2, 3):
            for i in range(4, 41, 4):
                out = apply_superop(eng.generator_order(n)[i], rho)
                scale = max(trace_norm(out), 1e-30)
                worst = max(worst, abs(np.trace(out)) / scale)
    assert worst <= 1e-8
    report(4, f"trace preservation over 20 random qubit models, n <= 3, "
              f"10 grid times (worst relative residual {worst:.2e})")


def test_criterion_5_hermiticity():
    grid = Grid(1.0, 40)
    quad = QuadratureConfig(grid, max_order=3)
    worst = 0.0
    for _ in range(8):
        model = rand_qubit_model()
        eng = engine_for(model, quad)
        rho = rand_herm(2)
        for n in (1, 2, 3):
            out = (-1j) ** n * apply_superop(eng.generator_order(n)[40], rho)
            resid = np.abs(out - out.conj().T).max()
            worst = max(worst, resid / max(1.0, np.abs(out).max()))
    assert worst <= 1e-9
    report(5, f"(-i)^n L_n preserves hermiticity, residual {worst:.2e}")


def test_criterion_6_path_equivalence():
    grid = Grid(1.5, 200)
    worst = 0.0
    for _ in range(5):
        model = rand_qubit_model(g=float(rng.uniform(0.2, 0.5)))
        quad = QuadratureConfig(grid, max_order=3)
        for i in (67, 133, 200):
            a = engine_for(model, quad).generator(3, path=TERM_EXPANSION)[i]
            b = engine_for(model, quad).generator(3, path=MATRIX_RECURSION)[i]
            scale = max(np.abs(a).max(), 1e-30)
            worst = max(worst, np.abs(a - b).max() / scale)
    assert worst <= 1e-9
    report(6, f"TERM_EXPANSION vs MATRIX_RECURSION at N = 3, M = 200, "
              f"5 random models (worst relative {worst:.2e})")


def test_criterion_7_oracle_convergence():
    # spin-boson qubit + one truncated mode; the coupling operator carries a
    # scalar shift so the first neglected order (n = 3) is populated
    bath = boson_mode_bath(1.0, 6, shift=0.7)
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.1, bath)
    rho0 = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]], dtype=complex)
    rows = scaling_probe(model, rho0, Grid(6.0, 300), 2, [0.1, 0.05])
    ratio = rows[0]["ratio"]
    assert ratio == pytest.approx(3.0, abs=0.6)
    report(7, f"spin-boson TCL2 truncation order: log2 error ratio "
              f"{ratio:.3f} = 3 +- 0.6 for g in {{0.1, 0.05}}")


def test_criterion_8_pure_dephasing():
    g, omega, T = 0.15, 1.0, 5.0
    model = ModelSpec(0.7 * SZ, SZ, g, boson_mode_bath(omega, 6))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    grid = Grid(T, 400)
    from tclgen.oracle import FullModel, exact_reduced_trajectory
    tcl = propagate_state(model, rho0, grid, 2)
    exact = exact_reduced_trajectory(FullModel(model, rho0), grid)
    gap = np.abs(tcl.payload[:, 0, 1] - exact.payload[:, 0, 1]).max()
    assert gap <= 5e-4
    report(8, f"pure dephasing TCL2 coherence vs exact oracle over T = 5: "
              f"max |gap| = {gap:.2e} <= 5e-4")


def test_criterion_9_van_kampen_numerical_equality():
    model = rand_qubit_model(g=0.35)
    quad = QuadratureConfig(Grid(1.2, 120), max_order=3)
    i = 120
    vk = evaluate_vk_generator(3, i, model, quad)
    rec = engine_for(model, quad).generator_order(3)[i]
    scale = max(np.abs(rec).max(), 1e-30)
    gap = np.abs(vk - rec).max() / scale
    assert gap <= 1e-8
    report(9, f"six tabulated van Kampen terms == recursive L_3 "
              f"(relative gap {gap:.2e})")


def test_criterion_10_adjoint_duality():
    bath = qubit_bath(1.1, beta=1.0, shift=0.4)
    model = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.2, bath)
    quad = QuadratureConfig(Grid(2.0, 150), max_order=2)
    res = duality_check(model, rand_herm(2), rand_state(2), quad,
                        orders=(1, 2))
    assert max(res.values()) <= 1e-8

    bath2 = qubit_bath(1.1, beta=1.0)
    model2 = ModelSpec(0.5 * SZ + 0.2 * SX, SX, 0.02, bath2)
    grid = Grid(3.0, 300)
    rho0, o0 = rand_state(2), SX
    otraj = propagate_observable(model2, o0, grid, 2)
    straj = propagate_state(model2, rho0, grid, 2)
    lhs = np.einsum("tij,ji->t", otraj.payload, rho0)
    rhs = np.einsum("ij,tji->t", o0, straj.payload)
    gap = np.abs(lhs - rhs).max()
    assert gap <= 1e-5
    report(10, f"adjoint duality: momentum residuals "
               f"{max(res.values()):.2e} <= 1e-8; observable vs state "
               f"expectations differ by {gap:.2e} <= 1e-5 at N = 2")


def test_criterion_11_gaussian_backend():
    beta, omega = 2.0, 1.0
    bath = boson_mode_bath(omega, 24, beta=beta)
    c = thermal_mode_two_point(omega, beta=beta)
    worst = 0.0
    for npts in (4, 6):
        times = tuple(np.sort(rng.uniform(0, 3, npts))[::-1])
        mat = bath.rho_E.copy()
        for t in reversed(times):
            mat = bath.phi_at(t) @ mat
        exact = np.trace(mat)
        pairing_sum = wick_sum(npts, lambda a, b: c(times[a], times[b]))
        worst = max(worst, abs(pairing_sum - exact))
    assert worst <= 1e-10
    report(11, f"Isserlis 4- and 6-point values match exact thermal-mode "
               f"traces (worst gap {worst:.2e})")
