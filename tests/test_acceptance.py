"""Acceptance suite: twelve end-to-end criteria, one printed verdict each.

Each test prints a single live "criterion NN ...: PASS/FAIL" line (bypassing
capture) and then asserts, so a plain pytest run shows the scorecard.
"""

import json
import os

import numpy as np
import pytest

from vortexlab.bb_lab import (
    RandomFieldSpec,
    bb_ratio_2d,
    bb_ratio_3d,
    gn_ratio,
    random_family,
    refinement_study,
)
from vortexlab.biot_savart import (
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from vortexlab.cli import main as cli_main
from vortexlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    curl2d,
    curl3d,
    divergence,
    lp_norm,
    w11_norm,
)
from vortexlab.maxwell_wave import (
    CurrentDensity,
    StrichartzExponents,
    solve_wave,
    strichartz_admissible,
    strichartz_ratio_experiment,
    wave_energy,
)
from vortexlab.mild_solver import (
    MildSolveConfig,
    continuous_dependence_experiment,
    first_contraction_ratio,
    picard_solve,
    reference_stepper,
)
from vortexlab.oseen import (
    GRAD_L1_PREFACTOR,
    VMAX_PREFACTOR,
    oseen_dipole,
    sharpness_scaling_experiment,
)
from vortexlab.random_data import (
    smooth_bump,
    two_mode_vorticity,
    wave_fixture_family,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def verdict(capsys):
    def _verdict(num, name, ok, detail=""):
        line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _verdict


def test_criterion_01_vortex_sharpness(verdict):
    # slopes -1/2 over two decades of t; closed-form prefactors at n = 256
    g = Grid(2, 256, 2.0)
    L = g.box_length
    ts = np.geomspace(L**2 / 110000.0, L**2 / 1100.0, 9)
    rep = sharpness_scaling_experiment(g, ts, alpha0=1.0)
    ok = (
        abs(rep["slope_Linf_v"] + 0.5) <= 0.03
        and abs(rep["slope_W11"] + 0.5) <= 0.03
        and abs(rep["prefactor_grad_L1"] - GRAD_L1_PREFACTOR)
        <= 5e-3 * GRAD_L1_PREFACTOR
        and abs(rep["prefactor_Linf_v"] - VMAX_PREFACTOR)
        <= 5e-3 * VMAX_PREFACTOR
    )
    verdict(
        1,
        "self-similar vortex sharpness",
        ok,
        f"slopes {rep['slope_Linf_v']:.4f}/{rep['slope_W11']:.4f}",
    )


def test_criterion_02_uniform_velocity_bound(verdict):
    # a fixed dipole datum: sup-in-time velocity stays within a 10% band
    # over [t0/100, t0], in contrast to the t^{-1/2} blow-up of criterion 1
    g = Grid(2, 128, 4.0)
    w0 = oseen_dipole(1.0, 1.0, g, 0.01)
    t0 = 0.0015
    traj = reference_stepper(w0, t0, 101)
    vmaxes = [
        lp_norm(velocity_from_vorticity_2d(w), np.inf)
        for t, w in traj
        if t >= t0 / 100.0 - 1e-15
    ]
    spread = (max(vmaxes) - min(vmaxes)) / max(vmaxes)
    verdict(2, "uniform velocity bound", spread < 0.10, f"spread {spread:.3%}")


def test_criterion_03_picard_oracle_equivalence(verdict):
    cases = {
        "two-mode": (two_mode_vorticity(Grid(2, 128, TWO_PI), 0.05), 0.2),
        "dipole": (oseen_dipole(1.0, 0.6, Grid(2, 128, 2.5), 0.002), 0.016),
    }
    rels = {}
    for label, (w0, t0) in cases.items():
        cfg = MildSolveConfig(
            grid=w0.grid, t0=t0, nt=32, tol=1e-10
        )
        traj, trace = picard_solve(w0, cfg)
        assert trace.converged
        ref = reference_stepper(w0, t0, cfg.nt)
        rels[label] = max(
            w11_norm(a - b) for a, b in zip(traj.snapshots, ref.snapshots)
        ) / max(w11_norm(s) for s in ref.snapshots)
    ok = all(r < 5e-3 for r in rels.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in rels.items())
    verdict(3, "fixed-point vs stepper equivalence", ok, detail)


def test_criterion_04_contraction_scaling(verdict):
    # successive-difference ratio < 1, shrinking by ~ 1/sqrt(2) per halving
    g = Grid(2, 64, TWO_PI)
    w0 = oseen_dipole(1.0, g.box_length / 4.0, g, 0.005)
    t0s = [0.016, 0.008, 0.004, 0.002]
    ratios = [
        first_contraction_ratio(
            w0, MildSolveConfig(grid=g, t0=t0, nt=8)
        )
        for t0 in t0s
    ]
    factors = [b / a for a, b in zip(ratios, ratios[1:])]
    target = 1.0 / np.sqrt(2.0)
    ok = (
        all(r < 1.0 for r in ratios)
        and all(b < a for a, b in zip(ratios, ratios[1:]))
        and all(abs(f - target) <= 0.2 * target for f in factors)
    )
    verdict(
        4,
        "contraction ratio halving",
        ok,
        "factors " + ", ".join(f"{f:.3f}" for f in factors),
    )


def test_criterion_05_continuous_dependence(verdict):
    g = Grid(2, 64, TWO_PI)
    w0 = two_mode_vorticity(g, 0.05)
    cfg = MildSolveConfig(grid=g, t0=0.1, nt=8, tol=1e-11)
    bump = smooth_bump(g)
    perts = [bump * eps for eps in (1e-2, 1e-3, 1e-4)]
    rep = continuous_dependence_experiment(w0, perts, cfg)
    ok = abs(rep["slope"] - 1.0) <= 0.1
    verdict(5, "continuous dependence slope", ok, f"slope {rep['slope']:.4f}")


def test_criterion_06_biot_savart_exactness(verdict):
    spec2d = RandomFieldSpec(
        seed=101, beta=2.0, dim=2, n=64, box_length=TWO_PI, count=50
    )
    worst = 0.0
    for w in random_family(spec2d):
        v = velocity_from_vorticity_2d(w)
        worst = max(worst, lp_norm(curl2d(v) - w, 2) / lp_norm(w, 2))
    spec3d = RandomFieldSpec(
        seed=202, beta=2.0, dim=3, n=16, box_length=TWO_PI, count=50
    )
    for w in random_family(spec3d):
        v = velocity_from_vorticity_3d(w)
        diff = curl3d(v)
        err = max(
            lp_norm(a - b, 2) for a, b in zip(diff.components, w.components)
        )
        worst = max(worst, err / lp_norm(w, 2))

    g2 = Grid(2, 64, TWO_PI)
    w_mode = ScalarField.from_function(g2, lambda x, y: np.cos(x))
    v2 = velocity_from_vorticity_2d(w_mode)
    x = g2.meshgrid()[0]
    mode_err = max(
        np.max(np.abs(v2.components[0].samples)),
        np.max(np.abs(v2.components[1].samples - np.sin(x))),
    )
    g3 = Grid(3, 16, TWO_PI)
    x3 = g3.meshgrid()[0]
    w3 = VectorField([
        ScalarField.zeros(g3),
        ScalarField.zeros(g3),
        ScalarField(g3, np.cos(x3)),
    ])
    v3 = velocity_from_vorticity_3d(w3)
    mode_err = max(
        mode_err,
        np.max(np.abs(v3.components[0].samples)),
        np.max(np.abs(v3.components[1].samples - np.sin(x3))),
        np.max(np.abs(v3.components[2].samples)),
    )
    ok = worst < 1e-8 and mode_err < 1e-10
    verdict(
        6,
        "vorticity inversion exactness",
        ok,
        f"worst random {worst:.1e}, mode {mode_err:.1e}",
    )


def test_criterion_07_bb_ratio_stability(verdict):
    spec2d = RandomFieldSpec(
        seed=7, beta=2.0, dim=2, n=128, box_length=TWO_PI, count=64
    )
    rep2d = refinement_study(spec2d, bb_ratio_2d, [128, 256])
    m2 = [m for _, m in rep2d.refinement]
    spec3d = RandomFieldSpec(
        seed=7, beta=2.0, dim=3, n=32, box_length=TWO_PI, count=64
    )
    rep3d = refinement_study(spec3d, bb_ratio_3d, [32, 64])
    m3 = [m for _, m in rep3d.refinement]
    g = Grid(2, 128, TWO_PI)
    fixture = bb_ratio_2d(ScalarField.from_function(g, lambda x, y: np.cos(x)))
    ok = (
        abs(m2[1] - m2[0]) < 0.1 * m2[0]
        and abs(m3[1] - m3[0]) < 0.1 * m3[0]
        and abs(fixture - 0.2165654310696107) <= 5e-3 * 0.2165654310696107
    )
    verdict(
        7,
        "div-curl ratio refinement stability",
        ok,
        f"2D {m2[0]:.4f}->{m2[1]:.4f}, 3D {m3[0]:.4f}->{m3[1]:.4f}, "
        f"fixture {fixture:.4f}",
    )


def test_criterion_08_interpolation_ratio(verdict):
    g = Grid(2, 128, TWO_PI)
    fixture = gn_ratio(ScalarField.from_function(g, lambda x, y: np.cos(x)))
    spec = RandomFieldSpec(
        seed=13, beta=2.0, dim=2, n=64, box_length=TWO_PI, count=16
    )
    rep = refinement_study(spec, gn_ratio, [64, 128])
    maxima = [m for _, m in rep.refinement]
    ok = (
        abs(fixture - 0.1767766952966369) <= 5e-3 * 0.1767766952966369
        and abs(maxima[1] - maxima[0]) < 0.1 * maxima[0]
    )
    verdict(
        8,
        "interpolation ratio fixture + stability",
        ok,
        f"fixture {fixture:.4f}, max {maxima[0]:.4f}->{maxima[1]:.4f}",
    )


def test_criterion_09_wave_solver(verdict):
    g = Grid(3, 32, TWO_PI)
    horizon = g.box_length / 4.0
    x = g.meshgrid()[0]
    j_field = VectorField([
        ScalarField.zeros(g),
        ScalarField.zeros(g),
        ScalarField(g, np.cos(x)),
    ])
    j = CurrentDensity(g, lambda t: j_field)
    zero = VectorField.zeros(g)
    traj_b, _ = solve_wave(zero, zero, j, horizon, 128)
    fixture_err = 0.0
    for t, b in traj_b:
        exact = (1.0 - np.cos(t)) * np.sin(x)
        fixture_err = max(
            fixture_err,
            np.max(np.abs(b.components[1].samples - exact)),
            np.max(np.abs(b.components[0].samples)),
            np.max(np.abs(b.components[2].samples)),
        )

    from vortexlab.biot_savart import leray_project
    from vortexlab.random_data import random_vector_field

    rng = np.random.default_rng(31)
    B0 = leray_project(random_vector_field(g, rng))
    B1 = leray_project(random_vector_field(g, rng))
    hb, hbt = solve_wave(B0, B1, None, horizon, 33)
    energies = [wave_energy(b, bt) for (_, b), (_, bt) in zip(hb, hbt)]
    energy_drift = (max(energies) - min(energies)) / max(energies)
    div_err = max(
        lp_norm(divergence(b), 2) / max(lp_norm(b, 2), 1e-300)
        for _, b in hb
    )
    ok = fixture_err < 1e-6 and energy_drift < 1e-8 and div_err < 1e-10
    verdict(
        9,
        "wave solver fixture/energy/divergence",
        ok,
        f"fixture {fixture_err:.1e}, energy {energy_drift:.1e}, "
        f"div {div_err:.1e}",
    )


def _admissible_direct(q, r, q_tilde, s, k, tol=1e-12):
    # independent inline transcription of the three displayed conditions
    if not (2.0 <= q):
        return False
    if not (2.0 < q_tilde):
        return False
    if not (2.0 <= r < np.inf):
        return False
    if 1.0 / q + 1.0 / r > 0.5 + tol:
        return False
    dual = 1.0 if np.isinf(q_tilde) else q_tilde / (q_tilde - 1.0)
    lhs = 1.0 / q + 3.0 / r
    mid = 1.5 - s
    rhs = 1.0 / dual + 1.0 - k
    return abs(lhs - mid) <= tol and abs(mid - rhs) <= tol


def test_criterion_10_admissibility_property(verdict):
    rng = np.random.default_rng(2024)
    mismatches = 0
    n_trials = 10000
    for i in range(n_trials):
        q = np.inf if rng.random() < 0.1 else rng.uniform(1.0, 8.0)
        q_tilde = np.inf if rng.random() < 0.1 else rng.uniform(1.0, 8.0)
        r = rng.uniform(1.0, 12.0)
        if rng.random() < 0.5:
            # on the scale-invariance surface: solve for s and k
            lhs = (0.0 if np.isinf(q) else 1.0 / q) + 3.0 / r
            s = 1.5 - lhs
            dual = 1.0 if np.isinf(q_tilde) else q_tilde / (q_tilde - 1.0)
            k = 1.0 / dual + 1.0 - lhs
        else:
            s = rng.uniform(-1.0, 2.0)
            k = rng.uniform(-1.0, 2.0)
        got, _ = strichartz_admissible(StrichartzExponents(q, r, q_tilde, s, k))
        if got != _admissible_direct(q, r, q_tilde, s, k):
            mismatches += 1
    ok_ref, _ = strichartz_admissible(
        StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)
    )
    bad_ref, reasons = strichartz_admissible(
        StrichartzExponents(4.0, 4.0, 2.0, 0.5, 0.25)
    )
    fixtures_ok = ok_ref and not bad_ref and any(
        "q_tilde" in msg for msg in reasons
    )
    ok = mismatches == 0 and fixtures_ok
    verdict(
        10,
        "admissibility predicate property",
        ok,
        f"{n_trials} tuples, {mismatches} mismatches",
    )


def test_criterion_11_strichartz_ratio_stability(verdict):
    e = StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)
    g = Grid(3, 32, TWO_PI)
    horizon = g.box_length / 4.0
    maxima = []
    for n_eval in (32, 64):
        fixtures = wave_fixture_family(g, seed=21, count=32, n_eval=n_eval)
        rep = strichartz_ratio_experiment(e, fixtures, horizon, 33)
        maxima.append(rep["family_max"])
    ok = abs(maxima[1] - maxima[0]) < 0.1 * maxima[0]
    verdict(
        11,
        "mixed-norm ratio refinement stability",
        ok,
        f"max {maxima[0]:.4f}->{maxima[1]:.4f}",
    )


def test_criterion_12_determinism(verdict, tmp_path, capsys):
    config = tmp_path / "gn.ini"
    config.write_text(
        "[gn-ratio]\n"
        "seed = 9\n"
        "n = 32\n"
        f"box_length = {TWO_PI!r}\n"
        "count = 4\n"
        "n_eval = 32 64\n"
    )
    runs = {}
    for label, threads in (("a", 1), ("b", 1), ("c", 4)):
        out_dir = tmp_path / label
        code = cli_main(
            ["--threads", str(threads), "--out", str(out_dir), "run", str(config)]
        )
        assert code == 0
        runs[label] = {
            name: (out_dir / name).read_bytes()
            for name in os.listdir(out_dir)
            if name != "manifest.json"  # manifest carries wall clock time
        }
    ok = runs["a"] == runs["b"] == runs["c"]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    ok = ok and manifest["experiment"] == "gn-ratio"
    verdict(12, "byte-identical reruns across thread counts", ok)
