"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Timed criteria measure the stated computation (best of several runs after a
warmup for the sub-millisecond ones, single wall-clock run otherwise) and
assert the stated budget alongside the numerical tolerance.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from omitbench.cli import main as cli_main
from omitbench.datafiles import DatasetFile, read_dataset, write_dataset
from omitbench.fitting import (
    FeatureNotFound,
    FitDataset,
    FitProblem,
    ParamBinding,
    UnderResolved,
    extract_linewidth,
    fit,
)
from omitbench.model import (
    HBAR,
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    SingularDenominator,
    cavity_susceptibility,
    cooperativity,
    intracavity_photon_number,
    probe_transmission,
)
from omitbench.sweeps import (
    NoiseSpec,
    add_noise,
    default_delta_grid,
    default_line_grid,
    simulate_line_cut,
    simulate_map,
)
from test_fitting import dense_residuals
from test_sweeps import oracle_fwhm

F_C = 6e9
KAPPA_EXT_HZ = 44e3
OMEGA_M_HZ = 3.8e6
GAMMA_M_HZ = 15.3
G0_HZ = 0.56
MECH = MechanicalParams.from_hz(OMEGA_M_HZ, GAMMA_M_HZ, G0_HZ)


def cav(kappa_hz):
    return CavityParams.from_hz(F_C, kappa_hz, KAPPA_EXT_HZ)


def n_for_coop(c, kappa_hz, gamma_hz=GAMMA_M_HZ):
    return c * kappa_hz * gamma_hz / (4.0 * G0_HZ ** 2)


def best_of(fn, repeats=5):
    """Best wall time of `fn` in seconds, after one warmup call."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(num, ok, desc, seconds=None):
    stamp = ""
    if seconds is not None:
        stamp = f" [{seconds * 1e3:.3f} ms]" if seconds < 0.1 \
            else f" [{seconds:.2f} s]"
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc}{stamp}",
          flush=True)


def test_01_bare_notch_on_resonance():
    cavity = cav(1e5)
    pump = PumpConfig(PumpScheme.RED, 0.0, n_cav=0.0)

    def compute():
        return abs(probe_transmission(0.0, pump, cavity, MECH))

    value = compute()
    elapsed = best_of(compute)
    ok = abs(value - 0.5600) <= 1e-10 and elapsed < 1e-3
    report(1, ok, f"bare notch on-resonance |S21| = {value:.12f}", elapsed)
    assert abs(value - 0.5600) <= 1e-10
    assert elapsed < 1e-3


def test_02_transparency_peak_value():
    cavity = cav(84e3)
    pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.3e6)

    def compute():
        c = cooperativity(MECH.g0, 1.3e6, cavity.kappa, MECH.gamma_m)
        full = abs(probe_transmission(MECH.omega_m, pump, cavity, MECH))
        return c, full

    c, full = compute()
    closed = 1.0 - (44.0 / 84.0) / (1.0 + c)
    elapsed = best_of(compute)
    ok = (abs(c - 1.269) <= 0.001
          and abs(full - closed) <= 1e-10 * closed
          and elapsed < 1e-3)
    report(2, ok, f"transparency peak C = {c:.6f}, |S21| = {full:.12f}", elapsed)
    assert abs(c - 1.269) <= 0.001
    assert full == pytest.approx(closed, rel=1e-10)
    assert elapsed < 1e-3


def test_03_absorption_dip_value():
    cavity = cav(83e3)
    pump = PumpConfig(PumpScheme.BLUE, MECH.omega_m, n_cav=3.4e5)

    def compute():
        c = cooperativity(MECH.g0, 3.4e5, cavity.kappa, MECH.gamma_m)
        full = abs(probe_transmission(-MECH.omega_m, pump, cavity, MECH))
        return c, full

    c, full = compute()
    closed = 1.0 - (44.0 / 83.0) / (1.0 - c)
    elapsed = best_of(compute)
    ok = (abs(c - 0.336) <= 0.001
          and abs(full - closed) <= 1e-10 * closed
          and elapsed < 1e-3)
    report(3, ok, f"absorption dip C = {c:.6f}, |S21| = {full:.12f}", elapsed)
    assert abs(c - 0.336) <= 0.001
    assert full == pytest.approx(closed, rel=1e-10)
    assert elapsed < 1e-3


def test_04_backaction_width_law():
    cases = [(PumpScheme.RED, 0.1, 84e3), (PumpScheme.RED, 0.336, 84e3),
             (PumpScheme.RED, 1.0, 84e3), (PumpScheme.RED, 1.269, 84e3),
             (PumpScheme.BLUE, 0.1, 83e3), (PumpScheme.BLUE, 0.336, 83e3)]
    t0 = time.perf_counter()
    failures = []
    for scheme, c, kappa_hz in cases:
        cavity = cav(kappa_hz)
        pump = PumpConfig(scheme, scheme.sign * MECH.omega_m,
                          n_cav=n_for_coop(c, kappa_hz))
        grid = default_line_grid(pump, cavity, MECH, points=10000)
        trace = simulate_line_cut(pump, cavity, MECH, grid)
        expected = MECH.gamma_m * (1.0 - scheme.sign * c)
        measured = extract_linewidth(trace)
        check = oracle_fwhm(trace.omega, trace.magnitude())
        if abs(measured - expected) > 0.02 * expected:
            failures.append((scheme.value, c, measured / TWO_PI))
        if abs(check - expected) > 0.02 * expected:
            failures.append((scheme.value, c, check / TWO_PI))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(4, ok, "FWHM = gamma_m(1 -+ sign*C) within 2% on 1e4-point grids "
                  "(extractor and oracle routes)", elapsed)
    assert not failures, failures
    assert elapsed < 1.0


def test_05_instability_gate():
    cavity = cav(83e3)
    hot = PumpConfig(PumpScheme.BLUE, MECH.omega_m,
                     n_cav=n_for_coop(1.01, 83e3))
    cold = PumpConfig(PumpScheme.BLUE, MECH.omega_m,
                      n_cav=n_for_coop(0.99, 83e3))

    def compute():
        raised = False
        try:
            probe_transmission(-MECH.omega_m, hot, cavity, MECH)
        except SingularDenominator:
            raised = True
        value = abs(probe_transmission(-MECH.omega_m, cold, cavity, MECH))
        return raised, value

    raised, value = compute()
    elapsed = best_of(compute)
    ok = raised and np.isfinite(value) and elapsed < 1e-3
    report(5, ok, "blue C = 1.01 raises the singularity error, C = 0.99 "
                  "stays finite", elapsed)
    assert raised
    assert np.isfinite(value)
    assert elapsed < 1e-3


def test_06_pump_power_monotonicity():
    t0 = time.perf_counter()
    red_peaks, red_widths = [], []
    cavity_r = cav(84e3)
    for n in (1e4, 1e5, 3.4e5, 1.3e6):
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=n)
        grid = default_line_grid(pump, cavity_r, MECH, points=10000)
        trace = simulate_line_cut(pump, cavity_r, MECH, grid)
        red_peaks.append(float(trace.magnitude().max()))
        red_widths.append(extract_linewidth(trace))
    blue_depths, blue_widths = [], []
    cavity_b = cav(83e3)
    for n in (1e4, 1e5, 3.4e5):
        pump = PumpConfig(PumpScheme.BLUE, MECH.omega_m, n_cav=n)
        grid = default_line_grid(pump, cavity_b, MECH, points=10000)
        trace = simulate_line_cut(pump, cavity_b, MECH, grid)
        blue_depths.append(float(trace.magnitude().min()))
        blue_widths.append(extract_linewidth(trace))
    elapsed = time.perf_counter() - t0
    checks = [
        np.all(np.diff(red_peaks) > 0),
        np.all(np.diff(red_widths) > 0),
        np.all(np.diff(blue_depths) < 0),
        np.all(np.diff(blue_widths) < 0),
    ]
    ok = all(checks) and elapsed < 1.0
    report(6, ok, "red peak/FWHM increase and blue dip deepens/FWHM shrinks "
                  "with pump power", elapsed)
    assert all(checks), (red_peaks, red_widths, blue_depths, blue_widths)
    assert elapsed < 1.0


def test_07_sideband_alignment_falloff():
    cavity = cav(84e3)
    pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.3e6)
    delta_grid = default_delta_grid(PumpScheme.RED, cavity, MECH)
    omega_grid = default_line_grid(pump, cavity, MECH)

    t0 = time.perf_counter()
    smap = simulate_map(PumpScheme.RED, cavity, MECH, delta_grid,
                        np.linspace(omega_grid[0], omega_grid[-1], 401),
                        n_cav=1.3e6)
    elapsed = time.perf_counter() - t0

    assert smap.s21_mag.shape == (201, 401)
    probe = smap.omega
    center = len(delta_grid) // 2
    rows = {"lo": 0, "mid": center, "hi": len(delta_grid) - 1}
    bare = simulate_map(PumpScheme.RED, cavity, MECH,
                        delta_grid[[0, center, -1]], probe, n_cav=0.0)
    height = {}
    for (label, i), j in zip(rows.items(), range(3)):
        height[label] = float((smap.s21_mag[i] - bare.s21_mag[j]).max())
    edge = max(height["lo"], height["hi"])
    ok = edge < 0.1 * height["mid"] and elapsed < 30.0
    report(7, ok, f"window height at |pump misalignment| = 2 kappa is "
                  f"{edge / height['mid']:.2%} of the aligned height", elapsed)
    assert abs(delta_grid[0] - (-MECH.omega_m - 2 * cavity.kappa)) < 1e-6
    assert abs(delta_grid[-1] - (-MECH.omega_m + 2 * cavity.kappa)) < 1e-6
    assert edge < 0.1 * height["mid"]
    assert elapsed < 30.0


def test_08_single_fit_roundtrip():
    cavity = cav(84e3)
    pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.3e6)
    grid = default_line_grid(pump, cavity, MECH, points=801)
    trace = simulate_line_cut(pump, cavity, MECH, grid)
    bindings = {
        "omega_c": ParamBinding.free(
            "omega_c", cavity.omega_c + 0.2 * cavity.kappa,
            cavity.omega_c - 10 * cavity.kappa,
            cavity.omega_c + 10 * cavity.kappa),
        "kappa": ParamBinding.free("kappa", 1.2 * cavity.kappa,
                                   0.3 * cavity.kappa, 3.0 * cavity.kappa),
        "kappa_ext": ParamBinding.fixed("kappa_ext", cavity.kappa_ext),
        "omega_m": ParamBinding.fixed("omega_m", MECH.omega_m),
        "gamma_m": ParamBinding.fixed("gamma_m", MECH.gamma_m),
        "g0": ParamBinding.fixed("g0", MECH.g0),
        "n_cav": ParamBinding.fixed("n_cav", 1.3e6),
    }
    problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
    t0 = time.perf_counter()
    result = fit(problem)
    elapsed = time.perf_counter() - t0
    kappa_ok = abs(result.values["kappa[0]"] - cavity.kappa) \
        <= 1e-6 * cavity.kappa
    omega_ok = abs(result.values["omega_c[0]"] - cavity.omega_c) \
        <= 1e-6 * cavity.omega_c
    ok = (kappa_ok and omega_ok and result.converged
          and result.iterations <= 200 and elapsed < 5.0)
    report(8, ok, f"noiseless round-trip from 20%-perturbed init in "
                  f"{result.iterations} iterations", elapsed)
    assert kappa_ok and omega_ok
    assert result.converged
    assert result.iterations <= 200
    assert elapsed < 5.0


# (temperature mK, gamma_m Hz, omega_m offset Hz,
#  red kappa Hz, red omega_c shift Hz, blue kappa Hz, blue omega_c shift Hz)
JOINT_SETS = [
    (250, 15.3, 0.0, 84e3, 0.0, 83e3, 0.0),
    (350, 20.0, 7.0, 82e3, 52e3, 80e3, 37e3),
    (450, 26.8, 12.0, 83e3, 93e3, 78e3, 80e3),
]


def _joint_problem_for_seed(seed):
    datasets, truths = [], []
    for temp, gamma_hz, dom_hz, k_red, dwc_red, k_blue, dwc_blue in JOINT_SETS:
        mech = MechanicalParams.from_hz(OMEGA_M_HZ + dom_hz, gamma_hz, G0_HZ)
        group = f"m{temp}"
        pair = []
        for scheme, kappa_hz, dwc, n in [
                (PumpScheme.RED, k_red, dwc_red, 1.3e6),
                (PumpScheme.BLUE, k_blue, dwc_blue, 3.4e5)]:
            cavity = CavityParams.from_hz(F_C + dwc, kappa_hz, KAPPA_EXT_HZ)
            pump = PumpConfig(scheme, scheme.sign * mech.omega_m, n_cav=n)
            grid = default_line_grid(pump, cavity, mech, points=1601)
            trace = simulate_line_cut(pump, cavity, mech, grid)
            trace = add_noise(
                trace, NoiseSpec(0.01, seed=seed * 10 + len(datasets) + len(pair)))
            pair.append((trace, cavity, scheme, n))
        # Start the shared linewidth from the measured widths, undoing the
        # backaction term at the perturbed kappa starting value; a flat guess
        # can drop the strongest-pump group into a secondary minimum.
        estimates = []
        for trace, cavity, scheme, n in pair:
            try:
                width = extract_linewidth(trace)
            except (FeatureNotFound, UnderResolved):
                continue
            backaction = 4.0 * mech.g0 ** 2 * n / (1.05 * cavity.kappa)
            estimates.append(width + scheme.sign * backaction)
        gamma_init = TWO_PI * 18.0 if not estimates else \
            float(np.clip(np.mean(estimates), TWO_PI * 2.0, TWO_PI * 200.0))
        for trace, cavity, scheme, n in pair:
            bindings = {
                "omega_c": ParamBinding.free(
                    "omega_c", cavity.omega_c + 0.2 * cavity.kappa,
                    cavity.omega_c - 5 * cavity.kappa,
                    cavity.omega_c + 5 * cavity.kappa),
                "kappa": ParamBinding.free(
                    "kappa", 1.05 * cavity.kappa,
                    0.5 * cavity.kappa, 2.0 * cavity.kappa),
                "kappa_ext": ParamBinding.fixed("kappa_ext", cavity.kappa_ext),
                "omega_m": ParamBinding.shared(
                    "omega_m", group, TWO_PI * OMEGA_M_HZ,
                    TWO_PI * (OMEGA_M_HZ - 200), TWO_PI * (OMEGA_M_HZ + 200)),
                "gamma_m": ParamBinding.shared(
                    "gamma_m", group, gamma_init,
                    TWO_PI * 2.0, TWO_PI * 200.0),
                "g0": ParamBinding.fixed("g0", mech.g0),
                "n_cav": ParamBinding.fixed("n_cav", n),
            }
            datasets.append(FitDataset(trace, scheme, bindings))
            truths.append((f"kappa[{len(datasets) - 1}]", cavity.kappa))
    return FitProblem(datasets), truths


def test_09_joint_fit_roundtrip():
    t0 = time.perf_counter()
    passed = 0
    for seed in range(20):
        problem, kappa_truths = _joint_problem_for_seed(seed)
        result = fit(problem)
        good = result.converged
        for temp, gamma_hz, dom_hz, *_ in JOINT_SETS:
            g_true = TWO_PI * gamma_hz
            m_true = TWO_PI * (OMEGA_M_HZ + dom_hz)
            g_fit = result.values[f"gamma_m@m{temp}"]
            m_fit = result.values[f"omega_m@m{temp}"]
            good = good and abs(g_fit - g_true) <= 0.05 * g_true
            good = good and abs(m_fit - m_true) <= 0.1 * g_true
        for slot, k_true in kappa_truths:
            good = good and abs(result.values[slot] - k_true) <= 0.02 * k_true
        passed += bool(good)
    elapsed = time.perf_counter() - t0
    ok = passed >= 18 and elapsed < 120.0
    report(9, ok, f"joint shared-mechanics fit recovered {passed}/20 seeds",
           elapsed)
    assert passed >= 18
    assert elapsed < 120.0


def test_joint_fit_draw_606_lands_on_the_truth():
    # Draw 606 (noise seeds 6060-6065) is the one of the 1,200 draws of the
    # joint_fit benchmark (seeds 0-24) that a central-difference Jacobian left
    # in a local minimum, gamma_m@m250 = 10.5 Hz against 15.3 Hz.  omega_c has
    # no criterion-09 tolerance and is held to kappa's, 2 % of kappa.
    problem, _ = _joint_problem_for_seed(606)
    result = fit(problem)
    assert result.termination == "reduction_tol"
    truths = {}
    for t, (temp, gamma_hz, dom_hz, *cavities) in enumerate(JOINT_SETS):
        g_true = TWO_PI * gamma_hz
        truths[f"gamma_m@m{temp}"] = (g_true, 0.05 * g_true)
        truths[f"omega_m@m{temp}"] = (TWO_PI * (OMEGA_M_HZ + dom_hz), 0.1 * g_true)
        # Red then blue trace: kappa and omega_c shift of each.
        for i, (kappa_hz, dwc_hz) in enumerate((cavities[:2], cavities[2:]), start=2 * t):
            truths[f"kappa[{i}]"] = (TWO_PI * kappa_hz, 0.02 * TWO_PI * kappa_hz)
            truths[f"omega_c[{i}]"] = (TWO_PI * (F_C + dwc_hz), 0.02 * TWO_PI * kappa_hz)
    assert set(truths) == set(result.values)
    misses = {slot: value for slot, value in result.values.items()
              if not abs(value - truths[slot][0]) <= truths[slot][1]}
    assert misses == {}


def test_joint_fit_draw_28845_stderr_independent_of_summation_order():
    # Draw 28845 (seed 600 of the joint_fit benchmark): its J^T J has condition
    # number 7.8e12, and 8.5 once rows and columns are divided by sqrt(diag).
    # The fit sums J^T J block by block; the standard errors from the dense
    # D^T D, scaled the same way and inverted, agree to 1e-12.
    problem, _ = _joint_problem_for_seed(28845)
    result = fit(problem)
    values = np.array(list(result.values.values()))
    r, dense = dense_residuals(problem, values)
    a = dense.T @ dense
    scale = 1.0 / np.sqrt(np.diag(a))
    variance = np.diag(np.linalg.inv(scale[:, None] * a * scale)) * scale ** 2
    sig = np.sqrt(variance * np.sum(r ** 2) / (problem.n_points - problem.n_parameters))
    expected = np.where(problem._log_flags, sig * values, sig)
    np.testing.assert_allclose(list(result.stderr.values()), expected, rtol=1e-12, atol=0)


def test_10_photon_calibration_through_cli(tmp_path):
    cavity = cav(84e3)
    omega_d = cavity.omega_c - MECH.omega_m
    chi = cavity_susceptibility(0.0, -MECH.omega_m, cavity.kappa)
    p_in = 1.3e6 * 2.0 * HBAR * omega_d / (cavity.kappa_ext * abs(chi) ** 2)

    def compute():
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=p_in)
        return intracavity_photon_number(pump, cavity)

    elapsed = best_of(compute)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "cavity": {"omega_c_hz": F_C, "kappa_hz": 84e3,
                   "kappa_ext_hz": KAPPA_EXT_HZ},
        "mechanics": {"omega_m_hz": OMEGA_M_HZ, "gamma_m_hz": GAMMA_M_HZ,
                      "g0_hz": G0_HZ},
    }))
    r = CliRunner().invoke(cli_main,
                           ["--config", str(cfg), "photons",
                            "--power-w", repr(p_in),
                            "--detuning-hz", repr(-OMEGA_M_HZ)],
                           catch_exceptions=False)
    line = [l for l in r.output.splitlines() if l.startswith("n_cav")][0]
    n_cli = float(line.split("=")[1])
    ok = (r.exit_code == 0 and abs(n_cli - 1.3e6) <= 1e-6 * 1.3e6
          and elapsed < 1e-3)
    report(10, ok, f"photon count command returned n_cav = {n_cli:.6e} from "
                   f"first-principles input power (timed: the photon-number "
                   f"computation)", elapsed)
    assert r.exit_code == 0
    assert n_cli == pytest.approx(1.3e6, rel=1e-6)
    assert elapsed < 1e-3


def test_11_determinism_and_roundtrip(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "cavity": {"omega_c_hz": F_C, "kappa_hz": 84e3,
                   "kappa_ext_hz": KAPPA_EXT_HZ},
        "mechanics": {"omega_m_hz": OMEGA_M_HZ, "gamma_m_hz": GAMMA_M_HZ,
                      "g0_hz": G0_HZ},
        "pumps": [{"scheme": "red", "n_cav": 1.3e6}],
        "noise": {"sigma": 0.01, "seed": 4},
        "grid": {"map_delta_points": 11, "map_omega_points": 51},
    }))
    pairs = []
    for out in ("a.csv", "b.csv"):
        path = tmp_path / out
        r = runner.invoke(cli_main, ["--config", str(cfg), "--out", str(path),
                                     "simulate"], catch_exceptions=False)
        assert r.exit_code == 0
        pairs.append(path.read_bytes())
    maps = []
    for out in ("ma.csv", "mb.csv"):
        path = tmp_path / out
        r = runner.invoke(cli_main, ["--config", str(cfg), "--out", str(path),
                                     "map"], catch_exceptions=False)
        assert r.exit_code == 0
        maps.append(path.read_bytes())
    identical = pairs[0] == pairs[1] and maps[0] == maps[1]

    data = read_dataset(tmp_path / "a.csv")
    write_dataset(tmp_path / "c.csv", data)
    back = read_dataset(tmp_path / "c.csv")
    lossless = (np.allclose(back.probe_freq_hz, data.probe_freq_hz,
                            rtol=1e-12, atol=0.0)
                and np.allclose(back.s21_mag, data.s21_mag,
                                rtol=1e-12, atol=0.0))
    ok = identical and lossless
    report(11, ok, "byte-identical reruns and 12-digit CSV round-trip")
    assert identical
    assert lossless
