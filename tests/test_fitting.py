"""Fit-engine tests: residuals, the damped least-squares loop and linewidth
extraction, all validated by round-trips against the sweep
generator rather than against any external fitter.
"""

import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from omitbench import fitting
from omitbench.datafiles import DatasetFile, read_dataset, write_dataset
from omitbench.fitting import (
    FeatureNotFound,
    FitDataset,
    FitProblem,
    InsufficientData,
    ParamBinding,
    UnderResolved,
    extract_linewidth,
    fit,
    residuals,
)
from omitbench.model import (
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    probe_transmission,
)
from omitbench.sweeps import (
    NoiseSpec,
    SweepTrace,
    add_noise,
    default_line_grid,
    simulate_line_cut,
)

F_C = 6e9
KAPPA_EXT_HZ = 44e3
MECH = MechanicalParams.from_hz(3.8e6, 15.3, 0.56)
N_RED_MAX = 1.3e6
N_BLUE_MAX = 3.4e5
GAMMA_EFF_RED_HZ = 34.713333333333333
GAMMA_EFF_BLUE_HZ = 10.161493975903614


def cav_hz(kappa_hz, kappa_ext_hz=KAPPA_EXT_HZ):
    return CavityParams.from_hz(F_C, kappa_hz, kappa_ext_hz)


def make_trace(scheme=PumpScheme.RED, kappa_hz=84e3, n_cav=N_RED_MAX,
               mech=MECH, points=801, noise_sigma=0.0, seed=0,
               half_width=25.0, kappa_ext_hz=KAPPA_EXT_HZ, d_kappa=0.0):
    cav = cav_hz(kappa_hz, kappa_ext_hz)
    pump = PumpConfig(scheme, scheme.sign * mech.omega_m + d_kappa * cav.kappa, n_cav=n_cav)
    grid = default_line_grid(pump, cav, mech, points=points,
                             half_width_gamma_eff=half_width)
    trace = simulate_line_cut(pump, cav, mech, grid)
    if noise_sigma > 0:
        trace = add_noise(trace, NoiseSpec(noise_sigma, seed=seed))
    return trace, cav, pump


def fixed_bindings(cav, mech, n_cav):
    return {
        "omega_c": ParamBinding.fixed("omega_c", cav.omega_c),
        "kappa": ParamBinding.fixed("kappa", cav.kappa),
        "kappa_ext": ParamBinding.fixed("kappa_ext", cav.kappa_ext),
        "omega_m": ParamBinding.fixed("omega_m", mech.omega_m),
        "gamma_m": ParamBinding.fixed("gamma_m", mech.gamma_m),
        "g0": ParamBinding.fixed("g0", mech.g0),
        "n_cav": ParamBinding.fixed("n_cav", n_cav),
    }


class TestBindings:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ParamBinding("zeta", "fixed", 1.0)

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            ParamBinding("kappa", "free", 1.0, lo=2.0, hi=1.0)

    def test_init_within_bounds(self):
        with pytest.raises(ValueError):
            ParamBinding("kappa", "free", 5.0, lo=1.0, hi=2.0)

    def test_free_needs_finite_bounds(self):
        with pytest.raises(ValueError):
            ParamBinding("kappa", "free", 1.0)

    def test_log_param_needs_positive_lower_bound(self):
        with pytest.raises(ValueError):
            ParamBinding("gamma_m", "free", 1.0, lo=0.0, hi=2.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: ParamBinding("kappa", "tied", 1.0), "unknown binding mode 'tied'"),
        (lambda: FitDataset(make_trace(points=11)[0], PumpScheme.RED,
                            {"kappa": ParamBinding.fixed("gamma_m", 1.0)}),
         "binding key 'kappa' does not match binding name 'gamma_m'"),
        (lambda: FitDataset(SweepTrace(np.array([0.0, 1.0]), np.ones(2)), PumpScheme.RED, {}),
         "trace meta must carry pump_freq_hz"),
        (lambda: FitProblem([]), "need at least one dataset"),
    ], ids=["unknown-mode", "key-name-mismatch", "no-pump-frequency", "no-datasets"])
    def test_rejects_bad_input(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_shared_needs_group(self):
        with pytest.raises(ValueError):
            ParamBinding("omega_m", "shared", 1.0, lo=0.5, hi=2.0)

    def test_omega_c_may_be_free_with_any_sign_bounds(self):
        b = ParamBinding.free("omega_c", 1.0, -2.0, 2.0)
        assert b.lo == -2.0


class TestResiduals:
    def test_zero_at_generating_parameters(self):
        trace, cav, pump = make_trace(points=201)
        ds = FitDataset(trace, PumpScheme.RED, fixed_bindings(cav, MECH, N_RED_MAX))
        problem = FitProblem([ds])
        r = residuals(problem, np.array([]))[0]
        assert r.shape == (201,)
        # The pump frequency round-trips through Hz metadata; the float
        # rounding of a 6 GHz carrier, amplified by the steep mechanical
        # feature, leaves residuals of order 1e-8 at worst.
        assert np.max(np.abs(r)) < 1e-7

    def test_wrong_kappa_largest_near_cavity_center(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, 0.0, n_cav=0.0)
        grid = np.linspace(-3 * cav.kappa, 3 * cav.kappa, 601)
        trace = simulate_line_cut(pump, cav, MECH, grid)
        bindings = fixed_bindings(cav, MECH, 0.0)
        bindings["kappa"] = ParamBinding.free("kappa", 2 * cav.kappa,
                                              0.1 * cav.kappa, 10 * cav.kappa)
        ds = FitDataset(trace, PumpScheme.RED, bindings)
        problem = FitProblem([ds])
        r = residuals(problem, np.array([2 * cav.kappa]))[0]
        assert np.any(r != 0.0)
        # Largest model-data discrepancy within half a linewidth of the notch.
        worst = np.argmax(np.abs(r))
        assert abs(grid[worst]) < 0.5 * cav.kappa

    def test_blue_supercritical_trial_yields_penalty(self):
        trace, cav, pump = make_trace(PumpScheme.BLUE, kappa_hz=83e3,
                                      n_cav=N_BLUE_MAX, points=101)
        n_crit = 1.05 * 83e3 * 15.3 / (4 * 0.56 ** 2)
        bindings = fixed_bindings(cav, MECH, N_BLUE_MAX)
        bindings["n_cav"] = ParamBinding.free("n_cav", N_BLUE_MAX, 1.0, 1e8)
        ds = FitDataset(trace, PumpScheme.BLUE, bindings)
        problem = FitProblem([ds])
        r = residuals(problem, np.array([n_crit]))[0]
        assert np.all(r == 1e3)
        assert np.all(np.isfinite(r))

    def test_unphysical_trial_yields_penalty(self):
        # kappa below kappa_ext is not a valid cavity; the trial must be
        # rejected by penalty, not by an exception.
        trace, cav, pump = make_trace(points=101)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free("kappa", cav.kappa,
                                              0.1 * cav.kappa_ext, 10 * cav.kappa)
        ds = FitDataset(trace, PumpScheme.RED, bindings)
        problem = FitProblem([ds])
        r = residuals(problem, np.array([0.5 * cav.kappa_ext]))[0]
        assert np.all(r == 1e3)


class TestFit:
    def test_single_roundtrip_noiseless_perturbed_init(self):
        trace, cav, pump = make_trace(points=801)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.2 * cav.kappa, 0.3 * cav.kappa, 3.0 * cav.kappa)
        bindings["omega_c"] = ParamBinding.free(
            "omega_c", cav.omega_c + 0.2 * cav.kappa,
            cav.omega_c - 10 * cav.kappa, cav.omega_c + 10 * cav.kappa)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        assert result.converged
        assert result.termination in ("reduction_tol", "step_tol")
        assert result.iterations <= 200
        assert result.values["kappa[0]"] == pytest.approx(cav.kappa, rel=1e-6)
        assert result.values["omega_c[0]"] == pytest.approx(cav.omega_c, rel=1e-6)

    def test_exact_init_is_identity(self):
        trace, cav, pump = make_trace(points=401)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", cav.kappa, 0.3 * cav.kappa, 3.0 * cav.kappa)
        bindings["gamma_m"] = ParamBinding.free(
            "gamma_m", MECH.gamma_m, 0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        assert result.converged
        assert result.values["kappa[0]"] == pytest.approx(cav.kappa, rel=1e-8)
        assert result.values["gamma_m[0]"] == pytest.approx(MECH.gamma_m, rel=1e-8)
        # Floor set by the Hz round-trip of the pump frequency, not by noise.
        assert result.rms_residual < 1e-8

    def test_cost_history_monotone_nonincreasing(self):
        trace, cav, pump = make_trace(points=401, noise_sigma=0.01, seed=3)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.3 * cav.kappa, 0.3 * cav.kappa, 3.0 * cav.kappa)
        bindings["gamma_m"] = ParamBinding.free(
            "gamma_m", 1.4 * MECH.gamma_m, 0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        history = np.array(result.cost_history)
        assert len(history) >= 2
        assert np.all(np.diff(history) <= 0.0)

    def test_values_respect_bounds(self):
        # Truth (84 kHz) lies outside the permitted band; the fit must pin
        # at the boundary instead of escaping.
        trace, cav, pump = make_trace(points=401)
        lo, hi = 1.05 * cav.kappa, 2.0 * cav.kappa
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free("kappa", 1.5 * cav.kappa, lo, hi)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        assert lo <= result.values["kappa[0]"] <= hi

    def test_insufficient_data_raises(self):
        trace, cav, pump = make_trace(points=801)
        cut = SweepTrace(trace.omega[:2], trace.s21[:2], meta=trace.meta)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        bindings["omega_c"] = ParamBinding.free(
            "omega_c", cav.omega_c, cav.omega_c - cav.kappa,
            cav.omega_c + cav.kappa)
        bindings["gamma_m"] = ParamBinding.free(
            "gamma_m", MECH.gamma_m, 0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
        problem = FitProblem([FitDataset(cut, PumpScheme.RED, bindings)])
        with pytest.raises(InsufficientData):
            fit(problem)

    def test_incomplete_bindings_rejected(self):
        trace, cav, pump = make_trace(points=11)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        del bindings["g0"]
        with pytest.raises(ValueError):
            FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])

    def test_shared_group_inconsistency_rejected(self):
        trace, cav, pump = make_trace(points=11)
        b1 = fixed_bindings(cav, MECH, N_RED_MAX)
        b2 = fixed_bindings(cav, MECH, N_RED_MAX)
        b1["gamma_m"] = ParamBinding.shared("gamma_m", "t", MECH.gamma_m,
                                            0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
        b2["gamma_m"] = ParamBinding.shared("gamma_m", "t", 1.1 * MECH.gamma_m,
                                            0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
        with pytest.raises(ValueError):
            FitProblem([FitDataset(trace, PumpScheme.RED, b1),
                        FitDataset(trace, PumpScheme.RED, b2)])

    def _shared_pair_problem(self, order=(0, 1), noise=0.01, seeds=(0, 1)):
        mech_true = MechanicalParams.from_hz(3.8e6 + 4.0, 20.0, 0.56)
        traces = []
        for scheme, kappa_hz, n_cav, seed in [
            (PumpScheme.RED, 84e3, N_RED_MAX, seeds[0]),
            (PumpScheme.BLUE, 83e3, N_BLUE_MAX, seeds[1]),
        ]:
            trace, cav, _ = make_trace(scheme, kappa_hz, n_cav,
                                       mech=mech_true, points=801,
                                       noise_sigma=noise, seed=seed)
            traces.append((trace, cav, scheme, n_cav))
        datasets = []
        for trace, cav, scheme, n_cav in traces:
            b = fixed_bindings(cav, mech_true, n_cav)
            b["kappa"] = ParamBinding.free(
                "kappa", 1.05 * cav.kappa, 0.5 * cav.kappa, 2 * cav.kappa)
            b["omega_c"] = ParamBinding.free(
                "omega_c", cav.omega_c + 0.1 * cav.kappa,
                cav.omega_c - 5 * cav.kappa, cav.omega_c + 5 * cav.kappa)
            b["omega_m"] = ParamBinding.shared(
                "omega_m", "t350", TWO_PI * 3.8e6,
                TWO_PI * (3.8e6 - 100), TWO_PI * (3.8e6 + 100))
            b["gamma_m"] = ParamBinding.shared(
                "gamma_m", "t350", TWO_PI * 17.0, TWO_PI * 2.0, TWO_PI * 200.0)
            datasets.append(FitDataset(trace, scheme, b))
        datasets = [datasets[i] for i in order]
        return FitProblem(datasets), mech_true, [t[1] for t in traces]

    def test_joint_pair_recovery_with_noise(self):
        problem, mech_true, cavs = self._shared_pair_problem()
        result = fit(problem)
        assert result.converged
        assert result.values["gamma_m@t350"] == pytest.approx(
            mech_true.gamma_m, rel=0.05)
        assert abs(result.values["omega_m@t350"] - mech_true.omega_m) \
            < 0.1 * mech_true.gamma_m
        assert result.values["kappa[0]"] == pytest.approx(cavs[0].kappa, rel=0.02)
        assert result.values["kappa[1]"] == pytest.approx(cavs[1].kappa, rel=0.02)

    def test_permutation_invariance(self):
        a, _, _ = self._shared_pair_problem(order=(0, 1))
        b, _, _ = self._shared_pair_problem(order=(1, 0))
        ra = fit(a)
        rb = fit(b)
        assert ra.values["gamma_m@t350"] == pytest.approx(
            rb.values["gamma_m@t350"], rel=1e-9)
        assert ra.values["omega_m@t350"] == pytest.approx(
            rb.values["omega_m@t350"], rel=1e-9)
        # Dataset-indexed slots swap places but hold the same values.
        assert ra.values["kappa[0]"] == pytest.approx(rb.values["kappa[1]"],
                                                      rel=1e-9)
        assert ra.values["omega_c[1]"] == pytest.approx(rb.values["omega_c[0]"],
                                                        rel=1e-9)

    def test_hz_and_rad_interfaces_agree(self):
        # Building the same physical problem through the Hz constructors or
        # directly in angular units must fit to identical physical values.
        trace, cav, pump = make_trace(points=401)
        def build(factor_cav):
            b = fixed_bindings(factor_cav, MECH, N_RED_MAX)
            b["kappa"] = ParamBinding.free(
                "kappa", 1.2 * factor_cav.kappa, 0.3 * factor_cav.kappa,
                3 * factor_cav.kappa)
            return FitProblem([FitDataset(trace, PumpScheme.RED, b)])
        via_hz = build(CavityParams.from_hz(F_C, 84e3, KAPPA_EXT_HZ))
        via_rad = build(CavityParams(TWO_PI * F_C, TWO_PI * 84e3,
                                     TWO_PI * KAPPA_EXT_HZ))
        assert fit(via_hz).values["kappa[0]"] == pytest.approx(
            fit(via_rad).values["kappa[0]"], rel=1e-12)

    def test_uncertainties_positive_for_noisy_fit(self):
        trace, cav, pump = make_trace(points=401, noise_sigma=0.01, seed=9)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.1 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        err = result.stderr["kappa[0]"]
        assert np.isfinite(err) and err > 0
        # Noise-limited fit: uncertainty well below the value itself.
        assert err < 0.1 * result.values["kappa[0]"]

    def test_penalty_plateau_is_not_converged(self):
        result = fit(self._plateau_problem())
        assert not result.converged
        assert result.termination == "penalty"
        assert math.isnan(result.rms_residual)

    def test_penalty_in_a_later_dataset_is_not_converged(self):
        # Only the second dataset's rows are the penalty at the end.
        trace, cav, pump = make_trace(points=201)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.1 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        fine = FitDataset(trace, PumpScheme.RED, bindings)
        result = fit(FitProblem([fine] + self._plateau_problem().datasets))
        assert not result.converged
        assert result.termination == "penalty"

    def test_rms_residual_over_the_datasets_the_model_accepts(self):
        # Not the penalty constant: the rejected rows are NaN and left out.
        trace, cav, pump = make_trace(points=201, noise_sigma=0.01)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        fine = FitDataset(trace, PumpScheme.RED, bindings)
        result = fit(FitProblem([fine] + self._plateau_problem().datasets))
        assert result.termination == "penalty"
        kept = result.residuals[:201]
        assert np.isnan(result.residuals[201:]).all() and np.isfinite(kept).all()
        assert result.rms_residual == pytest.approx(math.sqrt(np.mean(kept ** 2)), rel=1e-12)
        assert 0 < result.rms_residual < 0.1

    def test_scheme_contradicting_the_trace_is_refused(self):
        trace, cav, _ = make_trace(points=11)
        assert trace.meta["scheme"] == "red"
        with pytest.raises(ValueError, match="scheme 'red' fitted as 'blue'"):
            FitDataset(trace, PumpScheme.BLUE, fixed_bindings(cav, MECH, N_RED_MAX))

    def test_iteration_cap_is_not_converged(self, monkeypatch):
        # Two steps from a 30 % kappa error meet neither tolerance.
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        trace, cav, pump = make_trace(points=401)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.3 * cav.kappa, 0.3 * cav.kappa, 3.0 * cav.kappa)
        result = fit(FitProblem([FitDataset(trace, PumpScheme.RED, bindings)]))
        assert not result.converged
        assert result.termination == "iteration_cap"
        assert result.iterations == 2

    def test_stderr_nan_on_penalty_plateau(self):
        # The penalty is flat, so the Jacobian at the returned point is zero.
        result = fit(self._plateau_problem())
        assert np.isnan(result.stderr["kappa[0]"])

    def test_stderr_nan_for_slot_the_data_ignore(self):
        # With the pump off the model does not depend on g0 at all: the fit
        # converges but g0 is not determined, which 0.0 would misstate.
        trace, cav, pump = make_trace(n_cav=0.0, points=201, noise_sigma=0.01)
        bindings = fixed_bindings(cav, MECH, 0.0)
        bindings["g0"] = ParamBinding.free("g0", 0.5, 0.1, 2.0)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.1 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        result = fit(FitProblem([FitDataset(trace, PumpScheme.RED, bindings)]))
        assert result.converged
        assert np.isnan(result.stderr["g0[0]"])
        assert np.isfinite(result.stderr["kappa[0]"])
        assert result.stderr["kappa[0]"] > 0

    def test_one_kernel_evaluation_per_dataset_per_jacobian(self, monkeypatch):
        # Every dataset is evaluated once for the start point and once per
        # trial step, accepted or rejected; that one evaluation gives the residual
        # and, at an accepted point, the Q and N the Jacobian blocks are built from,
        # so no accepted point is evaluated again.
        prob = joint_six_problem()
        calls = []

        def counted(*args, _inner=fitting.response_quadratic, **kwargs):
            calls.append(args[0])
            return _inner(*args, **kwargs)

        monkeypatch.setattr(fitting, "response_quadratic", counted)
        result = fit(prob)
        assert result.termination == "reduction_tol"
        assert result.iterations > len(result.cost_history) - 1  # a rejected trial
        assert len(calls) == len(prob.datasets) * (1 + result.iterations)
        assert len(calls) == len(prob.datasets) * result.n_residual_evals

    def test_n_residual_evals_counts_every_residuals_call(self, monkeypatch):
        # The start point and each trial step.
        prob, calls = joint_six_problem(), []

        def counted(*args, _inner=fitting.residuals):
            calls.append(args)
            return _inner(*args)

        monkeypatch.setattr(fitting, "residuals", counted)
        result = fit(prob)
        assert result.converged
        assert result.n_residual_evals == len(calls) == 1 + result.iterations

    @pytest.mark.parametrize("kappa_start", [1.1, 0.4], ids=["fitted", "rejected"])
    def test_residuals_are_those_at_the_returned_point(self, kappa_start):
        # At 0.4 kappa the start is below kappa_ext: the model rejects the
        # cavity there, and the fit returns NaN rows instead of the penalty.
        trace, cav, _ = make_trace(points=201, noise_sigma=0.01)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", kappa_start * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(problem)
        expected = residuals(problem, list(result.values.values()))[0]
        assert (result.termination == "penalty") is (kappa_start < 1)
        if kappa_start < 1:
            assert np.all(expected == fitting.PENALTY_RESIDUAL)
            expected = np.full(problem.n_points, np.nan)
        assert np.array_equal(result.residuals, expected, equal_nan=True)

    def test_dataset_params_resolved(self):
        trace, cav, pump = make_trace(points=101)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED,
                                         fixed_bindings(cav, MECH, N_RED_MAX))])
        result = fit(problem)
        assert result.dataset_params[0]["kappa"] == cav.kappa
        assert result.dataset_params[0]["n_cav"] == N_RED_MAX

    def test_dataset_keeps_no_trace_and_one_offset_array(self):
        trace, cav, _ = make_trace(points=11)
        ds = FitDataset(trace, PumpScheme.RED, fixed_bindings(cav, MECH, N_RED_MAX))
        assert ds.offsets is trace.omega
        assert not any(isinstance(v, SweepTrace) for v in vars(ds).values())

    def test_file_trace_keeps_the_absolute_probe_axis(self, tmp_path):
        # Probe and pump within a factor of 2: probe - pump is exact (Sterbenz),
        # so a file-driven fit sees the file's probe axis bit for bit.
        trace, cav, pump = make_trace(points=401)
        path = tmp_path / "trace.csv"
        write_dataset(path, DatasetFile.from_trace(trace))
        data = read_dataset(path)
        ds = FitDataset(data.to_trace(), PumpScheme.RED, fixed_bindings(cav, MECH, N_RED_MAX))
        assert np.array_equal(ds.omega_p, TWO_PI * data.probe_freq_hz)
        rng = np.random.default_rng(12)
        for pump_hz in rng.uniform(1e8, 2e10, 50):
            probe = np.sort(pump_hz * rng.uniform(0.6, 1.9, 64))
            f = DatasetFile(probe, np.full(64, pump_hz), np.ones(64), {"scheme": "red"})
            ds = FitDataset(f.to_trace(), PumpScheme.RED, fixed_bindings(cav, MECH, N_RED_MAX))
            assert np.array_equal(ds.omega_p, TWO_PI * probe)


    @staticmethod
    def _plateau_problem():
        # kappa starts below kappa_ext: the model rejects the cavity there.
        trace, cav, pump = make_trace(points=201)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 0.4 * cav.kappa, TWO_PI * 20e3, TWO_PI * 200e3)
        return FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])


def joint_six_datasets(points=201):
    """The acceptance-09 shape as ``(trace, scheme, bindings)`` triples: red
    and blue traces at three temperatures, omega_c and kappa free per trace,
    omega_m and gamma_m shared per temperature (6 datasets, 18 slots)."""
    datasets = []
    for temp, gamma_hz, dom_hz in [(250, 15.3, 0.0), (350, 20.0, 7.0), (450, 26.8, 12.0)]:
        mech = MechanicalParams.from_hz(3.8e6 + dom_hz, gamma_hz, 0.56)
        for scheme, n_cav in [(PumpScheme.RED, N_RED_MAX), (PumpScheme.BLUE, N_BLUE_MAX)]:
            trace, cav, _ = make_trace(scheme, 84e3, n_cav, mech=mech, points=points,
                                       noise_sigma=0.01, seed=len(datasets))
            b = fixed_bindings(cav, mech, n_cav)
            b["omega_c"] = ParamBinding.free(
                "omega_c", cav.omega_c + 0.2 * cav.kappa,
                cav.omega_c - 5 * cav.kappa, cav.omega_c + 5 * cav.kappa)
            b["kappa"] = ParamBinding.free(
                "kappa", 1.05 * cav.kappa, 0.5 * cav.kappa, 2 * cav.kappa)
            b["omega_m"] = ParamBinding.shared(
                "omega_m", f"m{temp}", TWO_PI * 3.8e6,
                TWO_PI * (3.8e6 - 200), TWO_PI * (3.8e6 + 200))
            b["gamma_m"] = ParamBinding.shared(
                "gamma_m", f"m{temp}", TWO_PI * 18.0, TWO_PI * 2.0, TWO_PI * 200.0)
            datasets.append((trace, scheme, b))
    return datasets


def joint_six_problem(points=201):
    return FitProblem([FitDataset(*d) for d in joint_six_datasets(points)])


def internal_start(problem):
    return fitting._to_internal(problem.init_values, problem._log_flags)


def dense_residuals(problem, values):
    """``residuals`` with its Jacobian blocks written into the dense
    (n_points, n_parameters) matrix they stand for, zero where no block is."""
    r, make_blocks = residuals(problem, values)
    jac = np.zeros((problem.n_points, problem.n_parameters))
    for i, block in make_blocks().items():
        jac[problem._rows[i], list(problem._slot_of[i].values())] = block.T
    return r, jac


def single_trace_problem(scheme, kappa_ext_hz=KAPPA_EXT_HZ):
    """One noisy 1601-point trace with the joint fit's free slots, started off the truth."""
    n_cav = N_RED_MAX if scheme is PumpScheme.RED else N_BLUE_MAX
    trace, cav, _ = make_trace(scheme, 84e3, n_cav, points=1601, noise_sigma=0.01, seed=5,
                               kappa_ext_hz=kappa_ext_hz)
    bindings = fixed_bindings(cav, MECH, n_cav)
    bindings["omega_c"] = ParamBinding.free(
        "omega_c", cav.omega_c + 0.2 * cav.kappa, cav.omega_c - 5 * cav.kappa,
        cav.omega_c + 5 * cav.kappa)
    bindings["kappa"] = ParamBinding.free(
        "kappa", 1.05 * cav.kappa, 0.5 * cav.kappa, 2 * cav.kappa)
    bindings["omega_m"] = ParamBinding.free(
        "omega_m", MECH.omega_m + TWO_PI * 2.0, MECH.omega_m - TWO_PI * 200,
        MECH.omega_m + TWO_PI * 200)
    bindings["gamma_m"] = ParamBinding.free(
        "gamma_m", TWO_PI * 18.0, TWO_PI * 2.0, TWO_PI * 200.0)
    return FitProblem([FitDataset(trace, scheme, bindings)])


def jacobian(problem, x):
    """The dense Jacobian of ``residuals`` at the internal point x."""
    return dense_residuals(problem, fitting._to_physical(x, problem._log_flags))[1]


def assert_matches_central_difference(problem, x):
    """Each Jacobian column at the internal point x within 1e-5 of its largest
    entry of the central difference.  Linear slots (omega_c, kappa_ext, omega_m) step
    by 0.01 rad/s, far below gamma_eff (64 rad/s blue, 218 red), log slots by 1e-6; the
    difference's truncation and rounding errors stay below 1e-7 of that scale."""
    steps = np.where(problem._log_flags, 1e-6, 1e-2)
    jac, ref = jacobian(problem, x), central_difference(problem, x, steps)
    for j, slot in enumerate(problem.slot_names):
        scale = np.max(np.abs(ref[:, j]))
        assert scale > 0, slot
        assert np.max(np.abs(jac[:, j] - ref[:, j])) <= 1e-5 * scale, slot


def central_difference(problem, x, steps):
    """Reference: each column from the stacked residual at x -/+ h, h from
    ``steps`` (internal units), divided by the float distance between the two."""
    def fun(v):
        return residuals(problem, fitting._to_physical(v, problem._log_flags))[0]

    columns = []
    for j, unit in enumerate(np.eye(len(x))):
        plus, minus = x + steps[j] * unit, x - steps[j] * unit
        columns.append((fun(plus) - fun(minus)) / (plus[j] - minus[j]))
    return np.column_stack(columns)


def all_free_problem(scheme, kappa_ext_hz=KAPPA_EXT_HZ, d_kappa=0.0):
    """One noisy trace with all seven parameters free, started off the truth; the pump
    ``d_kappa`` cavity linewidths off the sideband."""
    n_cav = N_RED_MAX if scheme is PumpScheme.RED else N_BLUE_MAX
    trace, cav, _ = make_trace(scheme, 84e3, n_cav, points=1601, noise_sigma=0.01, seed=5,
                               kappa_ext_hz=kappa_ext_hz, d_kappa=d_kappa)
    truth = {"omega_c": cav.omega_c, "kappa": cav.kappa, "kappa_ext": cav.kappa_ext,
             "omega_m": MECH.omega_m, "gamma_m": MECH.gamma_m, "g0": MECH.g0, "n_cav": n_cav}
    start = {"omega_c": cav.omega_c + 0.1 * cav.kappa, "kappa": 1.05 * cav.kappa,
             "kappa_ext": 0.95 * cav.kappa_ext, "omega_m": MECH.omega_m + TWO_PI * 2.0,
             "gamma_m": 1.1 * MECH.gamma_m, "g0": 1.02 * MECH.g0, "n_cav": 0.97 * n_cav}
    bindings = {name: ParamBinding.free(name, start[name], truth[name] - abs(truth[name]) / 2,
                                        truth[name] + abs(truth[name]) / 2)
                for name in fitting.PARAM_NAMES}
    return FitProblem([FitDataset(trace, scheme, bindings)])


class TestSparseJacobian:
    @pytest.mark.parametrize("scheme, kappa_ext_hz, d_kappa", [
        (PumpScheme.RED, KAPPA_EXT_HZ, 0.0), (PumpScheme.BLUE, KAPPA_EXT_HZ, 0.0),
        (PumpScheme.RED, KAPPA_EXT_HZ, 0.5), (PumpScheme.BLUE, KAPPA_EXT_HZ, 0.5),
        (PumpScheme.RED, 840.0, 0.0)],
        ids=["red", "blue", "red-off-sideband", "blue-off-sideband", "red-undercoupled"])
    def test_all_seven_slots_equal_the_central_difference(self, scheme, kappa_ext_hz, d_kappa):
        # The pump on the sideband and 0.5 kappa off it.  At kappa_ext/kappa = 0.01,
        # N is close to Q and 1 - S21 small.
        prob = all_free_problem(scheme, kappa_ext_hz, d_kappa)
        assert set(prob.slot_params) == set(fitting.PARAM_NAMES)
        assert_matches_central_difference(prob, internal_start(prob))

    @pytest.mark.parametrize("at", ["start", "fitted"])
    @pytest.mark.parametrize("problem", [
        joint_six_problem, partial(single_trace_problem, PumpScheme.RED),
        partial(single_trace_problem, PumpScheme.BLUE),
        partial(single_trace_problem, PumpScheme.RED, 840.0)],
        ids=["joint-six", "red", "blue", "red-undercoupled"])
    def test_blocks_equal_the_central_difference(self, problem, at):
        prob = problem()
        x = internal_start(prob)
        if at == "fitted":
            x = fitting._to_internal(list(fit(prob).values.values()), prob._log_flags)
        assert_matches_central_difference(prob, x)

    def test_columns_fill_only_the_rows_of_datasets_that_read_the_slot(self):
        prob = joint_six_problem()
        jac = jacobian(prob, internal_start(prob))
        readers = [[i for i, slot_of in enumerate(prob._slot_of) if j in slot_of.values()]
                   for j in range(prob.n_parameters)]
        # 12 free slots read by 1 dataset, 6 shared slots read by 2.
        assert sorted(map(len, readers)) == [1] * 12 + [2] * 6
        for j, slot in enumerate(prob.slot_names):
            for i, rows in enumerate(prob._rows):
                assert bool(np.all(jac[rows, j] != 0)) is (i in readers[j]), (slot, i)
                assert bool(np.any(jac[rows, j])) is (i in readers[j]), (slot, i)

    def test_rejected_dataset_gets_zero_rows_and_the_fit_ends_on_penalty(self):
        # gamma_m of trace 0 is held at 0, which MechanicalParams rejects.
        (trace, scheme, bindings), *rest = joint_six_datasets()
        bindings = {**bindings, "gamma_m": ParamBinding.fixed("gamma_m", 0.0)}
        prob = FitProblem([FitDataset(trace, scheme, bindings)]
                          + [FitDataset(*d) for d in rest])
        whole = joint_six_problem()
        jac = jacobian(prob, internal_start(prob))
        ref = jacobian(whole, internal_start(whole))
        blocks = residuals(prob, fitting._to_physical(internal_start(prob), prob._log_flags))[1]()
        assert sorted(blocks) == [1, 2, 3, 4, 5]
        assert not np.any(jac[prob._rows[0]])
        others = slice(prob._rows[1].start, None)
        for j, slot in enumerate(prob.slot_names):
            assert np.array_equal(jac[others, j], ref[others, whole.slot_names.index(slot)])
        # The penalty rows would inflate the residual variance, and every error with it.
        result = fit(prob)
        assert result.termination == "penalty"
        assert np.all(np.isnan(list(result.stderr.values())))

    def test_non_finite_transmission_gets_the_penalty(self, monkeypatch):
        # One NaN sample from the kernel for dataset 0 rejects that whole
        # dataset: penalty rows, zero Jacobian rows, and a fit that ends on
        # the penalty; the other datasets keep their rows.
        prob = joint_six_problem()
        x = internal_start(prob)
        r_ref, jac_ref = dense_residuals(prob, fitting._to_physical(x, prob._log_flags))

        def broken(omega, *args, _inner=fitting.response_quadratic, **kwargs):
            terms = _inner(omega, *args, **kwargs)
            if omega is prob.datasets[0].offsets:
                terms[0, 7] = np.nan  # Re Q
            return terms

        monkeypatch.setattr(fitting, "response_quadratic", broken)
        r, jac = dense_residuals(prob, fitting._to_physical(x, prob._log_flags))
        rows, others = prob._rows[0], slice(prob._rows[1].start, None)
        assert np.all(r[rows] == fitting.PENALTY_RESIDUAL)
        assert not np.any(jac[rows])
        assert np.array_equal(r[others], r_ref[others])
        assert np.array_equal(jac[others], jac_ref[others])
        result = fit(prob)
        assert not result.converged
        assert result.termination == "penalty"
        assert np.all(np.isnan(result.residuals[rows]))

    @pytest.mark.parametrize("at", ["start", "fitted"])
    def test_normal_equations_equal_the_dense_products(self, at, monkeypatch):
        # Each shared slot is read by two datasets, so its entries of J^T J
        # and J^T r are summed from two blocks.
        prob, decomposed = joint_six_problem(), []
        values = (fitting._to_physical(internal_start(prob), prob._log_flags) if at == "start"
                  else np.array(list(fit(prob).values.values())))
        r, make_blocks = residuals(prob, values)
        blocks = make_blocks()
        dense = dense_residuals(prob, values)[1]
        assert sorted(blocks) == list(range(6))
        assert all(block.shape == (4, 201) for block in blocks.values())
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, _inner=np.linalg.eigh: decomposed.append(a) or _inner(a))
        w, v, g_scaled, scale = fitting._normal_equations(prob, r, blocks)
        # The scaled matrix is decomposed once; no direction is cut here.
        (a_scaled,) = decomposed
        assert len(w) == prob.n_parameters and np.all(w >= fitting.RANK_TOL)
        np.testing.assert_allclose((v * w) @ v.T, a_scaled, rtol=0, atol=1e-13)
        # S = diag(J^T J)^(-1/2) scales both once; undo it to compare J^T J and J^T r.
        np.testing.assert_allclose(scale, 1 / np.sqrt(np.diag(dense.T @ dense)),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.diag(a_scaled), 1.0, rtol=1e-14, atol=0)
        a, g = a_scaled / np.outer(scale, scale), g_scaled / scale
        if at == "start":
            np.testing.assert_allclose(a, dense.T @ dense, rtol=1e-12, atol=0)
            np.testing.assert_allclose(g, dense.T @ r, rtol=1e-12, atol=0)
        # At the minimum J^T r cancels to ~0: relative to the sums of |terms|.
        absd = np.abs(dense)
        assert np.all(np.abs(a - dense.T @ dense) <= 1e-12 * (absd.T @ absd))
        assert np.all(np.abs(g - dense.T @ r) <= 1e-12 * (absd.T @ np.abs(r)))
        readers = (dense != 0).astype(int)
        assert np.array_equal(a != 0, readers.T @ readers > 0)

    def test_dataset_with_every_slot_fixed_adds_no_block(self):
        # Trace 1 holds every parameter fixed: its residual rows are computed
        # but it adds no block, and the fit of trace 0's kappa still runs.
        pumped, cav, _ = make_trace(points=201, noise_sigma=0.01, seed=3)
        held, _, _ = make_trace(points=201, noise_sigma=0.01, seed=4)
        free = fixed_bindings(cav, MECH, N_RED_MAX)
        free["kappa"] = ParamBinding.free(
            "kappa", 1.1 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
        fixed = FitDataset(held, PumpScheme.RED, fixed_bindings(cav, MECH, N_RED_MAX))
        prob = FitProblem([FitDataset(pumped, PumpScheme.RED, free), fixed])
        r, make_blocks = residuals(prob, prob.init_values)
        blocks = make_blocks()
        assert list(blocks) == [0] and blocks[0].shape == (1, 201)
        r_alone, make_blocks_alone = residuals(FitProblem([fixed]), [])
        assert np.array_equal(r[prob._rows[1]], r_alone) and make_blocks_alone() == {}
        result = fit(prob)
        assert result.converged
        assert result.values["kappa[0]"] == pytest.approx(cav.kappa, rel=0.02)
        assert np.isfinite(result.stderr["kappa[0]"]) and result.stderr["kappa[0]"] > 0

    @staticmethod
    def _count_model_calls(monkeypatch):
        """Count the calls of ``response_quadratic`` and of the Jacobian closures."""
        counts = Counter()

        def counted(*args, _inner=fitting.response_quadratic, **kwargs):
            counts["response_quadratic"] += 1
            return _inner(*args, **kwargs)

        def counted_residuals(*args, _inner=fitting.residuals):
            r, make_blocks = _inner(*args)

            def counted_blocks():
                counts["jacobian"] += 1
                return make_blocks()
            return r, counted_blocks

        monkeypatch.setattr(fitting, "response_quadratic", counted)
        monkeypatch.setattr(fitting, "residuals", counted_residuals)
        return counts

    def test_one_kernel_evaluation_per_dataset(self, monkeypatch):
        # One response_quadratic per dataset gives its residual and its block.
        prob = joint_six_problem()
        counts = self._count_model_calls(monkeypatch)
        jacobian(prob, internal_start(prob))
        assert counts == {"response_quadratic": 6}

    def test_blocks_built_only_at_accepted_points(self, monkeypatch):
        # The kernel runs at the start and at every trial step; the blocks only at
        # the start and each accepted step.
        prob = joint_six_problem()
        counts = self._count_model_calls(monkeypatch)
        result = fit(prob)
        assert result.iterations > len(result.cost_history) - 1  # a rejected trial
        assert counts == {"response_quadratic": len(prob.datasets) * result.n_residual_evals,
                          "jacobian": len(result.cost_history)}

    def test_stderr_from_the_jacobian_at_the_returned_point(self, monkeypatch):
        # The fit's last trial is rejected: a Jacobian kept from that trial, not
        # from the returned point, would give other standard errors.
        prob, norms = all_free_problem(PumpScheme.RED), []

        def recorded(*args, _inner=fitting.residuals):
            out = _inner(*args)
            norms.append(float(np.linalg.norm(out[0])))
            return out

        monkeypatch.setattr(fitting, "residuals", recorded)
        result = fit(prob)
        assert norms[-1] > result.cost_history[-1]
        values = np.array(list(result.values.values()))
        r, make_blocks = residuals(prob, values)
        assert np.array_equal(r, result.residuals)
        w, v, _, scale = fitting._normal_equations(prob, r, make_blocks())
        dense = dense_residuals(prob, values)[1]
        expected = fitting._uncertainties(prob.n_points, w, v, scale,
                                          float(np.linalg.norm(r)), values, prob._log_flags)
        # NaN: a slot the data ignore, or one with weight in a direction whose squared
        # singular value of the column-normalised Jacobian is below RANK_TOL.  Here that
        # is g0 and n_cav, which enter the model only as g0^2 n_cav.
        determined = np.any(dense, axis=0)
        assert np.all(np.isnan(expected)[~determined])
        _, sv, vt = np.linalg.svd(dense / np.linalg.norm(dense, axis=0), full_matrices=False)
        undetermined = np.sum(vt[sv ** 2 < fitting.RANK_TOL] ** 2, axis=0) > fitting.RANK_TOL
        assert np.array_equal(np.isnan(expected), undetermined)
        assert list(np.array(prob.slot_names)[undetermined]) == ["g0[0]", "n_cav[0]"]
        assert np.array_equal(list(result.stderr.values()), expected, equal_nan=True)

    def test_zero_where_s21_vanishes(self):
        # Critically coupled bare notch with the pump on the cavity: S21 is
        # exactly 0 at zero offset, where |S21| has no derivative.
        cav = CavityParams.from_hz(F_C, 84e3, 84e3)
        grid = cav.kappa * np.arange(-300, 301) / 100
        s21 = probe_transmission(grid, PumpConfig(PumpScheme.RED, 0.0, n_cav=0.0), cav, MECH)
        trace = SweepTrace(grid, s21, {"pump_freq_hz": F_C})
        bindings = fixed_bindings(cav, MECH, 0.0)
        bindings["kappa_ext"] = ParamBinding.free("kappa_ext", cav.kappa, cav.kappa / 2, cav.kappa)
        bindings["omega_c"] = ParamBinding.free(
            "omega_c", cav.omega_c, cav.omega_c - cav.kappa, cav.omega_c + cav.kappa)
        prob = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        jac = jacobian(prob, internal_start(prob))
        zero = np.flatnonzero(s21 == 0)
        assert zero.tolist() == [300]
        assert np.all(jac[zero] == 0)
        assert np.all(np.isfinite(jac)) and np.all(np.any(jac, axis=0))

    def test_stderr_nan_for_a_slot_its_only_reader_ignores(self):
        # Trace 1 has the pump off, so its free g0 moves nothing; gamma_m is
        # shared with the pumped trace 0, which determines it alone.
        pumped, cav, _ = make_trace(points=201, noise_sigma=0.01, seed=3)
        off, _, _ = make_trace(n_cav=0.0, points=201, noise_sigma=0.01, seed=4)
        datasets = []
        for trace, n_cav in [(pumped, N_RED_MAX), (off, 0.0)]:
            b = fixed_bindings(cav, MECH, n_cav)
            b["kappa"] = ParamBinding.free(
                "kappa", 1.1 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
            b["gamma_m"] = ParamBinding.shared(
                "gamma_m", "t", 1.1 * MECH.gamma_m, 0.1 * MECH.gamma_m, 10 * MECH.gamma_m)
            if n_cav == 0.0:
                b["g0"] = ParamBinding.free("g0", 0.5, 0.1, 2.0)
            datasets.append(FitDataset(trace, PumpScheme.RED, b))
        result = fit(FitProblem(datasets))
        assert result.converged
        assert np.isnan(result.stderr["g0[1]"])
        for slot in ("kappa[0]", "kappa[1]", "gamma_m@t"):
            assert np.isfinite(result.stderr[slot]) and result.stderr[slot] > 0

    def test_stderr_nan_where_the_jacobian_squares_underflow(self):
        # n_cav held at 1e-300 leaves g0's Jacobian entries near 1e-306: not
        # zero, but their squares underflow to a zero diagonal of J^T J, so
        # g0 is not determined and its stderr must not read 0.
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1e-300)
        grid = MECH.omega_m + np.linspace(-2 * cav.kappa, 2 * cav.kappa, 401)
        trace = add_noise(simulate_line_cut(pump, cav, MECH, grid), NoiseSpec(0.01, seed=1))
        bindings = fixed_bindings(cav, MECH, 1e-300)
        bindings["omega_c"] = ParamBinding.free(
            "omega_c", cav.omega_c + 0.1 * cav.kappa, cav.omega_c - cav.kappa,
            cav.omega_c + cav.kappa)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 1.05 * cav.kappa, 0.5 * cav.kappa, 2 * cav.kappa)
        bindings["g0"] = ParamBinding.free("g0", MECH.g0, MECH.g0 / 2, 2 * MECH.g0)
        prob = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
        result = fit(prob)
        assert result.converged
        g0 = jacobian(prob, fitting._to_internal(list(result.values.values()), prob._log_flags))[
            :, prob.slot_names.index("g0[0]")]
        assert 0 < np.max(np.abs(g0)) < 1e-300 and np.sum(g0 ** 2) == 0
        assert np.isnan(result.stderr["g0[0]"])
        for slot in ("omega_c[0]", "kappa[0]"):
            assert np.isfinite(result.stderr[slot]) and result.stderr[slot] > 0

    def test_stderr_nan_for_g0_and_n_cav_which_enter_only_as_their_product(self):
        # The model reads g0 and n_cav only as g0^2 n_cav: in log coordinates their
        # Jacobian columns are proportional, so the scaled normal matrix has an
        # eigenvalue near 1e-16, under RANK_TOL.  Neither slot is determined, and no
        # step moves along that direction, so g0^2 / n_cav keeps its start value.
        trace, cav, _ = make_trace(points=1601, noise_sigma=0.01, seed=3)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["omega_m"] = ParamBinding.free(
            "omega_m", MECH.omega_m, 0.99 * MECH.omega_m, 1.01 * MECH.omega_m)
        for name, value in (("gamma_m", MECH.gamma_m), ("g0", MECH.g0), ("n_cav", N_RED_MAX)):
            bindings[name] = ParamBinding.free(name, value, value / 10, 10 * value)
        result = fit(FitProblem([FitDataset(trace, PumpScheme.RED, bindings)]))
        assert result.converged and result.termination == "reduction_tol"
        assert np.isnan(result.stderr["g0[0]"]) and np.isnan(result.stderr["n_cav[0]"])
        for slot in ("omega_m[0]", "gamma_m[0]"):
            assert np.isfinite(result.stderr[slot]) and result.stderr[slot] > 0
        v = result.values
        assert v["g0[0]"] ** 2 / v["n_cav[0]"] == pytest.approx(MECH.g0 ** 2 / N_RED_MAX, rel=1e-12)
        assert v["g0[0]"] ** 2 * v["n_cav[0]"] != pytest.approx(MECH.g0 ** 2 * N_RED_MAX, rel=1e-3)


class TestLinewidthExtraction:
    def test_red_fwhm_matches_backaction(self):
        trace, cav, pump = make_trace(points=10001)
        fwhm = extract_linewidth(trace)
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_RED_HZ, rel=0.02)

    def test_blue_fwhm_matches_backaction(self):
        trace, cav, pump = make_trace(PumpScheme.BLUE, kappa_hz=83e3,
                                      n_cav=N_BLUE_MAX, points=10001)
        fwhm = extract_linewidth(trace)
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_BLUE_HZ, rel=0.02)

    def test_no_pump_no_feature(self):
        trace, cav, pump = make_trace(n_cav=0.0, points=2001)
        with pytest.raises(FeatureNotFound):
            extract_linewidth(trace)

    def test_flat_trace_no_feature(self):
        omega = np.linspace(0.0, 1.0, 501)
        trace = SweepTrace(omega, np.full(501, 0.56))
        with pytest.raises(FeatureNotFound):
            extract_linewidth(trace)

    def test_coarse_grid_underresolved(self):
        # ~1.3 grid steps per FWHM: feature present but unmeasurable.
        trace, cav, pump = make_trace(points=801, half_width=500.0)
        with pytest.raises(UnderResolved):
            extract_linewidth(trace)

    def test_feature_cut_by_the_trace_end_has_no_crossing(self):
        # The grid ends on the red sideband, at the top of the transparency
        # peak, so the feature has no half crossing on its right.
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=N_RED_MAX)
        grid = np.linspace(MECH.omega_m - 400 * TWO_PI * GAMMA_EFF_RED_HZ, MECH.omega_m, 801)
        with pytest.raises(FeatureNotFound,
                           match="^feature has no half-contrast crossing inside the trace$"):
            extract_linewidth(simulate_line_cut(pump, cav, MECH, grid))

    @pytest.mark.parametrize("points", range(2, 20))
    def test_trace_shorter_than_the_resolution_limit_underresolved(self, points):
        # Its edge windows would take 3 points each, past the end of a 2-point trace.
        trace, cav, pump = make_trace(points=points)
        with pytest.raises(UnderResolved, match=f"^only {points} grid points in the trace "):
            extract_linewidth(trace)

    @pytest.mark.parametrize("scheme, kappa_hz, n_cav, gamma_eff_hz", [
        (PumpScheme.RED, 84e3, N_RED_MAX, GAMMA_EFF_RED_HZ),
        (PumpScheme.BLUE, 83e3, N_BLUE_MAX, GAMMA_EFF_BLUE_HZ)], ids=["red", "blue"])
    @pytest.mark.parametrize("span", [25, 100])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_feature_cut_at_its_top_not_measured(self, scheme, kappa_hz, n_cav, gamma_eff_hz,
                                                 span, sigma):
        # 401 points from span gamma_eff below the sideband up to it: the
        # edge windows lie inside the feature, and the width read there
        # would be 16 (span 25) or 65 (span 100) gamma_eff.
        cav = cav_hz(kappa_hz)
        pump = PumpConfig(scheme, scheme.sign * MECH.omega_m, n_cav=n_cav)
        side = -scheme.sign * MECH.omega_m
        grid = np.linspace(side - span * TWO_PI * gamma_eff_hz, side, 401)
        trace = simulate_line_cut(pump, cav, MECH, grid)
        if sigma:
            trace = add_noise(trace, NoiseSpec(sigma, seed=1))
        with pytest.raises(FeatureNotFound, match="^feature reaches the trace edges"):
            extract_linewidth(trace)

    @pytest.mark.parametrize("scheme, kappa_hz, n_cav, gamma_eff_hz, sigma", [
        (PumpScheme.RED, 84e3, N_RED_MAX, GAMMA_EFF_RED_HZ, 0.05),
        (PumpScheme.BLUE, 83e3, N_BLUE_MAX, GAMMA_EFF_BLUE_HZ, 0.02)], ids=["red", "blue"])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_noisy_feature_cut_at_its_top_not_measured(self, scheme, kappa_hz, n_cav,
                                                       gamma_eff_hz, sigma, side):
        # 401 points over 25 gamma_eff from the sideband: at this noise the
        # edge rms stays under twice the noise estimate, and the width read
        # would be 10 to 15 gamma_eff, but a half crossing lies less than one
        # measured width from its end of the trace.
        cav = cav_hz(kappa_hz)
        pump = PumpConfig(scheme, scheme.sign * MECH.omega_m, n_cav=n_cav)
        top = -scheme.sign * MECH.omega_m
        grid = np.sort(np.linspace(top, top + side * 25 * TWO_PI * gamma_eff_hz, 401))
        for seed in range(20):
            trace = add_noise(simulate_line_cut(pump, cav, MECH, grid), NoiseSpec(sigma, seed))
            with pytest.raises(FeatureNotFound, match="^feature lies less than its measured "
                                                      "width from a trace end$"):
                extract_linewidth(trace)

    def test_works_on_magnitude_only_trace(self):
        trace, cav, pump = make_trace(points=10001)
        mag_trace = SweepTrace(trace.omega, trace.magnitude(), meta=trace.meta)
        fwhm = extract_linewidth(mag_trace)
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_RED_HZ, rel=0.02)

    @pytest.mark.parametrize("scheme, kappa_hz, n_cav", [
        (PumpScheme.RED, 84e3, N_RED_MAX), (PumpScheme.BLUE, 83e3, N_BLUE_MAX)])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_width_equals_scalar_walk_reference(self, scheme, kappa_hz, n_cav, sigma):
        # The same arithmetic as extract_linewidth, with each crossing found
        # by a scalar walk outward from the extremum: the widths are equal.
        # At sigma 1e-2 the red trace crosses the half level six times, so
        # only the crossings nearest the extremum give the reference width.
        trace, cav, pump = make_trace(scheme, kappa_hz, n_cav, points=2001,
                                      noise_sigma=sigma, seed=3)
        power, axis = trace.magnitude() ** 2, trace.omega
        n = len(power)
        k = max(3, n // 20)
        edge = np.concatenate([np.arange(k), np.arange(n - k, n)])
        x = (axis - axis[n // 2]) / (axis[-1] - axis[0])
        dev = power - np.polyval(np.polyfit(x[edge], power[edge], 2), x)
        idx = int(np.argmax(np.abs(dev)))
        half = float(dev[idx]) / 2.0

        def crossing(js):
            for j in js:
                if (dev[j] - half) * (dev[j + 1] - half) <= 0 and dev[j + 1] != dev[j]:
                    frac = (half - dev[j]) / (dev[j + 1] - dev[j])
                    return axis[j] + frac * (axis[j + 1] - axis[j])

        left = crossing(range(idx - 1, -1, -1))
        right = crossing(range(idx, n - 1))
        assert extract_linewidth(trace) == float(right - left)
