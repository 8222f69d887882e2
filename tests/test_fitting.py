"""Fit-engine tests: residuals, the damped least-squares loop and linewidth
extraction, all validated by round-trips against the sweep
generator rather than against any external fitter.
"""

import numpy as np
import pytest

from omitbench import fitting
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


def cav_hz(kappa_hz):
    return CavityParams.from_hz(F_C, kappa_hz, KAPPA_EXT_HZ)


def make_trace(scheme=PumpScheme.RED, kappa_hz=84e3, n_cav=N_RED_MAX,
               mech=MECH, points=801, noise_sigma=0.0, seed=0,
               half_width=25.0):
    cav = cav_hz(kappa_hz)
    pump = PumpConfig(scheme, scheme.sign * mech.omega_m, n_cav=n_cav)
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
        r = residuals(problem, np.array([]))
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
        r = residuals(problem, np.array([2 * cav.kappa]))
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
        r = residuals(problem, np.array([n_crit]))
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
        r = residuals(problem, np.array([0.5 * cav.kappa_ext]))
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
        assert result.rms_residual == pytest.approx(1e3)

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

    def test_one_jacobian_per_accepted_point(self, monkeypatch):
        # One residual for the start point, one per trial step and one
        # central-difference Jacobian per accepted point, the last of which
        # also gives the standard errors.  This fit ends on a rejected step.
        prob, _, _ = self._shared_pair_problem()
        calls = []
        inner = fitting.residuals

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(fitting, "residuals", counted)
        result = fit(prob)
        assert len(calls) == (1 + result.iterations + 2 * prob.n_parameters
                              * len(result.cost_history))

    def test_dataset_params_resolved(self):
        trace, cav, pump = make_trace(points=101)
        problem = FitProblem([FitDataset(trace, PumpScheme.RED,
                                         fixed_bindings(cav, MECH, N_RED_MAX))])
        result = fit(problem)
        assert result.dataset_params[0]["kappa"] == cav.kappa
        assert result.dataset_params[0]["n_cav"] == N_RED_MAX

    def test_offset_and_absolute_axes_fit_identically(self):
        trace, cav, pump = make_trace(points=401)
        absolute = SweepTrace(trace.omega + TWO_PI * trace.meta["pump_freq_hz"],
                              trace.s21, axis="absolute", meta=trace.meta)
        def problem_for(t):
            b = fixed_bindings(cav, MECH, N_RED_MAX)
            b["kappa"] = ParamBinding.free(
                "kappa", 1.2 * cav.kappa, 0.3 * cav.kappa, 3 * cav.kappa)
            return FitProblem([FitDataset(t, PumpScheme.RED, b)])
        k_off = fit(problem_for(trace)).values["kappa[0]"]
        k_abs = fit(problem_for(absolute)).values["kappa[0]"]
        assert k_off == pytest.approx(k_abs, rel=1e-9)


    @staticmethod
    def _plateau_problem():
        # kappa starts below kappa_ext: the model rejects the cavity there.
        trace, cav, pump = make_trace(points=201)
        bindings = fixed_bindings(cav, MECH, N_RED_MAX)
        bindings["kappa"] = ParamBinding.free(
            "kappa", 0.4 * cav.kappa, TWO_PI * 20e3, TWO_PI * 200e3)
        return FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])


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

    def test_works_on_magnitude_only_trace(self):
        trace, cav, pump = make_trace(points=10001)
        mag_trace = SweepTrace(trace.omega, trace.magnitude(), meta=trace.meta)
        fwhm = extract_linewidth(mag_trace)
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_RED_HZ, rel=0.02)
