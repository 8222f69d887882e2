"""Sweep generation tests: line cuts, maps, protocol emulation, noise.

Width checks use a local FWHM oracle measured on the power response
|S21|^2, where the narrow feature is an exact Lorentzian against the cavity
floor, so the half-contrast width equals the effective linewidth without
lineshape bias.  This oracle is written here, independent of the package's
own linewidth extraction.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omitbench.model import (
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    SingularDenominator,
    cavity_susceptibility,
    cooperativity,
    effective_linewidth,
    intracavity_photon_number,
    probe_transmission,
)
from omitbench.sweeps import (
    LINE_POINTS,
    PROTOCOL_STEPS,
    NoiseSpec,
    SweepMap,
    SweepTrace,
    add_noise,
    dbm_to_watts,
    default_delta_grid,
    default_line_grid,
    emulate_protocol,
    simulate_line_cut,
    simulate_map,
    watts_to_dbm,
)

F_C = 6e9
KAPPA_EXT_HZ = 44e3
MECH = MechanicalParams.from_hz(3.8e6, 15.3, 0.56)
N_RED_MAX = 1.3e6
N_BLUE_MAX = 3.4e5
PEAK_RED = 0.7691294685725261
DIP_BLUE = 0.2018060146738691
GAMMA_EFF_RED_HZ = 34.713333333333333
GAMMA_EFF_BLUE_HZ = 10.161493975903614


def cav_hz(kappa_hz):
    return CavityParams.from_hz(F_C, kappa_hz, KAPPA_EXT_HZ)


def oracle_fwhm(omega, mag):
    """Half-contrast full width of the feature in |S21|^2, by interpolation.

    Background is the median of the trace edges; the feature is the extremum
    of the background-subtracted power.  Returns width in the axis units.
    """
    power = np.asarray(mag, dtype=float) ** 2
    k = max(3, len(power) // 20)
    background = np.median(np.concatenate([power[:k], power[-k:]]))
    dev = power - background
    i = int(np.argmax(np.abs(dev)))
    half = dev[i] / 2.0
    left = right = None
    for j in range(i, 0, -1):
        if (dev[j - 1] - half) * (dev[j] - half) <= 0:
            frac = (half - dev[j - 1]) / (dev[j] - dev[j - 1])
            left = omega[j - 1] + frac * (omega[j] - omega[j - 1])
            break
    for j in range(i, len(dev) - 1):
        if (dev[j] - half) * (dev[j + 1] - half) <= 0:
            frac = (half - dev[j]) / (dev[j + 1] - dev[j])
            right = omega[j] + frac * (omega[j + 1] - omega[j])
            break
    assert left is not None and right is not None, "feature not bracketed"
    return right - left


def red_pump(n=N_RED_MAX):
    return PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=n)


def blue_pump(n=N_BLUE_MAX):
    return PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n)


class TestLineCut:
    def test_matches_model_pointwise(self):
        cav = cav_hz(84e3)
        pump = red_pump()
        grid = default_line_grid(pump, cav, MECH, points=101)
        trace = simulate_line_cut(pump, cav, MECH, grid)
        direct = probe_transmission(grid, pump, cav, MECH)
        assert np.array_equal(trace.s21, direct)
        assert trace.is_complex

    def test_no_pump_equals_bare_notch(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=0.0)
        grid = np.linspace(MECH.omega_m - cav.kappa, MECH.omega_m + cav.kappa, 401)
        trace = simulate_line_cut(pump, cav, MECH, grid)
        bare = 1.0 - 0.5 * cav.kappa_ext * cavity_susceptibility(
            grid, pump.delta, cav.kappa)
        assert np.array_equal(trace.s21, bare)

    def test_red_peak_on_sideband(self):
        cav = cav_hz(84e3)
        pump = red_pump()
        grid = MECH.omega_m + np.linspace(-50, 50, 2001) * MECH.gamma_m
        trace = simulate_line_cut(pump, cav, MECH, grid)
        mags = trace.magnitude()
        assert int(np.argmax(mags)) == 1000
        assert mags[1000] == pytest.approx(PEAK_RED, rel=1e-10)

    def test_blue_dip_on_sideband(self):
        cav = cav_hz(83e3)
        pump = blue_pump()
        grid = -MECH.omega_m + np.linspace(-50, 50, 2001) * MECH.gamma_m
        trace = simulate_line_cut(pump, cav, MECH, grid)
        mags = trace.magnitude()
        assert int(np.argmin(mags)) == 1000
        assert mags[1000] == pytest.approx(DIP_BLUE, rel=1e-10)

    def test_default_grid_shape_and_center(self):
        cav = cav_hz(84e3)
        pump = red_pump()
        grid = default_line_grid(pump, cav, MECH)
        assert len(grid) == LINE_POINTS
        assert grid[LINE_POINTS // 2] == pytest.approx(MECH.omega_m, rel=1e-12)
        g_eff = effective_linewidth(
            MECH, cooperativity(MECH.g0, N_RED_MAX, cav.kappa, MECH.gamma_m),
            PumpScheme.RED)
        assert grid[-1] - grid[0] == pytest.approx(50 * g_eff, rel=1e-12)

    def test_meta_records_pump(self):
        cav = cav_hz(84e3)
        trace = simulate_line_cut(red_pump(), cav, MECH,
                                  default_line_grid(red_pump(), cav, MECH, points=11),
                                  meta={"temperature_mK": 250})
        assert trace.meta["scheme"] == "red"
        assert trace.meta["temperature_mK"] == 250
        assert trace.meta["n_cav"] == N_RED_MAX
        assert trace.meta["pump_freq_hz"] == pytest.approx(F_C - 3.8e6, rel=1e-12)

    def test_fwhm_red_matches_backaction(self):
        cav = cav_hz(84e3)
        grid = MECH.omega_m + np.linspace(-25, 25, 10001) * TWO_PI * GAMMA_EFF_RED_HZ
        trace = simulate_line_cut(red_pump(), cav, MECH, grid)
        fwhm = oracle_fwhm(trace.omega, trace.magnitude())
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_RED_HZ, rel=0.02)

    def test_fwhm_blue_matches_backaction(self):
        cav = cav_hz(83e3)
        grid = -MECH.omega_m + np.linspace(-25, 25, 10001) * TWO_PI * GAMMA_EFF_BLUE_HZ
        trace = simulate_line_cut(blue_pump(), cav, MECH, grid)
        fwhm = oracle_fwhm(trace.omega, trace.magnitude())
        assert fwhm / TWO_PI == pytest.approx(GAMMA_EFF_BLUE_HZ, rel=0.02)

    def test_grid_refinement_stability(self):
        cav = cav_hz(84e3)
        pump = red_pump()
        coarse_grid = default_line_grid(pump, cav, MECH, points=801)
        dense_grid = default_line_grid(pump, cav, MECH, points=1601)
        coarse = simulate_line_cut(pump, cav, MECH, coarse_grid)
        dense = simulate_line_cut(pump, cav, MECH, dense_grid)
        loc_c = coarse_grid[np.argmax(coarse.magnitude())]
        loc_d = dense_grid[np.argmax(dense.magnitude())]
        step = coarse_grid[1] - coarse_grid[0]
        assert abs(loc_d - loc_c) < step

    def test_singularity_annotated_with_grid_point(self):
        cav = cav_hz(83e3)
        n = 1.01 * 83e3 * 15.3 / (4 * 0.56 ** 2)
        grid = np.linspace(-MECH.omega_m - MECH.gamma_m,
                           -MECH.omega_m + MECH.gamma_m, 11)
        with pytest.raises(SingularDenominator):
            simulate_line_cut(blue_pump(n), cav, MECH, grid)


class TestTraceType:
    def test_requires_increasing_axis(self):
        with pytest.raises(ValueError):
            SweepTrace(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            SweepTrace(np.array([1.0, 0.0]), np.ones(2))

    def test_rejects_nan_axis_point(self):
        # A NaN difference is neither positive nor non-positive.
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepTrace(np.array([0.0, np.nan, 1.0]), np.ones(3))
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepMap(np.array([0.0, 1.0]), np.array([0.0, np.nan]), np.ones((2, 2)))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            SweepTrace(np.array([0.0, 1.0]), np.ones(3))

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            SweepTrace(np.array([0.0, 1.0]), np.array([0.5, -0.1]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SweepTrace(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("build, message", [
        (lambda: SweepTrace(np.array([0.0]), np.ones(1)),
         "omega must be a 1-D axis with at least 2 points"),
        (lambda: SweepMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                          np.array([[1.0, np.inf], [1.0, 1.0]])), "map entries must be finite"),
    ], ids=["one-point-trace", "non-finite-map-entry"])
    def test_rejects_bad_input(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_magnitude_of_complex(self):
        t = SweepTrace(np.array([0.0, 1.0]), np.array([1j, 3 + 4j]))
        assert np.allclose(t.magnitude(), [1.0, 5.0])
        assert t.is_complex


class TestMap:
    def test_rows_equal_line_cuts_exactly(self):
        # Red and blue, each at a fixed photon number and at a fixed input
        # power, where every row has its own photon number.
        cav = cav_hz(84e3)
        for scheme, n in ((PumpScheme.RED, N_RED_MAX), (PumpScheme.BLUE, N_BLUE_MAX)):
            aligned = scheme.sign * MECH.omega_m
            per_watt = intracavity_photon_number(
                PumpConfig(scheme, aligned, p_in=1.0), cav)
            delta_grid = default_delta_grid(scheme, cav, MECH, points=41)
            omega_grid = default_line_grid(PumpConfig(scheme, aligned, n_cav=n),
                                           cav, MECH, points=101)
            for drive in ({"n_cav": n}, {"p_in": n / per_watt}):
                smap = simulate_map(scheme, cav, MECH, delta_grid, omega_grid,
                                    **drive)
                assert smap.s21_mag.shape == (41, 101)
                for r, delta in enumerate(delta_grid):
                    pump = PumpConfig(scheme, float(delta), **drive)
                    cut = simulate_line_cut(pump, cav, MECH, omega_grid)
                    assert np.array_equal(smap.s21_mag[r], cut.magnitude()), \
                        (scheme, drive, r)

    def test_single_row_at_aligned_detuning(self):
        cav = cav_hz(84e3)
        omega_grid = default_line_grid(red_pump(), cav, MECH, points=101)
        smap = simulate_map(PumpScheme.RED, cav, MECH,
                            np.array([-MECH.omega_m]), omega_grid,
                            n_cav=N_RED_MAX)
        cut = simulate_line_cut(red_pump(), cav, MECH, omega_grid)
        assert np.array_equal(smap.s21_mag[0], cut.magnitude())

    def test_delta_axis_centered_on_sideband(self):
        cav = cav_hz(84e3)
        grid = default_delta_grid(PumpScheme.RED, cav, MECH, points=201)
        assert grid[100] == pytest.approx(-MECH.omega_m, rel=1e-12)
        assert grid[-1] - grid[0] == pytest.approx(4 * cav.kappa, rel=1e-12)
        blue = default_delta_grid(PumpScheme.BLUE, cav, MECH, points=201)
        assert blue[100] == pytest.approx(+MECH.omega_m, rel=1e-12)

    def test_feature_excursion_halves_at_half_kappa_offset(self):
        # Detuning the pump so the sideband misses the cavity by kappa/2
        # costs about half the feature excursion.  The misaligned feature
        # is dispersive (part dip, part peak), so the excursion is measured
        # as the largest |deviation| from the pump-off response of the same
        # row; the purely upward transparency lobe falls off faster.
        cav = cav_hz(84e3)
        omega_grid = default_line_grid(red_pump(), cav, MECH, points=2001)
        deltas = np.array([-MECH.omega_m, -MECH.omega_m + 0.5 * cav.kappa])
        smap = simulate_map(PumpScheme.RED, cav, MECH, deltas, omega_grid,
                            n_cav=N_RED_MAX)
        excursions = []
        for r, delta in enumerate(deltas):
            bare = simulate_line_cut(
                PumpConfig(PumpScheme.RED, delta, n_cav=0.0), cav, MECH,
                omega_grid).magnitude()
            excursions.append(np.abs(smap.s21_mag[r] - bare).max())
        assert 0.35 < excursions[1] / excursions[0] < 0.55

    def test_transparency_contrast_collapses_at_two_kappa(self):
        # The upward transparency window height (the feature contrast of
        # the red scheme) is below 10% of the aligned value once the
        # sideband misses the cavity by 2 kappa.
        cav = cav_hz(84e3)
        omega_grid = default_line_grid(red_pump(), cav, MECH, points=2001)
        deltas = np.array([-MECH.omega_m - 2 * cav.kappa, -MECH.omega_m,
                           -MECH.omega_m + 2 * cav.kappa])
        smap = simulate_map(PumpScheme.RED, cav, MECH, deltas, omega_grid,
                            n_cav=N_RED_MAX)
        heights = []
        for r, delta in enumerate(deltas):
            bare = simulate_line_cut(
                PumpConfig(PumpScheme.RED, delta, n_cav=0.0), cav, MECH,
                omega_grid).magnitude()
            heights.append((smap.s21_mag[r] - bare).max())
        assert heights[0] < 0.1 * heights[1]
        assert heights[2] < 0.1 * heights[1]

    def test_feature_stays_pinned_to_mechanical_sideband(self):
        # Sweeping the pump across +-2% of Omega_m moves the cavity
        # alignment by ~0.9 kappa (tens of kHz) but the feature itself is
        # anchored by the mechanical response: the row maximum moves only
        # a few Hz, opposite to the misalignment, and never more than
        # ~Gamma_eff/2 (4 grid steps here).
        cav = cav_hz(84e3)
        omega_grid = default_line_grid(red_pump(), cav, MECH, points=401)
        step = omega_grid[1] - omega_grid[0]
        deltas = np.linspace(-1.02, -0.98, 9) * MECH.omega_m
        smap = simulate_map(PumpScheme.RED, cav, MECH, deltas, omega_grid,
                            n_cav=N_RED_MAX)
        for r, delta in enumerate(deltas):
            peak = omega_grid[int(np.argmax(smap.s21_mag[r]))]
            offset = peak - MECH.omega_m
            assert abs(offset) <= 5 * step
            misalignment = delta + MECH.omega_m
            if abs(misalignment) > 0.1 * cav.kappa:
                assert np.sign(offset) == -np.sign(misalignment)

    def test_blue_supercritical_row_raises(self):
        cav = cav_hz(83e3)
        n = 1.01 * 83e3 * 15.3 / (4 * 0.56 ** 2)
        omega_grid = default_line_grid(blue_pump(n * 0.5), cav, MECH, points=51)
        delta_grid = default_delta_grid(PumpScheme.BLUE, cav, MECH, points=5)
        # Only the aligned middle row is past the threshold.
        row = re.escape(f"singular response at scheme=blue, "
                        f"detuning_hz={delta_grid[2] / TWO_PI:g}, n_cav={n:g}: ")
        with pytest.raises(SingularDenominator, match=f"^{row}blue pumping past"):
            simulate_map(PumpScheme.BLUE, cav, MECH, delta_grid, omega_grid,
                         n_cav=n)

    def test_guard_names_the_singular_row_and_probe_offset(self):
        # C = 1 - 1e-10 leaves the aligned middle row a mechanical pole width
        # of about 1e-10 gamma_m, below the guard floor: the refusal names
        # that row, whichever probe offsets the grid holds.
        cav = cav_hz(83e3)
        n = (1.0 - 1e-10) * 83e3 * 15.3 / (4 * 0.56 ** 2)
        delta_grid = MECH.omega_m + np.array([-1.0, 0.0, 1.0]) * cav.kappa
        omega_grid = -MECH.omega_m + np.array([-1.0, 0.0, 1.0]) * MECH.gamma_m
        row = re.escape(f"singular response at scheme=blue, "
                        f"detuning_hz={delta_grid[1] / TWO_PI:g}, n_cav={n:g}: ")
        with pytest.raises(SingularDenominator,
                           match=f"^{row}blue pumping past the parametric instability"):
            simulate_map(PumpScheme.BLUE, cav, MECH, delta_grid, omega_grid, n_cav=n)

    def test_fixed_power_mode_varies_photons_per_row(self):
        cav = cav_hz(84e3)
        p_in = 2.1304681956869824e-08
        omega_grid = default_line_grid(red_pump(), cav, MECH, points=201)
        deltas = np.array([-MECH.omega_m - cav.kappa, -MECH.omega_m])
        fixed_power = simulate_map(PumpScheme.RED, cav, MECH, deltas,
                                   omega_grid, p_in=p_in)
        fixed_n = simulate_map(PumpScheme.RED, cav, MECH, deltas, omega_grid,
                               n_cav=N_RED_MAX)
        # Aligned rows nearly agree; the detuned row stores fewer photons
        # under fixed power, so its feature is weaker than at fixed n_cav.
        contrast_power = fixed_power.s21_mag[0].max() - fixed_power.s21_mag[0].min()
        contrast_n = fixed_n.s21_mag[0].max() - fixed_n.s21_mag[0].min()
        assert contrast_power < contrast_n

    def test_requires_exactly_one_drive(self):
        cav = cav_hz(84e3)
        grid = default_line_grid(red_pump(), cav, MECH, points=11)
        with pytest.raises(ValueError):
            simulate_map(PumpScheme.RED, cav, MECH, np.array([0.0]), grid)
        with pytest.raises(ValueError):
            simulate_map(PumpScheme.RED, cav, MECH, np.array([0.0]), grid,
                         n_cav=1.0, p_in=1.0)

    def test_empty_omega_grid_is_named(self):
        cav = cav_hz(84e3)
        with pytest.raises(ValueError, match="empty probe grid"):
            simulate_map(PumpScheme.RED, cav, MECH, np.array([-MECH.omega_m]),
                         np.array([]), n_cav=N_RED_MAX)

    def test_map_type_validation(self):
        with pytest.raises(ValueError):
            SweepMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                     np.ones((3, 2)))


class TestProtocol:
    def test_sweep_centers_cover_cavity_line(self):
        cav = cav_hz(84e3)
        traces = emulate_protocol(PumpScheme.RED, cav, MECH, n_cav=N_RED_MAX)
        centers = []
        for t in traces:
            omega_d = TWO_PI * t.meta["pump_freq_hz"]
            centers.append(omega_d + 0.5 * (t.omega[0] + t.omega[-1]))
        centers = np.array(centers)
        assert centers.min() <= cav.omega_c - cav.kappa
        assert centers.max() >= cav.omega_c + cav.kappa

    @pytest.mark.parametrize("scheme, n_cav", [(PumpScheme.RED, N_RED_MAX),
                                               (PumpScheme.BLUE, N_BLUE_MAX)],
                             ids=["red", "blue"])
    def test_pump_steps_are_the_default_delta_grid(self, scheme, n_cav):
        # At kappa 84 kHz, centre + linspace(-half, half) would miss 7 of
        # these 41 detunings by one ulp.
        cav = cav_hz(84e3)
        traces = emulate_protocol(scheme, cav, MECH, n_cav=n_cav)
        grid = default_delta_grid(scheme, cav, MECH, points=PROTOCOL_STEPS)
        assert [t.meta["pump_detuning_hz"] for t in traces] == (grid / TWO_PI).tolist()

    def test_edge_steps_lose_contrast(self):
        # Transparency window height at the extremal pump steps (sideband
        # missing the cavity by 2 kappa) is under 10% of the central step's.
        cav = cav_hz(84e3)
        traces = emulate_protocol(PumpScheme.RED, cav, MECH, n_cav=N_RED_MAX)
        def window_height(t):
            m = t.magnitude()
            floor = np.median(np.concatenate([m[:20], m[-20:]]))
            return (m - floor).max()
        center = window_height(traces[20])
        assert window_height(traces[0]) < 0.1 * center
        assert window_height(traces[-1]) < 0.1 * center


class TestNoise:
    def _flat_trace(self, n=10000):
        omega = np.linspace(0.0, 1.0, n)
        return SweepTrace(omega, np.ones(n, dtype=complex))

    def test_sigma_zero_identity(self):
        t = self._flat_trace(100)
        out = add_noise(t, NoiseSpec(0.0, seed=3))
        assert out is t

    def test_quadrature_statistics(self):
        out = add_noise(self._flat_trace(), NoiseSpec(0.01, seed=7))
        re = np.real(out.s21) - 1.0
        im = np.imag(out.s21)
        assert np.std(re) == pytest.approx(0.01, rel=0.05)
        assert np.std(im) == pytest.approx(0.01, rel=0.05)

    def test_determinism(self):
        a = add_noise(self._flat_trace(), NoiseSpec(0.01, seed=11))
        b = add_noise(self._flat_trace(), NoiseSpec(0.01, seed=11))
        assert np.array_equal(a.s21, b.s21)

    def test_seeds_differ(self):
        a = add_noise(self._flat_trace(), NoiseSpec(0.01, seed=1))
        b = add_noise(self._flat_trace(), NoiseSpec(0.01, seed=2))
        assert not np.array_equal(a.s21, b.s21)

    def test_magnitude_trace_rejected(self):
        omega = np.linspace(0.0, 1.0, 1000)
        t = SweepTrace(omega, np.full(1000, 1e-4))
        with pytest.raises(ValueError, match="complex trace"):
            add_noise(t, NoiseSpec(0.05, seed=5))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be a finite non-negative number$"):
            NoiseSpec(sigma)


class TestPowerConversion:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)

    def test_minus_116_dbm(self):
        assert dbm_to_watts(-116.0) == pytest.approx(2.512e-15, rel=1e-3)

    def test_round_trip(self):
        assert watts_to_dbm(dbm_to_watts(-86.0)) == pytest.approx(-86.0, abs=1e-12)

    @given(dbm=st.floats(min_value=-150.0, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, dbm):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-10)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1e-3)
