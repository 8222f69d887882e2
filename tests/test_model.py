"""Model-layer tests against independently derived closed-form values.

The frozen constants below were computed from the closed forms (notch floor
1 - kappa_ext/kappa, cooperativity 4 g0^2 n/(kappa gamma_m), on-resonance
peak/dip 1 - (kappa_ext/kappa)/(1 +/- C), photon relation) with 50-digit
arithmetic, then rounded to double precision.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omitbench.model import (
    DENOMINATOR_GUARD,
    HBAR,
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
    mechanical_pole,
    mechanical_susceptibility,
    probe_transmission,
)

# System values used throughout: 6 GHz cavity, kappa_ext/2pi = 44 kHz,
# 3.8 MHz string mode with gamma_m/2pi = 15.3 Hz and g0/2pi = 0.56 Hz.
F_C = 6e9
KAPPA_EXT_HZ = 44e3
F_M = 3.8e6
GAMMA_M_HZ = 15.3
G0_HZ = 0.56

N_RED_MAX = 1.3e6
N_BLUE_MAX = 3.4e5

# Frozen oracle values (50-digit evaluation of the closed forms).
C_RED = 1.2688453159041400          # 4 g0^2 1.3e6 / (84 kHz * 15.3 Hz)
C_BLUE = 0.3358500669344043         # 4 g0^2 3.4e5 / (83 kHz * 15.3 Hz)
PEAK_RED = 0.7691294685725261       # 1 - (44/84)/(1 + C_RED)
DIP_BLUE = 0.2018060146738691       # 1 - (44/83)/(1 - C_BLUE)
BARE_FLOOR_100K = 0.56              # 1 - 44/100
GAMMA_EFF_RED_HZ = 34.713333333333333    # 15.3 (1 + C_RED)
GAMMA_EFF_BLUE_HZ = 10.161493975903614   # 15.3 (1 - C_BLUE)
# Input power that stores 1.3e6 photons at Delta = -omega_m, kappa/2pi = 100 kHz.
P_IN_RED_MAX_W = 2.1304681956869824e-08


def cav_hz(kappa_hz):
    return CavityParams.from_hz(F_C, kappa_hz, KAPPA_EXT_HZ)


MECH = MechanicalParams.from_hz(F_M, GAMMA_M_HZ, G0_HZ)


def n_for_coop(c, kappa_hz):
    """Photon number giving cooperativity c at the stated kappa."""
    return c * kappa_hz * GAMMA_M_HZ / (4.0 * G0_HZ ** 2)


class TestSusceptibilities:
    def test_cavity_peak_value_on_resonance(self):
        kappa = TWO_PI * 1e5
        chi = cavity_susceptibility(0.0, 0.0, kappa)
        assert chi == pytest.approx(2.0 / kappa, rel=1e-14)
        assert chi.imag == 0.0

    def test_cavity_peak_location(self):
        kappa = TWO_PI * 1e5
        delta = TWO_PI * -3.8e6
        omega = np.linspace(TWO_PI * 3.7e6, TWO_PI * 3.9e6, 2001)
        mags = np.abs(cavity_susceptibility(omega, delta, kappa))
        assert np.argmax(mags) == 1000  # grid midpoint sits at Omega = -Delta

    @given(x=st.floats(min_value=1.0, max_value=1e7))
    @settings(max_examples=50, deadline=None)
    def test_cavity_conjugate_symmetry(self, x):
        kappa = TWO_PI * 1e5
        delta = TWO_PI * -3.8e6
        above = cavity_susceptibility(-delta + x, delta, kappa)
        below = cavity_susceptibility(-delta - x, delta, kappa)
        assert above == pytest.approx(np.conj(below), rel=1e-12)

    def test_mechanical_peak_red_at_plus_omega_m(self):
        chi = mechanical_susceptibility(MECH.omega_m, MECH, PumpScheme.RED)
        assert abs(chi) == pytest.approx(2.0 / MECH.gamma_m, rel=1e-14)

    def test_mechanical_peak_blue_at_minus_omega_m(self):
        chi = mechanical_susceptibility(-MECH.omega_m, MECH, PumpScheme.BLUE)
        assert abs(chi) == pytest.approx(2.0 / MECH.gamma_m, rel=1e-14)

    def test_mechanical_width(self):
        # Half-power points of |chi_m|^2 sit gamma_m/2 from the peak.
        for off in (+0.5 * MECH.gamma_m, -0.5 * MECH.gamma_m):
            chi = mechanical_susceptibility(MECH.omega_m + off, MECH, PumpScheme.RED)
            assert abs(chi) ** 2 == pytest.approx(2.0 / MECH.gamma_m ** 2, rel=1e-12)


class TestPhotonNumber:
    def test_passthrough_when_given_directly(self):
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1234.5)
        assert intracavity_photon_number(pump, cav_hz(1e5)) == 1234.5

    def test_frozen_power_gives_red_max_photons(self):
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=P_IN_RED_MAX_W)
        n = intracavity_photon_number(pump, cav_hz(1e5))
        assert n == pytest.approx(N_RED_MAX, rel=1e-9)

    def test_zero_power_zero_photons(self):
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=0.0)
        assert intracavity_photon_number(pump, cav_hz(1e5)) == 0.0

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_power(self, scale):
        cav = cav_hz(1e5)
        base = PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=P_IN_RED_MAX_W)
        scaled = PumpConfig(PumpScheme.RED, -MECH.omega_m,
                            p_in=scale * P_IN_RED_MAX_W)
        assert intracavity_photon_number(scaled, cav) == pytest.approx(
            scale * intracavity_photon_number(base, cav), rel=1e-12)

    def test_detuning_ratio_exact_algebra(self):
        # Moving the pump from Delta = -omega_m onto resonance boosts the
        # stored photons by |chi_c|^2 ratio (dominant) times the omega_d ratio.
        cav = cav_hz(1e5)
        on = PumpConfig(PumpScheme.RED, 0.0, p_in=P_IN_RED_MAX_W)
        off = PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=P_IN_RED_MAX_W)
        ratio = intracavity_photon_number(on, cav) / intracavity_photon_number(off, cav)
        half_k = 0.5 * cav.kappa
        chi_ratio = (half_k ** 2 + MECH.omega_m ** 2) / half_k ** 2
        omega_ratio = (cav.omega_c - MECH.omega_m) / cav.omega_c
        assert chi_ratio == pytest.approx(5777.0, rel=1e-12)
        assert ratio == pytest.approx(chi_ratio * omega_ratio, rel=1e-12)
        assert ratio == pytest.approx(5777.0, rel=1e-3)


class TestCooperativity:
    def test_red_max_value(self):
        c = cooperativity(MECH.g0, N_RED_MAX, TWO_PI * 84e3, MECH.gamma_m)
        assert c == pytest.approx(C_RED, rel=1e-12)
        assert abs(c - 1.269) < 1e-3

    def test_blue_max_value(self):
        c = cooperativity(MECH.g0, N_BLUE_MAX, TWO_PI * 83e3, MECH.gamma_m)
        assert c == pytest.approx(C_BLUE, rel=1e-12)
        assert abs(c - 0.336) < 1e-3

    def test_unit_invariance(self):
        # The 2*pi factors cancel: Hz inputs give the same C as rad/s inputs.
        c_rad = cooperativity(MECH.g0, N_RED_MAX, TWO_PI * 84e3, MECH.gamma_m)
        c_hz = cooperativity(G0_HZ, N_RED_MAX, 84e3, GAMMA_M_HZ)
        assert c_rad == pytest.approx(c_hz, rel=1e-14)

    @given(n=st.floats(min_value=1.0, max_value=1e7),
           scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_photon_number(self, n, scale):
        c1 = cooperativity(MECH.g0, n, TWO_PI * 84e3, MECH.gamma_m)
        c2 = cooperativity(MECH.g0, scale * n, TWO_PI * 84e3, MECH.gamma_m)
        assert c2 == pytest.approx(scale * c1, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cooperativity(MECH.g0, -1.0, TWO_PI * 84e3, MECH.gamma_m)
        with pytest.raises(ValueError):
            cooperativity(MECH.g0, 1.0, 0.0, MECH.gamma_m)


class TestBackaction:
    def test_effective_linewidth_red_frozen(self):
        g_eff = effective_linewidth(MECH, C_RED, PumpScheme.RED)
        assert g_eff / TWO_PI == pytest.approx(GAMMA_EFF_RED_HZ, rel=1e-12)

    def test_effective_linewidth_blue_frozen(self):
        g_eff = effective_linewidth(MECH, C_BLUE, PumpScheme.BLUE)
        assert g_eff / TWO_PI == pytest.approx(GAMMA_EFF_BLUE_HZ, rel=1e-12)

    def test_blue_linewidth_vanishes_at_threshold(self):
        assert effective_linewidth(MECH, 1.0, PumpScheme.BLUE) == 0.0


class TestProbeTransmission:
    def test_bare_notch_on_resonance(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=0.0)
        s21 = probe_transmission(MECH.omega_m, pump, cav, MECH)
        assert abs(s21) == pytest.approx(BARE_FLOOR_100K, abs=1e-10)

    def test_bare_notch_reduces_to_lorentzian(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=0.0)
        omega = np.linspace(MECH.omega_m - 3 * cav.kappa,
                            MECH.omega_m + 3 * cav.kappa, 501)
        got = probe_transmission(omega, pump, cav, MECH)
        bare = 1.0 - 0.5 * cav.kappa_ext * cavity_susceptibility(
            omega, pump.delta, cav.kappa)
        assert np.array_equal(got, bare)

    def test_red_peak_matches_closed_form(self):
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=N_RED_MAX)
        s21 = probe_transmission(MECH.omega_m, pump, cav, MECH)
        c = cooperativity(MECH.g0, N_RED_MAX, cav.kappa, MECH.gamma_m)
        closed = 1.0 - (KAPPA_EXT_HZ / 84e3) / (1.0 + c)
        assert abs(s21) == pytest.approx(closed, rel=1e-10)
        assert abs(s21) == pytest.approx(PEAK_RED, rel=1e-10)

    def test_blue_dip_matches_closed_form(self):
        cav = cav_hz(83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=N_BLUE_MAX)
        s21 = probe_transmission(-MECH.omega_m, pump, cav, MECH)
        c = cooperativity(MECH.g0, N_BLUE_MAX, cav.kappa, MECH.gamma_m)
        closed = 1.0 - (KAPPA_EXT_HZ / 83e3) / (1.0 - c)
        assert abs(s21) == pytest.approx(closed, rel=1e-10)
        assert abs(s21) == pytest.approx(DIP_BLUE, rel=1e-10)

    def test_red_transparency_rises_above_floor(self):
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=N_RED_MAX)
        peak = abs(probe_transmission(MECH.omega_m, pump, cav, MECH))
        floor = 1.0 - KAPPA_EXT_HZ / 84e3
        assert peak > floor

    def test_blue_absorption_dips_below_floor(self):
        cav = cav_hz(83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=N_BLUE_MAX)
        dip = abs(probe_transmission(-MECH.omega_m, pump, cav, MECH))
        floor = 1.0 - KAPPA_EXT_HZ / 83e3
        assert dip < floor

    def test_blue_supercritical_raises(self):
        cav = cav_hz(83e3)
        n = n_for_coop(1.01, 83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n)
        with pytest.raises(SingularDenominator):
            probe_transmission(-MECH.omega_m, pump, cav, MECH)

    def test_blue_subcritical_does_not_raise(self):
        cav = cav_hz(83e3)
        n = n_for_coop(0.99, 83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n)
        s21 = probe_transmission(-MECH.omega_m, pump, cav, MECH)
        assert np.isfinite(s21)

    def test_blue_supercritical_raises_even_off_feature(self):
        # The steady state does not exist anywhere once the mode
        # self-oscillates, not only at the feature center.
        cav = cav_hz(83e3)
        n = n_for_coop(1.2, 83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n)
        with pytest.raises(SingularDenominator):
            probe_transmission(-MECH.omega_m + 100 * MECH.gamma_m, pump, cav, MECH)

    def test_blue_detuned_pump_is_stable_at_same_photon_number(self):
        # Misaligning the sideband by 2 kappa dilutes the backaction far
        # below threshold, so the same photon number must evaluate cleanly.
        cav = cav_hz(83e3)
        n = n_for_coop(1.2, 83e3)
        pump = PumpConfig(PumpScheme.BLUE, MECH.omega_m + 2 * cav.kappa, n_cav=n)
        s21 = probe_transmission(-MECH.omega_m, pump, cav, MECH)
        assert np.isfinite(s21)

    def test_numeric_guard_trips_just_below_threshold(self):
        # c = 1 - 1e-10 is below the threshold, but the mechanical pole width
        # ~1e-10 gamma_m is below the DENOMINATOR_GUARD * gamma_m floor.
        cav = cav_hz(83e3)
        n = n_for_coop(1.0 - 1e-10, 83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n)
        assert 0 < -2 * mechanical_pole(pump, cav, MECH).imag < DENOMINATOR_GUARD * MECH.gamma_m
        with pytest.raises(SingularDenominator,
                           match="^blue pumping past the parametric instability"):
            probe_transmission(-MECH.omega_m, pump, cav, MECH)

    def test_red_never_raises_at_high_drive(self):
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=100 * N_RED_MAX)
        s21 = probe_transmission(MECH.omega_m, pump, cav, MECH)
        assert np.isfinite(s21)

    def test_scalar_input_scalar_output(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=0.0)
        out = probe_transmission(0.0, pump, cav, MECH)
        assert isinstance(out, complex)

    def test_empty_probe_grid_is_named(self):
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=N_RED_MAX)
        with pytest.raises(ValueError, match="empty probe grid"):
            probe_transmission(np.array([]), pump, cav, MECH)

    @given(offset_hz=st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_magnitude_bounded(self, offset_hz):
        # Passive red response never exceeds unity nor the inverted floor.
        cav = cav_hz(84e3)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=N_RED_MAX)
        s21 = probe_transmission(TWO_PI * offset_hz, pump, cav, MECH)
        assert abs(s21) <= 1.0 + 1e-12


class TestMechanicalPole:
    """The least damped root of the kernel's denominator, and the blue rule on it."""

    @given(scheme=st.sampled_from(PumpScheme), d_kappa=st.floats(-2.0, 2.0),
           c_loc=st.floats(0.0, 0.9), kappa_hz=st.floats(5e4, 1e6))
    @example(scheme=PumpScheme.RED, d_kappa=0.0, c_loc=0.9, kappa_hz=83e3)
    @example(scheme=PumpScheme.BLUE, d_kappa=0.0, c_loc=0.9, kappa_hz=83e3)
    @settings(max_examples=200, deadline=None)
    def test_width_is_the_backaction_linewidth(self, scheme, d_kappa, c_loc, kappa_hz):
        # Weak-coupling law gamma_m (1 -/+ C_loc), C_loc the cooperativity
        # weighted by (kappa/2)^2 / ((kappa/2)^2 + d^2).  Its error is first
        # order in gamma_m/kappa: at most 3.02 gamma_m/kappa (red, C_loc = 0.9,
        # |d| = 2 kappa) over this range, so the tolerance is 4 gamma_m/kappa.
        cav = cav_hz(kappa_hz)
        d = d_kappa * cav.kappa
        coop = c_loc * (1.0 + (2.0 * d / cav.kappa) ** 2)
        a = scheme.aligned_detuning(MECH.omega_m)
        pump = PumpConfig(scheme, a + d, n_cav=n_for_coop(coop, kappa_hz))
        width = -2.0 * mechanical_pole(pump, cav, MECH).imag
        law = MECH.gamma_m * (1.0 - scheme.sign * c_loc)
        assert abs(width - law) <= 4.0 * MECH.gamma_m ** 2 / cav.kappa
        b = complex(d, 0.5 * (cav.kappa + MECH.gamma_m))
        c = complex(scheme.sign * MECH.g0 ** 2 * pump.n_cav - 0.25 * cav.kappa * MECH.gamma_m,
                    0.5 * MECH.gamma_m * d)
        roots = np.roots([1.0, b, c])
        assert width == pytest.approx(-2.0 * roots.imag.max(), rel=1e-9, abs=1e-9 * MECH.gamma_m)
        if d == 0.0:
            assert mechanical_pole(pump, cav, MECH).real == -a

    def test_blue_threshold_is_exact_off_the_sideband(self):
        # A real root u = -gamma_m d/(kappa + gamma_m) first appears at
        # C = 1 + (2d/(kappa + gamma_m))^2, below the C_loc = 1 rule's 1 + (2d/kappa)^2.
        cav = cav_hz(83e3)
        d = cav.kappa
        threshold = 1.0 + (2.0 * d / (cav.kappa + MECH.gamma_m)) ** 2
        below, above = (PumpConfig(PumpScheme.BLUE, MECH.omega_m + d,
                                   n_cav=n_for_coop(factor * threshold, 83e3))
                        for factor in (1.0 - 1e-5, 1.0 + 1e-5))
        assert np.isfinite(probe_transmission(-MECH.omega_m, below, cav, MECH))
        with pytest.raises(SingularDenominator):
            probe_transmission(-MECH.omega_m, above, cav, MECH)

    def test_refusal_does_not_depend_on_the_probe_grid(self):
        cav = cav_hz(83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, n_cav=n_for_coop(1.0 - 1e-10, 83e3))
        far = -MECH.omega_m + MECH.gamma_m * np.linspace(100.0, 110.0, 11)
        with pytest.raises(SingularDenominator):
            probe_transmission(far, pump, cav, MECH)

    def test_infinite_photon_number_gives_a_nan_pole_and_is_refused(self):
        cav = cav_hz(83e3)
        pump = PumpConfig(PumpScheme.BLUE, +MECH.omega_m, p_in=1e300)
        assert intracavity_photon_number(pump, cav) == math.inf
        assert cmath.isnan(mechanical_pole(pump, cav, MECH))
        with pytest.raises(SingularDenominator, match="pole width nan Hz"):
            probe_transmission(-MECH.omega_m, pump, cav, MECH)


class TestTypes:
    def test_cavity_from_hz(self):
        cav = cav_hz(1e5)
        assert cav.kappa == pytest.approx(TWO_PI * 1e5, rel=1e-15)
        assert cav.omega_c == pytest.approx(TWO_PI * F_C, rel=1e-15)

    def test_cavity_validation(self):
        with pytest.raises(ValueError):
            CavityParams.from_hz(F_C, 44e3, 100e3)  # kappa_ext > kappa
        with pytest.raises(ValueError):
            CavityParams.from_hz(-F_C, 1e5, 44e3)
        with pytest.raises(ValueError):
            CavityParams.from_hz(F_C, 0.0, 0.0)

    def test_mechanical_validation(self):
        with pytest.raises(ValueError):
            MechanicalParams.from_hz(0.0, GAMMA_M_HZ, G0_HZ)
        with pytest.raises(ValueError):
            MechanicalParams.from_hz(F_M, 0.0, G0_HZ)
        with pytest.raises(ValueError):
            MechanicalParams.from_hz(F_M, GAMMA_M_HZ, -G0_HZ)

    def test_pump_drive_xor(self):
        with pytest.raises(ValueError):
            PumpConfig(PumpScheme.RED, 0.0)
        with pytest.raises(ValueError):
            PumpConfig(PumpScheme.RED, 0.0, n_cav=1.0, p_in=1.0)
        with pytest.raises(ValueError):
            PumpConfig(PumpScheme.RED, 0.0, n_cav=-1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: PumpConfig(PumpScheme.RED, 0.0, p_in=-1.0), "p_in must be non-negative"),
        (lambda: effective_linewidth(MECH, -0.1, PumpScheme.RED),
         "cooperativity must be non-negative"),
        (lambda: MechanicalParams.from_hz(F_M, GAMMA_M_HZ, math.nan), "g0 must be a finite number"),
        (lambda: PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=-math.inf),
         "n_cav must be a finite number"),
        (lambda: PumpConfig(PumpScheme.RED, -MECH.omega_m, p_in=math.inf),
         "p_in must be a finite number"),
        (lambda: PumpConfig(PumpScheme.RED, math.nan, n_cav=1.0), "delta must be a finite number"),
    ], ids=["pump-negative-power", "negative-cooperativity", "nan-g0", "infinite-n_cav",
            "infinite-p_in", "nan-delta"])
    def test_rejects_bad_input(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_pump_omega_d_and_retune(self):
        cav = cav_hz(1e5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.0)
        assert pump.omega_d(cav) == pytest.approx(cav.omega_c - MECH.omega_m)

    def test_scheme_parse(self):
        assert PumpScheme.parse("red") is PumpScheme.RED
        with pytest.raises(ValueError,
                           match=r"^unknown pump scheme ' BLUE '; expected 'red' or 'blue'$"):
            PumpScheme.parse(" BLUE ")
        with pytest.raises(ValueError):
            PumpScheme.parse("green")

    def test_sign_convention(self):
        assert PumpScheme.BLUE.sign == +1
        assert PumpScheme.RED.sign == -1

    def test_hbar_value(self):
        assert HBAR == 1.054571817e-34
