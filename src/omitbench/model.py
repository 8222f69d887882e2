"""Steady-state two-tone response of a mechanically compliant microwave cavity.

A strong pump at ``omega_d`` and a weak probe at ``omega_p`` drive a cavity
(resonance ``omega_c``, total linewidth ``kappa``, feedline coupling
``kappa_ext``) whose frequency is modulated by a mechanical mode
(``omega_m``, ``gamma_m``, vacuum coupling ``g0``).  Input-output theory for
the side-coupled (notch) geometry gives the probe transmission

    S21 = 1 - (kappa_ext/2) * chi_c / (1 -/+ g0^2 n_cav chi_c chi_m)

with the cavity and mechanical susceptibilities

    chi_c^-1 = kappa/2   - i (Omega + Delta)
    chi_m^-1 = gamma_m/2 - i (Omega +/- omega_m)

where ``Omega = omega_p - omega_d`` is the probe offset from the pump,
``Delta = omega_d - omega_c`` the pump detuning, and the upper (lower) signs
apply to blue (red) pumping.  Red pumping produces a transparency window
(OMIT), blue pumping an absorption window (OMIA).  The pump photon number is

    n_cav = P_in * kappa_ext * |chi_c(omega_d)|^2 / (2 hbar omega_d).

Everything here works in angular frequency (rad/s).  Use the ``from_hz``
constructors to enter from ordinary frequencies.  All functions are pure and
accept scalar or ndarray probe offsets.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Reduced Planck constant, J*s (CODATA 2018).
HBAR = 1.054571817e-34

# Floor, in units of gamma_m, on the blue mechanical pole width at or below
# which the linear steady-state response is treated as singular.
DENOMINATOR_GUARD = 1e-9

TWO_PI = 2.0 * np.pi

# Unit of each model parameter: "rad/s" for an angular rate, which every file,
# config and CLI boundary gives in Hz, or "count" for the photon number.
PARAM_UNITS = {"omega_c": "rad/s", "kappa": "rad/s", "kappa_ext": "rad/s",
               "omega_m": "rad/s", "gamma_m": "rad/s", "g0": "rad/s",
               "n_cav": "count"}

__all__ = [
    "HBAR",
    "DENOMINATOR_GUARD",
    "PARAM_UNITS",
    "SingularDenominator",
    "PumpScheme",
    "CavityParams",
    "MechanicalParams",
    "PumpConfig",
    "cavity_susceptibility",
    "mechanical_susceptibility",
    "intracavity_photon_number",
    "probe_transmission",
    "mechanical_pole",
    "cooperativity",
    "effective_linewidth",
    "param_to_hz",
    "param_from_hz",
]


def param_to_hz(name: str, value):
    """Boundary value of parameter ``name``: Hz for a rate, a count unchanged."""
    return value / TWO_PI if PARAM_UNITS[name] == "rad/s" else value


def param_from_hz(name: str, value):
    """Internal value of parameter ``name`` given in Hz (rate) or as a count."""
    return TWO_PI * value if PARAM_UNITS[name] == "rad/s" else value


class SingularDenominator(Exception):
    """Linear response is singular: at or past the parametric instability.

    Raised for a blue pump whose mechanical pole width is at or below
    :data:`DENOMINATOR_GUARD` times gamma_m: the mode self-oscillates.  The
    message names the pump's scheme, detuning (Hz) and drive.
    """


class PumpScheme(Enum):
    """Pump placement relative to the cavity: red (below) or blue (above)."""

    RED = "red"
    BLUE = "blue"

    @property
    def sign(self) -> int:
        """Upper-sign (+1, blue) or lower-sign (-1, red) branch of the model."""
        return +1 if self is PumpScheme.BLUE else -1

    def aligned_detuning(self, omega_m):
        """Pump detuning Delta that puts the scheme's sideband on the cavity:
        -omega_m for red (OMIT), +omega_m for blue (OMIA)."""
        return self.sign * omega_m

    @classmethod
    def parse(cls, value) -> "PumpScheme":
        try:
            return cls(value)
        except ValueError:
            expected = " or ".join(repr(m.value) for m in cls)
            raise ValueError(f"unknown pump scheme {value!r}; expected {expected}") from None


@dataclass(frozen=True)
class CavityParams:
    """Microwave cavity parameters, angular units (rad/s).

    Attributes
    ----------
    omega_c : float
        Cavity resonance frequency.
    kappa : float
        Total cavity linewidth.
    kappa_ext : float
        Feedline-coupling part of the linewidth, 0 < kappa_ext <= kappa.
    """

    omega_c: float
    kappa: float
    kappa_ext: float

    def __post_init__(self):
        if not 0 < self.omega_c < cmath.inf:
            raise ValueError("omega_c must be a finite positive number")
        if not 0 < self.kappa < cmath.inf:
            raise ValueError("kappa must be a finite positive number")
        if not 0 < self.kappa_ext <= self.kappa:
            raise ValueError("kappa_ext must satisfy 0 < kappa_ext <= kappa")

    @classmethod
    def from_hz(cls, omega_c_hz, kappa_hz, kappa_ext_hz) -> "CavityParams":
        return cls(TWO_PI * omega_c_hz, TWO_PI * kappa_hz, TWO_PI * kappa_ext_hz)


@dataclass(frozen=True)
class MechanicalParams:
    """Mechanical mode parameters, angular units (rad/s).

    Attributes
    ----------
    omega_m : float
        Mechanical resonance frequency.
    gamma_m : float
        Intrinsic mechanical linewidth.
    g0 : float
        Vacuum optomechanical coupling (cavity shift per zero-point motion).
    """

    omega_m: float
    gamma_m: float
    g0: float

    def __post_init__(self):
        if not 0 < self.omega_m < cmath.inf:
            raise ValueError("omega_m must be a finite positive number")
        if not 0 < self.gamma_m < cmath.inf:
            raise ValueError("gamma_m must be a finite positive number")
        if not cmath.isfinite(self.g0):
            raise ValueError("g0 must be a finite number")
        if self.g0 < 0:
            raise ValueError("g0 must be non-negative")

    @classmethod
    def from_hz(cls, omega_m_hz, gamma_m_hz, g0_hz) -> "MechanicalParams":
        return cls(TWO_PI * omega_m_hz, TWO_PI * gamma_m_hz, TWO_PI * g0_hz)


@dataclass(frozen=True)
class PumpConfig:
    """One pump condition: scheme, detuning and drive strength.

    Exactly one of ``n_cav`` (intracavity photon number) or ``p_in`` (input
    power in watts) is authoritative; the other follows from the photon
    relation via :func:`intracavity_photon_number`.

    Attributes
    ----------
    scheme : PumpScheme
    delta : float
        Pump detuning Delta = omega_d - omega_c (rad/s).
    n_cav : float or None
        Pump photon number, >= 0.
    p_in : float or None
        Pump power at the device input, watts, >= 0.
    """

    scheme: PumpScheme
    delta: float
    n_cav: float | None = None
    p_in: float | None = None

    def __post_init__(self):
        if (self.n_cav is None) == (self.p_in is None):
            raise ValueError("specify exactly one of n_cav or p_in")
        for name in ("delta", "n_cav", "p_in"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
            if name != "delta" and value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    def omega_d(self, cav: CavityParams) -> float:
        """Absolute pump frequency omega_c + Delta (rad/s)."""
        return cav.omega_c + self.delta


def cavity_susceptibility(omega, delta, kappa):
    """Cavity susceptibility chi_c = 1 / (kappa/2 - i (Omega + Delta)).

    Parameters
    ----------
    omega : float or ndarray
        Probe offset from the pump, Omega = omega_p - omega_d (rad/s).
    delta : float
        Pump detuning Delta = omega_d - omega_c (rad/s).
    kappa : float
        Total cavity linewidth (rad/s).

    Returns
    -------
    complex or ndarray
        chi_c in 1/(rad/s); |chi_c| peaks at 2/kappa where Omega + Delta = 0.
    """
    return 1.0 / (0.5 * kappa - 1j * (np.asarray(omega) + delta))


def mechanical_susceptibility(omega, mech: MechanicalParams, scheme: PumpScheme):
    """Mechanical susceptibility chi_m = 1 / (gamma_m/2 - i (Omega +/- omega_m)).

    The upper sign (Omega + omega_m, peak at Omega = -omega_m) applies to blue
    pumping, the lower sign (Omega - omega_m, peak at Omega = +omega_m) to red.

    Parameters
    ----------
    omega : float or ndarray
        Probe offset from the pump (rad/s).
    mech : MechanicalParams
    scheme : PumpScheme

    Returns
    -------
    complex or ndarray
        chi_m in 1/(rad/s); peak magnitude 2/gamma_m on the sideband.
    """
    x = np.asarray(omega) + scheme.aligned_detuning(mech.omega_m)
    return 1.0 / (0.5 * mech.gamma_m - 1j * x)


def intracavity_photon_number(pump: PumpConfig, cav: CavityParams) -> float:
    """Pump photons stored in the cavity.

    n_cav = P_in * kappa_ext * |chi_c(omega_d)|^2 / (2 hbar omega_d), with the
    pump-tone susceptibility chi_c(omega_d) = 1/(kappa/2 - i Delta).  If the
    pump drive is already given as a photon number it is returned as-is.
    """
    if pump.n_cav is not None:
        return float(pump.n_cav)
    chi_d = cavity_susceptibility(0.0, pump.delta, cav.kappa)
    omega_d = pump.omega_d(cav)
    return float(pump.p_in * cav.kappa_ext * abs(chi_d) ** 2 / (2.0 * HBAR * omega_d))


def cooperativity(g0, n_cav, kappa, gamma_m) -> float:
    """Optomechanical cooperativity C = 4 g0^2 n_cav / (kappa gamma_m).

    All arguments in rad/s (the 2*pi factors cancel, so consistent Hz inputs
    give the same value).  C sets the on-resonance OMIT peak height
    1 - (kappa_ext/kappa)/(1+C), the OMIA dip 1 - (kappa_ext/kappa)/(1-C),
    and the backaction-modified linewidth gamma_m (1 +/- C).
    """
    if kappa <= 0 or gamma_m <= 0:
        raise ValueError("kappa and gamma_m must be positive")
    if g0 < 0 or n_cav < 0:
        raise ValueError("g0 and n_cav must be non-negative")
    return 4.0 * g0 * g0 * n_cav / (kappa * gamma_m)


def effective_linewidth(mech: MechanicalParams, coop: float, scheme: PumpScheme) -> float:
    """Backaction-modified mechanical linewidth (rad/s).

    Red pumping adds damping, gamma_eff = gamma_m (1 + C); blue pumping
    removes it, gamma_eff = gamma_m (1 - C), which reaches zero at the
    parametric instability C = 1, so a non-positive return is meaningful.
    """
    if coop < 0:
        raise ValueError("cooperativity must be non-negative")
    return mech.gamma_m * (1.0 - scheme.sign * coop)


def mechanical_pole(pump: PumpConfig, cav: CavityParams, mech: MechanicalParams) -> complex:
    """Least damped root Omega (rad/s) of the denominator 1 -/+ g0^2 n chi_c chi_m.

    With u = Omega + aligned_detuning, d = Delta - aligned_detuning it solves u^2 + b u + c = 0,
    b = d + i(kappa+gamma_m)/2, c = i gamma_m d/2 - kappa gamma_m/4 +/- g0^2 n, by the pair
    q = -(b + s sqrt(b^2 - 4c))/2 and c/q, free of cancellation (Numerical Recipes 3rd ed. 5.6).
    Its width -2 Im Omega, about gamma_m (1 -/+ C_loc) for gamma_m << kappa, is 0 at threshold.
    """
    a = pump.scheme.aligned_detuning(mech.omega_m)
    d = pump.delta - a
    g2n = pump.scheme.sign * mech.g0 ** 2 * intracavity_photon_number(pump, cav)
    b = complex(d, 0.5 * (cav.kappa + mech.gamma_m))
    c = complex(g2n - 0.25 * cav.kappa * mech.gamma_m, 0.5 * mech.gamma_m * d)
    root = cmath.sqrt(b * b - 4.0 * c)
    q = -0.5 * (b + root if (b.conjugate() * root).real >= 0 else b - root)
    return (q if q.imag > (c / q).imag else c / q) - a  # a NaN root gives a NaN pole


def probe_transmission(omega, pump: PumpConfig, cav: CavityParams, mech: MechanicalParams):
    """Complex probe transmission S21 at probe offset(s) ``omega``.

    S21 = 1 - (kappa_ext/2) chi_c / (1 -/+ g0^2 n_cav chi_c chi_m), evaluated
    at absolute probe frequency omega_p = omega_c + Delta + Omega.  The upper
    sign (blue) produces absorption, the lower (red) transparency.  With zero
    pump photons this reduces exactly to the bare notch 1 - chi_c kappa_ext/2;
    a caller reads chi_c/D, D the denominator, from S21 as (1 - S21)/(kappa_ext/2).

    Parameters
    ----------
    omega : float or 1-D ndarray
        Probe offset(s) Omega = omega_p - omega_d (rad/s).
    pump : PumpConfig
    cav : CavityParams
    mech : MechanicalParams

    Returns
    -------
    complex or ndarray

    Raises
    ------
    SingularDenominator
        If a blue pump with n_cav > 0 has a :func:`mechanical_pole` width at or
        below :data:`DENOMINATOR_GUARD` times gamma_m, or a NaN pole, whatever
        the probe grid; the message names the pump.  A red pump is always stable.
    ValueError
        If the probe grid ``omega`` is empty.
    """
    n_cav = intracavity_photon_number(pump, cav)
    if pump.scheme is PumpScheme.BLUE and n_cav > 0:
        width = -2.0 * mechanical_pole(pump, cav, mech).imag
        if not width > DENOMINATOR_GUARD * mech.gamma_m:
            drive = f"n_cav={pump.n_cav:g}" if pump.n_cav is not None else f"p_in={pump.p_in:g} W"
            raise SingularDenominator(
                f"singular response at scheme=blue, detuning_hz={pump.delta / TWO_PI:g}, "
                f"{drive}: blue pumping past the parametric instability (mechanical pole "
                f"width {width / TWO_PI:.6g} Hz); steady-state response is undefined")
    scalar = np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.size == 0:
        raise ValueError("empty probe grid: need at least one probe offset omega")
    chi_c = cavity_susceptibility(omega, pump.delta, cav.kappa)
    chi_m = mechanical_susceptibility(omega, mech, pump.scheme)
    denom = 1.0 - pump.scheme.sign * (mech.g0 ** 2) * n_cav * chi_c * chi_m
    s21 = 1.0 - 0.5 * cav.kappa_ext * chi_c / denom
    return complex(s21[0]) if scalar else s21
