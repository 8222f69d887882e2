"""Steady-state two-tone response of a mechanically compliant microwave cavity.

A strong pump at ``omega_d`` and a weak probe at ``omega_p`` drive a cavity
(resonance ``omega_c``, total linewidth ``kappa``, feedline coupling
``kappa_ext``) whose frequency is modulated by a mechanical mode
(``omega_m``, ``gamma_m``, vacuum coupling ``g0``).  Input-output theory for
the side-coupled (notch) geometry gives the probe transmission

    S21 = 1 - (kappa_ext/2) m / Q = N / Q,   Q = c m -/+ g0^2 n_cav,   N = Q - (kappa_ext/2) m

with the inverse cavity and mechanical susceptibilities

    c = 1/chi_c = kappa/2   - i (Omega + Delta)
    m = 1/chi_m = gamma_m/2 - i (Omega +/- omega_m)

where ``Omega = omega_p - omega_d`` is the probe offset from the pump, ``Delta = omega_d - omega_c``
the pump detuning, and the upper (lower) signs apply to blue (red) pumping.  The roots of the
quadratic Q in Omega are the response's poles.  Red pumping produces a transparency window (OMIT),
blue pumping an absorption window (OMIA).  The pump photon number is

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
    "intracavity_photon_number",
    "response_quadratic",
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
        self.check(self.omega_c, self.kappa, self.kappa_ext)

    @staticmethod
    def check(omega_c, kappa, kappa_ext):  # a ValueError names the first value out of range
        if not 0 < omega_c < cmath.inf:
            raise ValueError("omega_c must be a finite positive number")
        if not 0 < kappa < cmath.inf:
            raise ValueError("kappa must be a finite positive number")
        if not 0 < kappa_ext <= kappa:
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
        self.check(self.omega_m, self.gamma_m, self.g0)

    @staticmethod
    def check(omega_m, gamma_m, g0):  # a ValueError names the first value out of range
        if not 0 < omega_m < cmath.inf:
            raise ValueError("omega_m must be a finite positive number")
        if not 0 < gamma_m < cmath.inf:
            raise ValueError("gamma_m must be a finite positive number")
        if not 0 <= g0 < cmath.inf:
            raise ValueError(
                f"g0 must be {'non-negative' if -cmath.inf < g0 < 0 else 'a finite number'}")

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
        self.check(self.delta, self.n_cav, self.p_in)

    @staticmethod
    def check(delta, n_cav=None, p_in=None):  # a ValueError names the first value out of range
        if (n_cav is None) == (p_in is None):
            raise ValueError("specify exactly one of n_cav or p_in")
        if not cmath.isfinite(delta):
            raise ValueError("delta must be a finite number")
        for name, value in (("n_cav", n_cav), ("p_in", p_in)):
            if value is not None and not 0 <= value < cmath.inf:
                kind = "non-negative" if -cmath.inf < value < 0 else "a finite number"
                raise ValueError(f"{name} must be {kind}")

    def omega_d(self, cav: CavityParams) -> float:
        """Absolute pump frequency omega_c + Delta (rad/s)."""
        return cav.omega_c + self.delta


def intracavity_photon_number(pump: PumpConfig, cav: CavityParams) -> float:
    """Pump photons stored in the cavity.

    n_cav = P_in * kappa_ext * |chi_c(omega_d)|^2 / (2 hbar omega_d), with the
    pump-tone susceptibility chi_c(omega_d) = 1/(kappa/2 - i Delta).  If the
    pump drive is already given as a photon number it is returned as-is.
    """
    if pump.n_cav is not None:
        return float(pump.n_cav)
    chi_d = 1.0 / (0.5 * cav.kappa - 1j * np.float64(pump.delta))  # numpy's complex division
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


def _pole(delta, kappa, omega_m, gamma_m, g2n, sign):
    """Least damped root Omega of Q = c m -/+ g0^2 n (``g2n`` = g0^2 n, ``sign`` +1 blue).  In
    u = Omega + a, a = sign omega_m, Q = -(u^2 + b u + c) with b = d + i (kappa + gamma_m)/2,
    c = +/- g0^2 n - kappa gamma_m/4 + i gamma_m d/2 and d = Delta - a; of the pair
    q = -(b + s sqrt(b^2 - 4c))/2 and c/q, free of cancellation (Numerical Recipes 3rd ed. 5.6),
    the root with the larger imaginary part.  A NaN coefficient gives a NaN root."""
    a = sign * omega_m
    d = delta - a
    b = complex(d, 0.5 * (kappa + gamma_m))
    c = complex(sign * g2n - 0.25 * kappa * gamma_m, 0.5 * gamma_m * d)
    root = cmath.sqrt(b * b - 4.0 * c)
    q = -0.5 * (b + root if (b.conjugate() * root).real >= 0 else b - root)
    return (q if q.imag > (c / q).imag else c / q) - a


def mechanical_pole(pump: PumpConfig, cav: CavityParams, mech: MechanicalParams) -> complex:
    """Least damped root Omega (rad/s) of the quadratic Q of :func:`response_quadratic`.
    Its width -2 Im Omega, about gamma_m (1 -/+ C_loc) for gamma_m << kappa, is 0 at threshold."""
    return _pole(pump.delta, cav.kappa, mech.omega_m, mech.gamma_m,
                 mech.g0 ** 2 * intracavity_photon_number(pump, cav), pump.scheme.sign)


def response_quadratic(omega, delta, kappa, kappa_ext, omega_m, gamma_m, g2n,
                       scheme: PumpScheme, out=None):
    """Re Q, Im Q, Re N and Im N stacked on the first axis of an array (``out`` if given), at the
    probe offsets ``omega`` (rad/s; 1-D, or 2-D with one row per pump), so that S21 = N/Q.  Here
    Q = c m -/+ g0^2 n and N = Q - (kappa_ext/2) m, with c = kappa/2 - i (Omega + Delta),
    m = gamma_m/2 - i (Omega +/- omega_m), ``g2n`` = g0^2 n_cav and ``delta`` = Delta, each a float
    or an (r, 1) column, one value per pump; the upper signs are blue's.  Returns None instead if a
    blue pump with g2n > 0 (or NaN) has a least damped root of Q of width -2 Im Omega NaN or at most
    :data:`DENOMINATOR_GUARD` times gamma_m: at or past the parametric instability.
    """
    sign = scheme.sign
    if sign > 0 and any(not g <= 0 and not (
            -2.0 * _pole(d, kappa, omega_m, gamma_m, g, sign).imag > DENOMINATOR_GUARD * gamma_m)
            for d, g in np.broadcast(delta, g2n)):
        return None
    x, y = omega + delta, omega + sign * omega_m  # c = kappa/2 - i x, m = gamma_m/2 - i y
    re_q, im_q, re_n, im_n = out = np.empty((4, *x.shape)) if out is None else out
    np.subtract(0.25 * kappa * gamma_m - sign * g2n, x * y, out=re_q)
    np.add((-0.5 * kappa) * y, (-0.5 * gamma_m) * x, out=im_q)
    np.subtract(re_q, 0.25 * kappa_ext * gamma_m, out=re_n)
    np.add(im_q, 0.5 * kappa_ext * y, out=im_n)
    return out


def probe_transmission(omega, pump, cav: CavityParams, mech: MechanicalParams):
    """Complex probe transmission S21 = N/Q of :func:`response_quadratic`, a complex or an
    array, at probe offset(s) ``omega`` = omega_p - omega_d (float or 1-D array, rad/s).  A
    sequence of pumps of one scheme gives row i for pump i, over ``omega`` or its row i (2-D).

    The upper sign (blue) produces absorption, the lower (red) transparency.  With
    g0^2 n_cav = 0 for every pump it is the bare notch 1 - (kappa_ext/2) chi_c, evaluated as such.

    Raises
    ------
    SingularDenominator
        If :func:`response_quadratic` refuses a blue pump, whatever the probe grid; the message
        names the first refused pump and its :func:`mechanical_pole` width.  Red is always stable.
    ValueError
        If the probe grid ``omega`` is empty, or the pumps mix schemes.
    """
    single = isinstance(pump, PumpConfig)
    pumps = [pump] if single else list(pump)
    if len({p.scheme for p in pumps}) > 1:
        raise ValueError("pump sequence mixes red and blue schemes: give one scheme per call")
    scalar = np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    delta = np.array([p.delta for p in pumps], dtype=float)[:, None]
    g2n = mech.g0 ** 2 * np.array([intracavity_photon_number(p, cav) for p in pumps])[:, None]
    if not g2n.any():
        s21 = 1.0 - 0.5 * cav.kappa_ext * (1.0 / (0.5 * cav.kappa - 1j * (omega + delta)))
    else:
        scheme, params = pumps[0].scheme, (cav.kappa, cav.kappa_ext, mech.omega_m, mech.gamma_m)
        terms = response_quadratic(omega, delta, *params, g2n, scheme)
        if terms is None:  # name the first pump the gate refuses
            pump = next(p for p, g in zip(pumps, g2n.flat)
                        if response_quadratic(omega[:0], p.delta, *params, g, scheme) is None)
            width = -2.0 * mechanical_pole(pump, cav, mech).imag
            drive = f"n_cav={pump.n_cav:g}" if pump.n_cav is not None else f"p_in={pump.p_in:g} W"
            raise SingularDenominator(
                f"singular response at scheme=blue, detuning_hz={pump.delta / TWO_PI:g}, "
                f"{drive}: blue pumping past the parametric instability (mechanical pole "
                f"width {width / TWO_PI:.6g} Hz); steady-state response is undefined")
        s21 = (terms[2] + 1j * terms[3]) / (terms[0] + 1j * terms[1])  # N/Q
    if omega.size == 0:
        raise ValueError("empty probe grid: need at least one probe offset omega")
    return (complex(s21[0, 0]) if scalar else s21[0]) if single else s21
