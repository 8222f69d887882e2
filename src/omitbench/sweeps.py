"""Synthetic probe sweeps: line cuts, (Omega, Delta) maps and two-tone runs.

Mirrors the measurement protocol: at each pump frequency the probe is swept
over a narrow window (a few effective mechanical linewidths) centred on the
pump sideband, so stepping the pump builds up a map of the transmission
versus probe offset and pump detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    cooperativity,
    effective_linewidth,
    intracavity_photon_number,
    probe_transmission,
)

__all__ = [
    "SweepTrace",
    "SweepMap",
    "NoiseSpec",
    "simulate_line_cut",
    "simulate_map",
    "emulate_protocol",
    "add_noise",
    "default_line_grid",
    "default_delta_grid",
    "dbm_to_watts",
    "watts_to_dbm",
]

# Engineering defaults for grid construction; narrow sweeps resolve the
# mechanical feature, the detuning axis resolves the cavity.
LINE_POINTS = 801
LINE_HALF_WIDTH_GAMMA_EFF = 25.0
MAP_DELTA_POINTS = 201
MAP_OMEGA_POINTS = 401
MAP_DELTA_HALF_WIDTH_KAPPA = 2.0
PROTOCOL_STEPS = 41
# Metadata that the sweeps and add_noise record themselves; a caller's meta may not set it.
_RECORDED_META = ("scheme", "pump_detuning_hz", "pump_freq_hz", "n_cav", "pump_power_w",
                  "noise_sigma", "noise_seed")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise, std ``sigma`` per S21 quadrature."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be a finite non-negative number")


@dataclass(frozen=True)
class SweepTrace:
    """One probe sweep.

    Attributes
    ----------
    omega : ndarray
        Strictly increasing probe offset Omega = omega_p - omega_d (rad/s).
    s21 : ndarray
        Complex S21 samples, or real non-negative magnitudes.
    meta : dict
        Measurement metadata (temperature_mK, probe_power_dbm, pump
        descriptor, scheme, ...).
    """

    omega: np.ndarray
    s21: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        s21 = np.asarray(self.s21)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "s21", s21)
        if omega.ndim != 1 or len(omega) < 2:
            raise ValueError("omega must be a 1-D axis with at least 2 points")
        if not np.all(np.diff(omega) > 0):
            raise ValueError("omega axis must be strictly increasing")
        if s21.shape != omega.shape:
            raise ValueError("s21 length must match the omega axis")
        mag = np.abs(s21)
        if not np.all(np.isfinite(mag)):
            raise ValueError("s21 samples must be finite")
        if not self.is_complex and np.any(s21 < 0):
            raise ValueError("magnitude samples must be non-negative")

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.s21)

    def magnitude(self) -> np.ndarray:
        """|S21| samples regardless of storage kind."""
        return np.abs(self.s21)


@dataclass(frozen=True)
class SweepMap:
    """|S21| on a (Delta, Omega) grid: one row per pump detuning."""

    delta: np.ndarray
    omega: np.ndarray
    s21_mag: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        mag = np.asarray(self.s21_mag, dtype=float)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "s21_mag", mag)
        if not (np.all(np.diff(delta) > 0) and np.all(np.diff(omega) > 0)):
            raise ValueError("map axes must be strictly increasing")
        if mag.shape != (len(delta), len(omega)):
            raise ValueError("s21_mag shape must be (len(delta), len(omega))")
        if not np.all(np.isfinite(mag)):
            raise ValueError("map entries must be finite")


def dbm_to_watts(p_dbm: float, name: str = "power") -> float:
    """Power in watts for a level in dBm (0 dBm = 1 mW); an error calls it ``name``."""
    try:
        return 10.0 ** (p_dbm / 10.0) * 1e-3
    except OverflowError:
        raise ValueError(f"{name} {p_dbm:g} dBm is too large to express in watts") from None


def watts_to_dbm(p_watts: float) -> float:
    """Level in dBm for a power in watts; requires p_watts > 0."""
    if p_watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_watts / 1e-3)


def default_line_grid(pump: PumpConfig, cav: CavityParams, mech: MechanicalParams,
                      points: int = LINE_POINTS,
                      half_width_gamma_eff: float = LINE_HALF_WIDTH_GAMMA_EFF) -> np.ndarray:
    """Probe-offset grid centred on the pump sideband.

    Spans +/- ``half_width_gamma_eff`` effective linewidths around the
    sideband at Omega = -aligned_detuning (red: +omega_m, blue: -omega_m); the
    width is floored at 5 % of the bare gamma_m so a blue feature quenched near
    the instability still gets a window.  A window that reaches the pump
    (half-width >= omega_m) is an error.
    """
    n_cav = intracavity_photon_number(pump, cav)
    coop = cooperativity(mech.g0, n_cav, cav.kappa, mech.gamma_m)
    g_eff = effective_linewidth(mech, coop, pump.scheme)
    scale = max(abs(g_eff), mech.gamma_m * 0.05)
    center = -pump.scheme.aligned_detuning(mech.omega_m)
    half = half_width_gamma_eff * scale
    if not half < mech.omega_m:  # also rejects inf and nan
        raise ValueError(f"n_cav {n_cav:g}: probe window +/- {half / TWO_PI:g} Hz reaches the pump")
    return np.linspace(center - half, center + half, points)


def default_delta_grid(scheme: PumpScheme, cav: CavityParams, mech: MechanicalParams,
                       points: int = MAP_DELTA_POINTS,
                       half_width_kappa: float = MAP_DELTA_HALF_WIDTH_KAPPA) -> np.ndarray:
    """Pump-detuning grid around the sideband-aligned point Delta = -/+ omega_m."""
    center = scheme.aligned_detuning(mech.omega_m)
    half = half_width_kappa * cav.kappa
    return np.linspace(center - half, center + half, points)


def simulate_line_cut(pump: PumpConfig, cav: CavityParams, mech: MechanicalParams,
                      omega_grid, meta: dict | None = None) -> SweepTrace:
    """Evaluate the transmission model over a probe-offset grid.

    Returns a complex-valued trace; the pump descriptor (scheme, detuning,
    pump frequency, photon number) is recorded in ``meta``.

    Raises
    ------
    SingularDenominator
        Propagated from the model: a blue pump at the parametric instability.
    ValueError
        If ``meta`` sets a key that omitbench records itself (scheme, pump, drive, noise).
    """
    meta = _caller_meta(meta)
    omega_grid = np.asarray(omega_grid, dtype=float)
    s21 = probe_transmission(omega_grid, pump, cav, mech)
    return SweepTrace(omega=omega_grid, s21=s21, meta={
        "scheme": pump.scheme.value,
        "pump_detuning_hz": pump.delta / TWO_PI,
        "pump_freq_hz": pump.omega_d(cav) / TWO_PI,
        "n_cav": intracavity_photon_number(pump, cav),
        **meta,
    })


def simulate_map(scheme: PumpScheme, cav: CavityParams, mech: MechanicalParams,
                 delta_grid, omega_grid, *, n_cav: float | None = None,
                 p_in: float | None = None, meta: dict | None = None) -> SweepMap:
    """|S21| over a (Delta, Omega) grid.

    The drive is either a photon number ``n_cav`` held fixed across detuning
    rows (matching how map-level photon numbers are quoted) or a fixed input
    power ``p_in``, in which case the photon number is recomputed per row
    from the photon relation.  Rows are line cuts, evaluated one by one.

    Raises
    ------
    SingularDenominator
        Propagated from the model, naming the first unstable row's detuning.
    ValueError
        If ``meta`` sets a key that omitbench records itself (scheme, pump, drive, noise).
    """
    meta = _caller_meta(meta)
    base = PumpConfig(scheme, 0.0, n_cav=n_cav, p_in=p_in)
    delta_grid = np.asarray(delta_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    rows = np.empty((len(delta_grid), len(omega_grid)))
    for r, delta in enumerate(delta_grid):
        pump = replace(base, delta=float(delta))
        rows[r] = np.abs(probe_transmission(omega_grid, pump, cav, mech))
    drive = {"n_cav": float(n_cav)} if n_cav is not None else {"pump_power_w": float(p_in)}
    return SweepMap(delta=delta_grid, omega=omega_grid, s21_mag=rows,
                    meta={"scheme": scheme.value, **drive, **meta})


def _caller_meta(meta: dict | None) -> dict:
    if clash := [key for key in meta or {} if key in _RECORDED_META]:
        raise ValueError(f"meta key {clash[0]!r}: omitbench records this key itself")
    return meta or {}


def emulate_protocol(scheme: PumpScheme, cav: CavityParams, mech: MechanicalParams, *,
                     n_cav: float) -> list[SweepTrace]:
    """Narrow probe sweeps at ``PROTOCOL_STEPS`` stepped pump frequencies.

    One trace per pump step, each centred on the pump sideband and spanning
    the default line-cut width; the pump detunings are the default detuning
    grid, Delta = -/+ omega_m +/- 2 kappa, so the set of absolute sweep
    centres omega_d -/+ omega_m spans the microwave resonance.
    """
    traces = []
    for delta in default_delta_grid(scheme, cav, mech, points=PROTOCOL_STEPS):
        pump = PumpConfig(scheme, float(delta), n_cav=n_cav)
        grid = default_line_grid(pump, cav, mech)
        traces.append(simulate_line_cut(pump, cav, mech, grid))
    return traces


def add_noise(trace: SweepTrace, noise: NoiseSpec) -> SweepTrace:
    """Additive white Gaussian noise on each quadrature of a complex trace,
    deterministic for a given seed.  A zero sigma returns the input unchanged.

    Raises
    ------
    ValueError
        For a magnitude-only trace.
    """
    if not trace.is_complex:
        raise ValueError("add_noise needs a complex trace")
    if noise.sigma == 0:
        return trace
    rng = np.random.default_rng(noise.seed)
    draws = rng.standard_normal((2, len(trace.omega)))
    s21 = trace.s21 + noise.sigma * (draws[0] + 1j * draws[1])
    meta = dict(trace.meta)
    meta["noise_sigma"] = noise.sigma
    meta["noise_seed"] = noise.seed
    return replace(trace, s21=s21, meta=meta)
