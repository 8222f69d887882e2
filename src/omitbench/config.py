"""Run configuration: a JSON file naming the physical system, pump
conditions, sweep grids, noise and fit bindings.

All frequencies in the file are Hz (n_cav is a photon count); values are
converted to angular units when the typed objects are built.  The file is
validated against a closed schema before anything runs: unknown keys are
rejected everywhere except inside the free-form ``meta`` block, which is
copied verbatim into output file comments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .model import (PARAM_UNITS, TWO_PI, CavityParams, MechanicalParams, PumpConfig,
                    PumpScheme, param_from_hz)
from .sweeps import (
    LINE_HALF_WIDTH_GAMMA_EFF,
    LINE_POINTS,
    MAP_DELTA_HALF_WIDTH_KAPPA,
    MAP_DELTA_POINTS,
    MAP_OMEGA_POINTS,
    NoiseSpec,
    dbm_to_watts,
)

__all__ = ["ConfigError", "GridSettings", "BindingSpec", "FitDatasetSpec",
           "FitSettings", "RunConfig", "load_config", "CONFIG_SCHEMA"]


class ConfigError(Exception):
    """Configuration file missing, unparsable or schema-invalid."""


_BINDING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "mode"],
    "properties": {
        "name": {"enum": list(PARAM_UNITS)},
        "mode": {"enum": ["fixed", "free", "shared"]},
        "group": {"type": "string", "minLength": 1},
        "init": {"type": "number"},
        "lo": {"type": "number"},
        "hi": {"type": "number"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["cavity", "mechanics"],
    "properties": {
        "cavity": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega_c_hz", "kappa_hz", "kappa_ext_hz"],
            "properties": {
                "omega_c_hz": {"type": "number", "exclusiveMinimum": 0},
                "kappa_hz": {"type": "number", "exclusiveMinimum": 0},
                "kappa_ext_hz": {"type": "number", "minimum": 0},
            },
        },
        "mechanics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega_m_hz", "gamma_m_hz", "g0_hz"],
            "properties": {
                "omega_m_hz": {"type": "number", "exclusiveMinimum": 0},
                "gamma_m_hz": {"type": "number", "exclusiveMinimum": 0},
                "g0_hz": {"type": "number", "minimum": 0},
            },
        },
        "pumps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["scheme"],
                "properties": {
                    "scheme": {"enum": ["red", "blue"]},
                    "detuning_hz": {"type": "number"},
                    "n_cav": {"type": "number", "minimum": 0},
                    "power_dbm": {"type": "number"},
                    "power_w": {"type": "number", "minimum": 0},
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "integer", "minimum": 2},
                "half_width_gamma_eff": {"type": "number", "exclusiveMinimum": 0},
                "map_delta_points": {"type": "integer", "minimum": 2},
                "map_omega_points": {"type": "integer", "minimum": 2},
                "map_half_width_kappa": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "required": ["sigma"],
            "properties": {
                "sigma": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bindings": {"type": "array", "items": _BINDING_SCHEMA},
                "datasets": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "path": {"type": "string"},
                            "bindings": {"type": "array", "items": _BINDING_SCHEMA},
                        },
                    },
                },
            },
        },
        "meta": {"type": "object"},
    },
}


@dataclass(frozen=True)
class GridSettings:
    points: int = LINE_POINTS
    half_width_gamma_eff: float = LINE_HALF_WIDTH_GAMMA_EFF
    map_delta_points: int = MAP_DELTA_POINTS
    map_omega_points: int = MAP_OMEGA_POINTS
    map_half_width_kappa: float = MAP_DELTA_HALF_WIDTH_KAPPA


@dataclass(frozen=True)
class BindingSpec:
    """Binding entry from the config file, ``init``/``lo``/``hi`` converted
    to internal units (rad/s, or a count for n_cav)."""

    name: str
    mode: str
    group: str | None = None
    init: float | None = None
    lo: float | None = None
    hi: float | None = None


@dataclass(frozen=True)
class FitDatasetSpec:
    path: str | None = None
    bindings: tuple = ()


@dataclass(frozen=True)
class FitSettings:
    bindings: tuple = ()
    datasets: tuple = ()


@dataclass
class RunConfig:
    """Validated, unit-converted run configuration."""

    cavity: CavityParams
    mechanics: MechanicalParams
    pumps: list[PumpConfig] = field(default_factory=list)
    grid: GridSettings = field(default_factory=GridSettings)
    noise: NoiseSpec | None = None
    fit: FitSettings | None = None
    meta: dict = field(default_factory=dict)


def _build_pump(entry: dict, cfg_mech: MechanicalParams) -> PumpConfig:
    scheme = PumpScheme.parse(entry["scheme"])
    # Default to the sideband-aligned detuning for the scheme.
    delta = TWO_PI * entry["detuning_hz"] if "detuning_hz" in entry \
        else scheme.sign * cfg_mech.omega_m
    drives = [k for k in ("n_cav", "power_dbm", "power_w") if k in entry]
    if len(drives) != 1:
        raise ConfigError(
            f"pump entry needs exactly one of n_cav, power_dbm, power_w; got {drives}")
    if drives[0] == "n_cav":
        return PumpConfig(scheme, delta, n_cav=float(entry["n_cav"]))
    watts = dbm_to_watts(entry["power_dbm"]) if drives[0] == "power_dbm" \
        else float(entry["power_w"])
    return PumpConfig(scheme, delta, p_in=watts)


def _binding_spec(entry: dict) -> BindingSpec:
    name = entry["name"]
    values = {k: param_from_hz(name, entry[k]) for k in ("init", "lo", "hi") if k in entry}
    return BindingSpec(name, entry["mode"], group=entry.get("group"), **values)


def load_config(path) -> RunConfig:
    """Load, schema-validate and unit-convert a JSON config file.

    Raises ConfigError on a missing file, JSON syntax error, schema
    violation or physically invalid parameter combination.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"{path}: {loc}: {exc.message}") from exc

    try:
        cavity = CavityParams.from_hz(
            raw["cavity"]["omega_c_hz"],
            raw["cavity"]["kappa_hz"],
            raw["cavity"]["kappa_ext_hz"],
        )
        mech = MechanicalParams.from_hz(
            raw["mechanics"]["omega_m_hz"],
            raw["mechanics"]["gamma_m_hz"],
            raw["mechanics"]["g0_hz"],
        )
        pumps = [_build_pump(p, mech) for p in raw.get("pumps", [])]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    grid = GridSettings(**raw.get("grid", {}))
    noise = None
    if "noise" in raw:
        noise = NoiseSpec(sigma=raw["noise"]["sigma"],
                          seed=raw["noise"].get("seed", 0))
    fit = None
    if "fit" in raw:
        fit = FitSettings(
            bindings=tuple(_binding_spec(b) for b in raw["fit"].get("bindings", [])),
            datasets=tuple(
                FitDatasetSpec(path=d.get("path"),
                               bindings=tuple(_binding_spec(b)
                                              for b in d.get("bindings", [])))
                for d in raw["fit"].get("datasets", [])),
        )
    return RunConfig(cavity=cavity, mechanics=mech, pumps=pumps, grid=grid,
                     noise=noise, fit=fit, meta=dict(raw.get("meta", {})))
