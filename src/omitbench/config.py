"""Run configuration: a JSON file naming the physical system, pump
conditions, sweep grids, noise and fit bindings.

All frequencies in the file are Hz (n_cav is a photon count); values are
converted to angular units when the typed objects are built.  The file is
checked against the closed ``CONFIG_SCHEMA`` (a JSON Schema subset) before
anything runs: unknown keys are rejected everywhere except inside the
free-form ``meta`` block, which is copied verbatim into output file comments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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

__all__ = ["ConfigError", "GridSettings", "RunConfig", "load_config", "CONFIG_SCHEMA"]

# The largest grids a config or --points may ask for: a 4096 x 4096 map is 134 MB.
MAX_LINE_POINTS = 1_000_000
MAX_MAP_AXIS_POINTS = 4096


class ConfigError(Exception):
    """Configuration file missing, unparsable or schema-invalid."""


def _closed(properties: dict, *required: str) -> dict:
    """An object schema that rejects every key not in ``properties``."""
    return {"type": "object", "additionalProperties": False,
            **({"required": list(required)} if required else {}), "properties": properties}


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}

_BINDING_SCHEMA = _closed({
    "name": {"enum": list(PARAM_UNITS)},
    "mode": {"enum": ["fixed", "free", "shared"]},
    "group": {"type": "string", "minLength": 1},
    "init": _NUMBER,
    "lo": _NUMBER,
    "hi": _NUMBER,
}, "name", "mode")

CONFIG_SCHEMA = _closed({
    "cavity": _closed({
        "omega_c_hz": _POSITIVE,
        "kappa_hz": _POSITIVE,
        "kappa_ext_hz": _POSITIVE,
    }, "omega_c_hz", "kappa_hz", "kappa_ext_hz"),
    "mechanics": _closed({
        "omega_m_hz": _POSITIVE,
        "gamma_m_hz": _POSITIVE,
        "g0_hz": _NON_NEGATIVE,
    }, "omega_m_hz", "gamma_m_hz", "g0_hz"),
    "pumps": {"type": "array", "minItems": 1, "items": _closed({
        "scheme": {"enum": [s.value for s in PumpScheme]},
        "detuning_hz": _NUMBER,
        "n_cav": _NON_NEGATIVE,
        "power_dbm": _NUMBER,
        "power_w": _NON_NEGATIVE,
    }, "scheme")},
    "grid": _closed({
        "points": {"type": "integer", "minimum": 2, "maximum": MAX_LINE_POINTS},
        "half_width_gamma_eff": _POSITIVE,
        "map_delta_points": {"type": "integer", "minimum": 2, "maximum": MAX_MAP_AXIS_POINTS},
        "map_omega_points": {"type": "integer", "minimum": 2, "maximum": MAX_MAP_AXIS_POINTS},
        "map_half_width_kappa": _POSITIVE,
    }),
    "noise": _closed({
        "sigma": _NON_NEGATIVE,
        "seed": {"type": "integer", "minimum": 0},
    }, "sigma"),
    "fit": _closed({
        "bindings": {"type": "array", "items": _BINDING_SCHEMA},
        "datasets": {"type": "array", "items": _closed({
            "path": {"type": "string"},
            "bindings": {"type": "array", "items": _BINDING_SCHEMA},
        }, "path")},
    }),
    "meta": {"type": "object"},
}, "cavity", "mechanics")


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


def _type_error(value, json_type):
    """jsonschema's ``type`` message; NaN, Infinity and an int too large for a
    float are not numbers here."""
    if not _is(value, json_type):
        return f"{value!r} is not of type {json_type!r}"
    try:
        finite = json_type != "number" or math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        finite = False
    if not finite:
        return f"{json.dumps(value)} is not a finite number"


# Each keyword the checker knows: (the JSON type it constrains, None for any; for
# a leaf, a test giving jsonschema's message on a violation).  2001.0 is not an integer.
_KEYWORDS = {
    "type": (None, _type_error),
    "enum": (None, lambda v, e: v not in e and f"{v!r} is not one of {e!r}"),
    "minimum": ("number", lambda v, m: v < m and f"{v!r} is less than the minimum of {m!r}"),
    "maximum": ("number", lambda v, m: v > m and f"{v!r} is greater than the maximum of {m!r}"),
    "exclusiveMinimum": ("number", lambda v, m: v <= m
                         and f"{v!r} is less than or equal to the minimum of {m!r}"),
    "minLength": ("string", lambda v, n: len(v) < n and f"{v!r} should be non-empty"),
    "minItems": ("array", lambda v, n: len(v) < n and f"{v!r} should be non-empty"),
    **dict.fromkeys(("required", "additionalProperties", "properties"), ("object", None)),
    "items": ("array", None),
}


def _is(value, json_type):
    return isinstance(value, _TYPES[json_type]) and not isinstance(value, bool)


def _violations(value, schema, loc=()):
    """Yield ``(loc, message)`` for each way ``value`` breaks ``schema``, in schema-key order."""
    for key, arg in schema.items():
        json_type, test = _KEYWORDS[key]
        if json_type and not _is(value, json_type):
            continue
        if test and (message := test(value, arg)):
            yield loc, message
        elif key == "required":
            yield from ((loc, f"{k!r} is a required property") for k in arg if k not in value)
        elif key == "additionalProperties" and not arg and (
                extra := sorted(value.keys() - schema.get("properties", {}).keys())):
            yield loc, "Additional properties are not allowed ({} {} unexpected)".format(
                ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")
        elif key == "properties":
            for name in (k for k in arg if k in value):
                yield from _violations(value[name], arg[name], (*loc, name))
        elif key == "items":
            for i, item in enumerate(value):
                yield from _violations(item, arg, (*loc, i))


@dataclass(frozen=True)
class GridSettings:
    points: int = LINE_POINTS
    half_width_gamma_eff: float = LINE_HALF_WIDTH_GAMMA_EFF
    map_delta_points: int = MAP_DELTA_POINTS
    map_omega_points: int = MAP_OMEGA_POINTS
    map_half_width_kappa: float = MAP_DELTA_HALF_WIDTH_KAPPA


@dataclass
class RunConfig:
    """Validated, unit-converted run configuration.

    ``fit`` is the file's ``fit`` block with its ``bindings`` and
    ``datasets`` lists (each dataset with its own ``bindings``) always
    present, and every binding's ``init``/``lo``/``hi`` in internal units
    (rad/s, or a count for n_cav)."""

    cavity: CavityParams
    mechanics: MechanicalParams
    pumps: list[PumpConfig] = field(default_factory=list)
    grid: GridSettings = field(default_factory=GridSettings)
    noise: NoiseSpec | None = None
    fit: dict = field(default_factory=lambda: {"bindings": [], "datasets": []})
    meta: dict = field(default_factory=dict)


def _build_pump(i: int, entry: dict, cfg_mech: MechanicalParams) -> PumpConfig:
    scheme = PumpScheme.parse(entry["scheme"])
    delta = TWO_PI * entry["detuning_hz"] if "detuning_hz" in entry \
        else scheme.aligned_detuning(cfg_mech.omega_m)
    drives = [k for k in ("n_cav", "power_dbm", "power_w") if k in entry]
    if len(drives) != 1:
        raise ValueError(f"pumps/{i}: pump entry needs exactly one of "
                         f"n_cav, power_dbm, power_w; got {drives}")
    if drives[0] == "n_cav":
        return PumpConfig(scheme, delta, n_cav=float(entry["n_cav"]))
    watts = dbm_to_watts(entry["power_dbm"], "power_dbm") if drives[0] == "power_dbm" \
        else float(entry["power_w"])
    return PumpConfig(scheme, delta, p_in=watts)


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
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    # Report the shallowest violation, ties to the later path, as jsonschema does.
    if errors := list(_violations(raw, CONFIG_SCHEMA)):
        loc, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        raise ConfigError(f"{path}: {'/'.join(map(str, loc)) or '(top level)'}: {message}")

    try:
        cavity = CavityParams.from_hz(**raw["cavity"])
    except ValueError as exc:  # past the schema, only kappa_ext_hz > kappa_hz
        raise ConfigError(f"{path}: cavity/kappa_ext_hz: {exc}") from exc
    try:
        mech = MechanicalParams.from_hz(**raw["mechanics"])
        pumps = [_build_pump(i, p, mech) for i, p in enumerate(raw.get("pumps", []))]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    grid = GridSettings(**raw.get("grid", {}))
    noise = NoiseSpec(**raw["noise"]) if "noise" in raw else None
    fit = raw.get("fit", {})
    for block in [fit, *fit.setdefault("datasets", [])]:
        for b in block.setdefault("bindings", []):
            b.update({k: param_from_hz(b["name"], b[k])
                      for k in ("init", "lo", "hi") if k in b})
    return RunConfig(cavity=cavity, mechanics=mech, pumps=pumps, grid=grid,
                     noise=noise, fit=fit, meta=dict(raw.get("meta", {})))
