"""The config checker against jsonschema: every single-violation mutation of a
full config gets jsonschema's verdict and its exact ``loc: message``, except
an integral float for an integer key, which omitbench rejects and jsonschema
accepts.  Configs with two violations get jsonschema's verdict.  A keyword
the checker does not implement cannot appear in ``CONFIG_SCHEMA`` unnoticed.
NaN, Infinity and integers too large for a float, which jsonschema accepts as
numbers, exit 2 naming the key.
"""

import copy
import json
import math
import random
import warnings

import jsonschema
import pytest
from click.testing import CliRunner

from omitbench import config
from omitbench.cli import main
from omitbench.config import CONFIG_SCHEMA, ConfigError, load_config

FULL = {
    "cavity": {"omega_c_hz": 6e9, "kappa_hz": 84e3, "kappa_ext_hz": 44e3},
    "mechanics": {"omega_m_hz": 3.8e6, "gamma_m_hz": 15.3, "g0_hz": 0.56},
    "pumps": [{"scheme": "red", "detuning_hz": -3.8e6, "n_cav": 1.3e6},
              {"scheme": "blue", "power_dbm": -116.0},
              {"scheme": "red", "power_w": 2e-15}],
    "grid": {"points": 801, "half_width_gamma_eff": 25.0, "map_delta_points": 41,
             "map_omega_points": 201, "map_half_width_kappa": 1.5},
    "noise": {"sigma": 0.01, "seed": 7},
    "fit": {
        "bindings": [{"name": "kappa", "mode": "free", "group": "k",
                      "init": 8e4, "lo": 4e4, "hi": 1.6e5}],
        "datasets": [{"path": "a.csv",
                      "bindings": [{"name": "gamma_m", "mode": "shared", "group": "t250",
                                    "init": 15.0, "lo": 1.0, "hi": 100.0}]}],
    },
    "meta": {"sample": "NbTiN-3", "temperature_mK": 250},
}
DELETE = object()
WRONG_TYPE = {"number": ["x", True, None], "integer": ["x", False, 1.5],
              "string": [1, None], "object": ["x", []], "array": [{}, 1]}


def mutations(schema, value, loc=()):
    """``(loc, new value or DELETE, integral float?)`` for every single
    violation of ``schema`` that one edit of ``value`` can make."""
    for key, arg in schema.items():
        if key == "type":
            yield from ((loc, bad, False) for bad in WRONG_TYPE[arg])
            if arg == "integer":
                yield loc, float(value), True
        elif key == "enum":
            yield loc, "bogus", False
        elif key in ("minimum", "exclusiveMinimum"):
            yield loc, arg - 1, False
            if key == "exclusiveMinimum":
                yield loc, arg, False
        elif key == "maximum":
            yield loc, arg + 1, False
        elif key in ("minLength", "minItems"):
            yield loc, type(value)(), False
        elif key == "required":
            yield from ((loc + (name,), DELETE, False) for name in arg if name in value)
        elif key == "additionalProperties":
            yield loc + ("zz_unknown",), 1, False
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from mutations(sub, value[name], loc + (name,))
        elif key == "items":
            for i, item in enumerate(value):
                yield from mutations(arg, item, loc + (i,))


def mutated(*edits):
    cfg = copy.deepcopy(FULL)
    for loc, new, _ in edits:
        if not loc:
            cfg = new
            continue
        parent = cfg
        for step in loc[:-1]:
            parent = parent[step]
        if new is DELETE:
            del parent[loc[-1]]
        else:
            parent[loc[-1]] = new
    return cfg


def jsonschema_error(cfg):
    """jsonschema.validate's error for ``cfg``, or None."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    return jsonschema.exceptions.best_match(cls(CONFIG_SCHEMA).iter_errors(cfg))


def load_error(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        load_config(path)
    except ConfigError as exc:
        return str(exc).removeprefix(f"{path}: ")
    return None


SINGLE = list(mutations(CONFIG_SCHEMA, FULL))
NESTED = [m for m in SINGLE if m[0]]


def test_schema_is_valid_and_full_config_loads(tmp_path):
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    assert jsonschema_error(FULL) is None
    assert load_error(tmp_path, FULL) is None
    assert len(SINGLE) > 150


def edit_id(edit):
    loc, new, _ = edit
    return "/".join(map(str, loc)) + (" deleted" if new is DELETE else f"={new!r}")


@pytest.mark.parametrize("edit", SINGLE, ids=edit_id)
def test_single_violation_matches_jsonschema(tmp_path, edit):
    cfg = mutated(edit)
    ours = load_error(tmp_path, cfg)
    loc = "/".join(map(str, edit[0])) or "(top level)"
    if edit[2]:
        assert jsonschema_error(cfg) is None
        assert ours == f"{loc}: {edit[1]!r} is not of type 'integer'"
    else:
        err = jsonschema_error(cfg)
        assert ours == f"{'/'.join(map(str, err.absolute_path)) or '(top level)'}: {err.message}"


def test_two_violations_get_jsonschema_verdict(tmp_path):
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        a, b = rng.sample(NESTED, 2)
        if a[0][:len(b[0])] == b[0] or b[0][:len(a[0])] == a[0]:
            continue  # one edit would undo or contain the other
        cfg = mutated(a, b)
        err = jsonschema_error(cfg)
        ours = load_error(tmp_path, cfg)
        assert ours is not None
        assert (err is None) == (a[2] and b[2])
        if not (a[2] or b[2]):  # both report a shallowest violation
            loc = ours.split(": ", 1)[0]
            assert (0 if loc == "(top level)" else loc.count("/") + 1) == len(err.path)
        checked += 1


def test_equally_deep_violations_report_the_later_path(tmp_path):
    cfg = mutated((("cavity", "kappa_hz"), "x", False), (("mechanics", "g0_hz"), "x", False))
    err = jsonschema_error(cfg)
    assert list(err.path) == ["mechanics", "g0_hz"]
    assert load_error(tmp_path, cfg) == "mechanics/g0_hz: 'x' is not of type 'number'"


def test_unknown_keys_are_listed_sorted(tmp_path):
    unknown = ["k7", "k2", "k5", "k0", "k6", "k3", "k1", "k4"]  # a set order would show
    cfg = mutated(*[(("cavity", key), 1, False) for key in unknown])
    expected = ("cavity: Additional properties are not allowed "
                f"({', '.join(map(repr, sorted(unknown)))} were unexpected)")
    assert f"cavity: {jsonschema_error(cfg).message}" == expected
    assert load_error(tmp_path, cfg) == expected


def schema_keywords(schema):
    """Every keyword used anywhere in ``schema``."""
    found = set(schema)
    for sub in schema.get("properties", {}).values():
        found |= schema_keywords(sub)
    if "items" in schema:
        found |= schema_keywords(schema["items"])
    return found


def test_every_schema_keyword_is_implemented():
    assert schema_keywords(CONFIG_SCHEMA) <= set(config._KEYWORDS)


def test_an_unimplemented_keyword_fails_loudly():
    with pytest.raises(KeyError, match="exclusiveMaximum"):
        list(config._violations(5, {"type": "integer", "exclusiveMaximum": 3}))


def object_schemas(schema, loc=()):
    """``(loc, schema)`` for every object schema in ``schema``."""
    if schema.get("type") == "object":
        yield loc, schema
    for name, sub in schema.get("properties", {}).items():
        yield from object_schemas(sub, (*loc, name))
    if "items" in schema:
        yield from object_schemas(schema["items"], (*loc, "items"))


def test_every_object_but_meta_rejects_unknown_keys():
    # The mutations above come from the schema, so they cannot see a missing flag.
    objects = dict(object_schemas(CONFIG_SCHEMA))
    assert {(), ("pumps", "items"), ("fit", "datasets", "items", "bindings", "items"),
            ("meta",)} <= objects.keys()
    assert [loc for loc, schema in objects.items()
            if schema.get("additionalProperties") is not False] == [("meta",)]


@pytest.mark.parametrize("loc, value", [(("pumps", 0, "n_cav"), math.nan),
                                        (("noise", "sigma"), math.nan),
                                        (("grid", "half_width_gamma_eff"), math.inf),
                                        (("pumps", 0, "n_cav"), 10 ** 400),
                                        (("cavity", "omega_c_hz"), 10 ** 400)],
                         ids=["n_cav-NaN", "sigma-NaN", "half_width-Infinity",
                              "n_cav-int-1e400", "omega_c-int-1e400"])
def test_non_finite_number_exits_2_naming_its_key(tmp_path, monkeypatch, loc, value):
    monkeypatch.chdir(tmp_path)
    cfg = mutated((loc, value, False))
    path = tmp_path / "cfg.json"
    # NaN and Infinity as Python's json writes them; 10**400 as 401 digits, which
    # no float can hold
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = CliRunner().invoke(main, ["--config", str(path), "--out", "x.csv", "simulate"])
    assert r.exit_code == 2
    assert r.stderr == f"error: {path}: {'/'.join(map(str, loc))}: {json.dumps(value)} " \
                       "is not a finite number\n"
    assert caught == []
    assert not (tmp_path / "x.csv").exists()


def test_meta_may_hold_non_finite_numbers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FULL, "meta": {"offset": math.nan}}))
    assert math.isnan(load_config(path).meta["offset"])
