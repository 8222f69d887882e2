"""Command-line front end.

Verbs: simulate | map | fit | photons | linewidth | convert.  Global flags
--config/--seed/--out/--db apply across verbs.  All file and printed
frequencies are Hz; magnitudes are stored linear and rendered in dB only
under --db.

Exit codes: 0 success; 2 config, file parse or input error; 3 model
singularity; 4 fit did not converge; 5 insufficient data for the requested
fit; 6 no resolvable spectral feature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click

from . import __version__
from .config import MAX_LINE_POINTS, ConfigError, RunConfig, load_config
from .datafiles import (
    DatasetFile,
    atomic_write_text,
    read_dataset,
    write_dataset,
    write_fit_report,
    write_map,
    write_residual_csv,
)
from .fitting import (
    LOG_PARAMS,
    PARAM_NAMES,
    FeatureNotFound,
    FitDataset,
    FitProblem,
    InsufficientData,
    ParamBinding,
    UnderResolved,
    extract_linewidth,
    fit as run_fit,
)
from .model import (
    PARAM_UNITS,
    TWO_PI,
    PumpConfig,
    PumpScheme,
    SingularDenominator,
    cooperativity,
    intracavity_photon_number,
    param_to_hz,
)
from .sweeps import (
    SweepTrace,
    add_noise,
    dbm_to_watts,
    default_delta_grid,
    default_line_grid,
    simulate_line_cut,
    simulate_map,
    watts_to_dbm,
)
from .svgmap import render_heatmap, render_line

# Exit code of each error a verb may raise; the first class of the
# exception's MRO found here decides.  The library rejects bad input with
# ValueError, so that is an input error like a bad config or file.
EXIT_CODES = {
    SingularDenominator: 3,
    InsufficientData: 5,
    FeatureNotFound: 6,
    UnderResolved: 6,
    ConfigError: 2,
    ValueError: 2,
    OSError: 2,
}
EXIT_NOT_CONVERGED = 4

_scheme_option = click.option("--scheme", type=click.Choice([s.value for s in PumpScheme]),
                              default=None, help="Pump scheme override.")


@dataclass
class CliState:
    config_path: str | None = None
    seed: int | None = None
    out: str | None = None
    db: bool = False


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Cli(click.Group):
    """The verb group: an error listed in ``EXIT_CODES`` ends the run with
    one ``error:`` line on stderr and its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            _fail(next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES),
                  str(exc))


def _require_config(state: CliState) -> RunConfig:
    if state.config_path is None:
        raise ConfigError("this command needs --config <file>")
    return load_config(state.config_path)


def _require_out(state: CliState) -> Path:
    if state.out is None:
        raise ConfigError("this command needs --out <path>")
    return Path(state.out)


def _display_mag(value: float, db: bool) -> str:
    if db:
        return f"{20.0 * math.log10(max(value, 1e-12)):.3f} dB"
    return f"{value:.6f}"


def _resolve_pumps(cfg: RunConfig, scheme, detuning_hz, ncav, power_dbm, power_w=None):
    """Pump list for simulate/map/photons: CLI overrides win over the config list."""
    strengths = {"--ncav": ncav, "--power-dbm": power_dbm, "--power-w": power_w}
    given = [flag for flag, v in strengths.items() if v is not None]
    if len(given) > 1:
        raise ValueError(f"{given[0]} and {given[1]} are mutually exclusive")
    if power_w is not None and power_w < 0:
        raise ValueError("--power-w must be >= 0")
    if scheme is None and detuning_hz is None and not given:
        if not cfg.pumps:
            raise ConfigError("config has no pumps and no pump flags were given")
        return cfg.pumps
    sch = PumpScheme.parse(scheme) if scheme else None
    # The first configured pump of the requested scheme, else the first one.
    base = next((p for p in cfg.pumps if p.scheme is sch), cfg.pumps[0] if cfg.pumps else None)
    sch = sch or (base.scheme if base else PumpScheme.RED)
    if detuning_hz is not None:
        delta = TWO_PI * detuning_hz
    elif base is not None and scheme is None:
        delta = base.delta
    else:
        delta = sch.aligned_detuning(cfg.mechanics.omega_m)
    if ncav is not None:
        return [PumpConfig(sch, delta, n_cav=ncav)]
    if given:
        watts = dbm_to_watts(power_dbm, "--power-dbm") if power_dbm is not None else power_w
        return [PumpConfig(sch, delta, p_in=watts)]
    if base is not None:
        return [PumpConfig(sch, delta, n_cav=base.n_cav, p_in=base.p_in)]
    raise ConfigError("no pump strength: give --ncav or --power-dbm "
                      "or a pumps entry in the config")


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{param.opts[0]} must be a finite number")
    return value


def _float_option(*decls, help):
    """A float flag that rejects NaN and infinities, naming the flag."""
    return click.option(*decls, type=float, default=None, callback=_finite, help=help)


def _numbered(path: Path, index: int, count: int) -> Path:
    if count == 1:
        return path
    return path.with_name(f"{path.stem}_{index}{path.suffix}")


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="omitbench")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON run configuration.")
@click.option("--seed", type=int, default=None,
              help="Noise seed override (deterministic outputs per seed).")
@click.option("--out", type=click.Path(), default=None,
              help="Output file path.")
@click.option("--db", is_flag=True,
              help="Print magnitudes as 20*log10 dB (display only; files "
                   "always store linear values).")
@click.pass_context
def main(ctx, config_path, seed, out, db):
    """Two-tone transmission workbench: simulate, map, fit, inspect."""
    if seed is not None and seed < 0:
        raise ValueError("--seed must be >= 0")
    ctx.obj = CliState(config_path=config_path, seed=seed, out=out, db=db)


@main.command()
@_scheme_option
@_float_option("--detuning-hz", help="Pump detuning (omega_d - omega_c)/2pi override.")
@_float_option("--ncav", help="Pump strength as an intracavity photon number (0 = pump off).")
@_float_option("--power-dbm", help="Pump strength as input power in dBm.")
@click.option("--points", type=int, default=None, help="Probe points override.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Also render each trace to SVG.")
@click.pass_obj
def simulate(state: CliState, scheme, detuning_hz, ncav, power_dbm, points,
             svg_path):
    """Write swept-probe trace files for the configured pump conditions."""
    cfg = _require_config(state)
    out = _require_out(state)
    if points is not None and points < 2:
        raise ValueError("--points must be >= 2")
    if points is not None and points > MAX_LINE_POINTS:
        raise ValueError(f"--points must be <= {MAX_LINE_POINTS}")
    pumps = _resolve_pumps(cfg, scheme, detuning_hz, ncav, power_dbm)
    n_points = points if points is not None else cfg.grid.points
    for i, pump in enumerate(pumps):
        grid = default_line_grid(pump, cfg.cavity, cfg.mechanics, points=n_points,
                                 half_width_gamma_eff=cfg.grid.half_width_gamma_eff)
        trace = simulate_line_cut(pump, cfg.cavity, cfg.mechanics, grid, meta=cfg.meta)
        if cfg.noise is not None:
            seed = state.seed if state.seed is not None else cfg.noise.seed
            trace = add_noise(trace, replace(cfg.noise, seed=seed + i))
        data = DatasetFile.from_trace(trace)
        path = _numbered(out, i, len(pumps))
        write_dataset(path, data)
        mag = data.s21_mag
        click.echo(f"{path}: {len(mag)} points, "
                   f"min={_display_mag(float(mag.min()), state.db)}, "
                   f"max={_display_mag(float(mag.max()), state.db)}")
        if svg_path is not None:
            spath = _numbered(Path(svg_path), i, len(pumps))
            atomic_write_text(spath, render_line(trace, db=state.db))
            click.echo(f"{spath}: line plot")


@main.command(name="map")
@_scheme_option
@_float_option("--ncav", help="Photon number held fixed across detuning rows.")
@_float_option("--power-dbm", help="Fixed input power; photon number recomputed per row.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Also render the map to an SVG heatmap.")
@click.pass_obj
def map_cmd(state: CliState, scheme, ncav, power_dbm, svg_path):
    """Write a detuning-by-probe transmission matrix around the sideband."""
    cfg = _require_config(state)
    out = _require_out(state)
    pump = _resolve_pumps(cfg, scheme, None, ncav, power_dbm)[0]
    aligned = replace(pump, delta=pump.scheme.aligned_detuning(cfg.mechanics.omega_m))
    delta_grid = default_delta_grid(pump.scheme, cfg.cavity, cfg.mechanics,
                                    points=cfg.grid.map_delta_points,
                                    half_width_kappa=cfg.grid.map_half_width_kappa)
    omega_grid = default_line_grid(aligned, cfg.cavity, cfg.mechanics,
                                   points=cfg.grid.map_omega_points,
                                   half_width_gamma_eff=cfg.grid.half_width_gamma_eff)
    smap = simulate_map(pump.scheme, cfg.cavity, cfg.mechanics, delta_grid, omega_grid,
                        n_cav=pump.n_cav, p_in=pump.p_in, meta=cfg.meta)
    write_map(out, smap)
    values = smap.s21_mag
    click.echo(f"{out}: {values.shape[0]}x{values.shape[1]} map, "
               f"min={_display_mag(float(values.min()), state.db)}, "
               f"max={_display_mag(float(values.max()), state.db)}")
    if svg_path is not None:
        atomic_write_text(svg_path, render_heatmap(smap, db=state.db))
        click.echo(f"{svg_path}: heatmap")


def _binding(entry: dict, default) -> ParamBinding:
    """The binding of a config ``fit`` entry (internal units); ``default``,
    the dataset's value of the parameter, is the start when the entry gives
    no ``init``.  A free or shared entry without bounds gets a decade around
    the start for a positive rate, a narrow relative window for the two
    frequencies."""
    name, mode = entry["name"], entry["mode"]
    init = entry.get("init", default)
    if init is None:
        raise ConfigError(f"binding {name}: no init value available")
    lo, hi = -math.inf, math.inf
    if mode != "fixed":
        rel = 1e-3 if name == "omega_c" else 1e-2
        lo, hi = ((init / 10.0, init * 10.0) if name in LOG_PARAMS
                  else (init * (1 - rel), init * (1 + rel)))
    return ParamBinding(name, mode, init, entry.get("lo", lo), entry.get("hi", hi),
                        group=entry.get("group"))


def _file_n_cav(path, trace: SweepTrace, cfg: RunConfig) -> float | None:
    """n_cav from the `n_cav` or else `pump_power_dbm` metadata of a file's
    trace, None without either; an error names the file and the key."""
    key = next((k for k in ("n_cav", "pump_power_dbm") if k in trace.meta), None)
    if key is None:
        return None
    value, floor = trace.meta[key], 0.0 if key == "n_cav" else -math.inf
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= floor):
        raise ValueError(f"{path}: {key} must be a finite number"
                         f"{' >= 0' if floor == 0 else ''}, got {value!r}")
    if key == "n_cav":
        return float(value)
    watts = dbm_to_watts(float(value), f"{path}: {key}")
    omega_d = TWO_PI * trace.meta["pump_freq_hz"]
    scheme = PumpScheme.parse(trace.meta["scheme"])
    pump = PumpConfig(scheme, omega_d - cfg.cavity.omega_c, p_in=watts)
    return intracavity_photon_number(pump, cfg.cavity)


def _dataset_trace(path, data: DatasetFile):
    """The trace of a dataset file; an error names the file."""
    try:
        return data.to_trace()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _dataset_bindings(path, trace: SweepTrace, cfg: RunConfig, entries) -> dict:
    # Parameter names are the CavityParams and MechanicalParams field names.
    defaults = {**asdict(cfg.cavity), **asdict(cfg.mechanics),
                "n_cav": _file_n_cav(path, trace, cfg)}
    bindings = {e["name"]: _binding(e, defaults[e["name"]]) for e in entries}
    for name in PARAM_NAMES:
        if name not in bindings:
            if defaults[name] is None:
                raise ConfigError(
                    f"dataset carries neither n_cav nor pump_power_dbm metadata "
                    f"and no {name} binding was configured")
            bindings[name] = ParamBinding.fixed(name, defaults[name])
    return bindings


@main.command(name="fit")
@click.argument("datasets", nargs=-1, type=click.Path())
@click.pass_obj
def fit_cmd(state: CliState, datasets):
    """Fit the transmission model to dataset files; write a JSON report
    plus a residual CSV next to it."""
    cfg = _require_config(state)
    # A file argument takes the bindings of the entry that names the same
    # file, however spelled; without arguments each entry brings its own.
    by_path = {Path(d["path"]).resolve(): d["bindings"] for d in cfg.fit["datasets"]}
    jobs = ([(str(p), by_path.get(Path(p).resolve(), [])) for p in datasets]
            or [(d["path"], d["bindings"]) for d in cfg.fit["datasets"]])
    if not jobs:
        raise ConfigError("no datasets: pass file arguments or configure fit.datasets")

    fit_datasets = []
    for p, own in jobs:
        data = read_dataset(p)
        trace = _dataset_trace(p, data)
        bindings = _dataset_bindings(p, trace, cfg, cfg.fit["bindings"] + own)
        fit_datasets.append(FitDataset(trace, data.scheme, bindings))
    problem = FitProblem(fit_datasets)
    result = run_fit(problem)

    out = Path(state.out) if state.out is not None else Path("fit_report.json")
    write_fit_report(out, result, problem, [p for p, _ in jobs])
    write_residual_csv(out.with_name(out.stem + "_residuals.csv"), problem, result)
    click.echo(f"{out}: converged={result.converged} "
               f"iterations={result.iterations} "
               f"rms_residual={result.rms_residual:.6e}")
    for slot, name in zip(problem.slot_names, problem.slot_params):
        v = param_to_hz(name, result.values[slot])
        s = param_to_hz(name, result.stderr[slot])
        if PARAM_UNITS[name] == "count":
            click.echo(f"  {slot} = {v:.6e} +/- {s:.2e}")
        else:
            click.echo(f"  {slot} = {v:.6f} Hz +/- {s:.2e} Hz")
    if not result.converged:
        _fail(EXIT_NOT_CONVERGED, f"fit did not converge: {result.termination} "
                                  f"(iterations={result.iterations})")


@main.command()
@_float_option("--power-dbm", help="Pump power in dBm.")
@_float_option("--power-w", help="Pump power in watts.")
@_float_option("--detuning-hz",
               help="Pump detuning in Hz (default: configured pump, else -omega_m).")
@click.pass_obj
def photons(state: CliState, power_dbm, power_w, detuning_hz):
    """Print the intracavity photon number and cooperativity for a pump."""
    cfg = _require_config(state)
    base = cfg.pumps[0] if cfg.pumps else None
    if power_dbm is None and power_w is None and (base is None or base.p_in is None):
        raise ConfigError("no pump power: give --power-dbm or --power-w "
                          "or a power-driven pumps entry in the config")
    pump = _resolve_pumps(cfg, None, detuning_hz, None, power_dbm, power_w)[0]
    n = intracavity_photon_number(pump, cfg.cavity)
    coop = cooperativity(cfg.mechanics.g0, n, cfg.cavity.kappa, cfg.mechanics.gamma_m)
    click.echo(f"n_cav = {n:.6e}")
    click.echo(f"C = {coop:.6e}")


@main.command()
@click.argument("dataset", type=click.Path())
@click.pass_obj
def linewidth(state: CliState, dataset):
    """Print the FWHM (Hz) of the feature in a dataset file; with a config,
    also the cooperativity implied by the backaction width law, which holds
    only for a sideband-aligned pump."""
    data = read_dataset(dataset)
    fwhm = extract_linewidth(_dataset_trace(dataset, data))
    click.echo(f"FWHM = {fwhm / TWO_PI:.6f} Hz")
    if state.config_path is not None:
        cfg = _require_config(state)
        ratio = fwhm / cfg.mechanics.gamma_m
        implied = ratio - 1.0 if data.scheme is PumpScheme.RED else 1.0 - ratio
        click.echo(f"implied C = {implied:.6f}")


@main.command()
@_float_option("--dbm", help="Power in dBm to convert to W.")
@_float_option("--watts", help="Power in W to convert to dBm.")
def convert(dbm, watts):
    """Convert pump/probe power between dBm and watts."""
    if (dbm is None) == (watts is None):
        raise ValueError("give exactly one of --dbm or --watts")
    if dbm is not None:
        click.echo(f"{dbm_to_watts(dbm, '--dbm'):.12e} W")
    else:
        click.echo(f"{watts_to_dbm(watts):.12f} dBm")


if __name__ == "__main__":
    main()
