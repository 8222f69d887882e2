"""CSV and JSON file formats for traces, maps and fit reports.

All frequencies in files are Hz and all magnitudes are linear; conversion to
the angular internal units happens at this boundary.  Files are UTF-8 CSV
with `,` separators, `.` decimal points and `# key: value` comment metadata.
Every write is atomic (temp file in the target directory, then rename) and
numbers are printed with 13 significant digits so a read-back reproduces the
values to well below 1e-12 relative.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fitting import penalised
from .model import PARAM_UNITS, TWO_PI, PumpScheme, param_to_hz
from .sweeps import SweepMap, SweepTrace

__all__ = [
    "DatasetFormatError",
    "DatasetFile",
    "read_dataset",
    "write_dataset",
    "read_map",
    "write_map",
    "write_fit_report",
    "write_residual_csv",
    "atomic_write_text",
]

TRACE_HEADER = "probe_freq_hz,pump_freq_hz,s21_mag"
MAP_HEADER_LABEL = "pump_detuning_hz"
FLOAT_FORMAT = "%.12e"


class DatasetFormatError(ValueError):
    """Malformed data file; message carries ``path:line``."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _format_meta_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}: {_format_meta_value(v)}" for k, v in meta.items()]


def _parse_meta_value(s: str):
    s = s.strip()
    try:
        f = float(s)
    except ValueError:
        return s
    if f.is_integer() and "e" not in s.lower() and "." not in s:
        return int(f)
    return f


@dataclass
class DatasetFile:
    """One swept-probe trace as stored on disk.

    Columns are probe frequency (Hz), pump frequency (Hz) and linear |S21|;
    metadata comments carry at least the pump scheme plus whatever run
    conditions were recorded (temperature_mK, probe_power_dbm, n_cav or
    pump_power_dbm).
    """

    probe_freq_hz: np.ndarray
    pump_freq_hz: np.ndarray
    s21_mag: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.probe_freq_hz = np.asarray(self.probe_freq_hz, dtype=float)
        self.pump_freq_hz = np.asarray(self.pump_freq_hz, dtype=float)
        self.s21_mag = np.asarray(self.s21_mag, dtype=float)
        n = len(self.probe_freq_hz)
        if len(self.pump_freq_hz) != n or len(self.s21_mag) != n:
            raise ValueError("columns must have equal length")

    @property
    def scheme(self) -> PumpScheme:
        return PumpScheme.parse(self.meta["scheme"])

    @classmethod
    def from_trace(cls, trace: SweepTrace) -> "DatasetFile":
        """Build a file image from a trace; the trace meta must carry
        pump_freq_hz and scheme."""
        if "pump_freq_hz" not in trace.meta:
            raise ValueError("trace meta must carry pump_freq_hz")
        if "scheme" not in trace.meta:
            raise ValueError("trace meta must carry scheme")
        pump_hz = float(trace.meta["pump_freq_hz"])
        if trace.axis == "offset":
            probe_hz = pump_hz + trace.omega / TWO_PI
        else:
            probe_hz = trace.omega / TWO_PI
        file_meta = {k: v for k, v in trace.meta.items() if k != "noise_on"}
        return cls(probe_hz, np.full(len(probe_hz), pump_hz), trace.magnitude(),
                   file_meta)

    def to_trace(self) -> SweepTrace:
        """Absolute-axis magnitude trace (rad/s) with file metadata attached.

        Requires a single pump frequency across the file and strictly
        unique probe points; rows are sorted by probe frequency.
        """
        pump = np.unique(self.pump_freq_hz)
        if len(pump) != 1:
            raise ValueError("pump frequency varies within the file")
        order = np.argsort(self.probe_freq_hz)
        probe = self.probe_freq_hz[order]
        if np.any(np.diff(probe) <= 0):
            raise ValueError("duplicate probe frequencies in the file")
        meta = dict(self.meta)
        meta["pump_freq_hz"] = float(pump[0])
        return SweepTrace(TWO_PI * probe, self.s21_mag[order], axis="absolute",
                          meta=meta)


def write_dataset(path, data: DatasetFile) -> None:
    """Serialize a DatasetFile; atomic, deterministic, 13 significant digits."""
    lines = _meta_lines(data.meta)
    lines.append(TRACE_HEADER)
    for p, d, m in zip(data.probe_freq_hz, data.pump_freq_hz, data.s21_mag):
        lines.append(",".join(FLOAT_FORMAT % v for v in (p, d, m)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _floats(path, lineno, fields, what) -> list[float]:
    """``fields`` as finite floats; ``what`` names a field in the errors."""
    try:
        values = list(map(float, fields))
    except ValueError:
        raise DatasetFormatError(path, lineno, f"non-numeric {what}") from None
    if not all(map(math.isfinite, values)):
        raise DatasetFormatError(path, lineno, "non-finite value")
    return values


def _read_csv(path, meta: dict):
    """Yield ``(line number, header fields)`` of a `#`-commented CSV file,
    then ``(line number, values)`` for each data row: as many finite floats
    as the header has fields.  Blank lines are skipped and ``# key: value``
    comments are parsed into ``meta`` as they are reached."""
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" not in body:
                    raise DatasetFormatError(path, lineno,
                                             "comment is not a `key: value` pair")
                key, value = body.split(":", 1)
                meta[key.strip()] = _parse_meta_value(value)
                continue
            fields = line.split(",")
            if header is None:
                header = fields
                yield lineno, fields
                continue
            if len(fields) != len(header):
                raise DatasetFormatError(
                    path, lineno, f"expected {len(header)} fields, got {len(fields)}")
            yield lineno, _floats(path, lineno, fields, "field")


def read_dataset(path) -> DatasetFile:
    """Parse a DatasetFile, reporting the offending line on any format error."""
    path = Path(path)
    meta: dict = {}
    lines = _read_csv(path, meta)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DatasetFormatError(path, 0, "missing column header")
    if ",".join(header) != TRACE_HEADER:
        raise DatasetFormatError(
            path, lineno, f"expected header {TRACE_HEADER!r}, got {','.join(header)!r}")
    rows = []
    for lineno, values in lines:
        if values[2] < 0:
            raise DatasetFormatError(path, lineno, "s21_mag must be >= 0")
        rows.append(values)
    if not rows:
        raise DatasetFormatError(path, 0, "no data rows")
    if "scheme" not in meta:
        raise DatasetFormatError(path, 0, "missing `# scheme:` metadata")
    try:
        PumpScheme.parse(meta["scheme"])
    except ValueError as exc:
        raise DatasetFormatError(path, 0, str(exc)) from None
    probe, pump, mag = map(np.array, zip(*rows))
    return DatasetFile(probe, pump, mag, meta)


def write_map(path, smap: SweepMap) -> None:
    """Serialize a map: detuning axis (Hz) down the first column, probe
    offset axis (Hz) across the header row."""
    lines = _meta_lines(smap.meta)
    header = [MAP_HEADER_LABEL] + [FLOAT_FORMAT % (w / TWO_PI) for w in smap.omega]
    lines.append(",".join(header))
    for i, d in enumerate(smap.delta):
        row = [FLOAT_FORMAT % (d / TWO_PI)]
        row.extend(FLOAT_FORMAT % v for v in smap.s21_mag[i])
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_map(path) -> SweepMap:
    """Parse a map file written by :func:`write_map`."""
    path = Path(path)
    meta: dict = {}
    lines = _read_csv(path, meta)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DatasetFormatError(path, 0, "no matrix content")
    if header[0] != MAP_HEADER_LABEL:
        raise DatasetFormatError(
            path, lineno, f"expected header starting with {MAP_HEADER_LABEL!r}")
    omega_hz = np.array(_floats(path, lineno, header[1:], "axis value"))
    table = np.array([values for _, values in lines])
    if not len(table):
        raise DatasetFormatError(path, 0, "no matrix content")
    return SweepMap(TWO_PI * table[:, 0], TWO_PI * omega_hz,
                    np.ascontiguousarray(table[:, 1:]), meta)


def _suffix(name: str) -> str:
    """Key suffix of a parameter in files: ``_hz`` for a rate, none for a count."""
    return "_hz" if PARAM_UNITS[name] == "rad/s" else ""


def _json_number(v: float) -> float | None:
    """A float as strict JSON takes it: ``null`` stands for a non-finite value."""
    return v if math.isfinite(v) else None


def write_fit_report(path, result, problem, dataset_paths=None) -> None:
    """JSON fit report: fitted values in Hz (n_cav as a count), uncertainties,
    rms residual, iteration count, convergence flag and termination reason,
    plus the resolved per-dataset parameter sets.  The file is strict JSON:
    a non-finite number, such as an undetermined standard error, is ``null``."""
    params = {}
    for slot, name in zip(problem.slot_names, problem.slot_params):
        params[slot] = {
            "value" + _suffix(name): _json_number(param_to_hz(name, result.values[slot])),
            "stderr" + _suffix(name):
                _json_number(param_to_hz(name, result.stderr[slot])),
        }
    datasets = []
    for i, resolved in enumerate(result.dataset_params):
        entry = {
            "index": i,
            "scheme": problem.datasets[i].scheme.value,
            "n_points": problem.datasets[i].n_points,
        }
        if dataset_paths is not None:
            entry["path"] = str(dataset_paths[i])
        entry["parameters"] = {n + _suffix(n): _json_number(param_to_hz(n, v))
                               for n, v in resolved.items()}
        datasets.append(entry)
    report = {
        "converged": bool(result.converged),
        "termination": result.termination,
        "iterations": int(result.iterations),
        "rms_residual": _json_number(float(result.rms_residual)),
        "n_parameters": len(result.values),
        "parameters": params,
        "datasets": datasets,
    }
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def write_residual_csv(path, problem, result) -> None:
    """Per-point residual table for all datasets of a fitted problem.  A
    dataset whose fitted parameters the model rejects has no model values:
    its ``s21_model`` and ``residual`` columns are ``nan``."""
    lines = ["dataset,probe_freq_hz,s21_data,s21_model,residual"]
    for i, (ds, params) in enumerate(zip(problem.datasets, result.dataset_params)):
        raw = ds.residuals(params)
        if penalised(raw):
            raw = np.full(ds.n_points, math.nan)
        probe_hz = ds.omega_p / TWO_PI
        data = ds.data
        model = data + raw
        for j in range(ds.n_points):
            lines.append("%d,%s,%s,%s,%s" % (
                i, FLOAT_FORMAT % probe_hz[j], FLOAT_FORMAT % data[j],
                FLOAT_FORMAT % model[j], FLOAT_FORMAT % raw[j]))
    atomic_write_text(path, "\n".join(lines) + "\n")
