"""CSV and JSON file formats for traces, maps and fit reports.

All frequencies in files are Hz and all magnitudes are linear; conversion to
the angular internal units happens at this boundary.  Files are UTF-8 CSV
with `,` separators, `.` decimal points and `# key: value` comment metadata.
Every write is atomic (temp file in the target directory, then rename) and
numbers are printed with 13 significant digits so a read-back reproduces the
values to well below 1e-12 relative.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
# Values formatted at a time: bounds the text held, not the result.
_BLOCK_VALUES = 4096
# A mantissa this close to a rounding tie is printed by `%`: 2x its error bound.
_TIE_GUARD = 2e-3
_POW10 = np.array([float(10 ** k) for k in range(23)])  # all exact doubles
_SPECS = np.frombuffer(b"%d".ljust(19, b"\0") + FLOAT_FORMAT.encode().ljust(19, b"\0"),
                       np.uint8).reshape(2, 19)


def _product(*choices: bytes) -> np.ndarray:
    """A 4-byte word for each way to pick one byte from each of the four
    ``choices``, the last varying fastest: word i of 4 x _DIGITS reads "%04d" % i."""
    grids = np.meshgrid(*(np.frombuffer(c, np.uint8) for c in choices), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, 4).view(np.uint32).ravel()


# A %.12e text and its "," or "\n" in five words: sign (NUL if none), lead digit, "."
# and a digit; 4 digits; 4 digits; 3 digits and "e"; exponent sign, 2 digits and end.
_DIGITS = b"0123456789"
_HEADS = _product(b"\0-", _DIGITS, b".", _DIGITS)
_QUADS = _product(_DIGITS, _DIGITS, _DIGITS, _DIGITS)
_TAILS = _product(_DIGITS, _DIGITS, _DIGITS, b"e")
# Word 2 (e + 10) + (1 at a line end) is exponent e: -10 to -1, then 0 to 34.
_EXPONENTS = np.concatenate([_product(b"-", _DIGITS, _DIGITS, b",\n").reshape(100, 2)[10:0:-1],
                             _product(b"+", _DIGITS, _DIGITS, b",\n").reshape(100, 2)[:35]]
                            ).ravel()


class DatasetFormatError(ValueError):
    """Malformed data file; message carries ``path:line``."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")


def atomic_write_text(path, text) -> None:
    """Write text (a str, or str chunks) to path via a temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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


def _format_rows(part, floats) -> str:
    r"""The text of ``("%.12e" or "%d" per column, joined by ",", + "\n") * len(part)
    % tuple(part.ravel().tolist())`` for the 2-D ``part``, where ``floats`` flags the
    ``%.12e`` columns.  A finite float x in such a column is scaled by
    10^k, |k| <= 22, an exact power of ten, in one multiply or divide: m = |x| 10^k
    is then within 2^-53 relative, less than 1e-3 absolute, of the true value, and
    if m lies in [10^12 + 1, 10^13 - 1) its rounding is the 13 digits `%` prints,
    with exponent 12 - k.  A mantissa within ``_TIE_GUARD`` of a tie or outside that
    range, zero, nan, inf and every ``%d`` value are left to `%`: the text holds
    their specs, and one `%` fills them in."""
    n, width = part.shape
    a = np.abs(part).astype(float, copy=False)
    ok = floats & (a > 0) & (a < np.inf)
    s = np.where(ok, a, 1.0)
    k = np.clip(12 - np.floor(np.log10(s)), -22, 22).astype(np.intp)
    scale = _POW10[np.abs(k)]
    m = s / scale
    np.multiply(s, scale, out=m, where=k >= 0)  # only k < 0 divides: 10^k is inexact
    ok &= (m >= 1e12 + 1) & (m < 1e13 - 1) & (np.abs(m - np.floor(m) - 0.5) >= _TIE_GUARD)
    r = np.where(ok, np.rint(m), 0.0)
    # Exact: r < 2^53, and no quotient below is within 2^-53 of an integer but itself.
    top = np.floor(r / 1e11)
    r -= 1e11 * top
    mid = np.floor(r / 1e7)
    r -= 1e7 * mid
    low = np.floor(r / 1e3)
    r -= 1e3 * low
    buf = np.empty((n, width, 5), np.uint32)
    buf[..., 0] = _HEADS[(top + 100 * np.signbit(part)).astype(np.intp)]
    buf[..., 1] = _QUADS[mid.astype(np.intp)]
    buf[..., 2] = _QUADS[low.astype(np.intp)]
    buf[..., 3] = _TAILS[r.astype(np.intp)]
    buf[..., 4] = _EXPONENTS[2 * (22 - k) + (np.arange(width) == width - 1)]
    # Every other value is left to one `%`: its slot holds its spec and its end.
    slow = np.flatnonzero(~ok)
    buf.view(np.uint8).reshape(-1, 20)[slow, :19] = _SPECS[floats[slow % width].astype(np.intp)]
    return buf.tobytes().translate(None, b"\0").decode() % tuple(part.ravel()[slow].tolist())


def _write_csv(path, meta: dict, header: str, columns) -> None:
    """Atomic, deterministic CSV: ``# key: value`` lines, the header, then one
    row per entry of ``columns`` (1-D arrays, or 2-D blocks of adjacent
    columns), formatted ``_BLOCK_VALUES`` values at a time.  Integer columns
    print as ``%d``; floats exactly as ``%.12e`` prints them (13 significant
    digits), by a vectorised formatter with a per-value ``%`` fallback.  A
    ValueError names an unwritable meta key."""
    columns = [np.asarray(c) for c in columns]
    lines = [f"# {k}: {_format_meta_value(v)}" for k, v in meta.items()]
    if bad := [k for k, c in zip(meta, lines) if ":" in str(k) or "\n" in c or "\r" in c]:
        raise ValueError(f"meta key {bad[0]!r}: cannot write a line break, or a ':' in a key")
    table = np.column_stack(columns)
    floats = np.array([c.dtype.kind not in "iu" for c in columns
                       for _ in range(c.shape[1] if c.ndim == 2 else 1)])
    step = max(1, _BLOCK_VALUES // table.shape[1])
    blocks = (_format_rows(table[i:i + step], floats) for i in range(0, len(table), step))
    atomic_write_text(path, itertools.chain(["\n".join([*lines, header]) + "\n"], blocks))


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
        probe_hz = pump_hz + trace.omega / TWO_PI
        # Each step must exceed the 13-digit quantum of the largest |probe|, or rows merge.
        if np.any(np.diff(probe_hz) <= 10.0 ** (np.floor(np.log10(np.abs(probe_hz).max())) - 12)):
            raise ValueError("duplicate probe frequencies in the file")
        return cls(probe_hz, np.full(len(probe_hz), pump_hz), trace.magnitude(),
                   dict(trace.meta))

    def to_trace(self) -> SweepTrace:
        """Magnitude trace on the probe offset from the pump (rad/s), with
        file metadata attached.

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
        # Exact (Sterbenz) for probe and pump within a factor of 2: pump + offset is probe.
        return SweepTrace(TWO_PI * probe - TWO_PI * pump[0], self.s21_mag[order], meta)


def write_dataset(path, data: DatasetFile) -> None:
    """Serialize a DatasetFile; atomic, deterministic, 13 significant digits."""
    _write_csv(path, data.meta, TRACE_HEADER,
               (data.probe_freq_hz, data.pump_freq_hz, data.s21_mag))


def _floats(path, lineno, fields, what) -> list[float]:
    """``fields`` as finite floats; ``what`` names a field in the errors."""
    try:
        values = list(map(float, fields))
    except ValueError:
        raise DatasetFormatError(path, lineno, f"non-numeric {what}") from None
    if not all(map(math.isfinite, values)):
        raise DatasetFormatError(path, lineno, "non-finite value")
    return values


def _lines(path, fh, meta: dict):
    """``(line number, stripped line)`` for each line of ``fh`` that is neither
    blank nor a comment; each ``# key: value`` comment goes into ``meta``."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line[:1] != "#":
            if line:
                yield lineno, line
            continue
        key, colon, value = line[1:].partition(":")
        if not colon:
            raise DatasetFormatError(path, lineno, "comment is not a `key: value` pair")
        meta[key.strip()] = _parse_meta_value(value)


def _read_csv(path, meta: dict, check_header, row_test=None, row_message=""):
    """Read a `#`-commented CSV file: ``check_header(line number, fields)`` checks
    the first line that is neither blank nor a comment (raising) and makes ``head``
    of it; each later line is a row of as many finite floats, where ``row_test`` (on
    a 2-D array) is false.  numpy parses the body; one it rejects is read again line
    by line, naming the first fault.  Returns ``(head, rows)``, or ``(None, None)``."""
    with open(path, encoding="utf-8") as fh:
        lineno, line = next(_lines(path, fh, meta), (0, None))
        if line is None:
            return None, None
        head, width = check_header(lineno, line.split(",")), line.count(",") + 1
        try:
            with warnings.catch_warnings():  # an empty body warns
                warnings.simplefilter("ignore")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # includes an undecodable byte
            pass
        else:
            if (rows.shape[1] == width and np.isfinite(rows).all()
                    and not (row_test and row_test(rows).any())):
                return head, rows
        fh.seek(0)
        lines, rows = _lines(path, fh, meta), []
        next(lines)  # the header, already checked
        for lineno, line in lines:
            fields = line.split(",")
            if len(fields) != width:
                raise DatasetFormatError(path, lineno,
                                         f"expected {width} fields, got {len(fields)}")
            rows.append(_floats(path, lineno, fields, "field"))
            if row_test and row_test(np.array(rows[-1:]))[0]:
                raise DatasetFormatError(path, lineno, row_message)
    return head, np.array(rows).reshape(-1, width)


def read_dataset(path) -> DatasetFile:
    """Parse a DatasetFile, reporting the offending line on any format error."""
    path = Path(path)
    meta: dict = {}

    def check_header(lineno, header):
        if ",".join(header) != TRACE_HEADER:
            raise DatasetFormatError(
                path, lineno, f"expected header {TRACE_HEADER!r}, got {','.join(header)!r}")

    _, rows = _read_csv(path, meta, check_header, lambda rows: rows[:, 2] < 0,
                        "s21_mag must be >= 0")
    if rows is None:
        raise DatasetFormatError(path, 0, "missing column header")
    if not len(rows):
        raise DatasetFormatError(path, 0, "no data rows")
    if "scheme" not in meta:
        raise DatasetFormatError(path, 0, "missing `# scheme:` metadata")
    try:
        PumpScheme.parse(meta["scheme"])
    except ValueError as exc:
        raise DatasetFormatError(path, 0, str(exc)) from None
    return DatasetFile(*np.ascontiguousarray(rows.T), meta)


def write_map(path, smap: SweepMap) -> None:
    """Serialize a map: detuning axis (Hz) down the first column, probe
    offset axis (Hz) across the header row."""
    axis = _format_rows(np.atleast_2d(smap.omega / TWO_PI), np.ones(len(smap.omega), bool))
    _write_csv(path, smap.meta, f"{MAP_HEADER_LABEL},{axis}"[:-1],
               (smap.delta / TWO_PI, smap.s21_mag))


def read_map(path) -> SweepMap:
    """Parse a map file written by :func:`write_map`."""
    path = Path(path)
    meta: dict = {}

    def check_header(lineno, header):
        if header[0] != MAP_HEADER_LABEL:
            raise DatasetFormatError(
                path, lineno, f"expected header starting with {MAP_HEADER_LABEL!r}")
        omega_hz = np.array(_floats(path, lineno, header[1:], "axis value"))
        if not np.all(np.diff(omega_hz) > 0):
            raise DatasetFormatError(path, lineno, "probe offset axis must be strictly increasing")
        return omega_hz

    omega_hz, table = _read_csv(path, meta, check_header)
    if table is None or not len(table):
        raise DatasetFormatError(path, 0, "no matrix content")
    try:
        return SweepMap(TWO_PI * table[:, 0], TWO_PI * omega_hz,
                        np.ascontiguousarray(table[:, 1:]), meta)
    except ValueError as exc:  # a detuning column or probe axis that SweepMap refuses
        raise DatasetFormatError(path, 0, str(exc)) from None


def _suffix(name: str) -> str:
    """Key suffix of a parameter in files: ``_hz`` for a rate, none for a count."""
    return "_hz" if PARAM_UNITS[name] == "rad/s" else ""


def _json_number(v: float) -> float | None:
    """A float as strict JSON takes it: ``null`` stands for a non-finite value."""
    return v if math.isfinite(v) else None


def write_fit_report(path, result, problem, dataset_paths) -> None:
    """JSON fit report: fitted values in Hz (n_cav as a count), uncertainties,
    rms residual, iteration and residual-evaluation counts, convergence flag and
    termination reason, plus the resolved parameter set of each dataset and the
    path it was read from (``dataset_paths``, in dataset order).  The file is strict JSON:
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
            "path": str(dataset_paths[i]),
        }
        entry["parameters"] = {n + _suffix(n): _json_number(param_to_hz(n, v))
                               for n, v in resolved.items()}
        datasets.append(entry)
    report = {
        "converged": bool(result.converged),
        "termination": result.termination,
        "iterations": int(result.iterations),
        "n_residual_evals": int(result.n_residual_evals),
        "rms_residual": _json_number(float(result.rms_residual)),
        "n_parameters": len(result.values),
        "parameters": params,
        "datasets": datasets,
    }
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def write_residual_csv(path, problem, result) -> None:
    """Per-point table of the fit's own residuals for all datasets of a fitted
    problem.  A dataset whose fitted parameters the model rejects has no model
    values: its ``s21_model`` and ``residual`` columns are ``nan``."""
    datasets = problem.datasets
    data = np.concatenate([ds.data for ds in datasets])
    _write_csv(path, {}, "dataset,probe_freq_hz,s21_data,s21_model,residual",
               (np.repeat(np.arange(len(datasets)), [ds.n_points for ds in datasets]),
                np.concatenate([ds.omega_p for ds in datasets]) / TWO_PI,
                data, data + result.residuals, result.residuals))
