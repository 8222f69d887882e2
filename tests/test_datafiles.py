"""File-format and config tests: CSV round-trips at full precision, golden
bytes (the vectorised writer against the block-`%` writer it replaced),
line-numbered parse errors (the numpy-first reader, on both of its paths,
against the line reader it replaced), report structure, atomic writes, and
JSON config validation.
"""

import itertools
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from omitbench import datafiles
from omitbench.config import ConfigError, load_config
from omitbench.datafiles import (
    FLOAT_FORMAT,
    MAP_HEADER_LABEL,
    TRACE_HEADER,
    DatasetFile,
    DatasetFormatError,
    _parse_meta_value,
    atomic_write_text,
    read_dataset,
    read_map,
    write_dataset,
    write_fit_report,
    write_map,
    write_residual_csv,
)
from omitbench.fitting import FitDataset, FitProblem, ParamBinding, fit
from omitbench.model import (
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
)
from omitbench.sweeps import (
    NoiseSpec,
    SweepMap,
    SweepTrace,
    add_noise,
    default_delta_grid,
    default_line_grid,
    simulate_line_cut,
    simulate_map,
)

CAV = CavityParams.from_hz(6e9, 84e3, 44e3)
MECH = MechanicalParams.from_hz(3.8e6, 15.3, 0.56)


def red_trace(points=101, noise=0.0):
    pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.3e6)
    grid = default_line_grid(pump, CAV, MECH, points=points)
    trace = simulate_line_cut(pump, CAV, MECH, grid,
                              meta={"temperature_mK": 250,
                                    "probe_power_dbm": -131.0})
    if noise > 0:
        trace = add_noise(trace, NoiseSpec(noise, seed=1))
    return trace


class TestDatasetRoundTrip:
    def test_values_survive_at_12_significant_digits(self, tmp_path):
        trace = red_trace(points=101, noise=0.01)
        data = DatasetFile.from_trace(trace)
        path = tmp_path / "trace.csv"
        write_dataset(path, data)
        back = read_dataset(path)
        for a, b in [(data.probe_freq_hz, back.probe_freq_hz),
                     (data.pump_freq_hz, back.pump_freq_hz),
                     (data.s21_mag, back.s21_mag)]:
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_meta_round_trip_preserves_types(self, tmp_path):
        trace = red_trace(points=11)
        trace = replace(trace, meta={**trace.meta, "note": "warm run",
                                     "pump_power_dbm": -96.0})
        data = DatasetFile.from_trace(trace)
        path = tmp_path / "trace.csv"
        write_dataset(path, data)
        back = read_dataset(path)
        assert back.meta["temperature_mK"] == 250
        assert isinstance(back.meta["temperature_mK"], int)
        assert back.meta["scheme"] == "red"
        assert back.meta["note"] == "warm run"
        assert back.meta["pump_power_dbm"] == pytest.approx(-96.0)
        assert back.scheme is PumpScheme.RED

    @pytest.mark.parametrize("meta", [{"note": "line one\nline two"},
                                      {"note": "carriage\rreturn"},
                                      {"pump: side": "red"}], ids=["lf", "cr", "colon-key"])
    def test_meta_that_would_not_read_back_is_refused(self, tmp_path, meta):
        trace = red_trace(points=11)
        data = DatasetFile.from_trace(replace(trace, meta={**trace.meta, **meta}))
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"meta key {next(iter(meta))!r}"):
            write_dataset(path, data)
        assert list(tmp_path.iterdir()) == []

    def test_to_trace_matches_source(self, tmp_path):
        trace = red_trace(points=101)
        path = tmp_path / "trace.csv"
        write_dataset(path, DatasetFile.from_trace(trace))
        data = read_dataset(path)
        again = data.to_trace()
        # The offset axis adds back to the file's probe axis bit for bit.
        omega_d = TWO_PI * again.meta["pump_freq_hz"]
        assert np.array_equal(omega_d + again.omega, TWO_PI * data.probe_freq_hz)
        # 13 significant digits of a GHz frequency: ~1e-3 Hz per value.
        assert np.allclose(again.omega, trace.omega, rtol=0, atol=1e-12 * omega_d)
        assert np.allclose(again.magnitude(), trace.magnitude(), rtol=1e-12)

    def test_to_trace_sorts_rows(self):
        data = DatasetFile(np.array([3.0, 1.0, 2.0]),
                           np.full(3, 5.0e9),
                           np.array([0.3, 0.1, 0.2]),
                           {"scheme": "red"})
        t = data.to_trace()
        assert np.array_equal(t.magnitude(), [0.1, 0.2, 0.3])

    def test_to_trace_rejects_varying_pump(self):
        data = DatasetFile(np.array([1.0, 2.0]), np.array([5e9, 5.1e9]),
                           np.array([0.5, 0.5]), {"scheme": "red"})
        with pytest.raises(ValueError):
            data.to_trace()

    def test_from_trace_requires_scheme(self):
        trace = red_trace(points=11)
        bare = type(trace)(trace.omega, trace.s21,
                           meta={"pump_freq_hz": 5.9962e9})
        with pytest.raises(ValueError):
            DatasetFile.from_trace(bare)

    @pytest.mark.parametrize("build, message", [
        (lambda: DatasetFile(np.ones(3), np.ones(2), np.ones(3)),
         "columns must have equal length"),
        (lambda: DatasetFile.from_trace(SweepTrace(np.array([0.0, 1.0]), np.ones(2),
                                                   {"scheme": "red"})),
         "trace meta must carry pump_freq_hz"),
    ], ids=["unequal-columns", "from-trace-without-pump"])
    def test_rejects_bad_input(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("step_hz, merges", [(1.0, True), (1.01, False)])
    def test_from_trace_rejects_steps_13_digits_cannot_tell_apart(self, tmp_path, step_hz,
                                                                  merges):
        # Near 1e12 Hz, 13 significant digits print whole hertz.
        trace = SweepTrace(TWO_PI * step_hz * np.arange(5), np.ones(5),
                           {"scheme": "red", "pump_freq_hz": 1.5e12})
        if merges:
            with pytest.raises(ValueError, match="^duplicate probe frequencies in the file$"):
                DatasetFile.from_trace(trace)
        else:
            write_dataset(tmp_path / "t.csv", DatasetFile.from_trace(trace))
            assert len(read_dataset(tmp_path / "t.csv").to_trace().omega) == 5

    def test_written_floats_carry_13_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_dataset(path, DatasetFile(np.array([1 / 3 * 1e9, 2e9]),
                                        np.full(2, 5e9),
                                        np.array([0.123456789012345, 0.5]),
                                        {"scheme": "blue"}))
        body = path.read_text()
        assert "3.333333333333e+08" in body
        assert "1.234567890123e-01" in body


class TestDatasetErrors:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    def test_meta_without_colon(self, tmp_path):
        p = self.write(tmp_path, "# hello world\n" + TRACE_HEADER + "\n1,2,0.5\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert ":1:" in str(err.value)

    def test_wrong_header(self, tmp_path):
        p = self.write(tmp_path, "# scheme: red\nfreq,mag\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert ":2:" in str(err.value)
        assert "header" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        p = self.write(tmp_path,
                       "# scheme: red\n" + TRACE_HEADER + "\n1,2,0.5\n1,2\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert ":4:" in str(err.value)

    def test_non_numeric_field(self, tmp_path):
        p = self.write(tmp_path,
                       "# scheme: red\n" + TRACE_HEADER + "\n1,2,zero\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert ":3:" in str(err.value)
        assert "non-numeric" in str(err.value)

    def test_non_finite_value(self, tmp_path):
        p = self.write(tmp_path,
                       "# scheme: red\n" + TRACE_HEADER + "\n1,2,nan\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert "non-finite" in str(err.value)

    def test_negative_magnitude(self, tmp_path):
        p = self.write(tmp_path,
                       "# scheme: red\n" + TRACE_HEADER + "\n1,2,-0.5\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(p)

    def test_missing_scheme(self, tmp_path):
        p = self.write(tmp_path, TRACE_HEADER + "\n1,2,0.5\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert "scheme" in str(err.value)

    def test_invalid_scheme(self, tmp_path):
        p = self.write(tmp_path,
                       "# scheme: green\n" + TRACE_HEADER + "\n1,2,0.5\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(p)

    def test_no_rows(self, tmp_path):
        # numpy warns on an empty body; the suite turns any warning into an error.
        p = self.write(tmp_path, "# scheme: red\n" + TRACE_HEADER + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert str(err.value) == f"{p}:0: no data rows"


class TestMapRoundTrip:
    def make_map(self):
        delta = default_delta_grid(PumpScheme.RED, CAV, MECH, points=5)
        pump = PumpConfig(PumpScheme.RED, -MECH.omega_m, n_cav=1.3e6)
        omega = default_line_grid(pump, CAV, MECH, points=21)
        return simulate_map(PumpScheme.RED, CAV, MECH, delta, omega,
                            n_cav=1.3e6, meta={"run": "demo"})

    def test_round_trip(self, tmp_path):
        smap = self.make_map()
        path = tmp_path / "map.csv"
        write_map(path, smap)
        back = read_map(path)
        assert np.allclose(back.delta, smap.delta, rtol=1e-12)
        assert np.allclose(back.omega, smap.omega, rtol=1e-12)
        assert np.allclose(back.s21_mag, smap.s21_mag, rtol=1e-12)
        assert back.meta["run"] == "demo"

    def test_layout_is_delta_rows_by_omega_columns(self, tmp_path):
        smap = self.make_map()
        path = tmp_path / "map.csv"
        write_map(path, smap)
        rows = [l for l in path.read_text().splitlines()
                if l and not l.startswith("#")]
        header = rows[0].split(",")
        assert header[0] == "pump_detuning_hz"
        assert len(header) == 1 + len(smap.omega)
        assert len(rows) == 1 + len(smap.delta)
        assert float(rows[1].split(",")[0]) == pytest.approx(
            smap.delta[0] / TWO_PI, rel=1e-12)

    def test_bad_header_label(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wrong,1.0\n0.0,0.5\n")
        with pytest.raises(DatasetFormatError) as err:
            read_map(p)
        assert "pump_detuning_hz" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("pump_detuning_hz,1.0,2.0\n0.0,0.5\n")
        with pytest.raises(DatasetFormatError) as err:
            read_map(p)
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_axis_value_rejected(self, tmp_path, bad):
        p = tmp_path / "m.csv"
        p.write_text(f"# scheme: red\npump_detuning_hz,1.0,{bad}\n0.0,0.5,0.5\n")
        with pytest.raises(DatasetFormatError) as err:
            read_map(p)
        assert ":2:" in str(err.value)
        assert "non-finite" in str(err.value)


@pytest.mark.parametrize("block_values", [datafiles._BLOCK_VALUES, 7, 1])
class TestGoldenBytes:
    """Literal expected text, whole and split into blocks of rows: a writer
    rewrite cannot drift a byte unnoticed."""

    @pytest.fixture(autouse=True)
    def block_size(self, monkeypatch, block_values):
        monkeypatch.setattr(datafiles, "_BLOCK_VALUES", block_values)

    def test_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        write_dataset(path, DatasetFile(np.array([5.9999991e9, 6.0e9, 1e10 / 3]),
                                        np.full(3, 5.9962e9),
                                        np.array([1.0, 0.123456789012345, 0.0]),
                                        {"scheme": "red", "n_cav": 1.3e6,
                                         "temperature_mK": 250, "note": "warm run"}))
        assert path.read_bytes() == (
            b"# scheme: red\n"
            b"# n_cav: 1300000.0\n"
            b"# temperature_mK: 250\n"
            b"# note: warm run\n"
            b"probe_freq_hz,pump_freq_hz,s21_mag\n"
            b"5.999999100000e+09,5.996200000000e+09,1.000000000000e+00\n"
            b"6.000000000000e+09,5.996200000000e+09,1.234567890123e-01\n"
            b"3.333333333333e+09,5.996200000000e+09,0.000000000000e+00\n")

    def test_map(self, tmp_path):
        path = tmp_path / "m.csv"
        write_map(path, SweepMap(TWO_PI * np.array([-1.5e5, 2.5e4]),
                                 TWO_PI * np.array([-1e3, 0.0, 1e3 / 3]),
                                 np.array([[0.5, 1.0, 2 / 3], [1e-20, 0.75, 0.999999999999999]]),
                                 {"scheme": "blue", "points": 3}))
        assert path.read_bytes() == (
            b"# scheme: blue\n"
            b"# points: 3\n"
            b"pump_detuning_hz,-1.000000000000e+03,0.000000000000e+00,3.333333333333e+02\n"
            b"-1.500000000000e+05,5.000000000000e-01,1.000000000000e+00,6.666666666667e-01\n"
            b"2.500000000000e+04,1.000000000000e-20,7.500000000000e-01,1.000000000000e+00\n")


@pytest.mark.parametrize("value, back", [
    (250, 250), (-3, -3), (1.3e6, 1.3e6), (-96.0, -96.0), (1e-20, 1e-20),
    ("warm run", "warm run"), ("x: y, z", "x: y, z"), ("Ø", "Ø"), ("", ""),
    ("007", 7), (" padded ", "padded"), (True, "true"), ("nan", math.nan),
    ("1e3", 1000.0), ("12", 12),
], ids=repr)
def test_meta_round_trip(tmp_path, value, back):
    """Ints, floats and strings that neither parse as numbers nor carry outer
    whitespace come back as written; the rest come back as pinned here."""
    path = tmp_path / "t.csv"
    write_dataset(path, DatasetFile([1.0], [2.0], [0.5], {"scheme": "red", "k": value}))
    got = read_dataset(path).meta["k"]
    assert type(got) is type(back)
    assert got == back or (math.isnan(back) and math.isnan(got))


# The block-`%` writer the vectorised formatter replaced, kept as the reference
# for every byte written.
def ref_write_csv(path, meta, header, columns):
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FORMAT
                   for c in columns for _ in range(c.shape[1] if c.ndim == 2 else 1))
    lines = [f"# {k}: {datafiles._format_meta_value(v)}" for k, v in meta.items()]
    table = np.column_stack(columns)
    step = max(1, datafiles._BLOCK_VALUES // table.shape[1])
    blocks = (f"{row}\n" * len(part) % tuple(part.ravel().tolist())
              for part in (table[i:i + step] for i in range(0, len(table), step)))
    atomic_write_text(path, itertools.chain(["\n".join([*lines, header]) + "\n"], blocks))


def ref_write_map(path, smap):
    header = [MAP_HEADER_LABEL] + [FLOAT_FORMAT % (w / TWO_PI) for w in smap.omega]
    ref_write_csv(path, smap.meta, ",".join(header), (smap.delta / TWO_PI, smap.s21_mag))


def writers_agree(tmp_path, columns):
    """Both writers' files for ``columns``: equal bytes, or the same error."""
    texts = []
    for name, writer in [("ours", datafiles._write_csv), ("ref", ref_write_csv)]:
        try:
            writer(tmp_path / name, {}, "h", columns)
            texts.append((tmp_path / name).read_bytes())
        except (TypeError, ValueError) as exc:
            texts.append((type(exc), str(exc)))
    assert texts[0] == texts[1]
    return texts[0]


# Floats the formatter must hand to `%`, or get right next to that edge.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         math.nan, -math.nan, math.inf, -math.inf, 1e22, 1e-22, 1e23, 1e-23, 1e-10,
         9.99999999999e-11, 9.9999999999995e-11, 1e35, 9.999999999999e34, 9.9999999999995e34,
         1.0, 0.1, 1.0000000000005, 1.0000000000015, 0.5, 2.5e-5, 1e12, 1e13,
         *(float(f"9.9999999999995e{e}") for e in range(-30, 40)),
         *(float(f"9.99999999999949e{e}") for e in range(-30, 40)),
         *(float(f"{d}.000000000000{t}e{e}") for d in (1, 9) for t in (49, 5, 51)
           for e in range(-12, 36)),
         *(10.0 ** e for e in range(-30, 40)), *(np.nextafter(10.0 ** e, 0) for e in range(-30, 40))]


def float_corpus(rng, bit_patterns):
    """Seeded random float64 bit patterns, log-uniform values across the exponents
    the formatter prints itself, exact 14-digit decimals (half of them ties at 13
    digits) from 1e-31 to 1e40, and ``EDGES``; each with a random sign."""
    bits = rng.integers(0, 2 ** 64, bit_patterns, dtype=np.uint64)
    digits = rng.integers(10 ** 13, 10 ** 14, bit_patterns // 10)
    digits[::2] = digits[::2] // 10 * 10 + 5
    exps = rng.integers(-44, 28, len(digits))
    values = np.concatenate([bits.view(float), 10 ** rng.uniform(-11, 36, bit_patterns // 5),
                             [float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())],
                             np.repeat(EDGES, 3)])
    signs = rng.integers(0, 2, len(values), dtype=np.uint64) << np.uint64(63)
    return (values.view(np.uint64) ^ signs).view(float)  # no arithmetic on a signalling nan


@pytest.mark.parametrize("block_values, bit_patterns", [(datafiles._BLOCK_VALUES, 1_000_000),
                                                        (7, 10_000), (1, 3_000)])
def test_vectorised_writer_matches_percent_formatting(tmp_path, monkeypatch, block_values,
                                                      bit_patterns):
    """The writer against the block-`%` writer it replaced: the same bytes for
    random bit patterns, ties, decade carries, zeros, subnormals, 1e±22/23, nan,
    ±inf, a ``%d`` column, and non-float64 tables."""
    monkeypatch.setattr(datafiles, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(block_values)
    values = float_corpus(rng, bit_patterns)
    values = values[:len(values) // 4 * 4].reshape(-1, 4)
    writers_agree(tmp_path, [values[:, 0], values[:, 1:]])
    rows = values[-30_000:]  # the decimals and edges, behind a %d column
    ints = rng.integers(-2 ** 62, 2 ** 62, len(rows))
    ints[:8] = [0, -1, 1, 2 ** 62, -2 ** 62, 7, 10 ** 15, 999]
    mixed = writers_agree(tmp_path, [ints, rows[:, 0], rows[:, 1:3]])
    assert mixed.count(b"\n") == len(rows) + 1
    edges = np.array(EDGES)
    writers_agree(tmp_path, [edges, edges[::-1]])
    writers_agree(tmp_path, [edges[~(np.abs(edges) > 3e38)].astype(np.float32)])
    writers_agree(tmp_path, [np.arange(9), np.arange(9) ** 30])  # int table
    writers_agree(tmp_path, [np.arange(9) % 2 == 0])  # bool table, printed as %.12e
    assert writers_agree(tmp_path, [np.arange(3), [1.0, math.nan, -math.inf]]) == \
        b"h\n0,1.000000000000e+00\n1,nan\n2,-inf\n"


@pytest.mark.parametrize("block_values", [datafiles._BLOCK_VALUES, 7, 1])
def test_map_header_matches_percent_formatting(tmp_path, monkeypatch, block_values):
    """``write_map``'s axis row, formatted by the same routine, against ``%``."""
    monkeypatch.setattr(datafiles, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(block_values)
    for cols in [1, 2, 40, 401]:
        omega = np.unique(np.concatenate([float_corpus(rng, cols)[:cols], [0.0]]))
        omega = omega[np.isfinite(omega)]
        smap = SweepMap(TWO_PI * np.array([-1.0, 2e5]), omega,
                        rng.random((2, len(omega))), {"scheme": "red"})
        write_map(tmp_path / "ours", smap)
        ref_write_map(tmp_path / "ref", smap)
        assert (tmp_path / "ours").read_bytes() == (tmp_path / "ref").read_bytes()


# The line-by-line reader that numpy parsing replaced, kept as the reference for
# values, metadata and the first fault by line number.
def ref_floats(path, lineno, fields, what):
    try:
        values = list(map(float, fields))
    except ValueError:
        raise DatasetFormatError(path, lineno, f"non-numeric {what}") from None
    if not all(map(math.isfinite, values)):
        raise DatasetFormatError(path, lineno, "non-finite value")
    return values


def ref_read_csv(path, meta):
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
            yield lineno, ref_floats(path, lineno, fields, "field")


def ref_read_dataset(path):
    meta = {}
    lines = ref_read_csv(path, meta)
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


def ref_read_map(path):
    meta = {}
    lines = ref_read_csv(path, meta)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise DatasetFormatError(path, 0, "no matrix content")
    if header[0] != MAP_HEADER_LABEL:
        raise DatasetFormatError(
            path, lineno, f"expected header starting with {MAP_HEADER_LABEL!r}")
    omega_hz = np.array(ref_floats(path, lineno, header[1:], "axis value"))
    table = np.array([values for _, values in lines])
    if not len(table):
        raise DatasetFormatError(path, 0, "no matrix content")
    return SweepMap(TWO_PI * table[:, 0], TWO_PI * omega_hz,
                    np.ascontiguousarray(table[:, 1:]), meta)


def outcome(reader, path):
    """What a reader makes of a file: its arrays and meta, or its error."""
    try:
        got = reader(path)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    arrays = ((got.probe_freq_hz, got.pump_freq_hz, got.s21_mag) if isinstance(got, DatasetFile)
              else (got.delta, got.omega, got.s21_mag))
    return [a.tolist() for a in arrays], repr(got.meta)


TOKENS = ["nan", "-inf", "Infinity", "1e400", "-1e-3", "-0.0", "abc", "", " ", " 1.5 ",
          "1_0", "1__0", "0x10", "١٢", "１", "+.5", ".", "1e", "#", "1\x00", "\xa01", "NaN"]
LINES = ["", "   ", "\t", "# key: value", "#", "# no colon", "#:", "# scheme: blue",
         "# scheme: green", "# n: 007", "1,2", "1,2,3,4", TRACE_HEADER, "x\ry", "1,2,0.5\r"]


def base_text(rng, kind):
    """A well-formed trace or map file with a random shape."""
    if kind == "trace":
        rows = rng.integers(1, 40)
        head = ["# scheme: red", "# n_cav: 1300000.0", TRACE_HEADER]
        body = [FLOAT_FORMAT % (6e9 + i) + ",5.9962e9," + FLOAT_FORMAT % rng.random()
                for i in range(rows)]
    else:
        rows, cols = rng.integers(1, 12), rng.integers(1, 12)
        head = ["# scheme: blue", MAP_HEADER_LABEL + "".join(f",{j}.5" for j in range(cols))]
        body = [",".join(FLOAT_FORMAT % v for v in [1e3 * i, *rng.random(cols)])
                for i in range(rows)]
    return head + body


def mutate(rng, lines):
    """One random fault: a bad or negative field, a removed or added field, an
    inserted, deleted, duplicated or swapped line, or a truncation."""
    i = int(rng.integers(len(lines))) if lines else 0
    op = rng.integers(9)
    if op == 0 and lines:
        fields = lines[i].split(",")
        fields[rng.integers(len(fields))] = TOKENS[rng.integers(len(TOKENS))]
        lines[i] = ",".join(fields)
    elif op == 1 and lines and "," in lines[i]:
        lines[i] = lines[i].rsplit(",", 1)[0]
    elif op == 2 and lines:
        lines[i] += "," + TOKENS[rng.integers(len(TOKENS))]
    elif op == 3:
        lines.insert(i, LINES[rng.integers(len(LINES))])
    elif op == 4 and lines:
        del lines[i]
    elif op == 5 and lines:
        lines.insert(i, lines[i])
    elif op == 6 and len(lines) > 1:
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 7:
        del lines[i:]
    elif op == 8 and lines:
        lines[i] = lines[i].rsplit(",", 1)[0] + ",-0.25"
    return lines


def mutated_files(tmp_path, seed, count):
    """Seeded trace and map files with 0 to 4 faults each; the file is rewritten in place."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "f.csv"
    for k in range(count):
        kind = ("trace", "map")[k % 2]
        lines = base_text(rng, kind)
        for _ in range(rng.integers(5)):
            lines = mutate(rng, lines)
        end = ("\n", "\r\n", "")[rng.integers(3)]
        path.write_bytes((end or "\n").join(lines).encode() + end.encode())
        yield kind, path


@pytest.fixture
def walks(monkeypatch):
    """A reader's outcome on a file, and the number of line walks the read made:
    2 when the body was read again line by line, else 1."""
    counts, real = [], datafiles._lines

    def counted(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(datafiles, "_lines", counted)

    def read(reader, path):
        counts.append(0)
        return outcome(reader, path), counts[-1]
    return read


@pytest.mark.parametrize("seed", [4096, 7])
def test_reader_matches_line_reader(tmp_path, walks, seed):
    """2,400 seeded single- and multi-fault files: equal arrays, meta and errors,
    and both the numpy path and the per-line path take part."""
    seen, walked_paths = set(), set()
    for kind, path in mutated_files(tmp_path, seed=seed, count=2400):
        ours, ref = ((read_dataset, ref_read_dataset) if kind == "trace"
                     else (read_map, ref_read_map))
        expect = outcome(ref, path)
        got, walked = walks(ours, path)
        assert got == expect, path.read_bytes()
        seen.add(re.sub(r"^.*?:\d+: ", "", expect[1]) if isinstance(expect[0], type) else "ok")
        if walked == 2 or not isinstance(expect[0], type):  # per-line, or numpy's rows
            walked_paths.add(walked)
    assert walked_paths == {1, 2}
    # Every outcome the readers can give shows up in the corpus.
    for start in ["ok", "non-numeric field", "non-finite value", "s21_mag must be >= 0",
                  "expected 3 fields, got 2", "expected 3 fields, got 4",
                  "comment is not a `key: value` pair", "expected header 'probe",
                  "expected header starting with ", "non-numeric axis value", "no data rows",
                  "no matrix content", "missing column header", "missing `# scheme:` metadata",
                  "unknown pump scheme"]:
        assert any(message.startswith(start) for message in seen), start


def test_written_files_take_the_numpy_path(tmp_path, monkeypatch):
    """Files as written read back without the per-line path, which alone parses
    row fields one at a time."""
    trace, smap = red_trace(points=801), TestMapRoundTrip().make_map()
    write_dataset(tmp_path / "t.csv", DatasetFile.from_trace(trace))
    write_map(tmp_path / "m.csv", smap)
    real = datafiles._floats

    def no_fields(path, lineno, fields, what):
        assert what != "field", "a written file went down the per-line path"
        return real(path, lineno, fields, what)

    monkeypatch.setattr(datafiles, "_floats", no_fields)
    assert np.allclose(read_dataset(tmp_path / "t.csv").s21_mag, trace.magnitude(),
                       rtol=1e-12, atol=0)
    assert np.allclose(read_map(tmp_path / "m.csv").s21_mag, smap.s21_mag, rtol=1e-12, atol=0)


ROWS = 1415  # a long file: its rows span several 8 KiB decoder chunks


class TestFaultOrder:
    """Faults and comments far into long files, and bodies that only the
    per-line path accepts."""

    def trace_file(self, tmp_path, rows, edits=()):
        lines = ["# scheme: red", TRACE_HEADER]
        lines += [f"{6e9 + i},5.9962e9,0.5" for i in range(rows)]
        for index, text in edits:  # a comment goes in before the line, a row replaces it
            if text.startswith("#"):
                lines.insert(index, text)
            else:
                lines[index] = text
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def assert_fault(self, path, reader, line, message):
        with pytest.raises(DatasetFormatError) as err:
            reader(path)
        assert str(err.value) == f"{path}:{line}: {message}"
        assert outcome(reader, path) == outcome(ref_read_dataset if reader is read_dataset
                                                else ref_read_map, path)

    def assert_per_line(self, walks, path):
        """The file reads as the reference reads it, on the per-line path."""
        got, walked = walks(read_dataset, path)
        assert walked == 2
        assert got == outcome(ref_read_dataset, path)
        return read_dataset(path)

    def test_fault_in_the_second_block(self, tmp_path):
        row = ROWS - 10 + 2  # a line far into the file
        path = self.trace_file(tmp_path, ROWS, [(row, "1,2,oops")])
        self.assert_fault(path, read_dataset, row + 1, "non-numeric field")

    def test_first_fault_wins_across_blocks_and_kinds(self, tmp_path):
        path = self.trace_file(tmp_path, ROWS, [(5, "1,2,-0.5"), (7, "1,2,x"),
                                                (9, "1,2"), (ROWS, "1,2,nan")])
        self.assert_fault(path, read_dataset, 6, "s21_mag must be >= 0")
        path = self.trace_file(tmp_path, ROWS, [(7, "1,2,inf"), (9, "1,2")])
        self.assert_fault(path, read_dataset, 8, "non-finite value")
        path = self.trace_file(tmp_path, ROWS, [(7, "1,2,inf"), (9, "# no colon")])
        self.assert_fault(path, read_dataset, 8, "non-finite value")

    def test_map_row_wider_than_one_block(self, tmp_path):
        cols = datafiles._BLOCK_VALUES + 100  # one row takes more than a writer block
        smap = SweepMap(TWO_PI * np.array([1.0, 2.0, 3.0]), TWO_PI * np.arange(cols) + 1.0,
                        np.random.default_rng(3).random((3, cols)), {"scheme": "red"})
        path = tmp_path / "m.csv"
        write_map(path, smap)
        back = read_map(path)
        assert np.allclose(back.s21_mag, smap.s21_mag, rtol=1e-12, atol=0)
        assert outcome(read_map, path) == outcome(ref_read_map, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"
        path.write_text("\n".join(lines) + "\n")
        self.assert_fault(path, read_map, 4, "non-finite value")

    def test_comment_between_data_rows(self, tmp_path):
        path = self.trace_file(tmp_path, ROWS, [(ROWS // 2, "# a: 1"), (4, "# b: two"),
                                                (4, "#c:")])
        back = read_dataset(path)
        assert len(back.s21_mag) == ROWS
        assert np.array_equal(back.probe_freq_hz, 6e9 + np.arange(ROWS))
        assert back.meta == {"scheme": "red", "a": 1, "b": "two", "c": ""}
        assert outcome(read_dataset, path) == outcome(ref_read_dataset, path)

    def test_fault_before_an_undecodable_byte_a_decoder_chunk_later(self, tmp_path):
        path = self.trace_file(tmp_path, 1000, [(3, "1,2,oops")])
        path.write_bytes(path.read_bytes() + b"1,2,\xff\n")
        self.assert_fault(path, read_dataset, 4, "non-numeric field")

    def test_underscore_digits_read_as_float_reads_them(self, tmp_path, walks):
        back = self.assert_per_line(walks, self.trace_file(tmp_path, 5, [(4, "1_0,2,0.5")]))
        assert back.probe_freq_hz[2] == 10.0

    def test_whitespace_only_line_between_rows_is_skipped(self, tmp_path, walks):
        path = self.trace_file(tmp_path, 5)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:4], " \t ", *lines[4:]]) + "\n")
        assert len(self.assert_per_line(walks, path).s21_mag) == 5

    def test_meta_after_the_last_row(self, tmp_path, walks):
        path = self.trace_file(tmp_path, 5)
        path.write_text(path.read_text() + "# n_cav: 1300000.0\n")
        assert self.assert_per_line(walks, path).meta == {"scheme": "red", "n_cav": 1.3e6}


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write_text(p, "one\n")
        atomic_write_text(p, "two\n")
        assert p.read_text() == "two\n"

    def test_no_stray_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "data\n")
        assert sorted(os.listdir(tmp_path)) == ["x.txt"]

    def test_failure_leaves_no_debris(self, tmp_path):
        class Boom:
            def __str__(self):
                raise RuntimeError("unprintable")
        with pytest.raises(Exception):
            atomic_write_text(tmp_path / "y.txt", Boom())
        assert os.listdir(tmp_path) == []


class TestFitReport:
    def fitted_problem(self, kappa_init=1.1, kappa_lo=0.5):
        trace = red_trace(points=201, noise=0.005)
        data = DatasetFile.from_trace(trace)
        t = data.to_trace()
        bindings = {
            "omega_c": ParamBinding.fixed("omega_c", CAV.omega_c),
            "kappa": ParamBinding.free("kappa", kappa_init * CAV.kappa,
                                       kappa_lo * CAV.kappa, 2 * CAV.kappa),
            "kappa_ext": ParamBinding.fixed("kappa_ext", CAV.kappa_ext),
            "omega_m": ParamBinding.fixed("omega_m", MECH.omega_m),
            "gamma_m": ParamBinding.fixed("gamma_m", MECH.gamma_m),
            "g0": ParamBinding.fixed("g0", MECH.g0),
            "n_cav": ParamBinding.fixed("n_cav", 1.3e6),
        }
        problem = FitProblem([FitDataset(t, PumpScheme.RED, bindings)])
        return problem, fit(problem)

    def test_report_structure(self, tmp_path):
        problem, result = self.fitted_problem()
        path = tmp_path / "report.json"
        write_fit_report(path, result, problem, dataset_paths=["trace.csv"])
        report = json.loads(path.read_text())
        assert report["converged"] is True
        assert report["iterations"] >= 1
        assert report["n_residual_evals"] == result.n_residual_evals == 1 + result.iterations
        assert report["n_parameters"] == 1
        slot = report["parameters"]["kappa[0]"]
        assert slot["value_hz"] == pytest.approx(84e3, rel=0.05)
        assert slot["stderr_hz"] > 0
        ds = report["datasets"][0]
        assert ds["scheme"] == "red"
        assert ds["path"] == "trace.csv"
        assert ds["n_points"] == 201
        assert ds["parameters"]["kappa_hz"] == pytest.approx(
            slot["value_hz"], rel=1e-12)
        assert ds["parameters"]["n_cav"] == 1.3e6
        assert ds["parameters"]["omega_c_hz"] == pytest.approx(6e9, rel=1e-12)

    def test_report_is_deterministic(self, tmp_path):
        problem, result = self.fitted_problem()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_fit_report(a, result, problem, ["trace.csv"])
        write_fit_report(b, result, problem, ["trace.csv"])
        assert a.read_bytes() == b.read_bytes()

    def test_residual_csv(self, tmp_path):
        problem, result = self.fitted_problem()
        path = tmp_path / "residuals.csv"
        write_residual_csv(path, problem, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,probe_freq_hz,s21_data,s21_model,residual"
        assert len(lines) == 1 + 201
        row = lines[1].split(",")
        assert row[0] == "0"
        data, model, res = float(row[2]), float(row[3]), float(row[4])
        # Columns are rounded to 13 significant digits independently.
        assert model - data == pytest.approx(res, abs=1e-12)

    def test_residual_csv_rejected_dataset_has_nan_model(self, tmp_path):
        # kappa starts below kappa_ext, where the model rejects the cavity:
        # the fit stays on the penalty, which is not a model value.
        problem, result = self.fitted_problem(kappa_init=0.4, kappa_lo=0.25)
        assert not result.converged
        path = tmp_path / "residuals.csv"
        write_residual_csv(path, problem, result)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        data = problem.datasets[0].data
        assert [float(row[2]) for row in rows] == pytest.approx(data, rel=1e-12)
        assert all(row[3:] == ["nan", "nan"] for row in rows)


class TestConfig:
    def minimal(self):
        return {
            "cavity": {"omega_c_hz": 6e9, "kappa_hz": 84e3,
                       "kappa_ext_hz": 44e3},
            "mechanics": {"omega_m_hz": 3.8e6, "gamma_m_hz": 15.3,
                          "g0_hz": 0.56},
        }

    def write(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return p

    def test_minimal_loads_in_angular_units(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.minimal()))
        assert cfg.cavity.kappa == pytest.approx(TWO_PI * 84e3)
        assert cfg.mechanics.gamma_m == pytest.approx(TWO_PI * 15.3)
        assert cfg.pumps == []
        assert cfg.noise is None
        assert cfg.grid.points == 801

    def test_pump_defaults_to_aligned_detuning(self, tmp_path):
        payload = self.minimal()
        payload["pumps"] = [{"scheme": "red", "n_cav": 1.3e6}]
        cfg = load_config(self.write(tmp_path, payload))
        pump = cfg.pumps[0]
        assert pump.scheme is PumpScheme.RED
        assert pump.delta == pytest.approx(-TWO_PI * 3.8e6)
        assert pump.n_cav == 1.3e6

    def test_pump_power_dbm(self, tmp_path):
        payload = self.minimal()
        payload["pumps"] = [{"scheme": "blue", "power_dbm": -116.0,
                             "detuning_hz": 3.8e6}]
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.pumps[0].p_in == pytest.approx(10 ** (-116 / 10) * 1e-3)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = self.minimal()
        payload["cavityy"] = {}
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, payload))

    def test_unknown_nested_key_rejected(self, tmp_path):
        payload = self.minimal()
        payload["cavity"]["q_factor"] = 1e5
        with pytest.raises(ConfigError) as err:
            load_config(self.write(tmp_path, payload))
        assert "cavity" in str(err.value)

    def test_missing_required_field(self, tmp_path):
        payload = self.minimal()
        del payload["mechanics"]["g0_hz"]
        with pytest.raises(ConfigError) as err:
            load_config(self.write(tmp_path, payload))
        assert "g0_hz" in str(err.value)

    def test_invalid_json_reports_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert "cfg.json" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_pump_needs_exactly_one_drive(self, tmp_path):
        payload = self.minimal()
        payload["pumps"] = [{"scheme": "red", "n_cav": 1e5,
                             "power_dbm": -116.0}]
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, payload))
        payload["pumps"] = [{"scheme": "red"}]
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, payload))

    def test_unphysical_cavity_rejected(self, tmp_path):
        payload = self.minimal()
        payload["cavity"]["kappa_ext_hz"] = 2e5
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, payload))

    def test_noise_and_grid_settings(self, tmp_path):
        payload = self.minimal()
        payload["noise"] = {"sigma": 0.01, "seed": 7}
        payload["grid"] = {"points": 2001, "map_delta_points": 51}
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.noise == NoiseSpec(0.01, seed=7)
        assert cfg.grid.points == 2001
        assert cfg.grid.map_delta_points == 51
        assert cfg.grid.map_omega_points == 401

    def test_fit_bindings_parsed(self, tmp_path):
        payload = self.minimal()
        payload["fit"] = {
            "bindings": [{"name": "kappa", "mode": "free",
                          "init": 8e4, "lo": 4e4, "hi": 1.6e5},
                         {"name": "n_cav", "mode": "fixed", "init": 1.3e6}],
            "datasets": [{"path": "a.csv",
                          "bindings": [{"name": "gamma_m", "mode": "shared",
                                        "group": "t250"}]}],
        }
        cfg = load_config(self.write(tmp_path, payload))
        # Rates are converted from Hz to rad/s on loading; n_cav is a count.
        kappa, n_cav = cfg.fit["bindings"]
        assert kappa["name"] == "kappa"
        assert (kappa["init"], kappa["lo"], kappa["hi"]) == (TWO_PI * 8e4, TWO_PI * 4e4,
                                                             TWO_PI * 1.6e5)
        assert n_cav["init"] == 1.3e6
        assert cfg.fit["datasets"][0]["path"] == "a.csv"
        assert cfg.fit["datasets"][0]["bindings"][0]["group"] == "t250"

    def test_binding_with_unknown_name_rejected(self, tmp_path):
        payload = self.minimal()
        payload["fit"] = {"bindings": [{"name": "zeta", "mode": "free"}]}
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, payload))

    def test_meta_passes_through(self, tmp_path):
        payload = self.minimal()
        payload["meta"] = {"sample": "NbTiN-3", "temperature_mK": 250}
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.meta == {"sample": "NbTiN-3", "temperature_mK": 250}
