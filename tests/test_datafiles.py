"""File-format and config tests: CSV round-trips at full precision,
line-numbered parse errors, report structure, atomic writes, and JSON
config validation.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from omitbench.config import ConfigError, load_config
from omitbench.datafiles import (
    FLOAT_FORMAT,
    TRACE_HEADER,
    DatasetFile,
    DatasetFormatError,
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

    def test_to_trace_matches_source(self, tmp_path):
        trace = red_trace(points=101)
        path = tmp_path / "trace.csv"
        write_dataset(path, DatasetFile.from_trace(trace))
        again = read_dataset(path).to_trace()
        assert again.axis == "absolute"
        expect = trace.omega + TWO_PI * trace.meta["pump_freq_hz"]
        assert np.allclose(again.omega, expect, rtol=1e-12)
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
        p = self.write(tmp_path, "# scheme: red\n" + TRACE_HEADER + "\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(p)


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
        write_fit_report(a, result, problem)
        write_fit_report(b, result, problem)
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
