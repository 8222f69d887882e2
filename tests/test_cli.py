"""End-to-end command-line tests through click's runner: every verb, the
documented exit codes, and byte-level determinism of the file outputs.
``--version`` is checked in a process started from the source tree, the way
a checkout runs the command.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from omitbench import __version__
from omitbench.cli import main
from omitbench.datafiles import (
    TRACE_HEADER,
    DatasetFile,
    read_dataset,
    read_map,
    write_dataset,
)
from omitbench.model import TWO_PI, CavityParams, PumpConfig, PumpScheme, intracavity_photon_number
from omitbench.sweeps import dbm_to_watts

PEAK_RED = 0.7691294685725261       # kappa 84 kHz, kappa_ext 44 kHz, n 1.3e6
DIP_BLUE = 0.2018060146738691       # kappa 83 kHz, kappa_ext 44 kHz, n 3.4e5
BARE_FLOOR_84K = 1.0 - 44.0 / 84.0
P_IN_RED_MAX_W = 2.1304681956869824e-08


@pytest.fixture
def runner():
    return CliRunner()


def base_config(**extra):
    cfg = {
        "cavity": {"omega_c_hz": 6e9, "kappa_hz": 84e3, "kappa_ext_hz": 44e3},
        "mechanics": {"omega_m_hz": 3.8e6, "gamma_m_hz": 15.3, "g0_hz": 0.56},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, name="cfg.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**extra)))
    return str(path)


def n_for_coop(c, kappa_hz=84e3):
    return c * kappa_hz * 15.3 / (4 * 0.56 ** 2)


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestSimulate:
    def test_pump_off_writes_bare_notch(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bare.csv"
        r = run(runner, ["--config", cfg, "--out", str(out),
                         "simulate", "--scheme", "red", "--ncav", "0"])
        assert r.exit_code == 0
        data = read_dataset(out)
        assert data.s21_mag.min() == pytest.approx(BARE_FLOOR_84K, abs=1e-9)
        assert data.meta["scheme"] == "red"
        assert data.meta["n_cav"] == 0

    def test_red_transparency_peak(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}])
        out = tmp_path / "red.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "simulate"])
        assert r.exit_code == 0
        data = read_dataset(out)
        assert data.s21_mag.max() == pytest.approx(PEAK_RED, rel=1e-6)
        assert str(out) in r.output

    def test_blue_absorption_dip(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           cavity={"omega_c_hz": 6e9, "kappa_hz": 83e3,
                                   "kappa_ext_hz": 44e3},
                           pumps=[{"scheme": "blue", "n_cav": 3.4e5}])
        out = tmp_path / "blue.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "simulate"])
        assert r.exit_code == 0
        data = read_dataset(out)
        assert data.s21_mag.min() == pytest.approx(DIP_BLUE, rel=1e-6)

    def test_blue_supercritical_exits_3(self, runner, tmp_path):
        cfg = write_config(
            tmp_path, pumps=[{"scheme": "blue", "n_cav": n_for_coop(1.01)}])
        r = runner.invoke(main, ["--config", cfg, "--out",
                                 str(tmp_path / "x.csv"), "simulate"])
        assert r.exit_code == 3
        assert "singular" in r.output.lower()

    def test_missing_config_exits_2(self, runner, tmp_path):
        r = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "simulate"])
        assert r.exit_code == 2

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        payload = base_config()
        payload["grids"] = {}
        path.write_text(json.dumps(payload))
        r = runner.invoke(main, ["--config", str(path), "--out",
                                 str(tmp_path / "x.csv"), "simulate"])
        assert r.exit_code == 2
        assert "grids" in r.output

    def test_multiple_pumps_numbered_outputs(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1e5},
                                  {"scheme": "red", "n_cav": 1.3e6}])
        out = tmp_path / "run.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "simulate"])
        assert r.exit_code == 0
        assert (tmp_path / "run_0.csv").exists()
        assert (tmp_path / "run_1.csv").exists()

    def test_svg_written(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}])
        out, svg = tmp_path / "red.csv", tmp_path / "red.svg"
        r = run(runner, ["--config", cfg, "--out", str(out),
                         "simulate", "--svg", str(svg)])
        assert r.exit_code == 0
        body = svg.read_text()
        assert "<svg" in body
        assert "polyline" in body

    def test_noise_seed_determinism(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           noise={"sigma": 0.01, "seed": 5})
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for out in (a, b):
            assert run(runner, ["--config", cfg, "--out", str(out),
                                "simulate"]).exit_code == 0
        assert run(runner, ["--config", cfg, "--seed", "6", "--out", str(c),
                            "simulate"]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_db_flag_changes_display_not_file(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = run(runner, ["--config", cfg, "--out", str(a), "simulate"])
        rb = run(runner, ["--config", cfg, "--db", "--out", str(b), "simulate"])
        assert "dB" in rb.output and "dB" not in ra.output
        assert a.read_bytes() == b.read_bytes()

    def test_db_flag_changes_the_line_plot_not_the_file(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}])
        for name, flags in (("lin", []), ("db", ["--db"])):
            assert run(runner, ["--config", cfg, *flags, "--out", str(tmp_path / f"{name}.csv"),
                                "simulate", "--svg", str(tmp_path / f"{name}.svg")]).exit_code == 0
        assert (tmp_path / "lin.csv").read_bytes() == (tmp_path / "db.csv").read_bytes()
        lin, db = (tmp_path / "lin.svg").read_text(), (tmp_path / "db.svg").read_text()
        assert "|S21| (dB)" in db and "|S21| (dB)" not in lin
        assert "probe offset (Hz)" in db and lin != db

    def test_drive_flag_alone_keeps_the_configured_detuning(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6, "detuning_hz": -3.78e6}])
        out = tmp_path / "drive.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "simulate", "--ncav", "5e5"])
        assert r.exit_code == 0
        text = out.read_text()
        assert "# pump_detuning_hz: -3780000.0\n" in text
        assert "# n_cav: 500000.0\n" in text


class TestMap:
    def small_grid(self):
        return {"map_delta_points": 5, "map_omega_points": 101}

    def test_red_map_matrix(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid=self.small_grid())
        out = tmp_path / "map.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "map"])
        assert r.exit_code == 0
        smap = read_map(out)
        assert smap.s21_mag.shape == (5, 101)
        # Middle row is the aligned detuning; its peak is the line-cut peak,
        # and it sits on the notch floor so it holds the global minimum
        # (detuned rows ride up the cavity flank toward unit transmission).
        assert smap.s21_mag[2].max() == pytest.approx(PEAK_RED, rel=1e-6)
        assert smap.s21_mag[2].min() == smap.s21_mag.min()

    def test_map_matches_simulate_row(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid=dict(points=101, **self.small_grid()))
        mp, tr = tmp_path / "map.csv", tmp_path / "trace.csv"
        assert run(runner, ["--config", cfg, "--out", str(mp),
                            "map"]).exit_code == 0
        assert run(runner, ["--config", cfg, "--out", str(tr),
                            "simulate"]).exit_code == 0
        smap = read_map(mp)
        data = read_dataset(tr)
        assert np.allclose(smap.s21_mag[2], data.s21_mag, rtol=1e-12)

    def test_blue_map_dip(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           cavity={"omega_c_hz": 6e9, "kappa_hz": 83e3,
                                   "kappa_ext_hz": 44e3},
                           pumps=[{"scheme": "blue", "n_cav": 3.4e5}],
                           grid=self.small_grid())
        out = tmp_path / "map.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "map"])
        assert r.exit_code == 0
        smap = read_map(out)
        assert smap.s21_mag.min() == pytest.approx(DIP_BLUE, rel=1e-6)

    def test_scheme_override_takes_the_configured_pump_of_that_scheme(self, runner, tmp_path):
        cfg = write_config(tmp_path, grid=self.small_grid(),
                           cavity={"omega_c_hz": 6e9, "kappa_hz": 83e3, "kappa_ext_hz": 44e3},
                           pumps=[{"scheme": "red", "n_cav": 1.3e6},
                                  {"scheme": "blue", "n_cav": 3.4e5}])
        out = tmp_path / "map.csv"
        r = run(runner, ["--config", cfg, "--out", str(out), "map", "--scheme", "blue"])
        assert r.exit_code == 0
        assert "# n_cav: 340000.0\n" in out.read_text()
        assert read_map(out).s21_mag.min() == pytest.approx(DIP_BLUE, rel=1e-6)

    def test_blue_supercritical_map_exits_3(self, runner, tmp_path):
        cfg = write_config(
            tmp_path, grid=self.small_grid(),
            pumps=[{"scheme": "blue", "n_cav": n_for_coop(1.05)}])
        r = runner.invoke(main, ["--config", cfg, "--out",
                                 str(tmp_path / "m.csv"), "map"])
        assert r.exit_code == 3

    def test_svg_heatmap(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid=self.small_grid())
        out, svg = tmp_path / "map.csv", tmp_path / "map.svg"
        r = run(runner, ["--config", cfg, "--out", str(out),
                         "map", "--svg", str(svg)])
        assert r.exit_code == 0
        body = svg.read_text()
        assert "<svg" in body
        assert "data:image/png;base64," in body

    def test_db_flag_changes_the_heatmap_not_the_file(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid=self.small_grid())
        for name, flags in (("lin", []), ("db", ["--db"])):
            assert run(runner, ["--config", cfg, *flags, "--out", str(tmp_path / f"{name}.csv"),
                                "map", "--svg", str(tmp_path / f"{name}.svg")]).exit_code == 0
        assert (tmp_path / "lin.csv").read_bytes() == (tmp_path / "db.csv").read_bytes()
        lin, db = (tmp_path / "lin.svg").read_text(), (tmp_path / "db.svg").read_text()
        assert 'fill="#333">dB</text>' in db and 'fill="#333">|S21|</text>' in lin
        assert lin != db

    def test_map_determinism(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid=self.small_grid())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(runner, ["--config", cfg, "--out", str(out),
                                "map"]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def simulate_dataset(self, runner, tmp_path, sigma=0.005):
        gen_cfg = write_config(tmp_path, name="gen.json",
                               pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                               noise={"sigma": sigma, "seed": 11})
        out = tmp_path / "data.csv"
        r = run(runner, ["--config", gen_cfg, "--out", str(out), "simulate"])
        assert r.exit_code == 0
        return out

    def test_fit_recovers_kappa(self, runner, tmp_path):
        data = self.simulate_dataset(runner, tmp_path)
        # Fit config starts 8% off in kappa and frees it plus omega_c.
        fit_cfg = tmp_path / "fit.json"
        payload = base_config(
            fit={"bindings": [{"name": "kappa", "mode": "free",
                               "init": 90.7e3},
                              {"name": "omega_c", "mode": "free"}]})
        fit_cfg.write_text(json.dumps(payload))
        report = tmp_path / "report.json"
        r = run(runner, ["--config", str(fit_cfg), "--out", str(report),
                         "fit", str(data)])
        assert r.exit_code == 0, r.output
        body = json.loads(report.read_text())
        assert body["converged"] is True
        assert body["parameters"]["kappa[0]"]["value_hz"] == pytest.approx(
            84e3, rel=0.02)
        assert (tmp_path / "report_residuals.csv").exists()
        assert "converged=True" in r.output

    def test_config_bindings_follow_the_file_however_spelled(self, runner, tmp_path,
                                                             monkeypatch):
        # `fit data.csv` and `fit ./data.csv` name the file of the dataset
        # entry "data.csv", so each reads its gamma_m binding; the report
        # keeps the path as given.
        self.simulate_dataset(runner, tmp_path)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, name="fit.json", fit={
            "bindings": [{"name": "kappa", "mode": "free"}],
            "datasets": [{"path": "data.csv",
                          "bindings": [{"name": "gamma_m", "mode": "free"}]}]})
        for arg in ("data.csv", "./data.csv", str(tmp_path / "data.csv")):
            r = run(runner, ["--config", cfg, "--out", "report.json", "fit", arg])
            assert r.exit_code == 0, r.output
            slots = [line.split(" = ")[0] for line in r.output.splitlines()[1:]]
            assert slots == ["  kappa[0]", "  gamma_m[0]"], arg
            assert json.loads(Path("report.json").read_text())["datasets"][0]["path"] == arg

    def foreign_dataset(self, runner, tmp_path):
        """README's "Converting foreign data": a file whose meta holds only
        the scheme and the pump power, so the fit derives n_cav itself."""
        gen = write_config(tmp_path, name="gen.json", noise={"sigma": 0.005, "seed": 4})
        vendor = tmp_path / "vendor.csv"
        assert run(runner, ["--config", gen, "--out", str(vendor), "simulate", "--scheme", "red",
                            "--power-dbm", "-46.7", "--points", "2001"]).exit_code == 0
        v = read_dataset(vendor)
        out = tmp_path / "converted.csv"
        write_dataset(out, DatasetFile(v.probe_freq_hz, v.pump_freq_hz, v.s21_mag,
                                       {"scheme": "red", "pump_power_dbm": -46.7}))
        return out, float(v.pump_freq_hz[0]) - 6e9

    def test_fit_foreign_file_resolves_n_cav_from_pump_power(self, runner, tmp_path):
        data, detuning_hz = self.foreign_dataset(runner, tmp_path)
        cfg = write_config(tmp_path, fit={"bindings": [{"name": "kappa", "mode": "free"},
                                                       {"name": "omega_c", "mode": "free"}]})
        report = tmp_path / "report.json"
        r = run(runner, ["--config", cfg, "--out", str(report), "fit", str(data)])
        assert r.exit_code == 0, r.output
        assert "converged=True" in r.output
        n_fit = json.loads(report.read_text())["datasets"][0]["parameters"]["n_cav"]
        assert n_fit == pytest.approx(1.3e6, rel=0.01)
        pump = PumpConfig(PumpScheme.RED, TWO_PI * detuning_hz, p_in=dbm_to_watts(-46.7))
        expect = intracavity_photon_number(pump, CavityParams.from_hz(6e9, 84e3, 44e3))
        assert n_fit == pytest.approx(expect, rel=1e-9)
        p = run(runner, ["--config", cfg, "photons", "--power-dbm", "-46.7",
                         "--detuning-hz", repr(detuning_hz)])
        assert p.output.startswith(f"n_cav = {n_fit:.6e}\n")

    def test_fit_free_n_cav_prints_a_count(self, runner, tmp_path):
        data, _ = self.foreign_dataset(runner, tmp_path)
        cfg = write_config(tmp_path, fit={"bindings": [{"name": "n_cav", "mode": "free"},
                                                       {"name": "omega_c", "mode": "free"}]})
        r = run(runner, ["--config", cfg, "--out", str(tmp_path / "r.json"), "fit", str(data)])
        assert r.exit_code == 0, r.output
        line = next(x for x in r.output.splitlines() if x.startswith("  n_cav[0] = "))
        assert re.fullmatch(r"  n_cav\[0\] = \S+ \+/- \S+", line)
        assert "Hz" not in line

    def test_fit_of_g0_and_n_cav_reports_both_undetermined(self, runner, tmp_path):
        # g0 and n_cav enter the model only as g0^2 n_cav: the fit converges and
        # determines omega_m and gamma_m, but gives neither of the two an error bar.
        cfg = write_config(tmp_path, pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid={"points": 1601}, noise={"sigma": 0.01, "seed": 3},
                           fit={"bindings": [{"name": name, "mode": "free"} for name in
                                             ("omega_m", "gamma_m", "g0", "n_cav")]})
        data, report = tmp_path / "tr.csv", tmp_path / "report.json"
        assert run(runner, ["--config", cfg, "--out", str(data), "simulate"]).exit_code == 0
        r = run(runner, ["--config", cfg, "--out", str(report), "fit", str(data)])
        assert r.exit_code == 0, r.output
        assert "converged=True" in r.output
        assert re.search(r"^  g0\[0\] = \S+ Hz \+/- nan Hz$", r.output, re.M)
        assert re.search(r"^  n_cav\[0\] = \S+ \+/- nan$", r.output, re.M)
        body = json.loads(report.read_text(), parse_constant=reject_constant)
        assert body["converged"] is True and body["termination"] == "reduction_tol"
        params = body["parameters"]
        assert params["g0[0]"]["stderr_hz"] is None and params["n_cav[0]"]["stderr"] is None
        for slot in ("omega_m[0]", "gamma_m[0]"):
            assert params[slot]["stderr_hz"] > 0

    def test_fit_on_penalty_plateau_exits_4(self, runner, tmp_path):
        # kappa starts below kappa_ext 44 kHz, where the model rejects the
        # cavity; no step leaves the flat penalty, which is not convergence.
        data = self.simulate_dataset(runner, tmp_path)
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps(base_config(
            fit={"bindings": [{"name": "kappa", "mode": "free", "init": 33.6e3,
                               "lo": 20e3, "hi": 200e3}]})))
        report = tmp_path / "report.json"
        r = run(runner, ["--config", str(fit_cfg), "--out", str(report),
                         "fit", str(data)])
        assert r.exit_code == 4
        assert "converged=False" in r.output
        assert "rms_residual=nan" in r.output
        assert "kappa[0] = 33600.000000 Hz +/- nan Hz" in r.output
        assert r.stderr == "error: fit did not converge: penalty (iterations=1)\n"
        body = json.loads(report.read_text(), parse_constant=reject_constant)
        assert body["converged"] is False
        assert body["rms_residual"] is None
        assert body["termination"] == "penalty"
        assert body["parameters"]["kappa[0]"]["stderr_hz"] is None
        rows = (tmp_path / "report_residuals.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",nan,nan") for row in rows)

    def test_fit_malformed_csv_exits_2_with_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# scheme: red\n" + TRACE_HEADER + "\n1,2,0.5\n1,2\n")
        cfg = write_config(tmp_path)
        r = runner.invoke(main, ["--config", cfg, "fit", str(bad)])
        assert r.exit_code == 2
        assert ":4:" in r.output

    def test_fit_no_datasets_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        r = runner.invoke(main, ["--config", cfg, "fit"])
        assert r.exit_code == 2

    def test_fit_insufficient_data_exits_5(self, runner, tmp_path):
        tiny = tmp_path / "tiny.csv"
        rows = ["# scheme: red", "# n_cav: 1.3e6", TRACE_HEADER,
                "5.9962e9,5.9962e9,0.56", "5.9963e9,5.9962e9,0.57"]
        tiny.write_text("\n".join(rows) + "\n")
        cfg_path = tmp_path / "fit.json"
        payload = base_config(
            fit={"bindings": [{"name": "kappa", "mode": "free"},
                              {"name": "omega_c", "mode": "free"},
                              {"name": "gamma_m", "mode": "free"}]})
        cfg_path.write_text(json.dumps(payload))
        r = runner.invoke(main, ["--config", str(cfg_path), "fit", str(tiny)])
        assert r.exit_code == 5

    def test_fit_dataset_without_drive_metadata_exits_2(self, runner, tmp_path):
        orphan = tmp_path / "orphan.csv"
        orphan.write_text("# scheme: red\n" + TRACE_HEADER +
                          "\n5.9962e9,5.9962e9,0.56\n5.9963e9,5.9962e9,0.57\n")
        cfg = write_config(tmp_path)
        r = runner.invoke(main, ["--config", cfg, "fit", str(orphan)])
        assert r.exit_code == 2
        assert "n_cav" in r.output


class TestPhotons:
    # The frozen input power stores 1.3e6 photons in a 100 kHz cavity.
    WIDE = {"omega_c_hz": 6e9, "kappa_hz": 1e5, "kappa_ext_hz": 44e3}

    def test_known_power_gives_expected_count(self, runner, tmp_path):
        cfg = write_config(tmp_path, cavity=self.WIDE)
        r = run(runner, ["--config", cfg, "photons",
                         "--power-w", repr(P_IN_RED_MAX_W),
                         "--detuning-hz", "-3.8e6"])
        assert r.exit_code == 0
        n = float(re.search(r"n_cav = (\S+)", r.output).group(1))
        c = float(re.search(r"C = (\S+)", r.output).group(1))
        assert n == pytest.approx(1.3e6, rel=1e-6)
        assert c == pytest.approx(4 * 0.56 ** 2 * 1.3e6 / (1e5 * 15.3),
                                  rel=1e-6)

    def test_zero_power_zero_photons(self, runner, tmp_path):
        cfg = write_config(tmp_path, cavity=self.WIDE)
        r = run(runner, ["--config", cfg, "photons", "--power-w", "0",
                         "--detuning-hz", "-3.8e6"])
        assert r.exit_code == 0
        assert float(re.search(r"n_cav = (\S+)", r.output).group(1)) == 0.0

    def test_detuning_dependence_ratio(self, runner, tmp_path):
        cfg = write_config(tmp_path, cavity=self.WIDE)
        def count(detuning):
            r = run(runner, ["--config", cfg, "photons", "--power-dbm",
                             "-116", "--detuning-hz", detuning])
            assert r.exit_code == 0
            return float(re.search(r"n_cav = (\S+)", r.output).group(1))
        ratio = count("0") / count("-3.8e6")
        # On-resonance drive is ~(2*omega_m/kappa)^2-fold more efficient.
        assert ratio == pytest.approx(5777, rel=1e-3)

    def test_power_from_config_pump(self, runner, tmp_path):
        cfg = write_config(
            tmp_path, cavity=self.WIDE,
            pumps=[{"scheme": "red", "power_w": P_IN_RED_MAX_W}])
        r = run(runner, ["--config", cfg, "photons"])
        assert r.exit_code == 0
        n = float(re.search(r"n_cav = (\S+)", r.output).group(1))
        assert n == pytest.approx(1.3e6, rel=1e-6)

    def test_both_power_flags_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        r = runner.invoke(main, ["--config", cfg, "photons",
                                 "--power-dbm", "-116", "--power-w", "1e-12"])
        assert r.exit_code == 2

    def test_no_power_anywhere_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        r = runner.invoke(main, ["--config", cfg, "photons"])
        assert r.exit_code == 2


class TestLinewidth:
    def test_red_feature_width_and_implied_coop(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid={"points": 10001})
        data = tmp_path / "red.csv"
        assert run(runner, ["--config", cfg, "--out", str(data),
                            "simulate"]).exit_code == 0
        r = run(runner, ["--config", cfg, "linewidth", str(data)])
        assert r.exit_code == 0
        fwhm = float(re.search(r"FWHM = (\S+) Hz", r.output).group(1))
        implied = float(re.search(r"implied C = (\S+)", r.output).group(1))
        assert fwhm == pytest.approx(34.713333333333333, rel=0.02)
        assert implied == pytest.approx(1.2688453159041400, abs=0.05)

    def test_no_config_still_prints_width(self, runner, tmp_path):
        cfg = write_config(tmp_path,
                           pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                           grid={"points": 10001})
        data = tmp_path / "red.csv"
        assert run(runner, ["--config", cfg, "--out", str(data),
                            "simulate"]).exit_code == 0
        r = run(runner, ["linewidth", str(data)])
        assert r.exit_code == 0
        assert "FWHM" in r.output
        assert "implied C" not in r.output

    def test_pump_off_no_feature_exits_6(self, runner, tmp_path):
        cfg = write_config(tmp_path, grid={"points": 2001})
        data = tmp_path / "bare.csv"
        assert run(runner, ["--config", cfg, "--out", str(data), "simulate",
                            "--scheme", "red", "--ncav", "0"]).exit_code == 0
        r = runner.invoke(main, ["linewidth", str(data)])
        assert r.exit_code == 6

    def test_unreadable_file_exits_2(self, runner, tmp_path):
        r = runner.invoke(main, ["linewidth", str(tmp_path / "missing.csv")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("verb", ["linewidth", "fit"])
    @pytest.mark.parametrize("rows, problem", [
        (["5.9962e9,5.9962e9,0.56", "5.9962e9,5.9962e9,0.57"],
         "duplicate probe frequencies"),
        (["5.9962e9,5.9962e9,0.56", "5.9963e9,5.9961e9,0.57"],
         "pump frequency varies"),
    ])
    def test_trace_error_names_the_file(self, runner, tmp_path, verb, rows, problem):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["# scheme: red", "# n_cav: 1.3e6", TRACE_HEADER]
                                 + rows) + "\n")
        r = runner.invoke(main, ["--config", write_config(tmp_path), verb, str(bad)])
        assert r.exit_code == 2
        assert f"error: {bad}: {problem}" in r.stderr

    @pytest.mark.parametrize("verb", ["linewidth", "fit"])
    def test_scheme_spelling_is_exact(self, runner, tmp_path, verb):
        bad = tmp_path / "upper.csv"
        bad.write_text("\n".join(["# scheme: RED", "# n_cav: 1.3e6", TRACE_HEADER,
                                  "5.9962e9,5.9962e9,0.56"]) + "\n")
        r = runner.invoke(main, ["--config", write_config(tmp_path), verb, str(bad)])
        assert r.exit_code == 2
        assert r.stderr == (f"error: {bad}:0: unknown pump scheme 'RED'; "
                            "expected 'red' or 'blue'\n")


SINGULAR_BLUE = ("singular response at scheme=blue, detuning_hz=3.8e+06, "
                 "n_cav=1.0348e+06: ")
PAST_THRESHOLD = ("blue pumping past the parametric instability (mechanical pole "
                  "width -0.152972 Hz); steady-state response is undefined")


class TestErrorContract:
    """Every error path ends with its documented exit code and one exact
    `error:` line on stderr, never a traceback."""

    @pytest.fixture(autouse=True)
    def workdir(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "base.json")
        write_config(tmp_path, "red.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}])
        write_config(tmp_path, "blue.json",
                     grid={"map_delta_points": 5, "map_omega_points": 11},
                     pumps=[{"scheme": "blue", "n_cav": n_for_coop(1.01)}])
        write_config(tmp_path, "fit.json", fit={"bindings": [
            {"name": name, "mode": "free"} for name in ("kappa", "omega_c", "gamma_m")]})
        write_config(tmp_path, "points.json", grid={"points": 2001.0})
        write_config(tmp_path, "many.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                     grid={"points": 10 ** 12})
        write_config(tmp_path, "seed.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                     noise={"sigma": 0.01, "seed": 3.0})
        write_config(tmp_path, "note.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                     meta={"note": "line one\nline two"})
        write_config(tmp_path, "relabel.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                     meta={"run": "a", "scheme": "blue", "n_cav": 5})
        write_config(tmp_path, "renoise.json", pumps=[{"scheme": "red", "n_cav": 1.3e6}],
                     meta={"noise_seed": 9})
        write_config(tmp_path, "loud.json", pumps=[{"scheme": "red", "power_dbm": 1e6}])
        write_config(tmp_path, "drives.json", pumps=[
            {"scheme": "red", "n_cav": 1.3e6}, {"scheme": "blue", "n_cav": 1e5, "power_w": 1e-12}])
        for name, kappa_ext_hz in (("uncoupled.json", 0), ("overcoupled.json", 1e5)):
            write_config(tmp_path, name, cavity={"omega_c_hz": 6e9, "kappa_hz": 84e3,
                                                 "kappa_ext_hz": kappa_ext_hz})
        # json.dumps cannot print a 5,001-digit integer, so it is spliced in.
        (tmp_path / "huge.json").write_text(
            json.dumps(base_config(pumps=[{"scheme": "red", "n_cav": 0}]))
            .replace('"n_cav": 0', '"n_cav": 1' + "0" * 5000))
        (tmp_path / "vast.json").write_text(
            json.dumps(base_config(pumps=[{"scheme": "red", "n_cav": 0}], grid={"points": 0}))
            .replace('"points": 0', '"points": 1' + "0" * 400))
        (tmp_path / "tiny.csv").write_text("\n".join([
            "# scheme: red", "# n_cav: 1.3e6", TRACE_HEADER,
            "5.9962e9,5.9962e9,0.56", "5.9963e9,5.9962e9,0.57"]) + "\n")
        write_config(tmp_path, "ncav.json", fit={"bindings": [{"name": "n_cav", "mode": "free"}]})
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "tr_0.csv").write_bytes((tmp_path / "tiny.csv").read_bytes())
        write_config(tmp_path / "sub", "rel.json", fit={
            "bindings": [{"name": "kappa", "mode": "free"}], "datasets": [{"path": "tr_0.csv"}]})
        write_config(tmp_path, "pathless.json", fit={"datasets": [
            {"bindings": [{"name": "omega_c", "mode": "free"}]}]})
        (tmp_path / "undriven.csv").write_text(
            (tmp_path / "tiny.csv").read_text().replace("# n_cav: 1.3e6\n", ""))
        (tmp_path / "loud.csv").write_text(
            (tmp_path / "tiny.csv").read_text().replace("n_cav: 1.3e6", "pump_power_dbm: 1e6"))
        for name, drive in (("word", "n_cav: abc"), ("nan", "n_cav: nan"),
                            ("negative", "n_cav: -5"), ("inf", "n_cav: inf"),
                            ("dbm-word", "pump_power_dbm: abc"),
                            ("dbm-inf", "pump_power_dbm: -inf")):
            (tmp_path / f"{name}.csv").write_text(
                (tmp_path / "tiny.csv").read_text().replace("n_cav: 1.3e6", drive))
        (tmp_path / "wobble.csv").write_text(
            (tmp_path / "word.csv").read_text().replace("5.9963e9,5.9962e9", "5.9963e9,5.9961e9"))
        for args in (["--config", "red.json", "--out", "red.csv", "simulate"],
                     ["--config", "base.json", "--out", "bare.csv", "simulate",
                      "--scheme", "red", "--ncav", "0", "--points", "2001"]):
            assert run(runner, args).exit_code == 0

    @pytest.mark.parametrize("args, code, message", [
        pytest.param("--out x.csv simulate", 2,
                     "this command needs --config <file>", id="config-missing"),
        pytest.param("--config base.json --out x.csv simulate", 2,
                     "config has no pumps and no pump flags were given",
                     id="config-no-pumps"),
        pytest.param("--config base.json photons", 2,
                     "no pump power: give --power-dbm or --power-w "
                     "or a power-driven pumps entry in the config", id="config-no-power"),
        pytest.param("--config points.json --out x.csv simulate", 2,
                     "points.json: grid/points: 2001.0 is not of type 'integer'",
                     id="config-float-points"),
        pytest.param("--config seed.json --out x.csv simulate", 2,
                     "seed.json: noise/seed: 3.0 is not of type 'integer'",
                     id="config-float-seed"),
        pytest.param("--config huge.json --out x.csv simulate", 2,
                     "huge.json: invalid JSON: Exceeds the limit (4300 digits) for integer "
                     "string conversion: value has 5001 digits; use "
                     "sys.set_int_max_str_digits() to increase the limit",
                     id="config-int-over-4300-digits"),
        pytest.param("--config many.json --out x.csv simulate", 2,
                     "many.json: grid/points: 1000000000000 is greater than the maximum of "
                     "1000000", id="config-points-over-maximum"),
        pytest.param("--config vast.json --out x.csv simulate", 2,
                     f"vast.json: grid/points: {10 ** 400} is greater than the maximum of "
                     "1000000", id="config-points-1e400"),
        pytest.param("--config note.json --out x.csv simulate", 2,
                     "meta key 'note': cannot write a line break, or a ':' in a key",
                     id="value-meta-line-break"),
        pytest.param("--config relabel.json --out x.csv simulate", 2,
                     "meta key 'scheme': omitbench records this key itself",
                     id="value-meta-descriptor-key"),
        pytest.param("--config renoise.json --out x.csv simulate", 2,
                     "meta key 'noise_seed': omitbench records this key itself",
                     id="value-meta-noise-key"),
        pytest.param("--config relabel.json --out x.csv map", 2,
                     "meta key 'scheme': omitbench records this key itself",
                     id="value-map-meta-descriptor-key"),
        pytest.param("--config red.json --out x.csv simulate --points 1", 2,
                     "--points must be >= 2", id="value-one-point"),
        pytest.param("--config red.json --out x.csv simulate --points 0", 2,
                     "--points must be >= 2", id="value-zero-points"),
        pytest.param("--config red.json --out x.csv simulate --points -3", 2,
                     "--points must be >= 2", id="value-negative-points"),
        pytest.param("--config red.json --out x.csv simulate --points 1000000000000", 2,
                     "--points must be <= 1000000", id="value-points-over-maximum"),
        pytest.param("--config base.json photons --power-w -1", 2,
                     "--power-w must be >= 0", id="value-negative-power"),
        pytest.param("--config base.json photons --power-dbm -116 --power-w 1e-12", 2,
                     "--power-dbm and --power-w are mutually exclusive",
                     id="value-two-powers"),
        pytest.param("convert --watts 0", 2,
                     "power must be positive to express in dBm", id="value-zero-watts"),
        pytest.param("--config red.json simulate", 2,
                     "this command needs --out <path>", id="config-no-out"),
        pytest.param("--config base.json --out x.csv simulate --scheme red", 2,
                     "no pump strength: give --ncav or --power-dbm or a pumps entry in the "
                     "config", id="config-no-pump-strength"),
        pytest.param("--config red.json --out x.csv simulate --ncav nan", 2,
                     "--ncav must be a finite number", id="value-ncav-nan"),
        pytest.param("--config red.json --out x.csv simulate --power-dbm inf", 2,
                     "--power-dbm must be a finite number", id="value-power-dbm-inf"),
        pytest.param("--config red.json --out x.csv simulate --detuning-hz nan", 2,
                     "--detuning-hz must be a finite number", id="value-detuning-nan"),
        pytest.param("--config red.json --out x.csv map --ncav nan", 2,
                     "--ncav must be a finite number", id="value-map-ncav-nan"),
        pytest.param("--config base.json photons --power-dbm nan", 2,
                     "--power-dbm must be a finite number", id="value-photons-power-nan"),
        pytest.param("convert --watts nan", 2,
                     "--watts must be a finite number", id="value-watts-nan"),
        pytest.param("convert --dbm inf", 2,
                     "--dbm must be a finite number", id="value-dbm-inf"),
        pytest.param("convert --dbm 1e6", 2,
                     "--dbm 1e+06 dBm is too large to express in watts", id="value-dbm-overflow"),
        pytest.param("--config base.json photons --power-dbm 1e6", 2,
                     "--power-dbm 1e+06 dBm is too large to express in watts",
                     id="value-photons-power-dbm-overflow"),
        pytest.param("--config red.json --out x.csv simulate --power-dbm 1e6", 2,
                     "--power-dbm 1e+06 dBm is too large to express in watts",
                     id="value-simulate-power-dbm-overflow"),
        pytest.param("--config loud.json --out x.csv simulate", 2,
                     "loud.json: power_dbm 1e+06 dBm is too large to express in watts",
                     id="config-power-dbm-overflow"),
        pytest.param("--config drives.json --out x.csv simulate", 2,
                     "drives.json: pumps/1: pump entry needs exactly one of n_cav, power_dbm, "
                     "power_w; got ['n_cav', 'power_w']", id="config-pump-two-drives"),
        pytest.param("--config uncoupled.json --out x.csv simulate --ncav 0", 2,
                     "uncoupled.json: cavity/kappa_ext_hz: 0 is less than or equal to the "
                     "minimum of 0", id="config-kappa-ext-zero"),
        pytest.param("--config overcoupled.json --out x.csv simulate --ncav 0", 2,
                     "overcoupled.json: cavity/kappa_ext_hz: kappa_ext must satisfy "
                     "0 < kappa_ext <= kappa", id="config-kappa-ext-over-kappa"),
        pytest.param("--config fit.json fit loud.csv", 2,
                     "loud.csv: pump_power_dbm 1e+06 dBm is too large to express in watts",
                     id="file-pump-power-dbm-overflow"),
        pytest.param("--config fit.json fit word.csv", 2,
                     "word.csv: n_cav must be a finite number >= 0, got 'abc'",
                     id="file-n-cav-word"),
        pytest.param("--config fit.json fit wobble.csv", 2,
                     "wobble.csv: pump frequency varies within the file",
                     id="file-pump-varies-before-n-cav-word"),
        pytest.param("--config fit.json fit nan.csv", 2,
                     "nan.csv: n_cav must be a finite number >= 0, got nan", id="file-n-cav-nan"),
        pytest.param("--config fit.json fit negative.csv", 2,
                     "negative.csv: n_cav must be a finite number >= 0, got -5",
                     id="file-n-cav-negative"),
        pytest.param("--config fit.json fit inf.csv", 2,
                     "inf.csv: n_cav must be a finite number >= 0, got inf", id="file-n-cav-inf"),
        pytest.param("--config fit.json fit dbm-word.csv", 2,
                     "dbm-word.csv: pump_power_dbm must be a finite number, got 'abc'",
                     id="file-pump-power-dbm-word"),
        pytest.param("--config fit.json fit dbm-inf.csv", 2,
                     "dbm-inf.csv: pump_power_dbm must be a finite number, got -inf",
                     id="file-pump-power-dbm-inf"),
        pytest.param("--config red.json --out x.csv simulate --detuning-hz 1e30", 2,
                     "duplicate probe frequencies in the file", id="value-detuning-swamps-probe"),
        pytest.param("--config red.json --out x.csv simulate --points 2001 --detuning-hz 1e14",
                     2, "duplicate probe frequencies in the file", id="value-detuning-1e14"),
        pytest.param("--config red.json --out x.csv simulate --points 2001 --detuning-hz 1e12",
                     2, "duplicate probe frequencies in the file", id="value-detuning-1e12"),
        pytest.param("--config red.json --out x.csv simulate --ncav 1e308", 2,
                     "n_cav 1e+308: probe window +/- inf Hz reaches the pump",
                     id="value-ncav-span-overflow"),
        pytest.param("--config red.json --out x.csv simulate --ncav 1e300", 2,
                     "n_cav 1e+300: probe window +/- 3.73333e+296 Hz reaches the pump",
                     id="value-simulate-ncav-window-reaches-pump"),
        pytest.param("--config red.json --out x.csv map --ncav 1e300", 2,
                     "n_cav 1e+300: probe window +/- 3.73333e+296 Hz reaches the pump",
                     id="value-map-ncav-window-reaches-pump"),
        pytest.param("--seed -1 --config red.json --out x.csv simulate", 2,
                     "--seed must be >= 0", id="value-negative-seed"),
        pytest.param("linewidth missing.csv", 2,
                     "[Errno 2] No such file or directory: 'missing.csv'",
                     id="os-missing-file"),
        pytest.param("--config sub/rel.json fit", 2,
                     "[Errno 2] No such file or directory: 'tr_0.csv'",
                     id="os-dataset-path-read-from-the-working-directory"),
        pytest.param("--config blue.json --out x.csv simulate", 3,
                     SINGULAR_BLUE + PAST_THRESHOLD, id="singular-simulate"),
        pytest.param("--config blue.json --out x.csv map", 3,
                     SINGULAR_BLUE + "map row 2 (detuning 3800000.000000 Hz): "
                     + PAST_THRESHOLD, id="singular-map"),
        pytest.param("--config ncav.json fit undriven.csv", 2,
                     "binding n_cav: no init value available", id="config-binding-no-init"),
        pytest.param("--config blue.json --out x.csv map --power-dbm -46", 3,
                     "singular response at scheme=blue, detuning_hz=3.8e+06, "
                     "p_in=2.51189e-08 W: map row 2 (detuning 3800000.000000 Hz): blue pumping "
                     "past the parametric instability (mechanical pole width -7.55904 Hz); "
                     "steady-state response is undefined", id="singular-map-power"),
        pytest.param("--config fit.json fit tiny.csv", 5,
                     "2 data points for 3 adjustable parameters", id="insufficient-data"),
        pytest.param("linewidth bare.csv", 6,
                     "no spectral feature above the noise floor", id="feature-not-found"),
        pytest.param("--config pathless.json fit tiny.csv", 2,
                     "pathless.json: fit/datasets/0: 'path' is a required property",
                     id="config-dataset-without-path"),
        pytest.param("linewidth tiny.csv", 6,
                     "only 2 grid points in the trace (need >= 20)",
                     id="under-resolved-two-points"),
        pytest.param("linewidth red.csv", 6,
                     "only 15 grid points across the feature width (need >= 20)",
                     id="under-resolved"),
    ])
    def test_exit_code_and_message(self, runner, args, code, message):
        r = run(runner, args.split())
        assert r.exit_code == code
        assert r.stderr == f"error: {message}\n"
        if code == 2:  # an input error writes no output file
            assert not Path("x.csv").exists()


class TestConvert:
    def test_dbm_to_watts(self, runner):
        r = run(runner, ["convert", "--dbm", "-116"])
        assert r.exit_code == 0
        watts = float(r.output.split()[0])
        assert watts == pytest.approx(2.5118864315095797e-15, rel=1e-12)

    def test_watts_to_dbm(self, runner):
        r = run(runner, ["convert", "--watts", "1e-3"])
        assert r.exit_code == 0
        assert float(r.output.split()[0]) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self, runner):
        r1 = run(runner, ["convert", "--dbm", "-86"])
        watts = float(r1.output.split()[0])
        r2 = run(runner, ["convert", "--watts", repr(watts)])
        assert float(r2.output.split()[0]) == pytest.approx(-86.0, abs=1e-9)

    def test_both_flags_exit_2(self, runner):
        r = runner.invoke(main, ["convert", "--dbm", "-86", "--watts", "1e-3"])
        assert r.exit_code == 2

    def test_no_flags_exit_2(self, runner):
        r = runner.invoke(main, ["convert"])
        assert r.exit_code == 2

    def test_zero_watts_exit_2(self, runner):
        r = runner.invoke(main, ["convert", "--watts", "0"])
        assert r.exit_code == 2


def test_version_runs_from_the_source_tree():
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run([sys.executable, "-m", "omitbench.cli", "--version"],
                       env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                       text=True, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, f"omitbench, version {__version__}\n", "")
