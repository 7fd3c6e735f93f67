import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qbm import __version__
from qbm.cli import _resolve, build_parser, load_config, main
from qbm.coefficients import CoefficientTable


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_physical_params_exit_1(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["coeffs", "--mass", "-1", "--out", out]) == 1
        assert main(["coeffs", "--gamma", "-0.5", "--out", out]) == 1

    def test_bad_grid_exit_1(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["coeffs", "--t-max", "-5", "--out", out]) == 1

    @pytest.mark.parametrize("argv", [
        ["fpe", "--scheme", "foo"],
        ["coeffs", "--bogus", "1"],
        ["coeffs", "--n-points", "x"],
        ["coeffs", "--classical"],
        ["--config"],
        ["--validate", "coeffs", "--t-max", "2", "--n-points", "5", "--out", "c.csv"],
    ], ids=["bad-choice", "unknown-flag", "bad-type", "removed-flag", "pre-parser",
            "removed-validate-flag"])
    def test_usage_error_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # exit 2 is kept for numerical failures: a usage error is bad input
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.count("\n") == 1 and cap.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["coeffs", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: qbm" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, made", [
        (["coeffs", "--t-max", "1", "--n", "3", "--out", "missing/c.csv"], None),
        (["fpe", "--t-final", "0.1", "--n-q", "201", "--dt", "5e-3", "--out", "missing/f.csv"], None),
        (["sde", "--paths", "10", "--t-final", "0.1", "--out", "missing/s.csv"], None),
        (["sde", "--paths", "10", "--t-final", "0.1", "--dump-paths", "missing/p.bin"], None),
        (["validate", "--out", "missing/v.json"], None),
        (["coeffs", "--t-max", "1", "--n", "3", "--out", "."], None),
        (["fpe", "--t-final", "0.1", "--n-q", "201", "--dt", "5e-3", "--out", "."], None),
        (["sde", "--paths", "10", "--t-final", "0.1", "--out", "."], None),
        (["sde", "--paths", "10", "--t-final", "0.1", "--dump-paths", "."], None),
        (["validate", "--out", "."], None),
        (["coeffs", "--t-max", "1", "--n", "3", "--out", "c.csv"], "c.csv.json"),
    ], ids=["coeffs", "fpe", "sde", "sde-dump-paths", "validate",
            "coeffs-dir", "fpe-dir", "sde-dir", "sde-dump-paths-dir", "validate-dir",
            "coeffs-manifest-dir"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, monkeypatch, argv, made):
        # an output or its manifest into a missing directory, or that is a
        # directory (``made`` here first), is refused while resolving: no
        # command's work starts and nothing is written
        def never(*args, **kwargs):
            raise AssertionError("work started before the output was checked")

        for name in ("build_table", "solve", "simulate_langevin", "run_suite"):
            monkeypatch.setattr(f"qbm.cli.{name}", never)
        monkeypatch.chdir(tmp_path)
        if made:
            (tmp_path / made).mkdir()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"cannot write {made or argv[-1]}:" in err
        assert list(tmp_path.iterdir()) == ([tmp_path / made] if made else [])

    def test_output_write_error_exit_1(self, tmp_path, capsys, monkeypatch):
        # an output path that passes every check before the run but whose
        # writer fails (here a full disk) still gives one error line, and no
        # manifest
        def disk_full(self, path):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(CoefficientTable, "to_csv", disk_full)
        monkeypatch.chdir(tmp_path)
        assert main(["coeffs", "--t-max", "1", "--n", "3", "--out", "c.csv"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "c.csv" in err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exit_2(self, tmp_path):
        # underdamped drift poles inside the solve window are a numerical
        # refusal, not an input error
        out = str(tmp_path / "f.csv")
        rc = main(["fpe", "--gamma", "0.5", "--omega0-sq", "1.0",
                   "--t-final", "3", "--out", out])
        assert rc == 2


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        # each value is read back as the bool, int, float or str it spells
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 0.5\nomega0_sq = 1.0\npaths = 250\nv0_mode = zero\n"
                        "compare_analytic = true\ndt = 0.001\n")
        cfg = load_config(path)
        assert cfg == {"gamma": 0.5, "omega0_sq": 1.0, "paths": 250, "v0_mode": "zero",
                       "compare_analytic": True, "dt": 1e-3}
        assert [type(v) for v in cfg.values()] == [float, float, int, str, bool, float]

    def test_comments_and_separators(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep base\n"
            "gamma = 2.0\n"
            "t-max 3.0   # space separated works too\n"
            "\n"
            "n_points = 7\n"
        )
        cfg = load_config(path)
        assert cfg == {"gamma": 2.0, "t_max": 3.0, "n_points": 7}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("justakey\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_config_drives_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 2.0\nomega0_sq = 1.0\nn_points = 7\nt_max = 3.0\n")
        out = str(tmp_path / "c.csv")
        rc = main(["--config", str(path), "coeffs", "--out", out])
        assert rc == 0
        man = json.loads((tmp_path / "c.csv.json").read_text())
        assert man["params"]["gamma"] == 2.0
        assert man["n_points"] == 7
        assert man["config"]["t_max"] == 3.0

    def test_cli_flag_overrides_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 2.0\nn_points = 7\n")
        out = str(tmp_path / "c.csv")
        rc = main(["--config", str(path), "coeffs", "--gamma", "0.25",
                   "--t-max", "2", "--out", out])
        assert rc == 0
        man = json.loads((tmp_path / "c.csv.json").read_text())
        assert man["params"]["gamma"] == 0.25   # flag wins
        assert man["n_points"] == 7             # config beats default

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        # a misspelled key must not silently fall back to the default t_max
        path = tmp_path / "typo.cfg"
        path.write_text("t_maxx = 2\nn_points = 3\n")
        out = tmp_path / "c.csv"
        assert main(["--config", str(path), "coeffs", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t_maxx" in err
        assert not out.exists()

    def test_keys_of_any_subcommand_accepted(self, tmp_path):
        # one file may serve several subcommands: keys of the others pass
        path = tmp_path / "shared.cfg"
        path.write_text("t_max = 2\nn_points = 3\npaths = 100\nscheme = split-upwind\n")
        out = str(tmp_path / "c.csv")
        assert main(["--config", str(path), "coeffs", "--out", out]) == 0
        man = json.loads((tmp_path / "c.csv.json").read_text())
        assert man["config"]["t_max"] == 2 and man["n_points"] == 3

    @pytest.mark.parametrize("line", ["suite = nope", "suite = quantum", "scheme = foo"])
    def test_config_value_outside_choices_exit_1(self, tmp_path, capsys, monkeypatch, line):
        # config values become defaults, which argparse does not check against choices
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(line + "\n")
        assert main(["--config", "run.cfg", "validate", "--out", "v.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "coeffs"]) == 1


class TestReadme:
    """README's "Command line" examples parse with the current parser."""

    @staticmethod
    def _blocks():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"```\w*\n(.*?)```", section, re.S)

    def test_command_lines_parse(self):
        lines = [ln for b in self._blocks() for ln in b.splitlines() if ln.startswith("qbm ")]
        assert len(lines) >= 4
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_config_example_parses(self, tmp_path):
        (tmp_path / "run.cfg").write_text(next(b for b in self._blocks() if "# run.cfg" in b))
        config = load_config(tmp_path / "run.cfg")
        args = vars(build_parser(config).parse_args(["fpe"]))
        assert config and {k: args[k] for k in config} == config


class TestCoeffs:
    def test_classical_table_with_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        rc = main(["coeffs", "--t-max", "4", "--n-points", "41", "--out", out])
        assert rc == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "t,omega,d1,sigma1,sigma_q,d_fpe"
        assert len(lines) == 42
        man = json.loads((tmp_path / "c.csv.json").read_text())
        assert man["csv"] == "c.csv"
        assert man["mode"] == "classical"
        assert man["params"]["omega0_sq"] == 0.16
        assert man["tol"] == 1e-8
        assert man["version"] == __version__
        assert man["config"]["threads"] == 1

    def test_row_count_contract_with_n_alias(self, tmp_path):
        out = str(tmp_path / "c.csv")
        rc = main(["coeffs", "--gamma", "1", "--omega0-sq", "0.16", "--mass", "1",
                   "--temp", "1", "--hbar", "0", "--t-max", "10", "--n", "200",
                   "--out", out])
        assert rc == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert len(lines) == 201  # header + 200 data rows

    def test_quantum_table_auto_start(self, tmp_path):
        out = str(tmp_path / "q.csv")
        rc = main([
            "coeffs", "--hbar", "1", "--t-max", "2", "--n-points", "5",
            "--n-max", "200", "--out", out,
        ])
        assert rc == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data["t"][0] > 0.0
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["mode"] == "quantum"
        assert man["n_max"] == 200

    @pytest.mark.parametrize("hbar", ["0", "1"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_too_few_points_exit_1(self, tmp_path, capsys, hbar, n):
        out = tmp_path / "c.csv"
        rc = main(["coeffs", "--hbar", hbar, "--n-points", n, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --n-points must be at least 1, got {n}\n"
        assert list(tmp_path.iterdir()) == []

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBM_THREADS", "2")
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--t-max", "1", "--n-points", "4",
                   "--n-max", "100", "--out", out])
        assert rc == 0
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["config"]["threads"] == 2


    def test_unmet_tol_warns_on_stderr(self, tmp_path, capsys):
        # no bound on a value at the cutoff reaches a tol below round-off
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--t-max", "1", "--n-points", "2",
                   "--gamma", "0.5", "--omega0-sq", "0.062499999975",
                   "--n-max", "100", "--tol", "1e-18", "--out", out])
        assert rc == 0
        cap = capsys.readouterr()
        assert cap.err.startswith("warning: tol not met: ")
        assert cap.err.count("\n") == 1
        assert cap.out.startswith("wrote ") and "warning" not in cap.out
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["diagnostics"]["tol_met"] is False

    def test_default_cutoff_recorded(self, tmp_path, capsys):
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--t-max", "0.5", "--n-points", "1",
                   "--out", out])
        assert rc == 0
        assert capsys.readouterr().err == ""
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["n_max"] == man["config"]["n_max"] == 20000
        assert man["diagnostics"]["n_modes_max"] == 20000
        assert man["diagnostics"]["tol_met"] is True

    def test_low_temperature_meets_tol(self, tmp_path, capsys):
        # at kT = 0.003 the correlation part of sigma1 once refused its tail
        # (exit 2) and the sigma1 bound read 1e-7 (a false warning)
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--temp", "0.003", "--t-max", "8", "--n", "5",
                   "--out", out])
        assert rc == 0
        assert capsys.readouterr().err == ""
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["diagnostics"]["tol_met"] is True

    def test_uncertifiable_tail_exit_2(self, tmp_path, capsys):
        # at t = 1e-18 D1's xi_q0 tail cannot be certified: a typed refusal
        # naming the grid point, not a traceback
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--t-min", "1e-18", "--t-max", "1e-17", "--n", "2",
                   "--out", out])
        assert rc == 2
        assert "t_grid[0] = 1e-18: " in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
    @pytest.mark.parametrize("mode", ["--hbar=1", "--hbar=0"])
    def test_bad_tol_exit_1(self, tmp_path, capsys, mode, tol):
        out = tmp_path / "q.csv"
        rc = main(["coeffs", mode, "--t-max", "1", "--n-points", "2",
                   f"--tol={tol}", "--out", str(out)])
        assert rc == 1
        assert "tol" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "q.csv.json").exists()

    def test_met_tol_is_silent(self, tmp_path, capsys):
        out = str(tmp_path / "q.csv")
        rc = main(["coeffs", "--hbar", "1", "--t-max", "1", "--n-points", "2",
                   "--tol", "1e-2", "--out", out])
        assert rc == 0
        assert capsys.readouterr().err == ""
        man = json.loads((tmp_path / "q.csv.json").read_text())
        assert man["diagnostics"]["tol_met"] is True


class TestFpe:
    def test_accurate_run_exit_0(self, tmp_path, capsys):
        out = str(tmp_path / "f.csv")
        rc = main([
            "fpe", "--t-final", "1", "--n-q", "401", "--dt", "2e-3",
            "--q0", "1", "--compare-analytic", "--out", out,
        ])
        assert rc == 0
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "q,rho"
        summary = json.loads((tmp_path / "f.csv.json").read_text())
        assert summary["linf_error"] / summary["peak_density"] < 5e-3
        assert abs(summary["mass_final"] - summary["mass_initial"]) < 1e-12
        assert summary["config"]["scheme"] == "cn-central"

    @pytest.mark.parametrize("hbar", ["0", "1"], ids=["classical", "quantum"])
    def test_late_start_exit_0(self, tmp_path, hbar):
        # the exact density is the initial Gaussian moved from t_start, not a
        # run started at 0
        out = str(tmp_path / "f.csv")
        rc = main(["fpe", "--hbar", hbar, "--q0", "1", "--compare-analytic",
                   "--t-start", "1", "--t-final", "2", "--out", out])
        assert rc == 0
        summary = json.loads((tmp_path / "f.csv.json").read_text())
        assert summary["linf_error"] / summary["peak_density"] < 1e-4

    def test_coarse_run_exit_1(self, tmp_path):
        out = str(tmp_path / "f.csv")
        rc = main([
            "fpe", "--t-final", "1", "--n-q", "21", "--dt", "5e-2",
            "--q0", "1", "--compare-analytic", "--out", out,
        ])
        assert rc == 1

    def test_unresolved_analytic_density_exit_1(self, tmp_path, capsys):
        # grid spacing ~1250 against an initial sd of 0.1: refused before
        # the first step, with both widths named
        out = str(tmp_path / "f.csv")
        rc = main(["fpe", "--q0", "1e6", "--t-final", "0.01", "--compare-analytic",
                   "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell width 1250")
        assert "initial sd 0.1" in err
        assert not (tmp_path / "f.csv").exists()

    def test_inaccurate_resolved_run_exit_1(self, tmp_path):
        # the grid resolves the initial density, but dt = 0.2 is too coarse
        # for the --compare-analytic gate
        out = str(tmp_path / "f.csv")
        rc = main([
            "fpe", "--t-final", "1", "--n-q", "201", "--dt", "0.2",
            "--q0", "1", "--compare-analytic", "--out", out,
        ])
        assert rc == 1
        summary = json.loads((tmp_path / "f.csv.json").read_text())
        assert summary["linf_error"] / summary["peak_density"] > 5e-3

    def test_quantum_manifest_records_the_coefficients(self, tmp_path):
        # from t = 0.5, where D >= 0, the run records its table's mode
        # cutoff, both tail bounds and whether they met tol
        out = str(tmp_path / "f.csv")
        rc = main(["fpe", "--hbar", "1", "--t-start", "0.5", "--t-final", "1", "--n-q", "401",
                   "--dt", "5e-3", "--out", out])
        assert rc == 0
        coeffs = json.loads((tmp_path / "f.csv.json").read_text())["coefficients"]
        assert coeffs["n_max"] == 20000 and coeffs["tol"] == 1e-8
        diag = coeffs["diagnostics"]
        assert diag["tol_met"] is True
        assert 0.0 < diag["d1_tail_bound_max"] <= 1e-8
        assert 0.0 < diag["sigma1_tail_bound_max"] <= 1e-8

    def test_classical_manifest_has_no_coefficient_record(self, tmp_path):
        out = str(tmp_path / "f.csv")
        assert main(["fpe", "--t-final", "0.5", "--n-q", "201", "--dt", "5e-3",
                     "--out", out]) == 0
        assert "coefficients" not in json.loads((tmp_path / "f.csv.json").read_text())

    def test_density_file_is_normalized(self, tmp_path):
        out = str(tmp_path / "f.csv")
        main(["fpe", "--t-final", "0.5", "--n-q", "301", "--dt", "2e-3",
              "--out", out])
        data = np.genfromtxt(out, delimiter=",", names=True)
        dq = data["q"][1] - data["q"][0]
        assert np.sum(data["rho"]) * dq == pytest.approx(1.0, abs=1e-10)


class TestSde:
    def test_seeded_runs_are_identical(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ["sde", "--paths", "1000", "--seed", "7", "--dt", "5e-3",
                "--t-final", "1"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_manifest_carries_seed(self, tmp_path):
        out = str(tmp_path / "s.csv")
        main(["sde", "--paths", "100", "--seed", "42", "--dt", "1e-2",
              "--t-final", "0.5", "--out", out])
        man = json.loads((tmp_path / "s.csv.json").read_text())
        assert man["config"]["seed"] == 42
        assert man["config"]["paths"] == 100
        assert man["label"] == "langevin-baoab-thermal"

    def test_manifest_counts_rng_draws(self, tmp_path):
        # 50 steps of 100 paths; the thermal Langevin run draws its v0 too
        out = str(tmp_path / "s.csv")
        main(["sde", "--paths", "100", "--seed", "3", "--dt", "1e-2", "--t-final", "0.5",
              "--v0-mode", "zero", "--out", out])
        man = json.loads((tmp_path / "s.csv.json").read_text())
        assert man["rng_draws"] == 100 * 50
        assert "reduced" not in man
        main(["sde", "--paths", "100", "--seed", "3", "--dt", "1e-2", "--t-final", "0.5",
              "--compare", "--out", out])
        man = json.loads((tmp_path / "s.csv.json").read_text())
        assert man["rng_draws"] == 100 * 50 + 100
        assert man["reduced"] == {"label": "reduced-em", "rng_draws": 100 * 50}

    def test_dump_paths_layout(self, tmp_path):
        out = str(tmp_path / "s.csv")
        dump = tmp_path / "s.paths"
        rc = main(["sde", "--paths", "50", "--seed", "3", "--dt", "1e-2",
                   "--t-final", "0.5", "--dump-paths", str(dump), "--out", out])
        assert rc == 0
        raw = dump.read_bytes()
        n_paths, n_times = np.frombuffer(raw[:16], dtype="<u8")
        assert n_paths == 50
        body = np.frombuffer(raw[16:], dtype="<f8").reshape(n_paths, n_times)
        # final recorded column must reproduce the CSV moment row
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert body[:, -1].mean() == pytest.approx(data["mean"][-1], abs=1e-12)

    def test_compare_mode(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        rc = main(["sde", "--paths", "4000", "--seed", "21", "--dt", "2e-3",
                   "--t-final", "1", "--compare", "--out", out])
        assert rc == 0
        assert "max_z_var" in capsys.readouterr().out
        man = json.loads((tmp_path / "s.csv.json").read_text())
        assert man["equivalence"]["passed"] is True

    def test_compare_default_run_passes(self, tmp_path, capsys):
        # 6 x 65 z-scores: at this seed one exceeds 3 by chance, which the
        # limit derived from the score count allows
        out = str(tmp_path / "s.csv")
        rc = main(["--threads", "2", "sde", "--compare", "--paths", "2000", "--out", out])
        assert rc == 0
        eq = json.loads((tmp_path / "s.csv.json").read_text())["equivalence"]
        assert eq["passed"] is True
        assert 3.0 < max(v for k, v in eq.items() if k.startswith("max_z")) <= eq["z_limit"]
        assert eq["z_limit"] == pytest.approx(4.703, abs=1e-3)
        assert "z_limit" in capsys.readouterr().out

    def test_quantum_hbar_refused_exit_1(self, tmp_path, capsys):
        # the SDE routes are classical: a run with hbar > 0 must not pass for
        # a quantum one
        out = tmp_path / "s.csv"
        rc = main(["sde", "--hbar", "1", "--paths", "10", "--t-final", "0.1",
                   "--out", str(out)])
        assert rc == 1
        assert "classical" in capsys.readouterr().err
        assert not out.exists()
        rc = main(["sde", "--hbar", "0", "--paths", "10", "--t-final", "0.1", "--out", str(out)])
        assert rc == 0
        assert json.loads((tmp_path / "s.csv.json").read_text())["config"]["hbar"] == 0.0

    def test_csv_header(self, tmp_path):
        out = str(tmp_path / "s.csv")
        main(["sde", "--paths", "100", "--seed", "1", "--dt", "1e-2",
              "--t-final", "0.5", "--out", out])
        assert (tmp_path / "s.csv").read_text().splitlines()[0] == "t,mean,var,se_mean,se_var"

    def test_unstable_run_exit_2(self, tmp_path, capsys):
        # dt * omega0 = 5: BAOAB blows up, which is a numerical failure
        out = str(tmp_path / "s.csv")
        rc = main(["sde", "--omega0-sq", "100", "--gamma", "0.1", "--paths", "100",
                   "--dt", "0.5", "--t-final", "2000", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "t=" in err[0]

    def test_sub_step_run_has_one_record(self, tmp_path):
        out = str(tmp_path / "s.csv")
        rc = main(["sde", "--t-final", "1e-14", "--dt", "1", "--paths", "10", "--out", out])
        assert rc == 0
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 2


class TestValidate:
    def test_quick_classical_suite_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--suite", "quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        rep = json.loads((tmp_path / "validation.json").read_text())
        assert rep["passed"] is True
        assert all(c["passed"] for c in rep["checks"])
        assert out.count("[PASS]") == len(rep["checks"])  # each check printed once

    def test_named_suite_selects_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--suite", "full"]) == 0
        rep = json.loads((tmp_path / "validation.json").read_text())
        assert rep["passed"] is True
        assert rep["mode"] == "classical"

    def test_removed_suite_and_mode_spellings_refused(self, tmp_path, capsys):
        out = str(tmp_path / "v.json")
        rc = main(["validate", "--suite", "classical", "--mode", "quantum",
                   "--out", out])
        assert rc == 1
        assert "suite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sde", "--hbar", "1", "--paths", "10", "--t-final", "0.1", "--out", "s.csv"],
        ["validate", "--hbar", "1", "--suite", "classical", "--mode", "quantum",
         "--out", "v.json"],
    ], ids=["sde-hbar", "removed-suite-and-mode-spellings"])
    def test_refused_run_runs_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        # input refusals come before any work or write
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestRunRecord:
    """Every manifest's ``config`` holds every parsed setting, defaults resolved."""

    @pytest.mark.parametrize("argv, manifest, resolved", [
        (["coeffs", "--hbar", "1", "--t-max", "2", "--n-points", "5", "--out", "q.csv"],
         "q.csv.json", {"mode": "quantum", "t_min": 0.04, "n_max": 20000}),
        (["coeffs", "--t-max", "2", "--n-points", "5", "--out", "c.csv"],
         "c.csv.json", {"mode": "classical", "t_min": 0.0}),
        (["fpe", "--t-final", "0.5", "--n-q", "201", "--dt", "5e-3", "--out", "f.csv"],
         "f.csv.json", {"mode": "classical"}),
        (["sde", "--paths", "10", "--t-final", "0.1", "--out", "s.csv"], "s.csv.json",
         {"mode": "classical"}),
        (["validate", "--hbar", "1", "--suite", "full", "--out", "v.json"],
         "v.json", {"mode": "quantum"}),
    ], ids=["coeffs-quantum", "coeffs-classical", "fpe", "sde", "validate"])
    def test_config_holds_every_resolved_setting(self, tmp_path, monkeypatch, argv, manifest,
                                                 resolved):
        monkeypatch.setenv("QBM_THREADS", "2")
        monkeypatch.chdir(tmp_path)
        main(argv)
        config = json.loads((tmp_path / manifest).read_text())["config"]
        parsed = vars(build_parser().parse_args(argv))
        assert config == {**parsed, "threads": 2, **resolved}

    def test_resolve_quantum_fpe_t_start(self, monkeypatch):
        # every quantum fpe run from t_start = 0 still refuses its negative
        # short-time D (exit 2), so no manifest shows this resolved t_start
        monkeypatch.setenv("QBM_THREADS", "2")
        args = build_parser().parse_args(
            ["fpe", "--hbar", "1", "--t-final", "1", "--n-q", "401", "--dt", "5e-3"])
        parsed = dict(vars(args))
        _resolve(args)
        assert vars(args) == {**parsed, "threads": 2, "mode": "quantum", "t_start": 1e-3}

    _RUNS = {
        "coeffs": (["coeffs", "--t-max", "2", "--n-points", "5", "--out", "c.csv"], "c.csv.json"),
        "fpe": (["fpe", "--t-start", "0.5", "--t-final", "1", "--n-q", "401", "--dt", "5e-3",
                 "--out", "f.csv"], "f.csv.json"),
        "sde": (["sde", "--paths", "10", "--t-final", "0.1", "--out", "s.csv"], "s.csv.json"),
        "validate": (["validate", "--out", "v.json"], "v.json"),
    }

    # sde refuses hbar > 0 (TestSde::test_quantum_hbar_refused_exit_1)
    @pytest.mark.parametrize("command, hbar", [
        ("coeffs", 0.0), ("coeffs", 1.0), ("fpe", 0.0), ("fpe", 1.0), ("sde", 0.0),
        ("validate", 0.0), ("validate", 1.0),
    ])
    def test_mode_is_quantum_exactly_when_hbar_positive(self, tmp_path, monkeypatch, command,
                                                        hbar):
        argv, manifest = self._RUNS[command]
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--hbar", str(hbar)]) == 0
        config = json.loads((tmp_path / manifest).read_text())["config"]
        assert config["hbar"] == hbar
        assert config["mode"] == ("quantum" if hbar > 0.0 else "classical")
