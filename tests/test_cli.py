import json
import math
import os
import re
import subprocess
import sys
import threading

import pytest

from pseudoharm import cli
from pseudoharm.cli import RunRecord, _emit_json, _parse_n_range, main


def run_cli(args, module="pseudoharm.cli", **env):
    e = dict(os.environ)
    e.update(env)
    e["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", module] + args,
        capture_output=True, text=True, env=e)


class TestPlumbing:
    def test_n_range_parsing(self):
        assert _parse_n_range("0..3") == [0, 1, 2, 3]
        assert _parse_n_range("2") == [2]
        assert _parse_n_range("0,2,5") == [0, 2, 5]
        assert _parse_n_range("0..2,5") == [0, 1, 2, 5]

    def test_json_emitter_17_digits_roundtrip(self):
        obj = {"x": 828.4898894123456, "list": [1, 2.5e-300, True, None, "s"]}
        text = _emit_json(obj)
        back = json.loads(text)
        assert back["x"] == obj["x"]  # lossless float round-trip
        assert back["list"][1] == 2.5e-300

    def test_runrecord_roundtrip(self):
        rec = RunRecord(command="spectrum", parameters={"alpha": -0.1},
                        settings={}, units="hw",
                        columns=["a", "b"], rows=[[1.0, 2.0e-17]])
        data = json.loads(rec.to_json())
        assert data["command"] == "spectrum"
        assert data["rows"][0][1] == 2.0e-17
        assert data["artifact-version"] == "1.0.0"


class TestSpectrum:
    def test_oscillator_closed_form(self):
        r = run_cli(["spectrum", "--alpha", "0", "--n", "0..3",
                     "--parity", "odd", "--method", "closed"])
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "alpha,delta,parity,n_display,kappa,energy_hw,method"
        energies = [float(l.split(",")[5]) for l in lines[1:]]
        assert energies == [1.5, 3.5, 5.5, 7.5]

    def test_package_runs_as_module(self):
        r = run_cli(["spectrum", "--alpha", "0", "--n", "0..1",
                     "--parity", "odd", "--method", "closed"],
                    module="pseudoharm")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "alpha,delta,parity,n_display,kappa,energy_hw,method"
        assert len(lines) == 3
        r = run_cli(["spectrum", "--alpha", "-0.3", "--n", "0",
                     "--method", "closed"], module="pseudoharm")
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"]["type"] == "DomainError"

    def test_matrix_method_rejected(self, capsys):
        # matrix-mechanics runs go through the matmech subcommand
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--alpha", "0", "--n", "0", "--method", "matrix"])
        assert info.value.code == 2
        assert "invalid choice: 'matrix'" in capsys.readouterr().err

    def test_ground_state_reference(self):
        r = run_cli(["spectrum", "--alpha", "-0.05", "--delta", "0.002",
                     "--parity", "even", "--ground"])
        assert r.returncode == 0
        e = float(r.stdout.strip().split("\n")[1].split(",")[5])
        assert e == pytest.approx(-828.4898894, rel=1e-6)

    def test_degenerate_pairs(self):
        r = run_cli(["spectrum", "--alpha", "0.1", "--delta", "1e-4",
                     "--parity", "both", "--n", "0..2",
                     "--method", "transcendental"])
        assert r.returncode == 0
        rows = [l.split(",") for l in r.stdout.strip().split("\n")[1:]]
        by_parity = {}
        for row in rows:
            by_parity.setdefault(row[2], []).append(float(row[5]))
        # measured gaps run 1.3e-4 .. 2.7e-4 at this cutoff
        for e_even, e_odd in zip(by_parity["even"], by_parity["odd"]):
            assert abs(e_even - e_odd) < 3e-4

    def test_scientific_notation_flags(self):
        r = run_cli(["spectrum", "--alpha", "1e-1", "--delta", "1.0e-3",
                     "--n", "0", "--parity", "odd",
                     "--method", "transcendental"])
        assert r.returncode == 0

    def test_error_is_machine_readable(self):
        r = run_cli(["spectrum", "--alpha", "-0.3", "--n", "0",
                     "--method", "closed"])
        assert r.returncode == 1
        err = json.loads(r.stdout)
        assert "error" in err and "message" in err["error"]

    def test_units_e1(self):
        r = run_cli(["spectrum", "--alpha", "0", "--n", "0",
                     "--parity", "odd", "--method", "closed",
                     "--units", "e1", "--rho", "50"])
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert "energy_e1" in lines[0]
        assert float(lines[1].split(",")[5]) == pytest.approx(75.0)


class TestDeterminismAndFiles:
    def test_csv_byte_identical_and_sidecar(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            r = run_cli(["spectrum", "--alpha", "-0.1", "--delta", "0.01",
                         "--n", "0..1", "--parity", "both",
                         "--method", "transcendental", "--out", str(out)])
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF endings
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert "wall-time-s" in meta and "written-at-unix" in meta
        # timestamps live only in the sidecar
        assert "unix" not in out1.read_text()

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(["spectrum", "--alpha", "0", "--n", "0", "--parity",
                     "odd", "--method", "closed", "--format", "json",
                     "--out", str(out)])
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        assert rec["artifact-version"] == "1.0.0"
        assert rec["rows"][0][5] == 1.5

    def test_commands_run_serially(self, monkeypatch, capsys):
        def no_threads(self):
            raise AssertionError("the CLI must not start threads")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        for argv in (["spectrum", "--alpha", "0.1", "--delta", "1e-3",
                      "--n", "0..2", "--parity", "both",
                      "--method", "transcendental"],
                     ["groundstate-scan", "--alpha-list=-0.25,-0.05",
                      "--delta-list", "0.002,0.004"],
                     ["table1", "--nmax", "200"]):
            assert main(argv) == 0, argv
        assert capsys.readouterr().out.count("\n") == 7 + 5 + 6


class TestOtherCommands:
    def test_wavefunction_odd_zero_at_origin(self):
        r = run_cli(["wavefunction", "--alpha", "-0.1", "--delta", "0.01",
                     "--parity", "odd", "--n", "0", "--x-min", "-2",
                     "--x-max", "2", "--samples", "5"])
        assert r.returncode == 0
        rows = [l.split(",") for l in r.stdout.strip().split("\n")[1:]]
        mid = rows[2]
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0

    def test_wavefunction_ground_peak(self):
        r = run_cli(["wavefunction", "--alpha", "-0.1", "--delta", "1e-3",
                     "--ground", "--parity", "even", "--x-min", "0",
                     "--x-max", "0.001", "--samples", "2",
                     "--format", "json"])
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        kappa = -2.0 * 5.3594505441e-3 / 1e-6  # c0(-0.1) scaled
        peak = (2.0 * abs(kappa)) ** 0.25
        assert rec["rows"][0][1] == pytest.approx(peak, rel=0.15)
        assert rec["normalization"]["norm"] == pytest.approx(1.0, abs=1e-8)

    def test_wavefunction_ground_default_range(self, capsys):
        # |E| ~ 1e4: the exterior K underflows at the edges of [-6, 6]
        argv = ["wavefunction", "--alpha=-0.1", "--delta", "0.001",
                "--ground", "--format", "json"]
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        psi = [row[1] for row in rec["rows"]]
        assert len(psi) == 601
        assert all(math.isfinite(p) for p in psi)
        assert max(abs(p - q) for p, q in zip(psi, psi[::-1])) \
            <= 1e-9 * max(psi)
        assert rec["normalization"]["norm"] == pytest.approx(1.0, abs=1e-8)

    def test_groundstate_scan(self):
        r = run_cli(["groundstate-scan", "--alpha-list=-0.25,-0.05",
                     "--delta-list", "0.002,0.004"])
        assert r.returncode == 0
        rows = [l.split(",") for l in r.stdout.strip().split("\n")[1:]]
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(float(row[0]), []).append(row)
        four_c0 = 4.0 * float(by_alpha[-0.25][0][5])
        assert four_c0 == pytest.approx(0.0904, abs=5e-4)
        assert 4.0 * float(by_alpha[-0.25][0][6]) == pytest.approx(0.0949, abs=5e-4)
        # estimate * delta^2 is delta-independent
        for rows_a in by_alpha.values():
            prods = [float(r[3]) * float(r[1]) ** 2 for r in rows_a]
            assert prods[0] == pytest.approx(prods[1], rel=1e-12)
        # self-consistent estimate tracks the exact energy closely
        row = by_alpha[-0.05][0]
        assert abs(float(row[2]) - float(row[3])) / abs(float(row[2])) < 2e-6

    def test_table1_small_basis(self):
        r = run_cli(["table1", "--alpha-list=-0.05", "--nmax", "600",
                     "--format", "json"])
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        row = rec["rows"][0]
        cols = rec["columns"]
        mat = row[cols.index("matrix_hw")]
        tric = row[cols.index("tricomi_hw")]
        assert tric == pytest.approx(-828.4898894, rel=1e-6)
        assert mat > tric  # Ritz value lies above at finite basis
        assert row[cols.index("dev_tricomi")] < 1e-6

    def test_matmech_guard_and_experimental_flag(self):
        r = run_cli(["matmech", "--alpha", "-0.3", "--delta", "0.01",
                     "--rho", "5", "--nmax", "60", "--k", "1"])
        assert r.returncode == 1
        assert "experimental" in json.loads(r.stdout)["error"]["message"]
        r2 = run_cli(["matmech", "--alpha", "-0.3", "--delta", "0.01",
                      "--rho", "5", "--nmax", "60", "--k", "1",
                      "--experimental-alpha-below-quarter",
                      "--format", "json"])
        assert r2.returncode == 0
        assert json.loads(r2.stdout)["experimental"] is True

    def test_matmech_oscillator(self):
        r = run_cli(["matmech", "--alpha", "0", "--epsilon", "1e-3",
                     "--rho", "50", "--nmax", "120", "--k", "2",
                     "--units", "hw"])
        assert r.returncode == 0
        rows = [l.split(",") for l in r.stdout.strip().split("\n")[1:]]
        assert float(rows[0][4]) == pytest.approx(0.5, rel=1e-4)


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha=nan", "--n", "0"],
        ["spectrum", "--alpha=inf", "--n", "0"],
        ["spectrum", "--alpha=nan", "--delta", "0.01", "--n", "0",
         "--method", "transcendental"],
        ["spectrum", "--alpha=-inf", "--delta", "0.002", "--ground"],
        ["matmech", "--alpha=nan", "--delta", "0.01", "--nmax", "60"],
    ])
    def test_non_finite_alpha_rejected(self, argv, capsys):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert "alpha must be finite" in err["message"]

    def test_non_finite_alpha_exit_code(self):
        r = run_cli(["spectrum", "--alpha=nan", "--n", "0"])
        assert r.returncode == 1
        assert "alpha must be finite" in json.loads(r.stdout)["error"]["message"]

    @pytest.mark.parametrize("argv,message", [
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--rho", "0"],
         "rho must be finite and positive"),
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--rho=-1"],
         "rho must be finite and positive"),
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--rho", "nan"],
         "rho must be finite and positive"),
        (["matmech", "--alpha", "0.1", "--epsilon", "0.01", "--rho", "0"],
         "rho must be finite and positive"),
        (["table1", "--rho", "0"], "rho must be finite and positive"),
        (["table1", "--rho", "inf", "--units", "e1"],
         "rho must be finite and positive"),
        (["spectrum", "--alpha", "0.1", "--n", "0", "--units", "e1",
          "--rho", "0"], "rho must be finite and positive"),
        (["spectrum", "--alpha", "0.1", "--n", "0", "--units", "e1",
          "--rho=-5"], "rho must be finite and positive"),
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--nmax", "60",
          "--k", "0"], "k must be >= 1"),
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--nmax", "60",
          "--k=-2"], "k must be >= 1"),
    ])
    def test_matrix_arguments_rejected(self, argv, message, capsys):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert message in err["message"]

    def test_rho_exit_code(self):
        r = run_cli(["matmech", "--alpha", "0.1", "--delta", "0.01",
                     "--rho", "0"])
        assert r.returncode == 1
        err = json.loads(r.stdout)["error"]
        assert err["type"] == "DomainError"
        assert "rho must be finite and positive" in err["message"]

    @pytest.mark.parametrize("flags,named", [
        (["--x-min", "nan"], "--x-min"),
        (["--x-max", "inf"], "--x-max"),
        (["--delta", "0.01", "--x-max", "inf"], "--x-max"),
        (["--delta", "0.01", "--x-min=-inf"], "--x-min"),
        (["--samples", "-3"], "--samples"),
    ])
    def test_wavefunction_range_checked(self, flags, named, capsys):
        assert main(["wavefunction", "--alpha", "0.1"] + flags) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "PseudoharmError"
        assert named in err["message"]

    def test_wavefunction_zero_samples_prints_header(self, capsys):
        assert main(["wavefunction", "--alpha", "0.1", "--samples", "0"]) == 0
        assert capsys.readouterr().out == "x_over_x0,psi_sqrt_x0\n"


class TestParserReuse:
    # one parser serves every main call of a process: flags of one call
    # must not reach the next
    SEQUENCE = [
        ["spectrum", "--alpha=-0.05", "--delta", "0.002", "--parity",
         "even", "--ground"],
        ["spectrum", "--alpha=-0.05", "--delta", "0.002", "--parity",
         "even", "--n", "0..1", "--method", "transcendental"],
        ["wavefunction", "--alpha=-0.1", "--delta", "0.01", "--n", "0",
         "--samples", "5", "--format", "json"],
        ["spectrum", "--alpha", "0", "--n", "0", "--method", "matrix"],
        ["wavefunction", "--alpha=-0.1", "--delta", "0.01", "--n", "0",
         "--samples", "5"],
        ["groundstate-scan", "--alpha-list=-0.1", "--out", "{out}"],
        ["groundstate-scan", "--alpha-list=-0.1"],
    ]

    @staticmethod
    def _payload(text):
        # the JSON record carries the command's wall time
        return re.sub(r'"wall-time-s":[^,}]*', '"wall-time-s":0', text)

    def test_matches_fresh_processes(self, monkeypatch, capsys, tmp_path):
        def no_rebuild():
            raise AssertionError("main must reuse the parser built at import")

        monkeypatch.setattr(cli, "_build_parser", no_rebuild)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
        for i, argv in enumerate(self.SEQUENCE):
            outs = [tmp_path / f"in-{i}.csv", tmp_path / f"sub-{i}.csv"]
            here, fresh = ([a.format(out=out) for a in argv] for out in outs)
            try:
                code = main(here)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            r = run_cli(fresh, COLUMNS="80")
            assert code == r.returncode, argv
            assert self._payload(got.out) == self._payload(r.stdout), argv
            assert got.err == r.stderr, argv
            if "--out" in argv:
                assert outs[0].read_bytes() == outs[1].read_bytes()
        assert code == 0 and got.out.count("\n") == 2


def test_main_entry_returns_zero():
    assert main(["spectrum", "--alpha", "0", "--n", "0", "--parity", "odd",
                 "--method", "closed", "--out", os.devnull]) == 0
