import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from pseudoharm import asymptotics, cli, eigensolver, matmech, regspec
from pseudoharm.cli import (RunRecord, _emit_json, _parse_float_list,
                            _parse_n_range, main)
from pseudoharm.unreg import PotentialSpec


def run_cli(args, module="pseudoharm.cli", **env):
    e = dict(os.environ)
    e.update(env)
    e["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", module] + args,
        capture_output=True, text=True, env=e)


# floats whose %.17g text must equal _fmt_float's: signed zeros, the
# smallest subnormal, the largest magnitudes
FINITE = [-0.0, 0.0, 5e-324, 1e308, -1e308, 2.5e-300, 1.0 / 3.0, 1.5]


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

    @staticmethod
    def _no_table(rows, head, tail, sep):
        # the emitters without the float-table format: every float by
        # _fmt_float
        return None

    def test_json_rows_match_the_generic_path(self, monkeypatch):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   1e308, -1e308, 2.5e-300, 1.0 / 3.0]
        rows = [[x, y] for x in special for y in special]
        finite = [[x, y, 1.0] for x in FINITE for y in FINITE]
        fast, fast_finite = _emit_json(rows), _emit_json(finite)
        monkeypatch.setattr(cli, "_float_table", self._no_table)
        assert fast == _emit_json(rows)
        assert fast_finite == _emit_json(finite)
        assert "[NaN,Infinity]" in fast and "[-0,4.9406564584124654e-324]" \
            in fast
        assert "[-0,4.9406564584124654e-324,1]" in fast_finite

    def test_json_wavefunction_record_matches_the_generic_path(
            self, monkeypatch):
        argv = ["wavefunction", "--alpha", "0.1", "--delta", "1e-3", "--n",
                "1", "--format", "json"]
        args = cli._PARSER.parse_args(argv)
        record = args.fn(args)
        fast = record.to_json()
        monkeypatch.setattr(cli, "_float_table", self._no_table)
        assert fast == record.to_json()
        assert len(json.loads(fast)["rows"]) == 601

    @staticmethod
    def _generic_csv(record):
        # the CSV without its table fast path: every cell by _csv_cells
        return "".join(cli._csv_cells(row) + "\n"
                       for row in [record.columns] + record.rows)

    @pytest.mark.parametrize("rows", [
        [[x, y] for x in FINITE for y in FINITE],
        [[x, y, 1.0] for x in FINITE for y in (math.nan, math.inf,
                                                  -math.inf)],
        [[0.5, 1.5], [np.float64(0.1), 1.5]],
        [[0.5, 1.5], [3, 0.25], ["odd", 1e-17]],
        [[0.5, 1.5], [0.5, 1.5, 2.5]],
        # spectrum rows without --delta: an empty delta cell
        [[0.1, "", "even", 2, 0.5, 3.5, "closed"]],
        [[]],
        [],
    ])
    def test_csv_rows_match_the_generic_path(self, rows):
        rec = RunRecord(command="t", parameters={}, settings={}, units="hw",
                        columns=["a", "b"], rows=rows)
        assert rec.to_csv() == self._generic_csv(rec)

    def test_csv_finite_float_table_takes_the_fast_path(self, monkeypatch):
        rows = [[x, y] for x in FINITE for y in FINITE]
        rec = RunRecord(command="t", parameters={}, settings={}, units="hw",
                        columns=["a", "b"], rows=rows)
        want = self._generic_csv(rec)

        def no_cells(row):
            raise AssertionError("finite float rows must not go per cell")

        monkeypatch.setattr(cli, "_csv_cells", no_cells)
        text = rec.to_csv()
        assert text == want
        assert "\n-0,4.9406564584124654e-324\n" in text
        assert "\n1e+308,-1e+308\n" in text

    def test_csv_wavefunction_record_matches_the_generic_path(self):
        args = cli._PARSER.parse_args(["wavefunction", "--alpha", "0.1",
                                       "--delta", "1e-3", "--n", "1"])
        record = args.fn(args)
        text = record.to_csv()
        assert text == self._generic_csv(record)
        assert text.count("\n") == 602

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

    def test_wavefunction_sidecar_carries_the_norm_report(self, tmp_path):
        # the normalization block goes to the sidecar; the CSV payload is
        # the stdout CSV, byte for byte
        out = tmp_path / "w.csv"
        argv = ["wavefunction", "--alpha", "-0.1", "--delta", "0.01",
                "--parity", "odd", "--n", "1", "--samples", "41"]
        r = run_cli(argv + ["--out", str(out)])
        assert r.returncode == 0
        assert out.read_bytes() == run_cli(argv).stdout.encode()
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        rec = json.loads(run_cli(argv + ["--format", "json"]).stdout)
        assert meta["normalization"] == rec["normalization"]
        assert set(meta["normalization"]) == {"norm", "inner_mass",
                                              "exterior_rel_diff"}
        assert "normalization" not in out.read_text()

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

    def test_groundstate_scan_rows_match_single_solves(self, monkeypatch):
        # the memoized c0 fixed point is solved once per coupling and shared
        # by its deltas; every row still equals the values of its own task
        # computed alone
        alphas, deltas = [-0.25, -0.2, -0.05], [0.002, 0.01]
        solves = [0]
        root = asymptotics.brent

        def counted(*args, **kwargs):
            solves[0] += 1
            return root(*args, **kwargs)

        asymptotics.c0_self_consistent.cache_clear()
        monkeypatch.setattr(asymptotics, "brent", counted)
        record = cli.cmd_groundstate_scan(argparse.Namespace(
            alpha_list=alphas, delta_list=deltas))
        monkeypatch.undo()
        assert solves[0] == len(alphas)
        assert len(record.rows) == len(alphas) * len(deltas)
        for row, (alpha, delta) in zip(record.rows,
                                       [(a, d) for a in alphas
                                        for d in deltas]):
            exact = regspec.solve_ground_even(
                PotentialSpec(alpha, delta)).energy
            sc = asymptotics.c0_self_consistent(alpha)
            cf = asymptotics.c0_closed_form(alpha)
            d2 = delta * delta
            assert row == [alpha, delta, exact, -2.0 * sc / d2,
                           -2.0 * cf / d2, sc, cf]

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

    def test_table1_builds_the_tables_once(self, monkeypatch, capsys):
        # the sine-integral kernel of the coupling tables runs once for
        # the five couplings of a table1 call, and not at all for a second
        # call at the same cutoff in the same process
        calls = []
        kernel = matmech.sine_integral_array

        def counted(x):
            calls.append(np.size(x))
            return kernel(x)

        monkeypatch.setattr(matmech, "sine_integral_array", counted)
        assert main(["table1", "--nmax", "200"]) == 0
        first = capsys.readouterr().out
        assert first.count("\n") == 6
        assert calls == [401]
        assert main(["table1", "--nmax", "200"]) == 0
        assert capsys.readouterr().out == first
        assert calls == [401]

    def test_table1_matrix_column_matches_one_coupling_assembly(self):
        # table1's matrix energies, four of five from cached tables, are
        # those of a cold one-coupling assemble and matmech.ground_state,
        # bit for bit
        args = cli._PARSER.parse_args(["table1", "--nmax", "200"])
        record = args.fn(args)
        eps = matmech.epsilon_from_delta(args.delta, args.rho)
        assert len(record.rows) == 5
        for row in record.rows:
            matmech._alpha_free_parts.cache_clear()
            model = matmech.assemble(row[0], args.rho, eps, 200)
            vals, _ = matmech.ground_state(model, want_vectors=False)
            assert row[1] == vals[0] / args.rho

    @pytest.mark.parametrize("alpha", ["-0.25", "-0.1", "-0.05"])
    def test_matmech_k1_prints_table1_matrix_energy(self, alpha, capsys):
        # both commands send the even block through matmech.ground_state
        # and print the same bits for its energy
        assert main(["table1", f"--alpha-list={alpha}", "--nmax", "200",
                     "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        table = row.split(",")[header.split(",").index("matrix_hw")]
        assert main(["matmech", f"--alpha={alpha}", "--delta", "0.002",
                     "--rho", "5", "--nmax", "200", "--k", "1",
                     "--units", "hw", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        columns = lines[0].split(",")
        even = [line.split(",") for line in lines[1:]
                if line.split(",")[columns.index("block")] == "even"]
        assert len(even) == 1
        assert even[0][columns.index("energy_hw")] == table

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
        # delta = (pi/2) sqrt(rho/2) epsilon: epsilon 1e-3 at rho 50
        r = run_cli(["matmech", "--alpha", "0", "--delta", "0.00785398",
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
        (["matmech", "--alpha", "0.1", "--delta", "0.01", "--rho", "inf"],
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


class TestFlagsApplyOrAreRefused:
    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--alpha", "0.1", "--units", "e1"],
        ["groundstate-scan", "--alpha-list=-0.1", "--units", "e1"],
    ])
    def test_units_only_where_energies_convert(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --units" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
    @pytest.mark.parametrize("flags,named", [
        (["--n", "3"], "--n"),
        (["--parity", "odd"], "--parity odd"),
        (["--parity", "odd", "--n", "3"], "--n"),
    ])
    def test_ground_refuses_other_states(self, command, flags, named,
                                         capsys):
        argv = [command, "--alpha=-0.1", "--delta", "0.002", "--ground"]
        assert main(argv + flags) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "PseudoharmError"
        assert named in err["message"]

    @pytest.mark.parametrize("method", ["asymptotic", "closed"])
    def test_spectrum_ground_refuses_other_methods(self, method, capsys):
        argv = ["spectrum", "--alpha=-0.1", "--delta", "0.002", "--ground",
                "--method", method, "--format", "json"]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "PseudoharmError"
        assert f"--method {method}" in err["message"]

    @pytest.mark.parametrize("flags,method,parity", [
        (["--ground"], "transcendental", "even"),
        (["--ground", "--method", "transcendental"], "transcendental",
         "even"),
        (["--n", "0"], "closed", "both"),
        (["--n", "0", "--delta", "0.002", "--method", "asymptotic"],
         "asymptotic", "both"),
        (["--n", "0", "--delta", "0.002"], "transcendental", "both")])
    def test_spectrum_records_the_method_used(self, flags, method, parity,
                                              capsys):
        argv = ["spectrum", "--alpha=-0.1", "--format", "json"]
        if "--ground" in flags:
            argv += ["--delta", "0.002"]
        assert main(argv + flags) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["parameters"]["method"] == method
        assert rec["parameters"]["parity"] == parity
        assert {row[6] for row in rec["rows"]} \
            == {"closed_form" if method == "closed" else method}

    def test_spectrum_closed_refuses_a_cutoff(self, capsys):
        assert main(["spectrum", "--alpha", "0.1", "--delta", "0.01", "--n",
                     "0..2", "--method", "closed"]) == 1
        assert "omit --delta" in \
            json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize("flags", [
        [], ["--epsilon", "0.001"], ["--epsilon", "0.001", "--delta", "0.01"]])
    def test_matmech_takes_the_cutoff_by_delta_only(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["matmech", "--alpha=-0.1", "--nmax", "60", "--k", "1"]
                 + flags)
        assert info.value.code == 2
        err = capsys.readouterr().err
        if "--delta" in flags:
            assert "unrecognized arguments: --epsilon" in err
        else:
            assert "required: --delta" in err

    def test_n_is_radial_for_spectrum_and_display_for_wavefunction(
            self, capsys):
        # the even states at alpha < 0 display from 1: spectrum --n 0 is
        # the state that wavefunction calls --n 1, and wavefunction has
        # no --n 0 there
        assert main(["spectrum", "--alpha=-0.1", "--parity", "even", "--n",
                     "0", "--method", "closed"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.split(",")[header.split(",").index("n_display")] == "1"
        argv = ["wavefunction", "--alpha=-0.1", "--parity", "even",
                "--samples", "3", "--format", "json"]
        assert main(argv + ["--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["n"] == 1
        assert main(argv + ["--n", "0"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert "display index 0" in err["message"]

    @pytest.mark.parametrize("argv,settings", [
        (["groundstate-scan", "--alpha-list=-0.1"],
         {"kappa_rel_tol": regspec.GROUND_KAPPA_REL_TOL}),
        (["spectrum", "--alpha=-0.1", "--delta", "0.002", "--ground"],
         {"kappa_rel_tol": regspec.GROUND_KAPPA_REL_TOL}),
        (["spectrum", "--alpha", "0.1", "--delta", "0.01", "--n", "0"],
         {"kappa_abs_tol": regspec.KAPPA_ABS_TOL}),
        (["matmech", "--alpha=-0.1", "--delta", "0.01", "--nmax", "60",
          "--k", "1"],
         {"eigensolver": "block-davidson+fft-toeplitz-hankel",
          "residual_tol": eigensolver.RESIDUAL_TOL}),
        # the closed form and the leading-order formula solve no root
        (["spectrum", "--alpha", "0.1", "--n", "0"], {}),
        (["spectrum", "--alpha", "0.1", "--delta", "0.01", "--n", "0",
          "--method", "asymptotic"], {}),
        # the quadrature of the norm check; the closed form has none
        (["wavefunction", "--alpha", "0.1", "--delta", "0.01", "--n", "0",
          "--samples", "3"],
         {"norm_interior_rel_tol": cli._NORM_INTERIOR_REL_TOL,
          "norm_exterior_rel_tol": cli._NORM_EXTERIOR_REL_TOL}),
        (["wavefunction", "--alpha", "0.1", "--n", "0", "--samples", "3"],
         {}),
    ])
    def test_settings_state_the_stops_used(self, argv, settings, capsys):
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["settings"] == settings

    def test_wavefunction_ground_requires_delta(self, capsys):
        assert main(["wavefunction", "--alpha=-0.1", "--ground"]) == 1
        assert "--ground requires --delta" in \
            json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize("flags,parity", [
        (["--ground"], "even"), (["--ground", "--parity", "even"], "even"),
        (["--n", "0"], "odd"), (["--n", "1", "--parity", "even"], "even")])
    def test_wavefunction_records_the_solved_parity(self, flags, parity,
                                                    capsys):
        argv = ["wavefunction", "--alpha=-0.1", "--delta", "0.002",
                "--samples", "3", "--format", "json"]
        assert main(argv + flags) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["parity"] \
            == parity

    @pytest.mark.parametrize("argv", [
        ["table1", "--alpha-list", ""],
        ["table1", "--alpha-list", " , "],
        ["groundstate-scan", "--alpha-list", ""],
        ["groundstate-scan", "--alpha-list=-0.1", "--delta-list", ""],
    ])
    def test_empty_lists_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "empty list" in capsys.readouterr().err

    def test_float_list_parsing(self):
        assert _parse_float_list("-0.25, 0.1,") == [-0.25, 0.1]
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_float_list(",")


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


class TestWaveFunctionExteriors:
    """Regularized wave functions whose exteriors the per-point U routes
    could not evaluate."""

    def _record(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 0, \
            capsys.readouterr().out[:300]
        return json.loads(capsys.readouterr().out)

    def test_ground_state_far_tail(self, capsys):
        # the large-a Bessel branch took the log of a negative number here
        rec = self._record(["wavefunction", "--alpha=-0.1", "--delta",
                            "0.005", "--ground", "--x-max", "12"], capsys)
        assert abs(rec["normalization"]["norm"] - 1.0) <= 1e-8
        psi = [row[1] for row in rec["rows"]]
        assert all(math.isfinite(p) for p in psi)

    def test_far_samples_of_a_high_state_are_zero(self, capsys):
        # U grows like x^100 where exp(-x^2/2) has underflowed
        rec = self._record(["wavefunction", "--alpha", "0.1", "--delta",
                            "0.01", "--n", "50", "--x-min", "0", "--x-max",
                            "10000", "--samples", "11"], capsys)
        assert [row[1] for row in rec["rows"][1:]] == [0.0] * 10

    @pytest.mark.parametrize("n", [12, 30])
    def test_high_excited_states(self, n, capsys):
        # the 1/z expansion raised NonConvergenceError from a < -12 on
        rec = self._record(["wavefunction", "--alpha", "0.1", "--delta",
                            "0.01", "--n", str(n), "--x-min", "0",
                            "--x-max", "12", "--samples", "2401"], capsys)
        assert abs(rec["normalization"]["norm"] - 1.0) <= 1e-8
        psi = [row[1] for row in rec["rows"]]
        assert all(math.isfinite(p) for p in psi)
        # an odd state with radial index n has n nodes for x > 0
        signs = [p > 0.0 for x, p in rec["rows"] if x > 0.0]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == n
