"""Command-line surface: CSV schemas, determinism, config files, exit codes."""

import dataclasses
import errno
import functools
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ergoflow
from ergoflow import (
    CrossingReport,
    ScanRow,
    SweepGrid,
    SystemBathSpec,
    cli,
    crossing_time_closed_form,
    displaced_thermal,
    ergotropy,
    mpemba_scan,
    sample_trajectory,
    squeezed_thermal,
)
from ergoflow.cli import SWEEP_HEADER, TRAJECTORY_HEADER, parse_config_text
from ergoflow.oracles import fock, lyapunov, quadrature

from helpers import literal_moment_path


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class UnwritableStdout(io.StringIO):
    """A stdout whose writes raise error; its fileno() is that of a scratch file."""

    def __init__(self, error, fd):
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.fd


def traced_peak(call):
    """call()'s result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path):
    text = path.read_text()
    lines = text.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_squeezed_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "squeezed.csv"
        code, _, _ = run(
            [
                "simulate", "--family", "squeezed", "--nbar-pi", "0.2", "--nbar", "0.4",
                "--r", "1", "--tmax", "5", "--dt", "0.01", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == TRAJECTORY_HEADER
        assert len(rows) == 501
        assert float(rows[0][3]) == pytest.approx(1.9335369837585419, rel=1e-15)
        assert float(rows[-1][0]) == pytest.approx(5.0, rel=1e-12)

    def test_displaced_charge_column_is_exponential(self, tmp_path, capsys):
        out = tmp_path / "displaced.csv"
        code, _, _ = run(
            [
                "simulate", "--family", "displaced", "--mu", "1", "--nbar-pi", "0.2",
                "--nbar", "0.4", "--tmax", "3", "--dt", "0.05", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        taus = np.array([float(r[0]) for r in rows])
        erg = np.array([float(r[3]) for r in rows])
        assert np.allclose(erg, np.exp(-taus), rtol=0, atol=1e-14)

    def test_thermal_family_never_charged(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        code, _, _ = run(
            [
                "simulate", "--family", "thermal", "--nbar-pi", "0.4", "--nbar", "0.4",
                "--tmax", "1", "--dt", "0.1", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "simulate", "--family", "squeezed-displaced", "--nbar-pi", "0.2", "--nbar", "0.4",
            "--r", "0.7", "--mu", "0.4+0.1j", "--tmax", "2", "--dt", "0.02",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["-o", str(first)], capsys)[0] == 0
        assert run(args + ["-o", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_absolute_time_rescales_grid(self, tmp_path, capsys):
        # gamma = 2: tau grid [0,2] equals absolute grid [0,1]
        tau_file, abs_file = tmp_path / "tau.csv", tmp_path / "abs.csv"
        base = ["simulate", "--family", "displaced", "--mu", "1", "--gamma", "2", "--nbar-pi", "0"]
        run(base + ["--tmax", "2", "--dt", "0.2", "-o", str(tau_file)], capsys)
        run(
            base + ["--tmax", "1", "--dt", "0.1", "--absolute-time", "-o", str(abs_file)],
            capsys,
        )
        _, tau_rows = read_csv(tau_file)
        _, abs_rows = read_csv(abs_file)
        for tau_row, abs_row in zip(tau_rows, abs_rows):
            assert float(tau_row[0]) == pytest.approx(2 * float(abs_row[0]), rel=1e-12)
            assert float(tau_row[3]) == pytest.approx(float(abs_row[3]), rel=1e-12)

    def test_stdout_output(self, capsys):
        code, out, _ = run(
            ["simulate", "--family", "thermal", "--nbar-pi", "0.1", "--tmax", "0.5", "--dt", "0.25"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == TRAJECTORY_HEADER
        assert len(out.splitlines()) == 4

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            ["simulate", "--family", "thermal", "--nbar-pi", "-0.5", "--tmax", "1", "--dt", "0.1"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tmax", "inf"], "--tmax must be finite and positive"),  # OverflowError
            (["--tmax", "nan"], "--tmax must be finite and positive"),  # "cannot convert float NaN"
            (["--dt", "nan"], "--dt must be finite and positive"),  # likewise
            (["--dt", "inf"], "--dt must be finite and positive"),  # "--tmax must be at least one step"
            (["--tmax", "0.1", "--dt", "0.5"], "--tmax must be at least one step --dt"),
            # 10^7 steps: refused before any grid-sized array is made
            (["--tmax", "1e7", "--dt", "1"], "the time grid holds more than 1000000 steps of --dt"),
            # 1.6 steps round to 2, past the largest float: was numpy's overflow warning
            # and "tau grid must be finite"
            (["--tmax", "1.7976931348623157e308", "--dt", "1.1235582092889474e308"],
             "the time grid ends beyond float range in tau = gamma t"),
            # the fuzzer's finding: tau = gamma t overflowed with numpy's warning
            (["--tmax", "1e300", "--dt", "1e299", "--gamma", "1e300", "--absolute-time"],
             "the time grid ends beyond float range in tau = gamma t"),
            # another fuzzer finding: t * gamma rounds to zeros, and was "tau grid must be
            # strictly increasing", a grid the user never entered
            (["--tmax", "1e-14", "--dt", "1e-15", "--gamma", "1e-310", "--absolute-time"],
             "--dt times --gamma rounds the steps of tau = gamma t to ties"),
        ],
        ids=[
            "infinite-tmax", "nan-tmax", "nan-dt", "infinite-dt", "tmax-below-dt", "oversized-grid",
            "grid-beyond-float-range", "tau-beyond-float-range", "tau-steps-tied",
        ],
    )
    def test_invalid_time_grid_exits_2(self, capsys, flags, message):
        code, out, err = run(["simulate", "--family", "thermal", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            [
                "simulate", "--family", "thermal", "--nbar-pi", "0.1", "--tmax", "0.5",
                "--dt", "0.25", "-o", str(tmp_path / "missing" / "out.csv"),
            ],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--family", "cat", "--tmax", "1", "--dt", "0.1"])
        assert excinfo.value.code == 2


class TestCrossing:
    def test_fig2_report(self, capsys):
        code, out, _ = run(
            ["crossing", "--r", "1", "--mu", "1", "--nbar-pi", "0.2", "--nbar", "0.4"],
            capsys,
        )
        assert code == 0
        assert "tau_c closed form = 0.7931038912" in out
        assert "tau_c numeric" in out
        closed = float(out.split("tau_c closed form = ")[1].split()[0])
        numeric = float(out.split("tau_c numeric     = ")[1].split()[0])
        assert abs(closed - numeric) <= 1e-9

    def test_no_crossing_still_exits_zero(self, capsys):
        code, out, _ = run(
            ["crossing", "--r", "1", "--mu", "1.5", "--nbar-pi", "0.2", "--nbar", "0.4"],
            capsys,
        )
        assert code == 0
        assert "no crossing: no Mpemba precondition" in out

    def test_equal_charge_amplitude_is_degenerate(self, capsys):
        mu = math.sqrt(0.7 * (math.cosh(2.0) - 1.0))
        code, out, _ = run(
            ["crossing", "--r", "1", f"--mu={mu!r}", "--nbar-pi", "0.2", "--nbar", "0.4"],
            capsys,
        )
        assert code == 0
        assert "degenerate equal initial charge" in out

    def test_tiny_amplitude_exits_zero(self):
        # |mu|^2 underflows; the command reports the late closed-form time
        # instead of dying in the closed form
        env = dict(os.environ, PYTHONPATH=str(Path(ergoflow.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "ergoflow.cli", "crossing", "--mu", "1e-200"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "no crossing: no crossing on scan window" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["crossing", "--mu", "1e200"],
            ["crossing", "--r", "400"],
            ["simulate", "--family", "squeezed", "--r", "400"],
            ["simulate", "--family", "displaced", "--mu", "1e100", "--omega", "1e200"],
            # |mu| itself overflows: each was an OverflowError traceback and exit 1
            ["crossing", "--mu", "1.5e308+1.5e308j"],
            ["simulate", "--family", "displaced", "--mu", "1.5e308+1.5e308j"],
            # the squeezed seed is built before its Fock matrix: was a CutoffError and
            # exit 1, and a RuntimeWarning, then numpy's LinAlgError
            ["verify", "--r", "400"],
            ["verify", "--r", "1.7e308", "--cutoff", "3"],
        ],
    )
    def test_parameters_beyond_float_range_exit_2(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(ergoflow.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "ergoflow.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "float range" in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            # V^2 = (nbar_pi + 1/2)^2 overflows with no squeezing: it blamed r alone
            (
                ["crossing", "--r", "0", "--nbar-pi", "1e200", "--mu", "1", "--nbar", "0"],
                "seed nbar_pi + 1/2 = 1e+200 at r = 0.0 takes the moments beyond float range: V^2 overflows",
            ),
            # the thermal seed fails before it is squeezed: it said only "moments"
            (
                ["simulate", "--family", "squeezed", "--r", "1e-112", "--nbar-pi", "1e200"],
                "nbar_pi exceeds float range: (nbar_pi + 1/2)^2 overflows",
            ),
        ],
        ids=["crossing", "simulate"],
    )
    def test_seed_beyond_float_range_names_nbar_pi(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scan-step", "0"],  # ZeroDivisionError
            ["--tau-max", "inf"],  # OverflowError
            ["--tau-max", "nan"],  # "cannot convert float NaN to integer"
            ["--tau-max=-1"],  # scanned backwards to "no crossing" and exit 0
            ["--scan-step=-0.01"],  # likewise
            ["--tau-max", "0"],  # a window of one sample, at tau = 0
        ],
        ids=["zero-step", "infinite-window", "nan-window", "negative-window", "negative-step", "zero-window"],
    )
    def test_invalid_scan_window_exits_2(self, capsys, flags):
        code, out, err = run(["crossing", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: tau_max and scan_step must be finite and positive\n"

    def test_oversized_scan_window_exits_2(self, capsys):
        # 10^7 steps: refused before any window-sized array is made
        code, out, err = run(["crossing", "--tau-max", "1e5"], capsys)
        assert code == 2
        assert out == ""
        assert "more than 1000000 steps" in err

    def test_longer_window_finds_a_late_crossing(self, capsys):
        # tau_c = 57.31 lies beyond the default window of 50
        code, out, _ = run(["crossing", "--r", "15"], capsys)
        assert code == 0
        assert "no crossing: no crossing on scan window" in out
        code, out, _ = run(["crossing", "--r", "15", "--tau-max", "100"], capsys)
        assert code == 0
        closed = float(out.split("tau_c closed form = ")[1].split()[0])
        numeric = float(out.split("tau_c numeric     = ")[1].split()[0])
        assert closed == pytest.approx(57.3126, abs=1e-4)
        assert abs(numeric - closed) <= 2e-14

    def test_crossing_between_insignificant_samples_is_found(self, capsys):
        # the hot seed's relative gap moves by about 1e-13 per scan step near
        # tau_c = 3.7136, so no sample next to the sign change is significant
        code, out, _ = run(
            ["crossing", "--r", "1", "--mu", "1661985.4665519095", "--nbar-pi", "1e12", "--nbar", "0"],
            capsys,
        )
        assert code == 0
        closed = float(out.split("tau_c closed form = ")[1].split()[0])
        numeric = float(out.split("tau_c numeric     = ")[1].split()[0])
        assert closed == pytest.approx(3.7136, abs=1e-4)
        assert numeric == pytest.approx(closed, rel=1e-4)

    def test_csv_side_output(self, tmp_path, capsys):
        out = tmp_path / "crossing.csv"
        code, _, _ = run(
            ["crossing", "--r", "1", "--mu", "1", "--nbar-pi", "0.2", "--nbar", "0.4",
             "--csv", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == SWEEP_HEADER
        assert len(rows) == 1
        assert rows[0][4] == "true"


class TestSweep:
    def test_bath_axis_monotone(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            [
                "sweep", "--r", "0.8", "1.0", "1.2", "--mu", "1.0", "--nbar-pi", "0.5",
                "--nbar-axis", "0", "2", "12", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == SWEEP_HEADER
        assert len(rows) == 36
        for r_value in ("0.8", "1"):
            taus = [float(row[5]) for row in rows if row[0] == r_value and row[4] == "true"]
            assert taus == sorted(taus, reverse=True)
        # stderr sums the rows up by validity note, with the largest closed-form/oracle gap
        summary, largest = err.rstrip("\n").split("; largest |tau_c_closed - tau_c_numeric|: ")
        assert summary == (
            "sweep rows: crossing 36, no Mpemba precondition 0, degenerate equal initial charge 0, "
            "no crossing on scan window 0"
        )
        assert 0.0 <= float(largest) <= 1e-9

    def test_tied_axes_report_every_crossing(self, tmp_path, capsys):
        # both occupation axes hold one value several times: the monotonicity line
        # this summary replaced read "decreasing along nbar in 0/4" here
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            ["sweep", "--r", "1.2", "--nbar-axis", "0.5", "0.5", "3", "--nbar-pi-axis", "0.3", "0.3", "2",
             "-o", str(out)],
            capsys,
        )  # fmt: skip
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 6 and len({",".join(row) for row in rows}) == 1 and rows[0][4] == "true"
        assert err.startswith("sweep rows: crossing 6, no Mpemba precondition 0,")
        assert float(err.split(": ")[-1]) == abs(float(rows[0][5]) - float(rows[0][6]))

    def test_summary_without_crossings(self, capsys):
        code, _, err = run(["sweep", "--r", "0", "0.2", "--mu", "1.0", "-o", os.devnull], capsys)
        assert code == 0
        assert err == (
            "sweep rows: crossing 0, no Mpemba precondition 2, degenerate equal initial charge 0, "
            "no crossing on scan window 0; largest |tau_c_closed - tau_c_numeric|: none\n"
        )

    def test_empty_axis_is_usage_error(self, capsys):
        code, _, err = run(
            ["sweep", "--r", "1.0", "--nbar-axis", "0", "2", "0"],
            capsys,
        )
        assert code == 2
        assert "at least one point" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--nbar-axis", "0", "2", "inf"], "the nbar axis needs a whole COUNT"),  # OverflowError
            (["--nbar-axis", "0", "2", "nan"], "the nbar axis needs a whole COUNT"),
            (["--nbar-axis", "0", "2", "2.5"], "the nbar axis needs a whole COUNT"),  # ran 2 points
            (["--nbar-pi-axis", "0", "inf", "3"], "the nbar_pi axis needs a finite"),  # RuntimeWarning
            # 1000 x 1001 points: refused before any axis is made
            (
                ["--nbar-axis", "0", "2", "1000", "--nbar-pi-axis", "0", "1", "1001"],
                "the sweep grid holds more than 1000000 points",
            ),
        ],
        ids=["infinite-count", "nan-count", "fractional-count", "infinite-max", "oversized-grid"],
    )
    def test_invalid_axis_exits_2(self, capsys, flags, message):
        code, out, err = run(["sweep", "--r", "1", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_closed_form_columns_match_library(self, tmp_path, capsys):
        # tau_c_closed and the tau = 0 charges are written exactly as the
        # scalar closed forms compute them
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep", "--r", "0.3", "1.1", "--mu", "0.9", "--nbar-pi-axis", "0", "1.5", "4",
                "--nbar-axis", "0", "2", "3", "--omega", "1.3", "--gamma", "0.7", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 24
        for row in rows:
            r, nbar_pi, nbar, mu = (float(cell) for cell in row[:4])
            spec = SystemBathSpec(omega=1.3, gamma=0.7, nbar=nbar)
            closed = crossing_time_closed_form(r, mu, nbar_pi, nbar)
            assert row[5] == ("" if closed is None else format(closed, ".17g"))
            assert row[7] == format(ergotropy(squeezed_thermal(nbar_pi, r), spec), ".17g")
            assert row[8] == format(ergotropy(displaced_thermal(nbar_pi, mu), spec), ".17g")


class TestStdout:
    """Every command, and --help, meets one stdout contract, in main."""

    COMMANDS = [
        ["simulate", "--family", "thermal"],
        ["sweep"],
        ["crossing"],
        ["crossing", "--csv", "-"],
        ["verify", "--states", "2", "--points", "1"],
        ["crossing", "--help"],
    ]
    IDS = ["simulate", "sweep", "crossing", "crossing-csv", "verify", "help"]
    FULL = "error: cannot write output file '-': [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    @pytest.mark.parametrize(
        "error, exit_code, message",
        [
            # a full device: the one message line that -o of a full file gives
            (OSError(errno.ENOSPC, "No space left on device"), 2, FULL),
            # a reader that has gone, as after `| head`, ends the output quietly
            (BrokenPipeError(errno.EPIPE, "Broken pipe"), 0, ""),
        ],
        ids=["full", "closed-pipe"],
    )  # fmt: skip
    def test_unwritable_stdout(self, tmp_path, capsys, monkeypatch, argv, error, exit_code, message):
        # stdout unbuffered, as with PYTHONUNBUFFERED: the first write fails
        with open(tmp_path / "stdout", "w") as scratch:
            monkeypatch.setattr(sys, "stdout", UnwritableStdout(error, scratch.fileno()))
            code, _, err = run(argv, capsys)
            # what stdout still buffers goes to devnull, so the flush at exit cannot fail again
            assert os.path.samestat(os.fstat(scratch.fileno()), os.stat(os.devnull))
        assert (code, err) == (exit_code, message)

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    @pytest.mark.parametrize("target", ["full", "closed-pipe"])
    def test_unwritable_stdout_in_a_fresh_interpreter(self, argv, target):
        # stdout buffered, as without PYTHONUNBUFFERED: the flush at exit must not
        # print "Exception ignored" or turn the exit code into 120
        if target == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(ergoflow.__file__).parent.parent)
        if target == "full":
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ergoflow.cli", *argv],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        finally:
            os.close(stdout)
        if target == "full":
            assert (proc.returncode, proc.stderr) == (2, self.FULL)
        else:
            assert (proc.returncode, proc.stderr) == (0, "")


class TestCsvText:
    # each float cell is format(x, ".17g"): signed zeros, the smallest subnormal,
    # a tiny normal, the largest float and a value with all 17 digits
    VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -1 / 3]

    def test_trajectory_rows(self, tmp_path):
        # two whole blocks and three rows, so each block edge and a short last block are written;
        # the tau column is the time values given, not the trajectory's own
        n = 2 * cli._BLOCK_ROWS + 3
        columns = [np.resize(np.roll(self.VALUES, k), n) for k in range(9)]
        blocks = list(cli._trajectory_lines(columns[0], ergoflow.Trajectory(np.full(n, np.nan), *columns[1:])))
        assert [block.count("\n") for block in blocks] == [cli._BLOCK_ROWS, cli._BLOCK_ROWS, 3]
        rows = [",".join(format(float(column[i]), ".17g") for column in columns) for i in range(n)]
        expected = "\n".join([TRAJECTORY_HEADER, *rows]) + "\n"
        cli._write_csv(str(tmp_path / "trajectory.csv"), TRAJECTORY_HEADER, blocks)
        assert (tmp_path / "trajectory.csv").read_bytes() == expected.encode()

    def test_sweep_rows(self, tmp_path):
        values, rows, expected = self.VALUES, [], [SWEEP_HEADER]
        for k in range(len(values)):
            x = values[k:] + values[:k]
            closed, numeric = (x[4], x[5]) if k % 3 else (None, None if k % 2 else x[5])
            note = "" if k % 3 else "no crossing on scan window"
            rows.append(ScanRow(*x[:4], CrossingReport(note == "", closed, numeric, x[6], x[7], note)))
            cells = [format(v, ".17g") for v in x[:4]] + ["true" if note == "" else "false"]
            cells += ["" if v is None else format(v, ".17g") for v in (closed, numeric)]
            expected.append(",".join(cells + [format(x[6], ".17g"), format(x[7], ".17g"), note]))
        cli._write_csv(str(tmp_path / "sweep.csv"), SWEEP_HEADER, map(cli._sweep_line, rows))
        assert (tmp_path / "sweep.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


class TestCsvMemory:
    # Rows are written as they are formatted, so a command's traced peak, less
    # that of the library call whose rows it writes, does not grow with the grid.
    # Whole-output text traced 1.3 and 12 MB above sample_trajectory at 2,001 and
    # 20,001 rows, and 0.10 and 0.68 MB above mpemba_scan at 300 and 3,000 points;
    # streamed, 0.64 and 0.05 MB, and 0.05 MB at both grids.  A first untraced run
    # keeps one-time allocations out of both peaks.

    def test_simulate_peaks_with_its_trajectory(self, tmp_path, capsys):
        argv = [
            "simulate", "--family", "squeezed", "--nbar-pi", "0.2", "--nbar", "0.4", "--r", "1",
            "--dt", "0.01", "-o", str(tmp_path / "trajectory.csv"),
        ]  # fmt: skip
        assert cli.main(argv + ["--tmax", "1"]) == 0
        for rows in (2001, 20001):
            code, peak = traced_peak(lambda: cli.main(argv + ["--tmax", str((rows - 1) // 100)]))
            assert code == 0
            state, spec, tau = squeezed_thermal(0.2, 1.0), SystemBathSpec(nbar=0.4), np.arange(rows) * 0.01
            _, library_peak = traced_peak(lambda: sample_trajectory(state, spec, tau))
            assert peak - library_peak < 2**20, rows
        capsys.readouterr()

    def test_sweep_peaks_with_its_scan(self, tmp_path, capsys):
        argv = ["sweep", "--r", "1", "--mu", "1", "--nbar-pi", "0.5", "-o", str(tmp_path / "sweep.csv")]
        assert cli.main(argv + ["--nbar-axis", "0", "2", "3"]) == 0
        for points in (300, 3000):
            code, peak = traced_peak(lambda: cli.main(argv + ["--nbar-axis", "0", "2", str(points)]))
            assert code == 0
            grid = SweepGrid((1.0,), (0.5,), tuple(float(v) for v in np.linspace(0.0, 2.0, points)), 1.0)
            _, library_peak = traced_peak(lambda: mpemba_scan(grid, SystemBathSpec()))
            assert peak - library_peak < 2**18, points
        capsys.readouterr()


class TestConfigFile:
    def test_round_trip_modulo_order(self):
        text = "family = squeezed\nnbar-pi = 0.2\n# comment\nr = 1.0\n"
        values = parse_config_text(text)
        assert values == {"family": "squeezed", "nbar-pi": "0.2", "r": "1.0"}
        redumped = parse_config_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert redumped == values

    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = squeezed\nnbar-pi = 0.2\nnbar = 0.4\nr = 1.0\ntmax = 1\ndt = 0.5\n")
        code, out, _ = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 4  # header + 3 samples
        assert float(rows[1].split(",")[3]) == pytest.approx(1.9335369837585419, rel=1e-14)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = thermal\nnbar-pi = 0.2\ntmax = 1\ndt = 0.5\n")
        code, out, _ = run(["simulate", "--config", str(cfg), "--nbar-pi", "1.5"], capsys)
        assert code == 0
        # thermal seed at 1.5 has passive occupation 2.0
        assert float(out.strip().split("\n")[1].split(",")[7]) == pytest.approx(2.0, rel=1e-14)

    def test_boolean_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = thermal\nnbar-pi = 0.1\ntmax = 1\ndt = 0.5\nabsolute-time = true\ngamma = 2\n")
        code, out, _ = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        assert float(out.strip().split("\n")[-1].split(",")[0]) == pytest.approx(1.0)

    def test_false_switch_and_equals_form(self, tmp_path, capsys):
        # "key = false" leaves the switch off; --config=PATH reads the file as --config PATH does
        cfg = tmp_path / "run.cfg"
        base = "family = squeezed\nr = 1.0\nnbar-pi = 0.2\ntmax = 1\ndt = 0.5\ngamma = 2\n"
        cfg.write_text(base)
        _, off, _ = run(["simulate", "--config", str(cfg)], capsys)
        cfg.write_text(base + "absolute-time = true\n")
        _, on, _ = run(["simulate", "--config", str(cfg)], capsys)
        cfg.write_text(base + "absolute-time = false\n")
        code, out, _ = run(["simulate", f"--config={cfg}"], capsys)
        assert code == 0
        assert out == off != on

    @pytest.mark.parametrize("spelling", ["--conf", "--c", "--conf="])
    def test_abbreviated_config_is_read(self, tmp_path, capsys, spelling):
        # argparse takes any unambiguous prefix of --config; each one reads the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = squeezed\nr = 1.0\nnbar-pi = 0.2\n")
        flags = ["--tmax", "0.02", "--dt", "0.01"]
        _, full, _ = run(["simulate", "--config", str(cfg), *flags], capsys)
        path = [spelling + str(cfg)] if spelling.endswith("=") else [spelling, str(cfg)]
        code, out, _ = run(["simulate", *path, *flags], capsys)
        assert code == 0
        assert out == full

    def test_ambiguous_config_prefix_is_usage_error(self, tmp_path, capsys):
        # in verify, --c is a prefix of --config and of --cutoff
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 2\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--c", str(cfg)])
        assert excinfo.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_last_config_is_read(self, tmp_path, capsys):
        # argparse keeps the last --config, as it keeps the last of any flag
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("family = thermal\nnbar-pi = 0.2\ntmax = 1\ndt = 0.5\n")
        last.write_text("family = thermal\nnbar-pi = 1.5\ntmax = 1\ndt = 0.5\n")
        code, out, _ = run(["simulate", "--config", str(first), "--config", str(last)], capsys)
        assert code == 0
        # thermal seed at 1.5 has passive occupation 2.0
        assert float(out.strip().split("\n")[1].split(",")[7]) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("argv", [["--config"], ["--config", "--tmax", "1"]])
    def test_config_without_path_is_usage_error(self, capsys, argv):
        # a flag in place of the path is no path: the subcommand's parser refuses it
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--family", "thermal", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and "cannot read config file" not in err

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = thermal\nabsolute-time\n")
        code, out, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "config line 2 is not 'key = value'" in err

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-flag = 3\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--config", str(cfg), "--family", "thermal"])
        assert excinfo.value.code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run(["simulate", "--config", "/nonexistent.cfg", "--family", "thermal"], capsys)
        assert code == 2
        assert "cannot read config file" in err


def _warmer(oracle):
    """oracle(first, spec, ...) run against a bath 0.1 warmer than the one it is given."""

    def wrong(first, spec, *args, **kwargs):
        return oracle(first, dataclasses.replace(spec, nbar=spec.nbar + 0.1), *args, **kwargs)

    return wrong


# for each verify row, the oracle to replace and a wrong version of it made from the real one;
# each is a fault that the row catches
WRONG_ORACLES = {
    # the reduced suite keeps gamma = 1, where only the randomized batch spec sees gamma dropped
    "rk4 vs analytic moments": (
        lyapunov, "rk4_moment_path", lambda real: functools.partial(literal_moment_path, omit_gamma_in_noise=True)
    ),
    "rk4 convergence order (|order - 4|)": (lyapunov, "convergence_order", lambda real: lambda *a: real(*a) - 0.5),
    "rk4 stationary thermal state": (lyapunov, "rk4_moment_path", _warmer),
    "fock vs gaussian ergotropy at tau=0": (
        fock, "fock_gaussian_state", lambda real: lambda nbar_pi, *a, **k: real(nbar_pi + 0.01, *a, **k)
    ),
    "fock vs gaussian ergotropy on trajectory": (fock, "_fock_records", _warmer),
    "fock thermal-state stationarity": (fock, "fock_lindblad_path", _warmer),
    "fock displaced-state mean decay": (
        fock, "fock_moments", lambda real: lambda rho: (1.001 * real(rho)[0], *real(rho)[1:])
    ),
    "quadrature norm/energy/entropy": (
        quadrature, "norm_energy_entropy", lambda real: lambda state, omega: real(state, 1.001 * omega)
    ),
}


class TestVerify:
    FAST = [
        "verify", "--states", "3", "--points", "2", "--cutoff", "40",
        "--rk4-dt", "2e-3", "--fock-dt", "2e-3", "--r", "0.8",
    ]

    def test_default_suite_passes(self, capsys):
        code, out, _ = run(self.FAST, capsys)
        assert code == 0
        assert "verification passed" in out
        assert out.count("PASS") >= 7
        assert "FAIL" not in out

    def test_energy_rows_are_in_units_of_omega(self, capsys):
        # omega / gamma = 1 is the default run's dimensionless problem; the Fock energy
        # rows and the quadrature energy were absolute, and FAILed at 7.2e94, 7.9e94, 1.1e89
        code, out, _ = run(self.FAST + ["--gamma", "1e100", "--omega", "1e100"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "verification passed" in out

    def test_broken_noise_convention_fails(self, capsys, monkeypatch):
        # verify must catch an RK4 oracle that drops gamma from the noise N = gamma f I
        broken = functools.partial(literal_moment_path, omit_gamma_in_noise=True)
        monkeypatch.setattr(lyapunov, "rk4_moment_path", broken)
        code, out, _ = run(self.FAST, capsys)
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("row", [name for name, _, _ in cli._CHECKS])
    def test_each_row_catches_a_wrong_oracle(self, capsys, monkeypatch, row):
        module, name, make_wrong = WRONG_ORACLES[row]
        monkeypatch.setattr(module, name, make_wrong(getattr(module, name)))
        code, out, _ = run(self.FAST, capsys)
        assert code == 1
        [line] = [line for line in out.splitlines() if line.startswith(row)]
        assert line.endswith("FAIL")
        assert "verification FAILED" in out

    def test_oracle_error_inside_a_check_is_a_fail_row(self, capsys):
        # the Fock step is stable at omega = 35 but too coarse: a trajectory record
        # loses positivity, which is a breach of that row, not a usage error
        code, out, err = run(self.FAST + ["--omega", "35"], capsys)
        assert code == 1
        rows = {name: line for line in out.splitlines() for name, _, _ in cli._CHECKS if line.startswith(name)}
        assert len(rows) == len(cli._CHECKS)
        assert rows["fock vs gaussian ergotropy on trajectory"].endswith("FAIL")
        assert rows["quadrature norm/energy/entropy"].endswith("PASS")
        assert "verification FAILED" in out
        assert "negativity" in err

    def test_trajectory_memory_does_not_grow_with_points(self, capsys):
        # each Fock record is reduced as it arrives, so 50 points peak where 5 do
        # (1.70 and 1.72 MB traced); a verify that keeps its records peaks 45
        # cutoff-80 matrices higher (2.2 and 6.9 MB)
        args = self.FAST[:-2] + ["--states", "1", "--cutoff", "80", "--r", "0.8"]
        # an untraced run first, so one-time allocations count in neither peak
        assert cli.main(args) == 0
        peaks = []
        for points in ("5", "50"):
            tracemalloc.start()
            try:
                assert cli.main(args + ["--points", points]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        matrix_bytes = 80 * 80 * 16
        assert peaks[1] <= peaks[0] + 5 * matrix_bytes

    @pytest.mark.parametrize("flag", ["--states", "--points"])
    def test_empty_check_is_usage_error(self, capsys, flag):
        args = list(self.FAST)
        args[args.index(flag) + 1] = "0"
        code, _, err = run(args, capsys)
        assert code == 2
        assert "at least 1" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--states", "10001"),  # 20000 states took 34 s
            ("--states", str(10**12)),  # would ask for terabytes
            ("--points", "1001"),
            ("--points", str(10**12)),
            ("--cutoff", "201"),
            ("--cutoff", str(10**5)),  # asked for a dense 160 GB matrix
        ],
    )
    def test_oversized_check_is_usage_error(self, capsys, monkeypatch, flag, value):
        def refuse(*args, **kwargs):
            pytest.fail(f"verify ran with {flag} {value}")

        # the state draws, the Fock seeds and the Fock trajectory are where the counts are spent
        monkeypatch.setattr(cli, "random_state", refuse)
        monkeypatch.setattr(fock, "fock_gaussian_state", refuse)
        monkeypatch.setattr(fock, "fock_lindblad_path", refuse)
        args = list(self.FAST)
        args[args.index(flag) + 1] = value
        code, _, err = run(args, capsys)
        assert code == 2
        assert f"{flag} must be at least 1 and at most" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mu", "nan", "must be finite"),  # was exit 1 with a nan FAIL row
            ("--mu", "inf", "must be finite"),  # was a numpy RuntimeWarning
            ("--cutoff", "0", "cutoff"),  # was numpy's zero-size message
            ("--rk4-dt", "1e-12", "--rk4-dt"),  # was about 5e12 RK4 steps
            ("--fock-dt", "1e-12", "--fock-dt"),
            ("--rk4-dt", "nan", "--rk4-dt"),
        ],
    )
    def test_invalid_input_is_usage_error(self, capsys, monkeypatch, flag, value, message):
        real = lyapunov._rk4_path

        def bounded(rhs, y0, dt, record_times, *frame):
            # fail at once instead of hanging on a step count beyond 10^6
            if max(record_times) / dt > 1e6:
                pytest.fail(f"verify integrated {max(record_times) / dt:.0e} steps")
            return real(rhs, y0, dt, record_times, *frame)

        monkeypatch.setattr(lyapunov, "_rk4_path", bounded)
        monkeypatch.setattr(fock, "_rk4_path", bounded)
        args = list(self.FAST)
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
        code, _, err = run(args, capsys)
        assert code == 2
        assert message in err

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        # was exit 1: a FAIL row with deviation nan, from numpy's own seed message
        def refuse(*args, **kwargs):
            pytest.fail("verify ran a row with a negative --seed")

        monkeypatch.setattr(fock, "fock_gaussian_state", refuse)
        code, out, err = run(self.FAST + ["--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be nonnegative\n"

    def test_inadequate_cutoff_is_loud(self, capsys):
        code, _, err = run(self.FAST[:-2] + ["--r", "1.0", "--cutoff", "10"], capsys)
        assert code == 1
        assert "increase the cutoff" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--nbar", "1e10", "--r", "0.1"],  # the bath's thermal seed; was exit 2, a trace ValueError
            ["--nbar-pi", "1e10"],  # the squeezed and displaced seeds
        ],
    )
    def test_thin_thermal_tail_is_an_inadequate_cutoff(self, capsys, extra):
        # 1e10 quanta spread over far more than 40 levels: the top levels hold
        # little, but all but 4e-9 of the population lies beyond the cutoff
        code, out, err = run(self.FAST + extra, capsys)
        assert code == 1
        assert "increase the cutoff" in err
        assert out == ""

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--omega", "1e6"], "--omega"),  # was an ArithmeticError traceback, exit 1
            (["--gamma", "1e-300"], "--gamma"),  # the same
            (["--omega", "100"], "--omega"),  # was exit 2 on a non-finite Fock record, after four rows
            (["--rk4-dt", "2"], "--rk4-dt"),
            (["--fock-dt", "0.2"], "--fock-dt"),
        ],
    )
    def test_step_outside_rk4_stability_is_usage_error(self, capsys, monkeypatch, extra, flag):
        def refuse(*args, **kwargs):
            pytest.fail("verify integrated an unstable step")

        monkeypatch.setattr(lyapunov, "_rk4_path", refuse)
        monkeypatch.setattr(fock, "_rk4_path", refuse)
        code, out, err = run(self.FAST + extra, capsys)
        assert code == 2
        assert flag in err and "stability region" in err
        assert out == ""


# Makes every scipy import fail in the interpreter that runs it.
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
"""


class TestLeanStartUp:
    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        commands = [
            ["simulate", "--family", "squeezed", "--r", "0.5", "--output", str(tmp_path / "sim.csv")],
            ["crossing"],
            TestVerify.FAST,
            TestVerify.FAST[:-2] + ["--r", "1.0", "--cutoff", "10"],
        ]
        script = BLOCK_SCIPY + (
            "try:\n"
            "    import scipy\n"
            "except ImportError:\n"
            "    print('scipy blocked')\n"
            "import ergoflow.cli\n"
            "print('fock loaded', 'ergoflow.oracles.fock' in sys.modules)\n"
            f"for argv in {commands!r}:\n"
            "    print('exit', ergoflow.cli.main(argv))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ergoflow.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "scipy blocked" in lines
        # importing the CLI loads no oracle; only verify does
        assert "fock loaded False" in lines
        assert [line for line in lines if line.startswith("exit ")] == ["exit 0", "exit 0", "exit 0", "exit 1"]
        assert "increase the cutoff" in proc.stderr
        assert "Traceback" not in proc.stderr
