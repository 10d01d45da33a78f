"""Command-line interface: formats, headers, config merging, exit codes."""

import argparse
import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import heunqes
from heunqes import cli, errors
from heunqes.cli import CONFIG_ENV_VAR, fmt12, load_config, main


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    """CLI runs must not pick up a config file from the ambient environment."""
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


# n = 2, l = -1 at a tiny eta: three states with omega 3e-16..7e-16 and alpha about 1e9
LARGE_ALPHA_CELL = ("--n", "2", "--l", "-1", "--mass", "0.01", "--quad", "10", "--eta", "1e-15")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(result, message=None):
    """(code, out, err) of a refused input: exit 2, no stdout, one 'error: ' line on stderr."""
    code, out, err = result
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if message is not None:
        assert err == f"error: {message}\n"


def split_output(out):
    lines = out.rstrip("\n").split("\n")
    header = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    return header, data


# at l = -5, omega is about 1.8e-155, so 2 m omega^2 underflows to 0 in the energy's eta^2 term
ENERGY_UNDERFLOW = ("--mass", "2.9310929663982757e-40", "--quad", "6.773586822100118e-98", "--eta", "0")


def assert_no_child_processes():
    """Every process a command started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cpus(monkeypatch):
    """A CPU count of 4, so that --jobs 2 and 3 fork on any host despite the CPU cap."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def verify_tokens(line):
    """'PASS n=1 l=1 ... ratio=3.8' -> ('PASS', {'n': '1', ..., 'ratio': '3.8'})."""
    status, *rest = line.split()
    return status, dict(token.split("=", 1) for token in rest)


class TestFmt12:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.0, "0"),
            (-0.0, "0"),
            (1, "1"),
            (1.0, "1"),
            (-3.75, "-3.75"),
            (1.5e-5, "1.5e-05"),
            (123456789.0, "1.23456789e+08"),
            (1e6, "1e+06"),
            (999999.999999, "999999.999999"),
            (1.7478477657396183, "1.74784776574"),
            (-2.5e-13, "-2.5e-13"),
        ],
    )
    def test_cases(self, value, expected):
        assert fmt12(value) == expected


class TestSolve:
    def test_reference_row_csv(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--format", "csv")
        assert code == 0 and err == ""
        header, data = split_output(out)
        assert header[0] == "# heunqes solve"
        assert data[0] == "n,l,omega,energy,zeta_sq,node_count,residual"
        fields = data[1].split(",")
        assert fields[0] == "1" and fields[1] == "1"
        assert fields[2] == fmt12(oracles.FROZEN_OMEGA)
        assert float(fields[3]) == pytest.approx(oracles.FROZEN_ENERGY, rel=1e-10)
        assert float(fields[4]) == pytest.approx(oracles.FROZEN_ZETA_SQ, rel=1e-10)
        assert fields[5] == "0"
        assert float(fields[6]) < 1e-12

    def test_default_format_is_table(self, capsys):
        _, out, _ = run_cli(capsys, "solve")
        _, data = split_output(out)
        assert "," not in data[0]
        assert data[0].split() == ["n", "l", "omega", "energy", "zeta_sq", "node_count", "residual"]
        assert data[1].split()[2] == fmt12(oracles.FROZEN_OMEGA)

    def test_table_and_csv_agree(self, capsys):
        _, table_out, _ = run_cli(capsys, "solve")
        _, csv_out, _ = run_cli(capsys, "solve", "--format", "csv")
        table_row = split_output(table_out)[1][1].split()
        csv_row = split_output(csv_out)[1][1].split(",")
        assert table_row == csv_row

    def test_pure_coulomb_unit_frequency(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--eta", "0", "--quad", repr(oracles.SQRT6), "--format", "csv"
        )
        assert code == 0
        fields = split_output(out)[1][1].split(",")
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-10)
        assert float(fields[3]) == pytest.approx(3.75, rel=1e-12)
        assert float(fields[4]) == pytest.approx(6.0, rel=1e-12)

    def test_header_echoes_parameters(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--mass", "2", "--lambda", "1.5")
        header, _ = split_output(out)
        assert "# mass = 2.0" in header
        assert "# lambda = 1.5" in header
        assert "# quad = 1.0" in header
        assert "# kz = 0.0" in header
        assert "# l = 1" in header and "# n = 1" in header

    def test_zero_l_rejected(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--l", "0")
        assert code == 2 and out == ""
        assert "l must be nonzero" in err

    def test_zero_coupling_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--quad", "0")
        assert code == 2
        assert "M*lambda" in err

    def test_bad_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "0")
        assert code == 2 and "n" in err

    def test_unknown_flag_rejected(self, capsys):
        assert_one_error_line(run_cli(capsys, "solve", "--n-max", "2"), "unrecognized arguments: --n-max 2")

    def test_missing_command_rejected(self, capsys):
        assert_one_error_line(run_cli(capsys), "the following arguments are required: command")


class TestNegativeValues:
    """A value that starts with '-' but is not a plain decimal reads as in the '--flag=value' form."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n-max", "2", "--l-list", "-1,2"),
            ("solve", "--eta", "-1e-3"),
            ("solve", "--lambda", "-2e0"),
        ],
        ids=["verify-l-list", "solve-eta", "solve-lambda"],
    )
    def test_same_as_equals_form(self, capsys, argv):
        *head, flag, value = argv
        spaced = run_cli(capsys, *argv)
        assert spaced == run_cli(capsys, *head, f"{flag}={value}")
        assert spaced[0] == 0 and spaced[2] == ""


@pytest.mark.usefixtures("four_cpus")
class TestScan:
    def test_rows_and_status(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n-max", "2", "--l-list", "1")
        assert code == 0 and err == ""
        header, data = split_output(out)
        assert header[0] == "# heunqes scan"
        assert data[0] == "n,l,root_index,omega,energy,zeta_sq,node_count,residual,status"
        rows = [line.split(",") for line in data[1:]]
        assert len(rows) >= 2
        assert {row[0] for row in rows} == {"1", "2"}
        for row in rows:
            assert row[-1] == "ok"
            assert float(row[7]) < 1e-10

    def test_rows_sorted_and_multi_root_cells_ascending(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--n-max", "3", "--l-list", "1")
        rows = [line.split(",") for line in split_output(out)[1][1:]]
        keys = [(int(r[0]), int(r[1]), float(r[3])) for r in rows]
        assert keys == sorted(keys)
        n3 = [r for r in rows if r[0] == "3"]
        assert [r[2] for r in n3] == [str(i) for i in range(len(n3))]

    def test_l_list_deduplicated_and_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--l-list", "2,1,1,-2")
        header, data = split_output(out)
        assert "# l-list = -2,1,2" in header
        assert [row.split(",")[1] for row in data[1:]] == ["-2", "1", "2"]

    def test_deterministic_across_runs_and_jobs(self, capsys):
        # 4, 3 and 6 cells with ok, error:OverflowGuard and no_root rows; --jobs 3 splits
        # them unevenly and --jobs 50 exceeds the cell count
        ranges = [
            ("--n-max", "2", "--l-list", "1,2"),
            ("--n-max", "3", "--eta", "1e-300"),
            ("--n-max", "3", "--mass", "0.01", "--quad", "10", "--eta", "1e-15", "--l-list", "1,-1"),
        ]
        statuses = set()
        for cells in ranges:
            first = run_cli(capsys, "scan", *cells, "--jobs", "1")
            assert first[0] == 0 and first[2] == ""
            for jobs in ("1", "2", "3", "50"):
                assert run_cli(capsys, "scan", *cells, "--jobs", jobs) == first
            statuses |= {row.split(",")[-1] for row in split_output(first[1])[1][1:]}
        assert statuses == {"ok", "error:OverflowGuard", "no_root"}
        assert_no_child_processes()

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_energy_underflow_cells_are_error_rows(self, capsys, jobs):
        code, out, err = run_cli(capsys, "scan", *ENERGY_UNDERFLOW, "--n-max", "2", "--l-list=-5", "--jobs", jobs)
        assert code == 0 and err == ""
        assert split_output(out)[1][1:] == ["1,-5,,,,,,,error:OverflowGuard", "2,-5,,,,,,,error:OverflowGuard"]

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_cell_error_raised_as_serially(self, capsys, monkeypatch, jobs):
        # cells run (1,1), (1,2), (2,1), (2,2): under --jobs 2 the child fails at (1,2) and
        # this process at (2,1), and the earlier cell's error is the one reported
        solve = cli._scan_cell

        def failing(problem):
            n, l = problem.n, problem.physical.l
            if (n, l) in {(1, 2), (2, 1)}:
                raise ValueError(f"injected at n = {n}, l = {l}")
            return solve(problem)

        monkeypatch.setattr(cli, "_scan_cell", failing)
        code, out, err = run_cli(capsys, "scan", "--n-max", "2", "--l-list", "1,2", "--jobs", jobs)
        assert (code, out, err) == (2, "", "error: injected at n = 1, l = 2\n")
        assert_no_child_processes()

    def test_child_exit_without_rows_is_one_error_line(self, capsys, monkeypatch):
        solve, parent = cli._scan_cell, os.getpid()

        def dying(problem):
            if os.getpid() != parent:
                os._exit(3)
            return solve(problem)

        monkeypatch.setattr(cli, "_scan_cell", dying)
        code, out, err = run_cli(capsys, "scan", "--n-max", "2", "--l-list", "1,2", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: worker") and "exited with status 3" in err
        assert err.count("\n") == 1
        assert_no_child_processes()

    def test_failed_fork_is_one_error_line(self, capsys, monkeypatch):
        # the second fork fails: the first child is reaped and the OSError is exit 1
        fork, forks = os.fork, []

        def failing_fork():
            if forks:
                raise OSError(11, "Resource temporarily unavailable")
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        code, out, err = run_cli(capsys, "scan", "--n-max", "2", "--l-list", "1,2", "--jobs", "3")
        assert (code, out, err) == (1, "", "error: [Errno 11] Resource temporarily unavailable\n")
        assert_no_child_processes()

    def test_interrupt_reaps_children_blocked_on_their_pipes(self, capsys, monkeypatch):
        # each child writes more than a pipe holds and blocks until this process closes
        # its read ends; the alarm turns a deadlock into a failure
        parent = os.getpid()

        def cell(problem):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return [("x" * 1_000_000,)]

        def deadlock(signum, frame):
            raise TimeoutError("scan did not reap its children")

        monkeypatch.setattr(cli, "_scan_cell", cell)
        previous = signal.signal(signal.SIGALRM, deadlock)
        signal.alarm(30)
        try:
            with pytest.raises(KeyboardInterrupt):
                main(["scan", "--n-max", "2", "--l-list", "1,2", "--jobs", "3"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_processes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "args,message",
        [
            (("--quad", "0"), "M*lambda must be nonzero for the quantized problem"),
            (("--lambda", "0"), "M*lambda must be nonzero for the quantized problem"),
            (("--mass", "-1"), "mass must be > 0, got -1.0"),
        ],
        ids=["quad", "lambda", "mass"],
    )
    def test_configuration_error_exits_before_any_cell(self, capsys, args, message, jobs):
        code, out, err = run_cli(capsys, "scan", "--n-max", "2", "--l-list", "1,2", *args, "--jobs", jobs)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert_no_child_processes()

    def test_fan_out_capped_at_cpu_count(self, capsys, monkeypatch):
        # 6 cells at --jobs 50 on 2 CPUs fork one child, not one per cell
        fork, forks = os.fork, []

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", counting_fork)
        code, out, err = run_cli(capsys, "scan", "--n-max", "3", "--l-list", "1,2", "--jobs", "50")
        assert (code, err, len(forks)) == (0, "", 1)
        assert run_cli(capsys, "scan", "--n-max", "3", "--l-list", "1,2", "--jobs", "1") == (0, out, "")
        assert_no_child_processes()

    def test_zero_in_l_list_rejected(self, capsys):
        # from_params refuses l = 0 while every cell's problem is built, before any cell runs
        code, out, err = run_cli(capsys, "scan", "--l-list", "1,0")
        assert code == 2 and out == ""
        assert err.startswith("error: l must be nonzero") and err.count("\n") == 1

    def test_bad_n_max_rejected(self, capsys):
        assert run_cli(capsys, "scan", "--n-max", "0")[0] == 2
        assert run_cli(capsys, "scan", "--n-max", "999")[0] == 2

    def test_tiny_eta_cells_are_error_rows(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n-max", "3", "--eta", "1e-300", "--jobs", "1")
        assert code == 0 and err == ""
        rows = split_output(out)[1][1:]
        assert rows[-2:] == ["2,1,,,,,,,error:OverflowGuard", "3,1,,,,,,,error:OverflowGuard"]


class TestWavefunction:
    def test_profile_shape(self, capsys):
        code, out, err = run_cli(capsys, "wavefunction", "--samples", "256")
        assert code == 0 and err == ""
        header, data = split_output(out)
        assert data[0] == "rho,R"
        rows = [line.split(",") for line in data[1:]]
        assert len(rows) == 256
        assert rows[0] == ["0", "0"]
        values = [float(r[1]) for r in rows]
        tail = [abs(v) for v in values[-25:]]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_node_count_matches_sign_changes(self, capsys):
        _, out, _ = run_cli(capsys, "wavefunction", "--n", "2", "--samples", "2048", "--format", "csv")
        rows = [line.split(",") for line in split_output(out)[1][1:]]
        values = [float(r[1]) for r in rows[1:]]  # skip the rho = 0 boundary zero
        _, solve_out, _ = run_cli(capsys, "solve", "--n", "2", "--format", "csv")
        node_count = int(split_output(solve_out)[1][1].split(",")[5])
        assert oracles.sign_changes(values) == node_count

    def test_rho_max_honored(self, capsys):
        _, out, _ = run_cli(capsys, "wavefunction", "--samples", "8", "--rho-max", "4.0")
        header, data = split_output(out)
        assert "# rho-max = 4.0" in header
        assert data[-1].split(",")[0] == "4"

    def test_sample_grid_is_uniform(self, capsys):
        _, out, _ = run_cli(capsys, "wavefunction", "--samples", "5", "--rho-max", "2.0")
        rhos = [float(line.split(",")[0]) for line in split_output(out)[1][1:]]
        assert rhos == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-15)

    def test_too_few_samples_rejected(self, capsys):
        assert run_cli(capsys, "wavefunction", "--samples", "1")[0] == 2

    def test_bad_rho_max_rejected(self, capsys):
        assert run_cli(capsys, "wavefunction", "--rho-max", "-1")[0] == 2

    def test_underflowed_envelope_gives_zero_rows(self, capsys):
        # xi^3 H(xi) overflows where exp(-xi^2/2) is already 0: the profile is 0 there
        code, out, err = run_cli(capsys, "wavefunction", "--rho-max", "1e150", "--n", "3")
        assert (code, err) == (0, "")
        values = [float(line.split(",")[1]) for line in split_output(out)[1][1:]]
        assert len(values) == 512 and values[1:] == [0.0] * 511

    def test_large_alpha_box_is_finite(self, capsys):
        # alpha is about 1e9 for these states, where a box of the form sqrt(x^2 + a^2) - a rounds to 0
        code, out, err = run_cli(capsys, "wavefunction", *LARGE_ALPHA_CELL)
        assert (code, err) == (0, "")
        header, data = split_output(out)
        (rho_max,) = [float(line.split(" = ")[1]) for line in header if line.startswith("# rho-max = ")]
        assert 0.0 < rho_max < math.inf
        samples = [float(value) for line in data[1:] for value in line.split(",")]
        assert len(samples) == 2 * 512 and all(math.isfinite(v) for v in samples)

    def test_samples_are_written_as_they_are_rendered(self, tmp_path, monkeypatch):
        # traced memory grows 0.72 MB past what it holds once the sample arrays are made when they
        # are written as rendered, and 1.75 MB when _render lists every line before the first write
        target, grown = tmp_path / "profile.csv", []
        sample = heunqes.wavefunction.RadialWavefunction.sample

        def sampled(self, *args):
            arrays = sample(self, *args)
            grown.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return arrays

        monkeypatch.setattr(heunqes.wavefunction.RadialWavefunction, "sample", sampled)
        tracemalloc.start()
        try:
            code = main(["wavefunction", "--samples", "20000", "--output", str(target)])
            growth = tracemalloc.get_traced_memory()[1] - grown[0]
        finally:
            tracemalloc.stop()
        assert code == 0 and growth < 1.2e6
        data = split_output(target.read_text())[1]
        rhos = [float(line.split(",")[0]) for line in data[1:]]
        assert data[0] == "rho,R" and len(rhos) == 20000
        assert all(a < b for a, b in zip(rhos, rhos[1:]))  # no line lost or repeated between writes

    def test_non_finite_sample_is_one_error_line(self, capsys, monkeypatch):
        # normalize takes evaluate_R itself, so only the samples see the injected inf
        evaluate = lambda self, rho: np.where(rho < 1.0, 0.0, math.inf)
        monkeypatch.setattr(heunqes.wavefunction.RadialWavefunction, "evaluate", evaluate)
        code, out, err = run_cli(capsys, "wavefunction", "--samples", "3", "--rho-max", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: radial profile overflows at rho = 1 ") and err.count("\n") == 1


class TestVerify:
    def test_single_state_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0 and err == ""
        header, data = split_output(out)
        assert "# grid = 4000" in header
        assert "# perturb-omega = 1.0" in header
        assert len(data) == 1
        status, tokens = verify_tokens(data[0])
        assert status == "PASS"
        assert tokens["n"] == "1" and tokens["l"] == "1" and tokens["root"] == "0"
        assert float(tokens["deviation"]) < 1e-3
        assert float(tokens["refined"]) < float(tokens["deviation"])
        assert out.rstrip("\n").endswith("# summary: 1 passed, 0 failed")

    def test_perturbed_frequency_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb-omega", "1.05")
        assert code == 1
        status, tokens = verify_tokens(split_output(out)[1][0])
        assert status == "FAIL"
        assert float(tokens["deviation"]) > 1e-2
        assert "# summary: 0 passed, 1 failed" in out

    def test_richardson_ratio_reported(self, capsys):
        # one --grid value is the coarse grid; the refined grid is twice it
        code, out, _ = run_cli(capsys, "verify", "--grid", "2000")
        assert code == 0
        header, data = split_output(out)
        assert "# grid = 2000" in header
        _, tokens = verify_tokens(data[0])
        assert 3.0 < float(tokens["ratio"]) < 5.0

    def test_range_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "1", "--l-list", "1,2", "--grid", "1000"
        )
        assert code == 0
        data = split_output(out)[1]
        assert len(data) == 2
        assert [verify_tokens(line)[1]["l"] for line in data] == ["1", "2"]
        assert "# summary: 2 passed, 0 failed" in out

    # the last --grid wins, so a too-coarse final value is rejected either way
    @pytest.mark.parametrize(
        "grids", [("--grid", "100", "--grid", "50"), ("--grid", "50")]
    )
    def test_bad_grids_rejected(self, capsys, grids):
        assert run_cli(capsys, "verify", *grids)[0] == 2

    @pytest.mark.parametrize("args", [("--rho-max", "5"), ("--format", "csv")])
    def test_removed_inputs_rejected(self, capsys, args):
        # the box is always the state's own, and verify prints no table
        assert_one_error_line(run_cli(capsys, "verify", *args), f"unrecognized arguments: {' '.join(args)}")

    @pytest.mark.parametrize("factor", ["-1", "0"])
    def test_non_positive_perturbation_rejected_before_any_cell(self, capsys, monkeypatch, factor):
        def never(problem):
            raise AssertionError("a cell was solved")

        monkeypatch.setattr(cli, "solve", never)
        assert_one_error_line(
            run_cli(capsys, "verify", "--perturb-omega", factor),
            f"perturb_omega must be positive and finite, got {float(factor)!r}",
        )

    def test_last_grid_wins_and_file_rho_max_ignored(self, capsys, tmp_path):
        path = tmp_path / "box.cfg"
        path.write_text("rho-max = 5\n")
        expected = run_cli(capsys, "verify", "--grid", "500")
        assert expected[0] == 0
        assert run_cli(capsys, "verify", "--grid", "100", "--grid", "500") == expected
        assert run_cli(capsys, "verify", "--config", str(path), "--grid", "500") == expected

    @pytest.mark.parametrize(
        "args, config",
        [
            (("--n", "3", "--l-list", "1"), None),
            (("--l", "2", "--n-max", "3"), None),
            (("--n", "3"), "l-list = 1\n"),
        ],
        ids=["n-with-l-list", "l-with-n-max", "n-with-file-l-list"],
    )
    def test_cell_and_range_do_not_mix(self, capsys, tmp_path, args, config):
        if config is not None:
            path = tmp_path / "range.cfg"
            path.write_text(config)
            args += ("--config", str(path))
        code, out, err = run_cli(capsys, "verify", *args)
        assert (code, out) == (2, "")
        assert err == "error: verify takes one cell (--n/--l) or a range (--n-max/--l-list), not both\n"

    @pytest.mark.parametrize(
        "n_max, message",
        [("0", "n-max must be >= 1"), ("-3", "n-max must be >= 1"), ("51", "n-max must be <= 50")],
    )
    def test_bad_n_max_rejected(self, capsys, n_max, message):
        # rejected before any cell is verified, with the same messages scan gives
        for command in ("scan", "verify"):
            code, out, err = run_cli(capsys, command, "--n-max", n_max)
            assert (code, out) == (2, "")
            assert err == f"error: {message}, got {n_max}\n"


@pytest.mark.usefixtures("four_cpus")
class TestVerifyCells:
    """verify reaches its cells through the runner that scan uses."""

    def test_deterministic_across_jobs(self, capsys, monkeypatch):
        # cell (2, -1) is made rootless; --perturb-omega 1.05 turns every PASS into a FAIL
        solve = cli.solve

        def rootless_at_2_m1(problem):
            if (problem.n, problem.physical.l) == (2, -1):
                raise errors.NoRootInRange("injected")
            return solve(problem)

        monkeypatch.setattr(cli, "solve", rootless_at_2_m1)
        cells = ("--n-max", "3", "--l-list", "1,-1", "--grid", "500")
        for extra, code, status in [((), 0, "PASS"), (("--perturb-omega", "1.05"), 1, "FAIL")]:
            first = run_cli(capsys, "verify", *cells, *extra, "--jobs", "1")
            assert first[0] == code and first[2] == ""
            data = split_output(first[1])[1]
            assert data and {line.split()[0] for line in data} == {status}
            assert "# no frequency root for n = 2, l = -1" in first[1].split("\n")
            for jobs in ("2", "3", "50"):
                assert run_cli(capsys, "verify", *cells, *extra, "--jobs", jobs) == first
        assert_no_child_processes()

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_cell_error_raised_as_serially(self, capsys, monkeypatch, jobs):
        # cells run (1,1), (1,2), (2,1), (2,2): under --jobs 2 the child fails at (1,2) and
        # this process at (2,1), and the earlier cell's error is the one reported
        solve = cli.solve

        def failing(problem):
            n, l = problem.n, problem.physical.l
            if (n, l) in {(1, 2), (2, 1)}:
                raise ValueError(f"injected at n = {n}, l = {l}")
            return solve(problem)

        monkeypatch.setattr(cli, "solve", failing)
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "2", "--l-list", "1,2", "--grid", "500", "--jobs", jobs
        )
        assert (code, out, err) == (2, "", "error: injected at n = 1, l = 2\n")
        assert_no_child_processes()

    def test_child_exit_without_rows_is_one_error_line(self, capsys, monkeypatch):
        solve, parent = cli.solve, os.getpid()

        def dying(problem):
            if os.getpid() != parent:
                os._exit(3)
            return solve(problem)

        monkeypatch.setattr(cli, "solve", dying)
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "2", "--l-list", "1,2", "--grid", "500", "--jobs", "2"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: worker") and "exited with status 3" in err
        assert err.count("\n") == 1
        assert_no_child_processes()


# a value of every config-file key, and what it parses to
FILE_VALUES = {
    "mass": ("2.5", 2.5),
    "quad": ("3", 3.0),
    "lam": ("1.5", 1.5),
    "eta": ("-1e-3", -1e-3),
    "kz": ("0.25", 0.25),
    "l": ("-2", -2),
    "n": ("3", 3),
    "n_max": ("4", 4),
    "l_list": ("-1,2", (-1, 2)),
    "samples": ("64", 64),
    "rho_max": ("5.5", 5.5),
    "grid": ("500", 500),
    "perturb_omega": ("1.05", 1.05),
    "format": ("csv", "csv"),
    "output": ("out.csv", "out.csv"),
    "jobs": ("2", 2),
}


class TestConfigFiles:
    def test_file_values_applied(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# reference configuration\n"
            "mass = 2.0\n"
            "lambda = 1.5  # alias for lam\n"
            "l-list = 1,2\n"
        )
        code, out, _ = run_cli(capsys, "scan", "--config", str(path))
        assert code == 0
        header, _ = split_output(out)
        assert "# mass = 2.0" in header
        assert "# lambda = 1.5" in header
        assert "# l-list = 1,2" in header

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mass = 2.0\n")
        _, out, _ = run_cli(capsys, "solve", "--config", str(path), "--mass", "1")
        assert "# mass = 1.0" in split_output(out)[0]

    def test_byte_order_mark_is_read_as_plain_file(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"mass = 2.0\n")
        marked.write_bytes(b"\xef\xbb\xbfmass = 2.0\n")
        expected = run_cli(capsys, "solve", "--config", str(plain))
        assert expected[0] == 0 and "# mass = 2.0" in expected[1]
        assert run_cli(capsys, "solve", "--config", str(marked)) == expected

    def test_environment_variable_supplies_config(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("eta = 0.5\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        _, out, _ = run_cli(capsys, "solve")
        assert "# eta = 0.5" in split_output(out)[0]

    def test_missing_env_config_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "/nonexistent/path.cfg")
        code, _, err = run_cli(capsys, "solve")
        assert code == 2 and "cannot read config file" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("bogus = 1\n", "unrecognized arguments: --bogus=1"),
            ("mass 2\n", "expected 'key = value'"),
            # the id names the kind of fault, not the parser's text
            pytest.param("mass = abc\n", "argument --mass: invalid float value: 'abc'", id="mass = abc\n-bad value"),
            ("format = xml\n", "argument --format: invalid choice: 'xml' (choose from 'csv', 'table')"),
            # --config and --help are flags but not keys
            ("config = x.cfg\n", "unrecognized arguments: --config=x.cfg"),
            ("help = 1\n", "unrecognized arguments: --help=1"),
            # a physics record checks these, over the defaults, also for a command that ignores the key
            ("mass = -1\n", "mass must be > 0, got -1.0"),
            ("l = 0\n", "l must be nonzero"),
            ("l-list = 0,1\n", "l must be nonzero"),
            ("n = 0\n", "polynomial degree n must be an integer >= 1, got 0"),
            ("lambda = 0\n", "M*lambda must be nonzero"),
        ],
    )
    def test_malformed_files_rejected(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.cfg"
        path.write_text(content)
        # solve ignores l-list and this scan ignores l and n
        for command in (["solve"], ["scan", "--n-max", "1", "--l-list", "1"]):
            code, out, err = run_cli(capsys, *command, "--config", str(path))
            assert (code, out) == (2, ""), command
            assert err.startswith(f"error: {path}:1: {message}") and err.count("\n") == 1, command

    def test_load_config_parses_types(self, tmp_path):
        path = tmp_path / "typed.cfg"
        path.write_text("l-list = 1, -2 ,3\ngrid = 2000\nsamples = 64\nkz = 2.0\n")
        values = load_config(str(path))
        assert values == {"l_list": (-2, 1, 3), "grid": 2000, "samples": 64, "kz": 2.0}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("samples = 1", "samples must be >= 2, got 1"),
            ("grid = 50", "grid must have at least 100 points, got 50"),
            ("perturb-omega = 0", "perturb_omega must be positive and finite, got 0.0"),
            ("rho-max = -1", "rho-max must be positive and finite, got -1.0"),
            ("jobs = 0", "jobs must be >= 1, got 0"),
            ("n-max = 0", "n-max must be >= 1, got 0"),
        ],
        ids=["samples", "grid", "perturb-omega", "rho-max", "jobs", "n-max"],
    )
    def test_range_error_names_file_and_line(self, capsys, tmp_path, line, message):
        # solve takes none of these keys: an unused key is ignored only once its value has passed its check
        path = tmp_path / "range.cfg"
        path.write_text(f"mass = 2\n{line}\n")
        assert_one_error_line(run_cli(capsys, "solve", "--config", str(path)), f"{path}:2: {message}")

    @pytest.mark.parametrize(
        "key, text, value",
        [
            (spelling, text, value)
            for dest, (text, value) in FILE_VALUES.items()
            for spelling in sorted({dest, dest.replace("_", "-"), "lambda" if dest == "lam" else dest})
        ],
    )
    def test_every_key_read_in_each_spelling(self, tmp_path, key, text, value):
        path = tmp_path / "key.cfg"
        path.write_text(f"{key} = {text}\n")
        assert load_config(str(path)) == {"lam" if key == "lambda" else key.replace("-", "_"): value}

    def test_grid_pair_rejected(self, capsys, tmp_path):
        # the header of an older verify recorded a coarse,refined pair; the refined grid is now 2N
        path = tmp_path / "old.cfg"
        path.write_text("grid = 4000,8000\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1: argument --grid: invalid int value: '4000,8000'\n"

    def test_keys_of_other_commands_ignored(self, capsys, tmp_path):
        path = tmp_path / "other.cfg"
        path.write_text("jobs = 2\ngrid = 8000\nsamples = 64\n")
        expected = run_cli(capsys, "solve")
        assert expected[0] == 0
        assert run_cli(capsys, "solve", "--config", str(path)) == expected


ERROR_CLASSES = [
    value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, Exception)
]
# the errors main reports that are not the package's own
BUILTIN_ERRORS = [ValueError, MemoryError, OSError, BrokenPipeError]
# the documented exit code of each error main reports; a class missing here fails its case
EXIT_CODES = {
    "ValueError": 2,
    "MemoryError": 1,
    "OSError": 1,
    "BrokenPipeError": 1,
    "NoRootInRange": 3,
    "HeunQESError": 1,
    "OverflowGuard": 1,
    "NonPositiveFrequency": 1,
    "QuadratureFailure": 1,
    "ConvergenceFailure": 1,
}


def make_solve_raise(monkeypatch, error):
    """Replace solve's handler, keeping its flags, by one that raises error."""
    def fail(config):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "solve", (fail, *cli._COMMANDS["solve"][1:]))


class TestExitCodes:
    """Every error class main reports maps to the documented exit code."""

    @pytest.mark.parametrize(
        "error, expected",
        [(error, EXIT_CODES.get(error.__name__)) for error in ERROR_CLASSES + BUILTIN_ERRORS],
    )
    def test_error_class_sets_exit_code(self, capsys, monkeypatch, error, expected):
        make_solve_raise(monkeypatch, error("injected"))
        code, out, err = run_cli(capsys, "solve")
        assert (code, out, err) == (expected, "", "error: injected\n")

    def test_main_catches_what_the_table_lists(self, capsys, monkeypatch):
        # one edit to the table is enough: main catches exactly its classes
        class Injected(Exception):
            pass

        monkeypatch.setitem(cli._EXIT_CODES, Injected, 5)
        make_solve_raise(monkeypatch, Injected("injected"))
        assert run_cli(capsys, "solve") == (5, "", "error: injected\n")

    def test_package_exports_exactly_the_error_classes(self):
        exported = {
            name: getattr(heunqes, name)
            for name in heunqes.__all__
            if isinstance(getattr(heunqes, name), type) and issubclass(getattr(heunqes, name), Exception)
        }
        assert exported == {error.__name__: error for error in ERROR_CLASSES}
        assert set(EXIT_CODES) == set(exported) | {error.__name__ for error in BUILTIN_ERRORS}

    def test_error_without_text_names_its_class(self, capsys, monkeypatch):
        # as a MemoryError that Python itself raises; no test allocates for real
        make_solve_raise(monkeypatch, MemoryError)
        assert run_cli(capsys, "solve") == (1, "", "error: MemoryError\n")


class TestHeaderRoundTrip:
    def _round_trip(self, capsys, tmp_path, *argv):
        _, first, _ = run_cli(capsys, *argv)
        # only the leading block: verify can print '# no frequency root for n = ...' between rows
        header = list(itertools.takewhile(lambda line: line.startswith("#"), first.split("\n")))
        config_lines = [line[2:] for line in header[1:] if " = " in line]
        path = tmp_path / "replay.cfg"
        path.write_text("\n".join(config_lines) + "\n")
        _, second, _ = run_cli(capsys, argv[0], "--config", str(path))
        assert second == first

    def test_solve_header_replays(self, capsys, tmp_path):
        self._round_trip(capsys, tmp_path, "solve", "--mass", "1.7", "--eta", "0.3", "--l", "-2")

    def test_wavefunction_header_replays(self, capsys, tmp_path):
        self._round_trip(capsys, tmp_path, "wavefunction", "--samples", "32", "--quad", "2.5")

    def test_scan_header_replays(self, capsys, tmp_path):
        self._round_trip(capsys, tmp_path, "scan", "--n-max", "2", "--l-list", "2,1")

    @pytest.mark.parametrize(
        "cells", [("--n", "3", "--l", "2"), ("--n-max", "2", "--l-list", "1,-1,1")]
    )
    def test_verify_header_replays(self, capsys, tmp_path, cells):
        self._round_trip(capsys, tmp_path, "verify", *cells, "--grid", "500")


class TestOutputFile:
    def test_writes_file_with_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "solve", "--format", "csv", "--output", str(target))
        assert code == 0 and out == ""
        blob = target.read_bytes()
        assert b"\r" not in blob and blob.endswith(b"\n")
        _, direct, _ = run_cli(capsys, "solve", "--format", "csv")
        assert blob.decode() == direct

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, target):
        code, out, err = run_cli(capsys, "solve", "--output", str(tmp_path / target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1


SHARED_FLAGS = {"-h", "--help", "--mass", "--quad", "--lambda", "--eta", "--kz", "--config", "--output"}


def command_dests():
    """Each command's flag dests, from the parser main uses."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {action.dest for action in sub._actions} for name, sub in commands.choices.items()}


class TestParserSurface:
    """The flag set of each subcommand and the config key set stay what they are."""

    def test_each_subcommand_accepts_its_flags(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.choices.items()
        }
        assert accepted == {
            "solve": SHARED_FLAGS | {"--format", "--n", "--l"},
            "scan": SHARED_FLAGS | {"--format", "--n-max", "--l-list", "--jobs"},
            "wavefunction": SHARED_FLAGS | {"--format", "--n", "--l", "--samples", "--rho-max"},
            "verify": SHARED_FLAGS
            | {"--n", "--l", "--n-max", "--l-list", "--jobs", "--grid", "--perturb-omega"},
        }

    @pytest.mark.parametrize("command", ["solve", "wavefunction"])
    def test_jobs_only_on_commands_that_split_cells(self, capsys, command, tmp_path):
        assert run_cli(capsys, command, "--jobs", "2")[0] == 2
        path = tmp_path / "jobs.cfg"
        path.write_text("jobs = 2\n")
        assert run_cli(capsys, command, "--config", str(path)) == run_cli(capsys, command)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--grid", "abc"), "argument --grid: invalid int value: 'abc'"),
            (
                ("scan", "--l-list", "1,x"),
                "argument --l-list: expected a comma-separated integer list, got '1,x'",
            ),
            (
                ("solve", "--format", "xml"),
                "argument --format: invalid choice: 'xml' (choose from 'csv', 'table')",
            ),
            (
                ("bogus",),
                "argument command: invalid choice: 'bogus' "
                "(choose from 'solve', 'scan', 'wavefunction', 'verify')",
            ),
        ],
        ids=["grid", "l-list", "format", "command"],
    )
    def test_parser_error_is_one_error_line(self, capsys, argv, message):
        assert_one_error_line(run_cli(capsys, *argv), message)

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["solve", "--help"])
        captured = capsys.readouterr()
        assert caught.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: heunqes solve ")

    def test_config_keys_are_the_run_config_fields(self):
        # the keys parser's parents are every command's value flags, and each has a field;
        # command, explicit and takes are set by build_config, not by a flag
        keys = {action.dest for group in cli._value_flags().values() for action in group._actions}
        flags = {dest for dests in command_dests().values() for dest in dests}
        fields = {field.name for field in dataclasses.fields(cli.RunConfig)}
        assert keys == flags - {"help", "config"} == fields - {"command", "explicit", "takes"} == set(FILE_VALUES)

    @pytest.mark.parametrize(
        "argv, unused",
        [
            (("solve",), set()),
            (("scan", "--n-max", "1"), set()),
            (("wavefunction", "--samples", "8"), set()),
            (("verify", "--grid", "500"), {"n_max", "l_list"}),
            (("verify", "--n-max", "1", "--grid", "500"), {"n", "l"}),
        ],
        ids=["solve", "scan", "wavefunction", "verify-cell", "verify-range"],
    )
    def test_header_echoes_each_key_the_command_takes(self, capsys, argv, unused):
        # in RunConfig field order; verify leaves out the cell group it did not use
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header = itertools.takewhile(lambda line: line.startswith("#"), out.split("\n"))
        echoed = [line[2:].split(" = ")[0].replace("-", "_") for line in header if " = " in line]
        echoed = ["lam" if key == "lambda" else key for key in echoed]
        expected = command_dests()[argv[0]] - {"format", "output", "jobs", "config", "help"} - unused
        order = [field.name for field in dataclasses.fields(cli.RunConfig)]
        assert echoed == sorted(expected, key=order.index)


def child_env():
    """Environment for a child interpreter that imports this same heunqes."""
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    src = os.path.dirname(os.path.dirname(heunqes.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestModuleEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heunqes", "solve", "--format", "csv"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        fields = split_output(proc.stdout)[1][1].split(",")
        assert fields[2] == fmt12(oracles.FROZEN_OMEGA)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_pipe_is_one_error_line(self, unbuffered):
        # the reader takes one line and leaves while the command still writes
        env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
        argv = [sys.executable, "-m", "heunqes", "wavefunction", "--samples", "2000000"]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with subprocess.Popen(argv, env=env, **pipes) as proc:
            assert proc.stdout.readline() == "# heunqes wavefunction\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 1
        # the whole of stderr is one error line: no traceback, no "Exception ignored" from the shutdown flush
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err

    def test_full_stdout_is_one_error_line(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        # wavefunction fails while it writes, solve's few lines only when they are flushed
        for command in ("wavefunction", "solve"):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "heunqes", command],
                    stdout=full,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=child_env(),
                )
            assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n"), command

    def test_cli_import_leaves_scipy_unloaded(self):
        # neither the oracle's scipy nor a process pool loads before it is used
        code = (
            "import sys, heunqes.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False"


def run_python(code, env=None):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env or child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def env_without_blas_threads():
    return {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}


class TestPackageExports:
    """import heunqes loads no numpy; its numpy-backed exports load at their first use."""

    def test_import_loads_no_numpy_and_sets_nothing(self):
        code = (
            "import os, sys, heunqes\n"
            "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
            "names = {}\n"
            "exec('from heunqes import *', names)\n"
            "print(sorted(set(heunqes.__all__) - set(names)), 'numpy' in sys.modules)\n"
        )
        assert run_python(code, env_without_blas_threads()) == ["False", "False", "[]", "True"]

    @pytest.mark.parametrize("name", heunqes.__all__)
    def test_every_export_resolves(self, name):
        value = getattr(heunqes, name)
        module = getattr(value, "__module__", None)
        if module is not None and module.startswith("heunqes."):
            assert getattr(sys.modules[module], name) is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
            heunqes.bogus


# The entry point on verify, which loads numpy's OpenBLAS and then scipy's own copy.
ENTRY_POINT_VERIFY = (
    "import contextlib, io, os\n"
    "from heunqes.__main__ import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(['verify'])\n"
    "tasks = '/proc/self/task'\n"
    "print(code, os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n"
)


class TestEntryPoint:
    """heunqes.__main__.main runs a command with one OpenBLAS thread unless the caller chose.

    It runs the command with the cyclic collector off and freezes the heap
    after it; cli.main and a plain import do neither.
    """

    def test_command_runs_one_thread(self):
        assert run_python(ENTRY_POINT_VERIFY, env_without_blas_threads()) == ["0", "1", "1"]

    def test_callers_thread_count_wins(self):
        env = {**child_env(), "OPENBLAS_NUM_THREADS": "2"}
        assert run_python(ENTRY_POINT_VERIFY, env)[:2] == ["0", "2"]

    @pytest.mark.parametrize(
        "load, call, owned",
        [
            ("from heunqes.__main__ import main", "main(['solve'])", True),
            ("from heunqes.cli import main", "main(['solve'])", False),
            ("import heunqes", "0", False),
        ],
        ids=["entry-point", "cli-main", "import"],
    )
    def test_only_the_entry_point_freezes_the_heap(self, load, call, owned):
        code = (
            "import contextlib, gc, io\n"
            f"{load}\n"
            "before = gc.get_stats()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = {call}\n"
            "print(code, gc.get_freeze_count() > 0, gc.isenabled(), gc.get_stats() == before)\n"
        )
        code, frozen, enabled, uncollected = run_python(code)
        assert (code, frozen, enabled) == ("0", str(owned), str(not owned))
        if owned:  # the collector stays off for the whole command
            assert uncollected == "True"

    def test_console_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"heunqes": "heunqes.__main__:main"}


# cli.main(sys.argv[1:]) in a fresh interpreter that counts four CPUs, so that --jobs forks on
# any host; after the command's output, a last line gives its exit code and whether
# heunqes.oracle and heunqes.wavefunction are loaded.
CLI_MAIN_CHILD = (
    "import os, sys\n"
    "os.cpu_count = lambda: 4\n"
    "from heunqes import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, *(name in sys.modules for name in ('heunqes.oracle', 'heunqes.wavefunction')))\n"
)


def run_cli_child(*argv):
    """(output lines, [exit code, oracle loaded, wavefunction loaded]) of CLI_MAIN_CHILD on argv."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN_CHILD, *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    return lines, last.split()


class TestCommandModules:
    """A command loads the oracle and the wavefunction module only if it calls them."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["solve"], ["False", "False"]),
            (["scan", "--n-max", "2"], ["False", "False"]),
            (["wavefunction"], ["False", "True"]),
            (["verify"], ["True", "True"]),
        ],
        ids=["solve", "scan", "wavefunction", "verify"],
    )
    def test_each_command_loads_what_it_runs(self, argv, loaded):
        assert run_cli_child(*argv)[1] == ["0", *loaded]

    def test_forked_workers_verify_as_one_process(self):
        # the oracle loads in cmd_verify before the workers fork
        cells = ("verify", "--n-max", "2", "--l-list", "1,-1")
        forked, serial = (run_cli_child(*cells, "--jobs", jobs) for jobs in ("2", "1"))
        assert forked == serial
        assert forked[1] == ["0", "True", "True"] and forked[0][-1].startswith("# summary: ")


# Both dstebz routines on one operator, index and value range, as comparable bytes.
COMPARE_DSTEBZ = """
from heunqes.oracle import RadialOperatorSpec, build_operator
d, e = build_operator(RadialOperatorSpec(1.0, 1.75, 1.0, 1.0, 1, 8.0, 400))
calls = [(2, 0.0, 0.0, 1, 10, 1e-14, b"E"), (1, 20.0, 60.0, 0, 0, 1e-14, b"E")]
out = [[f(d, e, *args) for args in calls] for f in (ours, scipy.linalg.lapack.dstebz)]
same = all(a[0] == b[0] and a[1][: a[0]].tobytes() == b[1][: b[0]].tobytes() for a, b in zip(*out))
print(same, hasattr(scipy.linalg, "_flapack"))
"""


class TestOracleLoader:
    """The oracle loads scipy's _flapack alone; scipy.linalg still imports and agrees, in either order."""

    def test_verify_leaves_scipy_linalg_unloaded(self):
        code = (
            "import contextlib, io, sys\n"
            "from heunqes import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify'])\n"
            "print(code, 'scipy.linalg' in sys.modules)"
        )
        assert run_python(code) == ["0", "False"]

    def test_oracle_first(self):
        code = (
            "import sys\n"
            "from heunqes import oracle\n"
            "ours = oracle._flapack().dstebz\n"
            "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)\n"
            "import scipy.linalg\n"
        )
        assert run_python(code + COMPARE_DSTEBZ) == ["False", "False", "True", "True"]

    def test_scipy_linalg_first(self):
        code = "import scipy.linalg\nfrom heunqes import oracle\nours = oracle._flapack().dstebz\n"
        assert run_python(code + COMPARE_DSTEBZ) == ["True", "True"]
