"""Command-line interface: formats, headers, config merging, exit codes."""

import argparse
import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys

import pytest

import oracles
import heunqes
from heunqes import cli, errors
from heunqes.cli import CONFIG_ENV_VAR, ConfigError, fmt12, load_config, main


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    """CLI runs must not pick up a config file from the ambient environment."""
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert run_cli(capsys, "solve", "--n-max", "2")[0] == 2

    def test_missing_command_rejected(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_cubic_overflow_is_one_error_line(self, capsys):
        # a mass of 1e-200 puts the cubic's coefficients near 1e200, past what its closed form can cube
        code, out, err = run_cli(capsys, "solve", "--mass", "1e-200")
        assert (code, out) == (1, "")
        assert err.startswith("error: ground-state cubic overflows") and err.count("\n") == 1

    def test_energy_underflow_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "solve", *ENERGY_UNDERFLOW, "--l=-5")
        assert (code, out) == (1, "")
        assert err.startswith("error: energy or zeta^2 leaves the double range") and err.count("\n") == 1

    @pytest.mark.parametrize("eta", ["1e-300", "1e-250", "1e-210", "5e-324", "-5e-324"])
    def test_tiny_eta_is_one_error_line(self, capsys, eta):
        # the companion's balancing scale grows like |eta|^(-1/2); its cube leaves the double range
        code, out, err = run_cli(capsys, "solve", "--eta", eta, "--n", "4")
        assert (code, out) == (1, "")
        assert err.startswith("error: frequency companion overflows") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "args,message",
        [
            (("--mass", "9.392263089218397e+211", "--quad", "1.368307824923521e-12",
              "--eta", "1.731383107406301e+146", "--l", "1", "--n", "6"), "frequency companion overflows"),
            (("--mass", "2.473241998978134e-287", "--quad", "5.341722406817056e+89",
              "--eta", "3.333981093116267e-295", "--l", "5", "--n", "2"), "omega must be finite and > 0, got inf"),
        ],
        ids=["sigma-underflow", "m-u-underflow"],
    )
    def test_companion_extremes_are_one_error_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, "solve", *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestNegativeValues:
    """A value that starts with '-' but is not a plain decimal reads as in the '--flag=value' form."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--n-max", "2", "--l-list", "-1,1"),
            ("verify", "--n-max", "2", "--l-list", "-1,2"),
            ("solve", "--eta", "-1e-3"),
            ("solve", "--lambda", "-2e0"),
        ],
        ids=["scan-l-list", "verify-l-list", "solve-eta", "solve-lambda"],
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
        code, out, err = run_cli(capsys, "scan", "--l-list", "1,0")
        assert code == 2 and out == ""
        assert "l must be nonzero" in err

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

    @pytest.mark.parametrize("rho_max", ["1e300", "1e160"])
    def test_envelope_overflow_is_one_error_line(self, capsys, rho_max):
        # xi^2 leaves the double range; a leaked RuntimeWarning would fail the suite
        code, out, err = run_cli(capsys, "wavefunction", "--rho-max", rho_max)
        assert (code, out) == (1, "")
        assert err.startswith("error: radial envelope overflows") and err.count("\n") == 1

    def test_underflowed_envelope_gives_zero_rows(self, capsys):
        # xi^3 H(xi) overflows where exp(-xi^2/2) is already 0: the profile is 0 there
        code, out, err = run_cli(capsys, "wavefunction", "--rho-max", "1e150", "--n", "3")
        assert (code, err) == (0, "")
        values = [float(line.split(",")[1]) for line in split_output(out)[1][1:]]
        assert len(values) == 512 and values[1:] == [0.0] * 511

    def test_non_finite_sample_is_one_error_line(self, capsys, monkeypatch):
        sample = lambda *_: [(0.0, 0.0), (1.0, math.inf)]
        monkeypatch.setattr(heunqes.wavefunction.RadialWavefunction, "sample", sample)
        code, out, err = run_cli(capsys, "wavefunction")
        assert (code, out) == (1, "")
        assert err.startswith("error: radial profile overflows at rho = 1 ") and err.count("\n") == 1


class TestVerify:
    def test_single_state_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0 and err == ""
        header, data = split_output(out)
        assert "# grid = 4000,8000" in header
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
        code, out, _ = run_cli(capsys, "verify", "--grid", "2000", "--grid", "4000")
        assert code == 0
        _, tokens = verify_tokens(split_output(out)[1][0])
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

    @pytest.mark.parametrize(
        "grids",
        [("--grid", "100", "--grid", "50"), ("--grid", "50"),
         ("--grid", "1000", "--grid", "2000", "--grid", "3000")],
    )
    def test_bad_grids_rejected(self, capsys, grids):
        assert run_cli(capsys, "verify", *grids)[0] == 2

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--perturb-omega", "1e200"), "oracle box overflows"),
            (("--perturb-omega", "3e153"), "oracle box overflows"),
            (("--rho-max", "5", "--perturb-omega", "3e153"), "finite-difference operator overflows"),
            (("--rho-max", "1e-200"), "finite-difference operator overflows"),
        ],
    )
    def test_overflow_is_one_error_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, "verify", *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.usefixtures("four_cpus")
class TestVerifyCells:
    """verify reaches its cells through the runner that scan uses."""

    def test_deterministic_across_jobs(self, capsys, monkeypatch):
        # cell (2, -1) is made rootless; --perturb-omega 1.05 turns every PASS into a FAIL
        solve = cli._solve_states

        def rootless_at_2_m1(problem):
            if (problem.n, problem.physical.l) == (2, -1):
                raise errors.NoRootInRange("injected")
            return solve(problem)

        monkeypatch.setattr(cli, "_solve_states", rootless_at_2_m1)
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
        solve = cli._solve_states

        def failing(problem):
            n, l = problem.n, problem.physical.l
            if (n, l) in {(1, 2), (2, 1)}:
                raise ValueError(f"injected at n = {n}, l = {l}")
            return solve(problem)

        monkeypatch.setattr(cli, "_solve_states", failing)
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "2", "--l-list", "1,2", "--grid", "500", "--jobs", jobs
        )
        assert (code, out, err) == (2, "", "error: injected at n = 1, l = 2\n")
        assert_no_child_processes()

    def test_child_exit_without_rows_is_one_error_line(self, capsys, monkeypatch):
        solve, parent = cli._solve_states, os.getpid()

        def dying(problem):
            if os.getpid() != parent:
                os._exit(3)
            return solve(problem)

        monkeypatch.setattr(cli, "_solve_states", dying)
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "2", "--l-list", "1,2", "--grid", "500", "--jobs", "2"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: worker") and "exited with status 3" in err
        assert err.count("\n") == 1
        assert_no_child_processes()


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
            ("bogus = 1\n", "unknown key"),
            ("mass 2\n", "expected 'key = value'"),
            ("mass = abc\n", "bad value"),
        ],
    )
    def test_malformed_files_rejected(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.cfg"
        path.write_text(content)
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 2 and message in err

    def test_load_config_parses_types(self, tmp_path):
        path = tmp_path / "typed.cfg"
        path.write_text("l-list = 1, -2 ,3\ngrid = 2000,4000\nsamples = 64\nkz = 2.0\n")
        values = load_config(str(path))
        assert values == {"l_list": (1, -2, 3), "grid": (2000, 4000), "samples": 64, "kz": 2.0}


class TestExitCodes:
    """Every error class main reports maps to the documented exit code."""

    @pytest.mark.parametrize(
        "error, expected",
        [
            (ConfigError, 2),
            (errors.NonPositiveMass, 2),
            (errors.ZeroAngularMomentum, 2),
            (errors.VanishingCoupling, 2),
            (ValueError, 2),
            (errors.NoRootInRange, 3),
            (errors.NoPositiveRoot, 3),
            (errors.QuadratureFailure, 1),
            (errors.OverflowGuard, 1),
            (errors.HeunQESError, 1),
        ],
    )
    def test_error_class_sets_exit_code(self, capsys, monkeypatch, error, expected):
        def fail(config):
            raise error("injected")

        monkeypatch.setitem(cli._HANDLERS, "solve", fail)
        code, out, err = run_cli(capsys, "solve")
        assert (code, out, err) == (expected, "", "error: injected\n")


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


SHARED_FLAGS = {"-h", "--help", "--mass", "--quad", "--lambda", "--eta", "--kz", "--config",
                "--output", "--format"}


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
            "solve": SHARED_FLAGS | {"--n", "--l"},
            "scan": SHARED_FLAGS | {"--n-max", "--l-list", "--jobs"},
            "wavefunction": SHARED_FLAGS | {"--n", "--l", "--samples", "--rho-max"},
            "verify": SHARED_FLAGS
            | {"--n", "--l", "--n-max", "--l-list", "--jobs", "--grid", "--rho-max", "--perturb-omega"},
        }

    @pytest.mark.parametrize("command", ["solve", "wavefunction"])
    def test_jobs_only_on_commands_that_split_cells(self, capsys, command, tmp_path):
        assert run_cli(capsys, command, "--jobs", "2")[0] == 2
        path = tmp_path / "jobs.cfg"
        path.write_text("jobs = 2\n")
        assert run_cli(capsys, command, "--config", str(path)) == run_cli(capsys, command)

    def test_config_keys_are_the_run_config_fields(self):
        fields = {field.name for field in dataclasses.fields(cli.RunConfig)}
        assert set(cli._CONVERTERS) == fields - {"command", "explicit"}


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


def run_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


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
