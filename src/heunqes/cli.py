"""Command-line front end: solve, scan, wavefunction, and verify workflows.

Output is deterministic: identical configuration produces byte-identical
bytes. Run metadata lives in `#`-prefixed header lines that echo every
effective parameter as `# key = value`, parseable by the same `key = value`
reader used for config files, so the leading header block of every command,
verify's included, round-trips into a config file reproducing the run. Data
streams are CSV (comma separator, LF endings, mandatory header row) or aligned
plain-text tables; numbers are printed with 12 significant digits, switching
to scientific notation below 1e-4 and at or above 1e+6.

A command is one row of _COMMANDS. An input is a flag in a group of
_value_flags plus a RunConfig field; its config-file key and header echo
follow. Exit codes are the rows of _EXIT_CODES: 0 success (verify: all states
PASS), 1 verification failure, internal numerical failure, MemoryError or an
OSError such as a closed or full stdout, 2 bad input, any ValueError (a bad
flag, config key or value, or parameter, an n-max outside 1..MAX_DEGREE, a
verify given both one cell and a range, an unwritable --output), 3 no
frequency root found. Every error is one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import HeunQESError, NoRootInRange
from .model import PhysicalParams
from .oracle import DEFAULT_GRID_N, MIN_GRID_N, verify_solution
from .quantize import ReducedProblem, solve
from .series import MAX_DEGREE
from .wavefunction import normalize

CONFIG_ENV_VAR = "HEUNQES_CONFIG"

_SOLVE_COLUMNS = ("n", "l", "omega", "energy", "zeta_sq", "node_count", "residual")
_SCAN_COLUMNS = (
    "n",
    "l",
    "root_index",
    "omega",
    "energy",
    "zeta_sq",
    "node_count",
    "residual",
    "status",
)
_WAVEFUNCTION_COLUMNS = ("rho", "R")


def _parse_int_list(text: str) -> tuple[int, ...]:
    """'2,1,1,-2' -> (-2, 1, 2): the distinct values, sorted."""
    try:
        values = {int(piece) for piece in text.split(",") if piece.strip()}
    except ValueError:
        values = set()
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    return tuple(sorted(values))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Merged effective configuration: field defaults < config file < CLI flags.

    explicit records which keys were set by the file or the command line,
    letting verify tell single-state mode from range mode and refuse a mix;
    takes holds the keys of the command's own flags, which its header echoes.
    The parser, which reads config files too, checks each value's type and
    choices. This checks the ranges of only the keys no record downstream owns;
    PhysicalParams and ReducedProblem.from_params check the physics, l and n.
    """

    command: str
    mass: float = 1.0
    quad: float = 1.0
    lam: float = 1.0
    eta: float = 1.0
    kz: float = 0.0
    l: int = 1
    n: int = 1
    n_max: int = 1
    l_list: tuple[int, ...] = (1,)
    samples: int = 512
    rho_max: float | None = None
    grid: int = DEFAULT_GRID_N
    perturb_omega: float = 1.0
    format: str | None = None
    output: str | None = None
    jobs: int | None = None
    explicit: frozenset[str] = frozenset()
    takes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.perturb_omega) and self.perturb_omega > 0.0):
            raise ValueError(f"perturb_omega must be positive and finite, got {self.perturb_omega!r}")
        if self.rho_max is not None and not (
            math.isfinite(self.rho_max) and self.rho_max > 0.0
        ):
            raise ValueError(f"rho-max must be positive and finite, got {self.rho_max!r}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.grid < MIN_GRID_N:
            raise ValueError(f"grid must have at least {MIN_GRID_N} points, got {self.grid}")
        if self.n_max < 1:
            raise ValueError(f"n-max must be >= 1, got {self.n_max}")
        if self.n_max > MAX_DEGREE:
            raise ValueError(f"n-max must be <= {MAX_DEGREE}, got {self.n_max}")


def fmt12(value) -> str:
    """12-significant-digit numeric formatting with trimmed trailing zeros."""
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if v == 0.0:
        return "0"
    if not math.isfinite(v):
        return repr(v)
    if abs(v) < 1e-4 or abs(v) >= 1e6:
        mantissa, _, exponent = f"{v:.11e}".partition("e")
        mantissa = mantissa.rstrip("0").rstrip(".")
        return f"{mantissa}e{int(exponent):+03d}"
    return f"{v:.12g}"


def _format_param(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header_lines(config: RunConfig, unused: Iterable[str] = ()) -> list[str]:
    """'# heunqes <command>', then '# key = value' for each key the command takes, in field order.

    format, output and jobs are left out: they choose where and how the output
    is written, not what it holds.
    """
    echoed = config.takes.difference({"format", "output", "jobs"}, unused)
    lines = [f"# heunqes {config.command}"]
    for key in (field.name for field in dataclasses.fields(config) if field.name in echoed):
        name = "lambda" if key == "lam" else key.replace("_", "-")
        lines.append(f"# {name} = {_format_param(getattr(config, key))}")
    return lines


def _render(columns: tuple[str, ...], rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """The lines of a data stream, made as they are read.

    csv renders each row when its line is read; a table renders all its rows
    first, because it needs the column widths.
    """
    cells = itertools.chain(
        [list(columns)],
        (["" if x is None else fmt12(x) if not isinstance(x, str) else x for x in row] for row in rows),
    )
    if fmt == "csv":
        return (",".join(row) for row in cells)
    cells = list(cells)
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    return ("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))).rstrip() for row in cells)


def load_config(path: str) -> dict:
    """Parse a flat `key = value` config file; `#` starts a comment.

    Each line is read as the flag --key=value, the key hyphenated and lam read
    as lambda, by one parser that holds the value flags of every command. So a
    key has its flag's type and choices, and a key only another command takes
    is still checked, and a RunConfig built from the line checks its range. A
    refused line is a ValueError that names path and line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    keys = _Parser(add_help=False, allow_abbrev=False, parents=list(_value_flags().values()))
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip().replace("_", "-")
        try:
            parsed = keys.parse_args([f"--{'lambda' if key == 'lam' else key}={value.strip()}"])
            line_values = {dest: v for dest, v in vars(parsed).items() if v is not None}
            RunConfig(command="", **line_values)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        values.update(line_values)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional config file, and CLI flags into a RunConfig."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    merged = load_config(path) if path else {}
    # args holds every flag of the command, None where it was not given
    takes = frozenset(vars(args)) - {"command", "config"}
    merged.update((k, v) for k, v in vars(args).items() if v is not None and k in takes)
    return RunConfig(command=args.command, explicit=frozenset(merged), takes=takes, **merged)


def _make_problem(config: RunConfig, n: int, l: int) -> ReducedProblem:
    params = PhysicalParams(config.mass, config.quad, config.lam, config.eta, config.kz, l)
    return ReducedProblem.from_params(params, n)


def cmd_solve(config: RunConfig) -> tuple[int, list[str]]:
    states = solve(_make_problem(config, config.n, config.l))
    rows = [
        (s.n, s.l, s.omega, s.energy, s.zeta_sq, s.node_count, s.residuals["truncation"])
        for s in states
    ]
    lines = _header_lines(config)
    lines += _render(_SOLVE_COLUMNS, rows, config.format or "table")
    return 0, lines


def _select_cells(config: RunConfig) -> list[ReducedProblem]:
    """Each cell's problem, n = 1..n-max by l in l-list, n-major.

    All are built before any cell is solved, so a bad input exits 2 and is never a cell row.
    """
    return [_make_problem(config, n, l) for n in range(1, config.n_max + 1) for l in config.l_list]


def _scan_cell(problem: ReducedProblem) -> list[tuple]:
    """Rows of one (n, l) scan cell; a cell with no root or a numerical failure gives one status row."""
    n, l = problem.n, problem.physical.l
    blank = (None, None, None, None, None)
    try:
        states = solve(problem)
    except NoRootInRange:
        return [(n, l, None) + blank + ("no_root",)]
    except HeunQESError as exc:
        return [(n, l, None) + blank + (f"error:{type(exc).__name__}",)]
    return [
        (n, l, i, s.omega, s.energy, s.zeta_sq, s.node_count, s.residuals["truncation"], "ok")
        for i, s in enumerate(states)
    ]


def _solve_share(cell, share: list[ReducedProblem]) -> tuple[list[list], Exception | None]:
    """cell's rows of each task of share in order, up to the first that raises, and its error."""
    cells = []
    try:
        for task in share:
            cells.append(cell(task))
    except Exception as exc:  # handed to _run_cells, which raises the first in task order
        return cells, exc
    return cells, None


def _solve_child_share(cell, share: list, write_fd: int, parent_pipes: list) -> None:
    """In a forked child: write the pickled _solve_share of share to write_fd and exit.

    It closes the parent's read ends first, so that once the parent closes them
    a child blocked on a full pipe gets BrokenPipeError. It always leaves through
    os._exit, status 0 once its rows are written and 1 otherwise, with no traceback.
    """
    import pickle  # numpy has loaded it already

    status = 1
    try:
        for pipe in parent_pipes:
            pipe.close()
        with open(write_fd, "wb") as out:
            out.write(pickle.dumps(_solve_share(cell, share)))
        status = 0
    finally:
        os._exit(status)


def _run_cells(cell, tasks: list[ReducedProblem], jobs: int | None) -> list[list]:
    """cell(task), a picklable list of rows, for every task in task order; scan and verify run here.

    w = min(jobs, CPU count, len(tasks)) processes share the tasks, jobs defaulting
    to the CPU count. Process i solves tasks[i::w]: this one i = 0, and each of
    w - 1 forked children sends its rows back through one pipe. Fork suits a
    process that runs no threads besides its own, and the child starts with
    numpy loaded where a spawned one would import it again. The entry point
    (heunqes.__main__) keeps OpenBLAS to one thread, so that holds for every
    command; a caller of main in its own process, such as the tests, may still
    fork a threaded process. Without os.fork, w is 1.
    The error raised is the one a serial run gives, that of the first failing
    task, or a HeunQESError for a child that exits without its rows. Every child
    is reaped before this returns or raises.
    """
    import pickle  # numpy has loaded it already

    cpus = os.cpu_count() or 1
    w = min(jobs or cpus, cpus, len(tasks)) if hasattr(os, "fork") else 1
    pids, pipes = [], []
    try:
        for i in range(1, w):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _solve_child_share(cell, tasks[i::w], write_fd, pipes)
            finally:
                os.close(write_fd)
            pids.append(pid)
        shares = [_solve_share(cell, tasks[0::w])]
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, status, payload in zip(pids, statuses, payloads):
        if status != 0:
            raise HeunQESError(f"worker {pid} exited with status {status} before sending its rows")
        shares.append(pickle.loads(payload))
    failures = [(i + w * len(cells), exc) for i, (cells, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures)[1]  # task indices differ, so no two errors are compared
    return [shares[k % w][0][k // w] for k in range(len(tasks))]


def cmd_scan(config: RunConfig) -> tuple[int, list[str]]:
    per_cell = _run_cells(_scan_cell, _select_cells(config), config.jobs)
    # each cell is ascending and the cells come in n-major task order, so rows need no sort
    rows = [row for cell in per_cell for row in cell]
    lines = _header_lines(config)
    lines += _render(_SCAN_COLUMNS, rows, config.format or "csv")
    return 0, lines


def cmd_wavefunction(config: RunConfig) -> tuple[int, Iterable[str]]:
    wavefunction = normalize(solve(_make_problem(config, config.n, config.l))[0])  # lowest omega
    # the header echoes the box sampled: the state's own unless --rho-max chose one
    config = dataclasses.replace(config, rho_max=config.rho_max or wavefunction.rho_max)
    rho, amplitude = wavefunction.sample(config.samples, config.rho_max)
    samples = _render(_WAVEFUNCTION_COLUMNS, zip(rho, amplitude), config.format or "csv")
    return 0, itertools.chain(_header_lines(config), samples)


def _verify_cell(problem: ReducedProblem, config: RunConfig) -> list[tuple]:
    """(passed, line) of each state of one verify cell, or (None, its no-root line)."""
    n, l = problem.n, problem.physical.l
    try:
        states = solve(problem)
    except NoRootInRange:
        return [(None, f"# no frequency root for n = {n}, l = {l}")]
    verdicts = []
    for i, state in enumerate(states):
        report = verify_solution(state, grid_n=config.grid, perturb_omega=config.perturb_omega)
        verdicts.append((report.passed, (
            f"{'PASS' if report.passed else 'FAIL'} "
            f"n={n} l={l} root={i} omega={fmt12(state.omega)} "
            f"zeta_sq={fmt12(report.zeta_claim)} oracle={fmt12(report.zeta_oracle)} "
            f"deviation={fmt12(report.deviation)} refined={fmt12(report.deviation_refined)} "
            f"ratio={fmt12(report.ratio)}"
        )))
    return verdicts


def cmd_verify(config: RunConfig) -> tuple[int, list[str]]:
    ranged = bool({"n_max", "l_list"} & config.explicit)
    if ranged and {"n", "l"} & config.explicit:
        raise ValueError("verify takes one cell (--n/--l) or a range (--n-max/--l-list), not both")
    problems = _select_cells(config) if ranged else [_make_problem(config, config.n, config.l)]
    per_cell = _run_cells(lambda problem: _verify_cell(problem, config), problems, config.jobs)
    verdicts = [verdict for cell in per_cell for verdict in cell]
    passed = [ok for ok, _ in verdicts if ok is not None]
    failed = passed.count(False)
    lines = _header_lines(config, {"n", "l"} if ranged else {"n_max", "l_list"})
    lines += [line for _, line in verdicts]
    lines.append(f"# summary: {len(passed) - failed} passed, {failed} failed")
    return (3 if not passed else 1 if failed else 0), lines


# Each command's handler, flag groups (besides the shared flags and --config) and help.
_COMMANDS = {
    "solve": (cmd_solve, ("table", "cell"), "quantized frequencies for one (n, l)"),
    "scan": (cmd_scan, ("table", "cell_range"), "sweep (n, l) cells to CSV"),
    "wavefunction": (cmd_wavefunction, ("table", "cell", "profile"), "sampled normalized radial profile"),
    "verify": (
        cmd_verify,
        ("cell", "cell_range", "oracle"),
        "cross-check states against the finite-difference oracle",
    ),
}

# The errors main reports and their exit codes; the first class that matches wins.
_EXIT_CODES = {ValueError: 2, NoRootInRange: 3, HeunQESError: 1, MemoryError: 1, OSError: 1}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so main prints them as one error line.

    add_subparsers builds each command's parser with this class too.
    """

    def error(self, message):
        raise ValueError(message)


def _value_flags() -> dict[str, argparse.ArgumentParser]:
    """Every command's value flags, in parent groups by name; each flag is also a config-file key."""
    groups = {
        name: argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        for name in ("shared", "table", "cell", "cell_range", "profile", "oracle")
    }
    shared, table, cell, cell_range, profile, oracle = groups.values()
    shared.add_argument("--mass", type=float, help="atom mass m")
    shared.add_argument("--quad", type=float, help="magnetic quadrupole magnitude M")
    shared.add_argument("--lambda", dest="lam", type=float, help="field gradient lambda")
    shared.add_argument("--eta", type=float, help="linear confinement strength eta")
    shared.add_argument("--kz", type=float, help="axial wavenumber k")
    shared.add_argument("--output", help="write output to this file instead of stdout")

    table.add_argument("--format", choices=("csv", "table"), help="data stream format")

    cell.add_argument("--n", type=int, help="polynomial degree n >= 1")
    cell.add_argument("--l", type=int, help="angular momentum quantum number, l != 0")

    cell_range.add_argument("--n-max", type=int, help=f"cells n = 1..n_max, n_max <= {MAX_DEGREE}")
    cell_range.add_argument("--l-list", type=_parse_int_list, help="e.g. 1,2,-1")
    cell_range.add_argument(
        "--jobs",
        type=int,
        help="processes that share the cells, this one included (default and cap: CPU count)",
    )

    profile.add_argument("--samples", type=int, help="number of radial samples")
    profile.add_argument("--rho-max", type=float, help="sampling radius")

    oracle.add_argument(
        "--grid",
        type=int,
        help=f"coarse grid points N >= {MIN_GRID_N}, the refined grid is 2N (default {DEFAULT_GRID_N})",
    )
    oracle.add_argument(
        "--perturb-omega", type=float, help="multiply the verified frequency (negative control)"
    )
    return groups


def build_parser() -> argparse.ArgumentParser:
    groups = _value_flags()
    config = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    config.add_argument("--config", help=f"config file path (default: ${CONFIG_ENV_VAR})")

    parser = _Parser(
        prog="heunqes",
        description="Quasi-exactly-solvable spectra of a trapped magnetic-quadrupole atom.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, names, help_text) in _COMMANDS.items():
        parents = [groups["shared"], config] + [groups[group] for group in names]
        sub.add_parser(name, parents=parents, help=help_text)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Write '--opt -1,1' as '--opt=-1,1'.

    argparse reads a token that starts with '-' as an option unless it is a
    plain decimal such as -0.5, so it refuses -1e-3 or an l-list that starts
    with a negative l. Every option takes one value and no option name starts
    with '-' and a digit or '.', so such a token after an option is its value.
    """
    joined: list[str] = []
    for token in argv:
        if joined and re.fullmatch(r"--[\w-]+", joined[-1]) and re.match(r"-[\d.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


# Lines per write: few writes to an unbuffered stdout, and a bounded share of a long stream in memory.
_EMIT_CHUNK = 4096


def _write_lines(lines: Iterable[str], handle) -> None:
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, _EMIT_CHUNK)):
        handle.write("\n".join(chunk) + "\n")


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write lines, each ending in LF, to the output file or to stdout as they come."""
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as handle:
                _write_lines(lines, handle)
        except OSError as exc:
            raise ValueError(f"cannot write output file {output!r}: {exc}") from exc
    else:
        try:
            _write_lines(lines, sys.stdout)
            sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's shutdown flush
        except OSError:
            # the reader is gone or the disk is full: what stays buffered goes to devnull at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
        config = build_config(args)
        code, lines = _COMMANDS[config.command][0](config)
        _emit(lines, config.output)
        return code
    except tuple(_EXIT_CODES) as exc:
        # a MemoryError raised by Python itself carries no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
