"""Command-line front end: solve, scan, wavefunction, and verify workflows.

Output is deterministic: identical configuration produces byte-identical
bytes. Run metadata lives in `#`-prefixed header lines that echo every
effective parameter as `# key = value`, parseable by the same `key = value`
reader used for config files, so the leading header block of every command,
verify's included, round-trips into a config file reproducing the run. Data
streams are CSV (comma separator, LF endings, mandatory header row) or aligned
plain-text tables; numbers are printed with 12 significant digits, switching
to scientific notation below 1e-4 and at or above 1e+6.

Exit codes: 0 success (verify: all states PASS), 1 verification failure or
internal numerical failure, 2 configuration/validation error (an n-max of
scan or verify outside 1..MAX_DEGREE, an unwritable --output), 3 no frequency
root found.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    HeunQESError,
    NonPositiveMass,
    NoRootInRange,
    OverflowGuard,
    VanishingCoupling,
    ZeroAngularMomentum,
)
from .model import PhysicalParams
from .oracle import DEFAULT_GRID_N, verify_solution
from .quantize import ReducedProblem, SpectralSolution, solve_cubic, solve_frequency
from .series import MAX_DEGREE
from .wavefunction import normalize, suggested_rho_max

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


class ConfigError(Exception):
    """Unusable configuration: bad file, unknown key, or out-of-range value."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",")]
    values = tuple(int(piece) for piece in items if piece)
    if not values:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    return values


# Config-file and header key set; 'lambda' is accepted as an alias for lam.
_CONVERTERS = {
    "mass": float,
    "quad": float,
    "lam": float,
    "eta": float,
    "kz": float,
    "rho_max": float,
    "perturb_omega": float,
    "l": int,
    "n": int,
    "n_max": int,
    "samples": int,
    "jobs": int,
    "l_list": _parse_int_list,
    "grid": _parse_int_list,
    "format": str,
    "output": str,
}


@dataclass(frozen=True)
class RunConfig:
    """Merged effective configuration: field defaults < config file < CLI flags.

    explicit records which keys were set by the file or the command line,
    letting verify distinguish single-state mode from range mode.
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
    grid: tuple[int, ...] = ()
    perturb_omega: float = 1.0
    format: str | None = None
    output: str | None = None
    jobs: int | None = None
    explicit: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for key in ("mass", "quad", "lam", "eta", "kz", "perturb_omega"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.rho_max is not None and not (
            math.isfinite(self.rho_max) and self.rho_max > 0.0
        ):
            raise ConfigError(f"rho-max must be positive and finite, got {self.rho_max!r}")
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples}")
        if self.format not in (None, "csv", "table"):
            raise ConfigError(f"format must be 'csv' or 'table', got {self.format!r}")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if len(self.grid) > 2:
            raise ConfigError(f"at most two --grid values (coarse, refined), got {len(self.grid)}")


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


def _header_lines(config: RunConfig, pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# heunqes {config.command}"]
    for key, value in pairs:
        name = "lambda" if key == "lam" else key.replace("_", "-")
        lines.append(f"# {name} = {_format_param(value)}")
    return lines


def _physics_pairs(config: RunConfig) -> list[tuple[str, object]]:
    return [(key, getattr(config, key)) for key in ("mass", "quad", "lam", "eta", "kz")]


def _render(columns: tuple[str, ...], rows: list[tuple], fmt: str) -> list[str]:
    cells = [list(columns)]
    for row in rows:
        cells.append(["" if x is None else fmt12(x) if not isinstance(x, str) else x for x in row])
    if fmt == "csv":
        return [",".join(row) for row in cells]
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    return ["  ".join(row[i].ljust(widths[i]) for i in range(len(columns))).rstrip() for row in cells]


def load_config(path: str) -> dict:
    """Parse a flat `key = value` config file; `#` starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        converter = _CONVERTERS.get(key)
        if converter is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = converter(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional config file, and CLI flags into a RunConfig."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    merged = load_config(path) if path else {}
    for key in _CONVERTERS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = tuple(value) if key == "grid" else value
    return RunConfig(command=args.command, explicit=frozenset(merged), **merged)


def _make_problem(config: RunConfig, n: int, l: int) -> ReducedProblem:
    params = PhysicalParams(config.mass, config.quad, config.lam, config.eta, config.kz, l)
    return ReducedProblem.from_params(params, n)


def _solve_states(problem: ReducedProblem) -> list[SpectralSolution]:
    """All quantized states for one (n, l) cell, ascending in omega."""
    return solve_cubic(problem) if problem.n == 1 else solve_frequency(problem)


def cmd_solve(config: RunConfig) -> tuple[int, list[str]]:
    states = _solve_states(_make_problem(config, config.n, config.l))
    rows = [
        (s.n, s.l, s.omega, s.energy, s.zeta_sq, s.node_count, s.residuals["truncation"])
        for s in states
    ]
    pairs = _physics_pairs(config) + [("l", config.l), ("n", config.n)]
    lines = _header_lines(config, pairs)
    lines += _render(_SOLVE_COLUMNS, rows, config.format or "table")
    return 0, lines


def _select_cells(config: RunConfig) -> tuple[list[tuple[str, object]], list[tuple[int, int]]]:
    """Validate the n-max / l-list range; return its header pairs and its n-major (n, l) cells."""
    if config.n_max < 1:
        raise ConfigError(f"n-max must be >= 1, got {config.n_max}")
    if config.n_max > MAX_DEGREE:
        raise ConfigError(f"n-max must be <= {MAX_DEGREE}, got {config.n_max}")
    if any(l == 0 for l in config.l_list):
        raise ZeroAngularMomentum("l must be nonzero: l-list contains 0")
    l_values = tuple(sorted(set(config.l_list)))
    pairs = [("n_max", config.n_max), ("l_list", l_values)]
    return pairs, [(n, l) for n in range(1, config.n_max + 1) for l in l_values]


def _scan_cell(problem: ReducedProblem) -> list[tuple]:
    """Rows of one (n, l) scan cell; a cell with no root or a numerical failure gives one status row."""
    n, l = problem.n, problem.physical.l
    blank = (None, None, None, None, None)
    try:
        states = _solve_states(problem)
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
    command that runs no threads of its own, and the child starts with numpy
    loaded where a spawned one would import it again. Without os.fork, w is 1.
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
    range_pairs, cells = _select_cells(config)
    # built before any cell is solved, so a configuration error exits 2 and is never a cell row
    problems = [_make_problem(config, n, l) for n, l in cells]
    per_cell = _run_cells(_scan_cell, problems, config.jobs)
    # each cell is ascending and the cells come in n-major task order, so rows need no sort
    rows = [row for cell in per_cell for row in cell]
    lines = _header_lines(config, _physics_pairs(config) + range_pairs)
    lines += _render(_SCAN_COLUMNS, rows, config.format or "csv")
    return 0, lines


def cmd_wavefunction(config: RunConfig) -> tuple[int, list[str]]:
    states = _solve_states(_make_problem(config, config.n, config.l))
    state = states[0]  # lowest quantized frequency
    wavefunction = normalize(state)
    rho_max = config.rho_max if config.rho_max is not None else suggested_rho_max(state)
    rows = wavefunction.sample(config.samples, rho_max)
    unresolved = [rho for rho, amplitude in rows if not math.isfinite(amplitude)]
    if unresolved:
        raise OverflowGuard(
            f"radial profile overflows at rho = {unresolved[0]:.6g} (rho_max = {rho_max:.6g})"
        )
    pairs = _physics_pairs(config) + [
        ("l", config.l),
        ("n", config.n),
        ("samples", config.samples),
        ("rho_max", rho_max),
    ]
    lines = _header_lines(config, pairs)
    lines += _render(_WAVEFUNCTION_COLUMNS, rows, config.format or "csv")
    return 0, lines


def _verify_grids(config: RunConfig) -> tuple[int, int]:
    if len(config.grid) == 0:
        coarse, refined = DEFAULT_GRID_N, 2 * DEFAULT_GRID_N
    elif len(config.grid) == 1:
        coarse, refined = config.grid[0], 2 * config.grid[0]
    else:
        coarse, refined = config.grid
    if coarse < 100:
        raise ConfigError(f"grid must have at least 100 points, got {coarse}")
    if refined <= coarse:
        raise ConfigError(f"refined grid must exceed coarse grid, got {coarse},{refined}")
    return coarse, refined


def _verify_cell(problem: ReducedProblem, config: RunConfig, grids: tuple[int, int]) -> list[tuple]:
    """(passed, line) of each state of one verify cell, or (None, its no-root line)."""
    n, l = problem.n, problem.physical.l
    try:
        states = _solve_states(problem)
    except NoRootInRange:
        return [(None, f"# no frequency root for n = {n}, l = {l}")]
    verdicts = []
    for i, state in enumerate(states):
        report = verify_solution(state, grid_n=grids[0], grid_n_refined=grids[1],
                                 rho_max=config.rho_max, perturb_omega=config.perturb_omega)
        verdicts.append((report.passed, (
            f"{'PASS' if report.passed else 'FAIL'} "
            f"n={n} l={l} root={i} omega={fmt12(state.omega)} "
            f"zeta_sq={fmt12(report.zeta_claim)} oracle={fmt12(report.zeta_oracle)} "
            f"deviation={fmt12(report.deviation)} refined={fmt12(report.deviation_refined)} "
            f"ratio={fmt12(report.ratio)}"
        )))
    return verdicts


def cmd_verify(config: RunConfig) -> tuple[int, list[str]]:
    grids = _verify_grids(config)
    if {"n_max", "l_list"} & config.explicit:
        cell_pairs, cells = _select_cells(config)
    else:
        cell_pairs, cells = [("l", config.l), ("n", config.n)], [(config.n, config.l)]
    pairs = _physics_pairs(config) + cell_pairs + [("grid", grids), ("perturb_omega", config.perturb_omega)]
    if config.rho_max is not None:
        pairs.append(("rho_max", config.rho_max))
    problems = [_make_problem(config, n, l) for n, l in cells]
    per_cell = _run_cells(lambda problem: _verify_cell(problem, config, grids), problems, config.jobs)
    verdicts = [verdict for cell in per_cell for verdict in cell]
    passed = [ok for ok, _ in verdicts if ok is not None]
    failed = passed.count(False)
    lines = _header_lines(config, pairs) + [line for _, line in verdicts]
    lines.append(f"# summary: {len(passed) - failed} passed, {failed} failed")
    return (3 if not passed else 1 if failed else 0), lines


# Exit code main returns for each error it reports; the first matching group wins.
_EXIT_CODES = (
    ((ConfigError, NonPositiveMass, ZeroAngularMomentum, VanishingCoupling, ValueError), 2),
    (NoRootInRange, 3),
    (HeunQESError, 1),
)

_HANDLERS = {
    "solve": cmd_solve,
    "scan": cmd_scan,
    "wavefunction": cmd_wavefunction,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--mass", type=float, help="atom mass m")
    shared.add_argument("--quad", type=float, help="magnetic quadrupole magnitude M")
    shared.add_argument("--lambda", dest="lam", type=float, help="field gradient lambda")
    shared.add_argument("--eta", type=float, help="linear confinement strength eta")
    shared.add_argument("--kz", type=float, help="axial wavenumber k")
    shared.add_argument("--config", help=f"config file path (default: ${CONFIG_ENV_VAR})")
    shared.add_argument("--output", help="write output to this file instead of stdout")
    shared.add_argument("--format", choices=("csv", "table"), help="data stream format")

    cell = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    cell.add_argument("--n", type=int, help="polynomial degree n >= 1")
    cell.add_argument("--l", type=int, help="angular momentum quantum number, l != 0")

    cell_range = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    cell_range.add_argument(
        "--n-max", dest="n_max", type=int, help=f"cells n = 1..n_max, n_max <= {MAX_DEGREE}"
    )
    cell_range.add_argument("--l-list", dest="l_list", type=_parse_int_list, help="e.g. 1,2,-1")
    cell_range.add_argument(
        "--jobs",
        type=int,
        help="processes that share the cells, this one included (default and cap: CPU count)",
    )

    parser = argparse.ArgumentParser(
        prog="heunqes",
        description="Quasi-exactly-solvable spectra of a trapped magnetic-quadrupole atom.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[shared, cell], help="quantized frequencies for one (n, l)")
    sub.add_parser("scan", parents=[shared, cell_range], help="sweep (n, l) cells to CSV")

    wavefunction = sub.add_parser(
        "wavefunction", parents=[shared, cell], help="sampled normalized radial profile"
    )
    wavefunction.add_argument("--samples", type=int, help="number of radial samples")
    wavefunction.add_argument("--rho-max", dest="rho_max", type=float, help="sampling radius")

    verify = sub.add_parser(
        "verify",
        parents=[shared, cell, cell_range],
        help="cross-check states against the finite-difference oracle",
    )
    verify.add_argument(
        "--grid",
        action="append",
        type=int,
        help="grid points; repeat for (coarse, refined), single value doubles",
    )
    verify.add_argument("--rho-max", dest="rho_max", type=float, help="override box radius")
    verify.add_argument(
        "--perturb-omega",
        dest="perturb_omega",
        type=float,
        help="multiply the verified frequency (negative control)",
    )
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


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = build_config(args)
        code, lines = _HANDLERS[config.command](config)
        _emit(lines, config.output)
        return code
    except (ConfigError, ValueError, HeunQESError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
