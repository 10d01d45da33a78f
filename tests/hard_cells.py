"""The hard cells: one row per command line whose outcome the package's trust rests on.

A row (Cell) is a command line and what it must give: the exit code, and
either no stdout and one `error:` line on stderr, or no stderr and a stdout
whose last line, data-row count and status column are as stated. No stdout
holds a nan, and both runners turn a RuntimeWarning into an error. check()
reads one run's (exit code, stdout, stderr) against a row; faults() also
runs the row's byte-identical variants and its header replay. A new hard cell
is one more row of CELLS.

Two runners read the table. tests/test_hard_cells.py runs every row in
process through heunqes.cli.main, a row with `xfail` as a strict expected
failure. This script runs the other rows through `python -m heunqes`; from
the repository root:

    PYTHONPATH=src:tests python tests/hard_cells.py
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from heunqes.cli import CONFIG_ENV_VAR


@dataclass(frozen=True)
class Cell:
    """One hard cell.

    argv: the command and its flags, split on spaces. {config} stands for a
        file that holds config; where argv has no {config}, the file is
        named by HEUNQES_CONFIG instead.
    error: what stderr's one line holds after 'error: ', at its start, with
        {config} as in argv; stdout must be empty. Without it, stderr must be.
    last: the last line of stdout, such as verify's summary.
    rows: the data rows after the column header: their number, or a range
        that holds it.
    status: the last field of every data row.
    same_as: command lines whose exit code, stdout and stderr are the row's,
        byte for byte.
    replay: the command on a config file of the leading header's
        `key = value` lines gives the same bytes.
    source: the CHANGES.md or ROADMAP entry the row comes from.
    xfail: the ROADMAP direction that mends a row which fails today.
    """

    argv: str
    code: int
    source: str
    error: str | None = None
    last: str | None = None
    rows: int | range | None = None
    status: str | None = None
    config: str | None = None
    same_as: tuple[str, ...] = ()
    replay: bool = False
    xfail: str | None = None

    def __str__(self) -> str:
        return self.argv + (f" <{self.config.strip()}>".replace("\n", "; ") if self.config else "")


def check(cell: Cell, code: int, out: str, err: str, config: str = "") -> list[str]:
    """How one run's (exit code, stdout, stderr) differs from the row; empty when it passes."""
    found = [] if code == cell.code else [f"exit {code}, expected {cell.code}"]
    if cell.error is not None:
        line = "error: " + cell.error.replace("{config}", config)
        if out or not (err.startswith(line) and err.count("\n") == 1 and err.endswith("\n")):
            found.append(f"expected no stdout and one line starting {line!r}; got {len(out)} characters, {err!r}")
        return found
    lines = out.splitlines()
    data = [line for line in lines if not line.startswith("#")][1:]
    rows = cell.rows if isinstance(cell.rows, range) else [cell.rows]
    found += [f"stderr {err!r}"] if err else []
    found += ["nan in stdout"] if re.search(r"\bnan\b", out) else []
    found += [f"last line {lines[-1:]}, expected {cell.last!r}"] if cell.last and lines[-1:] != [cell.last] else []
    found += [f"{len(data)} data rows, expected {cell.rows}"] if cell.rows is not None and len(data) not in rows else []
    if cell.status is not None and any(line.rsplit(",", 1)[-1] != cell.status for line in data):
        found.append(f"a data row's status is not {cell.status!r}")
    return found


def faults(cell: Cell, run) -> list[str]:
    """check() of the row's run, and each same_as command and header replay that differs from it.

    run(argv, config_env) gives (exit code, stdout, stderr) of one command
    line, with HEUNQES_CONFIG set to config_env, or unset where it is None.
    """
    with tempfile.TemporaryDirectory() as tmp:
        config, replay = os.path.join(tmp, "cell.cfg"), os.path.join(tmp, "replay.cfg")
        Path(config).write_text(cell.config or "")
        in_env = cell.config is not None and "{config}" not in cell.argv
        result = run(cell.argv.replace("{config}", config).split(), config if in_env else None)
        found = check(cell, *result, config)
        found += [f"{argv!r} differs" for argv in cell.same_as if run(argv.split(), None) != result]
        if cell.replay:
            header = itertools.takewhile(lambda line: line.startswith("#"), result[1].splitlines())
            keys = [line[2:] for line in header if " = " in line and not line.startswith("# no frequency root")]
            Path(replay).write_text("\n".join(keys) + "\n")
            if run([cell.argv.split()[0], "--config", replay], None) != result:
                found.append("its header's replay differs")
    return found


def jobs(argv: str) -> tuple[str, ...]:
    """argv at --jobs 1, 2 and 3."""
    return tuple(f"{argv} --jobs {workers}" for workers in (1, 2, 3))


BENCHMARK = "CHANGES.md: Benchmark added (the verify workload and its 1.05 omega controls)"
ONE_BOX = "CHANGES.md: One box per state"
TINY_ETA = "CHANGES.md: The oracle answers one question ...; typed tiny-|eta| overflow"
CONFIG = "CHANGES.md: A config-file key is its flag"
CLI_HOME = "CHANGES.md: One home per CLI decision"
LADDER = "ROADMAP Direction C: the gamma ladder, floor((n+1)/2) roots where eta M lambda l > 0"
NEAR_ZERO_ZETA = "CHANGES.md FOUND: three random-sweep states fail verify only because |zeta^2| is near zero"
UNDERFLOW = "--mass 2.9310929663982757e-40 --quad 6.773586822100118e-98 --eta 0"

CELLS = [
    # the verify workload at m = M = lambda = eta = 1: 132 states, and at 1.05 omega the 64 of n <= 8
    Cell("verify --n-max 12 --l-list 1,-1,2", 0, BENCHMARK, last="# summary: 132 passed, 0 failed",
         same_as=jobs("verify --n-max 12 --l-list 1,-1,2")),
    Cell("verify --n-max 8 --l-list 1,-1,2 --perturb-omega 1.05", 1, BENCHMARK, last="# summary: 0 passed, 64 failed",
         same_as=jobs("verify --n-max 8 --l-list 1,-1,2 --perturb-omega 1.05")),
    Cell("scan --n-max 50 --l-list 1,-1,2,-2 --jobs 1", 0, "ROADMAP Direction M: the 2,650 ok rows of the CI scan",
         rows=2650, status="ok", same_as=jobs("scan --n-max 50 --l-list 1,-1,2,-2")[1:]),
    Cell("verify --mass 0.005511577305479499 --quad 74.21740078574345 --eta 0.1392140738945987 --l -3", 0,
         "CHANGES.md: One root test for both frequency routes (the wide-separation n = 1 cubic)",
         last="# summary: 3 passed, 0 failed"),
    Cell("verify --n 2 --l -1 --mass 0.01 --quad 10 --eta 1e-15", 0,
         "CHANGES.md MENDED: both box formulas cancel to 0 at large positive alpha",
         last="# summary: 3 passed, 0 failed"),
    Cell("verify --n 26 --l -5 --mass 0.535365 --quad 42.8981 --eta 0.285521", 0, ONE_BOX,
         last="# summary: 40 passed, 0 failed"),
    Cell("solve --eta 1e-14", 0, "CHANGES.md MENDED: quantize.solve_cubic keeps a spurious n = 1 root", rows=1),
    Cell("solve --n 34 --mass 6.13e-4 --quad 1603.4 --eta -0.286 --l 5", 0,
         "CHANGES.md MENDED: quantize._brackets_root multiplies the two probe values", rows=52),
    Cell("wavefunction --rho-max 1e150 --n 3", 0, "CHANGES.md MENDED: series.evaluate_H's Horner sum overflows",
         rows=512),
    # overflow at the ends of the double range is one error line
    *(Cell(f"verify --perturb-omega {factor}", 1, "CHANGES.md: The oracle loads LAPACK dstebz alone ...",
           error="finite-difference operator overflows") for factor in ("1e200", "3e153")),
    *(Cell(f"solve {flag}", 1, "CHANGES.md: Rayleigh-quotient oracle window, typed cubic and envelope overflow",
           error="ground-state cubic overflows")
      for flag in ("--mass 1e-60", "--mass 1e-200", "--mass 1e-320", "--eta 1e80")),
    *(Cell(f"wavefunction --rho-max {rho_max}", 1, "CHANGES.md MENDED: series.radial_ansatz leaks RuntimeWarning",
           error="radial envelope overflows") for rho_max in ("1e300", "1e160")),
    *(Cell(f"solve --eta {eta} --n 4", 1, TINY_ETA, error="frequency companion overflows")
      for eta in ("1e-300", "1e-250", "1e-210", "5e-324", "-5e-324")),
    Cell(f"solve {UNDERFLOW} --l=-5", 1, "CHANGES.md MENDED: quantize._energies raises an untyped ZeroDivisionError",
         error="energy or zeta^2 leaves the double range"),
    Cell("solve --mass 9.392263089218397e+211 --quad 1.368307824923521e-12 --eta 1.731383107406301e+146 --l 1 --n 6",
         1, "CHANGES.md MENDED: quantize frequency companion (sigma^2 underflows)",
         error="frequency companion overflows"),
    Cell("solve --mass 2.473241998978134e-287 --quad 5.341722406817056e+89 --eta 3.333981093116267e-295 --l 5 --n 2",
         1, "CHANGES.md MENDED: quantize._candidate_frequencies (m u underflows)",
         error="omega must be finite and > 0, got inf"),
    # bad input is exit 2; a value out of range in a file names the file and line, though the command ignores the key
    Cell("scan --n-max 2 --l-list 1,2 --quad 0", 2, CLI_HOME, error="M*lambda must be nonzero"),
    Cell("verify --n 3 --l-list 1", 2, CLI_HOME, error="verify takes one cell (--n/--l) or a range"),
    Cell("verify --rho-max 5", 2, "CHANGES.md: verify takes only the inputs it uses",
         error="unrecognized arguments: --rho-max 5"),
    Cell("solve --format xml", 2, CLI_HOME, error="argument --format: invalid choice: 'xml'"),
    Cell("verify --perturb-omega -1", 2, CLI_HOME, error="perturb_omega must be positive and finite, got -1.0"),
    Cell("solve --output /nonexistent/dir/x.csv", 2, CLI_HOME, error="cannot write output file"),
    Cell("verify --config {config}", 2, "CHANGES.md: verify takes only the inputs it uses", config="grid = 4000,8000",
         error="{config}:1: argument --grid: invalid int value: '4000,8000'"),
    *(Cell(f"{command} --config {{config}}", 2, CONFIG, config=line, error=f"{{config}}:1: {message}") for command, line, message in [
        ("solve", "bogus = 1", "unrecognized arguments: --bogus=1"),
        ("solve", "format = xml", "argument --format: invalid choice: 'xml'"),
        ("solve", "samples = 1", "samples must be >= 2, got 1"),
        ("solve", "mass = -1", "mass must be > 0, got -1.0"),
        ("scan --n-max 1 --l-list 1", "l = 0", "l must be nonzero"),
        ("solve", "l-list = 0,1", "l must be nonzero"),
    ]),
    # keys of other commands in HEUNQES_CONFIG change nothing; headers replay; a negative l-list parses
    Cell("solve", 0, CONFIG, config="jobs = 2\ngrid = 500\n", rows=1, same_as=("solve",)),
    Cell("verify --n-max 2 --l-list 1,-1 --grid 500", 0, CLI_HOME, last="# summary: 5 passed, 0 failed", replay=True),
    Cell("wavefunction --n 3 --samples 64", 0, ONE_BOX, rows=64, replay=True),
    Cell("scan --n-max 2 --l-list -1,1", 0, "CHANGES.md MENDED: cli.build_parser takes a negative --l-list for an option",
         rows=5, status="ok", same_as=("scan --n-max 2 --l-list=-1,1",)),
    # the same-sign gamma ladder at m = M lambda = l = 1, eta = gamma/2, gamma = 1e-8 ... 1e-24
    *(Cell(f"solve --n {n} --eta 5e-{e + 1}", 0, LADDER, rows=(n + 1) // 2,
           xfail="Direction C" if e >= (20 if n == 34 else 18) else None)
      for n in (2, 10, 34) for e in range(8, 26, 2)),
    # at least ceil(35/2) roots of that parity, at most the companion's 52
    Cell("solve --n 34 --eta -5e-19", 0, "ROADMAP Direction C: n = 34, gamma <= -1e-18 exits 1 with |c_35| > 1e+250",
         rows=range(18, 53, 2), xfail="Direction C step 3"),
    Cell("solve --mass 0.01 --quad 10 --eta 1e-15 --n 10", 0,
         "ROADMAP Baseline: incomplete root sets at small |gamma|", rows=5, xfail="Direction C"),
    Cell("verify --n 12 --l -1 --mass 1.7677712322773462 --quad 8.105670625544601 --eta 3.2469292453018697", 0,
         NEAR_ZERO_ZETA, last="# summary: 7 passed, 0 failed", xfail="Direction J"),
    Cell("verify --n 15 --l 1 --mass 0.1392356559716343 --quad 3.458707975855643 --eta -3.196203381968495", 0,
         NEAR_ZERO_ZETA, last="# summary: 8 passed, 0 failed", xfail="Direction J"),
    Cell("verify --n 9 --l 2 --mass 0.14181675460294363 --quad 2.185477231607953 --eta -0.8733617452611226", 0,
         NEAR_ZERO_ZETA, last="# summary: 5 passed, 0 failed", xfail="Direction J"),
    # its printed profile misses the oracle's eigenvector; Direction G step 1 must change this row
    Cell("verify --n 20 --l -1 --mass 1.7611785596585996 --quad 3.0449066208476165 --eta -4.793980255836022", 0,
         "ROADMAP Direction G: the recorded case", last="# summary: 10 passed, 0 failed"),
]


def run_entry_point(argv: list[str], config_env: str | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -W error::RuntimeWarning -m heunqes` on argv."""
    env = {key: value for key, value in os.environ.items() if key != CONFIG_ENV_VAR}
    env.update({CONFIG_ENV_VAR: config_env} if config_env else {})
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "heunqes", *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    checked = [cell for cell in CELLS if cell.xfail is None]
    failed = 0
    for cell in checked:
        found = faults(cell, run_entry_point)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok'} {cell}" + "".join(f"\n    {fault}" for fault in found))
    print(f"{len(checked)} hard cells, {failed} failed ({len(CELLS) - len(checked)} rows left to tier-1 as xfail)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
