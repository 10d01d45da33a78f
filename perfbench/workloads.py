"""The three workloads: spectrum, verify and cli.

Every workload is a closed loop with one client in one process: a warm-up
pass over a fixed work list built from the seed, then whole passes over the
same list until the requested seconds have passed. Checks run on the outputs
after the timed loop, so they cost no measured time.
"""

from __future__ import annotations

import io
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
from checks import Claim
from heunqes import quantize, wavefunction
from heunqes.model import PhysicalParams
from spans import Tracer

SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
MAX_DEGREE = 50  # spectrum degrees span 1..MAX_DEGREE
L_VALUES = (1, -1, 2, -2, 3, -3)
CELLS_PER_DEGREE = 2  # spectrum cells per degree, with distinct l
VERIFY_DEGREES = range(1, 13)
VERIFY_L = (1, -1, 2)
CHILD_TIMEOUT_S = 120
CAL_LOOPS = 50_000  # about 3 ms per calibration loop
LAPACK_CAL_N = 1500  # about 3 ms per calibration bisection
REFERENCE_YARDSTICK_S = 0.3  # the cli yardstick's time on the reference host

# Each layer is a function of a heunqes module, wrapped wherever it is bound.
# Modules a workload never imports stay unloaded, so its memory and set-up
# stay its own.
LAYERS = {
    ("series", "_raw_coefficients"): ("recurrence", None),
    ("wavefunction", "count_positive_roots"): ("node_count", None),
    ("quantize", "solve_cubic"): ("solve", None),
    ("quantize", "solve_frequency"): ("solve", None),
    ("wavefunction", "normalize"): ("normalize", None),
    ("oracle", "eigenvalues"): ("eigen", ("grid_points", lambda spec, *_, **__: spec.n_grid)),
    ("oracle", "verify_solution"): ("verify", None),
    ("cli", "main"): ("main", None),
}


def loaded_layers() -> tuple[list, dict]:
    """The loaded heunqes modules, and LAYERS keyed by module object."""
    modules = {name: sys.modules.get(f"heunqes.{name}") for name, _ in LAYERS}
    layers = {(modules[name], attr): layer for (name, attr), layer in LAYERS.items() if modules[name]}
    return [m for m in modules.values() if m], layers


@dataclass
class Pass:
    busy: float  # seconds inside the operations
    cal: float  # seconds of the calibration loops run beside them
    kernels: int  # calibration loops run
    attempted: int
    failed: int
    states: int
    signature: tuple  # everything a repeated pass must reproduce exactly
    outcomes: object = None  # kept for the warm-up pass only, which is checked
    walls: dict | None = None  # cli: seconds per command

    @property
    def cost(self) -> float:
        """Mean operation time in units of one calibration loop."""
        return (self.busy / self.attempted) / (self.cal / self.kernels)


@dataclass
class Context:
    seed: int
    seconds: float
    tracer: Tracer | None
    root: Path  # checkout root, where child processes run
    env: dict


# The host's speed swings by tens of percent within seconds, and every
# operation slows down with it. Each operation is therefore timed right after
# a fixed yardstick of the same kind of work, and op_cost_cal is the mean
# operation time in units of that yardstick, so the swings cancel. The
# yardsticks do not touch heunqes, so a change to the program moves only the
# numerator.


def loop_calibration_s() -> float:
    """Seconds of a fixed pure-Python float loop: the yardstick of spectrum."""
    start = perf_counter()
    x = 1.0
    for _ in range(CAL_LOOPS):
        x = x * 1.0000001 + 1e-9
    return perf_counter() - start


def lapack_calibration():
    """Seconds of a fixed LAPACK tridiagonal eigenvalue bisection: the yardstick of verify.

    The oracle spends almost all of verify's time in that routine, and it
    follows the host's swings differently from a Python loop.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    diagonal, off = 2.0 + np.linspace(0.0, 1.0, LAPACK_CAL_N) ** 2, -np.ones(LAPACK_CAL_N - 1)

    def run() -> float:
        start = perf_counter()
        eigh_tridiagonal(diagonal, off, eigvals_only=True, select="i", select_range=(0, 4), tol=1e-14)
        return perf_counter() - start

    return run


def child_calibration(ctx: Context):
    """Seconds of a fresh interpreter importing numpy and scipy.linalg: the yardstick of cli.

    Interpreter start and imports are most of a command's time, and a loop
    run in the parent right after it waited for a child runs at another
    speed than the children, so whole commands are measured against a whole
    process doing the same kind of work.
    """

    def run() -> float:
        start = perf_counter()
        child(ctx, ["-c", "import numpy, scipy.linalg"])
        return perf_counter() - start

    return run


class Meter:
    """Times the operations of one pass, each after a calibration run."""

    def __init__(self, tracer: Tracer | None, calibrate=loop_calibration_s) -> None:
        self.tracer = tracer
        self.calibrate = calibrate
        self.busy = self.cal = 0.0
        self.kernels = 0
        self._span = tracer.begin("pass") if tracer else None

    @contextmanager
    def op(self):
        self.cal += self.calibrate()
        self.kernels += 1
        start = perf_counter()
        try:
            yield
        finally:
            self.busy += perf_counter() - start

    def done(self, attempted, failed, states, signature, outcomes=None, walls=None) -> Pass:
        if self.tracer:
            self.tracer.end(self._span)
        return Pass(self.busy, self.cal, self.kernels, attempted, failed, states, signature, outcomes, walls)


def child(ctx: Context, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def command(ctx: Context, argv: list[str]) -> tuple[int, str, float]:
    """Run `python3 -m heunqes *argv` as a user would.

    Returns the exit code, stdout and the peak RSS in MB of the process and
    the workers it waited for, from os.wait4, so the benchmark's other child
    processes do not count. Stderr is dropped.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "heunqes", *argv], cwd=ctx.root, env=ctx.env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def setup_seconds(ctx: Context, modules: str) -> tuple[float, float]:
    """Import time of `modules` in a fresh interpreter, in reference seconds.

    Each of SETUP_SAMPLES imports is timed inside its interpreter right after
    the cli yardstick process, and rescaled to a host on which that yardstick
    takes REFERENCE_YARDSTICK_S; the result is the median. The host's speed
    shifted by 30% between sets of runs half an hour apart, which a raw
    import time would carry into the comparison. One unmeasured pair runs
    first, so bytecode caches exist. Returns (median in reference seconds,
    raw median).
    """
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    yardstick, raw, scaled = child_calibration(ctx), [], []
    for _ in range(SETUP_SAMPLES + 1):
        reference = yardstick()
        done = child(ctx, ["-c", code])
        if done.returncode != 0:
            raise RuntimeError(f"import {modules} failed: {done.stderr.strip()}")
        raw.append(float(done.stdout))
        scaled.append(raw[-1] * REFERENCE_YARDSTICK_S / reference)
    print(f"import {modules}: raw median {statistics.median(raw[1:]):.4f} s", file=sys.stderr)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(ctx: Context, run_pass) -> tuple[Pass, Pass | None, list[Pass]]:
    """Warm-up pass, then measured passes; traced runs add one untraced pass first.

    A traced run counts the warnings of its warm-up pass. Returns (warm-up,
    untraced reference or None, measured passes).
    """
    with ctx.tracer.counting_warnings() if ctx.tracer else nullcontext():
        warm = run_pass(None)
    reference = run_pass(None) if ctx.tracer else None
    if ctx.tracer:
        ctx.tracer.install(*loaded_layers())
    passes, start = [], perf_counter()
    try:
        while not passes or perf_counter() - start < ctx.seconds:
            passes.append(run_pass(ctx.tracer))
            passes[-1].outcomes = None
    finally:
        if ctx.tracer:
            ctx.tracer.uninstall()
    return warm, reference, passes


def solve_cell(n: int, params: PhysicalParams) -> list:
    problem = quantize.ReducedProblem.from_params(params, n)
    return quantize.solve_cubic(problem) if n == 1 else quantize.solve_frequency(problem)


def claim_of(params: PhysicalParams, state) -> Claim:
    return Claim(state.n, params.l, params.mass, params.quad, params.lam, params.eta, params.kz,
                 state.omega, state.energy, state.zeta_sq)


def cell_ok(n: int, claims: list[Claim]) -> bool:
    return (
        checks.ascending([c.omega for c in claims])
        and all(checks.state_ok(c) for c in claims)
        and (n != 1 or checks.cubic_match(claims))
    )


def repeated(warm: Pass, passes: list[Pass]) -> bool:
    return all(p.signature == warm.signature for p in passes)


# --- spectrum -------------------------------------------------------------


def spectrum_cells(seed: int) -> list[tuple[int, PhysicalParams]]:
    """CELLS_PER_DEGREE cells for every degree 1..MAX_DEGREE, each with its own l.

    m, |M lambda| and |eta| are log-uniform in [0.1, 10] and eta takes both
    signs equally often. Each is drawn stratified over the whole list (one
    draw per equal-probability slice, in seeded order), and every l occurs
    equally often, so the cost of a pass hardly depends on the seed.
    """
    rng = random.Random(seed)
    count = MAX_DEGREE * CELLS_PER_DEGREE

    def stratified():
        draws = [10.0 ** (2.0 * (i + rng.random()) / count - 1.0) for i in range(count)]
        rng.shuffle(draws)
        return draws

    masses, couplings, etas = stratified(), stratified(), stratified()
    signs = [1.0, -1.0] * (count // 2)
    rng.shuffle(signs)
    # Consecutive pairs of a shuffled L_VALUES never repeat an l within a degree.
    ls = [l for _ in range(-(-count // len(L_VALUES))) for l in rng.sample(L_VALUES, len(L_VALUES))]
    return [
        (1 + i // CELLS_PER_DEGREE,
         PhysicalParams(mass=masses[i], quad=couplings[i], lam=1.0, eta=signs[i] * etas[i], kz=0.0, l=ls[i]))
        for i in range(count)
    ]


def spectrum(ctx: Context) -> tuple[dict, dict]:
    cells = spectrum_cells(ctx.seed)

    def run_pass(tracer):
        meter, outcomes = Meter(tracer), []
        for n, params in cells:
            with meter.op():
                try:
                    outcomes.append(solve_cell(n, params))
                except Exception as exc:  # a failed operation, counted below
                    outcomes.append(exc)
        failed = sum(isinstance(o, Exception) for o in outcomes)
        signature = tuple(
            type(o).__name__ if isinstance(o, Exception) else tuple(s.omega for s in o) for o in outcomes
        )
        states = sum(len(o) for o in outcomes if not isinstance(o, Exception))
        return meter.done(len(cells), failed, states, signature, outcomes)

    setup, _ = setup_seconds(ctx, "heunqes")
    warm, reference, passes = closed_loop(ctx, run_pass)
    solved = [
        (n, [claim_of(params, s) for s in out])
        for (n, params), out in zip(cells, warm.outcomes)
        if not isinstance(out, Exception)
    ]
    correct = repeated(warm, passes) and all(cell_ok(n, claims) for n, claims in solved)
    missed = checks.negative_control(
        [next(c for n, c in solved if n == 1), next(c for n, c in solved if n > 1)[:1]]
    )
    metrics = {
        "states_found": (warm.states, "count"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return summary(ctx, warm, reference, passes, correct, missed, metrics)


# --- verify ---------------------------------------------------------------


def verify(ctx: Context) -> tuple[dict, dict]:
    from heunqes import oracle

    cells = [(n, l) for n in VERIFY_DEGREES for l in VERIFY_L]
    random.Random(ctx.seed).shuffle(cells)

    yardstick = lapack_calibration()

    def run_pass(tracer):
        meter, outcomes = Meter(tracer, yardstick), []
        for n, l in cells:
            params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=l)
            with meter.op():
                try:
                    for state in solve_cell(n, params):
                        wave = wavefunction.normalize(state)
                        report = oracle.verify_solution(state)
                        outcomes.append((params, state, wave.norm_constant, report.passed))
                except Exception as exc:  # a failed operation, counted below
                    outcomes.append(exc)
        failed = sum(isinstance(o, Exception) or not o[3] for o in outcomes)
        signature = tuple(
            type(o).__name__ if isinstance(o, Exception) else (o[1].omega, o[3]) for o in outcomes
        )
        states = sum(not isinstance(o, Exception) for o in outcomes)
        return meter.done(len(outcomes), failed, states, signature, outcomes)

    setup, _ = setup_seconds(ctx, "heunqes, heunqes.oracle")
    warm, reference, passes = closed_loop(ctx, run_pass)
    solved = [o for o in warm.outcomes if not isinstance(o, Exception)]
    by_cell: dict = {}
    for params, state, norm, _ in solved:
        by_cell.setdefault((state.n, params.l), []).append(claim_of(params, state))
    correct = (
        repeated(warm, passes)
        and all(cell_ok(n, claims) for (n, _), claims in by_cell.items())
        and all(checks.normalized_ok(claim_of(p, s), norm) for p, s, norm, _ in solved)
    )
    ground = next(o for o in solved if o[1].n == 1)
    missed = checks.negative_control([[claim_of(ground[0], ground[1])]], ground[2])
    metrics = {
        "states_found": (warm.states, "count"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return summary(ctx, warm, reference, passes, correct, missed, metrics)


# --- cli ------------------------------------------------------------------


def cli_commands() -> dict[str, list[str]]:
    # The scan keeps its process pool on, never wider than two usable cores.
    jobs = str(min(2, len(os.sched_getaffinity(0))))
    return {
        "solve": ["solve"],
        "wavefunction": ["wavefunction", "--n", "5"],
        "scan": ["scan", "--n-max", "20", "--l-list", "1,2,3,-1,-2,-3", "--jobs", jobs],
        "verify": ["verify"],
    }


def header_claim(lines: list[str], n: int, l: int, omega: float, energy: float, zeta_sq: float) -> Claim:
    """Claim with the physics parameters echoed in the `# key = value` header."""
    echo = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# ") and " = " in line)
    return Claim(n, l, float(echo["mass"]), float(echo["quad"]), float(echo["lambda"]),
                 float(echo["eta"]), float(echo["kz"]), omega, energy, zeta_sq)


def data_rows(text: str, sep: str | None) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    body = [line.split(sep) for line in lines if not line.startswith("#")]
    return lines, body[1:]


def cli_states(outputs: dict) -> tuple[bool, int, list[Claim]]:
    """Check the four commands' stdout; returns (ok, states printed, control claims)."""
    lines, rows = data_rows(outputs["solve"], None)
    solve = [header_claim(lines, int(r[0]), int(r[1]), *map(float, r[2:5])) for r in rows]
    ok = cell_ok(1, solve) and checks.cubic_match(solve, rtol=1e-11)

    _, rows = data_rows(outputs["wavefunction"], ",")
    integral, error = checks.sampled_norm([float(r[0]) for r in rows], [float(r[1]) for r in rows])
    ok = ok and abs(integral - 1.0) <= 10.0 * error + 1e-9

    lines, rows = data_rows(outputs["scan"], ",")
    ok = ok and bool(rows) and all(r[8] == "ok" for r in rows)
    scan: dict = {}
    for r in rows if ok else []:
        scan.setdefault((int(r[0]), int(r[1])), []).append(
            header_claim(lines, int(r[0]), int(r[1]), *map(float, r[3:6]))
        )
    ok = ok and all(cell_ok(n, claims) for (n, _), claims in scan.items())

    lines = outputs["verify"].splitlines()
    verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    tokens = dict(t.split("=", 1) for t in verdicts[0].split()[1:]) if verdicts else {}
    ok = ok and len(verdicts) == 1 and verdicts[0].startswith("PASS")
    ok = ok and lines[-1] == "# summary: 1 passed, 0 failed"
    ok = ok and abs(float(tokens.get("omega", "nan")) - solve[0].omega) <= 1e-11 * solve[0].omega

    states = len(solve) + 1 + sum(map(len, scan.values())) + len(verdicts)
    control = [solve] + [cs[:1] for (n, _), cs in sorted(scan.items()) if n == 2][:1]
    return ok, states, control


def cli_workload(ctx: Context) -> tuple[dict, dict]:
    commands = cli_commands()
    order = list(commands)
    random.Random(ctx.seed).shuffle(order)

    yardstick = child_calibration(ctx)

    peak_mb = []  # of every command process run

    def process_round(_tracer):
        meter, walls, stdout, failed = Meter(None, yardstick), {}, {}, 0
        for name in order:
            before = meter.busy
            with meter.op():
                code, stdout[name], rss = command(ctx, commands[name])
            walls[name] = meter.busy - before
            failed += code != 0
            peak_mb.append(rss)
        return meter.done(len(order), failed, 0, tuple(sorted(stdout.items())), stdout, walls)

    def main_round(tracer):
        from heunqes import cli

        meter, stdout = Meter(tracer), {}
        for name in order:
            buffer = io.StringIO()
            with meter.op(), redirect_stdout(buffer):
                code = cli.main(list(commands[name]))
            stdout[name] = buffer.getvalue() if code == 0 else f"exit {code}"
        return meter.done(len(order), 0, 0, tuple(sorted(stdout.items())))

    setup, raw_import = setup_seconds(ctx, "heunqes.cli")
    if ctx.tracer:
        # Per-layer numbers come from in-process cli.main rounds, each paired
        # with a round of whole processes for the process overhead.
        warm, paired = process_round(None), []

        def traced_round(tracer):
            main = main_round(tracer)
            if tracer:
                paired.append(process_round(None))
            return main

        _, reference, passes = closed_loop(ctx, traced_round)
        in_process = [p.signature for p in passes + [reference]]
    else:
        warm, reference, passes = closed_loop(ctx, process_round)
        in_process, paired = [], passes
    try:
        ok, states, control = cli_states(warm.outcomes)
    except (ValueError, IndexError, KeyError, StopIteration) as exc:  # unparsable output
        print(f"cli output not understood: {exc!r}", file=sys.stderr)
        ok, states, control = False, 1, []
    correct = ok and repeated(warm, paired) and all(sig == warm.signature for sig in in_process)
    for p in passes:
        p.states = states
    cal = sum(p.cal for p in paired) / sum(p.kernels for p in paired)
    for name in order:
        wall = statistics.median(p.walls[name] for p in paired)
        print(f"cli {name}: median {1000 * wall:.1f} ms, {wall / cal:.1f} cal", file=sys.stderr)
    metrics = {
        "states_found": (states, "count"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(peak_mb), "MB"),
    }
    extra = {}
    if ctx.tracer:
        walls = sum(p.busy for p in paired)
        mains = sum(end - start for _, _, name, start, end in ctx.tracer.spans if name == "main")
        extra = {
            "cli_main_pct": 100.0 * mains / walls,
            "cli_process_overhead_pct": 100.0 * (1.0 - mains / walls),
            "cli_import_pct": 100.0 * raw_import * len(order) * len(paired) / walls,
        }
    return summary(ctx, warm, reference, passes, correct, checks.negative_control(control), metrics, extra)


# --- results --------------------------------------------------------------


def summary(ctx, warm, reference, passes, correct, missed, metrics, cli_extra=None):
    """The result object, with end-to-end metrics or, in a traced run, per-layer ones."""
    if missed:
        print(f"negative control not rejected by: {', '.join(missed)}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    busy = sum(p.busy for p in passes)
    cost = (busy / attempted) / (sum(p.cal for p in passes) / sum(p.kernels for p in passes))
    print(
        f"warm-up {warm.busy:.2f} s; {len(passes)} passes of " + " ".join(f"{p.busy:.2f}" for p in passes)
        + f" s; {attempted / busy:.4g} ops/s; {cost:.4g} cal per op",
        file=sys.stderr,
    )
    result = {
        "correct": bool(correct) and not missed,
        "attempted": attempted,
        "failed": sum(p.failed for p in passes),
    }
    if ctx.tracer is None:
        return result, {"op_cost_cal": (cost, "cal"), **metrics}
    return result, layer_metrics(ctx.tracer, reference, passes, cli_extra or {})


def layer_metrics(tracer: Tracer, reference: Pass, passes: list[Pass], cli_extra: dict) -> dict:
    calls, own = tracer.layer_totals()
    k = len(passes)
    busy = sum(p.busy for p in passes)
    states = sum(p.states for p in passes)

    def pct(name):
        return (100.0 * own[name] / busy, "%")

    def per_pass(count):
        return (count / k, "count")

    return {
        "pass_s": (statistics.median(p.busy for p in passes), "s"),
        "tracing_overhead_pct": (100.0 * (statistics.median(p.cost for p in passes) / reference.cost - 1.0), "%"),
        "recurrence_calls": per_pass(calls["recurrence"]),
        "recurrence_pct": pct("recurrence"),
        "recurrence_calls_per_state": (calls["recurrence"] / states, "calls/state"),
        "solve_calls": per_pass(calls["solve"]),
        "solve_self_pct": pct("solve"),
        "node_count_calls": per_pass(calls["node_count"]),
        "node_count_pct": pct("node_count"),
        "normalize_calls": per_pass(calls["normalize"]),
        "normalize_pct": pct("normalize"),
        "eigen_calls": per_pass(calls["eigen"]),
        "eigen_pct": pct("eigen"),
        "grid_points": per_pass(tracer.counts["grid_points"]),
        "verify_self_pct": pct("verify"),
        "overflow_warnings": (tracer.counts["runtime_warnings"], "count"),
        **{name: (cli_extra.get(name, 0.0), "%") for name in
           ("cli_main_pct", "cli_process_overhead_pct", "cli_import_pct")},
    }


WORKLOADS = {"spectrum": spectrum, "verify": verify, "cli": cli_workload}
