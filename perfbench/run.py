"""matint benchmark harness.

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 30 --trace 0

Generates the workload's batch of input files from the seed, then calls
``matint.cli.main(argv)`` on each of its calls in this process, one after
another (a closed loop with one client), with stdout captured. Each call's
exit code and ``RESULT:`` line are checked against the expected answer.
The batch repeats while another repetition fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics. ``--smoke``
runs the smallest batch once. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the harness exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
from clock import SpeedClock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 7
HARD_LIMIT_S = 170.0        # a run must end within 180 s
SETUP_CODE = "import matint.cli; matint.cli.build_parser()"


class Overrun(BaseException):
    """Raised by the alarm when the run is about to exceed its time limit."""


def _alarm(signum, frame):
    raise Overrun()


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_matint():
    if not (SRC / "matint" / "cli.py").is_file():
        _fail(f"{SRC / 'matint'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import matint.cli
    if Path(matint.cli.__file__).resolve().parent != SRC / "matint":
        _fail(f"imported matint from {matint.cli.__file__}, not {SRC}")
    return matint.cli


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> float:
    """Median CPU time of a fresh interpreter importing matint.cli and
    building its parser (one untimed run first fills the bytecode cache)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(_children_cpu() - t0)
    return statistics.median(times)


class Runner:
    """Runs a batch's calls through the CLI and records what came back.

    Times are this process's CPU time, corrected for the host's speed by
    ``clock`` (see clock.py). The calls are single-threaded and CPU-bound,
    so on an idle machine CPU time equals elapsed time.
    """

    def __init__(self, cli, calls: list[gen.Call], clock: SpeedClock):
        self.cli = cli
        self.calls = calls
        self.clock = clock
        self.durations: list[float] = []
        self.mismatches: list[str] = []
        self.failed = 0

    def run_batch(self) -> float:
        """Run every call once; returns the batch's time. File arguments are
        relative to the working directory, which holds the batch's files."""
        outputs = []
        t_batch = self.clock.now()
        for call in self.calls:
            if call.out:
                # a stale file from an earlier repetition must not pass the check
                Path(call.out).unlink(missing_ok=True)
            sink, err = io.StringIO(), io.StringIO()
            t0 = self.clock.probe()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                    code = self.cli.main(call.argv)
            except Exception as exc:  # a crash is a failed call, not a dead run
                code = f"raised {type(exc).__name__}: {exc}"
            self.durations.append(self.clock.now() - t0)
            outputs.append((code, sink.getvalue(), err.getvalue()))
        wall = self.clock.now() - t_batch
        for call, (code, out, err) in zip(self.calls, outputs):
            self._check(call, code, out, err)
        return wall

    def _check(self, call, code, out, err):
        what = " ".join(call.argv)
        if not isinstance(code, int) or (code == 2 and call.exit != 2):
            self.failed += 1
            self.mismatches.append(f"{what}: failed ({code}) {err.strip()[:200]}")
            return
        lines = out.splitlines()
        result = lines[-1] if lines else ""
        if code != call.exit or result != f"RESULT: {call.result}":
            self.mismatches.append(f"{what}: got exit {code} / {result!r}, "
                                   f"expected {call.exit} / 'RESULT: {call.result}'")
            return
        for line in call.lines:
            if line not in lines:
                self.mismatches.append(f"{what}: missing line {line!r}")
                return
        if call.out and not Path(call.out).is_file():
            self.mismatches.append(f"{what}: wrote no {call.out}")
            return
        if call.check_out is not None:
            problem = call.check_out(Path(call.out).read_text(encoding="utf-8"))
            if problem:
                self.mismatches.append(f"{what}: {problem}")

    def out_bytes(self) -> int:
        return sum(Path(c.out).stat().st_size for c in self.calls
                   if c.out and Path(c.out).is_file())


def _repeat(run_batch, seconds: float) -> list[float]:
    """Batch times, one batch at least, then more while the next one is
    expected to end within the budget."""
    times: list[float] = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 + statistics.median(times) <= seconds:
        times.append(run_batch())
    return times


def _quantile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest batch, run once; for schema and correctness only")
    args = ap.parse_args(argv)

    cli = _import_matint()
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    os.chdir(workdir)
    try:
        size = "smoke" if args.smoke else "full"
        batch = gen.build(args.workload, args.seed, size)
        for name, text in batch.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        clock = SpeedClock()
        runner = Runner(cli, batch.calls, clock)
        metrics: dict[str, dict] = {}
        overrun = False
        try:
            with clock:
                if not args.smoke:
                    # first call of each subcommand, untimed: lazy imports and caches
                    warm = {c.argv[0]: i for i, c in reversed(list(enumerate(batch.calls)))}
                    Runner(cli, [batch.calls[i] for i in sorted(warm.values())],
                           clock).run_batch()
                # Keep the harness's own objects (inputs, expected answers) out of the
                # collections that run during calls: a CLI process has none of them,
                # and scanning them made short calls vary by up to 2x.
                gc.collect()
                gc.freeze()
                if args.trace == 0:
                    setup_cpu = measure_setup()
                    walls = _repeat(runner.run_batch, 0 if args.smoke else args.seconds)
                    durations = runner.durations
                    metrics = {
                        # one child is too short for the probes to follow the host's
                        # speed through it; the run's median speed takes out the drift
                        "setup_s": (setup_cpu * statistics.median(clock.scales), "s"),
                        "wall_s": (statistics.median(walls), "s"),
                        "verdict_s.p50": (statistics.median(durations), "s"),
                        "verdict_s.p90": (_quantile(durations, 0.9), "s"),
                        "verdicts_ok": (1 - len(runner.mismatches) / len(durations), "ratio"),
                        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                        "MB"),
                        "out_bytes": (runner.out_bytes(), "bytes"),
                    }
                    print(f"# {args.workload} seed {args.seed}: {len(walls)} batch(es) of "
                          f"{len(batch.calls)} calls, corrected CPU s {[round(w, 3) for w in walls]}; "
                          f"verdict_s over {len(durations)} samples")
                else:
                    budget = 0 if args.smoke else args.seconds / 2
                    spans = WORK / f"spans-{args.workload}.tsv"
                    layers = []

                    def traced_batch():
                        with Tracer(clock.now) as tracer:
                            took = runner.run_batch()
                        if not layers:
                            tracer.write(spans)
                        layers.append(tracer.metrics())
                        return took

                    plain = _repeat(runner.run_batch, budget)
                    traced = _repeat(traced_batch, budget)
                    for name in layers[0]:
                        unit = "s" if name.endswith("_s") else (
                            "dim" if name.endswith("dim") else "count")
                        metrics[name] = (statistics.median(l[name] for l in layers), unit)
                    metrics["trace.overhead_s"] = (statistics.median(traced)
                                                   - statistics.median(plain), "s")
                    print(f"# {args.workload} seed {args.seed}: untraced batches corrected CPU s "
                          f"{[round(t, 3) for t in plain]}, traced {[round(t, 3) for t in traced]} "
                          f"({len(batch.calls)} calls each); "
                          f"spans in {spans}")
        except Overrun:
            overrun = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        # the call the alarm interrupted did not finish: attempted and failed
        attempted = len(runner.durations) + overrun
        failed = runner.failed + overrun
        for problem in runner.mismatches[:20]:
            print(f"# MISMATCH {problem}")
        if overrun:
            print(f"# OVERRUN: stopped after {time.perf_counter() - started:.1f} s")
        print(f"# failed_ratio {failed / max(1, attempted)}")
        result = {
            "correct": not runner.mismatches and not overrun,
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
