"""Benchmark of the dfindex command line, one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's CLI command runs in this process through
``dfindex.cli.main``: one warm-up run on a reduced config (none for
``selftest``, whose first run is no slower than the next), then timed runs
for S seconds (at least three; no run past the third starts that would, at
the pace so far, end after S).  A fixed reference computation that uses no
``dfindex`` code runs before the first timed run and after each one, so
that the CLI runs can be set against the machine's speed over the same
minutes.
Every timed run is judged: it fails if it raises, exits nonzero, writes a
report whose bytes differ from the first timed run's, or fails the
workload's report checks.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics (wall_rel, setup_s, peak_rss_mb); with ``--trace 1``
untraced and traced runs alternate, the last line carries the per-layer
metrics, and the spans are written to ``.bench_out/``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_report, rebuild_sites

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_RUNS = 3          # timed runs per invocation at least
REF_SHARE = 0.25      # reference time after a CLI run, as a share of that run's time
REF_FIRST_S = 1.0     # reference time before the first timed run
REF_BLOCK_S = 0.03    # reference block time of the speed setup_s is reported at
SETUP_REF_S = 0.3     # reference time before, between and after the set-up probes
STAGES = 9            # eta stages of the estimate workload: eta_cap, 0, then 7 bisections
# BLAS and OpenMP run single-threaded.  The program's matrices are small
# (at most a few thousand rows by ~44 columns), and on a shared 2-core
# machine two OpenBLAS threads made a degree-40 ``check`` ~60 % slower and noisier.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Session:
    """One workload's CLI command, run repeatedly in process and judged each time."""

    def __init__(self, workload, seed, workdir, cli_main, load_config):
        self.workload = workload
        self.seed = seed
        self.cli_main = cli_main
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(workload.config))
        self.warmup_path = workdir / "warmup.json"
        self.warmup_path.write_text(json.dumps({**workload.config, **(workload.warmup or {})}))
        self.cfg = load_config(self.config_path, {"seed": seed})
        self.out_dir = workdir / "out"
        self.report_path = self.out_dir / f"{workload.command}.json"
        self.first_bytes = None
        self.sites = None
        self.attempted = 0
        self.failed = 0
        self.quality = {}

    def run(self, warmup=False):
        """One CLI run: its wall seconds and the problems found with it.

        A warm-up run fails only by raising or exiting nonzero; its report
        is not checked.
        """
        config = self.warmup_path if warmup else self.config_path
        argv = self.workload.argv(config, self.out_dir, self.seed)
        self.report_path.unlink(missing_ok=True)
        sink = io.StringIO()
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli_main(argv)
        except SystemExit as stop:
            code = 0 if stop.code is None else stop.code
        except Exception as err:  # a run that raises is a failed run, not a failed benchmark
            code = None
            problems.append(f"raised {type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
        if code is not None:
            if code != 0:
                problems.append(f"exit code {code}: {sink.getvalue()[-300:]}")
            if not warmup:
                problems += self.judge()
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        return seconds, problems

    def warm_up(self):
        """The warm-up run, if the workload has one."""
        if self.workload.warmup is not None:
            self.run(warmup=True)

    def judge(self):
        """Problems with the report the last run wrote; outside any timed region."""
        try:
            data = self.report_path.read_bytes()
        except FileNotFoundError:
            return [f"no report at {self.report_path.name}"]
        problems = []
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("report bytes differ from the first run")
        try:
            if self.sites is None and self.workload.command == "estimate":
                self.sites = rebuild_sites(self.cfg)
            found, self.quality = check_report(self.workload.command, data, self.sites)
        except Exception as err:  # a check that cannot run fails the run it judges
            found = [f"check raised {type(err).__name__}: {err}"]
        return problems + found


def measure_setup(session):
    """Median wall seconds of fresh interpreters doing the session's set-up work.

    Reference blocks run before, between and after the interpreters; their
    times come back too, so that the set-up time can be scaled to a fixed
    machine speed.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(session.config_path),
            str(session.seed)]
    times, blocks = [], reference_blocks(SETUP_REF_S)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up by up to 50 ms
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        blocks += reference_blocks(SETUP_REF_S)
    return statistics.median(times), blocks


def jet_microbench(repeats=5, calls=2000):
    """Microseconds per order-3 Jet product and composition with m = 4."""
    from dfindex import jets

    x = [jets.Jet.variable(0.1 * (i + 1), i, 4, 3) for i in range(4)]
    a = jets.exp(x[0] * x[1] + x[2])
    b = jets.sin(x[3] + x[0])
    kernel = [1.0, 0.5, 0.25, 0.125]

    def per_call_us(fn):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append(1e6 * (time.perf_counter() - start) / calls)
        return statistics.median(samples)

    return {"jets.mul_us": per_call_us(lambda: a * b),
            "jets.compose_us": per_call_us(lambda: a.compose(kernel))}


def reference_block():
    """A fixed computation in plain Python that runs no ``dfindex`` code, about 0.03 s.

    Float arithmetic in an interpreted loop and dict updates.  Most of the
    program's time is spent in the interpreter too, and on a busy machine
    this block slows down with the workloads more closely than blocks of
    NumPy calls, dense least squares or scattered memory reads do.
    """
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5 - (i % 7)
    table = {}
    for i in range(60_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    return acc + sum(table.values())


def reference_blocks(seconds):
    """Wall seconds of each reference block, over blocks run for about ``seconds``."""
    times = []
    while len(times) < 2 or sum(times) < seconds:
        start = time.perf_counter()
        reference_block()
        times.append(time.perf_counter() - start)
    return times


def timed_runs(run_once, reference, seconds):
    """Timed runs for ``seconds``, with reference blocks before and between them.

    ``run_once()`` returns one run's wall seconds and ``reference(s)`` the
    times of reference blocks run for about ``s``.  Reference blocks run
    before the first run and after each one, for a quarter of that run's
    time, so that both sample the machine over the same minutes.  Returns
    the wall times of the runs and the times of all reference blocks.
    """
    blocks = reference(REF_FIRST_S)
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or (time.perf_counter() - start) * (1 + 1 / len(walls)) <= seconds:
        walls.append(run_once())
        blocks += reference(REF_SHARE * walls[-1])
    return walls, blocks


def relative_wall(walls, blocks):
    """Mean wall time of a timed run over the mean time of a reference block."""
    return statistics.fmean(walls) / statistics.fmean(blocks)


def untraced(session, seconds):
    """End-to-end metrics: set-up probes, a warm-up, then timed runs between reference blocks.

    On a shared host the machine's speed can drift by up to half over
    minutes, and a CLI run and the reference computation next to it slow
    down together.  ``wall_rel`` is therefore the mean wall time of a timed
    run divided by the mean time of a reference block, both over the run.
    ``setup_s`` is the set-up time scaled, by the reference blocks run
    around the set-up probes, to the speed at which a block takes
    ``REF_BLOCK_S``.
    """
    setup_measured, setup_blocks = measure_setup(session)
    session.warm_up()
    walls, blocks = timed_runs(lambda: session.run()[0], reference_blocks, seconds)
    wall_rel = relative_wall(walls, blocks)
    setup_s = setup_measured * REF_BLOCK_S / statistics.fmean(setup_blocks)
    print(f"wall_rel: {wall_rel!r} ratio (mean of {len(walls)} timed runs over the mean of "
          f"{len(blocks)} reference blocks, {statistics.fmean(blocks)!r} s)")
    print(f"wall_s: {statistics.median(walls)!r} s (median, not normalised: "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"setup_s: {setup_s!r} s at a {REF_BLOCK_S} s reference block (median of "
          f"{SETUP_PROBES} fresh interpreters, {setup_measured!r} s as measured)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_rel": (wall_rel, "ratio"), "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def traced(session, seconds, trace_path):
    """Per-layer metrics: untraced and traced runs alternate after a warm-up."""
    from spans import Tracer, layer_metrics

    session.warm_up()
    tracer = Tracer()
    plain, spanned = [], []
    # one pair at least; another only if, at the pace so far, it ends within the budget
    while not spanned or (sum(plain) + sum(spanned)) * (1 + 1 / len(spanned)) <= seconds:
        plain.append(session.run()[0])
        tracer.run_id += 1
        tracer.install()
        try:
            spanned.append(session.run()[0])
        finally:
            tracer.restore()
    tracer.write(trace_path)
    if tracer.missing:
        print("not traced (no such name): " + ", ".join(sorted(set(tracer.missing))))
    metrics = layer_metrics(tracer.spans, tracer.counts, len(spanned), STAGES)
    metrics.update({name: (value, "us") for name, value in jet_microbench().items()})
    ratio = statistics.median(spanned) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    print(f"traced wall_s: {statistics.median(spanned)!r} s, untraced {statistics.median(plain)!r} s"
          f" ({len(spanned)} + {len(plain)} runs); spans in {trace_path.relative_to(ROOT)}")
    return metrics


def quality_metrics(session):
    """Correctness figures that read 0 when all is well; printed, and traced as layers."""
    q = session.quality
    return {"index_err": (float(q.get("index_err", 0.0)), "eta"),
            "uncertified_stages": (q.get("uncertified_stages", 0), "count"),
            "failed_frac": (session.failed / max(session.attempted, 1), "ratio")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dfindex" / "__init__.py").is_file():
        print(f"bench: no dfindex package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    from dfindex.cli import load_config, main as cli_main

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        session = Session(workload, args.seed, workdir, cli_main, load_config)
        if args.trace:
            metrics = traced(session, args.seconds,
                             OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
            metrics.update(quality_metrics(session))
        else:
            metrics = untraced(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in {**metrics, **quality_metrics(session)}.items():
        if name not in ("wall_rel", "setup_s"):
            print(f"{name}: {value!r} {unit}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
