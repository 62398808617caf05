"""Run the benchmark on a parent commit and on the working tree in alternating pairs.

Usage (from the repository root):

    python3 scripts/bench_pairs.py PARENT OUT [--pairs N] [--first-seed S]

PARENT (any commit name ``git`` accepts) is extracted with ``git archive``
into a temporary directory; the repository's ``.git`` is only read.  The
workloads and ``run_seconds`` come from ``BENCHMARK.json``.  For each
workload and each seed S, S+1, ..., S+N-1 (N = 10 by default) it runs

    python3 bench/run.py --workload W --seed SEED --seconds RUN_SECONDS --trace 0

once in the parent copy and once in the working tree: an odd seed runs the
parent first, an even seed the working tree first.  OUT is a JSON file with,
per workload, each end-to-end metric's runs, median and quartiles on each
side, the pairs in which the change did better and a verdict, plus the
attempted and failed timed runs per side and the machine.  The verdict is
``gain`` when the change does better in at least 9 of 10 pairs and its
median beats the parent's by more than the parent's q3 - q1, ``worse`` when
its median is worse than the parent's by more than the metric's ``bound``
times the parent median, and ``within_bound`` otherwise (null when a side
has no result).  An invocation that exits nonzero or prints no result line
counts as one failed run of its side, and its metrics stay in OUT as
``null``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_bench(checkout, workload, seed, seconds):
    """The result object ``bench/run.py`` prints last, or None if it exits nonzero or prints none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _stats(values):
    """Median and inclusive quartiles of the non-null values, rounded to 4 decimals."""
    done = [v for v in values if v is not None]
    if not done:
        return {"median": None, "q1": None, "q3": None, "runs": values}
    q1 = q3 = done[0]
    if len(done) > 1:
        q1, _, q3 = statistics.quantiles(done, n=4, method="inclusive")
    return {"median": round(statistics.median(done), 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": values}


def _verdict(parent, change, wins, pairs, better, bound):
    """``gain``, ``worse`` or ``within_bound`` from the two sides' stats (see the module doc)."""
    if parent["median"] is None or change["median"] is None:
        return None
    # how far the change's median is better than the parent's
    ahead = change["median"] - parent["median"]
    if better == "lower":
        ahead = -ahead
    if pairs and 10 * wins >= 9 * pairs and ahead > parent["q3"] - parent["q1"]:
        return "gain"
    if -ahead > bound * abs(parent["median"]):
        return "worse"
    return "within_bound"


def summarize(seeds, results, end_to_end):
    """One workload's summary from its results per side, one per seed (None for a failed invocation).

    ``end_to_end`` is the ``end_to_end`` list of ``BENCHMARK.json``.
    """
    out = {"seeds": list(seeds), "pairs": len(seeds),
           "failed": {side: sum(1 if r is None else r["failed"] for r in results[side])
                      for side in SIDES},
           "attempted": {side: sum(1 if r is None else r["attempted"] for r in results[side])
                         for side in SIDES}}
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        values = {side: [None if r is None or name not in r["metrics"]
                         else round(r["metrics"][name]["value"], 4) for r in results[side]]
                  for side in SIDES}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                 if p is not None and c is not None]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        stats = {side: _stats(values[side]) for side in SIDES}
        out[name] = {"unit": metric["unit"], **stats,
                     f"change_{better}_in": f"{wins}/{len(pairs)} pairs",
                     "verdict": _verdict(stats["parent"], stats["change"], wins, len(pairs),
                                        better, metric["bound"])}
    return out


def machine():
    """CPU model, core count and the versions the benchmark runs with (BLAS on one thread)."""
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {"cpu": models[0] if models else platform.processor(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": 1}


def extract(commit, dest):
    """The tree of ``commit`` written into ``dest`` by ``git archive``."""
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, dest="first_seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "harness": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "parent": parent,
        "order": "parent and change alternate; odd seeds run the parent first, "
                 "even seeds the change first",
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        extract(args.parent, tmp)
        checkouts = {"parent": Path(tmp), "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            results = {side: [] for side in SIDES}
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    result = run_bench(checkouts[side], workload, seed, seconds)
                    results[side].append(result)
                    print(f"{workload} seed {seed} {side}: "
                          f"{'failed' if result is None else result['metrics']}", file=sys.stderr)
            report["workloads"][workload] = summarize(seeds, results, bench["end_to_end"])
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
