"""Benchmark of lyalg's certification runs: time to a verdict, set-up, memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload square --seed 1 --seconds 30 --trace 0

Workloads: square, e8-ly, families (see perfbench/README.md).  Each pass
is one fresh interpreter (perfbench/child.py) that runs the workload's
job list once, cold, in an empty temporary directory under .bench_run/,
and checks every answer against perfbench/known.py.  Passes run one at a
time until the next one would end past --seconds (at least one runs).
Three extra set-up-only interpreters give more set-up samples.

With --trace 0 the metrics are the end-to-end ones:
  unstolen_wall_s  median wall time of one pass, first job to last,
                   less the time the hypervisor stole from the CPUs
                   (perfbench/steal.py); the raw wall time is printed
  setup_s          median time from spawning an interpreter until it has
                   imported every lyalg module and passed the cold
                   check, less stolen time in the same way
  peak_rss_mb      median peak RSS of a pass's interpreter
With --trace 1 one more pass runs under the per-layer tracer, and the
metrics are <module>.<function>.calls for the functions in
perfbench/layers.py, .self_s for those every workload calls, its work
counters, and trace.overhead_s (traced pass unstolen wall time minus
the untraced median).  The printed table has self and inclusive time of
every function.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The program exits non-zero,
without that line, if the checkout has no lyalg sources or a pass
crashes or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import steal  # noqa: E402

WORKLOADS = ("square", "e8-ly", "families")
SETUP_PROBES = 3
DEADLINE_S = 170.0
# lyalg's numpy calls are small; on a 2-core machine OpenBLAS's worker
# threads only spin against the interpreter and add about 10% run-to-run
# noise (and 5-10% wall time) to a pass.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class PassFailed(Exception):
    pass


class Runner:
    """Spawns child interpreters inside one scratch directory."""

    def __init__(self, root: Path, scratch: Path, workload: str, seed: int):
        self.root, self.scratch = root, scratch
        self.base = ["--workload", workload, "--seed", str(seed)]
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, *flags) -> dict:
        """Run child.py once; return its record plus its set-up time."""
        self.count += 1
        work = self.scratch / ("cwd%d" % self.count)
        work.mkdir()
        out = self.scratch / ("rec%d.json" % self.count)
        env = dict(os.environ, **SINGLE_THREAD)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        cmd = [sys.executable, str(HERE / "child.py"), *self.base,
               "--out", str(out), *flags]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("out of time before starting a pass")
        with steal.Sampler() as sampler:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=work, env=env, stdout=sys.stderr,
                                      timeout=remaining)
            except subprocess.TimeoutExpired:
                raise PassFailed("pass exceeded the %.0f s limit" % DEADLINE_S)
            ended = time.monotonic()
        if proc.returncode != 0 or not out.is_file():
            raise PassFailed("child exited with code %d" % proc.returncode)
        rec = json.loads(out.read_text())
        rec["raw_setup_s"] = rec["ready"] - spawned
        rec["setup_s"] = rec["raw_setup_s"] * sampler.share(spawned, rec["ready"])
        if "start" in rec:
            rec["raw_wall_s"] = rec["end"] - rec["start"]
            rec["wall_s"] = rec["raw_wall_s"] * sampler.share(rec["start"], rec["end"])
        rec["elapsed_s"] = ended - spawned
        return rec


def run(runner: Runner, seconds: float, trace: bool):
    setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.spawn())
        per_pass = statistics.median(p["elapsed_s"] for p in passes)
        if time.monotonic() - start + per_pass > seconds:
            break
    traced = runner.spawn("--trace") if trace else None
    setups += [p["setup_s"] for p in passes + [traced] if p is not None]
    return setups, passes, traced


def report(setups, passes, traced):
    """Print the human-readable lines; return the result object."""
    done = passes + ([traced] if traced else [])
    jobs = [j for p in done for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    for i, p in enumerate(done):
        print("pass %d%s: unstolen wall %.3f s (raw %.3f)  setup %.3f s (raw %.3f)  cpu %.3f s"
              "  rss %.1f MB  failed %d/%d"
              % (i, " (traced)" if p is traced else "", p["wall_s"], p["raw_wall_s"],
                 p["setup_s"], p["raw_setup_s"], p["cpu_s"], p["peak_rss_mb"],
                 sum(not j["ok"] for j in p["jobs"]), len(p["jobs"])))
        print("  jobs: " + "  ".join("%s %.2f" % (j["name"], j["s"]) for j in p["jobs"]))
    for j in failed:
        print("FAILED %s: %s" % (j["name"], j.get("error", "").strip()))
    print("error_rate %.4f (%d of %d jobs)"
          % (len(failed) / len(jobs), len(failed), len(jobs)))
    walls = [p["wall_s"] for p in passes]
    print("unstolen_wall_s median of %d pass(es); setup_s median of %d interpreter(s)"
          % (len(walls), len(setups)))
    if traced is None:
        metrics = {
            "unstolen_wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    else:
        tr = traced["trace"]
        metrics = {}
        for name in layers.FUNCTIONS:
            row = tr["functions"].get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            if name in layers.SELF_TIMED:
                metrics[name + ".self_s"] = (row["self_s"], "s")
            metrics[name + ".calls"] = (row["calls"], "count")
            print("layer %-44s %6d calls  self %9.4f s  incl %9.4f s%s"
                  % (name, row["calls"], row["self_s"], row["incl_s"],
                     "  (absent)" if name in tr["absent"] else ""))
        for name, value in tr["counters"].items():
            metrics[name] = (value, "count")
        metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.median(walls), "s")
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, value, unit))
    return {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lyalg" / "__init__.py").is_file():
        print("no lyalg sources under %s/src; run from the root of a checkout"
              % root, file=sys.stderr)
        return 2
    (root / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_run"))
    try:
        runner = Runner(root, scratch, args.workload, args.seed)
        result = report(*run(runner, args.seconds, bool(args.trace)))
    except PassFailed as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
