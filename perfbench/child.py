"""One cold pass of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
an empty temporary working directory.  It imports every lyalg module,
checks that the process is cold (no lru_cache holds an entry), records
the CLOCK_MONOTONIC time at which set-up ended, runs the workload's jobs
once (stamping its start and end on the same clock), compares each answer with known.py and writes a JSON record to
the file named by --out.  With --setup-only it stops after the cold
check.  With --trace the jobs run under the per-layer tracer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import resource
import sys
import time
import traceback

import lyalg


def import_all():
    """Import every lyalg module; return them."""
    return [importlib.import_module("lyalg." + m.name)
            for m in pkgutil.iter_modules(lyalg.__path__)]


def cold_guard(modules):
    """Raise unless every lru_cache in lyalg is empty and the cwd is empty."""
    warm = ["%s.%s" % (m.__name__, name) for m in modules
            for name, obj in vars(m).items()
            if hasattr(obj, "cache_info") and obj.cache_info().currsize]
    if warm:
        raise RuntimeError("process is not cold: cached %s" % warm)
    if os.listdir("."):
        raise RuntimeError("working directory is not empty: %s" % os.getcwd())


def run_jobs(jobs, answers):
    """Run every job; return one record per job."""
    ctx, out = {}, []
    for name, fn in jobs:
        rec = {"name": name, "ok": False}
        t0 = time.perf_counter()
        try:
            got = fn(ctx)
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
        else:
            want = answers.get(name)
            rec["ok"] = got == want
            if not rec["ok"]:
                rec["error"] = "answer %s != known %s" % (
                    json.dumps(got, sort_keys=True), json.dumps(want, sort_keys=True))
        rec["s"] = time.perf_counter() - t0
        out.append(rec)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    modules = import_all()
    import jobs
    import known
    import layers
    import tracer
    cold_guard(modules)
    rec = {"ready": time.monotonic()}
    if not args.setup_only:
        job_list = jobs.WORKLOADS[args.workload](args.seed)
        tr = tracer.Tracer(layers.FUNCTIONS, layers.COUNTERS) if args.trace else None
        cpu0 = time.process_time()
        rec["start"] = time.monotonic()
        if tr is None:
            rec["jobs"] = run_jobs(job_list, known.ANSWERS)
        else:
            with tr:
                rec["jobs"] = run_jobs(job_list, known.ANSWERS)
        rec["end"] = time.monotonic()
        rec["cpu_s"] = time.process_time() - cpu0
        if tr is not None:
            rec["trace"] = {"functions": tr.summary(), "counters": tr.totals,
                            "absent": tr.absent}
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as f:
        json.dump(rec, f)


if __name__ == "__main__":
    sys.exit(main())
