"""Tests of the per-layer tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = child.import_all()


def small_jobs():
    return [jobs.square_cell("k", "k"), jobs.square_cell("Q", "k"),
            jobs.square_cell("K", "K"), jobs.matrix_job("sl", 3)]


def clear_caches():
    for m in MODULES:
        for obj in vars(m).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def traced_run():
    clear_caches()
    tr = Tracer(layers.FUNCTIONS, layers.COUNTERS)
    with tr:
        ctx = {}
        for job in small_jobs():
            job(ctx)
    return tr


def bindings():
    return {(m.__name__, k): id(v) for m in MODULES for k, v in vars(m).items()}


def test_self_time_within_inclusive_time():
    summary = traced_run().summary()
    assert summary["roots.classify"]["calls"] >= 4
    for name, row in summary.items():
        assert -1e-9 <= row["self_s"] <= row["incl_s"] + 1e-9, name
    # classify spends most of its time in nested wrapped functions
    assert summary["roots.classify"]["self_s"] < summary["roots.classify"]["incl_s"]


def test_spans_nest_under_their_caller():
    spans = traced_run().spans

    def ancestors(span):
        out = []
        while span[1] >= 0:
            span = spans[span[1]]
            out.append(span[0])
        return out

    semisimple = [s for s in spans if s[0] == "invariants.is_semisimple"]
    assert semisimple
    for span in semisimple:
        assert "roots.classify" in ancestors(span)
        parent = spans[span[1]]
        assert parent[2] <= span[2] <= span[3] <= parent[3]


def test_every_binding_wrapped_then_restored():
    from lyalg import checks, fastnum, tits
    before = bindings()
    original = fastnum.jacobi_violation
    tr = Tracer(layers.FUNCTIONS).install()
    try:
        # checks imported jacobi_violation by name: that copy is wrapped too
        assert checks.jacobi_violation is fastnum.jacobi_violation
        assert fastnum.jacobi_violation is not original
        assert tits.check_lie is checks.check_lie
    finally:
        tr.uninstall()
    assert fastnum.jacobi_violation is original
    assert bindings() == before


def test_counts_repeat_exactly():
    a, b = traced_run(), traced_run()
    calls_a = {n: r["calls"] for n, r in a.summary().items()}
    calls_b = {n: r["calls"] for n, r in b.summary().items()}
    assert calls_a == calls_b
    assert a.totals == b.totals
    assert calls_a["compjordan.trace_admissible_view"] > 0


def test_absent_function_is_reported_not_raised():
    names = ["roots.no_such_function", "nomodule.f",
             "buildtools.NoClass.coords", "fastnum.jacobi_violation"]
    with Tracer(names) as tr:
        jobs.square_cell("k", "k")({})
    assert tr.absent == names[:3]
    assert set(tr.summary()) == {"fastnum.jacobi_violation"}
