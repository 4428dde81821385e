"""The job lists of the three workloads.

Each workload is a list of named jobs.  A job is a function of a shared
context dict (later jobs reuse what earlier ones built, as one user
script would) and returns an answer dict with some of the keys
``dim``, ``type``, ``verdict``, ``witness`` and ``sha256``; ``known.py``
holds the right answers.  The seed only permutes the
order of the square's cells and picks the perturbed structure constant
of each negative control, so the same seed gives the same job list.

Every library call goes through a module attribute (``tits.build_tits``,
not a name imported once), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from fractions import Fraction

from lyalg import (buildtools, checks, compjordan, envelope, fastnum, io,
                   matrixalg, roots, tits)
from lyalg.algebra import Algebra, LYAlgebra

KINDS = "kKQO"


def view_c(kind):
    return compjordan.trace_admissible_view(compjordan.build_composition(kind))


def view_j(spec):
    return compjordan.trace_admissible_view(compjordan.build_jordan(spec))


def digest(thing) -> str:
    """sha256 of the canonical JSON bytes of an algebra or LY algebra."""
    obj = io.ly_to_obj(thing) if isinstance(thing, LYAlgebra) else io.algebra_to_obj(thing)
    return hashlib.sha256(io.dumps(obj).encode()).hexdigest()


def lie_answer(alg: Algebra) -> dict:
    """Full Jacobi sweep, then saturate and classify."""
    w = fastnum.jacobi_violation(alg)
    return {"dim": alg.dim, "verdict": "lie" if w is None else "not-lie",
            "witness": None if w is None else list(w), "sha256": digest(alg),
            "type": roots.classify(roots.saturate_torus(alg))}


def report_answer(rep) -> dict:
    """Verdict and first witness of a checks.Report."""
    wit = [it.witness for it in rep.items if it.status == "fail"]
    return {"verdict": "pass" if rep.passed else "fail",
            "witness": list(wit[0]) if wit and wit[0] is not None else None}


def run_check_ly(ly: LYAlgebra):
    # the dimension gate (and its `deep` flag) is due to be removed; pass
    # deep only while the signature still has it
    if "deep" in inspect.signature(checks.check_ly).parameters:
        return checks.check_ly(ly, deep=True)
    return checks.check_ly(ly)


def ly_answer(ly: LYAlgebra) -> dict:
    """check_ly, then the enveloping Lie algebra and its type."""
    out = report_answer(run_check_ly(ly))
    out.update(dim=ly.dim, sha256=digest(ly))
    env = envelope.build_enveloping(ly)
    out.update(env_dim=env.g.dim, env_sha256=digest(env.g),
               type=roots.classify(roots.saturate_torus(env.g)))
    return out


# square: the 16 cells, in a seeded order


def square_cell(cx, cy):
    def job(ctx):
        t = tits.build_tits(view_c(cx), view_j("H3(%s)" % cy))
        return lie_answer(t.alg)
    return job


def square_jobs(seed: int):
    cells = [(cx, cy) for cx in KINDS for cy in KINDS]
    random.Random(seed).shuffle(cells)
    return [("square.%s.H3(%s)" % cell, square_cell(*cell)) for cell in cells]


# e8-ly: the 182-dim LY algebra inside O x H3(O), its envelope E8 and h


def e8_ly182(ctx):
    t = tits.build_tits(view_c("O"), view_j("H3(O)"))
    ly = ctx["ly"] = tits.ly_inside_tits(t)
    out = report_answer(run_check_ly(ly))
    out.update(dim=ly.dim, sha256=digest(ly))
    return out


def e8_envelope(ctx):
    env = ctx["env"] = envelope.build_enveloping(ctx["ly"])
    return {"dim": env.g.dim, "sha256": digest(env.g),
            "type": roots.classify(roots.saturate_torus(env.g))}


def e8_h(ctx):
    env = ctx["env"]
    h = buildtools.subalgebra_on_indices(env.g, env.h_index)
    return {"dim": h.dim, "sha256": digest(h),
            "type": roots.classify(roots.saturate_torus(h))}


def e8_jobs(seed: int):
    return [("e8-ly.ly182", e8_ly182), ("e8-ly.envelope", e8_envelope),
            ("e8-ly.h", e8_h)]


# families: matrix algebras, tensor LY families, tkk rows, the sympy solve
# and seeded negative controls


def matrix_job(kind, n):
    def job(ctx):
        g = matrixalg.build_matrix_lie(kind, n)
        out = report_answer(checks.check_lie(g))
        out.update(dim=g.dim, sha256=digest(g),
                   type=roots.classify(roots.saturate_torus(g)))
        return out
    return job


def ly_family_job(build):
    return lambda ctx: ly_answer(build())


def tkk_job(spec):
    def job(ctx):
        tk, t, bm = tits.tkk_to_tits_map(compjordan.build_jordan(spec))
        out = lie_answer(tk)
        out["transport"] = tits.bracket_transport_equal(tk, t.alg, bm)
        return out
    return job


def solve_so3_so5(ctx):
    f3, f5 = matrixalg.split_sym_form(3), matrixalg.split_sym_form(5)
    h, act, cands = tits.form_pair_module_data(f3, f5)
    sol = tits.solve_equivariant_bracket(h, act, cands)
    _, free = sol.branches[0]
    co = sol.coefficients(0, {free[0]: Fraction(1)})
    g = tits.assemble_bracket(h, act, cands, co)
    out = report_answer(checks.check_lie(g))
    ly = envelope.ly_from_reductive_indices(g, list(range(h.dim)),
                                            list(range(h.dim, g.dim)))
    ref = matrixalg.lts_orthosymplectic_sum(f3, f5)
    ident = [[Fraction(int(i == j)) for j in range(ly.dim)] for i in range(ly.dim)]
    out.update(dim=g.dim, sha256=digest(g), family_dim=sol.family_dim(),
               coefficients=[str(c) for c in co],
               coincides=matrixalg.check_coincidence(ly, ref, ident))
    return out


def perturb(rng, table):
    """Copy of a sparse table with one seeded structure constant doubled."""
    key = rng.choice(sorted(table))
    ent = list(table[key])
    pos = rng.randrange(len(ent))
    ent[pos] = (ent[pos][0], 2 * ent[pos][1])
    return {**table, key: ent}


def control_so13(seed):
    def job(ctx):
        g = matrixalg.build_matrix_lie("so", 13)
        table = perturb(random.Random(seed), g.table)
        bad = Algebra(g.dim, table, labels=g.labels, name="so13-perturbed")
        out = report_answer(checks.check_lie(bad))
        w = out.pop("witness")
        out["witness_defect"] = (w is not None
                                 and any(checks.jacobi_defect(bad, *w)))
        return out
    return job


LY_DEFECTS = {"LY3": "ly3_defect", "LY4": "ly4_defect", "LY5": "ly5_defect",
              "LY6": "ly6_defect"}


def control_sp_sym(seed):
    def job(ctx):
        ly = matrixalg.ly_sp_tensor_sym(3, 1)
        # a ternary constant: a binary one can leave LY6 intact, and then
        # check_ly scans all 15^5 LY6 tuples, 20x the usual cost
        ternary = perturb(random.Random(seed), ly.ternary)
        bad = LYAlgebra(ly.dim, ly.binary, ternary, labels=ly.labels,
                        name="sp-sym-perturbed")
        rep = run_check_ly(bad)
        fails = [it for it in rep.items if it.status == "fail"]
        defect_ok = bool(fails) and all(
            it.witness is not None and it.name in LY_DEFECTS
            and any(getattr(checks, LY_DEFECTS[it.name])(bad, *it.witness))
            for it in fails)
        return {"verdict": "pass" if rep.passed else "fail",
                "witness_defect": defect_ok}
    return job


def control_gl3(ctx):
    try:
        roots.classify(matrixalg.build_matrix_lie("gl", 3))
    except roots.ClassifyError:
        return {"verdict": "ClassifyError"}
    return {"verdict": "classified"}


def control_o_h4k(ctx):
    co = tits.check_tits_conditions(view_c("O"), view_j("H4(K)"))
    return {"verdict": "+".join(c for c in ("i", "ii", "iii") if not co.ok[c])
            or "pass",
            "witness_iii": co.witnesses["iii"] is not None}


def families_jobs(seed: int):
    return [
        ("families.sl9", matrix_job("sl", 9)),
        ("families.so13", matrix_job("so", 13)),
        ("families.so14", matrix_job("so", 14)),
        ("families.sp12", matrix_job("sp", 12)),
        ("families.ly_sp_sym(6,-1)",
         ly_family_job(lambda: matrixalg.ly_sp_tensor_sym(6, -1))),
        ("families.ly_sl_sl(3,3)",
         ly_family_job(lambda: matrixalg.ly_sl_tensor_sl(3, 3))),
        ("families.tkk.H3(Q)", tkk_job("H3(Q)")),
        ("families.tkk.H4(K)", tkk_job("H4(K)")),
        ("families.solve.so3+so5", solve_so3_so5),
        ("families.control.so13", control_so13(seed)),
        ("families.control.ly_sp_sym(3,1)", control_sp_sym(seed)),
        ("families.control.gl3", control_gl3),
        ("families.control.O_H4(K)", control_o_h4k),
    ]


WORKLOADS = {"square": square_jobs, "e8-ly": e8_jobs, "families": families_jobs}
