"""The public functions the traced run wraps, and its work counters.

Names are relative to the lyalg package.  A function a later change
deletes is reported as absent by the tracer.
"""

FUNCTIONS = [
    "compjordan.build_composition",
    "compjordan.build_jordan",
    "compjordan.trace_admissible_view",
    "tits.build_tits",
    "tits.ly_inside_tits",
    "tits.build_tkk_row",
    "tits.tkk_to_tits_map",
    "tits.bracket_transport_equal",
    "tits.check_tits_conditions",
    "tits.solve_equivariant_bracket",
    "matrixalg.build_matrix_lie",
    "matrixalg.ly_sp_tensor_sym",
    "matrixalg.ly_sl_tensor_sl",
    "matrixalg.lts_orthosymplectic_sum",
    "matrixalg.check_coincidence",
    "buildtools.operator_algebra_from_basis",
    "buildtools.MatSpanSolver.coords",
    "buildtools.BatchCoords.coords_int",
    "buildtools.independent_rows",
    "buildtools.simultaneous_eigenbasis",
    "checks.check_lie",
    "checks.check_ly",
    "fastnum.jacobi_violation",
    "fastnum.killing_int",
    "fastnum.exact_kernel_int",
    "fastnum.sparse_int_kernel",
    "envelope.build_enveloping",
    "roots.saturate_torus",
    "roots.classify",
    "roots.verify_split_maximal",
    "roots.split_ideals",
    "invariants.is_semisimple",
    "invariants.centroid_basis",
    "io.dumps",
]

# Functions every workload calls.  Only these report self_s among the
# benchmark's metrics: a function a workload never reaches would read a
# constant 0 s there.  The traced run prints self time for all of them.
SELF_TIMED = [
    "compjordan.build_composition",
    "compjordan.build_jordan",
    "compjordan.trace_admissible_view",
    "tits.build_tits",
    "buildtools.BatchCoords.coords_int",
    "buildtools.independent_rows",
    "buildtools.simultaneous_eigenbasis",
    "fastnum.jacobi_violation",
    "fastnum.killing_int",
    "fastnum.exact_kernel_int",
    "fastnum.sparse_int_kernel",
    "roots.saturate_torus",
    "roots.classify",
    "roots.verify_split_maximal",
    "invariants.is_semisimple",
    "invariants.centroid_basis",
    "io.dumps",
]


def _cells(args, kwargs, result):
    rows, cols = args[0].shape
    return rows * cols


def _rows(args, kwargs, result):
    return len(args[0])


def _nnz(args, kwargs, result):
    return sum(result.nnz())


COUNTERS = {
    "fastnum.exact_kernel_int.in_cells": ("fastnum.exact_kernel_int", _cells),
    "fastnum.sparse_int_kernel.in_rows": ("fastnum.sparse_int_kernel", _rows),
    "tits.ly_inside_tits.out_nnz": ("tits.ly_inside_tits", _nnz),
}
