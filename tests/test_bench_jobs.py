"""The benchmark's jobs call only lyalg attributes that exist.

perfbench/jobs.py reaches the library through module attributes
(``tits.build_tits``) and through the names in its LY_DEFECTS table
(``checks.ly3_defect``), so a deleted or renamed function would only
fail when the benchmark runs.  This reads the file with ast, without
running it, and looks every such name up.
"""

import ast
import importlib
from pathlib import Path

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def lyalg_calls(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) for every lyalg name jobs.py uses."""
    modules, out = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "lyalg":
            modules |= {a.name for a in node.names}
        elif (node.module or "").startswith("lyalg."):
            out |= {(node.module[6:], a.name) for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LY_DEFECTS"
                      for t in node.targets)):
            out |= {("checks", name) for name in ast.literal_eval(node.value).values()}
    return out


def test_every_lyalg_name_the_jobs_use_exists():
    calls = lyalg_calls(ast.parse(JOBS.read_text()))
    assert ("checks", "ly6_defect") in calls and ("tits", "build_tits") in calls
    missing = sorted((mod, attr) for mod, attr in calls
                     if not hasattr(importlib.import_module("lyalg." + mod), attr))
    assert missing == []
