"""The benchmark's tracer wraps program functions by name.

perfbench/tracing.py lists them as literal tuples; each (module,
attribute) pair must still resolve in the package, or a traced
benchmark run breaks. The file is read as text, never imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literals():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "CLASSMETHODS",
                                       "VARIANT_TABLES")}


def test_traced_names_resolve():
    names = _literals()
    assert set(names) == {"FUNCTIONS", "CLASSMETHODS", "VARIANT_TABLES"}
    for module, attr, _ in names["FUNCTIONS"]:
        mod = importlib.import_module("fixedcircle." + module)
        assert callable(getattr(mod, attr, None)), (module, attr)
    for module, cls, method, _ in names["CLASSMETHODS"]:
        owner = getattr(importlib.import_module("fixedcircle." + module), cls)
        assert isinstance(owner.__dict__.get(method), classmethod), \
            (module, cls, method)
    verifier = importlib.import_module("fixedcircle.verifier")
    conditions = importlib.import_module("fixedcircle.conditions")
    for table in names["VARIANT_TABLES"]:
        assert isinstance(getattr(verifier, table, None), dict), table
        # install() unpacks each value as (theorem id, checkers)
        for variant, value in getattr(verifier, table).items():
            assert isinstance(value, tuple) and len(value) == 2, variant
            theorem_id, hypotheses = value
            assert theorem_id in verifier.THEOREM_IDS, variant
            assert hypotheses and set(hypotheses) <= set(conditions.CONDITION_IDS), \
                variant
