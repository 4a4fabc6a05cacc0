"""The benchmark reaches program functions by name.

perfbench/tracing.py lists the ones it wraps as literal tuples, and the
workloads read attributes off the loaded modules (``P.<module>``) and
call the verdicts perfbench/instance.py names in VERDICTS. Each name
must still resolve in the package, or a benchmark run breaks. The files
are read as text, never imported. The one-circle theorem_flags call the
sweep workload's cross-check makes must keep its result's shape.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _module_of(node, aliases):
    """The module an expression names: ``P.<module>`` or a bound local."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "P":
        return node.attr
    return aliases.get(node.id) if isinstance(node, ast.Name) else None


def _module_attributes(tree):
    """(module, attribute path) for every attribute chain read off
    ``P.<module>`` or off a local bound to one: by assignment
    (``mc = P.metric_core``, ``fio, gen = P.fileio, P.generators``) or as
    the parameter a same-file function receives it in."""
    scopes = tree.body
    defs = {s.name: s for s in scopes if isinstance(s, ast.FunctionDef)}
    aliases = {s: {} for s in scopes}
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for t, v in pairs:
                    if isinstance(t, ast.Name) and _module_of(v, {}):
                        aliases[scope][t.id] = _module_of(v, {})
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in defs:
                callee = defs[node.func.id]
                for param, arg in zip(callee.args.args, node.args):
                    module = _module_of(arg, aliases[scope])
                    if module:
                        aliases[callee][param.arg] = module
    found = set()
    for scope in scopes:
        for node in ast.walk(scope):
            names = []
            while isinstance(node, ast.Attribute):
                names.insert(0, node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                continue
            if node.id == "P" and len(names) > 1:
                found.add((names[0], tuple(names[1:])))
            elif node.id in aliases[scope] and names:
                found.add((aliases[scope][node.id], tuple(names)))
    return found


def test_workload_attributes_resolve():
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= _module_attributes(tree)
    # reads the scan must see: direct, through an assigned local, and
    # through a parameter
    assert {("gallery", ("load_entry",)), ("verifier", ("soundness_sweep",)),
            ("metric_core", ("circle_of",)),
            ("fileio", ("dumps_document",))} <= found
    for module, names in sorted(found):
        obj = importlib.import_module("fixedcircle." + module)
        for name in names:
            assert hasattr(obj, name), (module, names)
            obj = getattr(obj, name)


def _value(node, known):
    """A module-level constant built from literals, names bound earlier
    and ``+``."""
    if isinstance(node, ast.Name):
        return known[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _value(node.left, known) + _value(node.right, known)
    return ast.literal_eval(node)


def test_instance_verdicts_resolve():
    tree = ast.parse((PERFBENCH / "instance.py").read_text(encoding="utf-8"))
    known = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                known[node.targets[0].id] = _value(node.value, known)
            except (KeyError, ValueError):
                pass
    verifier = importlib.import_module("fixedcircle.verifier")
    variants = {**verifier.EXISTENCE_VARIANTS, **verifier.UNIQUENESS_VARIANTS}
    assert len(known["VERDICTS"]) == len(verifier.THEOREM_IDS)
    for name, variant in known["VERDICTS"]:
        assert callable(getattr(verifier, name, None)), name
        assert variant is None or variant in variants, (name, variant)


def test_scalar_theorem_flags_call_keeps_its_shape():
    # perfbench/sweep.py calls theorem_flags(D, maps, ci, radius, eps)
    # with one circle and reads flags[tid][0] and [1] as (m,) bools
    verifier = importlib.import_module("fixedcircle.verifier")
    generators = importlib.import_module("fixedcircle.generators")
    space = generators.random_metric_space(
        generators.GenConfig(seed=2, size=5))
    D = space.as_array
    maps = np.random.default_rng(2).integers(0, 5, size=(27, 5))
    flags = verifier.theorem_flags(D, maps.astype(np.intp), 1,
                                   float(D[1, 3]), 1e-9)
    assert set(flags) == set(verifier.THEOREM_IDS)
    for tid in verifier.THEOREM_IDS:
        hyp, concl = flags[tid]
        for side in (hyp, concl):
            assert side.shape == (27,) and side.dtype == bool, tid


# Attributes the workloads read off the objects the program returns, by
# object. A renamed field keeps every module-level name resolving and
# still breaks a benchmark run.
_OBJECT_ATTRIBUTES = {
    "space": ("matrix", "points", "is_finite", "as_array", "index_of"),
    "table map": ("table", "space"),
    "piecewise map": ("default",),
    "circle": ("center", "radius", "members"),
    "condition report": ("condition_id", "holds"),
    "verdict": ("theorem_id", "consistent", "hypotheses_hold",
                "conclusion_holds"),
    "validation": ("valid",),
    "sweep report": ("falsifications", "spaces_checked", "maps_checked",
                     "verdicts_checked"),
    "falsification": ("theorem_id",),
    "search result": ("status", "evaluated", "found"),
    "gallery entry": ("space", "tmap"),
    "gallery report": ("results",),
}


def test_object_attributes_resolve():
    text = "".join(p.read_text(encoding="utf-8")
                   for p in sorted(PERFBENCH.glob("*.py")))
    pkg = {name: importlib.import_module("fixedcircle." + name)
           for name in ("conditions", "gallery", "generators", "metric_core",
                        "verifier")}
    mc, gen, ver = pkg["metric_core"], pkg["generators"], pkg["verifier"]
    space = gen.random_metric_space(gen.GenConfig(seed=2, size=4))
    center = space.points()[0]
    circle = mc.circle_of(space, center, float(space.as_array[0, 1]))
    tmap = gen.build_circle_fixing_map(space, circle)
    line = mc.MetricSpace.analytic("real_usual", (0.0, 1.0))
    objects = {
        "space": space, "table map": tmap, "circle": circle,
        "piecewise map": mc.SelfMap.constant(line, 1.0),
        "condition report": pkg["conditions"].check_condition(
            "C1", space, tmap, circle=circle),
        "verdict": ver.verify_theorem("T_EXIST_C1C2", space, tmap, circle),
        "validation": mc.validate_metric(space),
        "sweep report": ver.soundness_sweep(space_count=2, sizes=(3,),
                                            maps_per_space=4),
        "search result": gen.search_counterexample(space, circle, "C1",
                                                   budget=8, seed=0),
        "gallery entry": pkg["gallery"].load_entry("EX_2_5"),
        "gallery report": pkg["gallery"].replay_all("EX_2_5"),
    }
    # a sound sweep reports none, so one is built as the sweep builds it
    objects["falsification"] = ver.Falsification(
        "T_EXIST_C1C2", space, tmap.table, center, circle.radius,
        objects["verdict"])
    assert objects["piecewise map"].kind == "piecewise"
    for kind, names in _OBJECT_ATTRIBUTES.items():
        for name in names:
            assert "." + name in text, (kind, name)     # still read
            assert hasattr(objects[kind], name), (kind, name)
