"""Spans around the program's public functions, recorded from outside.

The benchmark does not edit the program. Instead, for a traced phase it
replaces each public function it measures with a wrapper, in every
fixedcircle module that holds a reference to it (a module that did
``from .metric_core import validate_metric`` calls its own binding, so
that binding is the one replaced), and puts the originals back after.

A span is (name, start, end, parent). Spans nest on the one thread the
benchmark runs, so a span's self time is its duration minus the
durations of its direct children. Busy time, self time, call counts and
a few work counters are aggregated as spans close; the span list itself
is kept up to a cap and written out when the run ends.

A traced set-up gets a Tracer of its own; the metrics named
``setup.<layer>.s`` are its busy seconds, apart from the rounds' figures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

from harness import ROOT

SPAN_CAP = 200_000

# (module, attribute, span name). Condition checkers are named by the
# condition id they report; check_c1 also serves C1_DSTAR via _cid.
FUNCTIONS = (
    ("metric_core", "validate_metric", "metric_core.validate_metric"),
    ("metric_core", "enumerate_circles", "metric_core.enumerate_circles"),
    ("metric_core", "circle_of", "metric_core.circle_of"),
    ("metric_core", "is_fixed_circle", "metric_core.is_fixed_circle"),
    ("metric_core", "fixed_points", "metric_core.fixed_points"),
    ("conditions", "check_c1", None),
    ("conditions", "check_c2", "conditions.C2"),
    ("conditions", "check_c1_star", "conditions.C1_STAR"),
    ("conditions", "check_c2_star", "conditions.C2_STAR"),
    ("conditions", "check_c2_dstar", "conditions.C2_DSTAR"),
    ("conditions", "check_identity_condition", "conditions.ID_COND"),
    ("conditions", "check_c3", "conditions.C3"),
    ("conditions", "check_c3_dstar", "conditions.C3_DSTAR"),
    ("conditions", "check_banach", "conditions.BANACH"),
    ("conditions", "check_caristi", "conditions.CARISTI"),
    ("conditions", "check_rhoades", "conditions.RHOADES"),
    ("verifier", "theorem_flags", "verifier.theorem_flags"),
    ("verifier", "soundness_sweep", "verifier.soundness_sweep"),
    ("verifier", "enumerate_fixed_circles", "verifier.enumerate_fixed_circles"),
    ("verifier", "verify_existence", "verifier.verify_existence"),
    ("verifier", "verify_uniqueness", "verifier.verify_uniqueness"),
    ("verifier", "verify_identity_theorem", "verifier.verify_identity_theorem"),
    ("verifier", "verify_banach", "verifier.verify_banach"),
    ("verifier", "verify_caristi", "verifier.verify_caristi"),
    ("generators", "random_metric_space", "generators.random_metric_space"),
    ("generators", "search_counterexample", "generators.search_counterexample"),
    ("generators", "build_circle_fixing_map", "generators.build_circle_fixing_map"),
    ("gallery", "replay_all", "gallery.replay_all"),
    ("gallery", "load_entry", "gallery.load_entry"),
    ("fileio", "space_from_doc", "fileio.space_from_doc"),
    ("fileio", "map_from_doc", "fileio.map_from_doc"),
    ("fileio", "serialize_report", "fileio.serialize_report"),
)

# (module, class, classmethod, span name)
CLASSMETHODS = (
    ("metric_core", "MetricSpace", "analytic", "metric_core.analytic"),
    ("metric_core", "SelfMap", "from_indices", "metric_core.SelfMap.from_indices"),
)

# Tables in the verifier that hold checker functions captured at import.
VARIANT_TABLES = ("EXISTENCE_VARIANTS", "UNIQUENESS_VARIANTS")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, start, end, parent]
        self.dropped = 0
        self.stack: list[list] = []       # [name, start, child_seconds, span]
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Spaces validate_metric saw this round (held, so ids stay unique),
        # and the sum of their counts over the finished rounds.
        self.spaces: dict[int, object] = {}
        self.spaces_seen = 0

    def end_round(self) -> None:
        self.spaces_seen += len(self.spaces)
        self.spaces.clear()

    def enter(self, name: str) -> None:
        start = time.perf_counter()
        idx = -1
        if len(self.spans) < SPAN_CAP:
            # A span is stored when it opens, so a stored span's parent,
            # which opened earlier, is always stored too.
            idx = len(self.spans)
            nid = self.name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append([nid, start, None, parent])
        else:
            self.dropped += 1
        self.stack.append([name, start, 0.0, idx])

    def leave(self) -> None:
        end = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        self.busy[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def wrap(self, fn, name, on_result=None, on_args=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if on_args is not None:
                on_args(self, args)
            self.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def write(self, path) -> None:
        """Names, then spans as [name index, start s, end s, parent index
        into spans or null]; spans past the cap are counted, not kept."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(a, 7), round(b, 7), p]
                                 for n, a, b, p in self.spans]}, fh)


def _space_count(tracer, args):
    tracer.spaces.setdefault(id(args[0]), args[0])


def _theorem_maps(tracer, args):
    tracer.counts["verifier.theorem_flags.maps"] += int(args[1].shape[0])


def _search_maps(tracer, result):
    tracer.counts["generators.search_counterexample.maps"] += int(result.evaluated)


def _expectations(tracer, result):
    tracer.counts["gallery.replay_all.expectations"] += len(result.results)


_HOOKS = {
    "metric_core.validate_metric": {"on_args": _space_count},
    "verifier.theorem_flags": {"on_args": _theorem_maps},
    "generators.search_counterexample": {"on_result": _search_maps},
    "gallery.replay_all": {"on_result": _expectations},
}


def _c1_name(args, kwargs):
    return "conditions." + kwargs.get("_cid", "C1")


def install(tracer: Tracer) -> list:
    """Wrap every listed function wherever a fixedcircle module binds it.
    Returns the undo list for uninstall()."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "fixedcircle" or name.startswith("fixedcircle.")}
    undo = []
    swap = {}
    for mod_name, attr, span_name in FUNCTIONS:
        orig = getattr(mods["fixedcircle." + mod_name], attr)
        swap[id(orig)] = tracer.wrap(orig, span_name or _c1_name,
                                     **_HOOKS.get(span_name, {}))
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if id(value) in swap:
                undo.append((mod, key, value))
                setattr(mod, key, swap[id(value)])
    verifier = mods["fixedcircle.verifier"]
    for table_name in VARIANT_TABLES:
        table = getattr(verifier, table_name)
        for key, (theorem_id, checkers) in list(table.items()):
            undo.append((table, key, (theorem_id, checkers)))
            table[key] = (theorem_id,
                          tuple(swap.get(id(c), c) for c in checkers))
    for mod_name, cls_name, meth, span_name in CLASSMETHODS:
        cls = getattr(mods["fixedcircle." + mod_name], cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, classmethod(tracer.wrap(orig.__func__, span_name)))
    return undo


def uninstall(undo: list) -> None:
    for target, key, value in reversed(undo):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)


def layer_metrics(tracer: Tracer, rounds: int, cold_import_s: float,
                  setup_tracer: Tracer) -> dict:
    """Per-round busy/self seconds and counts for the names in METRICS;
    busy seconds of the one traced set-up for the setup.* names."""
    per = 1.0 / rounds
    validate_calls = tracer.calls["metric_core.validate_metric"]
    values = {
        "metric_core.validate_metric.calls_per_space":
            validate_calls / tracer.spaces_seen if tracer.spaces_seen else 0.0,
        "cli.import.s": cold_import_s,
    }
    for name, unit in METRICS:
        if name in values or name.startswith("trace."):
            continue
        base, _, kind = name.rpartition(".")
        if name.startswith("setup."):
            values[name] = setup_tracer.busy.get(base[len("setup."):], 0.0)
        elif kind == "s":
            values[name] = tracer.busy.get(base, 0.0) * per
        elif kind == "self_s":
            values[name] = tracer.self_time.get(base, 0.0) * per
        elif kind == "calls":
            values[name] = tracer.calls.get(base, 0) * per
        else:
            values[name] = tracer.counts.get(name, 0) * per
    return values


# Per-layer metric names and units: BENCHMARK.json's per_layer list.
METRICS = tuple((m["name"], m["unit"]) for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"])
