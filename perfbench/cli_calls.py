"""cli: cold command-line calls, one at a time (a closed loop, one client).

Each operation starts a fresh interpreter running the fixedcircle entry
point, so start-up, the package import, fileio and the gallery are paid
every call. One round covers every subcommand:

  validate (generated finite space; gallery-exported analytic space),
  check (C1,C2 on the generated pair), verify (T_UNIQUE_C3 on the
  generated pair, twice, the two reports compared byte for byte apart
  from wall_time_seconds; T_EXIST_STAR on the exported EX_2_12 pair),
  enumerate, search (an impossible target on a 5-point space), gallery
  (full replay),

and four malformed inputs that must give exit code 2 without a
traceback: a non-numeric matrix entry, labels that are not a list, a
non-numeric analytic sample, list-shaped table images. Today the
ValueError/TypeError raised while reading them escapes main's handler,
so each exits 1 with a traceback; such a call counts as failed.

With the traced run the same argument lists are also run in-process
(warm) under spans named cli.main.<subcommand>. Work unit: calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import reference
from harness import INTERPRETER, MEMORY, Timer, child_env

# A cold interpreter start pages in and imports: both kernels
# (see harness.Timer).
TIMER = Timer(INTERPRETER, MEMORY)

GEN_N = 24
SEARCH_N = 5
GALLERY_ENTRY = "EX_2_12"
SEARCH_TARGET = "C1 & C2 & !FIXED_CIRCLE"
# The console-script entry point, plus an exit hook that records the
# child's own peak resident set. VmHWM belongs to the program the child
# runs; getrusage would also count the benchmark's pages copied at spawn.
ENTRY_POINT = """import atexit, os, sys
def _peak():
    try:
        with open("/proc/self/status") as fh:
            kb = next(l.split()[1] for l in fh if l.startswith("VmHWM:"))
        with open(os.environ["PERFBENCH_PEAK_FILE"], "w") as fh:
            fh.write(kb)
    except (OSError, StopIteration):
        pass
atexit.register(_peak)
from fixedcircle.cli import main
sys.exit(main())
"""

MALFORMED = {
    "bad_matrix.space.json": {
        "carrier": {"type": "finite", "labels": ["a", "b"]},
        "metric": {"type": "matrix", "values": [[0, "x"], ["x", 0]]}},
    "bad_labels.space.json": {
        "carrier": {"type": "finite", "labels": 3},
        "metric": {"type": "matrix",
                   "values": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}},
    "bad_sample.space.json": {
        "carrier": {"type": "analytic", "kind": "real_usual",
                    "samples": [0.0, "x"]},
        "metric": {"type": "named"}},
    "abc.space.json": {
        "carrier": {"type": "finite", "labels": ["a", "b", "c"]},
        "metric": {"type": "matrix",
                   "values": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}},
    "bad_images.map.json": {
        "rule": {"type": "table", "images": ["a", "b", "c"]}},
}


def _write(scratch, name, doc, fileio):
    path = scratch / name
    path.write_text(fileio.dumps_document(doc), encoding="utf-8")
    return str(path)


def setup(P, seed, scratch):
    """Write the input files: generated, gallery-exported, malformed."""
    fio, gen, mc = P.fileio, P.generators, P.metric_core
    rng = np.random.default_rng([seed, 0xC1])
    files = {}

    def pair(n, tag):
        space = gen.random_metric_space(
            gen.GenConfig(seed=int(rng.integers(2 ** 31)), size=n))
        ci, cj = rng.choice(n, size=2, replace=False)
        label = space.points()[ci]
        radius = float(space.as_array[ci, cj])
        files[tag + ".space"] = _write(scratch, f"{tag}.space.json",
                                       fio.space_to_doc(space), fio)
        return space, label, radius

    space, label, radius = pair(GEN_N, "gen")
    tmap = gen.build_circle_fixing_map(space, mc.circle_of(space, label,
                                                           radius))
    files["gen.map"] = _write(scratch, "gen.map.json", fio.map_to_doc(tmap), fio)
    _, small_label, small_radius = pair(SEARCH_N, "small")
    entry = P.gallery.load_entry(GALLERY_ENTRY)
    files["ex.space"] = _write(scratch, "ex.space.json",
                               fio.space_to_doc(entry.space), fio)
    files["ex.map"] = _write(scratch, "ex.map.json",
                             fio.map_to_doc(entry.tmap), fio)
    for name, doc in MALFORMED.items():
        files[name] = str(scratch / name)
        (scratch / name).write_text(json.dumps(doc), encoding="utf-8")
    return {"scratch": scratch, "files": files,
            "gen": (label, radius), "small": (small_label, small_radius)}


def _calls(state, ref):
    """(tag, argv, expected exit code, command the report must name or
    None when the call must not produce one)."""
    f = state["files"]
    label, radius = state["gen"]
    circle = ["--center", label, "--radius", repr(radius)]
    s_label, s_radius = state["small"]
    verify = ["verify", f["gen.space"], f["gen.map"], "--theorem",
              "T_UNIQUE_C3"] + circle
    return [
        ("validate", ["validate", f["gen.space"]], ref["validate"],
         "validate"),
        # A named analytic metric always satisfies the axioms.
        ("validate", ["validate", f["ex.space"]], 0, "validate"),
        ("check", ["check", f["gen.space"], f["gen.map"],
                   "--conditions", "C1,C2"] + circle, ref["check"], "check"),
        # verify exits 0 whenever the verdict is consistent.
        ("verify", verify, 0, "verify"),
        ("verify-ex", ["verify", f["ex.space"], f["ex.map"], "--theorem",
                    "T_EXIST_STAR", "--center", "0", "--radius", "1"], 0,
         "verify"),
        ("enumerate", ["enumerate", f["gen.space"], f["gen.map"]], 0,
         "enumerate"),
        # An impossible target exhausts: exit 1.
        ("search", ["search", f["small.space"], "--target", SEARCH_TARGET,
                    "--center", s_label, "--radius", repr(s_radius)], 1,
         "search"),
        ("gallery", ["gallery"], 0, "gallery"),
        ("verify-again", verify, 0, "verify"),
        ("malformed", ["validate", f["bad_matrix.space.json"]], 2, None),
        ("malformed", ["validate", f["bad_labels.space.json"]], 2, None),
        ("malformed", ["validate", f["bad_sample.space.json"]], 2, None),
        ("malformed", ["enumerate", f["abc.space.json"],
                       f["bad_images.map.json"]], 2, None),
    ]


def prepare(P, state, log):
    """Expected exit code and content per call, from the input files."""
    f = state["files"]
    gen_space = json.loads(Path(f["gen.space"]).read_text(encoding="utf-8"))
    gen_map = json.loads(Path(f["gen.map"]).read_text(encoding="utf-8"))
    labels = gen_space["carrier"]["labels"]
    D = np.array(gen_space["metric"]["values"], dtype=float)
    images = gen_map["rule"]["images"]
    table = np.array([labels.index(images[p]) for p in labels])
    label, radius = state["gen"]
    atoms = reference.atoms(D, table[None, :], labels.index(label), radius)
    holds = bool(atoms["C1"][0] and atoms["C2"][0])
    enumeration = [[labels[c], float(f"{r:.12g}"), [labels[m] for m in mem]]
                   for c, r, mem in reference.fixed_circles(D, table)]
    return {"check": 0 if holds else 1, "enumeration": enumeration,
            "search_evaluated": SEARCH_N ** SEARCH_N,
            "validate": 0 if reference.metric_is_valid(D) else 1}


def run_round(P, state, ref, log, inproc=False, tracer=None):
    outputs = {}
    peak_file = state["scratch"] / "peak.kb"
    env = dict(child_env(), PERFBENCH_PEAK_FILE=str(peak_file))
    for tag, argv, expected, command in _calls(state, ref):
        peak_file.unlink(missing_ok=True)
        proc, dt = TIMER.timed(subprocess.run,
                               [sys.executable, "-c", ENTRY_POINT] + argv,
                               cwd=state["scratch"], env=env,
                               capture_output=True, text=True, timeout=120)
        if peak_file.exists():
            log.peak_kb = max(log.peak_kb or 0, int(peak_file.read_text()))
        where = f"cli {argv[0]} ({tag})"
        known = (tag == "malformed" and proc.returncode == 1
                 and "Traceback" in proc.stderr)
        log.call(dt, 1, failed=known, tag=argv[0])
        if known:
            continue
        problems, doc = checks.cli_call(where, proc.returncode, proc.stdout,
                                        proc.stderr, expected, command)
        log.check(problems)
        outputs[tag] = proc.stdout
        if doc is not None:
            log.check(_content(where, argv[0], doc, ref))
    log.check(checks.same_bytes("cli verify", outputs.get("verify", ""),
                                outputs.get("verify-again", "")))
    if inproc:
        _in_process(P, state, ref, tracer)


def _content(where, command, doc, ref):
    if command == "enumerate":
        got = [[c["center"], c["radius"], c["members"]]
               for c in doc.get("enumeration", [])]
        return checks.same_rows(where, got, ref["enumeration"])
    if command == "search":
        return checks.search_doc(where, doc, ref["search_evaluated"])
    if command == "gallery":
        return checks.gallery_doc(where, doc)
    if command == "verify":
        return checks.verdict_doc(where, doc)
    return []


def _in_process(P, state, ref, tracer):
    """The same calls in this process, warm, for per-layer spans."""
    span = tracer.span if tracer is not None else (
        lambda name: contextlib.nullcontext())
    for _, argv, _, _ in _calls(state, ref):
        with span(f"cli.main.{argv[0]}"), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                P.cli.main(argv)
            except (ValueError, TypeError):
                pass            # the malformed-input fault, as above


def human(log):
    """Over every cold call of the run, not the per-request medians."""
    times = [t for r in log.rounds for t, _, _ in r]
    gallery = [t for r in log.rounds for t, _, tag in r if tag == "gallery"]
    q = statistics.quantiles(times, n=4)
    return [("cli_p50_s", q[1], "s"), ("cli_p75_s", q[2], "s"),
            ("gallery_s", statistics.median(gallery), "s"),
            ("cold_calls", len(times), "calls")]
