"""fixedcircle benchmark: end-to-end and per-layer performance, with every
output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads

Run from the repository root (or anywhere: paths are taken relative to
this file). The package is imported from ../src, never from an installed
copy; without src/fixedcircle the benchmark exits with code 2 and prints
no result.

Each run: self-test the output checks, set up the workload's inputs
SETUP_REPS times (each time: a cold import of fixedcircle.cli in a fresh
interpreter plus in-process input generation; the median is setup_s),
compute the benchmark's own reference answers, then repeat whole rounds
of the workload's requests until --seconds have passed and at least
MIN_ROUNDS rounds ran. Times are taken at the reference speed (see
harness.Timer); a request's time is its median over the rounds.
Human-readable lines go first; the last line of stdout is one JSON
object. Without --workload each workload runs in a child process of its
own, one after the other, so each peak_rss_mb belongs to its workload.

With --trace 1 the run measures per-layer metrics instead: k untraced
rounds (about half of --seconds), then the same k rounds with spans
recorded around the program's public functions. Layer figures are per
round; the tracing overhead is the difference of the two wall times.
Before the rounds, one more set-up runs traced, and the setup.<layer>
figures are its own.
"""

from __future__ import annotations

import os

# Numeric thread pools stay at one thread; a user's tolerance settings
# must not change what the benchmark measures. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("FIXEDCIRCLE_")]:
    del os.environ[_var]

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from harness import HERE, ROOT, SRC, Log, child_env

OUT = HERE / "out"

WORKLOADS = ("sweep", "search", "instance", "cli")
MODULES = {"sweep": "sweep", "search": "search", "instance": "instance",
           "cli": "cli_calls"}
SETUP_REPS = 5
MIN_ROUNDS = 3
# A run stops starting new rounds after this long, whatever MIN_ROUNDS says.
HARD_STOP_S = 120.0

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import fixedcircle.cli\n"
                "print(repr(time.perf_counter() - t))\n")


def cold_import_s() -> float:
    """Seconds a fresh interpreter spends importing fixedcircle.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def load_program() -> SimpleNamespace:
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "fixedcircle" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fixedcircle package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {}
    for name in ("metric_core", "conditions", "verifier", "generators",
                 "gallery", "fileio", "cli"):
        mods[name] = importlib.import_module("fixedcircle." + name)
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"fixedcircle imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def peak_rss_mb(log: Log) -> float:
    """The largest child's own peak where requests ran in children,
    otherwise this process's peak."""
    kb = log.peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def run_rounds(wl, P, state, ref, log, seconds, inproc=False, tracer=None,
               rounds=None) -> tuple[int, float]:
    """Whole rounds until the time is up (or exactly ``rounds``)."""
    t0 = time.perf_counter()
    done = 0
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif done and (time.perf_counter() - t0 >= seconds
                       and done >= MIN_ROUNDS
                       or time.perf_counter() - t0 >= HARD_STOP_S):
            break
        log.start_round()
        if tracer is None:
            wl.run_round(P, state, ref, log, inproc=inproc)
        else:
            with tracer.span("bench.round"):
                wl.run_round(P, state, ref, log, inproc=inproc, tracer=tracer)
            tracer.end_round()
        done += 1
    return done, time.perf_counter() - t0


def run_workload(name: str, P, seed: int, seconds: float, trace: bool,
                 selftest_problems: list[str]) -> dict:
    wl = importlib.import_module(MODULES[name])
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    log = Log()
    log.check(selftest_problems)
    try:
        setups, imports = [], []
        timer = wl.TIMER
        for _ in range(SETUP_REPS):
            before = timer.slowdown()
            imports.append(timer.scale(cold_import_s(), before,
                                       timer.slowdown()))
            state, gen_s = timer.timed(wl.setup, P, seed, scratch)
            setups.append(imports[-1] + gen_s)
        ref = wl.prepare(P, state, log)
        try:
            if trace:
                metrics = traced_metrics(wl, P, state, ref, log, seconds,
                                         statistics.median(imports),
                                         name, seed, scratch)
            else:
                run_rounds(wl, P, state, ref, log, seconds)
                metrics = end_to_end(log, statistics.median(setups))
        except Exception:
            log.problems.append("a round raised:\n" + traceback.format_exc())
            metrics = {}
        for label, value, unit in wl.human(log):
            print(f"{name}: {label} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in log.problems:
        print(f"{name}: PROBLEM {problem}")
    print(f"{name}: attempted {log.attempted} operations, failed {log.failed}")
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": not log.problems, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics}


def end_to_end(log: Log, setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_s": {"value": log.work_per_s(), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(t for t, _, _ in log.typical()),
                     "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(log), "unit": "MB"},
    }


def traced_metrics(wl, P, state, ref, log, seconds, import_s, name, seed,
                   scratch):
    import tracing
    setup_tracer = tracing.Tracer()
    undo = tracing.install(setup_tracer)
    try:
        wl.setup(P, seed, scratch)
    finally:
        tracing.uninstall(undo)
    rounds, plain_s = run_rounds(wl, P, state, ref, log, seconds / 2,
                                 inproc=True)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        _, traced_s = run_rounds(wl, P, state, ref, log, seconds, inproc=True,
                                 tracer=tracer, rounds=rounds)
    finally:
        tracing.uninstall(undo)
    values = tracing.layer_metrics(tracer, rounds, import_s, setup_tracer)
    values["trace.overhead_s"] = (traced_s - plain_s) / rounds
    values["trace.overhead_share"] = traced_s / plain_s - 1.0
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    print(f"{name}: {len(tracer.spans)} spans ({tracer.dropped} over the cap "
          f"not stored) written to {spans_path.relative_to(ROOT)}")
    print(f"{name}: layer self time per round, largest first:")
    for layer, self_s in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        print(f"{name}:   {layer:<45} self {self_s / rounds:10.4f} s  busy "
              f"{tracer.busy[layer] / rounds:10.4f} s  calls "
              f"{tracer.calls[layer] / rounds:g}")
    units = dict(tracing.METRICS)
    return {key: {"value": float(values[key]), "unit": units[key]}
            for key, _ in tracing.METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        P = load_program()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import selftest
    cases, problems = selftest.run()
    for problem in problems:
        print(f"selftest: PROBLEM {problem}")
    print(f"selftest: {cases} cases, "
          f"{len(problems)} check(s) that did not behave")
    result = run_workload(args.workload, P, args.seed, args.seconds,
                          bool(args.trace), problems)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a child process of its own, one at a time; their
    lines are passed on and their results summed up in one JSON line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        ok = proc.returncode == 0 and lines
        for line in lines[:-1] if ok else lines:
            print(line)
        if not ok:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
