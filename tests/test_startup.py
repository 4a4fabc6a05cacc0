"""Start-up contract: a cold command-line call imports only the modules
its subcommand runs, numpy only once it reads an array, and the
package's public names resolve lazily.

Every check runs in a fresh interpreter, since this process has long
since imported the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixedcircle

SRC = Path(fixedcircle.__file__).parents[1]

# Runs the CLI, then reports its exit code, the fixedcircle submodules
# loaded, and whether numpy and hashlib were, as the last line of stderr.
PROBE = """import json, sys
from fixedcircle.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
loaded = sorted(m for m in sys.modules if m.startswith("fixedcircle."))
print(json.dumps([code, loaded, "numpy" in sys.modules,
                  "hashlib" in sys.modules]), file=sys.stderr)
"""

# What every call loads: the parser and the input layer.
BASE = {"cli", "errors", "fileio", "metric_core", "registry"}

SPACE = {"carrier": {"type": "finite", "labels": ["a", "b", "c"]},
         "metric": {"type": "matrix",
                    "values": [[0, 5, 5], [5, 0, 1], [5, 1, 0]]}}
MAP = {"rule": {"type": "table", "images": {"a": "b", "b": "b", "c": "c"}}}
# The malformed shapes of the benchmark's cli round: each is refused
# before any array is built.
MALFORMED = {
    "bad_matrix.json": {
        "carrier": {"type": "finite", "labels": ["a", "b"]},
        "metric": {"type": "matrix", "values": [[0, "x"], ["x", 0]]}},
    "bad_labels.json": {
        "carrier": {"type": "finite", "labels": 3},
        "metric": {"type": "matrix", "values": [[0]]}},
    "bad_sample.json": {
        "carrier": {"type": "analytic", "kind": "real_usual",
                    "samples": [0.0, "x"]},
        "metric": {"type": "named"}},
    "bad_images.json": {
        "rule": {"type": "table", "images": ["a", "b", "c"]}},
}


def _python(*argv, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, check=False,
                          timeout=120)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("startup")
    for name, doc in {"space.json": SPACE, "map.json": MAP,
                      **MALFORMED}.items():
        (folder / name).write_text(json.dumps(doc), encoding="utf-8")
    return folder


# Each call's exit code, the submodules it loads beyond BASE, and
# whether it loads numpy and hashlib. numpy loads at a call's first
# array read, so --help and a refused input never load it; hashlib loads
# when an input file is digested, as a space is before its map is read.
@pytest.mark.parametrize("argv,code,extra,numpy,hashlib", [
    (["--help"], 0, set(), False, False),
    (["validate", "space.json"], 0, set(), True, True),
    (["validate", "bad_matrix.json"], 2, set(), False, False),
    (["validate", "bad_labels.json"], 2, set(), False, False),
    (["validate", "bad_sample.json"], 2, set(), False, False),
    (["enumerate", "space.json", "bad_images.json"], 2, set(), False, True),
    (["enumerate", "space.json", "map.json"], 0, set(), True, True),
    (["check", "space.json", "map.json", "--center", "a", "--radius", "5",
      "--conditions", "C1,C2"], 0, {"conditions"}, True, True),
    (["verify", "space.json", "map.json", "--theorem", "T_EXIST_C1C2",
      "--center", "a", "--radius", "5"], 0, {"conditions", "verifier"},
     True, True),
    (["search", "space.json", "--target", "C1 & C2", "--center", "a",
      "--radius", "5"], 0, {"conditions", "generators"}, True, True),
    (["gallery", "--filter", "EX_2_5"], 0,
     {"conditions", "gallery", "generators", "verifier"}, True, False),
], ids=["help", "validate", "malformed_matrix", "validate_malformed",
        "malformed_sample", "malformed_images", "enumerate", "check",
        "verify", "search", "gallery"])
def test_cli_call_loads_only_its_modules(inputs, argv, code, extra, numpy,
                                         hashlib):
    run = _python("-c", PROBE, *argv, cwd=inputs)
    got_code, loaded, numpy_loaded, hashlib_loaded = json.loads(
        run.stderr.splitlines()[-1])
    assert got_code == code, run.stderr
    assert set(loaded) == {"fixedcircle." + m for m in BASE | extra}
    assert (numpy_loaded, hashlib_loaded) == (numpy, hashlib)


def test_import_loads_no_submodule():
    run = _python("-c", "import json, sys, fixedcircle\n"
                        "print(json.dumps(sorted(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert not [m for m in json.loads(run.stdout)
                if m.startswith("fixedcircle.")]


def test_every_public_name_resolves():
    run = _python("-c", """import json, fixedcircle
by_getattr = [n for n in fixedcircle.__all__
              if getattr(fixedcircle, n, None) is None]
print(json.dumps(by_getattr))
""")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
    run = _python("-c", """import json, fixedcircle
names = {}
exec("from fixedcircle import *", names)
print(json.dumps(sorted(set(fixedcircle.__all__) - set(names))))
""")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
    assert set(fixedcircle.__all__) <= set(dir(fixedcircle))
    with pytest.raises(AttributeError):
        fixedcircle.no_such_name


def test_python_m_fixedcircle():
    run = _python("-m", "fixedcircle", "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: fixedcircle")
