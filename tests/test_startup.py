"""Start-up contract: a cold command-line call imports only the modules
its subcommand runs, and the package's public names resolve lazily.

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
# loaded, and whether hashlib was, as the last line of stderr.
PROBE = """import json, sys
from fixedcircle.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
loaded = sorted(m for m in sys.modules if m.startswith("fixedcircle."))
print(json.dumps([code, loaded, "hashlib" in sys.modules]), file=sys.stderr)
"""

# What every call loads: the parser and the input layer.
BASE = {"cli", "errors", "fileio", "metric_core", "registry"}

SPACE = {"carrier": {"type": "finite", "labels": ["a", "b", "c"]},
         "metric": {"type": "matrix",
                    "values": [[0, 5, 5], [5, 0, 1], [5, 1, 0]]}}
MAP = {"rule": {"type": "table", "images": {"a": "b", "b": "b", "c": "c"}}}
MALFORMED = {"carrier": {"type": "finite", "labels": 3},
             "metric": {"type": "matrix", "values": [[0]]}}


def _python(*argv, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, check=False,
                          timeout=120)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("startup")
    for name, doc in (("space.json", SPACE), ("map.json", MAP),
                      ("bad.json", MALFORMED)):
        (folder / name).write_text(json.dumps(doc), encoding="utf-8")
    return folder


@pytest.mark.parametrize("argv,code,extra", [
    (["--help"], 0, set()),
    (["validate", "space.json"], 0, set()),
    (["validate", "bad.json"], 2, set()),
    (["enumerate", "space.json", "map.json"], 0, set()),
    (["check", "space.json", "map.json", "--center", "a", "--radius", "5",
      "--conditions", "C1,C2"], 0, {"conditions"}),
    (["verify", "space.json", "map.json", "--theorem", "T_EXIST_C1C2",
      "--center", "a", "--radius", "5"], 0, {"conditions", "verifier"}),
    (["search", "space.json", "--target", "C1 & C2", "--center", "a",
      "--radius", "5"], 0, {"conditions", "generators"}),
    (["gallery", "--filter", "EX_2_5"], 0,
     {"conditions", "gallery", "generators", "verifier"}),
], ids=["help", "validate", "validate_malformed", "enumerate", "check",
        "verify", "search", "gallery"])
def test_cli_call_loads_only_its_modules(inputs, argv, code, extra):
    run = _python("-c", PROBE, *argv, cwd=inputs)
    got_code, loaded, hashlib_loaded = json.loads(
        run.stderr.splitlines()[-1])
    assert got_code == code, run.stderr
    assert set(loaded) == {"fixedcircle." + m for m in BASE | extra}
    # only a call that digests an input file maps libcrypto
    assert hashlib_loaded == (argv[0] not in ("--help", "gallery")
                              and code == 0)


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
