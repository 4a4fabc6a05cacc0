"""Golden pin of the condition and theorem reports on the gallery.

For every gallery entry and every circle it lists, the data file holds a
digest of fileio.condition_row for each condition id and of
fileio.verdict_row for each theorem, together with the exact floats of
every condition report behind them (float.hex, so the sign of a zero
margin counts) and the witness tuples. A refactor of the checkers must
leave every digest as it is; a mismatch names the call that changed.

The data was generated from the checkers as they stood before the
single-map checks were rebuilt on the batch rules. Regenerate it only
for a deliberate change of report content:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
from pathlib import Path

from fixedcircle import fileio
from fixedcircle.conditions import CONDITION_IDS, check_condition
from fixedcircle.gallery import list_entries, load_entry
from fixedcircle.verifier import THEOREM_IDS, verify_theorem

DATA = Path(__file__).with_name("golden_reports.json")


def _exact(rep):
    return [float(rep.margin).hex(),
            None if rep.derived_param is None
            else float(rep.derived_param).hex(),
            repr(rep.witness)]


def _digest(row, reports):
    text = json.dumps([row, [_exact(r) for r in reports]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _current():
    out = {}
    for entry_id in list_entries():
        entry = load_entry(entry_id)
        for k, circle in enumerate(entry.circles):
            for cid in CONDITION_IDS:
                rep = check_condition(cid, entry.space, entry.tmap,
                                      circle=circle)
                out[f"{entry_id} circle {k} check {cid}"] = _digest(
                    fileio.condition_row(rep), [rep])
            for tid in THEOREM_IDS:
                verdict = verify_theorem(tid, entry.space, entry.tmap, circle)
                out[f"{entry_id} circle {k} verify {tid}"] = _digest(
                    fileio.verdict_row(verdict), verdict.hypothesis_reports)
    return out


def test_gallery_reports_match_golden_digests():
    want = json.loads(DATA.read_text(encoding="utf-8"))
    got = _current()
    assert sorted(got) == sorted(want)
    changed = [call for call in want if got[call] != want[call]]
    assert not changed, f"{len(changed)} report(s) changed: {changed[:10]}"


if __name__ == "__main__":
    DATA.write_text(json.dumps(_current(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
