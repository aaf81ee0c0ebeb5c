"""Golden reports: the registry's JSON reports, pinned byte for byte.

A change to the kernels that promises the same reports is held to them here.
The golden file holds the CLI reports without their `millis`, and the sha256
and length of the corrupted T3.8.1 residual on standard:2 (a failing report
is too large to store whole).  To rewrite it after a deliberate change of a
report, run `PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import hashlib
import json
from pathlib import Path

from acderiv import cli
from acderiv.verifier import IdentityCheck, _CheckContext, _check_T381, _verdict

GOLDEN = Path(__file__).with_name("golden_reports.json")

RUNS = [
    ("standard:1", None),
    ("standard:2", None),
    ("twisted:2", "NILP,T3.8.3,L3.7.1,NEG-T3.8.1"),
]


def _cli_report(tmp_dir: Path, chart: str, ids) -> dict:
    out = tmp_dir / "report.json"
    args = ["--chart", chart, "--seed", "7", "--out", str(out)]
    if ids:
        args += ["--ids", ids]
    cli.main(args)
    doc = json.loads(out.read_text())
    for report in doc["reports"]:
        del report["millis"]
    return doc


def _corrupted_T381() -> dict:
    ctx = _CheckContext(IdentityCheck("T3.8.1", chart="standard:2", seed=7))
    generator, residual = _verdict(_check_T381(ctx, corrupt=True))[1]
    text = f"on {generator}: {residual}".encode()
    return {"sha256": hashlib.sha256(text).hexdigest(), "length": len(text)}


def golden(tmp_dir: Path) -> dict:
    reports = {f"{chart} {ids or 'all'}": _cli_report(tmp_dir, chart, ids) for chart, ids in RUNS}
    return {"reports": reports, "corrupted-T3.8.1-standard:2": _corrupted_T381()}


def test_reports_match_the_golden_file(tmp_path):
    assert golden(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden(Path(tmp)), indent=2, sort_keys=True) + "\n")
