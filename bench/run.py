"""Time to verdict for the acderiv identity checks, with an opt-in per-layer trace.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 bench/run.py --workload t38-twisted2 --seed 7 --seconds 30 --trace 0

Each run is one process and a closed loop: a single caller runs the
workload's cells serially through ``acderiv.cli.main``, so each
(check id, chart, seed) cell starts only after the previous verdict.  Every
verdict is checked against the hand-written ``EXPECTED`` table, and every
cell report, with its ``millis`` field removed, is digested; the digests must
agree between all passes of a run.

``--trace 0`` measures the end-to-end metrics.  Their times are reference
seconds: while they are measured, the speed gauge of ``gauge.py`` samples
the host's speed every few milliseconds, and each span is rescaled to a fixed
reference speed, because on a shared host the same pass takes from 24 s to
43 s.  The raw times are printed beside them.  ``--trace 1`` runs one plain
pass, then one pass with the wrappers of ``tracer.py`` installed, and reports
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 when every verdict is as expected and every digest
matches, 1 otherwise, 2 on a usage error or when ``src/acderiv`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gauge import Gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

T38 = ["T3.8.1", "T3.8.2", "T3.8.3", "T3.8.4", "T3.8.5", "T3.8.6"]
NON_T38 = [
    "EQ2.3", "EQ2.4", "EX3.1", "L3.6-matrix", "P3.12", "L3.7.1",
    "L3.7.2", "L3.7.3", "R3.10", "P3.3", "NILP", "NEG-T3.8.1",
]

# Expected status of every registry check, on (standard, twisted) charts.
# R3.10 needs holomorphic coordinates; the negative control NEG-T3.8.1 needs
# torsion, and its "pass" means the corrupted identity was caught.
EXPECTED = {
    "EQ2.3": ("pass", "pass"),
    "EQ2.4": ("pass", "pass"),
    "EX3.1": ("pass", "pass"),
    "L3.6-matrix": ("pass", "pass"),
    "P3.12": ("pass", "pass"),
    "L3.7.1": ("pass", "pass"),
    "L3.7.2": ("pass", "pass"),
    "L3.7.3": ("pass", "pass"),
    "T3.8.1": ("pass", "pass"),
    "T3.8.2": ("pass", "pass"),
    "T3.8.3": ("pass", "pass"),
    "T3.8.4": ("pass", "pass"),
    "T3.8.5": ("pass", "pass"),
    "T3.8.6": ("pass", "pass"),
    "R3.10": ("pass", "skip"),
    "P3.3": ("pass", "pass"),
    "NILP": ("pass", "pass"),
    "NEG-T3.8.1": ("skip", "pass"),
}


@dataclass(frozen=True)
class Workload:
    charts: tuple
    ids: tuple
    draws: int  # master seeds per (check, chart), drawn from its pool

    def cells(self):
        return [(chart, cid) for chart in self.charts for cid in self.ids]


# All cells use rank 2 and coefficient degree 2.  Why these three: see
# bench/README.md.
WORKLOADS = {
    "t38-twisted2": Workload(("twisted:2",), tuple(T38[:5]), 1),
    "t38-standard2": Workload(("standard:2",), tuple(T38), 1),
    "registry-sweep": Workload(("standard:2", "twisted:2"), tuple(NON_T38), 2),
    # Not a benchmark workload: the fast path that bench/selftest.py runs.
    "selftest": Workload(("standard:1",), tuple(T38 + NON_T38), 1),
}

POOLS_FILE = BENCH / "pools.json"


def pool_key(cid: str, chart: str) -> str:
    return f"{cid}@{chart}"


def expected_status(cid: str, chart: str) -> str:
    return EXPECTED[cid][0 if chart.startswith("standard:") else 1]


def workload_cells(workload: Workload, seed: int) -> list:
    """(chart, check id, master seed) in run order; the seed picks from each pool.

    Pools are written by bench/screen.py: see there why they exist.
    """
    pools = json.loads(POOLS_FILE.read_text())
    picks = {}
    for chart, cid in workload.cells():
        key = pool_key(cid, chart)
        picks[chart, cid] = random.Random(f"{seed}|{key}").sample(pools[key], workload.draws)
    return [
        (chart, cid, picks[(chart, cid)][draw])
        for draw in range(workload.draws)
        for chart, cid in workload.cells()
    ]


END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.max", "s"),
    ("peak_rss_mib", "MiB"),
]

# Printed with --trace 0 but not in BENCHMARK.json: the same times before
# rescaling to the reference speed.
RAW = [
    ("raw.setup_s", "s"),
    ("raw.wall_s", "s"),
    ("raw.verdict_s.p50", "s"),
    ("raw.verdict_s.max", "s"),
]

PER_LAYER = [
    ("algebra.mul.calls", "count"),
    ("algebra.mul.s", "s"),
    ("algebra.mul.term_pairs", "count"),
    ("algebra.mul.operand_terms.p50", "count"),
    ("algebra.mul.operand_terms.max", "count"),
    ("algebra.mul.result_terms.max", "count"),
    ("algebra.add.calls", "count"),
    ("algebra.add.s", "s"),
    ("algebra.scale.calls", "count"),
    ("algebra.scale.s", "s"),
    ("algebra.gauss.calls", "count"),
    ("chart.build.calls", "count"),
    ("chart.build.s", "s"),
    ("chart.torsion.calls", "count"),
    ("chart.torsion.s", "s"),
    ("chart.nijenhuis.calls", "count"),
    ("forms.interior.calls", "count"),
    ("forms.interior.s", "s"),
    ("forms.interior.distinct_ratio", "ratio"),
    ("forms.wedge.calls", "count"),
    ("forms.wedge.s", "s"),
    ("forms.exterior_d.calls", "count"),
    ("forms.exterior_d.s", "s"),
    ("forms.contract.calls", "count"),
    ("forms.contract.s", "s"),
    ("forms.nr_bracket.calls", "count"),
    ("forms.nr_bracket.s", "s"),
    ("forms.fn_bracket.calls", "count"),
    ("forms.fn_bracket.s", "s"),
    ("forms.bidegree_split.calls", "count"),
    ("forms.bidegree_split.s", "s"),
    ("operators.residuals.calls", "count"),
    ("operators.residuals.s", "s"),
    ("operators.applications", "count"),
    ("operators.exp_series.calls", "count"),
    ("operators.exp_series.s", "s"),
    ("operators.connection.calls", "count"),
    ("operators.connection.s", "s"),
    ("operators.matrix.calls", "count"),
    ("operators.decompose.calls", "count"),
    ("verifier.cells", "count"),
    ("verifier.inputs.s", "s"),
    ("verifier.build.s", "s"),
    ("cli.config.s", "s"),
    ("cli.render.s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

SETUP_REPEATS = 21

# Runs in a fresh interpreter: argv[1] is the bench directory, argv[2] the
# source directory, the rest are the workload's chart names.  Prints the raw
# and reference seconds from before the import to the last built chart.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from gauge import Gauge
with Gauge() as gauge:
    before = gauge.reading()
    sys.path.insert(0, sys.argv[2])
    import acderiv.verifier
    for name in sys.argv[3:]:
        acderiv.verifier.parse_chart_name(name).torsion()
    span = gauge.span(before)
print(repr(span.raw_s), repr(span.ref_s))
"""


@dataclass
class CellResult:
    seconds: float  # raw
    ref_seconds: float  # at the reference speed; equal to seconds without a gauge
    ok: bool
    digest: str


@dataclass
class PassResult:
    cells: list
    wall: float  # raw
    ref_wall: float

    @property
    def digests(self):
        return [c.digest for c in self.cells]


def run_cell(cli, chart: str, cid: str, seed: int) -> tuple:
    """One check through the CLI; returns (status, digest of the report sans millis)."""
    argv = ["--chart", chart, "--ids", cid, "--seed", str(seed), "--rank", "2", "--degree", "2"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    (report,) = doc["reports"]
    status = "skip" if report.get("skip") else ("pass" if report["pass"] else "fail")
    if code != (1 if status == "fail" else 0):
        raise RuntimeError(f"exit code {code} does not match status {status}")
    del report["millis"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    return status, digest


def run_pass(cli, cells, gauge=None) -> PassResult:
    """The cells in order; times are rescaled to the reference speed by gauge, if given."""
    results = []
    for chart, cid, seed in cells:
        expected = expected_status(cid, chart)
        t0 = perf_counter()
        before = gauge.reading() if gauge else None
        try:
            status, digest = run_cell(cli, chart, cid, seed)
        except Exception:  # any crash is a failed cell; the run goes on
            print(f"error in {cid} on {chart} seed {seed}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            status, digest = "error", ""
        if gauge:
            span = gauge.span(before)
            seconds, ref_seconds = span.raw_s, span.ref_s
        else:
            seconds = ref_seconds = perf_counter() - t0
        if status != expected:
            print(f"{cid} on {chart} seed {seed}: {status}, expected {expected}", file=sys.stderr)
        results.append(CellResult(seconds, ref_seconds, status == expected, digest))
    return PassResult(
        results, sum(c.seconds for c in results), sum(c.ref_seconds for c in results)
    )


def measure_setup(charts) -> tuple:
    """Median (raw, reference) seconds to import acderiv and build the charts.

    Each sample is a fresh process.
    """
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), *charts],
            capture_output=True, text=True, check=True, timeout=120,
        )
        raw_s, ref_s = map(float, done.stdout.split())
        raw.append(raw_s)
        ref.append(ref_s)
    return statistics.median(raw), statistics.median(ref)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "acderiv").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def timed_run(cli, cells, seconds: float) -> tuple:
    """Whole passes, a new one only while it fits in the time budget; always one."""
    with Gauge() as gauge:
        started = perf_counter()
        passes = [run_pass(cli, cells, gauge)]
        while perf_counter() - started + (perf_counter() - started) / len(passes) <= seconds:
            passes.append(run_pass(cli, cells, gauge))
    metrics = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for prefix, wall, cell in (("", "ref_wall", "ref_seconds"), ("raw.", "wall", "seconds")):
        metrics[prefix + "wall_s"] = statistics.median(getattr(p, wall) for p in passes)
        metrics[prefix + "verdict_s.p50"] = statistics.median(
            statistics.median(getattr(c, cell) for c in p.cells) for p in passes
        )
        metrics[prefix + "verdict_s.max"] = statistics.median(
            max(getattr(c, cell) for c in p.cells) for p in passes
        )
    return passes, metrics


def traced_run(cli, cells) -> tuple:
    """One plain pass, then one traced pass; per-layer metrics from the second."""
    from tracer import Tracer

    plain = run_pass(cli, cells)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, cells)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    return [plain, traced], metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for whole passes; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acderiv" / "__init__.py").is_file():
        print(f"no acderiv source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import acderiv
    from acderiv import cli

    cells = workload_cells(WORKLOADS[args.workload], args.seed)
    if args.trace:
        passes, measured = traced_run(cli, cells)
        declared = PER_LAYER
    else:
        charts = sorted({chart for chart, _, _ in cells})
        measured = dict(zip(("raw.setup_s", "setup_s"), measure_setup(charts)))
        passes, timed = timed_run(cli, cells, args.seconds)
        measured.update(timed)
        declared = END_TO_END
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared}
    informational = [] if args.trace else RAW

    attempted = sum(len(p.cells) for p in passes)
    failed = sum(1 for p in passes for c in p.cells if not c.ok)
    digests_agree = all(p.digests == passes[0].digests for p in passes)
    if not digests_agree:
        print("cell reports differ between passes at the same seed", file=sys.stderr)

    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    for name, unit in informational:
        print(f"{name} {measured[name]!r} {unit}")
    print(f"failed_ratio {failed / attempted!r} ratio")
    print(f"cells {len(cells)} per pass, passes {len(passes)}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "acderiv": acderiv.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "report_digest": hashlib.sha256("".join(passes[0].digests).encode()).hexdigest(),
    }
    print(json.dumps(provenance, sort_keys=True))
    correct = failed == 0 and digests_agree
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
