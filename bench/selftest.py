"""Fast self-test of the benchmark on standard:1 cells (about ten seconds).

    python3 bench/selftest.py

Runs bench/run.py on its "selftest" workload once untraced and twice traced,
at one seed, and checks that:

* every workload BENCHMARK.json names exists in bench/run.py;
* every metric BENCHMARK.json names is printed, with its unit, and no other;
* every verdict is as expected and the run says so;
* every count repeats exactly between the two traced runs;
* the cell reports are byte-identical across all three processes.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOADS  # noqa: E402


def run(trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selftest", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(condition: bool, message: str):
        if not condition:
            problems.append(message)

    for workload in spec["workloads"]:
        expect(workload["name"] in WORKLOADS, f"unknown workload {workload['name']}")
    results = [run(0), run(1), run(1)]
    for (provenance, result), section in zip(results, ("end_to_end", "per_layer", "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
        expect(printed == declared, f"trace {provenance['trace']}: printed {printed}, "
               f"BENCHMARK.json declares {declared}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"trace {provenance['trace']}: {result['failed']} of {result['attempted']} failed")
    digests = {provenance["report_digest"] for provenance, _ in results}
    expect(len(digests) == 1, f"cell reports differ between processes: {digests}")
    first, second = results[1][1]["metrics"], results[2][1]["metrics"]
    for name, entry in first.items():
        if entry["unit"] != "s":
            expect(entry == second[name], f"{name} differs between traced runs: "
                   f"{entry['value']} vs {second[name]['value']}")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
