import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"

_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# A stand-in for perfbench/run.py: logs "<checkout> <seed>" to ../order.log
# and prints the canned result of its seed as its last line.
STUB = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {seed}\\n")
print("manifest {}")
print(json.dumps(json.loads((here / "canned.json").read_text())[seed]))
'''

METRICS = {  # name: better
    "gain_s": "lower", "worse_s": "lower", "wide_s": "lower", "same_s": "lower",
    "rate": "higher",
}


def checkout(root: Path, name: str, runs: dict) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "canned.json").write_text(json.dumps(runs))
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": better, "bound": 0.25} for name, better in METRICS.items()
    ]}))
    return path


def canned(metrics: dict, correct=True, failed=0) -> dict:
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


def run_ab(tmp_path, parent_runs, change_runs, pairs):
    parent = checkout(tmp_path, "parent", parent_runs)
    change = checkout(tmp_path, "change", change_runs)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "w",
         "--pairs", str(pairs), "--seconds", "1", "--first-seed", "7"],
        capture_output=True, text=True, timeout=120,
    )
    return proc, (tmp_path / "order.log").read_text().split("\n")[:-1]


def test_alternates_pairs_and_gives_each_verdict(tmp_path):
    parent_runs, change_runs = {}, {}
    for i in range(10):
        parent_runs[str(7 + i)] = canned({
            "gain_s": 10 + 0.01 * i, "worse_s": 10 + 0.01 * i, "wide_s": (1, 10)[i % 2],
            "same_s": 10 + 0.01 * i, "rate": 100 + i,
        })
        change_runs[str(7 + i)] = canned({
            "gain_s": 5 + 0.01 * i, "worse_s": 20 + 0.01 * i, "wide_s": (1, 10)[i % 2],
            "same_s": 10 + 0.01 * (9 - i), "rate": 99 + i,
        })
    proc, order = run_ab(tmp_path, parent_runs, change_runs, 10)
    assert proc.returncode == 0, proc.stderr
    assert order == [f"{side} {7 + i}" for i in range(10)
                     for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    verdicts = {line.split()[1]: line.rsplit(": ", 1)[1]
                for line in proc.stdout.splitlines() if line.startswith("w ")}
    assert verdicts == {"gain_s": "gain", "worse_s": "worse", "wide_s": "unresolved",
                        "same_s": "no worse", "rate": "no worse"}
    assert "change wins 10/10: gain" in proc.stdout
    assert "operations failed/attempted: parent 0/100, change 0/100" in proc.stdout
    assert sum(line.startswith("pair ") for line in proc.stdout.splitlines()) == 20


def test_incorrect_run_exits_one(tmp_path):
    runs = {str(7 + i): canned(dict.fromkeys(METRICS, 1.0)) for i in range(2)}
    bad = dict(runs, **{"8": canned(dict.fromkeys(METRICS, 1.0), correct=False, failed=1)})
    proc, order = run_ab(tmp_path, runs, bad, 2)
    assert proc.returncode == 1
    assert len(order) == 4
    assert "pair 1 seed 8 change: exit 0" in proc.stdout
    assert "operations failed/attempted: parent 0/20, change 1/20" in proc.stdout


@pytest.mark.parametrize("parent, change, better, failed, want", [
    # nine wins of ten and a median gain wider than the parent's quartiles
    ([10.0] * 10, [5.0] * 9 + [11.0], "lower", (0, 0), "gain"),
    ([10.0] * 10, [9.0] * 8 + [10.5] * 2, "lower", (0, 0), "no worse"),
    ([10.0] * 10, [5.0] * 10, "lower", (0, 1), "no worse"),  # more failed operations
    ([100.0] * 10, [70.0] * 10, "higher", (0, 0), "worse"),
    ([100.0] * 10, [80.0] * 10, "higher", (0, 0), "no worse"),
    # a wide parent spread is resolved only when every change run is better
    ([1.0, 10.0] * 5, [0.5, 0.9] * 5, "lower", (0, 1), "no worse"),
    ([1.0, 10.0] * 5, [0.5, 1.5] * 5, "lower", (0, 1), "unresolved"),
], ids=["gain", "eight-wins", "more-failed", "worse-higher", "within-bound-higher",
        "wide-but-every-run-better", "wide"])
def test_verdict(parent, change, better, failed, want):
    label, _, _ = ab.verdict(parent, change, better, 0.25, dict(zip(ab.SIDES, failed)))
    assert label == want
