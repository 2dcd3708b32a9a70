"""Tests of the benchmark's own logic; run with ``python -m pytest perfbench``."""

import ast
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import workloads
from checks import OpLog, golden_key, load_golden, time_to_se_s, z_score
from tracer import Tracer, covered_length

HERE = Path(__file__).resolve().parent
HARNESS = sorted(p for p in HERE.glob("*.py") if not p.name.startswith(("test_", "conftest")))


def test_time_to_se_projection_from_known_tally():
    # p(1-p) = 3/16 needs 187500 positives for se = 1e-3; at 10 ms each that is 1875 s.
    assert time_to_se_s(10.0, 1000, 0.25) == pytest.approx(1875.0)
    # The qubit rational with a golden tally of 99 positives in 2.5 s.
    p = float(Fraction(8, 33))
    assert time_to_se_s(2.5, 99, p) == pytest.approx(2.5 / 99 * p * (1 - p) * 1e6)
    assert time_to_se_s(5.0, 99, p) == pytest.approx(2 * time_to_se_s(2.5, 99, p))


def test_z_score_sign_and_scale():
    assert z_score(10_000, 2500, 0.25) == 0.0
    assert z_score(10_000, 2600, 0.25) == pytest.approx(100 / (10_000 * 0.25 * 0.75) ** 0.5)
    assert z_score(0, 0, 0.25) == 0.0


def test_tampered_tally_counts_as_failed_operation():
    key = golden_key("qubit", 10000, 1_000_000, 4_000_000)
    log = OpLog({key: [4_000_000, 99, 27]})
    assert log.attempt(log.check, key, (4_000_000, 99, 27))
    assert not log.attempt(log.check, key, (4_000_000, 99, 28))
    assert (log.attempted, log.failed) == (2, 1)
    assert log.golden_summary() == {"golden": 1, "repeat": 0, "new": 0, "mismatch": 1}


def test_tampered_golden_fails_a_real_kernel_operation(tmp_path):
    # Ten maximally mixed quaterbit states: all positive and all PPT.
    pts = np.zeros((10, 27))
    key = golden_key("quaterbit", 7, 10, 10)
    for recorded, failed in (([10, 10, 10], 0), ([10, 10, 9], 1)):
        log = OpLog({key: recorded})
        run = workloads.Run("quaterbit", log, tmp_path)
        log.attempt(workloads.body_op, run, pts, 7, True)
        assert (log.attempted, log.failed) == (1, failed)
        assert run.tally == [10, 10, 10]


def test_unrecorded_key_must_repeat_within_a_run():
    log = OpLog({})
    key = golden_key("quaterbit", 7, 50, 50)
    assert log.attempt(log.check, key, (50, 50, 4))
    assert log.attempt(log.check, key, (50, 50, 4))
    assert not log.attempt(log.check, key, (50, 50, 5))
    assert log.failed == 1


def test_raising_operation_counts_as_failed():
    log = OpLog({})

    def boom():
        raise RuntimeError("sepmc estimate exited 2")

    assert not log.attempt(boom)
    assert (log.attempted, log.failed) == (1, 1)
    assert "exited 2" in log.errors[0]


def test_span_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("op"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("a"):
                pass
    assert [s["parent"] for s in tr.spans] == [None, 0, 0, 2]
    # op covers [0, 10] with children [1, 3] and [4, 8]; b covers [4, 8] with child [5, 6].
    assert tr.self_times() == [4.0, 2.0, 3.0, 1.0]
    assert tr.totals() == {"op": (1, 10.0, 4.0), "a": (2, 3.0, 3.0), "b": (1, 4.0, 3.0)}


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 12)], 0, 10) == 7
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_golden_table_covers_default_and_held_out_seeds():
    golden = load_golden()
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        s = workloads.op_seed(seed, 0)
        n = workloads.BODY_POINTS
        assert golden_key("qubit", s, workloads.QUBIT_CHUNK, workloads.QUBIT_DRAWS) in golden["qubit-ball"]
        assert golden_key("quaterbit", seed, n, n) in golden["quaterbit-body"]
        for draws in (workloads.CLI_HALF, workloads.CLI_DRAWS):
            assert golden_key("rebit", s, workloads.CLI_CHUNK, draws) in golden["rebit-cli-resume"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _attribute_chain(node):
    """(base name, [attr, ...]) of an attribute chain such as a.b.c."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id if isinstance(node, ast.Name) else None), attrs


@pytest.mark.parametrize("path", HARNESS, ids=lambda p: p.name)
def test_harness_uses_only_public_sepmc_names(path):
    text = path.read_text()
    assert "SEPMC_BACKEND" not in text
    tree = ast.parse(text)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sepmc":
                    assert not any(_private(p) for p in alias.name.split("."))
                    bound.add(alias.asname or "sepmc")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sepmc":
            assert not any(_private(p) for p in node.module.split("."))
            for alias in node.names:
                assert not _private(alias.name), f"{path.name}:{node.lineno} imports {alias.name}"
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base, attrs = _attribute_chain(node)
            if base in bound:
                assert not any(map(_private, attrs)), f"{path.name}:{node.lineno} reads {attrs}"


def test_private_name_scan_catches_a_private_read(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from sepmc import kernels\nkernels._count_numpy\n")
    with pytest.raises(AssertionError):
        test_harness_uses_only_public_sepmc_names(bad)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qubit-ball", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "sepmc" in proc.stderr


def test_benchmark_file_names_every_metric_the_harness_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(workloads.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(workloads.PER_LAYER_UNITS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = {**workloads.END_TO_END_UNITS, **workloads.PER_LAYER_UNITS}
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
