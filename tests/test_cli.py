import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sepmc.states as states
from sepmc import __version__, cli


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_doc(out):
    return json.loads(out)


class TestConjectureCommand:
    def test_alpha_one(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--alpha", "1")
        assert code == 0
        doc = parse_doc(out)
        assert doc["schema"] == "sepmc.result/1"
        assert doc["command"] == "conjecture"
        assert doc["value"] == pytest.approx(8 / 33, abs=1e-10)
        assert doc["tail_bound"] <= 1e-12 * doc["value"]
        assert doc["version"] == __version__

    def test_alpha_half(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--alpha", "0.5")
        assert code == 0
        assert parse_doc(out)["value"] == pytest.approx(0.453125, abs=1e-10)

    def test_negative_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--alpha", "-1")
        assert code == 1
        assert "alpha" in err

    def test_bad_rel_tol_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--alpha", "1", "--rel-tol", "0.5")
        assert code == 1
        assert "rel_tol" in err

    def test_underflowing_alpha_is_numeric_failure(self, capsys):
        code, out, err = run_cli(capsys, "conjecture", "--alpha", "870")
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("sepmc conjecture: ") and "alpha=870" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "conj.json"
        code, out, _ = run_cli(capsys, "conjecture", "--alpha", "2", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == parse_doc(out)


class TestEstimateCommand:
    def test_small_rebit_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--case", "rebit", "--samples", "200000",
            "--seed", "42", "--workers", "1", "--chunk-size", "50000",
        )
        assert code == 0
        doc = parse_doc(out)
        assert list(doc) == [
            "schema", "command", "case", "alpha", "n_total", "n_positive",
            "n_sep", "p_hat", "std_err", "conjecture", "z_score", "seed",
            "chunk_size", "wall_time_s", "version",
        ]
        assert doc["case"] == "rebit"
        assert doc["alpha"] == 0.5
        assert doc["n_total"] == 200000
        assert doc["conjecture"] == pytest.approx(29 / 64, abs=1e-10)
        assert doc["z_score"] == pytest.approx(
            (doc["p_hat"] - doc["conjecture"]) / doc["std_err"]
        )

    def test_repeat_runs_identical_apart_from_wall_time(self, capsys):
        argv = ("estimate", "--case", "rebit", "--samples", "100000",
                "--seed", "7", "--workers", "1", "--chunk-size", "50000")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        d1, d2 = parse_doc(out1), parse_doc(out2)
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert d1 == d2

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--case", "qubit", "--samples", "0")
        assert code == 1
        assert "--samples" in err

    def test_unknown_case_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--case", "qutrit", "--samples", "10")
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--case", "qubit", "--samples", "10",
                             "--frobnicate")
        assert code == 1

    def test_no_positive_samples_is_numeric_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--case", "quaterbit", "--samples", "2000",
            "--workers", "1", "--chunk-size", "1000",
        )
        assert code == 2
        assert "no positive samples" in err

    def test_checkpoint_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        code, out, _ = run_cli(
            capsys, "estimate", "--case", "rebit", "--samples", "100000",
            "--seed", "1", "--workers", "1", "--chunk-size", "50000",
            "--checkpoint", str(path), "--checkpoint-every", "1",
        )
        assert code == 0
        assert path.exists()
        assert "chunks_done 2" in path.read_text()

    def test_workers_auto(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--case", "rebit", "--samples", "50000",
            "--seed", "3", "--workers", "auto", "--chunk-size", "50000",
        )
        assert code == 0


class TestEstimateBadInput:
    """Bad flags and checkpoint files end in one line on stderr and exit 1."""

    ARGV = ("estimate", "--case", "rebit", "--samples", "2000", "--workers", "1",
            "--chunk-size", "1000")

    @staticmethod
    def assert_usage_error(code, out, err, needle, command="estimate"):
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"sepmc {command}: error: ")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, needle", [
        (("--seed", "-1"), "--seed"),
        (("--seed", str(2**64)), "--seed"),
        (("--checkpoint-every", "-3"), "--checkpoint-every"),
        (("--case", "qutrit"), "--case"),
        (("--samples", "x"), "--samples"),
        (("--samples", "0"), "--samples"),
        (("--chunk-size", "0"), "--chunk-size"),
        (("--workers", "0"), "--workers"),
        (("--workers", "x"), "--workers"),
        (("--samples", None), "--samples"),
    ], ids=["seed-negative", "seed-2**64", "checkpoint-every-negative", "case-unknown",
            "samples-not-an-integer", "samples-zero", "chunk-size-zero", "workers-zero",
            "workers-not-an-integer", "samples-missing"])
    def test_out_of_range_flag(self, capsys, tmp_path, flags, needle):
        path = tmp_path / "run.ckpt"
        argv = [*self.ARGV, "--checkpoint", str(path)]
        flag, value = flags
        if value is None:  # the flag left out altogether
            del argv[argv.index(flag):argv.index(flag) + 2]
        else:
            argv += flags
        code, out, err = run_cli(capsys, *argv)
        self.assert_usage_error(code, out, err, needle)
        assert not path.exists()

    def test_module_entry_point(self):
        # the `python -m sepmc.cli` entry point, `sys.exit(main())`, in a fresh interpreter
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sepmc.cli", "estimate", "--case", "qutrit", "--samples", "10"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        self.assert_usage_error(proc.returncode, proc.stdout, proc.stderr, "--case")

    @pytest.mark.parametrize("content, needle", [
        (b"version 1\ncase rebit\nseed zero\n", "missing field"),
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 1\n"
         b"n_total 1000\nn_positive 9\nn_sep x\n", "n_sep"),
        # 50 chunks done of a 2-chunk run, and n_total 7 != 50 * 1000
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 50\n"
         b"n_total 7\nn_positive 0\nn_sep 0\n", "n_total"),
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 50\n"
         b"n_total 50000\nn_positive 0\nn_sep 0\n", "chunks_done"),
        (bytes(range(256)), "not a text file"),
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 1\n"
         b"n_total 1000\nn_positive 9\nn_sep 3\nn_positive 9\n", "n_positive"),
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 1\n"
         b"n_total 1000\nn_positive 9\nn_sep 3\nbogus 1\n", "bogus"),
    ], ids=["truncated", "garbage-value", "inconsistent-n_total", "chunks-beyond-run", "binary",
            "repeated-key", "unknown-key"])
    def test_bad_checkpoint_file(self, capsys, tmp_path, content, needle):
        path = tmp_path / "run.ckpt"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, *self.ARGV, "--checkpoint", str(path))
        self.assert_usage_error(code, out, err, needle)
        assert str(path) in err

    @pytest.mark.parametrize("argv, path, reason", [
        (ARGV + ("--checkpoint",), "", "Is a directory"),
        (ARGV + ("--checkpoint",), "missing/run.ckpt", "No such file or directory"),
        (ARGV + ("--out",), "missing/result.json", "No such file or directory"),
        (("conjecture", "--alpha", "1", "--out"), "missing/result.json",
         "No such file or directory"),
    ], ids=["checkpoint-is-a-directory", "checkpoint-in-missing-directory",
            "estimate-out-in-missing-directory", "conjecture-out-in-missing-directory"])
    def test_unusable_path(self, capsys, tmp_path, argv, path, reason):
        target = tmp_path / path
        code, out, err = run_cli(capsys, *argv, str(target))
        self.assert_usage_error(code, out, err, str(target), command=argv[0])
        assert reason in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha(self, capsys, alpha):
        code, out, err = run_cli(capsys, "conjecture", "--alpha", alpha)
        self.assert_usage_error(code, out, err, "alpha", command="conjecture")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    samples=st.integers(-1, 4000),
    chunk_size=st.integers(-1, 5000),
    seed=st.integers(-1, 2**64),
    workers=st.sampled_from(["-1", "0", "1", "2", "auto"]),
    checkpoint_every=st.integers(-1, 3),
)
@example(samples=4000, chunk_size=1000, seed=-1, workers="1", checkpoint_every=1)
@example(samples=4000, chunk_size=1000, seed=2**64 - 1, workers="2", checkpoint_every=1)
@example(samples=4000, chunk_size=1000, seed=2**64, workers="auto", checkpoint_every=0)
def test_fuzzed_flags_give_a_document_or_one_error_line(
    capsys, samples, chunk_size, seed, workers, checkpoint_every
):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_cli(
            capsys, "estimate", "--case", "rebit", "--samples", str(samples),
            "--chunk-size", str(chunk_size), "--seed", str(seed), "--workers", workers,
            "--checkpoint", os.path.join(tmp, "run.ckpt"),
            "--checkpoint-every", str(checkpoint_every),
        )
    valid = (samples >= 1 and chunk_size >= 1 and workers not in ("-1", "0")
             and 0 <= seed < 2**64 and checkpoint_every >= 0)
    if code == 0:
        assert valid and err == ""
        assert parse_doc(out)["n_total"] == -(-samples // chunk_size) * chunk_size
    else:
        assert code == (2 if valid else 1)  # 2: no positive sample in a small run
        assert out == "" and err.count("\n") == 1
        assert "Traceback" not in err


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_corrupted_pt_table_names_spectrum_check(self, capsys, monkeypatch):
        real = states.pt_sign_vector

        def corrupted(tag, subsystem="B"):
            signs = np.array(real(tag, subsystem))
            signs[0] = -signs[0]
            return signs

        monkeypatch.setattr(states, "pt_sign_vector", corrupted)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 2
        assert "FAIL pt-spectrum" in out
        assert "pt-spectrum" in err


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out
