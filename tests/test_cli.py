import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sepmc.states as states
from sepmc import __version__, cli, engine, selftest
from sepmc.engine import (
    Checkpoint,
    CheckpointError,
    TallyCounts,
    checkpoint_load,
    checkpoint_save,
    estimate,
)


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

    def test_field_order(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--alpha", "2")
        assert code == 0
        assert list(parse_doc(out)) == [
            "schema", "command", "alpha", "value", "terms_used", "tail_bound",
            "rel_tol", "wall_time_s", "version",
        ]

    def test_case_alpha_is_half_the_dyson_index(self):
        assert cli.CASE_ALPHA == {"rebit": 0.5, "qubit": 1.0, "quaterbit": 2.0}
        assert all(cli.CASE_ALPHA[tag] == case.beta / 2 for tag, case in states.CASES.items())

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

    def test_overflowing_alpha_is_numeric_failure(self, capsys):
        # q_poly overflows from alpha about 1e61; the term itself is 0.0 there
        code, out, err = run_cli(capsys, "conjecture", "--alpha", "1e61")
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("sepmc conjecture: ") and "alpha=1e+61" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "conj.json"
        code, out, _ = run_cli(capsys, "conjecture", "--alpha", "2", "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()


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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "estimate.json"
        code, out, _ = run_cli(capsys, "estimate", "--case", "rebit", "--samples", "20000",
                               "--seed", "42", "--workers", "1", "--chunk-size", "5000",
                               "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

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

    def test_checkpoint_saved_through_a_symlink_updates_its_target(self, capsys, tmp_path):
        # the save follows the link, as the load does, so the link stays and a
        # resumed run reads what the last one saved
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "run.ckpt"
        link = tmp_path / "run.ckpt"
        link.symlink_to(target)
        argv = ("estimate", "--case", "rebit", "--seed", "1", "--workers", "1",
                "--chunk-size", "10000")
        for chunks in (2, 4):
            code, out, _ = run_cli(capsys, *argv, "--samples", str(10000 * chunks),
                                   "--checkpoint", str(link))
            assert code == 0
            assert link.is_symlink() and os.readlink(link) == str(target)
            assert checkpoint_load(target).chunks_done == chunks
        assert sorted(os.listdir(tmp_path / "real")) == ["run.ckpt"]
        _, fresh, _ = run_cli(capsys, *argv, "--samples", "40000")
        resumed, fresh = parse_doc(out), parse_doc(fresh)
        resumed.pop("wall_time_s")
        fresh.pop("wall_time_s")
        assert resumed == fresh

    # the checkpoint text and the document of a fresh run of 4 chunks and of
    # its resume to 8, as literals: no reorganisation of the engine may move them
    PINNED = [
        ("20000", "version 1\ncase rebit\nseed 11\nchunk_size 5000\nchunks_done 4\n"
                  "n_total 20000\nn_positive 36\nn_sep 14\n",
         [("schema", "sepmc.result/1"), ("command", "estimate"), ("case", "rebit"),
          ("alpha", 0.5), ("n_total", 20000), ("n_positive", 36), ("n_sep", 14),
          ("p_hat", 0.3888888888888889), ("std_err", 0.08124967025363077),
          ("conjecture", 0.4531249999997934), ("z_score", -0.7906014991861952),
          ("seed", 11), ("chunk_size", 5000)]),
        ("40000", "version 1\ncase rebit\nseed 11\nchunk_size 5000\nchunks_done 8\n"
                  "n_total 40000\nn_positive 69\nn_sep 31\n",
         [("schema", "sepmc.result/1"), ("command", "estimate"), ("case", "rebit"),
          ("alpha", 0.5), ("n_total", 40000), ("n_positive", 69), ("n_sep", 31),
          ("p_hat", 0.4492753623188406), ("std_err", 0.05988237396813556),
          ("conjecture", 0.4531249999997934), ("z_score", -0.06428665775677612),
          ("seed", 11), ("chunk_size", 5000)]),
    ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_checkpoint_and_document_bytes_are_pinned(self, capsys, tmp_path, workers):
        path = tmp_path / "P"
        for samples, text, doc in self.PINNED:
            code, out, _ = run_cli(capsys, "estimate", "--case", "rebit", "--samples", samples,
                                   "--chunk-size", "5000", "--seed", "11", "--workers", workers,
                                   "--checkpoint", str(path))
            assert code == 0
            assert path.read_text() == text
            got = [(key, value) for key, value in parse_doc(out).items()
                   if key not in ("wall_time_s", "version")]
            assert got == doc

    def test_workers_auto(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--case", "rebit", "--samples", "50000",
            "--seed", "3", "--workers", "auto", "--chunk-size", "50000",
        )
        assert code == 0


FULL_DEVICE = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")


class TestEstimateBadInput:
    """Bad flags and checkpoint files end in one line on stderr and exit 1."""

    ARGV = ("estimate", "--case", "rebit", "--samples", "2000", "--workers", "1",
            "--chunk-size", "1000")
    # a run that finds positive samples, so that it reaches its writes
    ARGV_RUN = ("estimate", "--case", "rebit", "--samples", "20000", "--seed", "42",
                "--workers", "1", "--chunk-size", "10000")

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
        (("--checkpoint", ""), "--checkpoint"),
        (("--out", ""), "--out"),
    ], ids=["seed-negative", "seed-2**64", "checkpoint-every-negative", "case-unknown",
            "samples-not-an-integer", "samples-zero", "chunk-size-zero", "workers-zero",
            "workers-not-an-integer", "samples-missing", "checkpoint-empty", "out-empty"])
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
        (b"version 1\ncase rebit\nseed 0\nchunk_size 1000\nchunks_done 1\n"
         b"n_total 1000\nn_positive 9\nn_sep 3\n" + b"\n" * 2**20, "larger than 4096 bytes"),
        (b"version 1\ncase rebit\nseed\n", "line 3: expected 'key value', got 'seed'"),
    ], ids=["truncated", "garbage-value", "inconsistent-n_total", "chunks-beyond-run", "binary",
            "repeated-key", "unknown-key", "valid-then-1MiB-of-blank-lines", "field-without-value"])
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
        (ARGV + ("--checkpoint",), os.devnull, "not a regular file"),
        pytest.param(ARGV_RUN + ("--out",), "/dev/full", "No space left on device",
                     marks=FULL_DEVICE),
        pytest.param(("conjecture", "--alpha", "1", "--out"), "/dev/full",
                     "No space left on device", marks=FULL_DEVICE),
    ], ids=["checkpoint-is-a-directory", "checkpoint-in-missing-directory",
            "estimate-out-in-missing-directory", "conjecture-out-in-missing-directory",
            "checkpoint-not-a-regular-file", "estimate-out-on-full-device",
            "conjecture-out-on-full-device"])
    def test_unusable_path(self, capsys, tmp_path, argv, path, reason):
        # an absolute path (a device) replaces tmp_path
        target = tmp_path / path
        code, out, err = run_cli(capsys, *argv, str(target))
        self.assert_usage_error(code, out, err, str(target), command=argv[0])
        assert reason in err

    @staticmethod
    def record_estimate(monkeypatch) -> list:
        """Replace the run with a recorder of its calls, so a refused path must be refused first."""
        calls = []
        monkeypatch.setattr(cli, "estimate", lambda **kwargs: calls.append(kwargs))
        return calls

    @pytest.mark.parametrize("path, reason", [
        ("", "Is a directory"),
        ("missing/result.json", "No such file or directory"),
    ], ids=["out-is-a-directory", "out-in-missing-directory"])
    def test_unusable_out_refused_before_the_run(self, capsys, monkeypatch, tmp_path, path, reason):
        calls = self.record_estimate(monkeypatch)
        target = tmp_path / path
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(target))
        self.assert_usage_error(code, out, err, str(target))
        assert reason in err
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == []

    @pytest.mark.parametrize("saved", [True, False], ids=["resumed", "fresh"])
    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_out_that_is_the_checkpoint_refused_before_the_run(self, capsys, monkeypatch,
                                                                 tmp_path, saved, link):
        calls = self.record_estimate(monkeypatch)
        checkpoint = tmp_path / "same.json"
        if saved:
            checkpoint_save(Checkpoint("rebit", 0, 1000, 1, TallyCounts(1000, 9, 3)), checkpoint)
            before = checkpoint.read_bytes()
        out_path = checkpoint
        if link:
            out_path = tmp_path / "link.json"
            out_path.symlink_to(checkpoint.name)
        code, out, err = run_cli(capsys, *self.ARGV, "--checkpoint", str(checkpoint),
                                 "--out", str(out_path))
        self.assert_usage_error(code, out, err, str(out_path))
        assert "--checkpoint" in err
        assert calls == []
        if saved:
            assert checkpoint.read_bytes() == before
        else:
            assert not checkpoint.exists()

    @pytest.mark.parametrize("name, code", [
        ("", errno.EISDIR),
        ("missing/run.json", errno.ENOENT),
        ("file/run.json", errno.ENOTDIR),
        ("x" * 300, errno.ENAMETOOLONG),
        ("loop", errno.ELOOP),
        ("dangling", errno.ENOENT),
    ], ids=["directory", "parent-missing", "parent-is-a-file", "name-too-long", "symlink-loop",
            "dangling-symlink"])
    def test_out_and_checkpoint_refuse_a_path_alike(self, capsys, monkeypatch, tmp_path,
                                                    name, code):
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before the path was checked")

        monkeypatch.setattr(engine, "run_chunk", no_chunk)
        (tmp_path / "file").write_text("")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing" / "run.json")
        target = str(tmp_path / name)
        with pytest.raises(OSError) as write:  # the reason the write itself meets
            open(target, "w")
        assert write.value.errno == code
        errs = []
        for flag in ("--out", "--checkpoint"):
            got, out, err = run_cli(capsys, *self.ARGV, flag, target)
            self.assert_usage_error(got, out, err, f"{target}: {os.strerror(code)}")
            errs.append(err)
        assert errs[0] == errs[1]
        assert sorted(os.listdir(tmp_path)) == ["dangling", "file", "loop"]

    @FULL_DEVICE
    def test_failed_checkpoint_write_names_the_path(self, capsys, tmp_path):
        # the checkpoint is written to PATH.tmp, then renamed; here PATH.tmp is /dev/full
        (tmp_path / "run.ckpt.tmp").symlink_to("/dev/full")
        code, out, err = run_cli(capsys, *self.ARGV_RUN, "--checkpoint", str(tmp_path / "run.ckpt"))
        self.assert_usage_error(code, out, err, f"{tmp_path / 'run.ckpt.tmp'}: ")
        assert "No space left on device" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha(self, capsys, alpha):
        code, out, err = run_cli(capsys, "conjecture", "--alpha", alpha)
        self.assert_usage_error(code, out, err, "alpha", command="conjecture")


class TestIntegerRuleAgreement:
    """The CLI, estimate and the checkpoint refuse exactly the same integer run values."""

    VALUES = (-1, 0, 1, 2**64 - 1, 2**64, True, 2.5)
    FLAGS = {"n_total": "--samples", "chunk_size": "--chunk-size", "workers": "--workers",
             "checkpoint_every": "--checkpoint-every", "seed": "--seed"}
    BASE = {"n_total": 1000, "chunk_size": 1000, "workers": 1, "checkpoint_every": 1, "seed": 0}

    @pytest.mark.parametrize("param, low, high", [
        ("n_total", 1, None), ("chunk_size", 1, None), ("workers", 1, None),
        ("checkpoint_every", 0, None), ("seed", 0, 2**64),
    ])
    def test_cli_estimate_and_checkpoint_agree(self, capsys, tmp_path, param, low, high):
        # A checkpoint of another case stops an accepted run right after its
        # arguments are checked, before any chunk runs.
        other = tmp_path / "qubit.ckpt"
        checkpoint_save(Checkpoint("qubit", 0, 1000, 0, TallyCounts.zero()), other)
        for value in self.VALUES:
            refused = type(value) is not int or value < low or (high is not None and value >= high)
            kwargs = {**self.BASE, param: value}
            try:
                estimate("rebit", **kwargs, checkpoint_path=other)
            except CheckpointError as exc:
                assert not refused and "field 'case'" in str(exc), value
            except ValueError as exc:
                assert refused and param in str(exc), value
            else:
                pytest.fail(f"estimate ran with {param}={value!r}")

            argv = ["estimate", "--case", "rebit", "--checkpoint", str(other)]
            for name, v in kwargs.items():
                argv += [self.FLAGS[name], str(v)]
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "" and err.count("\n") == 1, value
            if refused:
                assert f"argument {self.FLAGS[param]}: " in err and param in err, value
            else:
                assert "field 'case'" in err, value

            if param in ("seed", "chunk_size"):
                path = tmp_path / "value.ckpt"
                fields = {"version": 1, "case": "rebit", "seed": 0, "chunk_size": 1000,
                          "chunks_done": 0, "n_total": 0, "n_positive": 0, "n_sep": 0}
                fields[param] = value
                path.write_text("".join(f"{k} {v}\n" for k, v in fields.items()))
                if refused:
                    with pytest.raises(CheckpointError, match=f"field '{param}'"):
                        checkpoint_load(path)
                else:
                    assert getattr(checkpoint_load(path), param) == value


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
        assert "9/9 checks passed" in out
        assert "FAIL" not in out

    def test_checks_print_their_names_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        names = [line.split()[1].rstrip(":") for line in out.splitlines()[:-1]]
        assert names == [
            "quaternion-homomorphism", "generator-gram", "pt-involution", "pt-spectrum",
            "kramers-pairs", "ball-moments", "tally-ordering",
            "kernel-matches-eigensolver", "conjecture-rationals",
        ]

    def test_raising_check_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(selftest, "p_of_alpha", boom)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 2
        lines = out.splitlines()
        assert "FAIL conjecture-rationals: raised RuntimeError: boom" in lines
        assert sum(line.startswith("ok   ") for line in lines) == 8
        assert lines[-1].startswith("8/9 checks passed")
        assert err == "failed checks: conjecture-rationals\n"

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

    def test_pt_applied_twice_off_the_identity_names_involution_check(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "partial_transpose",
                            lambda v: states.CoeffVector(v.case, 2 * v.c))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert ("FAIL pt-involution: rebit: PT applied twice is not the identity"
                in out.splitlines())

    def test_pt_involution_off_isometry_names_involution_check(self, capsys, monkeypatch):
        # swaps the first two coefficients, scaling one by 2 and the other by 1/2: exact both ways
        def stretched_swap(v):
            c = v.c.copy()
            c[0], c[1] = 2 * v.c[1], v.c[0] / 2
            return states.CoeffVector(v.case, c)

        monkeypatch.setattr(selftest, "partial_transpose", stretched_swap)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert "FAIL pt-involution: rebit: PT is not an isometry" in out.splitlines()

    def test_batch_tally_off_its_rows_names_kernel_check(self, capsys, monkeypatch):
        # rows scored one by one stay right; a batch of more than one row tallies nothing
        real = selftest.count_tallies
        monkeypatch.setattr(selftest, "count_tallies",
                            lambda pts, tag: (0, 0) if len(pts) > 1 else real(pts, tag))
        code, out, err = run_cli(capsys, "selftest")
        assert code == 2
        assert ("FAIL kernel-matches-eigensolver: rebit: batch tally (0, 0) is not the sum "
                "of its rows (232, 218)") in out.splitlines()
        assert err == "failed checks: kernel-matches-eigensolver\n"

    def test_kernel_disagreeing_with_eigensolver_names_its_check(self, capsys, monkeypatch):
        # a kernel that calls every point a separable state
        monkeypatch.setattr(selftest, "count_tallies", lambda pts, tag: (len(pts), len(pts)))
        code, out, err = run_cli(capsys, "selftest")
        assert code == 2
        assert "FAIL kernel-matches-eigensolver" in out
        assert "kernel-matches-eigensolver" in err

    def test_ball_moments_streams_its_draws(self):
        # 10**6 quaterbit ball points held at once are 216 MB; one draw batch is 14 MB.
        # numpy reports its buffers to tracemalloc.  A child's ru_maxrss is no
        # measure here: on Linux it includes what the parent held when it forked.
        tracemalloc.start()
        try:
            ok, _ = selftest.check_ball_moments()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 100 * 2**20


def cli_env(**overrides) -> dict:
    """Environment for `python -m sepmc.cli` in a fresh interpreter that imports this sepmc."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {key: value for key, value in env.items() if value is not None}


def assert_one_line(err, command, needle):
    assert err.count("\n") == 1 and err.startswith(f"sepmc {command}: ")
    assert needle in err
    assert "None" not in err and "Traceback" not in err


class TestStoppedRuns:
    """A closed stdout, an OS refusal, an interrupt or a dead worker ends in one stderr line."""

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_a_failure(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sepmc.cli", "conjecture", "--alpha", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=cli_env(PYTHONUNBUFFERED=unbuffered), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert_one_line(proc.stderr, "conjecture", "error: ")

    @pytest.mark.parametrize("exc, code, needle, checkpoint", [
        (OSError(errno.EAGAIN, "Resource temporarily unavailable"), 2,
         "error: Resource temporarily unavailable", True),
        (BrokenProcessPool("A child process terminated abruptly"), 2,
         "error: a worker process died", True),
        (KeyboardInterrupt(), 130, "interrupted", False),
        (KeyboardInterrupt(), 130, "resume from checkpoint", True),
    ], ids=["os-error-without-a-file", "worker-died", "interrupt", "interrupt-with-checkpoint"])
    def test_exception_gives_one_line(self, capsys, monkeypatch, tmp_path, exc, code, needle,
                                      checkpoint):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "estimate", fail)
        path = tmp_path / "run.ckpt"
        argv = TestEstimateBadInput.ARGV + (("--checkpoint", str(path)) if checkpoint else ())
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert_one_line(err, "estimate", needle)
        if isinstance(exc, KeyboardInterrupt) and checkpoint:
            assert str(path) in err

    def test_run_of_more_chunks_than_a_c_index_holds_starts(self, capsys, monkeypatch):
        # 2**64 chunks: the run reaches its first chunk instead of failing to size a pool
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "run_chunk", interrupt)
        code, out, err = run_cli(capsys, "estimate", "--case", "rebit", "--samples",
                                 str(2**64), "--chunk-size", "1", "--workers", "1")
        assert code == 130
        assert out == ""
        assert_one_line(err, "estimate", "interrupted")

    @staticmethod
    def _stopped_run(argv, started, stop):
        """Run argv, stop(proc) it once started(proc) holds, and wait for its whole group to exit.

        Returns (proc, out, err, seconds from stop(proc) until no process of
        the group is left).
        """
        # its own process group, as a shell starts a job, so a signal to the group reaches
        # the workers too
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=cli_env(), start_new_session=True)
        deadline = time.monotonic() + 120
        try:
            while not started(proc):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            stopped = time.monotonic()
            stop(proc)
            out, err = proc.communicate(timeout=120)
            while True:  # the workers exit with the run, or the group is left behind
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "processes left in the run's group"
                time.sleep(0.01)
            return proc, out, err, time.monotonic() - stopped
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()

    def _stopped_run_resumes(self, path, stop, workers=2, chunk_size=4_000_000):
        """Stop a checkpointed run of six chunks once its first is saved, then rerun it to the end.

        With two workers, chunks of 4e6 draws take seconds each: when the
        first is saved, two are running and the rest queued to the workers,
        and the stop must not wait for the queued ones.  With one worker the
        chunks run in the CLI's own process, and the stop lands inside one.
        """
        argv = [sys.executable, "-m", "sepmc.cli", "estimate", "--case", "rebit",
                "--samples", str(6 * chunk_size), "--seed", "3", "--chunk-size", str(chunk_size),
                "--workers", str(workers), "--checkpoint", str(path)]
        proc, out, err, seconds = self._stopped_run(argv, lambda proc: path.exists(), stop)
        assert proc.returncode == 130
        assert seconds < 1
        assert out == ""
        assert_one_line(err, "estimate", f"interrupted; rerun the same command to resume "
                                         f"from checkpoint {path}")
        assert checkpoint_load(path).chunks_done < 6

        resumed = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        doc = parse_doc(resumed.stdout)
        full = estimate("rebit", seed=3, n_total=6 * chunk_size, workers=2, chunk_size=chunk_size)
        assert TallyCounts(doc["n_total"], doc["n_positive"], doc["n_sep"]) == full.tally

    def test_interrupted_run_resumes_to_the_uninterrupted_tally(self, tmp_path):
        # Ctrl-C in a shell: SIGINT to the whole process group
        self._stopped_run_resumes(tmp_path / "run.ckpt",
                                  lambda proc: os.killpg(proc.pid, signal.SIGINT))

    def test_terminated_run_resumes_to_the_uninterrupted_tally(self, tmp_path):
        # SIGTERM to the run's own process alone: it must end its workers itself
        self._stopped_run_resumes(tmp_path / "run.ckpt",
                                  lambda proc: proc.send_signal(signal.SIGTERM))

    def test_interrupted_in_process_run_resumes_to_the_uninterrupted_tally(self, tmp_path):
        self._stopped_run_resumes(tmp_path / "run.ckpt",
                                  lambda proc: os.killpg(proc.pid, signal.SIGINT),
                                  workers=1, chunk_size=1_000_000)

    def test_terminated_in_process_run_resumes_to_the_uninterrupted_tally(self, tmp_path):
        self._stopped_run_resumes(tmp_path / "run.ckpt",
                                  lambda proc: proc.send_signal(signal.SIGTERM),
                                  workers=1, chunk_size=1_000_000)

    def test_main_restores_the_sigterm_handler(self, capsys):
        before = signal.getsignal(signal.SIGTERM)
        assert run_cli(capsys, "conjecture", "--alpha", "1")[0] == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_main_off_the_main_thread_leaves_the_handlers_alone(self, capsys):
        # only the main thread may set a signal handler; elsewhere main must not try
        before = signal.getsignal(signal.SIGTERM)
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(cli.main(["conjecture", "--alpha", "1"])))
        thread.start()
        thread.join()
        captured = capsys.readouterr()
        assert codes == [0]
        assert parse_doc(captured.out)["alpha"] == 1.0
        assert captured.err == ""
        assert signal.getsignal(signal.SIGTERM) is before

    def test_killed_worker_ends_the_run(self):
        def workers(proc):
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                return [int(pid) for pid in fh.read().split()]

        argv = [sys.executable, "-m", "sepmc.cli", "estimate", "--case", "rebit",
                "--samples", "40000000", "--chunk-size", "1000000", "--workers", "2"]
        proc, out, err, _ = self._stopped_run(
            argv, lambda proc: len(workers(proc)) == 2,
            lambda proc: os.kill(workers(proc)[0], signal.SIGKILL))
        assert proc.returncode == 2
        assert out == ""
        assert err == "sepmc estimate: error: a worker process died before its chunk was done\n"


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out
