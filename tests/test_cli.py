"""End-to-end command tests, driven through cli.main with real files."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from delins import cli, dp, sampler, scorer
from delins.process import transition_prob
from delins.seqcore import Sequence, Vocab


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_corpus(tmp_path, lines, name="corpus.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def parse_stream(out):
    return [json.loads(line) for line in out.splitlines() if line]


VARIED = ["abcab", "bcaab", "aabbc", "cabab", "bbaac"]
FIXED4 = ["abca", "bcab", "aabb", "caba", "bbac", "acbc", "cbaa", "bacc"]


# ---------------------------------------------------------------------------
# count


def test_count_worked_example(capsys):
    code, out, _ = run_cli(["count", "bag", "babgbag"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_count_empty_sub_is_one(capsys):
    code, out, _ = run_cli(["count", "", "babgbag"], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_count_impossible_sub_is_zero(capsys):
    code, out, _ = run_cli(["count", "xyz", "ab"], capsys)
    assert code == 0
    assert out.strip() == "0"


def test_count_log_domain_agrees(capsys):
    code, out, _ = run_cli(["count", "bag", "babgbag", "--domain", "log"], capsys)
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(5.0, rel=1e-9)


def test_count_grid_has_one_row_per_gap(capsys):
    code, out, _ = run_cli(["count", "bag", "babgbag", "--grid"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5"
    rows = [json.loads(l) for l in lines[1:]]
    assert [r["gap"] for r in rows] == [0, 1, 2, 3]  # bos gap + one per token
    assert all(r["counts"][0] == 0 for r in rows)  # bos column stays empty


def test_count_grid_falls_back_to_log_in_auto(capsys):
    # C(80, 40) ~ 1.1e23 overflows uint64; the grid follows the count up the ladder
    code, out, _ = run_cli(["count", "a" * 40, "a" * 80, "--grid"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0]) == pytest.approx(math.comb(80, 40), rel=1e-5)
    rows = [json.loads(l) for l in lines[1:]]
    assert [r["gap"] for r in rows] == list(range(41))
    for r in rows:
        assert r["counts"][0] == 0
        assert r["counts"][1] == pytest.approx(math.comb(80, 41), rel=1e-9)


def test_count_log_grid_is_on_the_linear_scale(capsys):
    _, out, _ = run_cli(["count", "bag", "babgbag", "--grid"], capsys)
    exact = [json.loads(l)["counts"] for l in out.splitlines()[1:]]
    code, out, _ = run_cli(["count", "bag", "babgbag", "--grid", "--domain", "log"], capsys)
    assert code == 0
    logd = [json.loads(l)["counts"] for l in out.splitlines()[1:]]
    assert len(logd) == len(exact)
    for row_log, row_exact in zip(logd, exact):
        assert row_log == pytest.approx(row_exact, rel=1e-9, abs=1e-12)


def test_count_beyond_float64_prints_from_the_log_count(capsys):
    # C(1100, 550) ~ 3.27e329 is past float64; C(1020, 510) ~ 6e305 is not
    for k, n in ((550, 1100), (510, 1020)):
        exact = math.comb(n, k)
        exp10 = len(str(exact)) - 1
        for domain in ("auto", "log"):
            code, out, _ = run_cli(["count", "a" * k, "a" * n, "--domain", domain], capsys)
            assert code == 0
            mantissa, exponent = out.strip().split("e+")
            assert int(exponent) == exp10
            assert float(mantissa) == pytest.approx(exact / 10**exp10, rel=1e-5)
    # in float64 range the text is still .6g of the float
    _, out, _ = run_cli(["count", "a" * 510, "a" * 1020], capsys)
    log_n = dp.subsequence_count([0] + [1] * 510, [0] + [1] * 1020, "log")
    assert out.strip() == f"{math.exp(log_n):.6g}"


def test_a_mantissa_that_rounds_to_ten_carries_into_the_exponent():
    assert cli._g6_of_exp(math.log(9.9999999) + 400 * math.log(10)) == "1e+401"


def test_count_past_float64_sweeps_each_rung_once(monkeypatch, capsys):
    # the log rung's count reaches count and transition_prob; neither sweeps again
    domains, real = [], dp._sweep
    monkeypatch.setattr(dp, "_sweep", lambda *args: domains.append(args[2]) or real(*args))
    assert run_cli(["count", "a" * 550, "a" * 1100], capsys)[0] == 0
    transition_prob(Sequence.from_content([1] * 550), Sequence.from_content([1] * 1100), 0.1, 0.5)
    assert domains == ["exact", "float", "log"] * 2


def test_count_grid_beyond_float64_is_runtime_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, out, err = run_cli(["count", "a" * 550, "a" * 1100, "--grid"], capsys)
    assert code == 3
    assert out.strip() == "3.26693e+329"
    assert len(err.strip().splitlines()) == 1 and "float64" in err


def test_seed_only_where_it_is_used(capsys):
    for argv in (["count", "bag", "babgbag", "--seed", "5"], ["verify", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["bench", "--help"])
    assert "rng seed for the bench pairs (default 0)" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "a", "b", "--bogus"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["sample", "--checkpoint", str(tmp_path / "nope.ckpt")], capsys
    )
    assert code == 3
    assert "io error" in err


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_vocab_and_metrics(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = str(tmp_path / "m.ckpt")
    code, out, _ = run_cli(
        ["train", "--corpus", corpus, "--epochs", "2", "--batch", "4",
         "--seed", "7", "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "m.ckpt").exists()
    assert (tmp_path / "m.ckpt.vocab").exists()
    stream = parse_stream(out)
    assert "config" in stream[0]
    assert stream[0]["config"]["seed"] == 7
    steps = [r for r in stream if "step" in r]
    assert len(steps) == 4  # 5 lines, batch 4 -> 2 steps per epoch
    assert all("loss" in r and "wall_ms" in r for r in steps)
    assert stream[-1]["done"] is True


def test_train_dry_run_writes_nothing(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = tmp_path / "never.ckpt"
    code, out, _ = run_cli(
        ["train", "--corpus", corpus, "--dry-run", "--checkpoint-out", str(ckpt),
         "--metrics", str(tmp_path / "never.jsonl"), "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert not ckpt.exists()
    assert not (tmp_path / "never.jsonl").exists()  # dry run keeps the echo on stdout
    assert any("dry_run" in r for r in parse_stream(out))


@pytest.mark.parametrize("where", ["missing/m.ckpt", ".", "m.ckpt"])
def test_train_checkpoint_path_that_cannot_be_written_fails_before_training(tmp_path, capsys, where):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = tmp_path / where  # a directory that does not exist, a directory, or one at its vocab's path
    (tmp_path / "m.ckpt.vocab").mkdir()
    for extra in ([], ["--dry-run"]):
        code, out, err = run_cli(
            ["train", "--corpus", corpus, "--checkpoint-out", str(ckpt), "--seed", "1", *extra], capsys
        )
        assert code == 3 and out == ""
        assert err.startswith("io error: ") and str(ckpt) in err and len(err.splitlines()) == 1
    code, out, _ = run_cli(["train", "--corpus", corpus, "--checkpoint-out", str(ckpt),
                            "--metrics", str(tmp_path / "m.jsonl"), "--seed", "1"], capsys)
    assert code == 3 and out == "" and not (tmp_path / "m.jsonl").exists()
    assert not (tmp_path / "m.ckpt").exists()


def test_train_ragged_dice_corpus_names_the_line(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ["abcd", "abc", "abcd"])
    code, _, err = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--dry-run"], capsys
    )
    assert code == 1
    assert "line 2" in err


def test_dice_training_reads_its_corpus_once(tmp_path, capsys, monkeypatch):
    from delins import seqcore

    reads = []
    for module in (cli, seqcore):
        read = module.text_lines
        monkeypatch.setattr(module, "text_lines", lambda path, read=read: reads.append(path) or read(path))
    ragged = write_corpus(tmp_path, ["abcd", "", "abc", "abcd"], "ragged.txt")
    code, _, err = run_cli(["train", "--corpus", ragged, "--mode", "dice", "--dry-run"], capsys)
    assert (code, err) == (1, "error: line 3: length 3 != k=4 (fixed-length mode needs a uniform corpus)\n")
    assert reads == [ragged]
    reads.clear()
    corpus = write_corpus(tmp_path, FIXED4)
    argv = ["train", "--corpus", corpus, "--mode", "dice", "--epochs", "1", "--seed", "0",
            "--checkpoint-out", str(tmp_path / "m.ckpt"), "--metrics", str(tmp_path / "m.jsonl")]
    assert run_cli(argv, capsys)[0] == 0
    assert reads == [corpus]


def test_train_dry_run_checks_the_training_settings(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\noptimizer = rmsprop\n")
    for extra in (["--config", str(ini)], ["--epochs", "0"], ["--batch", "0"], ["--lr", "-1"]):
        code, out, err = run_cli(["train", "--corpus", corpus, "--dry-run"] + extra, capsys)
        assert code == 1, extra
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_train_refuses_a_learning_rate_that_is_not_finite(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    for lr in ("nan", "inf", "-inf"):
        ckpt = tmp_path / f"lr-{lr}.ckpt"
        code, out, err = run_cli(
            ["train", "--corpus", corpus, f"--lr={lr}", "--seed", "0", "--checkpoint-out", str(ckpt)], capsys
        )
        assert code == 1, lr
        assert out == "" and not ckpt.exists()
        assert err.startswith("error: learning rate must be finite") and err.count("\n") == 1


def test_train_that_diverges_stops_before_any_checkpoint(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED[:3])
    ckpt, stream = tmp_path / "m.ckpt", tmp_path / "train.jsonl"
    ckpt.write_bytes(b"an older checkpoint")

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run with a traceback
        code, out, err = run_cli(["train", "--corpus", corpus, "--lr", "1e300", "--optimizer", "sgd",
                                  "--epochs", "4", "--seed", "1", "--checkpoint-out", str(ckpt),
                                  "--metrics", str(stream)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: step 1: loss is ") and err.count("\n") == 1
    assert ckpt.read_bytes() == b"an older checkpoint"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "m.ckpt", "train.jsonl"]
    records = [json.loads(line, parse_constant=no_constant) for line in stream.read_text().splitlines()]
    assert [r["step"] for r in records if "step" in r] == [0]
    assert "done" not in records[-1]


def test_corpus_that_is_not_utf8_exits_one_naming_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "utf16.txt"
    corpus.write_bytes("abc\nbca\n".encode("utf-16"))  # starts with the bytes ff fe
    code, out, err = run_cli(["train", "--corpus", str(corpus), "--dry-run"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {corpus}: line 1 is not UTF-8 text\n"


def test_sample_refuses_a_checkpoint_holding_nan(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = tmp_path / "m.ckpt"
    code, _, _ = run_cli(["train", "--corpus", corpus, "--seed", "0", "--checkpoint-out", str(ckpt)], capsys)
    assert code == 0
    head, _, payload = ckpt.read_bytes().partition(b"\n")
    ckpt.write_bytes(head + b"\n" + b"\x00\x00\x00\x00\x00\x00\xf8\x7f" + payload[8:])  # theta[0, 0, 0] = nan
    code, out, err = run_cli(["sample", "--checkpoint", str(ckpt), "--seed", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: payload holds 1 non-finite values\n"


def test_sample_scores_that_overflow_end_in_one_runtime_error_line(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = str(tmp_path / "m.ckpt")
    assert run_cli(["train", "--corpus", corpus, "--seed", "0", "--checkpoint-out", ckpt], capsys)[0] == 0
    params = scorer.load(ckpt)
    params.theta[0, 0, 2] = 800.0  # finite, but its dise score exp(800) is not
    scorer.save(params, ckpt)
    stream = tmp_path / "samples.jsonl"
    for sink in ([], ["--out", str(stream)]):  # the walk fails before the stream opens
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run with a traceback
            code, out, err = run_cli(
                ["sample", "--checkpoint", ckpt, "--count", "2", "--steps", "4", "--seed", "1", *sink], capsys)
        assert (code, out) == (3, "")
        assert err == "error: a gap's insertion scores sum to inf at t=1.0; the scores are not finite\n"
        assert not stream.exists()


def test_train_max_len_below_one_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ["abc", "abd"])
    for max_len in ("-1", "0"):  # -1 once sliced off each line's last token
        code, out, err = run_cli(
            ["train", "--corpus", corpus, "--max-len", max_len, "--dry-run"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: max_len") and err.count("\n") == 1


def test_train_dice_k_defaults_to_first_line(tmp_path, capsys):
    corpus = write_corpus(tmp_path, FIXED4)
    code, out, _ = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--dry-run", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert parse_stream(out)[0]["config"]["k"] == 4


def test_train_metric_stream_reproducible_without_timing(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    metrics = tmp_path / "m.jsonl"
    argv = ["train", "--corpus", corpus, "--epochs", "2", "--seed", "13",
            "--checkpoint-out", str(tmp_path / "m.ckpt"),
            "--metrics", str(metrics), "--no-timing"]
    captured = []
    for _ in range(2):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        captured.append((metrics.read_bytes(), (tmp_path / "m.ckpt").read_bytes()))
    assert captured[0] == captured[1]


def test_train_resume_continues_and_checks_mode(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    first = str(tmp_path / "first.ckpt")
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--seed", "3", "--checkpoint-out", first],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--seed", "4", "--resume", first,
         "--checkpoint-out", str(tmp_path / "second.ckpt")],
        capsys,
    )
    assert code == 0
    code, _, err = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--k", "5",
         "--resume", first, "--dry-run"],
        capsys,
    )
    assert code == 1
    assert "mode" in err or "length" in err


def test_metrics_file_keeps_stdout_quiet(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    metrics = tmp_path / "m.jsonl"
    code, out, _ = run_cli(
        ["train", "--corpus", corpus, "--seed", "2",
         "--checkpoint-out", str(tmp_path / "m.ckpt"), "--metrics", str(metrics)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "config" in parse_stream(metrics.read_text())[0]


# ---------------------------------------------------------------------------
# sample


def test_running_out_of_memory_is_one_runtime_error_line(monkeypatch, capsys):
    # the exact count walks; the grid's table allocation fails
    for exc, want in ((MemoryError("Unable to allocate 17.9 GiB"), "Unable to allocate 17.9 GiB"),
                      (MemoryError(), "out of memory")):
        def no_memory(shape, domain):
            raise exc

        monkeypatch.setattr(dp, "_start", no_memory)
        assert run_cli(["count", "bag", "babgbag", "--grid"], capsys) == (3, "5\n", f"error: {want}\n")


@pytest.fixture()
def trained(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ckpt = str(tmp_path / "t.ckpt")
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--epochs", "2", "--seed", "7",
         "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    return ckpt


def test_sample_stream_shape(trained, capsys):
    code, out, _ = run_cli(
        ["sample", "--checkpoint", trained, "--steps", "4", "--count", "3",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    stream = parse_stream(out)
    assert "config" in stream[0]
    samples = [r for r in stream if "text" in r]
    assert len(samples) == 3
    assert all(r["steps"] == 4 and r["seed"] == 5 for r in samples)
    assert all(len(r["text"]) == r["length"] for r in samples)
    summary = stream[-1]["summary"]
    assert summary["count"] == 3
    assert summary["mean_length"] == pytest.approx(
        sum(r["length"] for r in samples) / 3
    )
    assert summary["length_cdf"][-1][1] == pytest.approx(1.0)


def test_sample_count_zero_emits_empty_summary(trained, capsys):
    code, out, _ = run_cli(
        ["sample", "--checkpoint", trained, "--count", "0", "--seed", "1"], capsys
    )
    assert code == 0
    stream = parse_stream(out)
    assert stream[-1]["summary"] == {"count": 0, "mean_length": None, "length_cdf": []}
    assert not any("text" in r for r in stream)


def test_sample_summary_reports_what_the_run_did(tmp_path, capsys):
    corpus = write_corpus(tmp_path, FIXED4)
    ckpt = str(tmp_path / "d.ckpt")
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--epochs", "2",
         "--seed", "5", "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["sample", "--checkpoint", ckpt, "--steps", "2", "--count", "12", "--seed", "9"],
        capsys,
    )
    assert code == 0
    stream = parse_stream(out)
    summary = stream[-1]["summary"]
    lengths = [r["length"] for r in stream if "text" in r]
    assert summary["short"] == sum(1 for l in lengths if l < 4)
    assert summary["short"] > 0  # two leaps cannot fill 4 slots
    assert summary["gap_steps"] >= 2 * 12
    assert summary["clamp_events"] >= 0 and summary["cancelled"] >= 0
    assert "wall_ms" not in summary


def test_sample_same_seed_is_byte_identical(trained, tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    argv = ["sample", "--checkpoint", trained, "--steps", "6", "--count", "4",
            "--seed", "11", "--out", str(path)]
    outs = []
    for _ in range(2):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sample_prompt_prefixes_every_sample(trained, capsys):
    code, out, _ = run_cli(
        ["sample", "--checkpoint", trained, "--steps", "4", "--count", "5",
         "--seed", "2", "--prompt", "ab"],
        capsys,
    )
    assert code == 0
    samples = [r for r in parse_stream(out) if "text" in r]
    assert len(samples) == 5
    assert all(r["text"].startswith("ab") for r in samples)


def test_sample_omitted_seed_is_drawn_and_logged(trained, capsys):
    code, out, _ = run_cli(
        ["sample", "--checkpoint", trained, "--steps", "2", "--count", "1"], capsys
    )
    assert code == 0
    config = parse_stream(out)[0]["config"]
    assert config["seed_drawn"] is True
    assert isinstance(config["seed"], int)


def test_sample_fixed_mode_defaults_from_dice_checkpoint(tmp_path, capsys):
    corpus = write_corpus(tmp_path, FIXED4)
    ckpt = str(tmp_path / "d.ckpt")
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--epochs", "30",
         "--batch", "8", "--lr", "0.1", "--seed", "5", "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["sample", "--checkpoint", ckpt, "--steps", "64", "--count", "16",
         "--seed", "9"],
        capsys,
    )
    assert code == 0
    stream = parse_stream(out)
    assert stream[0]["config"]["sampler_mode"] == "fixed"
    assert stream[0]["config"]["k"] == 4
    lengths = [r["length"] for r in stream if "text" in r]
    assert lengths == [4] * 16


def test_sample_trace_file(trained, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    argv = ["sample", "--checkpoint", trained, "--steps", "3", "--count", "2", "--seed", "1"]
    code, out, _ = run_cli(argv + ["--trace", str(trace)], capsys)
    assert code == 0
    rows = parse_stream(trace.read_text())
    assert [r["sample"] for r in rows] == [0, 1]
    for r in rows:
        times = [t for t, _ in r["trace"]]
        assert times[0] == 1.0 and times[-1] == 0.0
    # "-" is stdout, as for --out: after the config echo, the same stream, then the trace
    lines = run_cli(argv + ["--trace", "-"], capsys)[1].splitlines(keepends=True)
    assert lines[1:-2] == out.splitlines(keepends=True)[1:]
    assert "".join(lines[-2:]) == trace.read_text()


def test_sample_trace_path_that_cannot_be_written_fails_before_sampling(trained, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "batch_generate", lambda *a: pytest.fail("sampled before checking the path"))
    path = tmp_path / "missing" / "t.jsonl"
    for flag in ("--trace", "--out"):  # a stream written after the walk is checked as a trace is
        code, out, err = run_cli(["sample", "--checkpoint", trained, "--count", "2", "--seed", "1",
                                  flag, str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("io error: ") and str(path) in err and len(err.splitlines()) == 1


def test_sample_output_folder_that_refuses_writes_fails_before_sampling(trained, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "batch_generate", lambda *a: pytest.fail("sampled before checking the path"))
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)  # a folder its user may not write
    path = tmp_path / "s.jsonl"
    for flag in ("--trace", "--out"):
        code, out, err = run_cli(["sample", "--checkpoint", trained, "--count", "2", "--seed", "1",
                                  flag, str(path)], capsys)
        assert (code, out) == (3, "") and not path.exists()
        assert err == f"io error: [Errno 13] Permission denied: '{path}'\n"


def test_sample_count_zero_writes_an_empty_trace(trained, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"  # one record a sample, so zero samples leave an empty file
    code, out, _ = run_cli(["sample", "--checkpoint", trained, "--count", "0", "--seed", "1",
                            "--trace", str(trace)], capsys)
    assert code == 0 and trace.read_text() == ""
    assert parse_stream(out)[-1]["summary"]["count"] == 0


def test_sample_bad_settings_write_nothing(trained, tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    for flags, want in (
        (["--steps", "0"], "error: steps must be >= 1, got 0\n"),
        *((["--steps", str(n)], f"error: steps must be <= {2**60 - 2}, for a grid that fits one array, "
                                f"got {n}\n") for n in (10**20, 2**63 - 2)),
        (["--count", "-1"], "error: count must be >= 0, got -1\n"),
        (["--top-p", "0"], "error: top_p must be in (0, 1], got 0.0\n"),
        (["--top-p", "2"], "error: top_p must be in (0, 1], got 2.0\n"),
    ):
        for out_flags in ([], ["--out", str(path)]):
            code, out, err = run_cli(
                ["sample", "--checkpoint", trained, "--seed", "1", *flags, *out_flags], capsys
            )
            assert (code, out, err) == (1, "", want)
            assert not path.exists()


def _sample_at_the_budget_edge(trained, path, capsys, monkeypatch, steps, count, want):
    # the least a walk takes, 40 B a grid point and 1 KiB a walker, summed: memory one byte short of
    # it is refused before drawing and writes nothing; memory that fits it exactly passes that check,
    # and the walk's own check stops the first leap, whose score arrays it does not count
    need = (steps + 1) * 40 + count * 1024
    argv = ["sample", "--checkpoint", trained, "--seed", "1", "--steps", str(steps), "--count", str(count)]
    monkeypatch.setattr(sampler, "_physical_memory", lambda: need - 1)
    for out_flags in ([], ["--out", str(path)]):
        code, out, err = run_cli(argv + out_flags, capsys)
        assert (code, out) == (1, "") and not path.exists()
        assert err == (f"error: count {count} over {steps} steps needs at least {want} GiB for its time grid "
                       f"and walkers; this machine has {(need - 1) / 2**30:.4g} GiB\n")
    monkeypatch.setattr(sampler, "_physical_memory", lambda: need)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "") and err.startswith("error: a leap at t=") and err.count("\n") == 1


def test_sample_refuses_a_time_grid_larger_than_the_machine(trained, tmp_path, monkeypatch, capsys):
    # 40 B a point: its float64, its list slot and its float object; 100 steps make 101 points, the
    # most of 5064 B
    _sample_at_the_budget_edge(trained, tmp_path / "s.jsonl", capsys, monkeypatch, 100, 1, "4.716e-06")


def test_sample_refuses_a_count_whose_walkers_cannot_fit_the_machine(trained, tmp_path, monkeypatch, capsys):
    # at least 1 KiB a walker: its seed sequence and generator; 4 steps keep the time grid small
    _sample_at_the_budget_edge(trained, tmp_path / "s.jsonl", capsys, monkeypatch, 4, 51, "4.882e-05")


def test_sample_refuses_a_count_past_float64_gib_in_one_line(trained, tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    argv = ["sample", "--checkpoint", trained, "--seed", "1", "--steps", "4", "--count", str(10**400)]
    for out_flags in ([], ["--out", str(path)]):
        code, out, err = run_cli(argv + out_flags, capsys)
        assert (code, out) == (1, "") and not path.exists() and err.count("\n") == 1
        assert err.startswith(f"error: count {10**400} over 4 steps needs at least 9.537e+393 GiB for its time grid")


def test_sample_walk_that_outgrows_the_machine_exits_three_writing_nothing(tmp_path, monkeypatch, capsys):
    # an untrained dise model scores every cell 1, so its gaps about double a leap; the walk checks
    # each leap's scores and what it keeps against physical memory, which the check before the walk
    # cannot see
    ckpt, path = str(tmp_path / "init.ckpt"), tmp_path / "s.jsonl"
    scorer.save(scorer.ScorerParams.init(4, "dise"), ckpt)
    Vocab.build("abc").save(ckpt + ".vocab")
    monkeypatch.setattr(sampler, "_physical_memory", lambda: 2**20)
    argv = ["sample", "--checkpoint", ckpt, "--count", "8", "--seed", "3"]
    for out_flags in ([], ["--out", str(path)]):
        code, out, err = run_cli(argv + out_flags, capsys)
        assert (code, out) == (3, "") and not path.exists()
        assert err.startswith("error: a leap at t=") and err.count("\n") == 1
        assert err.endswith(" GiB with the walk's history; this machine has 0.0009766 GiB\n")
    code, out, _ = run_cli(argv + ["--steps", "4"], capsys)  # a short walk stays small
    assert code == 0 and parse_stream(out)[-1]["summary"]["count"] == 8


def test_sample_refuses_variable_mode_on_a_dice_checkpoint(tmp_path, capsys):
    # a dice model scores states of at most k content tokens, and one leap's gates can overshoot k
    ckpt, path, ini = str(tmp_path / "d.ckpt"), tmp_path / "s.jsonl", tmp_path / "run.ini"
    assert run_cli(["train", "--corpus", write_corpus(tmp_path, FIXED4), "--mode", "dice", "--seed", "5",
                    "--checkpoint-out", ckpt], capsys)[0] == 0
    ini.write_text("[sample]\nsampler_mode = variable\n")
    want = "error: a dice checkpoint scores only states of at most k=4 content tokens; sample it in fixed mode\n"
    for extra in (["--sampler-mode", "variable"], ["--config", str(ini)]):
        for seed in ("2", "3"):  # seeds whose walks overshot k
            got = run_cli(["sample", "--checkpoint", ckpt, "--steps", "8", "--seed", seed, "--out", str(path),
                           *extra], capsys)
            assert got == (1, "", want) and not path.exists()


def test_sample_k_must_match_a_dice_checkpoint(tmp_path, capsys):
    corpus = write_corpus(tmp_path, FIXED4)
    ckpt = str(tmp_path / "d.ckpt")
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--epochs", "1",
         "--seed", "5", "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    argv = ["sample", "--checkpoint", ckpt, "--steps", "2", "--count", "1", "--seed", "9"]
    for k in ("0", "3", "5"):
        code, out, err = run_cli(argv + ["--k", k], capsys)
        assert (code, out, err) == (1, "", f"error: checkpoint k=4 != requested k={k}\n")
    code, out, _ = run_cli(argv + ["--k", "4"], capsys)
    assert code == 0
    assert parse_stream(out)[0]["config"]["k"] == 4


def test_sample_fixed_prompt_longer_than_k_writes_nothing(tmp_path, capsys):
    corpus = write_corpus(tmp_path, FIXED4)
    ckpt, path = str(tmp_path / "d.ckpt"), tmp_path / "s.jsonl"
    code, _, _ = run_cli(
        ["train", "--corpus", corpus, "--mode", "dice", "--epochs", "1",
         "--seed", "5", "--checkpoint-out", ckpt],
        capsys,
    )
    assert code == 0
    argv = ["sample", "--checkpoint", ckpt, "--steps", "2", "--count", "2", "--seed", "1"]
    code, out, err = run_cli(argv + ["--prompt", "abcab", "--out", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: prompt has 5 content tokens, more than k=4\n")
    assert not path.exists()
    code, out, _ = run_cli(argv + ["--prompt", "abca"], capsys)  # exactly k
    assert code == 0
    assert [r["text"] for r in parse_stream(out) if "text" in r] == ["abca"] * 2


def test_a_k_the_mode_does_not_use_exits_one(trained, tmp_path, capsys):
    # the library refuses k in dise training and in variable sampling; so does the CLI
    corpus, ini = write_corpus(tmp_path, VARIED), tmp_path / "run.ini"
    ckpt, metrics, path = tmp_path / "m.ckpt", tmp_path / "m.jsonl", tmp_path / "s.jsonl"
    from_file = ["--config", str(ini)]
    for argv, extras, want in (
        (["train", "--corpus", corpus, "--checkpoint-out", str(ckpt), "--metrics", str(metrics)],
         (["--k", "5"], ["--k", "5", "--dry-run"], from_file), "k is a dice-mode field"),
        (["sample", "--checkpoint", trained, "--out", str(path)],
         (["--k", "5"], from_file), "k only applies to fixed mode"),
    ):
        ini.write_text(f"[{argv[0]}]\nk = 5\n")
        for extra in extras:
            assert run_cli(argv + extra + ["--seed", "1"], capsys) == (1, "", f"error: {want}\n"), extra
    assert not any(p.exists() for p in (ckpt, Path(f"{ckpt}.vocab"), metrics, path))


def test_missing_inputs_and_mismatched_checkpoints_exit_one(trained, tmp_path, capsys):
    # trained holds a dise model over a, b, c (4 symbols with bos)
    six = write_corpus(tmp_path, ["abcde", "edcba"], "six.txt")
    dice4, dice3 = str(tmp_path / "d4.ckpt"), write_corpus(tmp_path, ["abc", "bca", "cab"], "k3.txt")
    assert run_cli(["train", "--corpus", write_corpus(tmp_path, FIXED4), "--mode", "dice",
                    "--seed", "5", "--checkpoint-out", dice4], capsys)[0] == 0
    two = tmp_path / "two.vocab"
    two.write_text("".join(Path(f"{trained}.vocab").read_text().splitlines(keepends=True)[:2]))
    out_path = tmp_path / "out.jsonl"
    train = ["train", "--checkpoint-out", str(tmp_path / "new.ckpt"), "--metrics", str(out_path)]
    for argv, want in (
        (train, "train needs --corpus"),
        (["sample", "--out", str(out_path)], "sample needs --checkpoint"),
        (train + ["--corpus", six, "--resume", trained], "checkpoint vocab size 4 != corpus vocab 6"),
        (train + ["--corpus", dice3, "--mode", "dice", "--resume", dice4], "checkpoint k=4 != corpus k=3"),
        (["sample", "--checkpoint", trained, "--vocab", str(two), "--out", str(out_path)],
         f"vocab {two} has 2 symbols, checkpoint expects 4"),
    ):
        assert run_cli(argv + ["--seed", "1"], capsys) == (1, "", f"error: {want}\n"), argv
    assert not out_path.exists() and not (tmp_path / "new.ckpt").exists()
    assert not (tmp_path / "new.ckpt.vocab").exists()


# ---------------------------------------------------------------------------
# config file


def test_config_file_resolution_order(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nepochs = 3\nlr = 0.25\n")
    code, out, _ = run_cli(
        ["train", "--corpus", corpus, "--config", str(ini), "--lr", "0.5",
         "--dry-run", "--seed", "0"],
        capsys,
    )
    assert code == 0
    config = parse_stream(out)[0]["config"]
    assert config["lr"] == 0.5  # flag beats file
    assert config["epochs"] == 3  # file beats default
    assert config["batch"] == 32  # default fills the rest


def test_config_file_choice_applies(trained, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[sample]\ngrid = cosine\n")
    code, out, _ = run_cli(["sample", "--checkpoint", trained, "--config", str(ini), "--steps", "4",
                            "--count", "1", "--seed", "1"], capsys)
    assert code == 0 and parse_stream(out)[0]["config"]["grid"] == "cosine"


def test_config_file_bad_value_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, VARIED)
    ini = tmp_path / "run.ini"
    for text in ("[train]\nepochs = abc\n", "epochs = 3\n"):  # bad value; no section header
        ini.write_text(text)
        code, out, err = run_cli(
            ["train", "--corpus", corpus, "--config", str(ini), "--dry-run"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: config") and err.count("\n") == 1
    ini.write_text("[train]\ntiming = maybe\n")  # a bad boolean names its setting too
    got = run_cli(["train", "--corpus", corpus, "--config", str(ini), "--dry-run"], capsys)
    assert got == (1, "", "error: config [train] timing = 'maybe' is not bool\n")


@pytest.mark.parametrize("command", ["train", "sample", "bench"])
def test_negative_seed_is_one_usage_error_line(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "-5"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"delins {command}: error: argument --seed: invalid _nonnegative value: '-5'"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\nseed = -5\n")
    got = run_cli([command, "--config", str(ini)], capsys)
    assert got == (1, "", f"error: config [{command}] seed = '-5' is not nonnegative\n")


def test_config_value_outside_choices_is_usage_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    for text, argv, want in (
        ("[count]\ndomain = float\n", ["count", "a", "ab"], "[count] domain = 'float'"),
        ("[sample]\ngrid = spiral\n", ["sample"], "[sample] grid = 'spiral'"),
        ("[verify]\nlevel = huge\n", ["verify"], "[verify] level = 'huge'"),
    ):
        ini.write_text(text)
        code, out, err = run_cli(argv + ["--config", str(ini)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: config {want} is not one of ")
        assert err.count("\n") == 1


def test_config_file_missing_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["count", "a", "ab", "--config", str(tmp_path / "nope.ini")], capsys
    )
    assert code == 1
    assert "config" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(["verify", "--level", "quick"], capsys)
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_catches_corrupted_ratio_engine(monkeypatch, capsys):
    real = dp.n_ratios

    def corrupt(x_t, x_0, vocab_size, domain="exact"):
        mat = real(x_t, x_0, vocab_size, domain=domain)
        return dp.NRatioMatrix(mat.ratios * 1.01, mat.domain)

    monkeypatch.setattr(dp, "n_ratios", corrupt)
    code, out, _ = run_cli(["verify", "--level", "quick"], capsys)
    assert code == 2
    assert "FAIL ratio-grand-sum-identity" in out


def test_verify_fails_under_python_O():
    # python -O strips assert statements; the corrupted engine must still FAIL
    code = ("import sys; from delins import dp, verify; real = dp.n_ratios; dp.n_ratios = "
            "lambda *a, **k: dp.NRatioMatrix((m := real(*a, **k)).ratios * 1.01, m.domain); "
            "print(sys.flags.optimize, *[r.name for r in verify.run('quick') if not r.ok])")
    env = {**os.environ, "PYTHONPATH": str(Path(dp.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimize, *failed = proc.stdout.split()
    assert optimize == "1" and "ratio-grand-sum-identity" in failed


def test_library_has_no_assert_statements():
    # python -O strips assert, so a check written with it would pass vacuously
    src = Path(dp.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_exponent(capsys):
    code, out, _ = run_cli(
        ["bench", "--lengths", "64,128,256", "--batch", "2", "--reps", "2"], capsys
    )
    assert code == 0
    stream = parse_stream(out)
    lengths = [r["length"] for r in stream if "length" in r]
    assert lengths == [64, 128, 256]
    assert all("var_ms" in r for r in stream if "length" in r)
    # cells = batch * (|x_t| + 1)(|x_0| + 1): x_0 is bos + n tokens, x_t keeps half
    assert [r["cells"] for r in stream if "length" in r] == [
        2 * (n // 2 + 2) * (n + 2) for n in (64, 128, 256)
    ]
    exponent = stream[-1]["exponent"]
    assert 0.5 < exponent < 2.5  # loose here; the acceptance run pins it down


def test_bench_refuses_a_table_larger_than_the_machine_before_drawing_pairs(capsys, monkeypatch):
    def no_draws(seed):
        raise AssertionError("bench drew its pairs")

    monkeypatch.setattr(cli.np.random, "default_rng", no_draws)  # the pairs alone would take GBs
    code, out, err = run_cli(["bench", "--lengths", "99999999,2", "--batch", "1", "--reps", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bench length 99999999 at batch 1 needs a ") and err.count("\n") == 1


def test_bench_single_length_is_usage_error(capsys):
    for lengths in ("512", "4,4"):  # one length, or one length repeated
        code, _, err = run_cli(["bench", "--lengths", lengths], capsys)
        assert code == 1
        assert "lengths" in err


def test_bench_bad_numbers_are_usage_errors(capsys):
    for argv in (["--lengths", "a,b"], ["--lengths", "0,8"], ["--lengths=-4,8"],
                 ["--vocab-size", "1"]):
        code, out, err = run_cli(["bench", "--reps", "1", "--batch", "1"] + argv, capsys)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
