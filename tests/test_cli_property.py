"""A property test over the command line: any argv built from cli.SETTINGS ends in a
documented exit code with at most one line on stderr, never a traceback."""

import contextlib
import io
import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delins import cli, dp, verify
from delins import scorer as scorer_mod

HOSTILE = ["-1", "0", "nan", "inf", "-inf", "1e999", str(10**30), ""]
LENGTHS = ["2,4", "3,5,8", "4,4", "99999999999999999999,2", "nan,inf", "-4,8", "a,b"]


class Budget(Exception):
    """Raised in place of library work too large for a test run: the CLI took the input."""


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Files the drawn argv may name, and a trained dise and dice checkpoint."""
    root = tmp_path_factory.mktemp("cli-world")
    files = {
        "corpus": ["abcab", "bcaab", "aabbc", "cabab", "bbaac"],
        "fixed": ["abca", "bcab", "aabb", "caba"],
        "empty": [],
    }
    for name, lines in files.items():
        (root / f"{name}.txt").write_text("".join(line + "\n" for line in lines))
    (root / "latin1.txt").write_bytes(b"ab\n\xe9\xff\n")
    (root / "run.ini").write_text("[train]\nepochs = 1\n[sample]\ncount = 2\n")
    (root / "dir").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for corpus, mode in (("corpus", "dise"), ("fixed", "dice")):
            assert cli.main(["train", "--corpus", str(root / f"{corpus}.txt"), "--mode", mode,
                             "--seed", "1", "--checkpoint-out", str(root / f"{mode}.ckpt")]) == 0
    paths = [str(root / name) for name in (
        "corpus.txt", "fixed.txt", "empty.txt", "latin1.txt", "missing.txt", "dir",
        "dise.ckpt", "dice.ckpt", "dise.ckpt.vocab", "run.ini", "dir/missing/out")]
    return root, paths, {p: p.read_bytes() for p in root.iterdir() if p.is_file()}


def _value(cast, key, paths):
    """A value its cast accepts, or a hostile one, as flag text."""
    if isinstance(cast, tuple):
        return st.sampled_from([*cast, "bogus"])
    if cast in (int, cli._nonnegative):
        fair = st.integers(-2, 4).map(str)
    elif cast is float:
        fair = st.floats(-1.0, 2.0).map(repr)
    else:
        fair = st.sampled_from(LENGTHS if key == "lengths" else paths + ["ab", "é"])
    return st.one_of(fair, st.sampled_from(HOSTILE))


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(sorted(cli.SETTINGS)))
    argv = [command]
    if command == "count":
        argv += draw(st.lists(st.text("abé ", max_size=12), min_size=2, max_size=2))
    for key, (cast, default, _) in cli.SETTINGS[command].items():
        flag = "--" + key.replace("_", "-")
        if key in ("corpus", "checkpoint"):  # the file a run reads: nearly always one of the files
            argv.append(f"{flag}={draw(st.sampled_from(paths))}")
        elif draw(st.integers(0, 2)):  # about a third of the other settings each time
            continue
        elif cast is cli._bool:
            argv.append(draw(st.sampled_from([flag, "--no-" + key.replace("_", "-")] if default
                                             else [flag])))
        else:
            argv.append(f"{flag}={draw(_value(cast, key, paths))}")
    if not draw(st.integers(0, 3)):
        argv.append(f"--config={draw(st.sampled_from(paths))}")
    return argv


def _bounded(monkeypatch):
    """Run the library for real on small work; raise Budget where a run would be long."""
    def guard(module, name, too_big):
        real = getattr(module, name)

        def run(*args, **kwargs):
            if too_big(*args, **kwargs):
                raise Budget(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, run)

    guard(scorer_mod, "train", lambda params, corpus, config, on_step=None:
          config["epochs"] * len(corpus) > 40)
    guard(cli, "batch_generate", lambda score, params, cfg, count, prompt=None:
          count > 4 or cfg.steps > 16 or (cfg.k or 0) > 16)
    guard(verify, "run", lambda level: True)  # its checks have their own tests
    bench = []  # the argv's command, then one entry per DP call of bench's timing loop
    guard(dp, "batched_n_ratios", lambda pairs, *a, **k: bench[0] == "bench" and (
          bench.append(1) or len(bench) > 13 or len(pairs[0][1]) > 64))
    return bench


def test_any_argv_ends_in_an_exit_code_and_one_line(world, monkeypatch):
    root, paths, files = world
    bench = _bounded(monkeypatch)

    @given(argvs(paths))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def check(argv):
        err = io.StringIO()
        bench[:] = [argv[0]]
        home = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # a warning would print one more stderr line
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Budget:
            code = 0  # the command took its settings and started the work
        finally:
            os.chdir(home)
            for path, data in files.items():  # an output flag may have named one of them
                path.write_bytes(data)
        text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        assert code in (0, 1, 2, 3), (argv, code, text)
        assert "Traceback" not in text, (argv, text)
        assert len(text.splitlines()) <= 1, (argv, text)

    check()
