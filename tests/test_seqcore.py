"""Vocab, Sequence, tokenization, and corpus loading."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delins.errors import ConfigError, ShapeMismatch, UnknownSymbol
from delins.seqcore import (
    BOS_ID,
    BOS_SYMBOL,
    Batch,
    Sequence,
    Vocab,
    detokenize,
    load_corpus,
    scan_vocab,
    tokenize,
)


def test_vocab_build_first_seen_order():
    v = Vocab.build(["b", "a", "b", "g"])
    assert v.symbols == (BOS_SYMBOL, "b", "a", "g")
    assert v.id_of(BOS_SYMBOL) == BOS_ID == 0
    assert v.id_of("a") == 2
    with pytest.raises(UnknownSymbol):
        v.id_of("z")


def test_vocab_rejects_duplicates_and_reserved():
    with pytest.raises(ConfigError):
        Vocab((BOS_SYMBOL, "a", "a"))
    with pytest.raises(ConfigError):
        Vocab.build([BOS_SYMBOL])
    with pytest.raises(ConfigError):
        Vocab(("a", BOS_SYMBOL))  # bos must be id 0


def test_vocab_roundtrip(tmp_path):
    v = Vocab.build(list("bag"))
    p = tmp_path / "vocab.txt"
    v.save(p)
    assert Vocab.load(p) == v


def test_vocab_load_requires_bos_first(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("a\nb\n")
    with pytest.raises(ConfigError):
        Vocab.load(p)


def test_sequence_bos_rules():
    s = Sequence((0, 1, 2))
    assert len(s) == 3
    assert s.content_len == 2
    assert s.content == (1, 2)
    with pytest.raises(ConfigError):
        Sequence((1, 2))  # missing marker
    with pytest.raises(ConfigError):
        Sequence((0, 1, 0))  # marker repeated
    with pytest.raises(ConfigError):
        Sequence((3, 1))  # only id 0 is the marker


def test_insert_after():
    s = Sequence((0, 1, 2))
    assert s.insert_after(0, 9).ids == (0, 9, 1, 2)
    assert s.insert_after(2, 9).ids == (0, 1, 2, 9)
    with pytest.raises(ShapeMismatch):
        s.insert_after(3, 9)
    with pytest.raises(ShapeMismatch):
        s.insert_after(-1, 9)


def test_tokenize_roundtrip_char():
    v = Vocab.build(list("bag"))
    s = tokenize("babgbag", v)
    assert s.ids == (0, 1, 2, 1, 3, 1, 2, 3)
    assert detokenize(s, v) == "babgbag"


def test_tokenize_whitespace_mode():
    v = Vocab.build(["hello", "world"])
    s = tokenize("world hello world", v, mode="whitespace")
    assert s.ids == (0, 2, 1, 2)
    assert detokenize(s, v, mode="whitespace") == "world hello world"


def test_tokenize_unknown_symbol():
    v = Vocab.build(list("ab"))
    with pytest.raises(UnknownSymbol):
        tokenize("abc", v)


def test_scan_and_load_corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("bag\n\nbabgbag\ngg\n")
    v = scan_vocab(p)
    assert v.symbols == (BOS_SYMBOL, "b", "a", "g")
    c = load_corpus(p, v)
    assert len(c) == 3  # the empty line is skipped
    assert c.sequences[0].ids == (0, 1, 2, 3)
    assert [len(s) for s in c.sequences] == [4, 8, 3]


def test_load_corpus_truncates_including_bos(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("babgbag\n")
    v = scan_vocab(p)
    c = load_corpus(p, v, max_len=4)
    assert c.sequences[0].ids == (0, 1, 2, 1)  # bos + first 3 symbols


def test_load_corpus_rejects_max_len_below_one(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("abc\nabd\n")
    v = scan_vocab(p)
    for max_len in (0, -1):
        with pytest.raises(ConfigError, match="max_len"):
            load_corpus(p, v, max_len=max_len)


def test_corpus_that_is_not_utf8_names_the_file_and_line(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_bytes(b"ab\nba\r\nc\xe9d\nab\n")  # latin-1 e-acute on the third line
    for read in (lambda: scan_vocab(p), lambda: load_corpus(p, Vocab.build("abcd"))):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 3 is not UTF-8 text$"):
            read()
    p.write_bytes(b"\xff\xfea\x00b\x00\n\x00")  # UTF-16 with its byte order mark
    with pytest.raises(ConfigError, match="line 1 is not UTF-8"):
        scan_vocab(p)


def test_batch_of_states_round_trips():
    states = [Sequence((0,)), Sequence((0, 2, 1, 2)), Sequence((0, 3))]
    batch = Batch.of(states)
    assert batch.ids.dtype == np.int64 and batch.sizes.dtype == np.int64
    assert batch.ids.tolist() == [0, 0, 2, 1, 2, 0, 3] and batch.sizes.tolist() == [1, 4, 2]
    assert len(batch) == 3 and list(batch) == states == list(batch)
    assert Batch.of(batch) is batch
    again = Batch.of([s.ids for s in states])  # bare id tuples pack alike
    assert again.ids.tobytes() == batch.ids.tobytes() and again.sizes.tobytes() == batch.sizes.tobytes()
    empty = Batch.of([])
    assert len(empty) == 0 and list(empty) == [] and empty.ids.size == 0


@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=12))
def test_tokenize_detokenize_inverse(chars):
    v = Vocab.build(list("abc"))
    text = "".join(chars)
    assert detokenize(tokenize(text, v), v) == text
