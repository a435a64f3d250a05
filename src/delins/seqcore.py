"""Tokens, vocabularies, sequences, and corpora.

Conventions used everywhere in this package:

* A sequence always carries the begin marker (bos) at index 0 and nowhere
  else.  The marker is never deleted by the forward process and never
  inserted by the reverse process; a bare ``[bos]`` sequence represents the
  fully noised (empty) state.
* ``len(seq)`` counts all tokens including bos.  Operations that need the
  content length use ``seq.content_len`` (= len - 1) and say so.
* Token ids are dense integers assigned in first-seen order; bos is always
  id 0 (BOS_ID), so a vocab file simply lists symbols one per line, bos
  first, with the line number as the id.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, ShapeMismatch, UnknownSymbol

Token = int  # index into a Vocab

BOS_SYMBOL = "<bos>"
BOS_ID: Token = 0


@contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Write via a temp file moved onto path on success; a failed write leaves path as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as open() reads them; other bytes raise one ConfigError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line} is not UTF-8 text") from None


@dataclass(frozen=True)
class Vocab:
    """Ordered symbol table. ``symbols[BOS_ID]`` is the begin marker."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols or self.symbols[BOS_ID] != BOS_SYMBOL:
            raise ConfigError(f"vocab file must list {BOS_SYMBOL} first")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("vocab symbols must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def id_of(self, symbol: str) -> Token:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(symbol) from None

    @staticmethod
    def build(symbols: Iterable[str]) -> "Vocab":
        """Vocab with bos first, then the given symbols in first-seen order."""
        ordered = {BOS_SYMBOL: None}  # a dict keeps first-insertion order
        for s in symbols:
            if s == BOS_SYMBOL:
                raise ConfigError(f"{BOS_SYMBOL!r} is reserved")
            ordered.setdefault(s)
        return Vocab(tuple(ordered))

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as f:
            for s in self.symbols:
                f.write(s + "\n")

    @staticmethod
    def load(path) -> "Vocab":
        return Vocab(tuple(line.rstrip("\n") for line in text_lines(path) if line.rstrip("\n")))


@dataclass(frozen=True)
class Sequence:
    """Immutable token-id sequence with the begin marker at index 0."""

    ids: tuple[Token, ...]

    def __post_init__(self):
        if not self.ids or self.ids[0] != BOS_ID:
            raise ConfigError("sequence must start with the begin marker")
        if BOS_ID in self.ids[1:]:
            raise ConfigError("begin marker may appear only at index 0")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    @property
    def content_len(self) -> int:
        """Length excluding the begin marker."""
        return len(self.ids) - 1

    @property
    def content(self) -> tuple[Token, ...]:
        return self.ids[1:]

    def insert_after(self, i: int, v: Token) -> "Sequence":
        """New sequence with token v inserted after position i (0 = bos gap)."""
        if not (0 <= i < len(self.ids)):
            raise ShapeMismatch(f"gap index {i} out of range for length {len(self.ids)}")
        return Sequence(self.ids[: i + 1] + (v,) + self.ids[i + 1 :])

    @staticmethod
    def from_content(content) -> "Sequence":
        return Sequence((BOS_ID, *content))


@dataclass(frozen=True, eq=False)
class Batch:
    """States packed as one int64 id array: state b holds the sizes[b] ids after the earlier states'.

    len counts the states and iterating yields each as a Sequence.
    """

    ids: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        flat, ends = self.ids.tolist(), np.cumsum(self.sizes).tolist()
        return (Sequence(tuple(flat[end - n : end])) for end, n in zip(ends, self.sizes.tolist()))

    @staticmethod
    def of(states) -> "Batch":
        """states packed once: a Batch is returned as it is, Sequences or id tuples are read."""
        if isinstance(states, Batch):
            return states
        states = [getattr(s, "ids", s) for s in states]
        sizes = np.fromiter(map(len, states), np.int64, len(states))
        return Batch(np.fromiter(chain.from_iterable(states), np.int64, int(sizes.sum())), sizes)


@dataclass(frozen=True, eq=False)
class PairBatch:
    """(x_t, x_0) pairs packed as two Batches; pair b is state b of each.

    len counts the pairs; iterating or indexing yields each as a (Sequence, Sequence) pair.
    """

    xts: Batch
    x0s: Batch

    def __len__(self) -> int:
        return len(self.xts)

    def __iter__(self):
        return zip(self.xts, self.x0s)

    def __getitem__(self, b: int) -> tuple[Sequence, Sequence]:
        b = range(len(self))[b]
        return tuple(
            Sequence(tuple(side.ids[side.sizes[:b].sum():][: side.sizes[b]].tolist()))
            for side in (self.xts, self.x0s)
        )

    @staticmethod
    def of(pairs) -> "PairBatch":
        """pairs packed once: a PairBatch is returned as it is, (x_t, x_0) pairs are read."""
        if isinstance(pairs, PairBatch):
            return pairs
        pairs = list(pairs)
        return PairBatch(Batch.of([a for a, _ in pairs]), Batch.of([b for _, b in pairs]))


@dataclass
class Corpus:
    sequences: list[Sequence]
    vocab: Vocab

    def __len__(self) -> int:
        return len(self.sequences)


def _split(text: str, mode: str) -> list[str]:
    if mode == "char":
        return list(text)
    if mode == "whitespace":
        return text.split()
    raise ConfigError(f"unknown tokenizer mode {mode!r}")


def tokenize(text: str, vocab: Vocab, mode: str = "char") -> Sequence:
    """Text -> Sequence with bos prepended. Raises UnknownSymbol on OOV."""
    ids = [BOS_ID]
    for sym in _split(text, mode):
        ids.append(vocab.id_of(sym))
    return Sequence(tuple(ids))


def detokenize(seq: Sequence, vocab: Vocab, mode: str = "char") -> str:
    """Inverse of tokenize for the same mode; bos omitted."""
    joiner = "" if mode == "char" else " "
    return joiner.join(vocab.symbols[t] for t in seq.content)


def _lines(corpus) -> list[str]:
    """A corpus file's lines: given as text_lines read them, or read from its path."""
    return corpus if isinstance(corpus, list) else text_lines(corpus)


def scan_vocab(corpus, mode: str = "char") -> Vocab:
    """A vocab from a corpus file, its path or its lines; ids in first-seen order after bos."""
    return Vocab.build(sym for line in _lines(corpus) for sym in _split(line.rstrip("\n"), mode))


def load_corpus(corpus, vocab: Vocab, mode: str = "char", max_len: int | None = None) -> Corpus:
    """One sequence per non-empty line of a corpus file, its path or its lines; lines
    truncated to max_len tokens (incl. bos)."""
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1 (it counts bos), got {max_len}")
    seqs: list[Sequence] = []
    for line in _lines(corpus):
        text = line.rstrip("\n")
        if not text:
            continue
        seq = tokenize(text, vocab, mode)
        if max_len is not None and len(seq) > max_len:
            seq = Sequence(seq.ids[:max_len])
        seqs.append(seq)
    return Corpus(seqs, vocab)
