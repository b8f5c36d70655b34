"""Autoregressive scoring contract and desk-scale reference scorers.

All search methods consume the Scorer interface: a per-step distribution
over a fixed vocabulary given a token prefix. The add-alpha n-gram scorer
stands in for large neural decoders; the replay scorer plays back
externally computed per-step distributions from a file.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .parser import NAME_START, lex

EOS = "</s>"
BOS = "<s>"

_NAME_TAIL = NAME_START | frozenset("0123456789.")


def tokenize_sql(text: str) -> list[str]:
    """Lower-cased lexemes; a name absorbs the lexemes touching it while they
    hold only letters, digits, '_' and '.', so `t1.name` stays one token."""
    tokens: list[str] = []
    absorbing = False
    for space, lexeme in lex(text):
        if absorbing and not space and _NAME_TAIL.issuperset(lexeme):
            tokens[-1] += lexeme.lower()
        else:
            tokens.append(lexeme.lower())
            absorbing = lexeme[0] in NAME_START
    return tokens


def detokenize_sql(tokens: list[str] | tuple[str, ...]) -> str:
    return " ".join(t for t in tokens if t not in (BOS, EOS))


class EmptyCorpus(ValueError):
    pass


class UnknownToken(KeyError):
    pass


@dataclass
class Vocabulary:
    tokens: list[str]  # EOS always included

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        if EOS not in self.tokens:
            raise ValueError("vocabulary must contain the EOS marker")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.eos_id = self.index[EOS]

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise UnknownToken(token) from None


@dataclass(frozen=True)
class Hypothesis:
    """A token sequence with its cumulative log-probability."""

    tokens: tuple[str, ...]
    logprob: float
    finished: bool = False

    @property
    def text(self) -> str:
        return detokenize_sql(self.tokens)


class Scorer(ABC):
    """Distribution over the next token given a prefix (no BOS/EOS in it)."""

    vocab: Vocabulary
    max_length: int

    @abstractmethod
    def next_distribution(self, prefix: tuple[str, ...]) -> np.ndarray:
        """Probability vector over self.vocab; non-negative, sums to one."""

    def tempered_distribution(self, prefix: tuple[str, ...],
                              temperature: float) -> np.ndarray:
        """next_distribution(prefix) under apply_temperature; callers only
        read it."""
        return apply_temperature(self.next_distribution(prefix), temperature)


class NgramScorer(Scorer):
    """Add-alpha-smoothed n-gram model over a token-sequence corpus."""

    def __init__(self, corpus: list[list[str]], order: int = 3, alpha: float = 0.1,
                 max_length: int = 64):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not corpus:
            raise EmptyCorpus("training corpus is empty")
        tokens = sorted({t for seq in corpus for t in seq} - {BOS, EOS})
        self.vocab = Vocabulary(tokens + [EOS])
        self.order = order
        self.alpha = alpha
        self.max_length = max_length
        # context -> next-token distribution: counts while training, then
        # add-alpha normalized in place, read-only, shared by every caller
        self._rows: dict[tuple[str, ...], np.ndarray] = {}
        for seq in corpus:
            padded = [BOS] * (order - 1) + [t for t in seq if t != EOS] + [EOS]
            for i in range(order - 1, len(padded)):
                context = tuple(padded[i - order + 1 : i])
                row = self._rows.get(context)
                if row is None:
                    row = np.zeros(len(self.vocab))
                    self._rows[context] = row
                row[self.vocab.id(padded[i])] += 1
        self._unseen = np.zeros(len(self.vocab))
        for row in (*self._rows.values(), self._unseen):
            row += alpha
            row /= row.sum()
            row.flags.writeable = False
        # (temperature, id of a row) -> that row tempered, read-only like the
        # rows; a row lives as long as the scorer, so its id stays its own
        self._tempered: dict[tuple[float, int], np.ndarray] = {}

    def _context(self, prefix: tuple[str, ...]) -> tuple[str, ...]:
        n = self.order - 1
        if len(prefix) >= n:
            return prefix[len(prefix) - n :]
        return (BOS,) * (n - len(prefix)) + prefix

    def next_distribution(self, prefix: tuple[str, ...]) -> np.ndarray:
        return self._rows.get(self._context(prefix), self._unseen)

    def tempered_distribution(self, prefix: tuple[str, ...],
                              temperature: float) -> np.ndarray:
        """Each row is tempered once per temperature; every unseen context
        shares the one row, so it shares the one entry too."""
        row = self.next_distribution(prefix)
        if temperature == 1.0:
            return row
        key = (temperature, id(row))
        tempered = self._tempered.get(key)
        if tempered is None:
            tempered = apply_temperature(row, temperature)
            tempered.flags.writeable = False
            self._tempered[key] = tempered
        return tempered


class TableScorer(Scorer):
    """Deterministic scorer over an explicit finite sequence distribution.

    Takes {token-sequence: probability} (probabilities need not be
    normalized) and derives exact per-step conditionals, which makes ranks
    and residuals computable in closed form for tests and demos.
    """

    def __init__(self, sequence_probs: dict[tuple[str, ...], float]):
        if not sequence_probs:
            raise ValueError("need at least one sequence")
        total = sum(sequence_probs.values())
        self._probs = {seq: p / total for seq, p in sequence_probs.items()}
        tokens = sorted({t for seq in self._probs for t in seq} - {EOS})
        self.vocab = Vocabulary(tokens + [EOS])
        self.max_length = max(len(s) for s in self._probs) + 1
        # subtree mass per prefix
        self._mass: dict[tuple[str, ...], float] = {}
        for seq, p in self._probs.items():
            for i in range(len(seq) + 1):
                key = seq[:i]
                self._mass[key] = self._mass.get(key, 0.0) + p

    def sequences(self) -> dict[tuple[str, ...], float]:
        return dict(self._probs)

    def next_distribution(self, prefix: tuple[str, ...]) -> np.ndarray:
        dist = np.zeros(len(self.vocab))
        prefix_mass = self._mass.get(prefix)
        if prefix_mass is None or prefix_mass <= 0:
            dist[self.vocab.eos_id] = 1.0
            return dist
        terminal = self._probs.get(prefix, 0.0)
        dist[self.vocab.eos_id] = terminal / prefix_mass
        for i, token in enumerate(self.vocab.tokens):
            if token == EOS:
                continue
            child_mass = self._mass.get(prefix + (token,), 0.0)
            dist[i] = child_mass / prefix_mass
        return dist


class ReplayScorer(Scorer):
    """Plays back per-step distributions computed offline.

    File format: JSON lines. The first line is a header
    ``{"vocab": [...], "max_length": N}``; every following line is
    ``{"prefix": [token ids], "probs": [...]}``. Prefixes without a record
    fall back to deterministic EOS. A record whose prefix holds an id outside
    the vocabulary, or whose probs are not a distribution over the vocabulary
    (one finite, non-negative entry per token, summing to 1 within 1e-6), is
    rejected at load with a ValueError naming the file and line.
    """

    def __init__(self, path: str | Path):
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
                self.vocab = Vocabulary(header["vocab"])
                self.max_length = int(header["max_length"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:1: bad header: {exc}") from None
            self._table: dict[tuple[str, ...], np.ndarray] = {}
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    prefix, probs = self._record(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                self._table[prefix] = probs

    def _record(self, rec: dict) -> tuple[tuple[str, ...], np.ndarray]:
        size = len(self.vocab)
        for i in rec["prefix"]:
            if type(i) is not int or not 0 <= i < size:
                raise ValueError(f"prefix id {i!r} is not in 0..{size - 1}")
        probs = np.asarray(rec["probs"], dtype=float)
        if probs.shape != (size,):
            raise ValueError(f"probs has {probs.size} entries for {size} tokens")
        if not (np.isfinite(probs).all() and (probs >= 0).all()):
            raise ValueError("probs holds a negative or non-finite entry")
        if abs(probs.sum() - 1.0) > 1e-6:
            raise ValueError(f"probs sums to {probs.sum()!r}, not 1")
        return tuple(self.vocab.tokens[i] for i in rec["prefix"]), probs

    @staticmethod
    def write(path: str | Path, vocab: Vocabulary, max_length: int,
              records: list[tuple[tuple[str, ...], np.ndarray]]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"vocab": vocab.tokens, "max_length": max_length}) + "\n")
            for prefix, probs in records:
                fh.write(json.dumps({
                    "prefix": [vocab.id(t) for t in prefix],
                    "probs": [float(p) for p in probs],
                }) + "\n")

    def next_distribution(self, prefix: tuple[str, ...]) -> np.ndarray:
        dist = self._table.get(prefix)
        if dist is None:
            dist = np.zeros(len(self.vocab))
            dist[self.vocab.eos_id] = 1.0
        return dist


def apply_temperature(dist: np.ndarray, temperature: float) -> np.ndarray:
    """p_i^(1/T), renormalized; T=1 is the identity."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if temperature == 1.0:
        return dist
    with np.errstate(divide="ignore"):
        logits = np.where(dist > 0, np.log(np.maximum(dist, 1e-300)), -np.inf)
    logits = logits / temperature
    logits -= logits.max()
    out = np.exp(logits)
    out[dist <= 0] = 0.0
    return out / out.sum()


def sequence_logprob(scorer: Scorer, tokens: tuple[str, ...] | list[str],
                     temperature: float = 1.0) -> float:
    """Chain-rule log-probability of a full sequence (EOS-terminated)."""
    tokens = tuple(tokens)
    if not tokens or tokens[-1] != EOS:
        tokens = tokens + (EOS,)
    total = 0.0
    for i, token in enumerate(tokens):
        dist = scorer.tempered_distribution(tokens[:i], temperature)
        p = dist[scorer.vocab.id(token)]
        total += math.log(p) if p > 0 else -math.inf
    return total
