"""Autoregressive scoring contract and desk-scale reference scorers.

All search methods consume the Scorer interface: a per-step distribution
over a fixed vocabulary given a token prefix, or, for beam search, given
a decoder state that stands for the prefix. The add-alpha n-gram scorer
stands in for large neural decoders; the replay scorer plays back
externally computed per-step distributions from a file.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=1024)
def _text_of(tokens: tuple[str, ...]) -> str:
    """`detokenize_sql`, memoized on the token tuple. A search reads a
    sequence's text about once, as CAB drops a stage's repeats before it is
    read, but the scorers of one corpus decode many of the same sequences,
    so texts recur across questions."""
    return detokenize_sql(tokens)


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
        return _text_of(self.tokens)


class Scorer(ABC):
    """Distribution over the next token given a prefix (no BOS/EOS in it).

    Beam search decodes through decoder states instead of prefixes:
    `start()` is the state before any token, `advance` appends one token to
    each of an array of states and `rows` gives each state's tempered
    distribution. A state is an int64, as a cached neural decoder's would be
    the handle of its cache entry. `rows` must give a state the same row
    until the next `start()`: beam search reads each state's row once per
    search. The defaults intern each prefix to an id, valid until the next
    `start()`, and read `tempered_distribution`, so a scorer that gives only
    `next_distribution` decodes unchanged.

    A scorer whose states index rows that outlive a search may also offer
    `picks(width, temperature)`: a table with `top_picks`' `ids`, `logs`,
    `ends` and `eos` of every row, and `slots(states)`, each state's row in
    them. Beam search then reads the table instead of `rows`, so a subclass
    that overrides `rows` must override `picks` too.
    """

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

    def start(self) -> int:
        """The state of the empty prefix; here it also empties the table of
        interned prefixes."""
        self._prefixes: list[tuple[str, ...]] = [()]
        return 0

    def advance(self, states: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """The state of each of `states` with `token_ids` appended, pairwise."""
        prefixes, tokens = self._prefixes, self.vocab.tokens
        first = len(prefixes)
        prefixes.extend(prefixes[s] + (tokens[t],)
                        for s, t in zip(states.tolist(), token_ids.tolist()))
        return np.arange(first, len(prefixes))

    def rows(self, states: np.ndarray, temperature: float) -> np.ndarray:
        """[len(states), V]: each state's tempered distribution, in an array
        the caller may overwrite."""
        prefixes = self._prefixes
        return np.stack([self.tempered_distribution(prefixes[s], temperature)
                         for s in states.tolist()])


class NgramScorer(Scorer):
    """Add-alpha-smoothed n-gram model over a token-sequence corpus.

    A decoder state is the context, the last order-1 token ids, packed into
    one int64 in base V+1 with BOS as V. The smoothed rows of the contexts
    seen in training, in packed-key order, and then the one row every unseen
    context shares make one read-only [R+1, V] matrix. Its rows outlive a
    search, so `picks` gives beam search every row's picks, computed once
    per temperature and width and kept for every later search.
    """

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
        size = len(self.vocab)
        self._base = size + 1
        # the number of packed contexts; advance's intermediates stay below it
        self._contexts = self._base ** (order - 1)
        if self._contexts > np.iinfo(np.int64).max:
            raise ValueError(f"order {order} packs {order - 1} token ids in base "
                             f"{self._base}, which overflows int64")
        # every sequence's token ids after order-1 BOS ids; every id but
        # BOS's is a token to count after the order-1 ids before it
        index = self.vocab.index
        ids: list[int] = []
        for seq in corpus:
            ids += [size] * (order - 1)
            try:
                ids += [index[t] for t in seq if t != EOS]
            except KeyError as exc:
                raise UnknownToken(exc.args[0]) from None
            ids.append(self.vocab.eos_id)
        flat = np.array(ids, dtype=np.int64)
        at = np.flatnonzero(flat != size)
        keys = np.zeros(len(at), dtype=np.int64)
        for back in range(1, order):
            keys += flat[at - back] * self._base ** (back - 1)
        self._keys, row_of_key = np.unique(keys, return_inverse=True)
        seen = len(self._keys)
        counts = np.bincount(row_of_key.ravel() * size + flat[at], minlength=seen * size)
        self._matrix = np.concatenate([counts, np.zeros(size)]).reshape(seen + 1, size)
        self._matrix += alpha
        self._matrix /= self._matrix.sum(axis=1, keepdims=True)
        self._matrix.flags.writeable = False
        self._unseen = seen
        # the per-prefix path: context tokens -> row
        digits = self._keys[:, None] // self._base ** np.arange(order - 2, -1, -1) % self._base
        names = np.array(self.vocab.tokens + [BOS], dtype=object)[digits].tolist()
        self._row_of = {tuple(context): row for row, context in enumerate(names)}
        self._last_prefix: tuple[str, ...] | None = None
        self._last_row = self._unseen
        self._tables: dict[float, _TemperedRows] = {}

    def _row(self, prefix: tuple[str, ...]) -> int:
        """The row of prefix's context. tempered_distribution asks twice
        for the prefix it hands next_distribution, so the last answer is
        kept."""
        if prefix is self._last_prefix:
            return self._last_row
        n = self.order - 1
        if len(prefix) >= n:
            context = prefix[len(prefix) - n :]
        else:
            context = (BOS,) * (n - len(prefix)) + prefix
        self._last_prefix, self._last_row = prefix, self._row_of.get(context, self._unseen)
        return self._last_row

    def _table(self, temperature: float) -> "_TemperedRows":
        try:
            return self._tables[temperature]
        except KeyError:
            table = self._tables[temperature] = _TemperedRows(self._matrix, temperature)
            return table

    def next_distribution(self, prefix: tuple[str, ...]) -> np.ndarray:
        return self._table(1.0).rows[self._row(prefix)]

    def tempered_distribution(self, prefix: tuple[str, ...],
                              temperature: float) -> np.ndarray:
        """One read-only array per row and temperature: every unseen context
        shares the one row, so it shares the one array too. Every per-prefix
        read goes through next_distribution once, so a wrapper of it counts
        them all."""
        self.next_distribution(prefix)
        return self._table(temperature).rows[self._row(prefix)]

    def start(self) -> int:
        return self._contexts - 1  # order-1 BOS ids

    def advance(self, states: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        if self.order == 1:
            return np.zeros(len(token_ids), dtype=np.int64)
        # drop the oldest id before shifting, so no intermediate overflows
        return states % (self._contexts // self._base) * self._base + token_ids

    def rows(self, states: np.ndarray, temperature: float) -> np.ndarray:
        return self._table(temperature).probs[_row_index(self._keys, states)]

    def picks(self, width: int, temperature: float) -> "_MatrixPicks":
        """Every row's beam picks at `temperature`, computed on first use."""
        table = self._table(temperature)
        try:
            return table.picks[width]
        except KeyError:
            picks = table.picks[width] = _MatrixPicks(
                table.probs, width, self.vocab.eos_id, self._keys)
            return picks


def _row_index(keys: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each state's row in an n-gram matrix: its key's in the sorted `keys`,
    or the unseen row after them on a miss."""
    at = keys.searchsorted(states)
    return np.where(keys.take(at, mode="clip") == states, at, len(keys))


class _TemperedRows:
    """An n-gram matrix at one temperature, tempered whole on first use (at
    T = 1 it is the matrix itself): `probs` for the beam's blocks of rows,
    `rows` as one read-only view per row for a per-prefix caller, and
    `picks`, the beam's picks of every row, by width."""

    def __init__(self, matrix: np.ndarray, temperature: float):
        self.probs = apply_temperature(matrix, temperature)
        self.probs.flags.writeable = False
        self.rows = list(self.probs)
        self.picks: dict[int, _MatrixPicks] = {}


class _MatrixPicks:
    """`top_picks` of every row of an n-gram matrix, with the states' rows
    found by their context keys. It holds the keys, not the scorer, so the
    scorer's tables make no reference cycle."""

    def __init__(self, probs: np.ndarray, width: int, eos_id: int, keys: np.ndarray):
        self.ids, self.logs, self.ends, self.eos = top_picks(np.array(probs), width, eos_id)
        self._keys = keys

    def slots(self, states: np.ndarray) -> np.ndarray:
        return _row_index(self._keys, states)


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
    """p_i^(1/T), renormalized along the last axis, so row by row for a
    matrix of distributions; T=1 is the identity."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if temperature == 1.0:
        return dist
    with np.errstate(divide="ignore"):
        logits = np.where(dist > 0, np.log(np.maximum(dist, 1e-300)), -np.inf)
    logits = logits / temperature
    logits -= logits.max(axis=-1, keepdims=True)
    out = np.exp(logits)
    out[dist <= 0] = 0.0
    return out / out.sum(axis=-1, keepdims=True)


def math_logs(probs: np.ndarray) -> np.ndarray:
    """math.log of each entry, -inf at 0. math.log, not np.log: the two
    differ in the last bit on some inputs, which could reorder tied
    hypotheses. Picks hold few distinct values, so each one's log is taken
    once."""
    values = np.unique(probs)
    logs = np.array([math.log(v) if v > 0 else -math.inf for v in values.tolist()])
    return logs[values.searchsorted(probs)]


def top_picks(dists: np.ndarray, width: int, eos_id: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Beam search's picks from each row of `dists`, which it overwrites:
    the `width` most probable ids as a [rows, width] array in descending
    order with ties to the lower id, as a stable descending argsort cut at
    `width` gives them; the math_logs of the probability of each pick that
    extends the prefix (-inf at EOS and where a pick has no mass); the log
    of EOS where EOS is a pick with mass, else -inf; and the probability of
    EOS."""
    # EOS's column before the picks overwrite it
    eos = dists[:, eos_id].copy()
    rows = np.arange(len(dists))
    ids = np.empty((len(dists), width), dtype=np.intp)
    probs = np.empty((len(dists), width))
    for j in range(width):
        ids[:, j] = picked = dists.argmax(axis=1)
        probs[:, j] = dists[rows, picked]
        dists[rows, picked] = -1.0
    logs = math_logs(probs)
    at_eos = ids == eos_id
    ends = np.where(at_eos, logs, -math.inf).max(axis=1)
    logs[at_eos] = -math.inf
    return ids, logs, ends, eos


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
