"""Search methods over a scorer's output distribution.

Four strategies produce finished hypotheses: plain/width-limited beam
search, complete-anytime-beam (CAB) search over an increasing schedule,
top-k and top-p sampling, and incremental sampling without replacement
backed by a residual-mass prefix trie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .scorer import Hypothesis, Scorer, math_logs, top_picks


@dataclass
class CabSchedule:
    """Increasing beam sizes with per-element expansion widths."""

    beam_sizes: list[int]
    widths: list[int]

    def __post_init__(self) -> None:
        if not self.beam_sizes or len(self.beam_sizes) != len(self.widths):
            raise ValueError("beam_sizes and widths must be non-empty, same length")
        if any(b <= 0 for b in self.beam_sizes) or any(w <= 0 for w in self.widths):
            raise ValueError("beam sizes and widths must be positive")
        if any(a >= b for a, b in zip(self.beam_sizes, self.beam_sizes[1:])):
            raise ValueError("beam sizes must be strictly increasing")

    def capped(self, max_beam: int) -> "CabSchedule":
        """Schedule truncated to stages with beam size <= max_beam."""
        stages = [(b, w) for b, w in zip(self.beam_sizes, self.widths) if b <= max_beam]
        if not stages:
            stages = [(1, 1)]
        return CabSchedule([b for b, _ in stages], [w for _, w in stages])


# Appendix-style per-model schedules used in the original experiments.
SCHEDULE_PRESETS = {
    "t5": CabSchedule([2, 10, 100, 800], [2, 2, 2, 5]),
    "bridge": CabSchedule([1, 10, 100, 1000], [1, 2, 2, 5]),
    "sq-qdmr": CabSchedule([1, 100, 1000], [1, 5, 10]),
}


class _PickTable:
    """One search's picks, one row per decoder state it has met, as
    `top_picks` gives them: `ids`, `logs`, `ends` and `eos`. A state names
    one prefix until the scorer's next `start()`, and a search starts once,
    so a state's row is read from `scorer.rows` once per search."""

    def __init__(self, scorer: Scorer, width: int, temperature: float):
        self._scorer, self._temperature = scorer, temperature
        self._keys = np.empty(0, dtype=np.int64)  # the states met, ascending
        self._slots = np.empty(0, dtype=np.intp)  # the row of each key
        self.ids = np.empty((0, width), dtype=np.intp)
        self.logs = np.empty((0, width))
        self.ends = np.empty(0)
        self.eos = np.empty(0)

    def slots(self, states: np.ndarray) -> np.ndarray:
        """The row of each of `states`; reads the rows of the states met for
        the first time, in one batch."""
        keys = self._keys
        at = keys.searchsorted(states)
        new = states[keys.take(at, mode="clip") != states] if len(keys) else states
        if len(new):
            new = np.unique(new)
            picks = top_picks(self._scorer.rows(new, self._temperature),
                              self.ids.shape[1], self._scorer.vocab.eos_id)
            self.ids, self.logs, self.ends, self.eos = (
                np.concatenate([old, more]) for old, more in
                zip((self.ids, self.logs, self.ends, self.eos), picks))
            keys = np.concatenate([keys, new])
            order = keys.argsort(kind="stable")
            self._keys = keys = keys[order]
            first = len(self._slots)
            self._slots = np.concatenate(
                [self._slots, np.arange(first, first + len(new))])[order]
            at = keys.searchsorted(states)
        return self._slots[at]


def beam_search(
    scorer: Scorer,
    beam_size: int,
    width: int,
    temperature: float = 1.0,
) -> list[Hypothesis]:
    """Width-limited beam search; returns <= beam_size finished hypotheses
    sorted by score descending, ties in token order."""
    if beam_size < 1 or width < 1:
        raise ValueError("beam size and width must be >= 1")
    eos_id = scorer.vocab.eos_id
    tokens = scorer.vocab.tokens
    # each id's rank in token order; index -1, past the last id, ranks -1
    token_rank = np.empty(len(tokens) + 1, dtype=np.intp)
    token_rank[sorted(range(len(tokens)), key=tokens.__getitem__)] = np.arange(len(tokens))
    token_rank[-1] = -1

    # The active beam, in score order and then token order: decoder states,
    # log-probs and ranks in token order. All active prefixes have the same
    # length, so two extensions compare in token order as (parent rank,
    # token rank) do.
    states = np.array([scorer.start()], dtype=np.int64)
    width = min(width, len(tokens))
    # a scorer whose rows outlive a search keeps their picks across searches
    table = (scorer.picks(width, temperature) if hasattr(scorer, "picks")
             else _PickTable(scorer, width, temperature))
    logprobs = np.zeros(1)
    lex_rank = np.zeros(1, dtype=np.intp)
    # back[t - 1] = (parents, picks): entry i of the beam at length t is
    # entry parents[i] of the beam before it with token picks[i] appended
    back: list[tuple[np.ndarray, np.ndarray]] = []
    # finished candidates as (score, prefix length, beam entry it ends);
    # none scoring below the beam_size-th best score can make the cut
    done_scores = np.empty(0)
    done_lengths = np.empty(0, dtype=np.intp)
    done_entries = np.empty(0, dtype=np.intp)
    bound = -math.inf
    while len(states):
        # beam entries that share a state share its row of picks
        slots = table.slots(states)
        forced = len(back) >= scorer.max_length  # out of budget: EOS only
        scores = logprobs + (math_logs(table.eos[slots]) if forced else table.ends[slots])
        ends = np.flatnonzero(scores > -math.inf)
        if len(ends):
            done_scores = np.concatenate([done_scores, scores[ends]])
            done_lengths = np.concatenate([done_lengths, np.full(len(ends), len(back))])
            done_entries = np.concatenate([done_entries, ends])
            if len(done_scores) >= beam_size:
                bound = _kth_largest(done_scores, beam_size)
                top = done_scores >= bound
                done_scores, done_lengths, done_entries = (
                    done_scores[top], done_lengths[top], done_entries[top])
        if forced:
            break
        # extensions, as (entry, pick) flattened; an extension never raises
        # the score, so prune dominated prefixes, and only the beam_size best
        # scores, ties included, can make the cut
        scores = (logprobs[:, None] + table.logs[slots]).ravel()
        live = np.flatnonzero(scores > bound + 1e-12)
        if len(live) > beam_size:
            live = live[scores[live] >= _kth_largest(scores[live], beam_size)]
        parents, at = np.divmod(live, width)
        picks = table.ids[slots[parents], at]
        tie_key = lex_rank[parents] * len(tokens) + token_rank[picks]
        order = np.lexsort((tie_key, -scores[live]))[:beam_size]
        parents, picks, logprobs = parents[order], picks[order], scores[live[order]]
        back.append((parents, picks))
        states = scorer.advance(states[parents], picks)
        lex_rank = np.argsort(np.argsort(tie_key[order]))
    ids = _prefix_ids(back, done_lengths, done_entries)
    # score order, then token order, where a prefix comes before its
    # extensions: each id past a prefix's end ranks -1
    order = np.lexsort(np.vstack([token_rank[ids].T[::-1], -done_scores]))[:beam_size]
    names = np.array(tokens, dtype=object)[ids[order]].tolist()
    return [Hypothesis(tuple(row[:n]), score, True) for row, n, score in
            zip(names, done_lengths[order].tolist(), done_scores[order].tolist())]


def _kth_largest(values: np.ndarray, k: int) -> float:
    return -np.partition(-values, k - 1)[k - 1]


def _prefix_ids(back, lengths: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """[len(lengths), the longest length]: the token ids of each (prefix
    length, beam entry), -1 past its length, read off the back-pointers from
    the longest prefixes down."""
    ids = np.full((len(lengths), int(lengths.max(initial=0))), -1, dtype=np.intp)
    entries = entries.copy()
    for t in range(ids.shape[1], 0, -1):
        live = np.flatnonzero(lengths >= t)
        parents, picks = back[t - 1]
        ids[live, t - 1] = picks[entries[live]]
        entries[live] = parents[entries[live]]
    return ids


def greedy_decode(scorer: Scorer, temperature: float = 1.0) -> Hypothesis:
    result = beam_search(scorer, 1, 1, temperature)
    if not result:
        return Hypothesis((), -math.inf, True)
    return result[0]


def cab_search(
    scorer: Scorer,
    schedule: CabSchedule,
    first_accepted: Callable[[list[Hypothesis]], int | None],
    temperature: float = 1.0,
) -> tuple[Hypothesis | None, list[Hypothesis]]:
    """Beam search per schedule stage; each stage hands its finished
    hypotheses not tested at an earlier stage, in score order, to
    `first_accepted`, which returns the index of the first one it accepts
    or None. Stops at the first acceptance; `tested` ends with it."""
    tested: list[Hypothesis] = []
    seen: set[tuple[str, ...]] = set()
    for beam_size, width in zip(schedule.beam_sizes, schedule.widths):
        fresh = []
        for hyp in beam_search(scorer, beam_size, width, temperature):
            if hyp.tokens not in seen:
                seen.add(hyp.tokens)
                fresh.append(hyp)
        found = first_accepted(fresh)
        if found is not None:
            tested.extend(fresh[:found + 1])
            return fresh[found], tested
        tested.extend(fresh)
    return None, tested


def _choose(rng: np.random.Generator, p: np.ndarray) -> int:
    """rng.choice(len(p), p=p) for a p that sums to one: numpy's own
    arithmetic, so the same index from the same draw of rng, without the
    checks and copies choice repeats on every call. Like choice, it rejects
    a negative or NaN probability."""
    if not np.minimum.reduce(p) >= 0:  # a NaN minimum fails this too
        raise ValueError("probabilities must be non-negative numbers")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample(scorer: Scorer, keep: Callable[[np.ndarray], int], num_samples: int,
            temperature: float, seed: int) -> list[Hypothesis]:
    """num_samples sequences; each token is drawn from the renormalized
    `keep(probs)` most probable entries of its distribution, where `probs`
    is the distribution in descending order, ties to the lower id."""
    rng = np.random.default_rng(seed)
    eos_id, tokens, max_length = scorer.vocab.eos_id, scorer.vocab.tokens, scorer.max_length
    samples = []
    for _ in range(num_samples):
        prefix: tuple[str, ...] = ()
        logprob = 0.0
        while True:
            dist = scorer.tempered_distribution(prefix, temperature)
            if len(prefix) >= max_length:
                tid = eos_id  # out of budget for further tokens
            else:
                order = np.argsort(-dist, kind="stable")
                top = order[:keep(dist[order])]
                kept = np.zeros_like(dist)
                kept[top] = dist[top]
                tid = _choose(rng, kept / kept.sum())
            logprob += math.log(dist[tid]) if dist[tid] > 0 else -math.inf
            if tid == eos_id:
                break
            prefix += (tokens[tid],)
        samples.append(Hypothesis(prefix, logprob, True))
    return samples


def topk_sample(scorer: Scorer, k: int, num_samples: int, temperature: float = 1.0,
                seed: int = 0) -> list[Hypothesis]:
    """num_samples sequences, each step sampled from the renormalized top-k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _sample(scorer, lambda probs: k, num_samples, temperature, seed)


def topp_sample(scorer: Scorer, p: float, num_samples: int, temperature: float = 1.0,
                seed: int = 0) -> list[Hypothesis]:
    """num_samples sequences from the minimal top mass >= p (nucleus)."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    return _sample(scorer, lambda probs: int(np.searchsorted(np.cumsum(probs), p - 1e-12)) + 1,
                   num_samples, temperature, seed)


@dataclass
class SamplerState:
    """Residual-mass trie for sampling sequences without replacement.

    A node maps each child token id it has taken, EOS included, to
    `[mass emitted through that child, child node]`. Emitting a sequence adds
    its absolute probability to every entry on its path, so subsequent draws
    renormalize over what is left.
    """

    scorer: Scorer
    temperature: float = 1.0
    seed: int = 0
    _root: dict[int, list] = field(default_factory=dict, init=False)
    _root_taken: float = field(default=0.0, init=False)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    @property
    def residual_mass(self) -> float:
        return 1.0 - self._root_taken

    def exhausted(self) -> bool:
        return self.residual_mass <= 1e-9

    def draw(self) -> Hypothesis | None:
        """One sequence without replacement, or None on mass exhaustion."""
        if self.exhausted():
            return None
        eos_id = self.scorer.vocab.eos_id
        tokens = self.scorer.vocab.tokens
        max_length = self.scorer.max_length
        distribution, temperature = self.scorer.tempered_distribution, self.temperature
        node = self._root
        prefix: tuple[str, ...] = ()
        path: list[list] = []  # the entries taken from the root
        path_prob = 1.0
        logprob = 0.0
        tid = None
        while tid != eos_id:
            dist = distribution(prefix, temperature)
            if len(prefix) >= max_length:
                # treat the whole remaining subtree as terminating here; none
                # of it was emitted before, since its one sequence ends here
                tid = eos_id
                p = dist[tid]
            else:
                weights = dist * path_prob
                if node:
                    ids = np.fromiter(node, np.intp, len(node))
                    masses = np.fromiter((e[0] for e in node.values()), float, len(node))
                    weights[ids] = np.maximum(weights[ids] - masses, 0.0)
                total = np.add.reduce(weights)
                if total <= 0:
                    return None
                weights /= total
                tid = _choose(self._rng, weights)
                p = dist[tid]
                path_prob *= p
            logprob += math.log(p) if p > 0 else -math.inf
            entry = node.setdefault(tid, [0.0, {}])
            path.append(entry)
            node = entry[1]
            if tid != eos_id:
                prefix += (tokens[tid],)
        for entry in path:
            entry[0] += path_prob
        self._root_taken += path_prob
        return Hypothesis(prefix, logprob, True)


def unique_randomizer_sample(
    state: SamplerState,
    first_accepted: Callable[[list[Hypothesis]], int | None],
    max_iterations: int = 100,
) -> tuple[Hypothesis | None, list[Hypothesis]]:
    """Draw pairwise-distinct sequences from the sampler `state` in batches
    of 1, 2, 4, ... draws, at most max_iterations in all, and hand each
    batch to `first_accepted`, which returns the index of the first one it
    accepts or None. Stops at the first acceptance or when the probability
    mass runs out; `drawn` ends with the accepted draw, and leaves out the
    draws after it in its batch."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    drawn: list[Hypothesis] = []
    size = 1
    while len(drawn) < max_iterations:
        batch = []
        for _ in range(min(size, max_iterations - len(drawn))):
            hyp = state.draw()
            if hyp is None:
                break
            batch.append(hyp)
        found = first_accepted(batch) if batch else None
        if found is not None:
            drawn.extend(batch[:found + 1])
            return batch[found], drawn
        drawn.extend(batch)
        if len(batch) < size:  # out of mass, or the budget's last batch
            break
        size *= 2
    return None, drawn
