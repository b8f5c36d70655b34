import copy
import gc
import itertools
import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedsql.scorer import (
    EOS,
    Hypothesis,
    NgramScorer,
    ReplayScorer,
    Scorer,
    TableScorer,
    Vocabulary,
    apply_temperature,
    bin_edges,
    sequence_logprob,
)
from guidedsql import search
from guidedsql.search import (
    _FILTER_FLOOR,
    CabSchedule,
    SCHEDULE_PRESETS,
    SamplerState,
    _choose,
    _step,
    beam_search,
    cab_search,
    greedy_decode,
    topk_sample,
    topp_sample,
    unique_randomizer_sample,
)


class RandomScorer(Scorer):
    """Deterministic pseudo-random conditionals; a stand-in neural decoder."""

    def __init__(self, seed: int, vocab_tokens=("a", "b", "c"), max_length: int = 3):
        self.vocab = Vocabulary(list(vocab_tokens) + [EOS])
        self.max_length = max_length
        self.seed = seed

    def next_distribution(self, prefix):
        key = zlib.crc32(repr((self.seed, prefix)).encode())
        rng = np.random.default_rng(key)
        return rng.dirichlet(np.ones(len(self.vocab)))


def enumerate_sequences(scorer):
    """Brute-force oracle: every finished sequence with its log-probability,
    mirroring the forced-EOS convention at max length."""
    results = []

    def expand(prefix, logprob):
        dist = scorer.next_distribution(prefix)
        eos_p = dist[scorer.vocab.eos_id]
        if eos_p > 0:
            results.append((prefix, logprob + math.log(eos_p)))
        if len(prefix) >= scorer.max_length:
            return
        for tid, token in enumerate(scorer.vocab.tokens):
            if tid == scorer.vocab.eos_id or dist[tid] <= 0:
                continue
            expand(prefix + (token,), logprob + math.log(dist[tid]))

    expand((), 0.0)
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


def test_beam_matches_enumeration_oracle():
    for seed in range(20):
        scorer = RandomScorer(seed)
        oracle = enumerate_sequences(scorer)
        hyps = beam_search(scorer, beam_size=len(oracle), width=len(scorer.vocab))
        assert [h.tokens for h in hyps] == [seq for seq, _ in oracle]
        for h, (_, lp) in zip(hyps, oracle):
            assert h.logprob == pytest.approx(lp)


def test_beam_top_slice_is_prefix_of_full_ranking():
    scorer = RandomScorer(7)
    oracle = enumerate_sequences(scorer)
    top = beam_search(scorer, beam_size=5, width=len(scorer.vocab))
    assert [h.tokens for h in top] == [seq for seq, _ in oracle[:5]]


def test_beam_rejects_bad_sizes():
    scorer = RandomScorer(0)
    with pytest.raises(ValueError):
        beam_search(scorer, 0, 1)
    with pytest.raises(ValueError):
        beam_search(scorer, 1, 0)


def test_greedy_follows_argmax_path():
    scorer = RandomScorer(3)
    prefix = ()
    logprob = 0.0
    while True:
        dist = scorer.next_distribution(prefix)
        tid = int(np.argmax(dist))
        logprob += math.log(dist[tid])
        if tid == scorer.vocab.eos_id or len(prefix) >= scorer.max_length:
            break
        prefix += (scorer.vocab.tokens[tid],)
    greedy = greedy_decode(scorer)
    assert greedy.tokens == prefix
    assert greedy.logprob == pytest.approx(logprob)


def first_where(accept):
    """A cab_search callback from a per-hypothesis predicate."""
    return lambda hyps: next((i for i, h in enumerate(hyps) if accept(h)), None)


def test_cab_stops_at_first_acceptance():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    best, tested = cab_search(sc, CabSchedule([1, 3], [1, 3]),
                              first_where(lambda h: h.tokens == ("a", "c")))
    assert best.tokens == ("a", "c")
    assert [t.tokens for t in tested] == [("a", "b"), ("a", "c")]


def test_cab_never_retests_across_stages():
    sc = TableScorer({("a",): 0.7, ("b",): 0.2, ("c",): 0.1})
    counts = {}

    def never(h):
        counts[h.tokens] = counts.get(h.tokens, 0) + 1
        return False

    best, tested = cab_search(sc, CabSchedule([1, 2, 3], [1, 2, 3]), first_where(never))
    assert best is None
    assert set(counts.values()) == {1}
    assert len(tested) == 3


def test_cab_schedule_validation():
    with pytest.raises(ValueError):
        CabSchedule([], [])
    with pytest.raises(ValueError):
        CabSchedule([2, 2], [1, 1])
    with pytest.raises(ValueError):
        CabSchedule([1, 2], [1])
    with pytest.raises(ValueError):
        CabSchedule([1, 2], [1, 0])


def test_cab_schedule_capped():
    t5 = SCHEDULE_PRESETS["t5"]
    assert t5.beam_sizes == [2, 10, 100, 800] and t5.widths == [2, 2, 2, 5]
    capped = t5.capped(100)
    assert capped.beam_sizes == [2, 10, 100]
    assert t5.capped(1).beam_sizes == [1]
    assert SCHEDULE_PRESETS["bridge"].beam_sizes == [1, 10, 100, 1000]
    assert SCHEDULE_PRESETS["sq-qdmr"].widths == [1, 5, 10]


def test_topk_sampling_respects_truncation():
    sc = TableScorer({("a",): 0.5, ("b",): 0.3, ("c",): 0.2})
    samples = topk_sample(sc, k=2, num_samples=300, seed=0)
    drawn = {s.tokens for s in samples}
    # top-2 of the first step is {a, b}; c is cut off
    assert ("c",) not in drawn
    assert {("a",), ("b",)} <= drawn


def test_topk_one_is_deterministic_argmax():
    sc = TableScorer({("a",): 0.5, ("b",): 0.3, ("c",): 0.2})
    samples = topk_sample(sc, k=1, num_samples=20, seed=4)
    assert all(s.tokens == ("a",) for s in samples)


def test_topp_keeps_minimal_mass():
    sc = TableScorer({("a",): 0.5, ("b",): 0.3, ("c",): 0.2})
    samples = topp_sample(sc, p=0.6, num_samples=300, seed=1)
    drawn = {s.tokens for s in samples}
    # cumulative 0.5 < 0.6, so b joins; c never qualifies
    assert drawn == {("a",), ("b",)}
    everything = topp_sample(sc, p=1.0, num_samples=400, seed=1)
    assert {s.tokens for s in everything} == {("a",), ("b",), ("c",)}


def test_sampling_is_seed_deterministic():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    a = [s.tokens for s in topk_sample(sc, k=3, num_samples=10, seed=9)]
    b = [s.tokens for s in topk_sample(sc, k=3, num_samples=10, seed=9)]
    assert a == b
    c = [s.tokens for s in topp_sample(sc, p=0.9, num_samples=10, seed=9)]
    d = [s.tokens for s in topp_sample(sc, p=0.9, num_samples=10, seed=9)]
    assert c == d


def test_sampled_logprobs_match_chain_rule():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    for hyp in topp_sample(sc, p=1.0, num_samples=20, seed=2):
        assert hyp.logprob == pytest.approx(sequence_logprob(sc, hyp.tokens))


def test_sampler_state_enumerates_whole_support():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    for seed in range(30):
        state = SamplerState(sc, seed=seed)
        seen = []
        while not state.exhausted():
            hyp = state.draw()
            if hyp is None:
                break
            seen.append(hyp.tokens)
        assert sorted(seen) == [("a", "b"), ("a", "c"), ("b",)]
        assert state.residual_mass == pytest.approx(0.0, abs=1e-9)


def test_sampler_state_first_draw_logprob_is_original():
    sc = TableScorer({("a",): 0.7, ("b",): 0.3})
    state = SamplerState(sc, seed=0)
    first = state.draw()
    assert first.logprob == pytest.approx(sequence_logprob(sc, first.tokens))


def test_unique_randomizer_stops_on_acceptance():
    sc = TableScorer({("a",): 0.7, ("b",): 0.2, ("c",): 0.1})
    best, drawn = unique_randomizer_sample(
        SamplerState(sc, seed=12), first_where(lambda h: h.tokens == ("c",)),
        max_iterations=50,
    )
    assert best is not None and best.tokens == ("c",)
    assert drawn[-1].tokens == ("c",)
    assert len(drawn) == len({d.tokens for d in drawn}) <= 3


def test_unique_randomizer_exhausts_and_fails():
    sc = TableScorer({("a",): 0.7, ("b",): 0.3})
    best, drawn = unique_randomizer_sample(
        SamplerState(sc, seed=0), first_where(lambda h: False), max_iterations=50
    )
    assert best is None
    assert sorted(d.tokens for d in drawn) == [("a",), ("b",)]


@pytest.mark.parametrize("budget, sizes", [(1, [1]), (3, [1, 2]), (7, [1, 2, 4]),
                                           (50, [1, 2, 4, 8, 16, 19])])
def test_unique_randomizer_checks_doubling_batches_up_to_the_budget(budget, sizes):
    # the scorer holds far more than 50 sequences, so only the budget stops it
    scorer = RandomScorer(3, vocab_tokens=("a", "b", "c", "d"), max_length=6)
    batches = []
    best, drawn = unique_randomizer_sample(
        SamplerState(scorer, seed=1), lambda hyps: batches.append(hyps), budget)
    assert best is None
    assert [len(b) for b in batches] == sizes
    assert drawn == [h for b in batches for h in b]
    reference = SamplerState(scorer, seed=1)
    assert drawn == [reference.draw() for _ in range(budget)]


def test_unique_randomizer_checks_the_short_batch_that_exhausts_the_mass():
    sc = TableScorer({("a",): 0.4, ("b",): 0.3, ("c",): 0.2, ("d",): 0.1})
    batches = []
    best, drawn = unique_randomizer_sample(
        SamplerState(sc, seed=0), lambda hyps: batches.append(hyps), 50)
    assert best is None
    assert [len(b) for b in batches] == [1, 2, 1]
    assert sorted(d.tokens for d in drawn) == [("a",), ("b",), ("c",), ("d",)]


def test_unique_randomizer_keeps_no_draw_past_the_accepted_one():
    scorer = RandomScorer(3, vocab_tokens=("a", "b", "c", "d"), max_length=6)
    reference = SamplerState(scorer, seed=1)
    sequence = [reference.draw() for _ in range(15)]
    for accept_at in range(15):
        best, drawn = unique_randomizer_sample(
            SamplerState(scorer, seed=1),
            first_where(lambda h: h.tokens == sequence[accept_at].tokens), 50)
        assert best == sequence[accept_at]
        assert drawn == sequence[:accept_at + 1]


def test_forced_eos_at_max_length():
    scorer = RandomScorer(11, max_length=2)
    for h in beam_search(scorer, beam_size=50, width=4):
        assert len(h.tokens) <= 2
    for h in topp_sample(scorer, p=1.0, num_samples=50, seed=0):
        assert len(h.tokens) <= 2
    state = SamplerState(scorer, seed=0)
    for _ in range(30):
        h = state.draw()
        if h is None:
            break
        assert len(h.tokens) <= 2


# --- the vectorized decoding against the per-token loops it replaced ---


def _reference_beam_search(scorer, beam_size, width, temperature=1.0, max_length=None):
    """The per-hypothesis, per-token beam loop; beam_search must match it
    exactly: same hypotheses, same log-prob bits, same order."""
    max_length = scorer.max_length if max_length is None else max_length
    eos_id = scorer.vocab.eos_id

    def order(h):
        return (-h.logprob, h.tokens)

    active = [Hypothesis((), 0.0)]
    finished = []
    while active:
        candidates = []
        for hyp in active:
            dist = apply_temperature(scorer.next_distribution(hyp.tokens), temperature)
            if len(hyp.tokens) >= max_length:
                if dist[eos_id] > 0:
                    candidates.append(
                        Hypothesis(hyp.tokens, hyp.logprob + math.log(dist[eos_id]), True))
                continue
            for tid in np.argsort(-dist, kind="stable")[:width]:
                p = dist[tid]
                if p <= 0:
                    break
                logprob = hyp.logprob + math.log(p)
                if tid == eos_id:
                    candidates.append(Hypothesis(hyp.tokens, logprob, True))
                else:
                    candidates.append(Hypothesis(
                        hyp.tokens + (scorer.vocab.tokens[tid],), logprob, False))
        finished.extend(c for c in candidates if c.finished)
        finished.sort(key=order)
        del finished[beam_size:]
        active = sorted((c for c in candidates if not c.finished), key=order)
        del active[beam_size:]
        if len(finished) >= beam_size:
            bound = finished[-1].logprob
            active = [h for h in active if h.logprob > bound + 1e-12]
    return finished


class _ReferenceSampler:
    """The per-token residual loop over a flat {prefix: mass} trie;
    SamplerState.draw must match it exactly, residual mass included."""

    def __init__(self, scorer, temperature, seed):
        self.scorer, self.temperature = scorer, temperature
        self.rng = np.random.default_rng(seed)
        self.sampled = {}

    @property
    def residual_mass(self):
        return 1.0 - self.sampled.get((), 0.0)

    def draw(self):
        if self.residual_mass <= 1e-9:
            return None
        eos_id, tokens = self.scorer.vocab.eos_id, self.scorer.vocab.tokens
        prefix, path_prob, logprob = (), 1.0, 0.0
        while True:
            dist = apply_temperature(self.scorer.next_distribution(prefix), self.temperature)
            if len(prefix) >= self.scorer.max_length:
                emitted = path_prob - self.sampled.get(prefix, 0.0)
                logprob += math.log(dist[eos_id]) if dist[eos_id] > 0 else -math.inf
                self._credit(prefix, emitted)
                return Hypothesis(prefix, logprob, True)
            weights = np.empty(len(dist))
            for tid in range(len(dist)):
                key = prefix + (tokens[tid],)
                weights[tid] = max(dist[tid] * path_prob - self.sampled.get(key, 0.0), 0.0)
            total = weights.sum()
            if total <= 0:
                return None
            tid = int(self.rng.choice(len(weights), p=weights / total))
            logprob += math.log(dist[tid]) if dist[tid] > 0 else -math.inf
            if tid == eos_id:
                self._credit(prefix, path_prob * dist[tid])
                return Hypothesis(prefix, logprob, True)
            path_prob *= dist[tid]
            prefix += (tokens[tid],)

    def _credit(self, sequence, mass):
        for key in [sequence[:i] for i in range(len(sequence) + 1)] + [sequence + (EOS,)]:
            self.sampled[key] = self.sampled.get(key, 0.0) + mass


class QuantizedScorer(RandomScorer):
    """Conditionals rounded down to quarters: exact ties, and zero-mass
    tokens inside the top few."""

    def next_distribution(self, prefix):
        dist = np.floor(super().next_distribution(prefix) * 4)
        if dist.sum() == 0:
            dist[self.vocab.eos_id] = 1.0
        return dist / dist.sum()


def _np_log_mismatch(after: float = 0.0) -> float:
    """A probability whose np.log differs from math.log in the last bit on
    this machine, also when added to `after`, or 0.2 where none does:
    beam_search must use math.log."""
    ps = np.random.default_rng(0).uniform(0.01, 0.3, 20000)
    mismatched = ps[after + np.log(ps) != after + np.array([math.log(p) for p in ps])]
    return float(mismatched[0]) if len(mismatched) else 0.2


class RootTieScorer(Scorer):
    """One step: "c" gets p, "b" and "a" tie on the rest. Their ids run
    against token order, so a beam cut must break the tie by token."""

    def __init__(self, p: float):
        self.vocab = Vocabulary(["c", "b", "a", EOS])
        self.max_length = 2
        self.root = np.array([p, (1 - p) / 2, (1 - p) / 2, 0.0])

    def next_distribution(self, prefix):
        return self.root if not prefix else np.array([0.0, 0.0, 0.0, 1.0])


class TwinTieScorer(Scorer):
    """Two steps: "b" and "a" halve the root's mass, and after either one
    the row is RootTieScorer's. A beam that keeps both decodes a step over
    two states, picking more entries than one row holds."""

    def __init__(self, p: float):
        self.vocab = Vocabulary(["c", "b", "a", EOS])
        self.max_length = 3
        self.tie = RootTieScorer(p).root

    def next_distribution(self, prefix):
        if not prefix:
            return np.array([0.0, 0.5, 0.5, 0.0])
        return self.tie if len(prefix) == 1 else np.array([0.0, 0.0, 0.0, 1.0])


EQUIVALENCE_SCORERS = [
    RootTieScorer(_np_log_mismatch()),
    TableScorer({("a", "b"): 1, ("a", "c"): 1, ("b",): 1, ("c",): 1}),
    TableScorer({("c", "a"): 2, ("a", "c"): 1, ("b", "b"): 1, ("b",): 1}),
    RandomScorer(5, vocab_tokens=("c", "a", "b")),  # ids not in token order
    RandomScorer(6, vocab_tokens=("z", "y", "x", "w"), max_length=2),
    QuantizedScorer(7, vocab_tokens=("b", "c", "a")),
    QuantizedScorer(8, vocab_tokens=("d", "a", "c", "b"), max_length=2),
    # repeated contexts share one tempered row, unseen ones (such as "c c")
    # share the smoothed uniform row
    NgramScorer([["a", "b", "a", "b"], ["b", "a"], ["a", "a", "c"]], order=3,
                alpha=0.3, max_length=3),
]


def _fields(hyps):
    return [(h.tokens, h.logprob, h.finished) for h in hyps]


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_beam_search_equals_reference_loop(temperature):
    for scorer in EQUIVALENCE_SCORERS:
        vocab_size = len(scorer.vocab)
        short = copy.copy(scorer)
        short.max_length = 1  # forces EOS after one token
        for beam_size, width in [(1, 1), (1, 3), (2, 2), (4, 3), (10, vocab_size),
                                 (50, vocab_size + 2)]:
            for bounded in (scorer, short):
                got = beam_search(bounded, beam_size, width, temperature)
                want = _reference_beam_search(bounded, beam_size, width, temperature)
                assert _fields(got) == _fields(want), (bounded, beam_size, width)


NGRAM_CORPUS = [["a", "b", "a", "b"], ["b", "a"], ["a", "a", "c"], ["c", "b"]]


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_state_indexed_beam_equals_reference_loop_on_ngram_orders(order, temperature):
    # packed states at every order; beams wide enough that many entries
    # share a state, and widths up to and past the vocabulary
    scorer = NgramScorer(NGRAM_CORPUS, order=order, alpha=0.3, max_length=4)
    vocab_size = len(scorer.vocab)
    for beam_size, width in [(1, 1), (3, 2), (10, vocab_size - 1), (40, vocab_size),
                             (300, vocab_size + 3)]:
        got = beam_search(scorer, beam_size, width, temperature)
        want = _reference_beam_search(scorer, beam_size, width, temperature)
        assert _fields(got) == _fields(want), (beam_size, width)


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_interned_state_beam_equals_reference_loop_on_replay(tmp_path, temperature):
    source = QuantizedScorer(9, vocab_tokens=("b", "c", "a"), max_length=3)
    prefixes = [p for n in range(3) for p in itertools.product(("b", "c", "a"), repeat=n)]
    path = tmp_path / "replay.jsonl"
    ReplayScorer.write(path, source.vocab, 3, [(p, source.next_distribution(p)) for p in prefixes])
    scorer = ReplayScorer(path)
    for beam_size, width in [(1, 1), (4, 2), (30, 4), (100, 6)]:
        got = beam_search(scorer, beam_size, width, temperature)
        want = _reference_beam_search(scorer, beam_size, width, temperature)
        assert _fields(got) == _fields(want), (beam_size, width)


def test_a_wide_step_takes_math_log_of_its_picks():
    # the second step reads the rows of the states of "b" and "a", each
    # holding the probability whose np.log is not math.log's; the beams are
    # wide enough that its hypotheses finish
    p = _np_log_mismatch(after=math.log(0.5))
    scorer = TwinTieScorer(p)
    vocab_size = len(scorer.vocab)
    for beam_size, width in [(6, 3), (12, vocab_size)]:
        assert 2 * width > vocab_size  # the two rows' picks
        got = beam_search(scorer, beam_size, width)
        want = _reference_beam_search(scorer, beam_size, width)
        assert _fields(got) == _fields(want), (beam_size, width)
        assert {h.logprob for h in got if "c" in h.tokens} == {math.log(0.5) + math.log(p)}


class DecoderCache:
    """A decoder seen only through the names beam decoding reads: each state
    is the handle of a cached prefix of `source`, as a neural decoder's would
    be of its cache entry. Not a Scorer."""

    def __init__(self, source: Scorer):
        self.vocab, self.max_length, self._source = source.vocab, source.max_length, source

    def start(self):
        self._prefixes = [()]
        return 0

    def advance(self, states, token_ids):
        first = len(self._prefixes)
        self._prefixes += [self._prefixes[s] + (self.vocab.tokens[t],)
                           for s, t in zip(states.tolist(), token_ids.tolist())]
        return np.arange(first, len(self._prefixes))

    def rows(self, states, temperature):
        return np.stack([apply_temperature(self._source.next_distribution(self._prefixes[s]),
                                           temperature) for s in states.tolist()])


@pytest.mark.parametrize("temperature", [0.5, 1.0])
def test_beam_search_decodes_a_duck_typed_decoder(temperature):
    for source in EQUIVALENCE_SCORERS + [TwinTieScorer(_np_log_mismatch(after=math.log(0.5)))]:
        decoder = DecoderCache(source)
        assert not isinstance(decoder, Scorer)
        for beam_size, width in [(1, 1), (3, 2), (10, len(source.vocab))]:
            got = beam_search(decoder, beam_size, width, temperature)
            want = _reference_beam_search(source, beam_size, width, temperature)
            assert _fields(got) == _fields(want), (source, beam_size, width)


class RowLogDecoder:
    """`source` seen only through the five names beam decoding reads, so
    without `picks`. Records the states of each `rows` call."""

    def __init__(self, source):
        self.vocab, self.max_length = source.vocab, source.max_length
        self.start, self.advance, self._source = source.start, source.advance, source
        self.asked = []

    def rows(self, states, temperature):
        self.asked.append(states.tolist())
        return self._source.rows(states, temperature)


@pytest.mark.parametrize("temperature", [0.5, 1.0])
@pytest.mark.parametrize("order", [2, 3])
def test_a_search_without_picks_reads_each_decoder_states_row_once(order, temperature):
    # a step reads each of its states' rows once. An n-gram's packed
    # contexts repeat across a wide beam's entries and steps, so a later step
    # may read one again; DecoderCache's interned prefixes, like a neural
    # decoder's cache handles, never repeat, so none is read twice in a search
    ngram = NgramScorer(NGRAM_CORPUS, order=order, alpha=0.3, max_length=4)
    for source in (ngram, DecoderCache(ngram)):
        decoder = RowLogDecoder(source)
        for beam_size, width in [(1, 1), (40, len(decoder.vocab))]:
            decoder.asked = []
            got = beam_search(decoder, beam_size, width, temperature)
            assert decoder.asked, (source, beam_size, width)
            assert all(len(step) == len(set(step)) for step in decoder.asked)
            if source is not ngram:
                read = [state for step in decoder.asked for state in step]
                assert len(read) == len(set(read)), (beam_size, width)
            want = _reference_beam_search(ngram, beam_size, width, temperature)
            assert _fields(got) == _fields(want), (source, beam_size, width)


class PickLogScorer(NgramScorer):
    """An n-gram scorer that records the table `picks` returns for each
    (width, temperature) and refuses `rows`."""

    def picks(self, width, temperature):
        table = super().picks(width, temperature)
        self.tables.setdefault((width, temperature), set()).add(id(table))
        return table

    def rows(self, states, temperature):
        raise AssertionError("beam search read rows")


@pytest.mark.parametrize("temperature", [0.5, 1.0])
def test_cab_and_greedy_on_an_ngram_scorer_share_one_pick_table_per_width(temperature):
    # six tokens, so t5's last width of 5 is not cut to the vocabulary
    corpus = NGRAM_CORPUS + [["d", "e", "a"], ["e", "d", "c", "b"]]
    scorer = PickLogScorer(corpus, order=3, alpha=0.3, max_length=4)
    scorer.tables = {}
    schedule = SCHEDULE_PRESETS["t5"]
    got = cab_search(scorer, schedule, lambda hyps: None, temperature)[1]
    got.append(greedy_decode(scorer, temperature))
    # t5's widths are 2, 2, 2 and 5, and greedy's is 1
    assert scorer.tables.keys() == {(2, temperature), (5, temperature), (1, temperature)}
    assert all(len(ids) == 1 for ids in scorer.tables.values())
    decoder = DecoderCache(NgramScorer(corpus, order=3, alpha=0.3, max_length=4))
    want = cab_search(decoder, schedule, lambda hyps: None, temperature)[1]
    want.append(greedy_decode(decoder, temperature))
    assert len(got) > 10 and _fields(got) == _fields(want)


def test_a_scorer_that_served_a_beam_search_is_freed_without_the_cycle_collector():
    # the pick tables a scorer keeps refer to no object that refers back to it
    scorer = NgramScorer(NGRAM_CORPUS, order=3, alpha=0.3, max_length=4)
    assert beam_search(scorer, 10, 3, 0.5) and greedy_decode(scorer, 1.0)
    ref = weakref.ref(scorer)
    gc.disable()
    try:
        del scorer
        assert ref() is None
    finally:
        gc.enable()


def test_equivalence_scorers_have_ties_and_zero_mass_in_the_top():
    # the cases the vectorized step must get right are really exercised
    dists = [apply_temperature(sc.next_distribution(()), 1.0) for sc in EQUIVALENCE_SCORERS]
    assert any(len(set(d[d > 0])) < np.count_nonzero(d) for d in dists)
    assert any(0 < np.count_nonzero(d) < len(d) for d in dists)


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_sampler_draws_equal_reference_loop(temperature):
    for scorer in EQUIVALENCE_SCORERS:
        for seed in range(4):
            state = SamplerState(scorer, temperature=temperature, seed=seed)
            reference = _ReferenceSampler(scorer, temperature, seed)
            for _ in range(200):
                got, want = state.draw(), reference.draw()
                assert state.residual_mass == reference.residual_mass
                if want is None:
                    assert got is None
                    break
                assert (got.tokens, got.logprob) == (want.tokens, want.logprob)
            else:
                pytest.fail("the sampler never ran out of mass")


def _reference_truncate(dist, kind, param, eos_id):
    """Per-token top-k / top-p cut: ids by descending probability, ties to
    the lower id, kept while fewer than k or while the mass before them is
    below p; renormalized, or all of it on EOS when nothing is left."""
    ranked = sorted(range(len(dist)), key=lambda i: (-dist[i], i))
    kept = np.zeros(len(dist))
    cum = 0.0
    for n, tid in enumerate(ranked):
        full = n == param if kind == "topk" else cum >= param - 1e-12
        if full:
            break
        kept[tid] = dist[tid]
        cum += dist[tid]
    total = kept.sum()
    if total > 0:
        return kept / total
    kept[eos_id] = 1.0
    return kept


def _reference_sample(scorer, kind, param, num_samples, temperature, seed):
    """The per-token sampling loop with rng.choice; topk_sample and
    topp_sample must match it exactly: same tokens, same log-prob bits."""
    rng = np.random.default_rng(seed)
    eos_id = scorer.vocab.eos_id
    samples = []
    for _ in range(num_samples):
        prefix, logprob = (), 0.0
        while True:
            dist = apply_temperature(scorer.next_distribution(prefix), temperature)
            if len(prefix) >= scorer.max_length:
                logprob += math.log(dist[eos_id]) if dist[eos_id] > 0 else -math.inf
                break
            kept = _reference_truncate(dist, kind, param, eos_id)
            tid = int(rng.choice(len(kept), p=kept))
            logprob += math.log(dist[tid]) if dist[tid] > 0 else -math.inf
            if tid == eos_id:
                break
            prefix += (scorer.vocab.tokens[tid],)
        samples.append((prefix, logprob))
    return samples


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind, params", [("topk", [1, 2, 3, 10]),
                                          ("topp", [0.3, 0.6, 0.9, 1.0])])
def test_truncated_sampling_equals_reference_loop(kind, params, temperature):
    sample = topk_sample if kind == "topk" else topp_sample
    for scorer in EQUIVALENCE_SCORERS:
        for param in params:
            for seed in range(3):
                got = sample(scorer, param, 25, temperature, seed)
                want = _reference_sample(scorer, kind, param, 25, temperature, seed)
                assert [(h.tokens, h.logprob) for h in got] == want, (scorer, param, seed)


def test_choose_equals_generator_choice():
    make = np.random.default_rng(2024)
    for trial in range(3000):
        n = int(make.integers(1, 40))
        p = make.random(n)
        if trial % 4 == 1:  # zeros, leading and trailing ones among them
            p[make.random(n) < 0.5] = 0.0
        elif trial % 4 == 2:  # exact ties
            p = np.floor(p * 3)
        elif trial % 4 == 3:  # tiny masses beside large ones
            p[make.random(n) < 0.5] *= 1e-13
        if p.sum() == 0:
            p[make.integers(n)] = 1.0
        p /= p.sum()
        ours, numpy_ = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(4):
            assert _choose(ours, p) == int(numpy_.choice(n, p=p))
        assert ours.bit_generator.state == numpy_.bit_generator.state


@pytest.mark.parametrize("bad", [[0.5, -0.25, 0.75], [0.5, np.nan, 0.5], [np.nan]])
def test_choose_rejects_negative_and_nan_probabilities(bad):
    with pytest.raises(ValueError):
        _choose(np.random.default_rng(0), np.array(bad))


class _FixedDraw:
    """A generator whose every draw is `u`; it counts them."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


@st.composite
def _sampler_rows(draw):
    """Distributions with ties, zeros, masses of 1e-13 beside large ones,
    and one-hot rows."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        row = np.zeros(n)
        row[draw(st.integers(0, n - 1))] = 1.0
        return row
    entry = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 3.0]),
                      st.floats(1e-300, 1.0), st.floats(0.5, 1.0).map(lambda x: x * 1e-13))
    row = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if row.sum() == 0:
        row[-1] = 1.0
    return row / row.sum()


_PATH_PROBS = st.one_of(
    st.just(1.0), st.floats(1e-300, 1.0),
    st.sampled_from([_FILTER_FLOOR, float(np.nextafter(_FILTER_FLOOR, 0)), 1e-300, 1e-310,
                     5e-324]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_sampler_rows(), _PATH_PROBS, st.floats(0.0, 1.0, exclude_max=True))
def test_a_step_read_from_bin_edges_equals_the_exact_step_given_the_same_u(row, path_prob, u):
    # at a node that has emitted nothing: u on each edge, one ulp either
    # side of it, and anywhere; the same token and the same number of draws
    edges, ok = bin_edges(row)
    assert ok
    edges = edges.tolist()
    near = {float(v) for e in edges for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))}
    for v in sorted({u} | {v for v in near if 0.0 <= v < 1.0}):
        filtered, exact = _FixedDraw(v), _FixedDraw(v)
        got = _step(filtered, row, path_prob, {}, edges)
        want = _step(exact, row, path_prob, {}, None)
        assert (got, filtered.draws) == (want, exact.draws), v


def test_a_vocabulary_too_large_for_the_margin_takes_the_exact_path(monkeypatch):
    scorer = NgramScorer(NGRAM_CORPUS, order=3, alpha=0.3, max_length=4)
    exact = 0
    pick = search._pick

    def counted(p, u):
        nonlocal exact
        exact += 1
        return pick(p, u)

    monkeypatch.setattr(search, "_FILTER_MAX_VOCAB", len(scorer.vocab) - 1)
    monkeypatch.setattr(search, "_pick", counted)
    state = SamplerState(scorer, seed=0)
    draws = [state.draw() for _ in range(5)]
    # every step but a forced EOS draws u, and builds the weights
    assert exact == sum(min(len(h.tokens) + 1, scorer.max_length) for h in draws) > 5


class _EdgesScorer(Scorer):
    """One row at every prefix, with its bin edges offered to the sampler
    as NgramScorer offers them."""

    def __init__(self, row):
        self.vocab = Vocabulary(["a", "b", EOS])
        self.max_length = 2
        self.row = np.array(row)

    def next_distribution(self, prefix):
        return self.row

    def cumulative(self, prefix, temperature):
        edges, ok = bin_edges(self.tempered_distribution(prefix, temperature))
        return edges.tolist() if ok else None


@pytest.mark.parametrize("bad", [[0.5, np.nan, 0.5], [0.75, -0.25, 0.5]])
def test_a_row_that_is_not_a_distribution_has_no_bin_edges_and_fails_the_draw(bad):
    assert not bin_edges(np.array(bad))[1]
    with pytest.raises(ValueError):
        SamplerState(_EdgesScorer(bad)).draw()
