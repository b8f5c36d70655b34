import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURE_QUERIES
from guidedsql import scorer as scorer_module
from guidedsql.scorer import (
    EOS,
    EmptyCorpus,
    Hypothesis,
    NgramScorer,
    ReplayScorer,
    TableScorer,
    UnknownToken,
    Vocabulary,
    apply_temperature,
    detokenize_sql,
    sequence_logprob,
    tokenize_sql,
)
from guidedsql.search import SamplerState, beam_search, greedy_decode


def test_tokenize_sql():
    assert tokenize_sql("SELECT name FROM t WHERE x >= 5") == [
        "select", "name", "from", "t", "where", "x", ">=", "5",
    ]
    assert tokenize_sql("a.b = 'It''s'") == ["a.b", "=", "'it''s'"]
    assert tokenize_sql("x <> 1.5") == ["x", "<>", "1.5"]


# The scorer's own pattern before it became a view over parser.lex, kept as
# the reference the view must reproduce.
_REFERENCE_SQL_TOKEN_RE = re.compile(
    r"'(?:[^']|'')*'|\d+\.\d+|\d+|!=|<=|>=|<>|[A-Za-z_][A-Za-z_0-9.]*|\S")


def _reference_tokenize_sql(text):
    return [t.lower() for t in _REFERENCE_SQL_TOKEN_RE.findall(text)]


SQLISH_PIECES = ["select", "SELECT", "t1", "name", "_x", "order", "BY", "a", "5", "42",
                 "1.5", ".", "'", "''", "'It''s'", "(", ")", ",", "*", ";", "-", "=",
                 "<", ">", "<>", "!=", "<=", ">=", "é", "K"]
# each piece followed by no space, a space, a newline or a tab
sqlish = st.lists(
    st.tuples(st.sampled_from(SQLISH_PIECES), st.sampled_from(["", " ", "\n", "\t"])),
    max_size=16,
).map(lambda pairs: "".join(piece + space for piece, space in pairs))


@given(sqlish)
def test_tokenize_sql_matches_reference_pattern(text):
    # a '.' before a digit starts a number now: the one intended difference
    if re.search(r"\.\d", text) is None:
        assert tokenize_sql(text) == _reference_tokenize_sql(text)


def test_tokenize_sql_keeps_a_leading_dot_number_whole():
    assert tokenize_sql("x = .5") == ["x", "=", ".5"]
    assert _reference_tokenize_sql("x = .5") == ["x", "=", ".", "5"]
    assert tokenize_sql("t1.name = T2.x5.y") == ["t1.name", "=", "t2.x5.y"]


def test_detokenize_drops_markers():
    assert detokenize_sql(("select", "a", EOS)) == "select a"


def test_hypothesis_text_is_detokenized_once_per_token_sequence(monkeypatch):
    calls = []

    def counting(tokens):
        calls.append(tokens)
        return detokenize_sql(tokens)

    monkeypatch.setattr(scorer_module, "detokenize_sql", counting)
    scorer_module._text_of.cache_clear()
    hyp = Hypothesis(("select", "a", EOS), -1.5, finished=True)
    again = Hypothesis(("select", "a", EOS), -2.5, finished=True)  # a later stage's copy
    assert hyp.text == hyp.text == again.text == "select a"
    assert len(calls) == 1


def test_vocabulary_invariants():
    v = Vocabulary(["a", "b", EOS])
    assert v.id("b") == 1 and v.eos_id == 2 and len(v) == 3
    with pytest.raises(UnknownToken):
        v.id("zzz")
    with pytest.raises(ValueError):
        Vocabulary(["a", "a", EOS])
    with pytest.raises(ValueError):
        Vocabulary(["a", "b"])


def test_ngram_frozen_probabilities():
    # corpus: "a b" and "a c"; order 2, alpha 0.1.
    # vocab sorted + EOS: [a, b, c, </s>]
    # P(a | BOS) = (2 + 0.1) / (2 + 0.4)
    # P(b | a) = (1 + 0.1) / (2 + 0.4)
    # P(EOS | b) = (1 + 0.1) / (1 + 0.4)
    sc = NgramScorer([["a", "b"], ["a", "c"]], order=2, alpha=0.1)
    assert sc.vocab.tokens == ["a", "b", "c", EOS]
    start = sc.next_distribution(())
    assert start[0] == pytest.approx(2.1 / 2.4)
    after_a = sc.next_distribution(("a",))
    assert after_a[1] == pytest.approx(1.1 / 2.4)
    assert after_a[2] == pytest.approx(1.1 / 2.4)
    after_b = sc.next_distribution(("a", "b"))
    assert after_b[sc.vocab.eos_id] == pytest.approx(1.1 / 1.4)


def test_ngram_unseen_context_is_uniform():
    sc = NgramScorer([["a", "b"]], order=3, alpha=0.5)
    dist = sc.next_distribution(("b", "b"))
    assert np.allclose(dist, 1 / len(sc.vocab))


def test_ngram_rows_are_smoothed_counts_bit_for_bit():
    # order 3 over "a b", "a c", "b b a"; vocab [a, b, c, </s>]
    alpha = 0.1
    sc = NgramScorer([["a", "b"], ["a", "c"], ["b", "b", "a"]], order=3, alpha=alpha)
    for prefix, counts in [(("a",), [0.0, 1.0, 1.0, 0.0]),   # seen: b and c follow <s> a
                           (("c", "c"), [0.0, 0.0, 0.0, 0.0])]:  # unseen context
        smoothed = np.array(counts) + alpha
        expected = smoothed / smoothed.sum()
        dist = sc.next_distribution(prefix)
        assert dist.tobytes() == expected.tobytes()
        assert not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[0] = 1.0


def test_ngram_distributions_normalized(fixtures):
    corpus = [tokenize_sql(sql) for _, _, sql in fixtures]
    sc = NgramScorer(corpus, order=3, alpha=0.1)
    for prefix in ((), ("select",), ("select", "name"), ("from",)):
        dist = sc.next_distribution(prefix)
        assert dist.min() >= 0 and dist.sum() == pytest.approx(1.0)


def test_ngram_rejects_bad_args():
    with pytest.raises(EmptyCorpus):
        NgramScorer([])
    with pytest.raises(ValueError):
        NgramScorer([["a"]], order=0)
    with pytest.raises(ValueError):
        NgramScorer([["a"]], alpha=0)


def test_table_scorer_conditionals():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    start = sc.next_distribution(())
    assert start[sc.vocab.id("a")] == pytest.approx(0.9)
    assert start[sc.vocab.id("b")] == pytest.approx(0.1)
    after_a = sc.next_distribution(("a",))
    assert after_a[sc.vocab.id("b")] == pytest.approx(0.6 / 0.9)
    assert after_a[sc.vocab.id("c")] == pytest.approx(0.3 / 0.9)
    after_b = sc.next_distribution(("b",))
    assert after_b[sc.vocab.eos_id] == pytest.approx(1.0)


def test_table_scorer_normalizes_weights():
    sc = TableScorer({("a",): 6, ("b",): 4})
    assert sc.sequences() == {("a",): 0.6, ("b",): 0.4}


def test_sequence_logprob_matches_table():
    sc = TableScorer({("a", "b"): 0.6, ("a", "c"): 0.3, ("b",): 0.1})
    for seq, p in sc.sequences().items():
        assert sequence_logprob(sc, seq) == pytest.approx(math.log(p))


def test_replay_scorer_roundtrip(tmp_path):
    vocab = Vocabulary(["x", "y", EOS])
    records = [
        ((), np.array([0.5, 0.3, 0.2])),
        (("x",), np.array([0.0, 0.6, 0.4])),
    ]
    path = tmp_path / "replay.jsonl"
    ReplayScorer.write(path, vocab, 8, records)
    sc = ReplayScorer(path)
    assert sc.vocab.tokens == vocab.tokens and sc.max_length == 8
    assert np.allclose(sc.next_distribution(()), [0.5, 0.3, 0.2])
    assert np.allclose(sc.next_distribution(("x",)), [0.0, 0.6, 0.4])
    # unknown prefixes terminate deterministically
    assert sc.next_distribution(("y",))[sc.vocab.eos_id] == 1.0


@pytest.mark.parametrize("record, reason", [
    ({"prefix": [3], "probs": [0.5, 0.3, 0.2]}, "prefix id 3"),
    ({"prefix": [-1], "probs": [0.5, 0.3, 0.2]}, "prefix id -1"),
    ({"prefix": [], "probs": [0.5, 0.5]}, "2 entries for 3 tokens"),
    ({"prefix": [], "probs": [0.5, 0.5, 0.2, -0.2]}, "4 entries for 3 tokens"),
    ({"prefix": [], "probs": [1.2, -0.4, 0.2]}, "negative or non-finite"),
    ({"prefix": [], "probs": [0.5, float("nan"), 0.5]}, "negative or non-finite"),
    ({"prefix": [], "probs": [0.5, float("inf"), 0.5]}, "negative or non-finite"),
    ({"prefix": [], "probs": [0.6, 0.6, 0.6]}, "sums to"),
    ({"prefix": [], "probs": [0.5, 0.3, 0.1999]}, "sums to"),
])
def test_replay_scorer_rejects_malformed_record_at_load(tmp_path, record, reason):
    path = tmp_path / "replay.jsonl"
    good = {"prefix": [0], "probs": [0.0, 0.6, 0.4]}
    path.write_text("\n".join(json.dumps(line) for line in [
        {"vocab": ["x", "y", EOS], "max_length": 8}, good, record, good,
    ]) + "\n")
    with pytest.raises(ValueError, match=f"{path}:3: .*{re.escape(reason)}"):
        ReplayScorer(path)


@pytest.mark.parametrize("header", ['{"vocab": ["x", "y"], "max_length": 8}',
                                    '{"max_length": 8}', "not json"])
def test_replay_scorer_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "replay.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=f"{path}:1: bad header"):
        ReplayScorer(path)


def test_replay_scorer_accepts_rounding_within_tolerance(tmp_path):
    path = tmp_path / "replay.jsonl"
    ReplayScorer.write(path, Vocabulary(["x", "y", EOS]), 8,
                       [((), np.array([0.5, 0.3, 0.2 + 5e-7]))])
    assert ReplayScorer(path).next_distribution(())[2] == 0.2 + 5e-7


def _memo_scorer():
    # contexts (<s>, a), (a, b), (b, b) are seen; (c, c) and (b, c) are not
    return NgramScorer([["a", "b"], ["a", "c"], ["b", "b", "a"]], order=3, alpha=0.1)


MEMO_PREFIXES = [(), ("a",), ("a", "b"), ("b", "b"), ("c", "c"), ("b", "c"),
                 ("a", "c", "c"), ("a",)]


@pytest.mark.parametrize("temperature", [0.25, 0.5, 1.0, 2.0])
def test_tempered_distribution_is_apply_temperature_bit_for_bit(temperature):
    sc = _memo_scorer()
    for prefix in MEMO_PREFIXES:
        want = apply_temperature(sc.next_distribution(prefix), temperature)
        for _ in range(2):  # first call fills the memo, the second reads it
            got = sc.tempered_distribution(prefix, temperature)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
    if temperature == 1.0:
        assert sc.tempered_distribution(("a",), 1.0) is sc.next_distribution(("a",))


def test_tempered_distribution_has_one_entry_per_row_and_temperature():
    sc = _memo_scorer()
    for t in (0.5, 2.0):
        for p in MEMO_PREFIXES:
            for q in MEMO_PREFIXES:
                same_row = sc.next_distribution(p) is sc.next_distribution(q)
                same_entry = sc.tempered_distribution(p, t) is sc.tempered_distribution(q, t)
                assert same_entry == same_row, (t, p, q)
    # the two unseen contexts share the one unseen row, so one entry
    assert sc.tempered_distribution(("c", "c"), 0.5) is sc.tempered_distribution(("b", "c"), 0.5)
    assert sc.tempered_distribution((), 0.5) is not sc.tempered_distribution((), 2.0)


def test_tempered_distribution_asks_the_scorer_once_per_call():
    sc = _memo_scorer()
    asked = []
    rows = sc.next_distribution
    sc.next_distribution = lambda prefix: asked.append(prefix) or rows(prefix)
    for prefix in MEMO_PREFIXES:
        sc.tempered_distribution(prefix, 0.5)
        sc.tempered_distribution(prefix, 1.0)
    assert asked == [p for p in MEMO_PREFIXES for _ in range(2)]


def test_a_temperature_is_applied_once_per_scorer(monkeypatch):
    # samples, the greedy fallback after them and a beam all read the one
    # table that the first use of the temperature tempered whole
    sc = NgramScorer([tokenize_sql(sql) for _, sql in FIXTURE_QUERIES], order=3)
    tempered = []

    def counted(dist, temperature):
        tempered.append(temperature)
        return apply_temperature(dist, temperature)

    monkeypatch.setattr(scorer_module, "apply_temperature", counted)
    state = SamplerState(sc, temperature=0.5, seed=0)
    assert all(state.draw() is not None for _ in range(20))
    greedy_decode(sc, 0.5)
    assert beam_search(sc, 3, 3, 0.5)
    assert tempered.count(0.5) == 1


def test_tempered_distribution_rejects_non_positive_temperature():
    sc = _memo_scorer()
    sc.tempered_distribution((), 0.5)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            sc.tempered_distribution((), t)
    table = TableScorer({("a",): 0.6, ("b",): 0.4})
    with pytest.raises(ValueError):
        table.tempered_distribution((), 0.0)


def test_apply_temperature_frozen():
    dist = np.array([0.8, 0.2])
    sharp = apply_temperature(dist, 0.5)  # p^2 renormalized
    assert np.allclose(sharp, [16 / 17, 1 / 17])
    assert apply_temperature(dist, 1.0) is dist
    flat = apply_temperature(dist, 1e9)
    assert np.allclose(flat, [0.5, 0.5], atol=1e-6)
    with pytest.raises(ValueError):
        apply_temperature(dist, 0.0)


def test_apply_temperature_keeps_zeros():
    dist = np.array([0.7, 0.0, 0.3])
    out = apply_temperature(dist, 2.0)
    assert out[1] == 0.0 and out.sum() == pytest.approx(1.0)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.floats(0.2, 5.0))
def test_apply_temperature_is_distribution(weights, temperature):
    dist = np.array(weights) / sum(weights)
    out = apply_temperature(dist, temperature)
    assert out.min() >= 0
    assert out.sum() == pytest.approx(1.0)


# --- decoder states: packed contexts, rows by state ---

STATE_CORPUS = [["a", "b", "a", "b"], ["b", "a"], ["a", "a", "c"], ["c"]]


def _state_of(sc, prefix):
    state = np.array([sc.start()], dtype=np.int64)
    for token in prefix:
        state = sc.advance(state, np.array([sc.vocab.id(token)]))
    return state


def _unseen_row(size, alpha):
    row = np.zeros(size) + alpha
    return row / row.sum()


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rows_of_states_are_tempered_distributions_bit_for_bit(order, temperature):
    alpha = 0.3
    # every training context, and contexts never seen in training
    prefixes = sorted({tuple(seq[:i]) for seq in STATE_CORPUS for i in range(len(seq) + 1)}
                      | {("c", "c"), ("b", "c", "c"), ("c", "a", "c")})
    # one scorer fills its tables through states, the other through prefixes
    by_state = NgramScorer(STATE_CORPUS, order=order, alpha=alpha)
    by_prefix = NgramScorer(STATE_CORPUS, order=order, alpha=alpha)
    states = np.concatenate([_state_of(by_state, p) for p in prefixes])
    rows = by_state.rows(states, temperature)
    for prefix, row in zip(prefixes, rows):
        want = apply_temperature(by_prefix.next_distribution(prefix), temperature)
        assert row.tobytes() == want.tobytes(), prefix
        assert by_prefix.tempered_distribution(prefix, temperature).tobytes() == want.tobytes()
    # the all-BOS start packs the largest key of all, so a raw key past it
    # checks that a lookup past the last trained key misses into the unseen row
    past = by_state.rows(np.array([by_state.start() + 1]), temperature)[0]
    unseen = apply_temperature(_unseen_row(len(by_state.vocab), alpha), temperature)
    assert past.tobytes() == unseen.tobytes()


def test_advance_keeps_only_the_context():
    sc = NgramScorer(STATE_CORPUS, order=3)
    assert _state_of(sc, ("a", "b", "c")) == _state_of(sc, ("c", "b", "c"))
    assert _state_of(sc, ("b",)) != _state_of(sc, ("a", "b"))
    unigram = NgramScorer(STATE_CORPUS, order=1)
    assert _state_of(unigram, ("a", "b")) == _state_of(unigram, ()) == 0


def test_rows_are_a_fresh_array_the_caller_may_overwrite():
    sc = NgramScorer(STATE_CORPUS, order=2)
    state = _state_of(sc, ("a",))
    for temperature in (1.0, 0.5):
        rows = sc.rows(state, temperature)
        rows[:] = -1.0
        assert sc.rows(state, temperature)[0].tobytes() == \
            sc.tempered_distribution(("a",), temperature).tobytes()


# 121 tokens and EOS: V = 122, so a context packs in base 123
WIDE_CORPUS = [[f"t{i:03d}" for i in range(121)]]


def test_ngram_rejects_an_order_whose_context_overflows_int64():
    assert 123 ** 9 < 2 ** 63 < 123 ** 10
    NgramScorer(WIDE_CORPUS, order=10)
    with pytest.raises(ValueError, match="overflows int64"):
        NgramScorer(WIDE_CORPUS, order=11)


def test_advance_stays_in_int64_at_the_highest_order():
    sc = NgramScorer(WIDE_CORPUS, order=10)
    base, top = len(sc.vocab) + 1, sc.vocab.eos_id  # the largest token id
    state = np.array([sc.start()])
    for _ in range(12):
        state = sc.advance(state, np.array([top]))
    assert state.tolist() == [sum(top * base ** j for j in range(9))]
    # the trained context t112 .. t120 is found; the all-top one is unseen
    seen = _state_of(sc, WIDE_CORPUS[0])
    assert sc.rows(seen, 1.0)[0].tobytes() == sc.next_distribution(tuple(WIDE_CORPUS[0])).tobytes()
    assert sc.rows(state, 1.0)[0].tobytes() == _unseen_row(len(sc.vocab), 0.1).tobytes()
