import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from guidedsql.scorer import (
    EOS,
    EmptyCorpus,
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


def test_tokenize_sql():
    assert tokenize_sql("SELECT name FROM t WHERE x >= 5") == [
        "select", "name", "from", "t", "where", "x", ">=", "5",
    ]
    assert tokenize_sql("a.b = 'It''s'") == ["a.b", "=", "'it''s'"]
    assert tokenize_sql("x <> 1.5") == ["x", "<>", "1.5"]


def test_detokenize_drops_markers():
    assert detokenize_sql(("select", "a", EOS)) == "select a"


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
