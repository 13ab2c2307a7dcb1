import logging
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mienasr.evaluate import (ScoreReport, aggregate, error_rate,
                              make_cv_plan, pool)

from oracles import ref_error_rate


class TestErrorRate:
    def test_identical(self):
        r = error_rate(["a", "b"], ["a", "b"])
        assert (r.substitutions, r.deletions, r.insertions) == (0, 0, 0)
        assert r.rate == 0.0

    def test_deletion(self):
        r = error_rate(["a", "b", "c"], ["a", "c"])
        assert (r.substitutions, r.deletions, r.insertions) == (0, 1, 0)
        assert r.rate == pytest.approx(1 / 3)

    def test_substitution_plus_insertion(self):
        r = error_rate(["a"], ["b", "c"])
        assert (r.substitutions, r.deletions, r.insertions) == (1, 0, 1)
        assert r.rate == pytest.approx(2.0)

    def test_empty_reference_flagged(self, caplog):
        with caplog.at_level(logging.WARNING):
            r = error_rate([], ["x", "y"])
        assert r.rate == 2.0
        assert any("empty reference" in rec.message for rec in caplog.records)

    def test_distance_symmetry(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            a = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            b = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            assert error_rate(a, b).errors == error_rate(b, a).errors


@st.composite
def token_pair(draw):
    # one- and two-symbol alphabets force ties between the three moves
    alphabet = draw(st.sampled_from(["a", "ab", "abc", "abcd"]))
    seq = st.lists(st.sampled_from(alphabet), max_size=40)
    return draw(seq), draw(seq)


def seeded_pair(seed, n, m, symbols):
    rng = random.Random(seed)
    return ([rng.choice(symbols) for _ in range(n)],
            [rng.choice(symbols) for _ in range(m)])


class TestMatchesReference:
    @settings(max_examples=2000)
    @given(token_pair())
    def test_same_report(self, pair):
        ref, hyp = pair
        assert error_rate(ref, hyp) == ref_error_rate(ref, hyp)

    # lengths past 64 cross machine-word boundaries of the bit vectors
    @pytest.mark.parametrize("n,m", [(65, 65), (64, 65), (65, 3), (1, 65), (128, 128),
                                     (128, 127), (200, 200), (200, 150), (150, 200)])
    @pytest.mark.parametrize("symbols", ["ab", "abcd", "abcdefgh"])
    def test_long_pairs(self, n, m, symbols):
        for seed in range(3):
            ref, hyp = seeded_pair(seed, n, m, symbols)
            assert error_rate(ref, hyp) == ref_error_rate(ref, hyp)
            rng = random.Random(seed)
            near = [t if rng.random() < 0.8 else "x" for t in ref]
            assert error_rate(ref, near) == ref_error_rate(ref, near)


def test_long_pair_memory_is_linear():
    # an (n+1) x (m+1) table of Python ints peaks near 356 MB on this pair
    ref, hyp = seeded_pair(13, 3000, 3000, "abcdefgh")
    tracemalloc.start()
    try:
        report = error_rate(ref, hyp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert report == ScoreReport(1553, 266, 266, 3000)   # the table's report


class TestAggregate:
    def test_zeros(self):
        assert aggregate([0.0, 0.0, 0.0]) == 0.0

    def test_singleton(self):
        assert aggregate([3.30]) == pytest.approx(3.30)

    def test_mean(self):
        assert aggregate([2, 4, 6]) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestPool:
    def test_counts_sum(self):
        pooled = pool([ScoreReport(1, 2, 0, 10), ScoreReport(0, 1, 3, 5)])
        assert pooled == ScoreReport(1, 3, 3, 15)
        assert pooled.rate == pytest.approx(7 / 15)


class TestCvPlan:
    def test_ten_ids_forced_sizes(self):
        plan = make_cv_plan([f"u{i}" for i in range(10)], seed=5)
        assert all(len(f) == 1 for f in plan.folds)
        assert plan.runs[0][0] == 0 and plan.runs[0][1] == 1
        assert plan.dev_ids(0) == plan.folds[0]
        assert plan.test_ids(0) == plan.folds[1]

    def test_train_ids_are_the_other_folds_in_order(self):
        plan = make_cv_plan([f"u{i}" for i in range(23)], n_folds=7, n_runs=2, seed=3)
        assert plan.runs == ((0, 1), (2, 3))
        f = plan.folds
        assert plan.train_ids(0) == f[2] + f[3] + f[4] + f[5] + f[6]
        assert plan.train_ids(1) == f[0] + f[1] + f[4] + f[5] + f[6]

    def test_corpus_scale_ratios(self):
        ids = [f"utt{i:05d}" for i in range(9761)]
        plan = make_cv_plan(ids, n_folds=10, n_runs=3, seed=1)
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 9761
        for r in range(3):
            assert len(plan.train_ids(r)) + len(plan.dev_ids(r)) + len(plan.test_ids(r)) == 9761
            # 8:1:1 within one utterance per fold
            assert abs(len(plan.train_ids(r)) - 9761 * 0.8) <= 8
            assert abs(len(plan.dev_ids(r)) - 976.1) <= 1
            assert abs(len(plan.test_ids(r)) - 976.1) <= 1

    def test_partition(self):
        ids = [f"u{i}" for i in range(47)]
        plan = make_cv_plan(ids, seed=9)
        seen = [u for f in plan.folds for u in f]
        assert sorted(seen) == sorted(ids)
        assert len(set(seen)) == len(ids)

    def test_dev_test_folds_pairwise_distinct(self):
        plan = make_cv_plan([f"u{i}" for i in range(30)], seed=2)
        used = [k for r in range(3) for k in plan.runs[r][:2]]
        assert len(set(used)) == 6

    def test_deterministic_under_seed(self):
        ids = [f"u{i}" for i in range(25)]
        assert make_cv_plan(ids, seed=7) == make_cv_plan(ids, seed=7)
        assert make_cv_plan(ids, seed=7) != make_cv_plan(ids, seed=8)

    def test_too_few_utterances(self):
        with pytest.raises(ValueError):
            make_cv_plan(["a", "b"], n_folds=10)

    def test_too_many_runs(self):
        with pytest.raises(ValueError):
            make_cv_plan([f"u{i}" for i in range(10)], n_folds=4, n_runs=3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_cv_plan(["a"] * 12, n_folds=10)
