import math
import re
import warnings
from itertools import groupby, product

import numpy as np
import pytest

from mienasr.ctc import (EmissionMatrix, collapse, ctc_loss, greedy_decode,
                         min_frames, normalize_rows, read_emissions,
                         write_emissions)


def random_logits(rng, T, V):
    return normalize_rows(rng.normal(size=(T, V)))


def brute_force_likelihood(logits, labels):
    total = 0.0
    T, V = logits.shape
    for path in product(range(V), repeat=T):
        if collapse(path) == list(labels):
            total += math.exp(sum(logits[t, k] for t, k in enumerate(path)))
    return total


class TestCollapse:
    def test_canonical_example(self):
        a = 1
        assert collapse([a, a, 0, a]) == [a, a]

    def test_all_blank(self):
        assert collapse([0, 0]) == []

    def test_property_matches_reference_one_liner(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            path = rng.integers(0, 4, size=rng.integers(0, 10)).tolist()
            ref = [k for k, _ in groupby(path) if k != 0]
            assert collapse(path) == ref


class TestCtcLoss:
    def test_single_frame(self):
        logits = normalize_rows(np.array([[0.2, 1.3, -0.4]]))
        assert ctc_loss(logits, [1]) == pytest.approx(-logits[0, 1])

    def test_two_frames_single_label(self):
        logits = normalize_rows(np.array([[0.1, 0.9, -0.2], [-0.5, 0.3, 0.8]]))
        p = (math.exp(logits[0, 1] + logits[1, 1])
             + math.exp(logits[0, 1] + logits[1, 0])
             + math.exp(logits[0, 0] + logits[1, 1]))
        assert ctc_loss(logits, [1]) == pytest.approx(-math.log(p))

    def test_empty_labels_all_blank_path(self):
        rng = np.random.default_rng(2)
        logits = random_logits(rng, 4, 3)
        assert ctc_loss(logits, []) == pytest.approx(-logits[:, 0].sum())

    def test_infeasible_label_length_is_inf(self):
        rng = np.random.default_rng(3)
        logits = random_logits(rng, 2, 3)
        assert ctc_loss(logits, [1, 1, 2]) == math.inf
        loss, grad = ctc_loss(logits, [1, 1, 1], with_grad=True)
        assert loss == math.inf
        assert np.all(grad == 0)

    def test_blank_in_labels_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            ctc_loss(random_logits(rng, 3, 3), [0, 1])

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T, V = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            labels = rng.integers(1, V, size=rng.integers(0, 4)).tolist()
            logits = random_logits(rng, T, V)
            bf = brute_force_likelihood(logits, labels)
            loss = ctc_loss(logits, labels)
            if bf == 0.0:
                assert loss == math.inf
            else:
                assert math.exp(-loss) == pytest.approx(bf, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        eps = 1e-4
        for _ in range(10):
            T, V = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            labels = rng.integers(1, V, size=rng.integers(1, 4)).tolist()
            if min_frames(labels) > T:
                continue
            logits = random_logits(rng, T, V)
            _, grad = ctc_loss(logits, labels, with_grad=True)
            for t in range(T):
                for k in range(V):
                    up, down = logits.copy(), logits.copy()
                    up[t, k] += eps
                    down[t, k] -= eps
                    fd = (ctc_loss(up, labels) - ctc_loss(down, labels)) / (2 * eps)
                    assert grad[t, k] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_negative_inf_cell_gets_zero_gradient(self):
        # frame 1 can only be blank: paths "1 0 0" and "0 0 1", mass 1/2
        logits = np.array([[math.log(.5), math.log(.5)], [0.0, -np.inf],
                           [math.log(.5), math.log(.5)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = ctc_loss(logits, [1], with_grad=True)
        assert loss == pytest.approx(math.log(2))
        assert loss == ctc_loss(logits, [1])
        assert np.isfinite(grad).all()
        assert grad[1, 1] == 0
        assert grad.sum(axis=1) == pytest.approx([-1.0, -1.0, -1.0])

    def test_labels_blocked_by_negative_inf_are_inf_with_zero_gradient(self):
        logits = np.array([[0.0, -np.inf], [0.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = ctc_loss(logits, [1], with_grad=True)
        assert loss == math.inf and ctc_loss(logits, [1]) == math.inf
        assert np.all(grad == 0)

    def test_depends_only_on_normalized_rows(self):
        # shifting one frame's scores before renormalization is a no-op
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(4, 3))
        shifted = raw.copy()
        shifted[2] += 5.0
        labels = [1, 2]
        assert ctc_loss(normalize_rows(raw), labels) == pytest.approx(
            ctc_loss(normalize_rows(shifted), labels))


class TestGreedyDecode:
    def peaked(self, ids, V):
        logits = np.full((len(ids), V), -8.0)
        for t, i in enumerate(ids):
            logits[t, i] = 0.0
        return normalize_rows(logits)

    def test_peaked_sequence(self):
        em = EmissionMatrix(logits=self.peaked([1, 0, 2], 3))
        assert greedy_decode(em) == [1, 2]

    def test_all_blank(self):
        em = EmissionMatrix(logits=self.peaked([0, 0], 3))
        assert greedy_decode(em) == []

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            logits = random_logits(rng, int(rng.integers(1, 8)), int(rng.integers(2, 5)))
            want = collapse(np.argmax(logits, axis=1).tolist())
            assert greedy_decode(EmissionMatrix(logits=logits)) == want


class TestEmissionMatrix:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            EmissionMatrix(logits=np.zeros((2, 3)))

    def test_rejects_nan_and_positive_inf(self):
        logits = np.log(np.full((2, 3), 1 / 3))
        for bad in (np.nan, np.inf):
            cells = logits.copy()
            cells[1, 2] = bad
            with pytest.raises(ValueError):
                EmissionMatrix(logits=cells)

    def test_accepts_negative_inf_cell(self):
        logits = np.log(np.full((2, 3), 1 / 3))
        logits[0] = [np.log(0.5), np.log(0.5), -np.inf]
        assert EmissionMatrix(logits=logits).logits[0, 2] == -np.inf

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            EmissionMatrix(logits=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            EmissionMatrix(logits=np.log(np.ones((2, 1))))


class TestEmissionFiles:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        logits = random_logits(rng, 7, 5)
        path = tmp_path / "x.em"
        write_emissions(path, logits)
        em = read_emissions(path)
        assert em.frames == 7 and em.vocab_size == 5
        assert np.allclose(em.logits, logits, atol=1e-5)
        with open(path, "rb") as f:
            assert f.read(8) == b"EMISMAT1"

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        logits = random_logits(rng, 3, 4)
        path = tmp_path / "x.txt"
        write_emissions(path, logits, binary=False)
        em = read_emissions(path)
        assert np.allclose(em.logits, logits, atol=1e-6)

    def test_truncated_binary_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "x.em"
        write_emissions(path, random_logits(rng, 4, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError):
            read_emissions(path)

    def test_truncated_binary_header_names_file(self, tmp_path):
        path = tmp_path / "x.em"
        path.write_bytes(b"EMISMAT1" + b"\x03\x00")
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated emission header")):
            read_emissions(path)

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "dead"])
    def test_nan_inf_or_dead_frame_names_file_without_warning(self, tmp_path, binary, bad):
        logits = np.log(np.full((2, 3), 1 / 3))
        if bad == "dead":
            logits[1] = -np.inf
        else:
            logits[1, 2] = bad
        path = tmp_path / "x.em"
        write_emissions(path, logits, binary=binary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{path}: a frame holds NaN")):
                read_emissions(path)

    @pytest.mark.parametrize("header", ["", "2", "2 x", "2 3 4"])
    def test_malformed_text_header_names_line(self, tmp_path, header):
        path = tmp_path / "x.txt"
        path.write_text(f"{header}\n0 0 0\n0 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected a 'T V' header")):
            read_emissions(path)

    @pytest.mark.parametrize("row", ["-1.1 -1.1", "-1.1 -1.1 -1.1 -1.1"])
    def test_short_or_long_text_row_names_line(self, tmp_path, row):
        path = tmp_path / "x.txt"
        path.write_text(f"2 3\n-1.1 -1.1 -1.1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 3 values")):
            read_emissions(path)

    def test_missing_text_rows_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("3 2\n0 0", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header says 3 rows, found 1")):
            read_emissions(path)

    def test_empty_shape_names_file(self, tmp_path):
        path = tmp_path / "x.txt"
        for text in ("0 3\n", "2 1\n0\n0\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}: emission matrix must")):
                read_emissions(path)

    def test_non_numeric_text_cell_names_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 2\n0 zero\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            read_emissions(path)

    def test_neither_binary_nor_utf8_names_file(self, tmp_path):
        path = tmp_path / "x.em"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ValueError, match=re.escape(f"{path}: neither")) as info:
            read_emissions(path)
        assert not isinstance(info.value, UnicodeDecodeError)
