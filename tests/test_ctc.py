import math
import re
import struct
import warnings
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mienasr import BLANK_ID, ctc
from mienasr.ctc import (NEG_INF, EmissionMatrix, collapse, ctc_loss, greedy_decode,
                         normalize_rows, read_emissions, write_emissions)

from oracles import brute_force_likelihood, stored_emissions


def random_logits(rng, T, V):
    return normalize_rows(rng.normal(size=(T, V)))


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
            if ctc_loss(np.zeros((T, V)), labels) == math.inf:   # no T-frame path emits them
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


class TestRawArrayBoundary:
    """A raw array skips EmissionMatrix, so ctc_loss checks its own input;
    finite cells of unnormalized rows and -inf cells stay accepted."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_nan_or_positive_inf_cell_rejected(self, bad, with_grad):
        logits = np.log(np.full((3, 3), 1 / 3))
        logits[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or \\+inf"):
                ctc_loss(logits, [1], with_grad=with_grad)

    @pytest.mark.parametrize("label", [1.5, 1.0, "1", None])
    def test_non_integer_label_rejected(self, label):
        logits = np.log(np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="integer"):
            ctc_loss(logits, [label])

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 3, 3), (3, 0)])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_shape_other_than_frames_by_tokens_rejected(self, shape, with_grad):
        with pytest.raises(ValueError, match=re.escape(f"T>=1 by V>=1, got {shape}")):
            ctc_loss(np.zeros(shape), [], with_grad=with_grad)

    def test_numpy_integer_labels_accepted(self):
        logits = np.log(np.full((3, 3), 1 / 3))
        assert ctc_loss(logits, np.array([1, 2])) == ctc_loss(logits, [1, 2])


# The forward recursion and ctc_loss as they were before the allocation-free
# rewrite, as the bit-for-bit reference: the code is verbatim, only names
# changed and the docstring and comments of ctc_loss dropped.

def _reference_extended(labels):
    ext = np.full(2 * len(labels) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _reference_forward(logits: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """alpha[t, s]: log mass of the paths through frames 0..t that end in
    state s of the extended label sequence ``ext``, emission at t included."""
    T, S = logits.shape[0], len(ext)
    alpha = np.full((T, S), NEG_INF)
    alpha[0, :2] = logits[0, ext[:2]]
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    for t in range(1, T):
        stay = alpha[t - 1]
        prev = np.full(S, NEG_INF)
        prev[1:] = alpha[t - 1, :-1]
        skip = np.full(S, NEG_INF)
        skip[2:] = alpha[t - 1, :-2]
        skip[~skip_ok] = NEG_INF
        alpha[t] = np.logaddexp(np.logaddexp(stay, prev), skip) + logits[t, ext]
    return alpha


def reference_ctc_loss(logits, labels, with_grad=False):
    if isinstance(logits, EmissionMatrix):
        logits = logits.logits
    logits = np.asarray(logits, dtype=np.float64)
    T, V = logits.shape
    labels = list(labels)
    if any(not (0 < l < V) for l in labels):
        raise ValueError("labels must lie in [1, V)")

    ext = _reference_extended(labels)
    alpha = _reference_forward(logits, ext)
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2] if len(ext) > 1 else NEG_INF)
    if not with_grad:
        return float(-log_p)
    if log_p == NEG_INF:
        return np.inf, np.zeros_like(logits)

    beta = _reference_forward(logits[::-1], ext[::-1])[::-1, ::-1]
    emit = logits[:, ext]
    occupancy = np.subtract(alpha + beta, emit, out=np.full_like(emit, NEG_INF),
                            where=emit > NEG_INF)
    grad = np.zeros_like(logits)
    for t in range(T):
        acc = np.full(V, NEG_INF)
        np.logaddexp.at(acc, ext, occupancy[t])
        grad[t] = -np.exp(acc - log_p)
    return float(-log_p), grad


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def loss_case(draw):
    """Unnormalized rows of finite cells, -inf cells and signed zeros, with
    label sequences that repeat and often need more frames than there are."""
    T, V = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    cells = st.one_of(st.floats(-30.0, 10.0), st.just(NEG_INF),
                      st.sampled_from([0.0, -0.0, -1.0]))
    logits = draw(arrays(np.float64, (T, V), elements=cells))
    labels = draw(st.lists(st.integers(1, V - 1), max_size=6))
    return logits, labels


class TestMatchesReference:
    """Loss and gradient equal the pre-rewrite code bit for bit."""

    @staticmethod
    def check(logits, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(ctc_loss(logits, labels), reference_ctc_loss(logits, labels))
            loss, grad = ctc_loss(logits, labels, with_grad=True)
            want_loss, want_grad = reference_ctc_loss(logits, labels, with_grad=True)
        assert_same_bits(loss, want_loss)
        assert_same_bits(grad, want_grad)

    @settings(max_examples=1500)
    @given(loss_case())
    def test_property(self, case):
        self.check(*case)

    def test_build_sized_case(self):
        rng = np.random.default_rng(12)
        T, V = 256, 40
        labels = rng.integers(1, V, size=100).tolist()
        logits = normalize_rows(3 * rng.normal(size=(T, V)))
        logits[rng.random((T, V)) < 0.05] = NEG_INF
        logits[:, 0] = np.maximum(logits[:, 0], -5.0)
        self.check(logits, labels)
        self.check(EmissionMatrix(logits=normalize_rows(logits)), labels)


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


@st.composite
def row_case(draw):
    """A T x V matrix with a finite cell in every row: Gaussian at several
    scales, with -inf cells, with rows of one finite cell, or float32-rounded."""
    T, V = draw(st.integers(1, 60)), draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = draw(st.sampled_from([0.01, 1.0, 30.0, 1e4])) * rng.normal(size=(T, V))
    kind = draw(st.sampled_from(["gaussian", "holes", "single", "float32"]))
    if kind == "holes":
        x[rng.random((T, V)) < draw(st.sampled_from([0.1, 0.5, 0.95]))] = -np.inf
        x[np.arange(T), rng.integers(0, V, size=T)] = rng.normal(size=T)
    elif kind == "single":   # some rows keep one finite cell
        lone = rng.random(T) < 0.5
        keep = rng.integers(0, V, size=T)
        x[lone] = -np.inf
        x[np.flatnonzero(lone), keep[lone]] = rng.normal(size=int(lone.sum()))
    elif kind == "float32":
        x = normalize_rows(x).astype(np.float32).astype(np.float64)
    return x


class TestRowReductionMatchesAxis1:
    """Reducing the transposed copy gives the bits of a plain axis-1 reduction."""

    @settings(max_examples=1000)
    @given(row_case())
    def test_normalize_rows_bit_for_bit(self, x):
        want = x - np.logaddexp.reduce(x, axis=1, keepdims=True)
        assert normalize_rows(x).tobytes() == want.tobytes()

    @settings(max_examples=500)
    @given(row_case(), st.sampled_from([0.0, 5e-6, 1e-5, 1.5e-5, 1e-3]))
    def test_emission_check_bit_for_bit(self, x, shift):
        x = normalize_rows(x)
        x[0] += shift
        lse = np.logaddexp.reduce(x, axis=1)
        assert ctc._row_logsumexp(x).tobytes() == lse.tobytes()
        try:
            EmissionMatrix(logits=x)
        except ValueError as e:
            assert "not normalized" in str(e)
            accepted = False
        else:
            accepted = True
        assert accepted == (not np.max(np.abs(lse)) > 1e-5)


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
        stored_emissions(path, logits, binary=False)   # only another writer makes text
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
        if binary:   # the file as another writer would make it: write_emissions refuses it
            path.write_bytes(b"EMISMAT1" + struct.pack("<II", 2, 3) + logits.astype("<f4").tobytes())
        else:
            path.write_text("2 3\n" + "".join(" ".join(map(str, row)) + "\n" for row in logits),
                            encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{path}: a frame holds NaN")):
                read_emissions(path)

    @staticmethod
    def frames_with(cell, whole_row):
        """Two uniform frames, with ``cell`` in the second frame's last column or across it."""
        logits = np.log(np.full((2, 3), 1 / 3))
        logits[1, 0 if whole_row else 2:] = cell
        return logits

    @staticmethod
    def refused_and_rejected(path, cells, binary, message):
        """``write_emissions`` refuses ``cells`` with ``message`` and writes
        nothing, and the reader rejects them, stored as they are in the
        ``binary`` or the text form, with the same message."""
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            write_emissions(path, cells)
        assert not path.exists()
        stored_emissions(path, cells, binary)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_emissions(path)

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("cell, whole_row", [(np.nan, False), (np.inf, False), (-np.inf, True)],
                             ids=["nan", "inf", "dead"])
    def test_writer_refuses_a_frame_its_reader_rejects(self, tmp_path, binary, cell, whole_row):
        self.refused_and_rejected(tmp_path / "x.em", self.frames_with(cell, whole_row), binary,
                                  "a frame holds NaN or +inf, or no finite cell")

    @pytest.mark.parametrize("binary", [True, False])
    def test_writer_refuses_rows_that_do_not_renormalize(self, tmp_path, binary):
        """[1e20, 1e20, 0] renormalizes to [0, 0, -1e20], whose log-sum is ln 2."""
        self.refused_and_rejected(tmp_path / "x.em", [[1e20, 1e20, 0.0]], binary,
                                  "emission rows are not normalized log-probabilities")

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("shape", [(0, 3), (2, 1), (2,), (), (1, 2, 3)])
    def test_writer_refuses_a_shape_its_reader_rejects(self, tmp_path, binary, shape):
        path, message = tmp_path / "x.em", f"emission matrix must be T>=1 by V>=2, got {shape}"
        if len(shape) == 2:
            self.refused_and_rejected(path, np.zeros(shape), binary, message)
        else:   # a header states two dimensions, so no file of either form holds this shape
            with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
                write_emissions(path, np.zeros(shape))
            assert not path.exists()

    @pytest.mark.parametrize("cell, whole_row", [(1e39, False), ([-4e38, -5e38, -1e39], True)],
                             ids=["inf-as-float32", "dead-as-float32"])
    def test_cell_past_float32_range_refused_binary_only(self, tmp_path, cell, whole_row):
        """Stored as float32, 1e39 is +inf and a row below -3.5e38 has no finite cell;
        text keeps float64's range, so the same frames read back."""
        logits = self.frames_with(cell, whole_row)
        text = tmp_path / "x.txt"
        stored_emissions(text, logits, binary=False)
        assert read_emissions(text).frames == 2
        path = tmp_path / "x.em"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning from the float32 cast
            with pytest.raises(ValueError, match=re.escape(f"{path}: a frame holds NaN")):
                write_emissions(path, logits)
        assert not path.exists()

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

    @pytest.mark.parametrize("tail, line", [("7 7\n", 3), ("7 7", 3), ("\n\n7 7\n", 5),
                                            ("0 0\n5 5\n", 3)])
    def test_extra_text_rows_name_line(self, tmp_path, tail, line):
        path = tmp_path / "x.txt"
        path.write_text("1 2\n0 0\n" + tail, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: header says 1 rows")):
            read_emissions(path)

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n", "\n  \n"])
    def test_blank_lines_after_text_rows_load(self, tmp_path, tail):
        path = tmp_path / "x.txt"
        path.write_text("2 2\n0 0\n0 0" + tail, encoding="utf-8")
        assert read_emissions(path).frames == 2

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

    def test_row_that_loses_precision_names_file(self, tmp_path):
        """[1e20, 1e20, 0] renormalizes to [0, 0, -1e20], whose log-sum is
        ln 2: only the normalization check after the renormalization rejects it."""
        path = tmp_path / "x.txt"
        path.write_text("1 3\n1e20 1e20 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: emission rows are not normalized log-probabilities")):
            read_emissions(path)

    def test_row_spanning_the_float_range_loads_without_warning(self, tmp_path):
        """Cells 2e308 apart: the lower one's probability underflows to 0, its log to -inf."""
        path = tmp_path / "x.txt"
        path.write_text("1 2\n1e308 -1e308\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_emissions(path).logits.tolist() == [[0.0, -math.inf]]

    def test_neither_binary_nor_utf8_names_file(self, tmp_path):
        path = tmp_path / "x.em"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ValueError, match=re.escape(f"{path}: neither")) as info:
            read_emissions(path)
        assert not isinstance(info.value, UnicodeDecodeError)


class TestBinaryPayloadSize:
    """The header's T x V must match the file size before any payload is read."""

    @pytest.mark.parametrize("T, V, payload", [(3, 3, 10), (1024, 1024, 36), (2, 3, 28)],
                             ids=["short-odd", "header-claims-4MB", "trailing-bytes"])
    def test_size_mismatch_names_file(self, tmp_path, T, V, payload):
        path = tmp_path / "x.em"
        path.write_bytes(b"EMISMAT1" + struct.pack("<II", T, V) + bytes(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header says {T} x {V} cells")):
            read_emissions(path)
