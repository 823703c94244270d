from unittest import mock

import numpy as np
import pytest
from helpers import random_dataset
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmltk import (
    ConfigError,
    DataError,
    Dataset,
    EnrichmentMatrix,
    NoiseConfig,
    ParseError,
    RangeError,
    SplitSpec,
    StateError,
    ValidationError,
    inject_noise,
    load,
    split,
)
from pmltk import data
from pmltk.data import save
from pmltk.enrichment import load_enrichment, save_enrichment
from pmltk.trainer import (
    FeatureTransform,
    Model,
    load_model,
    load_predictions,
    save_model,
    save_predictions,
)


def write(tmp_path, text, name="ds.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDatasetType:
    def test_rejects_empty_label_row(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [[1, 0], [0, 0]])

    def test_rejects_full_label_row(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [[1, 1], [0, 1]])

    def test_rejects_truth_not_covered(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((1, 2)), [[1, 0, 0]], [[1, 1, 0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [[1, 0]])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((1, 2)), [[2, 0, 0]])


class TestLoad:
    def test_sparse_example(self, tmp_path):
        p = write(tmp_path, "#1 10 6\n2,5 1:0.5 7:1.0\n")
        ds = load(p, "sparse-multilabel")
        assert ds.n == 1 and ds.d == 10 and ds.l == 6
        assert sorted(np.flatnonzero(ds.Y[0])) == [2, 5]
        assert ds.X[0, 1] == 0.5 and ds.X[0, 7] == 1.0
        assert ds.X[0].sum() == 1.5
        assert (ds.Ytruth == ds.Y).all()

    def test_dense_example(self, tmp_path):
        p = write(tmp_path, "#1 2 2\n0.1,0.2;1,0\n")
        ds = load(p, "dense-csv")
        assert ds.X[0].tolist() == [0.1, 0.2]
        assert ds.Y[0].tolist() == [1, 0]

    def test_two_block_sparse(self, tmp_path):
        p = write(tmp_path, "#1 3 4\n0,2|2 1:1.5\n")
        ds = load(p, "sparse-multilabel")
        assert ds.Y[0].tolist() == [1, 0, 1, 0]
        assert ds.Ytruth[0].tolist() == [0, 0, 1, 0]

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = write(tmp_path, "#2 3 4\n0 0:1.0\n1 nonsense\n")
        with pytest.raises(ParseError) as exc:
            load(p, "sparse-multilabel")
        assert exc.value.line == 3

    def test_label_out_of_range(self, tmp_path):
        p = write(tmp_path, "#1 3 4\n7 0:1.0\n")
        with pytest.raises(RangeError):
            load(p, "sparse-multilabel")

    def test_feature_out_of_range(self, tmp_path):
        p = write(tmp_path, "#1 3 4\n0 5:1.0\n")
        with pytest.raises(RangeError):
            load(p, "sparse-multilabel")

    def test_empty_label_set(self, tmp_path):
        p = write(tmp_path, "#1 3 4\n 0:1.0\n")
        with pytest.raises((ValidationError, ParseError)):
            load(p, "sparse-multilabel")

    def test_instance_count_mismatch(self, tmp_path):
        p = write(tmp_path, "#3 3 4\n0\n1\n")
        with pytest.raises(ParseError):
            load(p, "sparse-multilabel")

    def test_missing_header(self, tmp_path):
        p = write(tmp_path, "0 1:2.0\n")
        with pytest.raises(ParseError):
            load(p, "sparse-multilabel")

    def test_unknown_format(self, tmp_path):
        p = write(tmp_path, "#1 1 2\n0\n")
        with pytest.raises(ConfigError):
            load(p, "arff")

    @pytest.mark.parametrize("fmt, text, error", [
        ("sparse-multilabel", "#2 3 4\n\n0|0 0:1.0\n1 1:1.0\n", ParseError),
        ("sparse-multilabel", "#2 3 4\n\n0 0:1.0\n1|1 1:1.0\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1;0,1\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1;0,1;0,1\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0.5,1\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1;nan,1\n", ParseError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,0\n", ValidationError),
        ("sparse-multilabel", "#2 3 4\n\n0 0:1.0\n1 2-1.0\n", ParseError),
        ("sparse-multilabel", "#2 3 4\n\n0 0:1.0\n1 2:x\n", ParseError),
        ("sparse-multilabel", "#2 3 4\n\n0 0:1.0\n|1 1:1.0\n", ValidationError),
        ("sparse-multilabel", "#2 3 4\n\n0|0 0:1.0\n1| 1:1.0\n", ValidationError),
        ("dense-csv", "#2 2 2\n\n0.1,0.2;1,0\n0.3;0,1\n", ParseError),
    ], ids=[
        "sparse-mixed-truth", "sparse-mixed-no-truth", "dense-mixed-truth",
        "dense-mixed-no-truth", "dense-one-block", "dense-four-blocks",
        "dense-non-binary-label", "dense-non-binary-truth", "dense-empty-candidates",
        "sparse-pair-without-colon", "sparse-bad-feature-value", "sparse-empty-candidates",
        "sparse-empty-truth", "dense-too-few-features",
    ])
    def test_bad_row_names_file_line(self, tmp_path, fmt, text, error):
        # the bad row sits on line 4 of the file, after a blank line
        with pytest.raises(error) as exc:
            load(write(tmp_path, text), fmt)
        assert type(exc.value) is error
        assert str(exc.value).startswith("line 4: ")

    @pytest.mark.parametrize("reader", [load, data.load_truth], ids=["load", "load_truth"])
    @pytest.mark.parametrize("blank", ["", "\n"], ids=["no-blank", "blank"])
    @pytest.mark.parametrize("rows, Y, Ytruth, message", [
        ("0 0:1.0\n{blank}0,1,2 1:1.0\n", [[1, 0, 0], [1, 1, 1]], None,
         "instance carries all 3 labels; at most l-1 are allowed"),
        ("0|0 0:1.0\n{blank}1|0,1 1:1.0\n", [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]],
         "Ytruth must be covered by Y elementwise"),
    ], ids=["all-labels", "truth-not-covered"])
    def test_label_set_error_names_file_line(self, tmp_path, reader, blank, rows, Y, Ytruth,
                                             message):
        # the second instance breaks the rule: line 3 of the file, or 4 after a blank line
        p = write(tmp_path, "#2 3 3\n" + rows.format(blank=blank))
        with pytest.raises(ValidationError) as exc:
            reader(p, "sparse-multilabel")
        assert str(exc.value) == f"line {3 + len(blank)}: {message}"
        # a Dataset built in the library names the 0-based instance, or no row
        with pytest.raises(ValidationError) as exc:
            Dataset(np.zeros((2, 3)), Y, Ytruth)
        assert str(exc.value) == message.replace("instance", "instance 1")

    # no allocator grants these sizes, so the test touches no memory on any host
    @pytest.mark.parametrize("big", [10**17, 10**19])
    @pytest.mark.parametrize("fmt, dims, row", [
        ("sparse-multilabel", "1 {big} 2", "0 0:1.0"),
        ("dense-csv", "1 {big} 2", "0.1;1,0"),
        ("sparse-multilabel", "1 2 {big}", "0 0:1.0"),
        ("dense-csv", "1 2 {big}", "0.1,0.2;1,0"),
    ], ids=["sparse-d", "dense-d", "sparse-l", "dense-l"])
    def test_header_too_large_to_hold(self, tmp_path, big, fmt, dims, row):
        n, d, l = dims.format(big=big).split()
        p = write(tmp_path, f"#{n} {d} {l}\n{row}\n")
        # load_truth reads no features, so only a large l stops it
        for reader in [load] + ([data.load_truth] if l != "2" else []):
            with pytest.raises(ParseError) as exc:
                reader(p, fmt)
            assert str(exc.value) == f"line 1: cannot hold a dataset of n={n} d={d} l={l}"


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["sparse-multilabel", "dense-csv"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_save_load_bit_exact(self, tmp_path, fmt, seed):
        ds = random_dataset(n=17, d=6, l=5, seed=seed)
        noisy = inject_noise(ds, NoiseConfig(a=100, seed=seed))
        p = tmp_path / "ds.txt"
        save(noisy, p, fmt)
        back = load(p, fmt)
        assert (back.X == noisy.X).all()
        assert (back.Y == noisy.Y).all()
        assert (back.Ytruth == noisy.Ytruth).all()

    def test_sparse_preserves_awkward_floats(self, tmp_path):
        X = np.array([[0.1 + 0.2, -0.0, 1e-17], [1 / 3, 2.5e300, -7.1]])
        ds = Dataset(X, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        p = tmp_path / "ds.txt"
        save(ds, p, "sparse-multilabel")
        back = load(p, "sparse-multilabel")
        # bit-exact: compare raw memory, not values (covers -0.0)
        assert back.X.tobytes() == ds.X.tobytes()


class TestInjectNoise:
    def test_counts_from_rounding_rule(self):
        # 2 ground-truth labels at a=150 round half up to 3 extra candidates
        T = np.zeros((1, 30), dtype=np.int8)
        T[0, [3, 9]] = 1
        ds = Dataset(np.zeros((1, 2)), T, T)
        noisy = inject_noise(ds, NoiseConfig(a=150, seed=4))
        assert noisy.Y[0].sum() == 5
        assert (noisy.Ytruth == T).all()

    def test_zero_noise_is_identity(self):
        ds = random_dataset(seed=3)
        noisy = inject_noise(ds, NoiseConfig(a=0, seed=1))
        assert (noisy.Y == ds.Ytruth).all()

    def test_cap_at_l_minus_one(self):
        T = np.array([[1, 1, 1, 0]], dtype=np.int8)  # g = l-1
        ds = Dataset(np.zeros((1, 2)), T, T)
        noisy = inject_noise(ds, NoiseConfig(a=200, seed=0))
        assert (noisy.Y == T).all()

    def test_cap_partial(self):
        # g=2, l=4: m = min(round_half_up(2*2.0), 1) = 1
        T = np.array([[1, 1, 0, 0]], dtype=np.int8)
        ds = Dataset(np.zeros((1, 2)), T, T)
        noisy = inject_noise(ds, NoiseConfig(a=200, seed=0))
        assert noisy.Y[0].sum() == 3

    def test_deterministic(self):
        ds = random_dataset(n=40, l=7, seed=5)
        a = inject_noise(ds, NoiseConfig(a=150, seed=123))
        b = inject_noise(ds, NoiseConfig(a=150, seed=123))
        assert (a.Y == b.Y).all()
        c = inject_noise(ds, NoiseConfig(a=150, seed=124))
        assert (c.Y != a.Y).any()

    @pytest.mark.parametrize("a", [0, 50, 100, 150, 200, 400])
    def test_invariants(self, a):
        ds = random_dataset(n=50, l=8, seed=a)
        noisy = inject_noise(ds, NoiseConfig(a=a, seed=9))
        assert (noisy.Ytruth <= noisy.Y).all()
        sums = noisy.Y.sum(axis=1)
        assert (sums >= 1).all() and (sums <= noisy.l - 1).all()
        # per-instance count matches the rounding rule exactly
        g = ds.Ytruth.sum(axis=1)
        expected = np.minimum((g * a + 50) // 100, ds.l - 1 - g)
        assert (sums - g == expected).all()

    def test_requires_truth(self):
        ds = Dataset(np.zeros((1, 2)), [[1, 0]], None)
        with pytest.raises(StateError):
            inject_noise(ds, NoiseConfig(a=100, seed=0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            NoiseConfig(a=-1, seed=0)

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed; it fails as a setting
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            NoiseConfig(100, seed=-1)


class TestSplit:
    def test_even_split(self):
        ds = random_dataset(n=662, d=3, l=4, seed=0)
        train, test = split(ds, SplitSpec(0.5, seed=7))
        assert train.n == 331 and test.n == 331

    def test_ceiling_rule(self):
        ds = random_dataset(n=5, d=2, l=3, seed=0)
        train, test = split(ds, SplitSpec(0.5, seed=7))
        assert train.n == 3 and test.n == 2

    def test_determinism_and_partition(self):
        ds = random_dataset(n=23, seed=1)
        t1, s1 = split(ds, SplitSpec(0.4, seed=11))
        t2, s2 = split(ds, SplitSpec(0.4, seed=11))
        assert (t1.X == t2.X).all() and (s1.X == s2.X).all()
        assert not any(np.shares_memory(a, b) for a in (t1.X, t1.Y, t1.Ytruth)
                       for b in (ds.X, ds.Y, ds.Ytruth))
        # partition: every original row appears exactly once across both halves
        merged = np.vstack([t1.X, s1.X])
        assert merged.shape == ds.X.shape
        order = np.lexsort(ds.X.T)
        morder = np.lexsort(merged.T)
        assert (ds.X[order] == merged[morder]).all()

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0, seed=0)
        with pytest.raises(ConfigError):
            SplitSpec(0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            SplitSpec(0.5, seed=-1)

    def test_float_ceiling_robustness(self):
        # 10 * 0.3 is 3.0000000000000004 in floats; ceil must stay at 3
        ds = random_dataset(n=10, seed=2)
        train, test = split(ds, SplitSpec(0.3, seed=1))
        assert train.n == 3 and test.n == 7


# One file per reader: the header, a blank line, a good row, then a row whose
# second value is bad; that value sits on line 4 of the file.
BAD_VALUE_ON_LINE_4 = {
    "dataset": (lambda p: load(p, "dense-csv"), "#2 2 2\n\n0.1,0.2;1,0\n0.3,x;0,1\n"),
    "enrichment": (load_enrichment, "#2 2\n\n0.1,0.2\n0.3,x\n"),
    "model": (load_model, "#2 2 1.0 10.0\n\n0.1,0.2\n0.3,x\n"),
    "predictions": (load_predictions, "#2 2\n\n0.1,0.2;1,0\n0.3,x;0,1\n"),
}

# A header dimension that is negative, or not an integer, is a parse error on line 1.
NEGATIVE_DIMENSION = {
    "dataset": (lambda p: load(p, "dense-csv"), "#2 -2 2\n0.1,0.2;1,0\n0.3,0.4;0,1\n"),
    "enrichment": (load_enrichment, "#2 -2\n0.1,0.2\n0.3,0.4\n"),
    "model": (load_model, "#2 -1 1.0 10.0\n0.1,0.2\n0.3,0.4\n"),
    "predictions": (load_predictions, "#2 -2\n0.1,0.2;1,0\n0.3,0.4;0,1\n"),
    "dataset-not-an-integer": (load, "#2 x 4\n0 0:1.0\n1 1:1.0\n"),
}


class TestTextFiles:
    @pytest.mark.parametrize("kind", sorted(BAD_VALUE_ON_LINE_4))
    def test_error_names_file_line_after_blank(self, tmp_path, kind):
        reader, text = BAD_VALUE_ON_LINE_4[kind]
        with pytest.raises(ParseError) as exc:
            reader(write(tmp_path, text))
        assert exc.value.line == 4

    @pytest.mark.parametrize("kind", sorted(NEGATIVE_DIMENSION))
    def test_negative_dimension_is_parse_error(self, tmp_path, kind):
        reader, text = NEGATIVE_DIMENSION[kind]
        with pytest.raises(ParseError) as exc:
            reader(write(tmp_path, text))
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, error", [
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4\n", ParseError),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4;1\n", ParseError),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4;1,0,1\n", ParseError),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4;2,0\n", ValidationError),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,-1\n", ValidationError),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,0.4;1.5,0\n", ParseError),
    ], ids=["no-separator", "too-few-labels", "too-many-labels", "label-2", "label-minus-1",
            "label-1.5"])
    def test_bad_prediction_row_names_file_line(self, tmp_path, text, error):
        with pytest.raises(error) as exc:
            load_predictions(write(tmp_path, text))
        assert type(exc.value) is error
        assert str(exc.value).startswith("line 4: ")

    def test_unreadable_file_names_kind_and_path(self, tmp_path):
        p = tmp_path / "model.txt"
        with pytest.raises(DataError, match=f"cannot read model {p}"):
            load_model(p)
        p.write_bytes(b"#1 1 1.0 1.0\n\xff\n")
        with pytest.raises(DataError, match=f"cannot read model {p}"):
            load_model(p)


class TestWrittenBytes:
    """Literal expected text for every writer, so the formats cannot drift."""

    X = np.array([[0.1 + 0.2, -0.0, 0.0], [1 / 3, 2.5e300, 1e-17]])
    Y = [[1, 0, 0], [0, 1, 1]]
    T = [[1, 0, 0], [0, 1, 0]]

    @pytest.mark.parametrize("fmt, noisy, expected", [
        ("sparse-multilabel", True,
         b"#2 3 3\n0|0 0:0.30000000000000004 1:-0.0\n"
         b"1,2|1 0:0.3333333333333333 1:2.5e+300 2:1e-17\n"),
        ("sparse-multilabel", False,
         b"#2 3 3\n0 0:0.30000000000000004 1:-0.0\n"
         b"1,2 0:0.3333333333333333 1:2.5e+300 2:1e-17\n"),
        ("dense-csv", True,
         b"#2 3 3\n0.30000000000000004,-0.0,0.0;1,0,0;1,0,0\n"
         b"0.3333333333333333,2.5e+300,1e-17;0,1,1;0,1,0\n"),
        ("dense-csv", False,
         b"#2 3 3\n0.30000000000000004,-0.0,0.0;1,0,0\n"
         b"0.3333333333333333,2.5e+300,1e-17;0,1,1\n"),
    ])
    def test_dataset(self, tmp_path, fmt, noisy, expected):
        p = tmp_path / "ds.txt"
        save(Dataset(self.X, self.Y, self.T if noisy else None), p, fmt)
        assert p.read_bytes() == expected

    def test_enrichment(self, tmp_path):
        p = tmp_path / "yhat.csv"
        save_enrichment(EnrichmentMatrix([[0.5, -0.25], [1 / 3, -0.0]]), p)
        assert p.read_bytes() == b"#2 2\n0.5,-0.25\n0.3333333333333333,-0.0\n"

    def test_model(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(Model(np.array([[0.1, -2.5e-8], [1 / 3, 0.0]]), 1.0, 10), p)
        assert p.read_bytes() == b"#2 2 1.0 10.0\n0.1,-2.5e-08\n0.3333333333333333,0.0\n"

    def test_predictions(self, tmp_path):
        p = tmp_path / "preds.csv"
        labels = np.array([[1, 0], [0, 1]], dtype=np.int8)
        save_predictions([[0.75, 0.1 + 0.2], [-1e-5, 0.5]], labels, p)
        assert p.read_bytes() == b"#2 2\n0.75,0.30000000000000004;1,0\n-1e-05,0.5;0,1\n"


# Float texts as pmltk writes them (``repr`` of any float64: -0.0, subnormals,
# +-inf and nan included) and as people type them.
FLOAT_TEXT = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-10**6, 10**6).map(lambda i: f"{i / 10**4:.4f}"),
    st.sampled_from(["-0.0", "5e-324", "-2.5e-310", "inf", "-Infinity", "nan", "-nan", "1e400"]),
)

# One reader per float table, the matrix it returns and the file text for rows of
# ``w`` comma-separated values.
FLOAT_TABLES = {
    "dataset": (lambda p: load(p, "dense-csv").X,
                lambda rows, w: f"#{len(rows)} {w} 2\n" + "".join(r + ";1,0;1,0\n" for r in rows)),
    "enrichment": (lambda p: load_enrichment(p).Yhat,
                   lambda rows, w: f"#{len(rows)} {w}\n" + "".join(r + "\n" for r in rows)),
    "model": (lambda p: load_model(p).W,
              lambda rows, w: f"#{len(rows)} {w} 1.0 10.0\n" + "".join(r + "\n" for r in rows)),
    "predictions": (lambda p: load_predictions(p)[0],
                    lambda rows, w: f"#{len(rows)} {w}\n"
                    + "".join(r + ";" + ",".join("1" * w) + "\n" for r in rows)),
}


def row_loop_only():
    """Turn the C-level pass off, so every reader runs its row loop."""
    return mock.patch.object(data, "_loadtxt", lambda texts, shape: None)


def no_row_loop():
    """Make the row loop fail, so a read that passes took the C-level pass."""
    def refuse(*args):
        raise AssertionError("the row loop ran")
    return mock.patch.object(data, "parse_float_row", refuse)


class TestCLevelParse:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(FLOAT_TABLES)), st.integers(1, 4), st.integers(1, 5), st.data())
    def test_matches_row_loop_bit_for_bit(self, tmp_path, kind, n, w, draw):
        cells = draw.draw(st.lists(st.lists(FLOAT_TEXT, min_size=w, max_size=w),
                                   min_size=n, max_size=n))
        reader, text = FLOAT_TABLES[kind]
        p = write(tmp_path, text([",".join(row) for row in cells], w))
        with no_row_loop():
            fast = reader(p)
        with row_loop_only():
            slow = reader(p)
        assert fast.dtype == slow.dtype == np.float64
        assert fast.tobytes() == slow.tobytes()
        assert fast.tobytes() == np.array([[float(t) for t in row] for row in cells]).tobytes()

    @pytest.mark.parametrize("kind", sorted(FLOAT_TABLES))
    def test_values_only_float_accepts(self, tmp_path, kind):
        # digit separators and full-width digits go through the row loop
        reader, text = FLOAT_TABLES[kind]
        M = reader(write(tmp_path, text(["1_0, 1.5,\uff11", "-0.25,2_5.0_1,\uff12\uff10"], 3)))
        assert M.tolist() == [[10.0, 1.5, 1.0], [-0.25, 25.01, 20.0]]

    # a predictions file is always read by its row loop
    @pytest.mark.parametrize("kind", sorted(set(FLOAT_TABLES) - {"predictions"}))
    def test_clean_file_skips_row_loop(self, tmp_path, kind):
        reader, text = FLOAT_TABLES[kind]
        p = write(tmp_path, text(["0.1,-2.5e-08,-0.0", "1e+300,0.30000000000000004,5"], 3))
        with no_row_loop():
            M = reader(p)
        assert M.tolist() == [[0.1, -2.5e-08, -0.0], [1e300, 0.1 + 0.2, 5.0]]

    @pytest.mark.parametrize("fmt", ["dense-csv", "sparse-multilabel"])
    def test_noisy_round_trip_skips_row_loop(self, tmp_path, fmt):
        ds = inject_noise(random_dataset(n=30, d=7, l=5, seed=4), NoiseConfig(a=100, seed=4))
        p = tmp_path / "ds.txt"
        save(ds, p, fmt)
        with no_row_loop():
            back = load(p, fmt)
        assert back.X.tobytes() == ds.X.tobytes() and back.X.flags.c_contiguous
        assert (back.Y == ds.Y).all() and (back.Ytruth == ds.Ytruth).all()
        assert back.Y.dtype == back.Ytruth.dtype == np.int8

    @pytest.mark.parametrize("text, message", [
        # the first bad row wins, whatever is wrong with the rows after it
        ("#2 2 2\n\n0.1,x;1,0\n0.3,0.4;0,1;0,1\n",
         "line 3: bad feature value: could not convert string to float: 'x'"),
        ("#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1\n",
         "line 4: mixed rows: some carry a ground-truth block and some do not"),
        ("#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0.5,1\n",
         "line 4: candidate labels must be 0 or 1, got 0.5"),
        ("#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1;nan,1\n",
         "line 4: ground-truth labels must be 0 or 1, got nan"),
        ("#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,0\n", "line 4: empty candidate label set"),
        ("#2 2 2\n\n0.1,0.2;1,0\n0.3;0,1\n", "line 4: expected 2 feature values, got 1"),
        # as many values as a good row, in the wrong blocks
        ("#2 2 2\n\n0.1,0.2,1;0\n0.3,0.4;0,1\n", "line 3: expected 2 feature values, got 3"),
        ("#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4,0,1;0,1\n",
         "line 4: expected 2 feature values, got 4"),
        ("#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1;0,1;0,1\n",
         "line 4: expected 2 or 3 ';'-separated blocks, got 4"),
        ("#2 2 2\n\n0.1,0.2;1,1\n0.3,0.4;0,1\n",
         "line 3: instance carries all 2 labels; at most l-1 are allowed"),
        ("#2 2 2\n\n0.1,0.2;1,0;0,1\n0.3,0.4;0,1;0,1\n",
         "line 3: Ytruth must be covered by Y elementwise"),
    ])
    def test_dense_error_messages(self, tmp_path, text, message):
        with pytest.raises(DataError) as exc:
            load(write(tmp_path, text), "dense-csv")
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        # checked row by row: the separator, then the scores, then the labels
        ("#2 2\n\n0.1,x;1,0,1\n0.3,0.4;0\n",
         "line 3: bad score value: could not convert string to float: 'x'"),
        ("#2 2\n\n0.1,0.2;1,0,1\n0.3,x;0,1\n", "line 3: expected 2 labels, got 3"),
        ("#2 2\n\n0.1,0.2,0.3\n0.3,x;0,1\n", "line 3: expected 'scores;labels'"),
        ("#2 2\n\n0.1,0.2;1,x\n0.3,x;0,1\n",
         "line 3: bad label value: invalid literal for int() with base 10: 'x'"),
        ("#2 2\n\n0.1,0.2;1,0\n0.3,x;0,x\n",
         "line 4: bad score value: could not convert string to float: 'x'"),
        ("#2 2\n\n;1,0\n0.3,0.4;0,1\n", "line 3: expected 2 score values, got 1"),
    ])
    def test_prediction_error_order(self, tmp_path, text, message):
        with pytest.raises(ParseError) as exc:
            load_predictions(write(tmp_path, text))
        assert str(exc.value) == message

    # no allocator grants these widths, so the test touches no memory on any host
    @pytest.mark.parametrize("width", [10**17, 10**19])
    @pytest.mark.parametrize("reader, header, row, what", [
        (load_enrichment, "#1 {w}", "0.5,0.5", "enrichment"),
        (load_model, "#1 {w} 1.0 10.0", "0.5,0.5", "W"),
        (load_predictions, "#1 {w}", "0.5,0.5;1,0", "score"),
    ], ids=["enrichment", "model", "predictions"])
    def test_header_width_checked_by_the_rows(self, tmp_path, width, reader, header, row, what):
        with pytest.raises(ParseError) as exc:
            reader(write(tmp_path, header.format(w=width) + "\n" + row + "\n"))
        assert str(exc.value) == f"line 2: expected {width} {what} values, got 2"

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999",
                                       "9223372036854775808", "10000000000000000000",
                                       "18446744073709551615"])
    def test_prediction_label_beyond_int64(self, tmp_path, label):
        p = write(tmp_path, f"#2 2\n0.1,0.2;1,0\n\n0.3,0.4;0,{label}\n")
        with pytest.raises(ValidationError) as exc:
            load_predictions(p)
        assert str(exc.value) == (
            f"line 4: prediction labels must be binary (0/1 entries), got {label}")


class TestLoadTruth:
    """``load_truth`` reads the label blocks alone and returns ``load``'s Ytruth."""

    @pytest.mark.parametrize("fmt", ["dense-csv", "sparse-multilabel"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_load(self, tmp_path, fmt, noisy):
        ds = random_dataset(n=30, d=7, l=5, seed=6)
        if noisy:
            ds = inject_noise(ds, NoiseConfig(a=100, seed=6))
        p = tmp_path / "ds.txt"
        save(ds, p, fmt)
        want = load(p, fmt).Ytruth
        with no_row_loop():
            got = data.load_truth(p, fmt)
        assert got.dtype == want.dtype == np.int8
        assert got.tobytes() == want.tobytes()
        with row_loop_only():
            assert data.load_truth(p, fmt).tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [
        "#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1\n",
        "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0.5,1\n",
        "#2 2 2\n\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1;nan,1\n",
        "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,0\n",
        "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1;0,1;0,1\n",
        "#2 2 2\n\n0.1,0.2;1,1\n0.3,0.4;0,1\n",
        "#2 2 2\n\n0.1,0.2;1,0;0,1\n0.3,0.4;0,1;0,1\n",
        "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1,0\n",
        "#2 2 2\n\n0.1,0.2;1,0\n0.3,0.4\n",
        "#3 2 2\n\n0.1,0.2;1,0\n0.3,0.4;0,1\n",
    ])
    def test_dense_label_errors_match_load(self, tmp_path, text):
        p = write(tmp_path, text)
        with pytest.raises(DataError) as want:
            load(p, "dense-csv")
        with pytest.raises(DataError) as got:
            data.load_truth(p, "dense-csv")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", [
        "#2 3 3\n0|0 0:0.5\n1 1:0.5\n",
        "#2 3 3\n0 0:0.5\nx 1:0.5\n",
        "#2 3 3\n0 0:0.5\n|1 1:0.5\n",
        "#2 3 3\n0 0:0.5\n1|x 1:0.5\n",
        "#2 3 3\n0 0:0.5\n3 1:0.5\n",
        "#2 3 3\n0,1,2 0:0.5\n1 1:0.5\n",
        "#2 3 3\n0|1 0:0.5\n1|1 1:0.5\n",
    ])
    def test_sparse_label_errors_match_load(self, tmp_path, text):
        p = write(tmp_path, text)
        with pytest.raises(DataError) as want:
            load(p, "sparse-multilabel")
        with pytest.raises(DataError) as got:
            data.load_truth(p, "sparse-multilabel")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("fmt, text", [
        ("dense-csv", "#2 2 2\n0.1,x;1,0\n0.3;0,1\n"),
        ("sparse-multilabel", "#2 2 2\n0 0:x\n1 7:0.5 oops\n"),
    ])
    def test_features_are_not_read(self, tmp_path, fmt, text):
        assert data.load_truth(write(tmp_path, text), fmt).tolist() == [[1, 0], [0, 1]]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            data.load_truth(write(tmp_path, "#1 1 2\n0 0:1\n"), "csv")


class TestWriteLines:
    @pytest.mark.parametrize("lines", [
        ["#2 2", "a,b", "", "c"],
        ["only"],
        [""],
        [],
    ])
    def test_bytes_of_join(self, tmp_path, lines):
        p = tmp_path / "out.txt"
        expected = ("\n".join(lines) + "\n").encode()
        data.write_lines(p, "test", lines)
        assert p.read_bytes() == expected
        data.write_lines(p, "test", (line for line in lines))
        assert p.read_bytes() == expected

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot write test"):
            data.write_lines(tmp_path / "missing" / "out.txt", "test", ["x"])


class TestModelTransform:
    W = np.array([[0.1, -2.5e-8], [1 / 3, 0.0], [2.0, -1.0]])

    def test_version_2_bytes(self, tmp_path):
        p = tmp_path / "model.txt"
        t = FeatureTransform(np.array([0.5, -0.0]), np.array([1 / 3, 1.0]), True)
        save_model(Model(self.W, 1.0, 10, t), p)
        assert p.read_bytes() == (
            b"#5 2 3 2 1.0 10.0\n0.5,-0.0\n0.3333333333333333,1.0\n"
            b"0.1,-2.5e-08\n0.3333333333333333,0.0\n2.0,-1.0\n"
        )

    @pytest.mark.parametrize("bias", [False, True])
    def test_round_trip(self, tmp_path, bias):
        p = tmp_path / "model.txt"
        m = 3 - bias
        t = FeatureTransform(np.arange(m) / 7, np.arange(1, m + 1) / 3, bias)
        save_model(Model(self.W, 2.0, 0.5, t), p)
        back = load_model(p)
        assert back.W.tobytes() == self.W.tobytes()
        assert (back.lambda1, back.lambda2) == (2.0, 0.5)
        assert back.transform.mean.tobytes() == t.mean.tobytes()
        assert back.transform.scale.tobytes() == t.scale.tobytes()
        assert back.transform.bias is bias

    def test_version_1_has_no_transform(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(Model(self.W, 1.0, 10.0), p)
        assert load_model(p).transform is None

    @pytest.mark.parametrize("text, message", [
        ("#5 1 3 2 1.0 10.0\n0.5\n1.0\n" + "0.1,0.2\n" * 3,
         "line 1: a version-2 model needs d = features or features + 1 and rows = d + 2, "
         "got rows=5 features=1 d=3"),
        ("#4 2 3 2 1.0 10.0\n0.5,0.5\n1.0,1.0\n" + "0.1,0.2\n" * 2,
         "line 1: a version-2 model needs d = features or features + 1 and rows = d + 2, "
         "got rows=4 features=2 d=3"),
        ("#5 2 3 2 1.0 10.0\n0.5,0.5\n1.0,0.0\n" + "0.1,0.2\n" * 3,
         "line 3: transform scale values must be positive"),
        ("#5 2 3 2 1.0 10.0\n0.5,0.5\n1.0\n" + "0.1,0.2\n" * 3,
         "line 3: expected 2 transform values, got 1"),
        ("#5 2 3 1.0 10.0\n0.5,0.5\n1.0,1.0\n" + "0.1,0.2\n" * 3,
         "line 1: expected header '#d l lambda1 lambda2' or '#rows features d l lambda1 lambda2'"),
    ])
    def test_bad_version_2_file(self, tmp_path, text, message):
        with pytest.raises(ParseError) as exc:
            load_model(write(tmp_path, text))
        assert str(exc.value) == message
