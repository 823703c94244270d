import numpy as np
import pytest
from helpers import random_dataset

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
from pmltk.data import save
from pmltk.enrichment import load_enrichment, save_enrichment
from pmltk.trainer import (
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
