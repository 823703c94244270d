import json

import numpy as np
import pytest
from helpers import brute_force_metrics, reference_evaluate

from pmltk import MetricsReport, NumericError, ShapeError, ValidationError, evaluate, metrics
from pmltk.metrics import aggregate, report_to_json, reports_to_csv, reports_to_json


def random_case(rng, allow_degenerate=True):
    m = int(rng.integers(1, 9))
    l = int(rng.integers(2, 6))
    # mix continuous and coarse scores so rank ties actually occur
    if rng.random() < 0.5:
        scores = rng.normal(size=(m, l))
    else:
        scores = rng.integers(-1, 2, size=(m, l)).astype(np.float64)
    labels = rng.integers(0, 2, size=(m, l)).astype(np.int8)
    truth = rng.integers(0, 2, size=(m, l)).astype(np.int8)
    if not allow_degenerate:
        for i in range(m):
            if truth[i].sum() == 0:
                truth[i, rng.integers(l)] = 1
            if truth[i].sum() == l:
                truth[i, rng.integers(l)] = 0
    return scores, labels, truth


class TestEvaluateExamples:
    def test_perfect_prediction(self):
        truth = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        scores = truth + 0.0
        rep = evaluate(scores, truth, truth)
        assert rep.saccuracy == 1.0
        assert rep.hloss == 0.0
        assert rep.oerror == 0.0
        assert rep.rloss == 0.0
        assert rep.ap == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.micro_f1 == 1.0
        assert rep.skipped_instances == 0

    def test_hamming_loss_symmetric_difference(self):
        truth = np.array([[1, 0], [0, 1]], dtype=np.int8)
        labels = np.array([[1, 1], [0, 1]], dtype=np.int8)
        rep = evaluate(np.zeros((2, 2)), labels, truth)
        assert rep.hloss == 0.25

    def test_single_reversed_pair(self):
        truth = np.array([[1, 0]], dtype=np.int8)
        scores = np.array([[0.2, 0.9]])
        rep = evaluate(scores, truth, truth)
        assert rep.rloss == 1.0
        assert rep.oerror == 1.0
        assert rep.ap == 0.5

    def test_degenerate_rows_are_skipped(self):
        truth = np.array([[1, 1], [0, 0], [1, 0]], dtype=np.int8)
        scores = np.array([[0.1, 0.2], [0.3, 0.1], [0.9, 0.0]])
        labels = np.zeros((3, 2), dtype=np.int8)
        rep = evaluate(scores, labels, truth)
        assert rep.skipped_instances == 2
        assert rep.oerror == 0.0 and rep.ap == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate(np.zeros((2, 3)), np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))

    def test_zero_instances(self):
        with pytest.raises(ValidationError):
            evaluate(np.zeros((0, 2)), np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores(self, bad):
        # a nan compares false, so it would count no ranking violation
        truth = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        scores = truth + 0.0
        scores[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite scores"):
            evaluate(scores, truth, truth)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels, truth = random_case(rng)
        rep = evaluate(scores, labels, truth).to_dict()
        ref = brute_force_metrics(scores, labels, truth)
        for name, want in ref.items():
            assert rep[name] == pytest.approx(want, abs=1e-12), name


def row_loop_case(m, l, seed, ties=False, max_rel=None, degenerate=0.0):
    """Scores, labels and truth with each row's relevant-label count drawn
    from 1..``max_rel`` (default l - 1), so rows are ragged; ``ties``
    draws scores from five values, and a ``degenerate`` share of rows is
    made empty or full."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-2, 3, size=(m, l)) / 2.0 if ties else rng.normal(size=(m, l))
    truth = np.zeros((m, l), dtype=np.int8)
    for i, r in enumerate(rng.integers(1, (max_rel or l - 1) + 1, size=m)):
        truth[i, rng.choice(l, size=r, replace=False)] = 1
    odd = rng.random(m) < degenerate
    truth[odd] = rng.integers(0, 2, size=(int(odd.sum()), 1))
    labels = (scores >= 0.5).astype(np.int8)
    return scores, labels, truth


class TestMatchesRowLoop:
    """``evaluate`` scores all rows at once; ``reference_evaluate`` is the
    per-row loop it replaced. Every field must be the same float."""

    @pytest.mark.parametrize("m,l,kw", [
        (40, 6, {}),
        (60, 27, {}),
        (489, 45, {}),
        (50, 8, {"ties": True}),
        (80, 45, {"ties": True}),
        (70, 30, {"max_rel": 29}),  # rows with 9 to 29 relevant labels
        (30, 200, {"max_rel": 150}),  # past numpy's 128-element pairwise block
        (60, 10, {"degenerate": 0.4}),
        (60, 10, {"degenerate": 0.4, "ties": True}),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact(self, m, l, kw, seed):
        args = row_loop_case(m, l, seed, **kw)
        assert evaluate(*args).to_dict() == reference_evaluate(*args)

    def test_all_rows_skipped(self):
        truth = np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]], dtype=np.int8)
        args = (np.random.default_rng(3).normal(size=(3, 3)), truth, truth)
        report = evaluate(*args)
        assert report.to_dict() == reference_evaluate(*args)
        assert report.skipped_instances == 3 and report.ap == report.rloss == report.oerror == 0.0

    @pytest.mark.parametrize("cells", [1, 45 * 45, 45 * 45 * 7 + 3])
    def test_row_blocks(self, monkeypatch, cells):
        # one row per block, exactly one row, and blocks that do not divide m
        monkeypatch.setattr(metrics, "_PAIR_CELLS", cells)
        args = row_loop_case(50, 45, 4, ties=True, degenerate=0.1)
        assert evaluate(*args).to_dict() == reference_evaluate(*args)


class TestInvariances:
    @pytest.mark.parametrize("seed", range(10))
    def test_label_permutation(self, seed):
        rng = np.random.default_rng(100 + seed)
        scores, labels, truth = random_case(rng, allow_degenerate=False)
        # distinct scores keep tie-breaking out of the picture
        scores = scores + rng.permutation(scores.size).reshape(scores.shape) * 1e-9
        perm = rng.permutation(scores.shape[1])
        a = evaluate(scores, labels, truth)
        b = evaluate(scores[:, perm], labels[:, perm], truth[:, perm])
        for name in ("saccuracy", "hloss", "oerror", "rloss", "ap", "micro_f1", "macro_f1"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9), name

    @pytest.mark.parametrize("seed", range(10))
    def test_score_shift(self, seed):
        rng = np.random.default_rng(200 + seed)
        scores, labels, truth = random_case(rng, allow_degenerate=False)
        a = evaluate(scores, labels, truth)
        b = evaluate(scores + 17.25, labels, truth)
        for name in ("oerror", "rloss", "ap"):
            assert getattr(a, name) == getattr(b, name), name


class TestAggregate:
    def test_identical_reports_zero_std(self):
        rep = evaluate(np.array([[1.0, 0.0]]), np.array([[1, 0]]), np.array([[1, 0]]))
        agg = aggregate([rep, rep, rep])
        for mean, std in agg.values():
            assert std == 0.0

    def test_two_point_sample_std(self):
        r1 = MetricsReport(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0)
        r2 = MetricsReport(0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0)
        agg = aggregate([r1, r2])
        mean, std = agg["ap"]
        assert mean == pytest.approx(0.3, abs=1e-12)
        assert std == pytest.approx(np.sqrt(0.02), abs=1e-12)

    def test_single_report(self):
        r = MetricsReport(0.5, 0.1, 0.0, 0.0, 0.9, 0.4, 0.6, 2)
        agg = aggregate([r])
        assert agg["ap"] == (0.9, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])


class TestSerialization:
    def test_json_flat_object(self):
        r = MetricsReport(0.5, 0.1, 0.0, 0.0, 0.9, 0.4, 0.6, 2)
        doc = json.loads(report_to_json(r))
        assert doc["ap"] == 0.9 and doc["skipped_instances"] == 2

    def test_csv_rows_and_footer(self):
        r1 = MetricsReport(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 1)
        r2 = MetricsReport(0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 3)
        lines = reports_to_csv([r1, r2], aggregate([r1, r2])).strip().split("\n")
        assert len(lines) == 5  # header, two splits, mean, std
        assert lines[0].startswith("split,saccuracy")
        assert lines[3].split(",")[0] == "mean"
        assert float(lines[3].split(",")[5]) == pytest.approx(0.3)
        assert lines[4].split(",")[0] == "std"

    def test_json_csv_numeric_agreement(self):
        r1 = MetricsReport(0.25, 0.125, 0.0, 0.0625, 0.875, 0.5, 0.75, 0)
        r2 = MetricsReport(0.5, 0.25, 0.25, 0.125, 0.75, 0.25, 0.5, 1)
        doc = json.loads(reports_to_json([r1, r2], aggregate([r1, r2])))
        lines = reports_to_csv([r1, r2], aggregate([r1, r2])).strip().split("\n")
        header = lines[0].split(",")
        mean_row = dict(zip(header, lines[3].split(",")))
        for name, value in doc["mean"].items():
            assert float(mean_row[name]) == value
