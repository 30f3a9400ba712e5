import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import patched, random_instance
from msdn.data_io import ClassSplit, SynthSpec, generate_synthetic
from msdn.errors import ArgumentError, DatasetValidationError, NumericError, ShapeError
from msdn.model import PARAM_NAMES, ModelParams, forward, init_params_from_rng
from msdn.ndmath import Rng
from msdn.training import TrainConfig, train
from msdn import zsl_eval
from msdn.zsl_eval import (
    EvalReport,
    PredictConfig,
    calibrated_scores,
    evaluate,
    harmonic_mean,
    per_class_accuracy,
    predict,
    report,
    write_per_class_csv,
    write_report_csv,
)


class TestHarmonicMean:
    def test_equal_inputs_identity(self):
        for x in np.linspace(0.0, 1.0, 11):
            assert harmonic_mean(x, x) == pytest.approx(x, abs=1e-12)

    def test_zero_annihilates(self):
        assert harmonic_mean(0.0, 0.9) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_published_awa2_row(self):
        assert harmonic_mean(0.745, 0.620) == pytest.approx(0.677, abs=5e-4)

    def test_published_cub_row(self):
        assert harmonic_mean(0.675, 0.687) == pytest.approx(0.681, abs=5e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ArgumentError):
            harmonic_mean(1.2, 0.5)
        with pytest.raises(ArgumentError):
            harmonic_mean(0.5, -0.1)

    # accuracies are ratios of sample counts: exactly zero or well above
    # the underflow range
    _acc = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))

    @given(_acc, _acc)
    def test_bounds(self, s, u):
        h = harmonic_mean(s, u)
        assert h <= 2 * min(s, u) + 1e-12
        assert h <= max(s, u) + 1e-12
        assert (h == 0.0) == (s == 0.0 or u == 0.0)


class TestPredict:
    def test_alpha1_only_depends_on_psi(self):
        params, regions, attrs, semantics, _, seen, unseen = random_instance(60)
        trace = forward(regions[:, :1], attrs, params)
        cfg = PredictConfig(alpha1=1.0, alpha2=0.0)
        fused = cfg.fuse(trace.psi[:, :1], trace.Psi[:, :1])
        other = cfg.fuse(trace.psi[:, :1], np.full_like(trace.Psi[:, :1], 9.0))
        np.testing.assert_array_equal(fused, other)
        split = ClassSplit.of(seen, unseen)
        assert (predict(calibrated_scores(fused, semantics, split), split, "gzsl")
                == predict(calibrated_scores(other, semantics, split), split, "gzsl"))

    def test_indicator_margin_flips_to_unseen(self):
        # raw scores: seen class 5.0, unseen 4.5; offsets make 4.5+1 > 5.0-1
        split = ClassSplit.of([0], [1])
        scores = calibrated_scores(np.array([[1.0]]), np.array([[5.0], [4.5]]), split)
        assert predict(scores, split, "gzsl") == 1

    def test_embedding_must_have_an_image_axis(self):
        # A (K,) embedding would broadcast against the (C, 1) offsets into (C, C) scores.
        split = ClassSplit.of([0], [1])
        with pytest.raises(ShapeError, match=r"embedding must be \(1, n\)"):
            calibrated_scores(np.array([1.0]), np.array([[5.0], [4.5]]), split)

    def test_indicator_exact_offsets(self):
        params, regions, attrs, semantics, _, seen, unseen = random_instance(61)
        trace = forward(regions[:, :1], attrs, params)
        cfg = PredictConfig()
        scores = calibrated_scores(cfg.fuse(trace.psi[:, :1], trace.Psi[:, :1]), semantics,
                                   ClassSplit.of(seen, unseen))
        raw = semantics @ (cfg.alpha1 * trace.psi[:, :1] + cfg.alpha2 * trace.Psi[:, :1])
        np.testing.assert_array_equal(scores[seen], raw[seen] - 1.0)
        np.testing.assert_array_equal(scores[unseen], raw[unseen] + 1.0)

    def test_matches_brute_force_oracle(self):
        cfg = PredictConfig(alpha1=0.7, alpha2=0.3)
        for seed in range(30):
            params, regions, attrs, semantics, _, seen, unseen = random_instance(seed)
            trace = forward(regions[:, :1], attrs, params)
            split = ClassSplit.of(seen, unseen)
            for mode in ("czsl", "gzsl"):
                scores = calibrated_scores(cfg.fuse(trace.psi[:, :1], trace.Psi[:, :1]),
                                           semantics, split)
                got = predict(scores, split, mode)
                expected = oracles.predict(trace.psi[:, 0], trace.Psi[:, 0], semantics,
                                           seen, unseen, 0.7, 0.3, mode)
                assert got == expected

    def test_czsl_ignores_indicator(self):
        # constant +1 over the unseen candidate set cannot change the argmax
        params, regions, attrs, semantics, _, seen, unseen = random_instance(62)
        trace = forward(regions[:, :1], attrs, params)
        cfg = PredictConfig()
        fused = cfg.fuse(trace.psi[:, :1], trace.Psi[:, :1])
        split = ClassSplit.of(seen, unseen)
        pred = predict(calibrated_scores(fused, semantics, split), split, "czsl")
        raw = semantics @ fused
        unseen_sorted = np.sort(unseen)
        assert pred == int(unseen_sorted[np.argmax(raw[unseen_sorted])])

    def test_constant_shift_invariance(self):
        params, regions, attrs, semantics, _, seen, unseen = random_instance(63)
        trace = forward(regions[:, :1], attrs, params)
        scores = calibrated_scores(PredictConfig().fuse(trace.psi[:, :1], trace.Psi[:, :1]),
                                   semantics, ClassSplit.of(seen, unseen))
        assert int(np.argmax(scores + 123.0)) == int(np.argmax(scores))

    def test_tie_breaks_to_smallest_class(self):
        semantics = np.zeros((4, 2))
        # all raw scores zero: unseen classes tie at +1, seen at -1
        split = ClassSplit.of(np.arange(2), np.arange(2, 4))
        assert predict(calibrated_scores(np.zeros((2, 1)), semantics, split), split, "gzsl") == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ArgumentError, match="candidate"):
            predict(np.ones(2), ClassSplit.of([0, 1], []), "czsl")

    def test_alpha_validation(self):
        with pytest.raises(ArgumentError):
            PredictConfig(alpha1=0.0, alpha2=0.0)
        with pytest.raises(ArgumentError):
            PredictConfig(alpha1=-1.0, alpha2=0.5)
        with pytest.raises(ArgumentError, match="mode"):
            predict(np.ones(3), ClassSplit.of([0, 1], [2]), "both")

    def test_split_must_cover_every_class(self):
        # three classes in the split, four rows of class semantics
        semantics = np.ones((4, 2))
        split = ClassSplit.of([0, 1], [2])
        with pytest.raises(ShapeError, match="3 classes"):
            calibrated_scores(np.ones((2, 1)), semantics, split)


class TestPerClassAccuracy:
    def test_equal_weight_per_class(self):
        # class 0: 4 samples all wrong; class 1: 1 sample correct
        labels = np.array([0, 0, 0, 0, 1])
        preds = np.array([1, 1, 1, 1, 1])
        acc, table = per_class_accuracy(labels, preds, np.array([0, 1]))
        assert acc == pytest.approx(0.5)
        assert table == {0: 0.0, 1: 1.0}

    def test_skips_absent_classes(self):
        labels = np.array([2, 2])
        preds = np.array([2, 0])
        acc, table = per_class_accuracy(labels, preds, np.array([1, 2]))
        assert acc == pytest.approx(0.5)
        assert 1 not in table

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(draw=st.data())
    def test_matches_mask_loop_oracle_bit_for_bit(self, draw):
        # Labels and predictions may fall outside the classes, which may
        # repeat, be negative or have no samples at all.
        n = draw.draw(st.integers(0, 40), label="n")
        ids = st.integers(-3, 9)
        dtypes = st.sampled_from([np.int32, np.int64])
        labels = np.array(draw.draw(st.lists(ids, min_size=n, max_size=n)), draw.draw(dtypes))
        preds = np.array(draw.draw(st.lists(ids, min_size=n, max_size=n)), np.int64)
        classes = np.array(draw.draw(st.lists(ids, max_size=8)), draw.draw(dtypes))
        try:
            expected_acc, expected_table = oracles.per_class_accuracy(labels, preds, classes)
        except ValueError:
            with pytest.raises(ArgumentError, match="no evaluated class has any samples"):
                per_class_accuracy(labels, preds, classes)
            return
        acc, table = per_class_accuracy(labels, preds, classes)
        assert acc.hex() == expected_acc.hex()
        assert list(table) == list(expected_table)
        assert [a.hex() for a in table.values()] == [a.hex() for a in expected_table.values()]


class TestReport:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(draw=st.data())
    def test_matches_two_split_oracle_exactly(self, tiny_dataset, draw):
        # Test splits of any order and of down to one row.  Integer class
        # semantics and embeddings score exactly, so classes tie; float ones
        # rarely do.  Each model of a stacked embedding is scored alone.
        def rows(name):
            idx = getattr(tiny_dataset, name)
            picked = draw.draw(st.permutations(idx.tolist()), label=name)
            return np.asarray(picked[:draw.draw(st.integers(1, idx.size), label=f"{name} rows")],
                              idx.dtype)

        changes = {name: rows(name) for name in ("test_unseen_idx", "test_seen_idx")}
        if draw.draw(st.booleans(), label="integer"):
            values = st.integers(-2, 2).map(float)
            changes["class_semantics"] = draw.draw(arrays(
                np.float64, tiny_dataset.class_semantics.shape,
                elements=st.integers(0, 2).map(float)), label="class_semantics")
        else:
            values = st.floats(-4.0, 4.0)
        ds = dataclasses.replace(tiny_dataset, **changes)
        n_unseen = ds.test_unseen_idx.size
        stacked = draw.draw(arrays(np.float64, (draw.draw(st.integers(1, 3), label="models"),
                                                ds.num_attributes, ds.test_idx.size),
                                   elements=values), label="embedding")
        for p, embedding in enumerate(stacked):
            want = oracles.report_two_splits(ds, embedding[:, :n_unseen], embedding[:, n_unseen:])
            assert report(ds, embedding) == want, p


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    params, _ = train(tiny_dataset, TrainConfig(epochs=5, batch_size=8, seed=4))
    return params


class TestEvaluate:

    def test_injected_oracle_predictor_scores_one(self, tiny_dataset, trained,
                                                   monkeypatch):
        ds = tiny_dataset
        cfg = PredictConfig()

        trace = forward(ds.regions(ds.test_idx), ds.attributes, trained)
        psi, Psi = (e.astype(np.float64) for e in (trace.psi, trace.Psi))   # fused in float64
        scores = calibrated_scores(cfg.fuse(psi, Psi), ds.class_semantics, ds.split)
        labels = ds.labels[ds.test_idx]

        def oracle_predict(got, split, mode):
            # GZSL ranks every test column; CZSL the unseen columns, which come first.
            n = ds.test_idx.size if mode == "gzsl" else ds.test_unseen_idx.size
            assert np.array_equal(got, scores[:, :n]), mode
            return labels[:n]

        monkeypatch.setattr(zsl_eval, "predict", oracle_predict)
        report = evaluate(trained, ds, cfg)
        assert report.acc == report.U == report.S == report.H == 1.0

    # 12 unseen + 3 seen test images: chunks of 5 put the last unseen
    # images and the seen ones in one call.
    @pytest.mark.parametrize("chunk", [2, 5, 64])
    def test_one_forward_per_split_chunk(self, tiny_dataset, trained, monkeypatch, chunk):
        calls = []

        def counting_forward(regions, attrs, params):
            calls.append(regions.shape[1])
            return forward(regions, attrs, params)

        monkeypatch.setattr(zsl_eval, "EVAL_CHUNK", chunk)
        monkeypatch.setattr(zsl_eval, "forward", counting_forward)
        ds = tiny_dataset
        n_unseen, n_seen = ds.test_unseen_idx.size, ds.test_seen_idx.size
        report = evaluate(trained, ds, PredictConfig())
        assert len(calls) == math.ceil((n_unseen + n_seen) / chunk)
        assert sum(calls) == n_unseen + n_seen

        monkeypatch.setattr(zsl_eval, "forward", forward)
        psi, Psi = zsl_eval.forward_test_splits(trained, ds)
        assert psi.shape == Psi.shape == (ds.num_attributes, n_unseen + n_seen)
        # The unseen split's columns come first, then the seen split's.
        for cols, idx in ((slice(None, n_unseen), ds.test_unseen_idx),
                          (slice(n_unseen, None), ds.test_seen_idx)):
            trace = forward(ds.regions(idx), ds.attributes, trained)
            np.testing.assert_allclose(psi[:, cols], trace.psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(Psi[:, cols], trace.Psi, rtol=0, atol=1e-12)
        monkeypatch.setattr(zsl_eval, "EVAL_CHUNK", 10_000)
        assert evaluate(trained, ds, PredictConfig()) == report

    @pytest.mark.parametrize("chunk", [2, 64])
    def test_stacked_models_score_as_alone(self, tiny_dataset, trained, monkeypatch, chunk):
        # Chunks join on the image axis, behind the model axis of stacked weights.
        monkeypatch.setattr(zsl_eval, "EVAL_CHUNK", chunk)
        ds = tiny_dataset
        models = [trained, init_params_from_rng(trained.dims, Rng(9)).astype(trained.W1.dtype)]
        stacked = ModelParams(trained.dims, **{
            name: np.stack([getattr(m, name) for m in models]) for name in PARAM_NAMES})
        together = zsl_eval.forward_test_splits(stacked, ds)
        assert all(e.shape == (2, ds.num_attributes, ds.test_idx.size) for e in together)
        for p, params in enumerate(models):
            alone = zsl_eval.forward_test_splits(params, ds)
            assert all(np.array_equal(g[p], a) for g, a in zip(together, alone)), p

    def test_matches_per_image_oracle(self, tiny_dataset, trained, monkeypatch):
        monkeypatch.setattr(zsl_eval, "EVAL_CHUNK", 2)
        ds = tiny_dataset

        def oracle_preds(idx, mode):
            traces = [forward(ds.regions([i]), ds.attributes, trained)
                      for i in idx]
            return np.asarray([oracles.predict(t.psi[:, 0], t.Psi[:, 0], ds.class_semantics,
                                               ds.seen_classes, ds.unseen_classes,
                                               0.9, 0.1, mode) for t in traces])

        unseen_labels = ds.labels[ds.test_unseen_idx]
        acc, _ = per_class_accuracy(unseen_labels, oracle_preds(ds.test_unseen_idx, "czsl"),
                                    ds.unseen_classes)
        u, _ = per_class_accuracy(unseen_labels, oracle_preds(ds.test_unseen_idx, "gzsl"),
                                  ds.unseen_classes)
        s, _ = per_class_accuracy(ds.labels[ds.test_seen_idx],
                                  oracle_preds(ds.test_seen_idx, "gzsl"), ds.seen_classes)
        report = evaluate(trained, ds, PredictConfig(alpha1=0.9, alpha2=0.1))
        assert (report.acc, report.U, report.S) == (acc, u, s)

    def test_report_invariants(self, tiny_dataset, trained):
        report = evaluate(trained, tiny_dataset, PredictConfig())
        for value in (report.acc, report.U, report.S, report.H):
            assert 0.0 <= value <= 1.0
        assert report.H == pytest.approx(harmonic_mean(report.S, report.U), abs=1e-12)
        seen_rows = [r for r in report.per_class if r[1] == "seen"]
        unseen_rows = [r for r in report.per_class if r[1] == "unseen"]
        assert len(seen_rows) == len(tiny_dataset.seen_classes)
        assert len(unseen_rows) == len(tiny_dataset.unseen_classes)

    def test_overflowing_params_raise_numeric_error(self, tiny_dataset, trained):
        # float64 weights this large overflow Psi to +-inf and the scores to
        # NaN, where argmax would report class 0.  The CLI gets here from
        # finite f32 checkpoint weights whose float32 forward overflows
        # (test_cli.py::TestNumericFailure).
        wide = trained.astype(np.float64)   # trained in float32, which 1e200 overflows
        huge = dataclasses.replace(wide, W4=wide.W4 * 1e200, W_att=wide.W_att * 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite"):
                evaluate(huge, tiny_dataset, PredictConfig())

    def test_overflowing_fusion_names_the_coefficients(self):
        cfg = PredictConfig(alpha1=1e308, alpha2=1e308)
        psi, Psi = np.array([[2.0, -0.5]]), np.array([[2.0, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="alpha1=1e[+]308 and alpha2=1e[+]308"):
                cfg.fuse(psi, Psi)
            # A non-finite embedding is the model's overflow, for the scoring check.
            assert not np.isfinite(cfg.fuse(psi, np.full_like(Psi, np.inf))).all()
        assert np.isfinite(cfg.fuse(0.25 * psi, 0.25 * Psi)).all()

    def test_empty_test_split_rejected(self, tiny_dataset, trained):
        ds = dataclasses.replace(tiny_dataset, test_unseen_idx=np.array([], dtype=np.int32))
        with pytest.raises(ArgumentError, match="test_unseen_idx"):
            evaluate(trained, ds, PredictConfig())

    def test_invalid_dataset_rejected(self, tiny_dataset, trained):
        labels = patched(tiny_dataset.labels, 0, 77)
        with pytest.raises(DatasetValidationError) as exc:
            evaluate(trained, dataclasses.replace(tiny_dataset, labels=labels),
                     PredictConfig())
        assert any("labels must lie in" in m for m in exc.value.violations)


class TestFloat32Eval:
    """A checkpoint's float32 weights score as the same weights widened to float64."""

    # Largest relative difference of either embedding, max|e32 - e64| / max|e64|,
    # measured on seeds 1-5: 3.0e-7 to 5.8e-7 at the stock shape (200 epochs) and
    # 1.1e-6 to 2.7e-6 at the mid shape (5 and 20 epochs).
    EMBEDDING_RTOL = 1e-5

    @pytest.mark.parametrize("spec, epochs", [
        (SynthSpec(), 200),
        (SynthSpec(num_seen=20, num_unseen=10, num_attributes=64, num_regions=36,
                   visual_dim=128, attr_dim=50, samples_per_class=10), 5),
    ], ids=["stock", "mid"])
    def test_agrees_with_float64(self, spec, epochs):
        ds = generate_synthetic(spec)
        f32 = train(ds, TrainConfig(epochs=epochs))[0].astype(np.float32)
        e32, e64 = (zsl_eval.forward_test_splits(p, ds)
                    for p in (f32, f32.astype(np.float64)))
        n_unseen = ds.test_unseen_idx.size
        for got, want in zip(e32, e64):
            assert got.dtype == np.float64
            # Each test split is held to the bound relative to its own largest entry.
            for cols in (slice(None, n_unseen), slice(n_unseen, None)):
                assert (np.abs(got[:, cols] - want[:, cols]).max()
                        <= self.EMBEDDING_RTOL * np.abs(want[:, cols]).max())
        scores32, scores64 = (calibrated_scores(PredictConfig().fuse(*e), ds.class_semantics,
                                                ds.split) for e in (e32, e64))
        for mode in zsl_eval.MODES:
            assert np.array_equal(predict(scores32, ds.split, mode),
                                  predict(scores64, ds.split, mode)), mode


class TestReportCsv:
    def test_metric_csv_layout(self, tmp_path):
        report = EvalReport(acc=0.5, U=0.25, S=0.75, H=harmonic_mean(0.75, 0.25),
                            per_class=[(0, "seen", 0.75), (1, "unseen", 0.25)])
        path = tmp_path / "metrics.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("acc,") and lines[4].startswith("H,")
        assert float(lines[1].split(",")[1]) == 0.5

    def test_per_class_csv_layout(self, tmp_path):
        report = EvalReport(acc=1.0, U=1.0, S=1.0, H=1.0,
                            per_class=[(0, "seen", 1.0), (3, "unseen", 0.5)])
        path = tmp_path / "classes.csv"
        write_per_class_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class_id,split,accuracy"
        assert lines[2] == "3,unseen,0.5"
