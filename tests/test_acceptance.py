"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Thresholds and tolerances are fixed here and must not be loosened.
"""

import dataclasses
import time

import numpy as np
import pytest

import oracles
from conftest import acec, distill, random_instance
from msdn.ablation import run_ablation
from msdn.data_io import (ClassSplit, SynthSpec, generate_synthetic, load_container,
                          save_container)
from msdn.losses import LossConfig, LossTerms, total_loss_raw
from msdn.model import (
    forward,
    init_params_from_rng,
    save_checkpoint,
)
from msdn.ndmath import Rng, grad_check_matrices
from msdn.training import TrainConfig, train
from msdn.zsl_eval import (
    PredictConfig,
    calibrated_scores,
    evaluate,
    harmonic_mean,
    per_class_accuracy,
    predict,
)

GRAD_DIMS = dict(k=5, r=4, d_v=8, d_a=6, c_seen=3, c_unseen=2, batch=2)


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS: {name}{suffix}")


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic(SynthSpec())


def test_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(
            1000 + seed, **GRAD_DIMS)
        terms = LossTerms.of((LossConfig(),))
        split = ClassSplit.of(seen, unseen)
        _, grads = total_loss_raw(params, regions, labels, attrs, semantics, split, terms)
        results = grad_check_matrices(
            lambda p: total_loss_raw(p, regions, labels, attrs, semantics, split, terms)[0].total,
            params, grads)
        for name, detail in results.items():
            worst = max(worst, detail.max_rel_error)
            assert detail.max_rel_error <= 1e-5, f"seed {seed}, {name}: {detail}"
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"gradient suite took {elapsed:.1f}s"
    _report("gradient suite",
            f"5 seeds x 5 matrices, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(seed)
        trace = forward(regions[:, :1], attrs, params)

        ob, of, op = oracles.a2v_forward(regions[:, 0], attrs, params.W1, params.W2)
        for got, want in ((trace.beta[..., 0], ob), (trace.beta[..., 0] @ regions[:, 0], of),
                          (trace.psi[:, 0], op)):
            worst = max(worst, float(np.abs(got - want).max()))

        ot, os_, om, obar, obig = oracles.v2a_forward(
            regions[:, 0], attrs, params.W3, params.W4, params.W_att)
        for got, want in ((trace.tau[:, 0], ot), (trace.tau[:, 0] @ attrs, os_),
                          (trace.M[:, 0], om), (trace.psi_bar[:, 0], obar),
                          (trace.Psi[:, 0], obig)):
            worst = max(worst, float(np.abs(got - want).max()))

        cfg = LossConfig(lambda_cal=0.1)
        rng = Rng(seed + 5000)
        scores = rng.uniform(-2.0, 2.0, 2, semantics.shape[0])
        got_acec, _ = acec(scores, labels, seen, unseen, cfg.lambda_cal)
        want_acec = oracles.acec_loss(scores, labels, seen, unseen, 0.1)
        worst = max(worst, abs(got_acec - want_acec))

        s1 = rng.uniform(-3.0, 3.0, 2, len(seen))
        s2 = rng.uniform(-3.0, 3.0, 2, len(seen))
        got_distill, _, _ = distill(s1, s2, cfg)
        want_distill = oracles.distill_loss(s1, s2, cfg.epsilon_kl)
        worst = max(worst, abs(got_distill - want_distill))

        fused = PredictConfig(alpha1=0.9, alpha2=0.1).fuse(trace.psi[:, :1], trace.Psi[:, :1])
        split = ClassSplit.of(seen, unseen)
        for mode in ("czsl", "gzsl"):
            got = predict(calibrated_scores(fused, semantics, split), split, mode)
            want = oracles.predict(trace.psi[:, 0], trace.Psi[:, 0], semantics, seen, unseen,
                                   0.9, 0.1, mode)
            assert got == want, f"seed {seed} mode {mode}: {got} != {want}"

    assert worst <= 1e-12, f"worst oracle deviation {worst:.2e}"
    _report("oracle equivalence", f"100 instances, worst deviation {worst:.2e}")


def test_attention_normalization():
    cases = 0
    for seed in range(250):
        rng = oracles.ScalarRng(seed)
        k = 1 + rng.next_below(6)
        r = 1 + rng.next_below(6)
        d_v = 1 + rng.next_below(5)
        d_a = 1 + rng.next_below(5)
        params = init_params_from_rng(d_v, d_a, rng)
        for _ in range(4):
            regions = rng.uniform(-5.0, 5.0, r, d_v)
            attrs = rng.uniform(-5.0, 5.0, k, d_a)
            trace = forward(regions[:, None], attrs, params)
            np.testing.assert_allclose(trace.beta.sum(axis=-3), 1.0, atol=1e-10)
            np.testing.assert_allclose(trace.tau.sum(axis=-3), 1.0, atol=1e-10)
            cases += 1
    assert cases >= 1000
    _report("attention normalization", f"{cases} randomized cases at 1e-10")


def test_metric_arithmetic():
    assert harmonic_mean(0.620, 0.745) == pytest.approx(0.677, abs=5e-4)
    assert harmonic_mean(0.687, 0.675) == pytest.approx(0.681, abs=5e-4)
    for x in np.linspace(0.0, 1.0, 21):
        assert harmonic_mean(x, x) == pytest.approx(x, abs=1e-12)
    _report("metric arithmetic", "published H values and H(x,x)=x grid")


def test_distillation_properties():
    cfg = LossConfig()
    rng = Rng(404)
    for _ in range(1000):
        a = rng.uniform(-4.0, 4.0, 2, 5)
        b = rng.uniform(-4.0, 4.0, 2, 5)
        loss_ab, _, _ = distill(a, b, cfg)
        loss_ba, _, _ = distill(b, a, cfg)
        assert loss_ab > 0.0  # distinct continuous draws: strictly positive
        assert loss_ab == loss_ba  # bit-exact symmetry
    same = rng.uniform(-4.0, 4.0, 3, 6)
    loss_same, g1, g2 = distill(same, same.copy(), cfg)
    assert loss_same == 0.0
    assert not g1.any() and not g2.any()
    _report("distillation properties",
            "identity zero, bit-exact symmetry, 1000 non-negative pairs")


def test_calibration_behavior():
    params, regions, attrs, semantics, _, seen, unseen = random_instance(77)
    trace = forward(regions[:, :1], attrs, params)
    cfg = PredictConfig()
    scores = calibrated_scores(cfg.fuse(trace.psi[:, :1], trace.Psi[:, :1]), semantics,
                               ClassSplit.of(seen, unseen))
    raw = semantics @ (cfg.alpha1 * trace.psi[:, :1] + cfg.alpha2 * trace.Psi[:, :1])
    assert np.array_equal(scores[unseen], raw[unseen] + 1.0)
    assert np.array_equal(scores[seen], raw[seen] - 1.0)

    # seen leads by 1.5 raw; the +/-1 offsets hand the argmax to unseen
    margin_split = ClassSplit.of([0], [1])
    margin_scores = calibrated_scores(np.array([[1.0]]), np.array([[5.0], [3.5]]), margin_split)
    assert predict(margin_scores, margin_split, "gzsl") == 1
    _report("calibration behavior", "exact +/-1 offsets; 1.5 margin flips")


def test_end_to_end_synthetic_learning(default_dataset):
    start = time.monotonic()
    ds = default_dataset
    cfg = TrainConfig()
    assert cfg.epochs == 200

    full, _ = train(ds, cfg)
    pcfg = PredictConfig()

    seen_sorted = np.sort(ds.seen_classes.astype(np.int64))
    train_labels = ds.labels[ds.train_idx]
    trace = forward(ds.regions(ds.train_idx), ds.attributes, full)
    fused = (pcfg.alpha1 * trace.psi + pcfg.alpha2 * trace.Psi).T           # (N, K)
    scores = fused @ ds.class_semantics[seen_sorted].T                      # (N, C_s)
    preds = seen_sorted[np.argmax(scores, axis=1)]
    train_acc, _ = per_class_accuracy(train_labels, preds, ds.seen_classes)
    assert train_acc >= 0.95, f"training seen accuracy {train_acc:.3f}"

    report = evaluate(full, ds, pcfg)
    assert report.acc >= 0.45, f"CZSL unseen accuracy {report.acc:.3f}"

    # Without distillation the two sub-nets train independently, so the
    # halves of one model are the single-branch models.
    no_distill, _ = train(ds, dataclasses.replace(cfg, lambda_distill=0.0))
    a2v_report = evaluate(no_distill, ds, PredictConfig(alpha1=1.0, alpha2=0.0))
    v2a_report = evaluate(no_distill, ds, PredictConfig(alpha1=0.0, alpha2=1.0))
    assert report.acc >= a2v_report.acc, (
        f"full {report.acc:.3f} < attribute->visual alone {a2v_report.acc:.3f}")
    assert report.acc >= v2a_report.acc, (
        f"full {report.acc:.3f} < visual->attribute alone {v2a_report.acc:.3f}")

    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, f"end-to-end run took {elapsed:.0f}s"
    _report(
        "end-to-end synthetic learning",
        f"train {train_acc:.3f}, CZSL {report.acc:.3f} vs single-branch "
        f"{a2v_report.acc:.3f}/{v2a_report.acc:.3f}, {elapsed:.0f}s",
    )


def test_determinism(default_dataset, tmp_path):
    cfg = TrainConfig(epochs=4, batch_size=64, seed=9)
    first = tmp_path / "run1.ckpt"
    second = tmp_path / "run2.ckpt"
    k, r = default_dataset.num_attributes, default_dataset.num_regions
    save_checkpoint(train(default_dataset, cfg)[0], first, k, r)
    save_checkpoint(train(default_dataset, cfg)[0], second, k, r)
    assert first.read_bytes() == second.read_bytes()

    container_a = tmp_path / "ds_a.zsld"
    container_b = tmp_path / "ds_b.zsld"
    save_container(default_dataset, container_a)
    save_container(load_container(container_a), container_b)
    assert container_a.read_bytes() == container_b.read_bytes()
    _report("determinism", "bit-identical checkpoints; byte-exact round-trip")


def test_ablation_harness(default_dataset):
    cfg = TrainConfig(epochs=10, seed=5)
    rows = run_ablation(default_dataset, cfg)
    names = [variant for variant, _, _ in rows]
    assert names == [
        "baseline", "v2a_no_distill", "a2v_no_distill", "v2a_with_distill",
        "a2v_with_distill", "full_jsd_only", "full_l2_only", "full",
    ]
    full, jsd, l2 = (cfg.loss_config(**o) for o in
                     ({}, {"distill_l2": False}, {"distill_jsd": False}))
    _, history = train(default_dataset, cfg, loss_cfg=(full, jsd, l2))
    full_trace, jsd_trace, l2_trace = zip(*(h.total for h in history))
    assert jsd_trace != full_trace, "JSD-only trace identical to full"
    assert l2_trace != full_trace, "L2-only trace identical to full"
    _report("ablation harness", "8 rows; JSD-only and L2-only traces differ")
