import tracemalloc

import numpy as np

from msdn import ablation, zsl_eval
from msdn.ablation import run_ablation
from msdn.data_io import SynthSpec, generate_synthetic
from msdn.model import ModelParams, init_params_from_rng, load_checkpoint, save_checkpoint
from msdn.ndmath import Rng
from msdn.training import TrainConfig, train
from msdn.zsl_eval import PredictConfig, evaluate, forward_test_splits


def test_each_trained_model_forwards_each_test_split_once(tiny_dataset, monkeypatch):
    ds = tiny_dataset
    cfg = TrainConfig(epochs=1, batch_size=8, seed=3)
    forwarded, scored = [], []
    real_forward, real_report = zsl_eval.forward, ablation.report

    def counted_forward(regions, attrs, params):
        forwarded.append(regions.shape[1])
        return real_forward(regions, attrs, params)

    def recorded_report(ds, embedding):
        scored.append(embedding)
        return real_report(ds, embedding)

    monkeypatch.setattr(zsl_eval, "forward", counted_forward)
    monkeypatch.setattr(ablation, "report", recorded_report)
    results = run_ablation(ds, cfg)
    # the four lockstep models share one stacked pass; both test splits fit in one EVAL_CHUNK
    assert forwarded == [ds.test_idx.size]
    assert len(results) == len(scored) == 8
    # plain (variant, acc, H) rows: the baseline's row scores the first embedding
    rows = {variant: (acc, H, embedding)
            for (variant, acc, H), embedding in zip(results, scored)}

    # Every MSDN row scores the embeddings of a separately trained model with
    # its fusion, bit for bit; the tiny test splits alone leave several rows
    # with equal acc and H, so the embeddings are compared too.
    a2v_only = PredictConfig(alpha1=1.0, alpha2=0.0)
    v2a_only = PredictConfig(alpha1=0.0, alpha2=1.0)

    def alone(overrides):
        """The weights of one model trained on its own, as a stack of one."""
        params, _ = train(ds, cfg, loss_cfg=(cfg.loss_config(**overrides),))
        return ModelParams(**{name: w[0] for name, w in params.as_dict().items()})

    full, no_distill, jsd_only, l2_only = (
        alone(o) for o in ({}, {"lambda_distill": 0.0}, {"distill_l2": False},
                           {"distill_jsd": False}))
    for variant, params, pcfg in (("v2a_no_distill", no_distill, v2a_only),
                                  ("a2v_no_distill", no_distill, a2v_only),
                                  ("v2a_with_distill", full, v2a_only),
                                  ("a2v_with_distill", full, a2v_only),
                                  ("full_jsd_only", jsd_only, PredictConfig()),
                                  ("full_l2_only", l2_only, PredictConfig()),
                                  ("full", full, PredictConfig())):
        acc, H, embedding = rows[variant]
        assert np.array_equal(embedding, pcfg.fuse(*forward_test_splits(params, ds))), variant
        alone = evaluate(params, ds, pcfg)
        assert (acc, H) == (alone.acc, alone.H), variant


def test_each_embedding_is_scored_once(monkeypatch):
    # One calibrated score matrix over all test columns serves both CZSL and
    # GZSL: one per report, and the grid reports eight rows.
    ds = generate_synthetic(SynthSpec())
    calls = []
    real_scores = zsl_eval.calibrated_scores

    def counted_scores(embedding, class_semantics, split):
        calls.append(embedding.shape)
        return real_scores(embedding, class_semantics, split)

    monkeypatch.setattr(zsl_eval, "calibrated_scores", counted_scores)
    evaluate(init_params_from_rng(ds.visual_dim, ds.attr_dim, Rng(1)), ds, PredictConfig())
    assert calls == [(ds.num_attributes, ds.test_idx.size)]
    calls.clear()
    run_ablation(ds, TrainConfig(epochs=1, seed=1))
    assert calls == [(ds.num_attributes, ds.test_idx.size)] * 8


def test_lockstep_grid_peak_memory():
    # Four stacked models multiply one pass's maps; in-place temporaries keep the peak down.
    ds = generate_synthetic(SynthSpec())
    cfg = TrainConfig(epochs=5, seed=1)
    tracemalloc.start()
    try:
        run_ablation(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6, f"run_ablation peaked at {peak / 1e6:.2f} MB"


def test_full_model_embeds_as_its_checkpoint(tmp_path, monkeypatch):
    # ablate and train -> save -> load compute in one precision, float32, so the
    # grid's full model and the checkpoint of the same run embed the test
    # splits bit for bit alike.
    ds = generate_synthetic(SynthSpec())
    cfg = TrainConfig(epochs=5, seed=1)
    grid = []

    def recorded(params, ds):
        grid.append(forward_test_splits(params, ds))
        return grid[-1]

    monkeypatch.setattr(ablation, "forward_test_splits", recorded)
    run_ablation(ds, cfg)
    assert ablation.MODELS[1] == {} and ("full", 1, None) in ablation.ROWS
    save_checkpoint(train(ds, cfg)[0], tmp_path / "model.zsld", ds.num_attributes, ds.num_regions)
    checkpoint = forward_test_splits(load_checkpoint(tmp_path / "model.zsld")[0], ds)
    (lockstep,) = grid
    for got, want in zip(lockstep, checkpoint):
        assert got[1].tobytes() == want.tobytes()
