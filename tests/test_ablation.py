import tracemalloc

from msdn import zsl_eval
from msdn.ablation import run_ablation
from msdn.data_io import SynthSpec, generate_synthetic
from msdn.training import TrainConfig, train
from msdn.zsl_eval import PredictConfig, evaluate


def test_each_trained_model_forwards_each_test_split_once(tiny_dataset, monkeypatch):
    ds = tiny_dataset
    cfg = TrainConfig(epochs=1, batch_size=8, seed=3)
    forwarded = []
    real_forward = zsl_eval.forward

    def counted_forward(regions, attrs, params):
        forwarded.append(regions.shape[0])
        return real_forward(regions, attrs, params)

    monkeypatch.setattr(zsl_eval, "forward", counted_forward)
    rows = {r.variant: r for r in run_ablation(ds, cfg)}
    # four lockstep models; both test splits fit in one EVAL_CHUNK
    assert len(forwarded) == 4
    assert sum(forwarded) == 4 * (ds.test_unseen_idx.size + ds.test_seen_idx.size)

    # rows that share a model score it like evaluate does
    a2v_only = PredictConfig(alpha1=1.0, alpha2=0.0)
    v2a_only = PredictConfig(alpha1=0.0, alpha2=1.0)
    shared = train(ds, cfg).params
    no_distill = train(ds, cfg, loss_cfg=cfg.loss_config(lambda_distill=0.0)).params
    for variant, params, pcfg in (("v2a_with_distill", shared, v2a_only),
                                  ("a2v_with_distill", shared, a2v_only),
                                  ("full", shared, PredictConfig()),
                                  ("v2a_no_distill", no_distill, v2a_only),
                                  ("a2v_no_distill", no_distill, a2v_only)):
        scored = evaluate(params, ds, pcfg)
        assert (rows[variant].acc, rows[variant].H) == (scored.acc, scored.H), variant


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
