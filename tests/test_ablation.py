from msdn import zsl_eval
from msdn.ablation import run_ablation
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
    # five distinct loss configs; both test splits fit in one EVAL_CHUNK
    assert len(forwarded) == 5
    assert sum(forwarded) == 5 * (ds.test_unseen_idx.size + ds.test_seen_idx.size)

    # rows that share the jointly trained model score it like evaluate does
    shared = train(ds, cfg).params
    for variant, pcfg in (("v2a_with_distill", PredictConfig(alpha1=0.0, alpha2=1.0)),
                          ("a2v_with_distill", PredictConfig(alpha1=1.0, alpha2=0.0)),
                          ("full", PredictConfig())):
        scored = evaluate(shared, ds, pcfg)
        assert (rows[variant].acc, rows[variant].H) == (scored.acc, scored.H)
