import dataclasses

import numpy as np
import pytest

from msdn.data_io import Dataset, SynthSpec, generate_synthetic

TINY_SPEC = SynthSpec(
    num_seen=3,
    num_unseen=2,
    num_attributes=4,
    num_regions=3,
    visual_dim=5,
    attr_dim=3,
    samples_per_class=6,
    noise_std=0.05,
    seed=11,
)


def format_kv(obj) -> str:
    """A config dataclass as the key = value lines that configfile parses."""
    return "".join(f"{f.name} = {getattr(obj, f.name)}\n" for f in dataclasses.fields(obj))


def patched(arr: np.ndarray, index, value) -> np.ndarray:
    """A copy of ``arr`` with ``arr[index] = value``; dataset arrays are read-only."""
    out = arr.copy()
    out[index] = value
    return out


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    return generate_synthetic(TINY_SPEC)


def acec(scores, labels, seen, unseen, lambda_cal):
    """ACEC loss and score gradient of a single (batch, C) score block.

    Row-major like the scalar oracles; ``acec_loss`` reads and returns
    the class-major transpose.
    """
    from msdn.data_io import ClassSplit
    from msdn.losses import acec_loss

    (loss,), grad, _ = acec_loss(scores.T, labels, ClassSplit.of(seen, unseen), lambda_cal)
    return loss, grad.T


def distill(scores1, scores2, cfg):
    """Distillation between the seen-class softmaxes of two (batch, classes) score batches."""
    from msdn.errors import ShapeError
    from msdn.losses import LossTerms, distill_loss
    from msdn.ndmath import softmax_stable

    if scores1.shape != scores2.shape:
        raise ShapeError(f"unequal score batches {scores1.shape} and {scores2.shape}")
    pair = np.stack([softmax_stable(s, axis=1).T for s in (scores1, scores2)], axis=-2)
    loss, grad = distill_loss(pair, LossTerms.of((cfg,)))
    return loss, grad[..., 0, :].T, grad[..., 1, :].T


def random_instance(seed: int, k=3, r=2, d_v=4, d_a=3, c_seen=3, c_unseen=2, batch=2):
    """Random tiny problem instance shared by oracle-equivalence tests.

    Image b's (r, d_v) regions are ``regions[:, b]`` of the (r, batch, d_v) stack.
    """
    from msdn.model import init_params_from_rng
    from msdn.ndmath import Rng

    rng = Rng(seed)
    params = init_params_from_rng(d_v, d_a, rng)
    regions = np.stack([rng.uniform(-1.0, 1.0, r, d_v) for _ in range(batch)], axis=1)
    attrs = rng.uniform(-1.0, 1.0, k, d_a)
    semantics = rng.uniform(0.0, 1.0, c_seen + c_unseen, k)
    labels = (rng.uniform(0.0, 1.0, 1, batch)[0] * c_seen).astype(np.intp)
    seen = np.arange(c_seen)
    unseen = np.arange(c_seen, c_seen + c_unseen)
    return params, regions, attrs, semantics, labels, seen, unseen


def stacked(models):
    """The weights of several models stacked on a leading model axis."""
    from msdn.model import ModelParams

    return ModelParams(**{name: np.stack([m.as_dict()[name] for m in models])
                          for name in models[0].as_dict()})


def directional_errors(loss, params, grads, seed, directions=3):
    """The analytic gradient of ``loss`` checked along random unit directions.

    For each matrix W of ``params`` and unit direction u, the central
    difference (loss(W + hu) - loss(W - hu)) / 2h with h = 1e-5 max(1, |W|)
    is compared with <grads[W], u>, relative to max(1, |numeric|,
    |analytic|) as in ``ndmath.grad_check_detail``.  Returns, per matrix,
    the worst direction's (relative error, |<grads[W], u>|).
    """
    rng = np.random.default_rng(seed)
    worst = {}
    for name, w in params.as_dict().items():
        step = 1e-5 * max(1.0, float(np.linalg.norm(w)))
        for _ in range(directions):
            u = rng.standard_normal(w.shape)
            u /= np.linalg.norm(u)
            plus, minus = (loss(dataclasses.replace(params, **{name: w + sign * step * u}))
                           for sign in (1.0, -1.0))
            numeric, analytic = (plus - minus) / (2.0 * step), float(np.vdot(grads[name], u))
            err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            if name not in worst or err > worst[name][0]:
                worst[name] = (err, abs(analytic))
    return worst
