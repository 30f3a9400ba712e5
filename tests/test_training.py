import copy
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import TINY_SPEC, format_kv, patched, stacked
from msdn.data_io import generate_synthetic
from msdn.errors import ArgumentError, DatasetValidationError, NumericError, ShapeError
from msdn import training
from msdn.configfile import load_config
from msdn.data_io import SynthSpec
from msdn.losses import LossTerms, total_loss_raw
from msdn.model import ModelParams, init_params_from_rng
from msdn.ndmath import FlatArrays, Rng
from msdn.training import (
    TrainConfig,
    fit,
    make_batches,
    rmsprop_step,
    train,
    write_history_csv,
)

FAST = TrainConfig(epochs=3, batch_size=8, seed=2)
# The ablation grid's four models: no distillation, full, JSD only, L2 only.
LOCKSTEP_OVERRIDES = ({"lambda_distill": 0.0}, {}, {"distill_l2": False}, {"distill_jsd": False})


def _weights(rng, shapes):
    return FlatArrays.of({f"w{i}": rng.uniform(-1, 1, math.prod(shape[:-1]), shape[-1])
                          .reshape(shape) for i, shape in enumerate(shapes)})


def _one(value):
    return FlatArrays.of({"w": np.array(value, dtype=np.float64)})


class TestRmspropStep:
    def test_fixed_point_at_zero_gradient(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = _one([[1.5, -2.0]])
        rmsprop_step(params, _one([[0.0, 0.0]]), params.zeros_like(), params.zeros_like(), cfg)
        assert np.array_equal(params["w"], [[1.5, -2.0]])

    def test_scalar_hand_evaluated_update(self):
        cfg = TrainConfig()  # lr 1e-4, momentum 0.9, wd 1e-4, rho 0.99, eps 1e-8
        params = _one([[1.0]])
        square_avg = params.zeros_like()
        rmsprop_step(params, _one([[1.0]]), square_avg, params.zeros_like(), cfg)
        # independent scalar evaluation of the documented rule
        g = 1.0 + 1e-4 * 1.0
        sq = 0.99 * 0.0 + 0.01 * g * g
        buf = 0.9 * 0.0 + g / (math.sqrt(sq) + 1e-8)
        expected = 1.0 - 1e-4 * buf
        assert params["w"][0, 0] == pytest.approx(expected, abs=1e-15)
        assert square_avg["w"][0, 0] == pytest.approx(sq, abs=1e-15)

    def test_bit_identical_reruns(self):
        cfg = TrainConfig()
        runs = []
        for _ in range(2):
            params = _weights(Rng(1), [(3, 4)])
            grads = _weights(Rng(2), [(3, 4)])
            rmsprop_step(params, grads, params.zeros_like(), params.zeros_like(), cfg)
            runs.append(params.flat)
        assert np.array_equal(*runs)

    def test_shape_mismatch(self):
        cfg = TrainConfig()
        params = _one(np.zeros((2, 2)))
        grads = _one(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            rmsprop_step(params, grads, params.zeros_like(), params.zeros_like(), cfg)

    @staticmethod
    def steps_against_oracle(shapes):
        cfg = TrainConfig(learning_rate=1e-2, momentum=0.9, weight_decay=1e-2)
        rng = Rng(5)
        params = _weights(rng, shapes)
        square_avg, momentum_buf = params.zeros_like(), params.zeros_like()
        want = ({k: v.copy() for k, v in params.items()}, dict(params.zeros_like()),
                dict(params.zeros_like()))
        for _ in range(4):
            grads = _weights(rng, shapes)
            want_params, want_sq, want_buf = want
            want = oracles.rmsprop_step(want_params, grads, want_sq, want_buf, cfg)
            rmsprop_step(params, grads, square_avg, momentum_buf, cfg)
            for got, expected in zip((params, square_avg, momentum_buf), want):
                for name in params:
                    assert np.array_equal(got[name], expected[name]), name

    def test_steps_match_fresh_array_oracle(self):
        self.steps_against_oracle([(3, 4), (5, 2)])

    @pytest.mark.parametrize("block", [training.STEP_BLOCK, 7], ids=["one_block", "blocks_of_7"])
    def test_stacked_steps_match_fresh_array_oracle(self, monkeypatch, block):
        # Four models on a leading axis; blocks of 7 cut across parameters and models.
        monkeypatch.setattr(training, "STEP_BLOCK", block)
        self.steps_against_oracle([(4, 3, 4), (4, 5, 2)])

    def test_updates_in_place_and_keeps_grads(self):
        params = _weights(Rng(6), [(3, 4), (4, 3)])
        square_avg, momentum_buf = params.zeros_like(), params.zeros_like()
        grads = _weights(Rng(7), [(3, 4), (4, 3)])
        held = [(dict(d), d.flat) for d in (params, square_avg, momentum_buf, grads)]
        rmsprop_step(params, grads, square_avg, momentum_buf, TrainConfig())
        for now, (before, flat) in zip((params, square_avg, momentum_buf, grads), held):
            assert now.keys() == before.keys() and now.flat is flat
            assert all(now[name] is before[name] for name in now)
            assert all(np.shares_memory(now[name], flat) for name in now)

    def test_step_allocates_less_than_one_weight_set(self):
        params = _weights(Rng(8), [(64, 128)] * 5)
        square_avg, momentum_buf = params.zeros_like(), params.zeros_like()
        grads = _weights(Rng(9), [(64, 128)] * 5)
        weight_set = params.flat.nbytes
        tracemalloc.start()
        try:
            rmsprop_step(params, grads, square_avg, momentum_buf, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight_set


class TestMakeBatches:
    def test_partition_sizes(self):
        (batches,) = make_batches(5, 2, 1, Rng(0))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert sorted(np.concatenate(batches).tolist()) == list(range(5))

    def test_same_seed_same_batches(self):
        a = make_batches(20, 6, 3, Rng(9))
        b = make_batches(20, 6, 3, Rng(9))
        assert [x.tolist() for e in a for x in e] == [x.tolist() for e in b for x in e]

    def test_permutation_property(self):
        for n in (1, 7, 33):
            for batches in make_batches(n, 4, 3, Rng(n)):
                merged = np.concatenate(batches)
                assert sorted(merged.tolist()) == list(range(n))
        # 40 items keep their order with probability 1/40!.
        for batches in make_batches(40, 4, 3, Rng(13)):
            assert np.concatenate(batches).tolist() != list(range(40))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.sampled_from([0, 1, 2, 3, 50, 320, 1000]),
           epochs=st.sampled_from([0, 1, 3, 50]))
    def test_every_epoch_matches_scalar_shuffle_oracle(self, seed, n, epochs):
        # One bulk draw gives each epoch the permutation, and the run the end
        # state, of one scalar ``next_below`` call per swap, epoch after epoch.
        fast, scalar = Rng(seed), oracles.ScalarRng(seed)
        got = make_batches(n, 7, epochs, fast)
        assert len(got) == epochs
        for batches in got:
            want = list(range(n))
            oracles.shuffle(scalar, want)
            assert [len(b) for b in batches] == [min(7, n - i) for i in range(0, n, 7)]
            assert [i for b in batches for i in b.tolist()] == want
        assert fast.state == scalar.state

    def test_fit_draws_every_epoch_in_one_call(self, tiny_dataset, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[:3])
            return make_batches(*args)

        monkeypatch.setattr(training, "make_batches", spy)
        train(tiny_dataset, FAST)
        assert calls == [(tiny_dataset.train_idx.size, FAST.batch_size, FAST.epochs)]


def reference_train(ds, cfg, lcfgs):
    """The training loop written out on fresh arrays: the weights it ends with.

    Per-parameter RMSProp through ``oracles.rmsprop_step``, the init and
    the batches drawn one word at a time from ``oracles.ScalarRng`` and one
    ``total_loss_raw`` call per batch.  Like ``train``, it computes in
    float32 from the float32 rounding of the init, and ``lcfgs`` None
    trains one unstacked model.
    """
    rng = oracles.ScalarRng(cfg.seed)
    models = () if lcfgs is None else (len(lcfgs),)
    terms = LossTerms.of((cfg.loss_config(),) if lcfgs is None else lcfgs, models)
    init = init_params_from_rng(ds.visual_dim, ds.attr_dim, rng).astype(np.float32)
    params = {name: np.array(np.broadcast_to(w, models + w.shape))
              for name, w in init.as_dict().items()}
    square_avg = {name: np.zeros_like(w) for name, w in params.items()}
    momentum_buf = {name: np.zeros_like(w) for name, w in params.items()}
    for _ in range(cfg.epochs):
        order = list(range(ds.train_idx.size))
        oracles.shuffle(rng, order)
        for start in range(0, len(order), cfg.batch_size):
            idx = ds.train_idx[order[start:start + cfg.batch_size]]
            _, grads = total_loss_raw(ModelParams(**params), ds.regions(idx),
                                      ds.labels[idx], ds.attributes, ds.class_semantics,
                                      ds.split, terms)
            params, square_avg, momentum_buf = oracles.rmsprop_step(
                params, dict(grads), square_avg, momentum_buf, cfg)
    return params


@pytest.fixture(scope="module")
def stock_dataset():
    return generate_synthetic(SynthSpec())


class TestTrain:
    @pytest.mark.parametrize("lockstep", [False, True], ids=["one_model", "four_models"])
    def test_stock_weights_match_reference_loop(self, stock_dataset, lockstep):
        # The flat buffers, the gradient views and the run's one bulk
        # shuffle draw change no bit of what three stock epochs train.
        cfg = TrainConfig(epochs=3, seed=1)
        lcfg = tuple(cfg.loss_config(**o) for o in LOCKSTEP_OVERRIDES) if lockstep else None
        got, _ = train(stock_dataset, cfg, loss_cfg=lcfg)
        want = reference_train(stock_dataset, cfg, lcfg)
        for name, weights in want.items():
            assert getattr(got, name).tobytes() == weights.tobytes(), name

    def test_params_are_views_of_one_flat_array(self, tiny_dataset):
        params, _ = train(tiny_dataset, FAST)
        flat = params.W1.base
        assert flat is not None and flat.ndim == 1
        assert sum(w.size for w in params.as_dict().values()) == flat.size
        assert all(w.base is flat and w.flags.c_contiguous for w in params.as_dict().values())

    # tracemalloc peak of one epoch of two batches of 8 at K=40, R=30,
    # d_v=256, d_a=40, measured before the weights were flat: 2.741 MB.
    # A gradient set that outlived its step would add 0.41 MB.
    MID_SHAPE_PEAK = 2.741e6

    def test_mid_shape_peak_memory(self):
        spec = SynthSpec(num_seen=4, num_unseen=2, num_attributes=40, num_regions=30,
                         visual_dim=256, attr_dim=40, samples_per_class=5, seed=3)
        ds = generate_synthetic(spec)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2)
        assert ds.train_idx.size == 16
        train(ds, cfg)   # warm numpy's caches outside the measurement
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.MID_SHAPE_PEAK, f"train peaked at {peak / 1e6:.3f} MB"

    def test_each_batch_gradients_die_before_the_next_loss(self, tiny_dataset, monkeypatch):
        # fit owns the gradients and drops them after the step, so no batch's
        # loss runs while the previous batch's gradients are alive.
        refs = []

        def loss(*args):
            assert all(ref() is None for ref in refs), f"batch {len(refs) - 1}'s gradients live"
            breakdown, grads = total_loss_raw(*args)
            refs.append(weakref.ref(grads.flat))
            return breakdown, grads

        monkeypatch.setattr(training, "total_loss_raw", loss)
        train(tiny_dataset, FAST)
        assert len(refs) == FAST.epochs * -(-tiny_dataset.train_idx.size // FAST.batch_size)
        assert refs[-1]() is None

    def test_zero_epochs_returns_initial_params(self, tiny_dataset):
        cfg = dataclasses.replace(FAST, epochs=0)
        params, history = train(tiny_dataset, cfg)
        reference = init_params_from_rng(tiny_dataset.visual_dim, tiny_dataset.attr_dim,
                                         Rng(cfg.seed))
        reference = reference.astype(np.float32)   # the precision training computes in
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            assert np.array_equal(getattr(params, name), getattr(reference, name))
        assert history == []

    def test_deterministic(self, tiny_dataset):
        (a, a_history), (b, b_history) = train(tiny_dataset, FAST), train(tiny_dataset, FAST)
        assert a_history == b_history
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_batch_loop_makes_no_deep_copies(self, tiny_dataset, monkeypatch):
        def no_deepcopy(*args, **kwargs):
            raise AssertionError("copy.deepcopy called while training")

        monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
        _, history = train(tiny_dataset, dataclasses.replace(FAST, epochs=2))
        assert len(history) == 2

    def test_loss_decreases_on_tiny_problem(self, tiny_dataset):
        cfg = dataclasses.replace(FAST, epochs=25)
        _, history = train(tiny_dataset, cfg)
        assert history[-1].total < history[0].total

    def test_monotone_loss_without_aux_terms(self):
        spec = dataclasses.replace(TINY_SPEC, noise_std=0.0)
        ds = generate_synthetic(spec)
        cfg = TrainConfig(epochs=40, lambda_cal=0.0, lambda_distill=0.0,
                          batch_size=50, seed=1)
        totals = [h.total for h in train(ds, cfg)[1]]
        for i in range(5, len(totals) - 1):
            assert totals[i + 1] <= totals[i] + 1e-6

    @pytest.mark.parametrize("batch_size", [8, 1])
    def test_lockstep_models_equal_their_separate_runs(self, tiny_dataset, batch_size):
        cfg = dataclasses.replace(FAST, epochs=4, lambda_distill=0.5, batch_size=batch_size)
        lcfgs = tuple(cfg.loss_config(**o) for o in LOCKSTEP_OVERRIDES)
        lockstep, lockstep_history = train(tiny_dataset, cfg, loss_cfg=lcfgs)
        assert len(lockstep_history) == cfg.epochs
        for p, lcfg in enumerate(lcfgs):
            alone, alone_history = train(tiny_dataset, cfg, loss_cfg=(lcfg,))   # a stack of one
            for name, weights in lockstep.as_dict().items():
                assert np.array_equal(weights[p], getattr(alone, name)[0]), (p, name)
            history = [[field[p] for field in epoch] for epoch in lockstep_history]
            assert np.array_equal(history, [[field[0] for field in epoch]
                                            for epoch in alone_history]), p
        # the full model, trained unstacked from cfg, matches its lockstep row too
        unstacked, unstacked_history = train(tiny_dataset, cfg)
        assert lcfgs[1] == cfg.loss_config()
        for name, weights in lockstep.as_dict().items():
            assert np.array_equal(weights[1], getattr(unstacked, name)), name
        assert np.array_equal([[field[1] for field in epoch] for epoch in lockstep_history],
                              unstacked_history)
        # the four models really differ, so the comparisons above are not vacuous
        firsts = [lockstep.W1[p] for p in range(len(lcfgs))]
        assert all(not np.array_equal(a, b) for i, a in enumerate(firsts) for b in firsts[i + 1:])

    def test_without_distillation_no_gradient_crosses_the_sub_nets(self, tiny_dataset):
        # This is what lets one no-distill model stand in for both single-branch runs.
        ds = tiny_dataset
        cfg = dataclasses.replace(FAST, lambda_distill=0.5)
        base = init_params_from_rng(ds.visual_dim, ds.attr_dim, Rng(1))
        other = init_params_from_rng(ds.visual_dim, ds.attr_dim, Rng(2))
        a2v, v2a = ("W1", "W2"), ("W3", "W4", "W_att")
        models = [base, dataclasses.replace(base, **{n: getattr(other, n) for n in v2a}),
                  dataclasses.replace(base, **{n: getattr(other, n) for n in a2v}), base]
        # a distilling fourth model puts the three others on the zero-weight distill path
        terms = LossTerms.of((cfg.loss_config(lambda_distill=0.0),) * 3 + (cfg.loss_config(),),
                             (4,))

        weights = FlatArrays.of(stacked(models).as_dict())

        def loss_fn(idx):
            return total_loss_raw(ModelParams(**weights), ds.regions(idx),
                                  ds.labels[idx], ds.attributes, ds.class_semantics, ds.split,
                                  terms)

        fit(weights, loss_fn, ds.train_idx, cfg, Rng(cfg.seed))
        for name in a2v:
            assert np.array_equal(weights[name][0], weights[name][1]), name
            assert not np.array_equal(weights[name][0], base.as_dict()[name]), name
        for name in v2a:
            assert np.array_equal(weights[name][0], weights[name][2]), name
        assert not np.array_equal(weights["W1"][0], weights["W1"][3])

    def test_params_stay_finite(self, tiny_dataset):
        params, _ = train(tiny_dataset, dataclasses.replace(FAST, epochs=10))
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            assert np.isfinite(getattr(params, name)).all()

    def test_invalid_dataset_rejected(self, tiny_dataset):
        labels = patched(tiny_dataset.labels, 0, 99)
        with pytest.raises(DatasetValidationError) as exc:
            train(dataclasses.replace(tiny_dataset, labels=labels), FAST)
        assert any("labels must lie in" in m for m in exc.value.violations)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_reports_epoch_and_batch(self, tiny_dataset):
        # Attribute vectors finite in float32, but Psi, quadratic in them,
        # overflows the float32 forward.
        ds = dataclasses.replace(tiny_dataset, attributes=tiny_dataset.attributes * 1e20)
        assert np.isfinite(ds.attributes).all()
        with pytest.raises(NumericError, match=r"epoch 0, batch 0"):
            train(ds, FAST)

    # One batch per epoch, so the epoch's check meets the bad weight before
    # any loss does; the message names the first parameter holding it.
    @pytest.mark.parametrize("lockstep, name, index", [
        (False, "W_att", (-1, -1)), (True, "W4", (3, 0, 0))], ids=["single", "lockstep"])
    def test_non_finite_weight_names_its_parameter(self, tiny_dataset, monkeypatch,
                                                   lockstep, name, index):
        real_step = training.rmsprop_step

        def step_then_nan(params, *args):
            real_step(params, *args)
            params[name][index] = np.nan

        monkeypatch.setattr(training, "rmsprop_step", step_then_nan)
        cfg = dataclasses.replace(FAST, batch_size=tiny_dataset.train_idx.size)
        lcfg = tuple(cfg.loss_config(**o) for o in LOCKSTEP_OVERRIDES) if lockstep else None
        with pytest.raises(NumericError) as exc:
            train(tiny_dataset, cfg, lcfg)
        assert str(exc.value) == f"parameter {name} became non-finite at epoch 0"


class TestTrainConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(epochs=17, seed=3, lambda_cal=0.25, lambda_distill=0.5)
        path = tmp_path / "train.cfg"
        path.write_text(format_kv(cfg))
        assert load_config(TrainConfig, path) == cfg

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rates = 0.1\n")
        with pytest.raises(ArgumentError, match="learning_rates"):
            load_config(TrainConfig, path)

    def test_rejects_invalid_values(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum = 1.5\n")
        with pytest.raises(ArgumentError, match="momentum"):
            load_config(TrainConfig, path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# comment\n\nepochs = 2  # trailing\nseed = 8\n")
        cfg = load_config(TrainConfig, path)
        assert cfg.epochs == 2 and cfg.seed == 8


class TestHistoryCsv:
    def test_header_and_rows(self, tiny_dataset, tmp_path):
        _, history = train(tiny_dataset, FAST)
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,acec_a2v,acec_v2a,distill,total"
        assert len(lines) == 1 + FAST.epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == pytest.approx(history[0].total)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0),
        ("momentum", 1.0),
        ("rms_decay", -0.1),
        ("batch_size", 0),
        ("epochs", -1),
        ("weight_decay", -1e-4),
        ("epsilon_opt", 0.0),
        ("seed", -1),
        ("seed", 2 ** 64),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ArgumentError):
            dataclasses.replace(TrainConfig(), **{field: value})

    def test_largest_seed_accepted(self):
        assert TrainConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
