"""Edge cases that cut across modules: malformed inputs, byte-level
determinism of remaining CLI commands, and aggregate invariants."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from conftest import TINY_SPEC, format_kv
from msdn import cli
from msdn.configfile import load_config
from msdn.data_io import SynthSpec, write_container
from msdn.errors import ArgumentError, ContainerFormatError, ShapeError
from msdn.losses import LossConfig
from msdn.model import init_params_from_rng, save_checkpoint, load_checkpoint
from msdn.ndmath import Rng, grad_check_detail
from msdn.training import TrainConfig, train
from msdn.zsl_eval import PredictConfig


class TestRngArguments:
    def test_uniform_rejects_bad_shape(self):
        with pytest.raises(ArgumentError):
            Rng(0).uniform(0.0, 1.0, 0, 3)


class TestGradCheckArguments:
    def test_analytic_shape_mismatch(self):
        with pytest.raises(ShapeError):
            grad_check_detail(lambda x: float(x.sum()), np.zeros(3), np.zeros(2))


class TestCheckpointValidation:
    def test_wrong_tensor_shape_rejected(self, tmp_path):
        params = init_params_from_rng(4, 3, Rng(1))
        path = tmp_path / "ckpt.zsld"
        save_checkpoint(params, path, 5, 2)
        # corrupt: swap W1's declared payload with a wrong-shaped tensor
        from msdn.data_io import read_container

        items = []
        for name, arr in read_container(path):
            if name == "W1":
                arr = np.zeros((2, 2), dtype=np.float64)
            items.append((name, arr))
        write_container(path, items)
        with pytest.raises(ContainerFormatError, match="W1"):
            load_checkpoint(path)

    def test_bad_dims_vector_rejected(self, tmp_path):
        from msdn.data_io import read_container

        path = tmp_path / "ckpt.zsld"
        save_checkpoint(init_params_from_rng(4, 3, Rng(1)), path, 5, 2)
        items = [(n, (np.arange(3, dtype=np.int32) if n == "dims" else a))
                 for n, a in read_container(path)]
        write_container(path, items)
        with pytest.raises(ContainerFormatError, match="dims"):
            load_checkpoint(path)

    def test_float_dims_vector_rejected(self, tmp_path):
        from msdn.data_io import read_container

        path = tmp_path / "ckpt.zsld"
        save_checkpoint(init_params_from_rng(4, 3, Rng(1)), path, 5, 2)
        items = [(n, (np.array([4.0, 3.0, np.nan, 2.0]) if n == "dims" else a))
                 for n, a in read_container(path)]
        write_container(path, items)
        with pytest.raises(ContainerFormatError, match="dims must be 4 integers"):
            load_checkpoint(path)

    def test_integer_weight_rejected(self, tmp_path):
        from msdn.data_io import read_container

        path = tmp_path / "ckpt.zsld"
        save_checkpoint(init_params_from_rng(4, 3, Rng(1)), path, 5, 2)
        items = [(n, (a if n == "dims" else a.astype(np.int32)))
                 for n, a in read_container(path)]
        write_container(path, items)
        with pytest.raises(ContainerFormatError, match="W1 must have a float dtype"):
            load_checkpoint(path)


class TestHistoryBreakdownInvariant:
    def test_epoch_rows_satisfy_total_identity(self, tiny_dataset):
        cfg = TrainConfig(epochs=6, batch_size=7, seed=12)
        _, history = train(tiny_dataset, cfg)
        for row in history:
            expected = row.acec_a2v + row.acec_v2a + cfg.lambda_distill * row.distill
            assert row.total == pytest.approx(expected, abs=1e-12)


class TestKvFile:
    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ArgumentError, match="key=value"):
            load_config(TrainConfig, path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs = 1\nepochs = 2\n")
        with pytest.raises(ArgumentError, match="duplicate"):
            load_config(TrainConfig, path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(" = 2\n")
        with pytest.raises(ArgumentError, match="empty key"):
            load_config(TrainConfig, path)

    @pytest.mark.parametrize("first", ["no_such_key = 1", "epochs = many", "momentum = 1.5"])
    @pytest.mark.parametrize("later,message", [("epochs 3", r":3: expected key=value"),
                                               ("first = 1\nfirst = 2", r":4: duplicate key"),
                                               (" = 2", r":3: empty key")])
    def test_malformed_line_reported_before_any_key_is_checked(self, tmp_path, first, later,
                                                               message):
        path = tmp_path / "cfg"
        path.write_text(f"{first}\n# comment\n{later}\n")
        with pytest.raises(ArgumentError, match=message):
            load_config(TrainConfig, path)

    def test_keys_checked_in_file_order(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs = many\nno_such_key = 1\n")
        with pytest.raises(ArgumentError, match="cannot parse 'many' as int"):
            load_config(TrainConfig, path)
        path.write_text("no_such_key = 1\nepochs = many\n")
        with pytest.raises(ArgumentError, match="unknown config key 'no_such_key'"):
            load_config(TrainConfig, path)

    @pytest.mark.parametrize("cls", [TrainConfig, SynthSpec])
    def test_file_configs_have_only_int_and_float_fields(self, cls):
        # A value parses as field_type(value), and bool("false") is True, so a
        # bool field read from a file would need a parser of its own.
        hints = typing.get_type_hints(cls)
        assert {hints[f.name] for f in dataclasses.fields(cls)} <= {int, float}


_CONFIGS = (SynthSpec, TrainConfig, LossConfig, PredictConfig)
_FLOAT_FIELDS = [(cls, f.name) for cls in _CONFIGS for f in dataclasses.fields(cls)
                 if typing.get_type_hints(cls)[f.name] is float]
_BUILDERS = {
    "construct": lambda cls, name, value, path: cls(**{name: value}),
    "replace": lambda cls, name, value, path: dataclasses.replace(cls(), **{name: value}),
    "from_file": lambda cls, name, value, path: (path.write_text(f"{name} = {value}\n"),
                                                 load_config(cls, path)),
}


class TestConfigsRejectNonFinite:
    @pytest.mark.parametrize("cls,name", _FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in _FLOAT_FIELDS])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("build", sorted(_BUILDERS))
    def test_every_float_field(self, cls, name, value, build, tmp_path):
        with pytest.raises(ArgumentError, match=f"{cls.__name__}.{name} must be finite"):
            _BUILDERS[build](cls, name, value, tmp_path / "cfg")


@pytest.fixture()
def pipeline(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(format_kv(TINY_SPEC))
    data = tmp_path / "data.zsld"
    cli.main(["gen-data", "--spec", str(spec), "--out", str(data)])
    cfg = tmp_path / "train.cfg"
    cfg.write_text(format_kv(TrainConfig(epochs=2, batch_size=8, seed=3)))
    ckpt = tmp_path / "model.ckpt"
    cli.main(["train", "--data", str(data), "--config", str(cfg),
              "--out", str(ckpt)])
    return data, ckpt, tmp_path


class TestRemainingCliDeterminism:
    def test_eval_byte_deterministic(self, pipeline):
        data, ckpt, tmp_path = pipeline
        a, b = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (a, b):
            assert cli.main(["eval", "--data", str(data), "--checkpoint",
                             str(ckpt), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_export_attention_byte_deterministic(self, pipeline):
        data, ckpt, tmp_path = pipeline
        dirs = (tmp_path / "e1", tmp_path / "e2")
        for out in dirs:
            assert cli.main(["export-attention", "--data", str(data),
                             "--checkpoint", str(ckpt), "--image", "1",
                             "--out", str(out)]) == 0
        for name in ("beta.csv", "tau.csv", "scores.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_grad_check_env_seed_override(self, pipeline, monkeypatch, capsys):
        monkeypatch.setenv("MSDN_SEED", "4")
        assert cli.main(["grad-check", "--seed", "123456"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("MSDN_SEED")
        assert cli.main(["grad-check", "--seed", "4"]) == 0
        assert capsys.readouterr().out == with_env


class TestSynthSpecEdge:
    def test_single_sample_per_class_has_empty_seen_test_split(self):
        from msdn.data_io import generate_synthetic, validate_dataset

        spec = dataclasses.replace(TINY_SPEC, samples_per_class=1)
        ds = generate_synthetic(spec)
        assert validate_dataset(ds) == []
        assert ds.test_seen_idx.size == 0
        assert ds.train_idx.size == TINY_SPEC.num_seen

    def test_active_attributes_bounds_checked(self):
        with pytest.raises(ArgumentError, match="active_attributes"):
            dataclasses.replace(TINY_SPEC, active_attributes=99)
