import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import platform
import struct
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY_SPEC, format_kv
from msdn import ablation, cli, data_io, losses, model, training
from msdn.data_io import load_container, read_container, write_container
from msdn.model import forward, load_checkpoint, save_checkpoint
from msdn.training import TrainConfig
from msdn.zsl_eval import PredictConfig, evaluate

FAST_TRAIN = TrainConfig(epochs=2, batch_size=8, seed=3)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text(format_kv(TINY_SPEC))
    return path


@pytest.fixture()
def data_file(tmp_path, spec_file):
    path = tmp_path / "data.zsld"
    assert cli.main(["gen-data", "--spec", str(spec_file), "--out", str(path)]) == 0
    return path


@pytest.fixture()
def train_cfg_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(format_kv(FAST_TRAIN))
    return path


@pytest.fixture()
def checkpoint_file(tmp_path, data_file, train_cfg_file):
    path = tmp_path / "model.zsld"
    rc = cli.main(["train", "--data", str(data_file), "--config",
                   str(train_cfg_file), "--out", str(path)])
    assert rc == 0
    return path


class TestGenData:
    def test_output_loads_clean(self, data_file):
        ds = load_container(data_file)
        assert ds.num_samples == TINY_SPEC.samples_per_class * 5

    def test_same_seed_byte_identical(self, tmp_path, spec_file):
        a, b = tmp_path / "a.zsld", tmp_path / "b.zsld"
        cli.main(["gen-data", "--spec", str(spec_file), "--seed", "5", "--out", str(a)])
        cli.main(["gen-data", "--spec", str(spec_file), "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_usage_error(self, spec_file, capsys):
        assert cli.main(["gen-data", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_prints_tensor_shapes(self, tmp_path, spec_file, capsys):
        cli.main(["gen-data", "--spec", str(spec_file),
                  "--out", str(tmp_path / "s.zsld")])
        out = capsys.readouterr().out
        assert "features" in out and "(30, 3, 5)" in out

    def test_env_seed_overrides_flag(self, tmp_path, spec_file, monkeypatch):
        a, b = tmp_path / "a.zsld", tmp_path / "b.zsld"
        monkeypatch.setenv("MSDN_SEED", "21")
        cli.main(["gen-data", "--spec", str(spec_file), "--seed", "5", "--out", str(a)])
        monkeypatch.delenv("MSDN_SEED")
        cli.main(["gen-data", "--spec", str(spec_file), "--seed", "21", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("num_unseen = 0\n")
        rc = cli.main(["gen-data", "--spec", str(bad),
                       "--out", str(tmp_path / "x.zsld")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTrain:
    def test_checkpoint_round_trips(self, checkpoint_file, data_file):
        _, dims = load_checkpoint(checkpoint_file)
        ds = load_container(data_file)
        assert dims == (ds.visual_dim, ds.attr_dim, ds.num_attributes, ds.num_regions)

    def test_identical_inputs_identical_checkpoints(
        self, tmp_path, data_file, train_cfg_file
    ):
        a, b = tmp_path / "a.zsld", tmp_path / "b.zsld"
        for path in (a, b):
            cli.main(["train", "--data", str(data_file), "--config",
                      str(train_cfg_file), "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_replaces_checkpoint_not_truncates(
        self, tmp_path, data_file, train_cfg_file
    ):
        path = tmp_path / "model.zsld"
        runs = []
        for _ in range(2):
            assert cli.main(["train", "--data", str(data_file), "--config",
                             str(train_cfg_file), "--out", str(path)]) == 0
            runs.append((hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_ino))
        (digest_a, inode_a), (digest_b, inode_b) = runs
        assert digest_a == digest_b and inode_a != inode_b
        assert not list(tmp_path.glob(".*.tmp"))

    def test_corrupted_data_exits_3(self, tmp_path, data_file, train_cfg_file, capsys):
        blob = bytearray(data_file.read_bytes())
        blob[:4] = b"XXXX"
        data_file.write_bytes(bytes(blob))
        rc = cli.main(["train", "--data", str(data_file), "--config",
                       str(train_cfg_file), "--out", str(tmp_path / "c.zsld")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error: ")

    def test_history_csv_written(self, tmp_path, data_file, train_cfg_file):
        history = tmp_path / "history.csv"
        cli.main(["train", "--data", str(data_file), "--config", str(train_cfg_file),
                  "--out", str(tmp_path / "m.zsld"), "--history", str(history)])
        rows = history.read_text().strip().splitlines()
        assert rows[0] == "epoch,acec_a2v,acec_v2a,distill,total"
        assert len(rows) == 1 + FAST_TRAIN.epochs

    def test_zero_epochs_writes_initial_weights_and_a_header_only_history(
            self, tmp_path, data_file, capsys):
        cfg, ckpt, history = (tmp_path / n for n in ("zero.cfg", "m.zsld", "history.csv"))
        cfg.write_text("epochs = 0\n")
        assert cli.main(["train", "--data", str(data_file), "--config", str(cfg),
                         "--out", str(ckpt), "--history", str(history)]) == 0
        assert capsys.readouterr().out == "trained 0 epochs (parameters left at initialization)\n"
        assert history.read_bytes() == b"epoch,acec_a2v,acec_v2a,distill,total\r\n"
        assert load_checkpoint(ckpt)[1] == (TINY_SPEC.visual_dim, TINY_SPEC.attr_dim,
                                            TINY_SPEC.num_attributes, TINY_SPEC.num_regions)


class TestEval:
    def test_modes_emit_consistent_metrics(self, tmp_path, data_file,
                                           checkpoint_file, capsys):
        out_czsl = tmp_path / "czsl.csv"
        out_gzsl = tmp_path / "gzsl.csv"
        assert cli.main(["eval", "--data", str(data_file), "--checkpoint",
                         str(checkpoint_file), "--mode", "czsl",
                         "--out", str(out_czsl)]) == 0
        czsl_line = capsys.readouterr().out.strip()
        assert czsl_line.startswith("acc ")
        assert cli.main(["eval", "--data", str(data_file), "--checkpoint",
                         str(checkpoint_file), "--mode", "gzsl",
                         "--out", str(out_gzsl)]) == 0
        gzsl_line = capsys.readouterr().out.strip()
        assert gzsl_line.startswith("U ")
        # the metric CSV carries all four metrics in both modes
        assert out_czsl.read_bytes() == out_gzsl.read_bytes()
        rows = dict(
            line.split(",") for line in
            out_czsl.read_text().strip().splitlines()[1:]
        )
        assert set(rows) == {"acc", "U", "S", "H"}

    def test_single_unseen_class_perfect_czsl(self, tmp_path):
        spec = tmp_path / "spec1.cfg"
        spec.write_text(
            "num_seen = 3\nnum_unseen = 1\nnum_attributes = 4\nnum_regions = 3\n"
            "visual_dim = 5\nattr_dim = 3\nsamples_per_class = 6\n"
            "noise_std = 0.05\nseed = 2\n"
        )
        data = tmp_path / "one.zsld"
        cli.main(["gen-data", "--spec", str(spec), "--out", str(data)])
        cfg = tmp_path / "t.cfg"
        cfg.write_text(format_kv(FAST_TRAIN))
        ckpt = tmp_path / "one.ckpt"
        cli.main(["train", "--data", str(data), "--config", str(cfg),
                  "--out", str(ckpt)])
        out = tmp_path / "one.csv"
        cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                  "--mode", "czsl", "--out", str(out)])
        rows = dict(line.split(",") for line in
                    out.read_text().strip().splitlines()[1:])
        assert float(rows["acc"]) == 1.0

    def test_zero_fusion_exits_2(self, tmp_path, data_file, checkpoint_file):
        rc = cli.main(["eval", "--data", str(data_file), "--checkpoint",
                       str(checkpoint_file), "--alpha1", "0", "--alpha2", "0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_dim_mismatch_exits_5(self, tmp_path, checkpoint_file):
        other_spec = tmp_path / "other.cfg"
        other_spec.write_text(
            "num_seen = 3\nnum_unseen = 2\nnum_attributes = 4\nnum_regions = 3\n"
            "visual_dim = 7\nattr_dim = 3\nsamples_per_class = 6\n"
            "noise_std = 0.05\nseed = 11\n"
        )
        other_data = tmp_path / "other.zsld"
        cli.main(["gen-data", "--spec", str(other_spec), "--out", str(other_data)])
        rc = cli.main(["eval", "--data", str(other_data), "--checkpoint",
                       str(checkpoint_file), "--out", str(tmp_path / "y.csv")])
        assert rc == 5

    @pytest.mark.parametrize("out", ["missing_dir/m.csv", "a_dir", "m.csv/"])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, data_file, checkpoint_file,
                                              monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_dir").mkdir()
        rc = cli.main(["eval", "--data", str(data_file), "--checkpoint",
                       str(checkpoint_file), "--out", out])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"'{out}'" in err[0], err
        assert not list(tmp_path.rglob(".*.tmp"))

    def test_per_class_csv(self, tmp_path, data_file, checkpoint_file):
        per_class = tmp_path / "classes.csv"
        cli.main(["eval", "--data", str(data_file), "--checkpoint",
                  str(checkpoint_file), "--out", str(tmp_path / "m.csv"),
                  "--per-class", str(per_class)])
        with open(per_class) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class_id", "split", "accuracy"]
        assert len(rows) == 1 + 5


class TestGradCheck:
    def test_default_dims_pass(self, capsys):
        assert cli.main(["grad-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "W_att max_rel_error=" in out and "all gradients ok" in out

    def test_two_seeds_pass(self):
        assert cli.main(["grad-check", "--seed", "1"]) == 0
        assert cli.main(["grad-check", "--seed", "2"]) == 0

    def test_checks_the_region_major_fold_that_training_runs(self, monkeypatch):
        exact = losses.total_loss_raw
        stacks = []

        def recorded(params, regions, *args):
            stacks.append(regions)
            return exact(params, regions, *args)

        monkeypatch.setattr(losses, "total_loss_raw", recorded)
        assert cli.main(["grad-check", "--seed", "0"]) == 0
        # C-order (R, B, d_v) arrays, as Dataset.regions gives
        assert stacks and all(s.flags.c_contiguous for s in stacks)

    def test_injected_bug_exits_6(self, monkeypatch, capsys):
        exact = losses.total_loss_raw

        def w2_gradient_off_by_10_percent(*args):
            breakdown, grads = exact(*args)
            return breakdown, {**grads, "W2": grads["W2"] * 1.1}

        monkeypatch.setattr(losses, "total_loss_raw", w2_gradient_off_by_10_percent)
        assert cli.main(["grad-check", "--seed", "0"]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "W2" in err and "coordinate" in err

    def test_nan_gradient_exits_6_with_one_error_line(self, monkeypatch, capsys):
        exact = model.backward

        def nan_at_one_w_att_coordinate(*args):
            grads = exact(*args)
            grads["W_att"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(model, "backward", nan_at_one_w_att_coordinate)
        assert cli.main(["grad-check", "--seed", "0"]) == 6
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and "W_att" in captured.err
        assert "all gradients ok" not in captured.out

    def test_malformed_dims_exit_2(self):
        assert cli.main(["grad-check", "--dims", "1,2,3"]) == 2

    @pytest.mark.parametrize("dims", ["0,4,8,6,3,2", "5,4,8,6,0,2", "5,0,8,6,3,2",
                                      "5,4,8,6,3,-1"])
    def test_out_of_range_dims_exit_2(self, capsys, dims):
        assert cli.main(["grad-check", "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: --dims ")
        assert captured.out == ""

    def test_no_unseen_classes_allowed(self, capsys):
        assert cli.main(["grad-check", "--dims", "5,4,8,6,3,0"]) == 0
        assert "all gradients ok" in capsys.readouterr().out


class TestConfigProbes:
    """Malformed configs, flags and MSDN_SEED exit 2 before any training."""

    @staticmethod
    def exits_2_untrained(monkeypatch, capsys, argv):
        fits = []
        real_fit = training.fit

        def counted_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        for module in (training, ablation):
            monkeypatch.setattr(module, "fit", counted_fit)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert fits == []
        return err

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "epsilon_opt",
                                       "lambda_cal", "lambda_distill"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_non_finite_config(self, tmp_path, data_file, monkeypatch, capsys,
                                     field, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"epochs = 2\nbatch_size = 8\n{field} = {value}\n")
        self.exits_2_untrained(monkeypatch, capsys, [
            "train", "--data", data_file, "--config", cfg, "--out", tmp_path / "m.zsld"])

    def test_train_rejects_calibration_sign(self, tmp_path, data_file, monkeypatch, capsys):
        cfg = tmp_path / "sign.cfg"
        cfg.write_text("epochs = 2\nbatch_size = 8\ncalibration_sign = prose\n")
        assert "'calibration_sign'" in self.exits_2_untrained(monkeypatch, capsys, [
            "train", "--data", data_file, "--config", cfg, "--out", tmp_path / "m.zsld"])

    def test_gen_data_nan_noise(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("noise_std = nan\n")
        self.exits_2_untrained(monkeypatch, capsys, [
            "gen-data", "--spec", spec, "--out", tmp_path / "x.zsld"])

    # The container packs each dimension as "<I"; the last spec overflows
    # only in (num_seen + num_unseen) * samples_per_class.
    @pytest.mark.parametrize("spec_text", [
        "samples_per_class = 1000000000000\n",
        f"visual_dim = {2 ** 32}\n",
        f"num_seen = {2 ** 31}\nnum_unseen = {2 ** 31}\nsamples_per_class = 1\n",
    ])
    def test_gen_data_oversized_spec(self, tmp_path, monkeypatch, capsys, spec_text):
        def no_generation(spec):
            raise AssertionError("generate_synthetic ran on an oversized spec")

        monkeypatch.setattr(data_io, "generate_synthetic", no_generation)
        spec = tmp_path / "big.spec"
        spec.write_text(spec_text)
        err = self.exits_2_untrained(monkeypatch, capsys, [
            "gen-data", "--spec", spec, "--out", tmp_path / "big.zsld"])
        assert "2^32" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 3.27 PiB", ""])
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys, message):
        def out_of_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr(data_io, "generate_synthetic", out_of_memory)
        err = self.exits_2_untrained(monkeypatch, capsys, [
            "gen-data", "--out", tmp_path / "x.zsld"])
        assert err.startswith("error: out of memory: ")
        assert not (tmp_path / "x.zsld").exists()

    def test_eval_infinite_alpha(self, tmp_path, data_file, checkpoint_file,
                                 monkeypatch, capsys):
        self.exits_2_untrained(monkeypatch, capsys, [
            "eval", "--data", data_file, "--checkpoint", checkpoint_file,
            "--alpha1", "inf", "--out", tmp_path / "x.csv"])

    def test_ablate_negative_alpha(self, tmp_path, data_file, train_cfg_file,
                                   monkeypatch, capsys):
        self.exits_2_untrained(monkeypatch, capsys, [
            "ablate", "--data", data_file, "--config", train_cfg_file,
            "--alpha1", "-1", "--out", tmp_path / "x.csv"])

    # Non-integers, and integers outside [0, 2**64) that Rng would alias.
    @pytest.mark.parametrize("seed", ["abc", "1.5", "-3", str(2 ** 64)])
    @pytest.mark.parametrize("command", ["gen-data", "grad-check"])
    def test_non_integer_env_seed(self, tmp_path, spec_file, monkeypatch, capsys,
                                  seed, command):
        monkeypatch.setenv("MSDN_SEED", seed)
        argv = {"gen-data": ["gen-data", "--spec", spec_file, "--out", tmp_path / "x.zsld"],
                "grad-check": ["grad-check"]}[command]
        assert "MSDN_SEED" in self.exits_2_untrained(monkeypatch, capsys, argv)

    @pytest.mark.parametrize("seed", [-5, 2 ** 64 + 7])
    @pytest.mark.parametrize("command", ["gen-data", "grad-check"])
    def test_out_of_range_flag_seed(self, tmp_path, monkeypatch, capsys, seed, command):
        argv = {"gen-data": ["gen-data", "--out", tmp_path / "x.zsld"],
                "grad-check": ["grad-check"]}[command]
        assert "--seed" in self.exits_2_untrained(monkeypatch, capsys, [*argv, "--seed", seed])
        assert not (tmp_path / "x.zsld").exists()

    @pytest.mark.parametrize("seed", [-5, 99999999999999999999999])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_out_of_range_config_seed(self, tmp_path, data_file, monkeypatch, capsys,
                                      seed, command):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed = {seed}\n")
        argv = {"gen-data": ["gen-data", "--spec", cfg, "--out", tmp_path / "x.zsld"],
                "train": ["train", "--data", data_file, "--config", cfg,
                          "--out", tmp_path / "m.zsld"]}[command]
        assert ".seed must lie in" in self.exits_2_untrained(monkeypatch, capsys, argv)

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_non_utf8_file(self, tmp_path, data_file, monkeypatch, capsys, command):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"epochs = 2\n\xff\xfe = 1\n")
        argv = {"gen-data": ["gen-data", "--spec", bad, "--out", tmp_path / "x.zsld"],
                "train": ["train", "--data", data_file, "--config", bad,
                          "--out", tmp_path / "m.zsld"]}[command]
        assert "not UTF-8" in self.exits_2_untrained(monkeypatch, capsys, argv)


class TestValidatesOnce:
    def test_one_validation_per_dataset_built(self, tmp_path, data_file, train_cfg_file,
                                              monkeypatch):
        validations, loads = [], []
        real_validate, real_load = data_io.validate_dataset, data_io.load_container

        def counted_validate(ds):
            validations.append(ds)
            return real_validate(ds)

        def counted_load(path):
            loads.append(path)
            return real_load(path)

        # Every module that holds the function, so a re-check by any name counts.
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "msdn"
                    and getattr(module, "validate_dataset", None) is real_validate):
                monkeypatch.setattr(module, "validate_dataset", counted_validate)
        monkeypatch.setattr(data_io, "load_container", counted_load)
        ckpt = tmp_path / "m.zsld"
        assert cli.main(["train", "--data", str(data_file), "--config",
                         str(train_cfg_file), "--out", str(ckpt)]) == 0
        assert cli.main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "metrics.csv")]) == 0
        assert len(loads) == 2
        assert len(validations) == len(loads)


class TestBuildsSplitOnce:
    """Runs, reports and batches read the one ClassSplit of their dataset."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real = data_io.ClassSplit.of.__func__

        def counted(cls, seen_classes, unseen_classes):
            calls.append((seen_classes, unseen_classes))
            return real(cls, seen_classes, unseen_classes)

        monkeypatch.setattr(data_io.ClassSplit, "of", classmethod(counted))
        return calls

    def test_one_split_per_command(self, tmp_path, builds):
        data, cfg, ckpt = tmp_path / "data.zsld", tmp_path / "train.cfg", tmp_path / "m.zsld"
        assert cli.main(["gen-data", "--out", str(data)]) == 0
        cfg.write_text("epochs = 1\n")   # the count is per run, not per epoch or batch
        # One build where the baseline, the lockstep run and eight reports each built one.
        assert cli.main(["ablate", "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path / "ablation.csv")]) == 0
        assert len(builds) == 1
        assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(ckpt)]) == 0
        assert len(builds) == 2
        assert cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "metrics.csv")]) == 0
        assert len(builds) == 3


class TestPrecisionPerCommand:
    """A dataset holds float32; forward casts each stack and the attributes to its weights' dtype.

    Training and ablation compute in float32, the precision the checkpoint
    stores: the model, the embedding gradients that reach the backward,
    the gradients and both RMSProp buffers.  eval forwards in its
    checkpoint's float32; export-attention and grad-check in float64.
    """

    @pytest.mark.parametrize("command, expected", [
        ("train", np.float32), ("ablate", np.float32), ("eval", np.float32),
        ("export-attention", np.float64), ("grad-check", np.float64)])
    def test_model_and_optimizer_dtypes(self, tmp_path, data_file, train_cfg_file,
                                        checkpoint_file, monkeypatch, command, expected):
        seen = []

        def spy(name, real, dtypes):
            def recorded(*args):
                out = real(*args)
                seen.append((name, *(np.dtype(d) for d in dtypes(out, *args))))
                return out
            # Every module that holds the function, so a call by any name counts.
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "msdn" and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, recorded)

        spy("forward", model.forward, lambda trace, regions, attrs, params: (
            trace.regions.dtype, trace.attrs.dtype, params.W1.dtype))
        spy("backward", model.backward, lambda grads, params, trace, d_psi, d_Psi: (
            trace.regions.dtype, params.W1.dtype, d_psi.dtype, d_Psi.dtype, grads.flat.dtype))
        spy("rmsprop_step", training.rmsprop_step,
            lambda _, *flats_and_cfg: [f.flat.dtype for f in flats_and_cfg[:4]])
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", data_file, "--config", train_cfg_file, "--out", out],
            "eval": ["eval", "--data", data_file, "--checkpoint", checkpoint_file,
                     "--out", out],
            "ablate": ["ablate", "--data", data_file, "--config", train_cfg_file,
                       "--out", out],
            "export-attention": ["export-attention", "--data", data_file, "--checkpoint",
                                 checkpoint_file, "--image", "2", "--out", out],
            "grad-check": ["grad-check"],
        }[command]
        assert cli.main([str(a) for a in argv]) == 0
        if command == "ablate":
            # The mean-pooled linear baseline keeps its float64 steps, and only it.
            baseline = ("rmsprop_step", *[np.dtype(np.float64)] * 4)
            assert baseline in seen
            seen = [call for call in seen if call != baseline]
        called = {name for name, *_ in seen}
        assert called == {"train": {"forward", "backward", "rmsprop_step"},
                          "ablate": {"forward", "backward", "rmsprop_step"},
                          "grad-check": {"forward", "backward"}}.get(command, {"forward"})
        assert {dtype for _, *dtypes in seen for dtype in dtypes} == {np.dtype(expected)}


class TestAblate:
    def test_emits_all_rows(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(format_kv(TrainConfig(epochs=2, batch_size=8, seed=3)))
        out = tmp_path / "ablation.csv"
        assert cli.main(["ablate", "--data", str(data_file), "--config",
                         str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "acc", "H"]
        assert [r[0] for r in rows[1:]] == [
            "baseline", "v2a_no_distill", "a2v_no_distill", "v2a_with_distill",
            "a2v_with_distill", "full_jsd_only", "full_l2_only", "full",
        ]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0

    def test_byte_deterministic(self, tmp_path, data_file):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(format_kv(TrainConfig(epochs=1, batch_size=8, seed=3)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cli.main(["ablate", "--data", str(data_file), "--config",
                      str(cfg), "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_train_split_exits_2_with_one_error_line(self, tmp_path, data_file,
                                                           train_cfg_file, capsys):
        bad = tmp_path / "no_train.zsld"
        _retyped(data_file, bad, "train_idx", lambda a: a[:0])
        rc = cli.main(["ablate", "--data", str(bad), "--config", str(train_cfg_file),
                       "--out", str(tmp_path / "ablation.csv")])
        captured = capsys.readouterr()
        assert rc == 2, captured.err
        assert captured.err.splitlines() == ["error: dataset has an empty train split"]


@pytest.fixture()
def unset_malloc_policy():
    """Let the next ``main`` call set the allocator policy again, and after the test too."""
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


def _raising(exc):
    def loader(name):
        raise exc(name)
    return loader


def _must_not_call(*args):
    raise AssertionError(f"mallopt called with {args}")


class TestAllocatorPolicy:
    # In a fresh process whose ``main`` set the policy, a second and a third
    # training run at K=312, R=196, d_v=512 reuse the heap the first run freed:
    # 0 minor faults each.  Without the policy glibc returns the freed heap to
    # the kernel and maps the runs' megabyte temporaries afresh: about 4 300
    # faults a run.  (Without the policy the steps after the first fault too:
    # at paper shape every step faults about 6.7k pages afresh; ROADMAP item 5.)
    MAX_FAULTS_PER_RUN = 1000
    RUNS = """
import resource, sys
import numpy as np
from msdn import cli, data_io, training
assert cli.main(["gen-data", "--spec", sys.argv[1], "--out", sys.argv[2]]) == 0
rng = np.random.default_rng(0)
labels = np.arange(12, dtype=np.int32) % 3
ds = data_io.Dataset(
    features=rng.standard_normal((12, 196, 512), np.float32),
    attributes=rng.standard_normal((312, 64), np.float32), class_semantics=rng.random((3, 312)),
    labels=labels, seen_classes=np.arange(2, dtype=np.int32),
    unseen_classes=np.array([2], np.int32), train_idx=np.flatnonzero(labels < 2),
    test_seen_idx=np.zeros(0, np.int32), test_unseen_idx=np.flatnonzero(labels == 2))
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train(ds, training.TrainConfig(epochs=1, batch_size=8))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_repeated_training_runs_reuse_freed_memory(self, tmp_path, spec_file):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        run = subprocess.run([sys.executable, "-c", self.RUNS, str(spec_file),
                              str(tmp_path / "tiny.zsld")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        faults = [int(v) for v in run.stdout.splitlines()[-1].split()]
        assert max(faults[1:]) <= self.MAX_FAULTS_PER_RUN, faults

    @staticmethod
    def ablate(tmp_path, data_file, train_cfg_file, capsys, name):
        out = tmp_path / name
        assert cli.main(["ablate", "--data", str(data_file), "--config",
                         str(train_cfg_file), "--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    @pytest.mark.parametrize("loader", [
        _raising(OSError), _raising(AttributeError),
        lambda name: types.SimpleNamespace(gnu_get_libc_version=None),
        lambda name: types.SimpleNamespace(mallopt=_must_not_call),
    ], ids=["oserror", "attributeerror", "no_mallopt", "not_glibc"])
    def test_runs_unchanged_without_glibc_mallopt(self, tmp_path, data_file, train_cfg_file,
                                                  capsys, monkeypatch, unset_malloc_policy,
                                                  loader):
        expected = self.ablate(tmp_path, data_file, train_cfg_file, capsys, "a.csv")
        cli._keep_freed_memory.cache_clear()
        monkeypatch.setattr(cli.ctypes, "CDLL", loader)
        assert self.ablate(tmp_path, data_file, train_cfg_file, capsys, "b.csv") == expected

    def test_policy_is_set_once_per_process(self, tmp_path, spec_file, monkeypatch,
                                            unset_malloc_policy):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            gnu_get_libc_version=None, mallopt=mallopt))
        for out in ("a.zsld", "b.zsld"):
            assert cli.main(["gen-data", "--spec", str(spec_file),
                             "--out", str(tmp_path / out)]) == 0
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]


class TestExportAttention:
    def test_exports_normalized_attention(self, tmp_path, data_file, checkpoint_file):
        out_dir = tmp_path / "attn"
        assert cli.main(["export-attention", "--data", str(data_file),
                         "--checkpoint", str(checkpoint_file),
                         "--image", "4", "--out", str(out_dir)]) == 0
        beta = np.loadtxt(out_dir / "beta.csv", delimiter=",", skiprows=1)[:, 1:]
        tau = np.loadtxt(out_dir / "tau.csv", delimiter=",", skiprows=1)[:, 1:]
        assert beta.shape == (4, 3) and tau.shape == (3, 4)
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(tau.sum(axis=0), 1.0, atol=1e-10)

    def test_scores_match_forward(self, tmp_path, data_file, checkpoint_file):
        out_dir = tmp_path / "attn2"
        cli.main(["export-attention", "--data", str(data_file), "--checkpoint",
                  str(checkpoint_file), "--image", "0", "--out", str(out_dir)])
        ds = load_container(data_file)
        params = load_checkpoint(checkpoint_file)[0].astype(np.float64)  # as export widens them
        trace = forward(ds.regions([0]), ds.attributes, params)
        rows = (out_dir / "scores.csv").read_text().strip().splitlines()
        assert rows[0] == "attribute,psi,Psi"
        got = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        np.testing.assert_array_equal(got[:, 0], trace.psi[:, 0])
        np.testing.assert_array_equal(got[:, 1], trace.Psi[:, 0])

    def test_index_out_of_range_exits_2(self, tmp_path, data_file, checkpoint_file):
        rc = cli.main(["export-attention", "--data", str(data_file),
                       "--checkpoint", str(checkpoint_file),
                       "--image", "999", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestNumericFailure:
    def test_overflowing_learning_rate_exits_4_with_one_error_line(
            self, tmp_path, data_file, capsys):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("epochs = 3\nbatch_size = 8\nlearning_rate = 1e300\n")
        out = tmp_path / "m.zsld"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--data", str(data_file), "--config", str(cfg),
                           "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, b"old checkpoint"], ids=["new", "existing"])
    @pytest.mark.parametrize("rate", ["1e40", "1e308"], ids=["beyond_float32", "beyond_float64"])
    def test_overflowing_weights_exit_4_naming_the_parameter_and_write_no_checkpoint(
            self, tmp_path, data_file, capsys, rate, existing):
        # One full-batch step at either rate takes the weights beyond float32
        # range, the precision training computes in (1e308 beyond float64 too),
        # so they become non-finite in the step and fit's check names them.
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"epochs = 1\nbatch_size = 1000\nlearning_rate = {rate}\n")
        out = tmp_path / "big.ckpt"
        if existing is not None:
            out.write_bytes(existing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--data", str(data_file), "--config", str(cfg),
                           "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4, captured.err
        assert captured.err.splitlines() == ["error: parameter W1 became non-finite at epoch 0"]
        assert captured.out == ""
        assert (out.read_bytes() if out.exists() else None) == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["big.cfg", "data.zsld", "spec.cfg"] + (["big.ckpt"] if existing else []))

    def test_overflowing_attention_in_training_names_epoch_and_batch(self, tmp_path, capsys):
        # Batch 0's step takes the stock weights beyond float32 range, so batch 1's
        # attention logits overflow; the loss check reports the NaN loss they give.
        data, cfg, out = tmp_path / "stock.zsld", tmp_path / "lr.cfg", tmp_path / "lr.ckpt"
        assert cli.main(["gen-data", "--out", str(data)]) == 0
        cfg.write_text("epochs = 1\nlearning_rate = 1e40\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4, captured.err
        assert captured.err.splitlines() == [
            "error: non-finite loss at epoch 0, batch 1: non-finite loss: LossBreakdown("
            "acec_a2v=nan, acec_v2a=nan, distill=nan, total=nan)"]
        assert captured.out == "" and not out.exists()

    @pytest.fixture()
    def stock_files(self, tmp_path, train_cfg_file, capsys):
        data, ckpt = tmp_path / "stock.zsld", tmp_path / "m.zsld"
        assert cli.main(["gen-data", "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(train_cfg_file),
                         "--out", str(ckpt)]) == 0
        capsys.readouterr()
        return data, ckpt

    @staticmethod
    def eval_rc(data, ckpt, out, *flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                             *flags, "--out", str(out)])

    def test_overflowing_fusion_exits_4_naming_the_coefficients(
            self, tmp_path, stock_files, capsys):
        # A stock model's embeddings reach 10-30, which these coefficients overflow.
        out = tmp_path / "fused.csv"
        rc = self.eval_rc(*stock_files, out, "--alpha1", "1e308", "--alpha2", "1e308")
        err = capsys.readouterr().err
        assert rc == 4, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "fusion coefficients alpha1=1e+308 and alpha2=1e+308" in err
        assert not out.exists()

    def test_fusion_beyond_float32_range_succeeds(self, tmp_path, stock_files, capsys):
        # alpha1 * psi overflows float32 but not float64, where fusion runs.
        out = tmp_path / "fused.csv"
        assert self.eval_rc(*stock_files, out, "--alpha1", "1e39") == 0, capsys.readouterr().err
        assert out.exists()

    def test_float32_forward_overflow_exits_4(self, tmp_path, stock_files, capsys):
        # Finite f32 weights whose float32 forward overflows Psi; in float64 it stays finite.
        data, ckpt = stock_files
        params, dims = load_checkpoint(ckpt)
        huge = dataclasses.replace(params, W4=params.W4 * np.float32(1e30),
                                   W_att=params.W_att * np.float32(1e30))
        assert all(np.isfinite(w).all() for w in huge.as_dict().values())
        save_checkpoint(huge, tmp_path / "huge.zsld", *dims[2:])
        assert np.isfinite(evaluate(huge.astype(np.float64), load_container(data),
                                    PredictConfig()).H)
        out = tmp_path / "huge.csv"
        rc = self.eval_rc(data, tmp_path / "huge.zsld", out)
        err = capsys.readouterr().err
        assert rc == 4, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "not finite" in err and not out.exists()

    @pytest.mark.parametrize("name", ["W1", "W3"])
    def test_overflowing_attention_fails_the_scoring_check(
            self, tmp_path, stock_files, capsys, name):
        # Attention weights at 3e38 overflow the logits; the non-finite maps
        # reach the class scores, whose check reports them.
        data, ckpt = stock_files
        params, dims = load_checkpoint(ckpt)
        huge = dataclasses.replace(params, **{name: np.full_like(getattr(params, name), 3e38)})
        save_checkpoint(huge, tmp_path / "huge.zsld", *dims[2:])
        out = tmp_path / "huge.csv"
        rc = self.eval_rc(data, tmp_path / "huge.zsld", out)
        assert rc == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: class scores are not finite; the model parameters overflow"]
        assert not out.exists()


class TestNonFiniteCheckpoint:
    @pytest.fixture()
    def nan_checkpoint(self, tmp_path, checkpoint_file):
        params, dims = load_checkpoint(checkpoint_file)
        path = tmp_path / "nan.zsld"
        save_checkpoint(dataclasses.replace(params, W2=np.full_like(params.W2, np.nan)), path,
                        *dims[2:])
        return path

    @pytest.mark.parametrize("command", ["eval", "export-attention"])
    def test_exits_3_with_one_error_line(self, tmp_path, data_file, nan_checkpoint,
                                         capsys, command):
        out = tmp_path / "out"
        extra = ["--image", "0"] if command == "export-attention" else []
        rc = cli.main([command, "--data", str(data_file), "--checkpoint",
                       str(nan_checkpoint), "--out", str(out), *extra])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and "non-finite" in captured.err
        assert captured.out == "" and not out.exists()


def _edited(src, out, edit):
    """Copy a container, passing a writable name -> tensor dict of it through ``edit``."""
    tensors = {name: arr.copy() for name, arr in read_container(src)}
    edit(tensors)
    write_container(out, list(tensors.items()))


def _retyped(blob_path, out_path, name, convert):
    """Copy a container with tensor ``name`` replaced by ``convert(tensor)``."""
    _edited(blob_path, out_path, lambda t: t.update({name: convert(t[name])}))


def _rank_65(data_file, out_path):
    # one f32 tensor of rank 65, dims 0,1,...,1: an empty payload numpy cannot shape
    out_path.write_bytes(b"ZSLD" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
                         + struct.pack("<BB", 1, 65) + struct.pack("<65I", 0, *[1] * 64))


_MALFORMED = {
    "non_utf8_name": lambda src, out: out.write_bytes(
        src.read_bytes().replace(b"features", b"\xff" * 8, 1)),
    "rank_65": _rank_65,
    "float_train_idx": lambda src, out: _retyped(
        src, out, "train_idx", lambda a: a.astype(np.float32)),
    "float_labels": lambda src, out: _retyped(
        src, out, "labels", lambda a: a.astype(np.float32)),
    "integer_features": lambda src, out: _retyped(
        src, out, "features", lambda a: np.rint(a).astype(np.int32)),
    "zero_regions": lambda src, out: _retyped(
        src, out, "features", lambda a: a[:, :0, :]),
}


class TestMalformedData:
    @pytest.mark.parametrize("probe", sorted(_MALFORMED))
    def test_exits_3_with_one_error_line(self, tmp_path, data_file, train_cfg_file,
                                         capsys, probe):
        bad = tmp_path / "bad.zsld"
        _MALFORMED[probe](data_file, bad)
        rc = cli.main(["train", "--data", str(bad), "--config", str(train_cfg_file),
                       "--out", str(tmp_path / "m.zsld")])
        captured = capsys.readouterr()
        assert rc == 3, captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    # An empty file cannot be mapped and is read instead; eval and
    # export-attention read the checkpoint first, so its error is the one
    # reported when the dataset is malformed too.
    @pytest.mark.parametrize("command", ["train", "eval", "export-attention"])
    def test_empty_file_exits_3_ending_inside_magic_bytes(self, tmp_path, train_cfg_file,
                                                          capsys, command):
        empty, bad = tmp_path / "empty.zsld", tmp_path / "bad.zsld"
        empty.write_bytes(b"")
        bad.write_bytes(b"XXXX")
        out = tmp_path / "out"
        argv = {"train": ["--data", empty, "--config", train_cfg_file],
                "eval": ["--data", bad, "--checkpoint", empty],
                "export-attention": ["--data", bad, "--checkpoint", empty, "--image", "0"]}
        rc = cli.main([command, *map(str, argv[command]), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3, captured.err
        assert captured.err.splitlines() == ["error: file ends inside magic bytes"]
        assert not out.exists()


def _swap_first_train_and_unseen(t):
    t["train_idx"][0], t["test_unseen_idx"][0] = t["test_unseen_idx"][0], t["train_idx"][0]


def _one_more_attribute(t):
    t.update(attributes=np.vstack([t["attributes"], t["attributes"][:1]]),
             class_semantics=np.hstack([t["class_semantics"], t["class_semantics"][:, :1]]))


# The tiny checkpoint's header; the weights would run on any K and R.
_TINY_HEADER = "checkpoint dims (d_v, d_a, K, R) (5, 3, 4, 3) do not match dataset dims"


# Each input rule as a command meets it: (input, its text or container edit,
# exit code, message fragment).  A "config" goes to train --config, a "spec"
# to gen-data --spec, "data" to train --data, "eval_data" to eval --data,
# "attention_data" to export-attention --data and a "checkpoint" to eval
# --checkpoint.
_EDGE_RULES = {
    "no_equals": ("config", "epochs\n", 2, "expected key=value, got 'epochs'"),
    "empty_key": ("config", "= 3\n", 2, ":1: empty key"),
    "duplicate_key": ("config", "epochs = 2\nepochs = 3\n", 2, ":2: duplicate key 'epochs'"),
    "unparsable_int": ("config", "epochs = many\n", 2,
                       "config key 'epochs': cannot parse 'many' as int"),
    "zero_learning_rate": ("config", "learning_rate = 0\n", 2, "learning_rate must be > 0"),
    "momentum_one": ("config", "momentum = 1\n", 2, "momentum must lie in [0, 1)"),
    "rms_decay_one": ("config", "rms_decay = 1\n", 2, "rms_decay must lie in [0, 1)"),
    "zero_batch_size": ("config", "batch_size = 0\n", 2, "batch_size must be >= 1"),
    "negative_epochs": ("config", "epochs = -1\n", 2, "epochs must be >= 0"),
    "negative_weight_decay": ("config", "weight_decay = -1\n", 2, "weight_decay must be >= 0"),
    "zero_epsilon_opt": ("config", "epsilon_opt = 0\n", 2, "epsilon_opt must be > 0"),
    "negative_lambda_cal": ("config", "lambda_cal = -0.1\n", 2,
                            "loss weights must be non-negative"),
    "large_epsilon_kl": ("config", "epsilon_kl = 0.01\n", 2,
                         "epsilon_kl must lie in (0, 1e-3], got 0.01"),
    "negative_noise": ("spec", "noise_std = -1\n", 2, "SynthSpec.noise_std must be >= 0"),
    "too_many_active": ("spec", "active_attributes = 13\n", 2,
                        "SynthSpec.active_attributes must lie in [0, 12], got 13"),
    "no_labels": ("data", lambda t: t.pop("labels"), 3, "missing required tensors: labels"),
    "labels_2d": ("data", lambda t: t.update(labels=t["labels"][:, None]), 3,
                  "labels must have rank 1"),
    "semantics_k_plus_1": ("data", lambda t: t.update(class_semantics=np.hstack(
        [t["class_semantics"], t["class_semantics"][:, :1]])), 3,
        "class_semantics columns must match attribute count: 5 vs 4"),
    "class_seen_and_unseen": ("data", lambda t: t.update(unseen_classes=np.append(
        t["unseen_classes"], t["seen_classes"][0])), 3, "seen/unseen classes overlap: [0]"),
    "index_in_train_and_test_seen": ("data", lambda t: t.update(test_seen_idx=np.append(
        t["test_seen_idx"], t["train_idx"][0])), 3,
        "train_idx and test_seen_idx share indices: [0]"),
    "train_and_unseen_swapped": ("data", _swap_first_train_and_unseen, 3,
                                 "dataset invalid: train_idx contains samples of non-seen "
                                 "classes: [3]; test_unseen_idx contains samples of non-unseen "
                                 "classes: [0]"),
    "short_labels": ("data", lambda t: t.update(labels=t["labels"][:-1]), 3,
                     "labels length 29 != sample count 30"),
    "nan_feature": ("data", lambda t: t["features"].__setitem__((0, 1, 2), np.nan), 3,
                    "non-finite value in features at index (0, 1, 2)"),
    "seen_class_twice": ("data", lambda t: t.update(seen_classes=np.append(
        t["seen_classes"], t["seen_classes"][0])), 3, "seen_classes contains duplicates"),
    "no_unseen_test_samples": ("eval_data", lambda t: t.update(
        test_unseen_idx=t["test_unseen_idx"][:0]), 2, "test_unseen_idx is empty"),
    "eval_k_plus_1": ("eval_data", _one_more_attribute, 5, f"{_TINY_HEADER} (5, 3, 5, 3)"),
    "eval_r_minus_1": ("eval_data", lambda t: t.update(features=t["features"][:, :-1]), 5,
                       f"{_TINY_HEADER} (5, 3, 4, 2)"),
    "attention_k_plus_1": ("attention_data", _one_more_attribute, 5,
                           f"{_TINY_HEADER} (5, 3, 5, 3)"),
    "transposed_weight": ("checkpoint", lambda t: t.update(W1=t["W1"].T), 3,
                          "checkpoint tensor W1 has shape (5, 3), expected (3, 5)"),
    "three_dims": ("checkpoint", lambda t: t.update(dims=t["dims"][:3]), 3,
                   "checkpoint dims must be 4 integers, got int32 (3,)"),
    "integer_weights": ("checkpoint", lambda t: t.update(W1=np.rint(t["W1"]).astype(np.int32)),
                        3, "checkpoint tensor W1 must have a float dtype, got int32"),
}


class TestEdgeRulesThroughMain:
    """Each rule on a command's input ends it with its exit code, a single
    ``error:`` line and no output file."""

    @pytest.mark.parametrize("case", sorted(_EDGE_RULES))
    def test_exits_with_one_error_line_and_no_output(self, tmp_path, data_file, train_cfg_file,
                                                     request, capsys, case):
        kind, edit, code, fragment = _EDGE_RULES[case]
        bad, out = tmp_path / "bad", tmp_path / "out"
        checkpoint = (request.getfixturevalue("checkpoint_file")
                      if kind in ("eval_data", "attention_data", "checkpoint") else None)
        if kind in ("config", "spec"):
            bad.write_text(edit)
        else:
            _edited(checkpoint if kind == "checkpoint" else data_file, bad, edit)
        argv = {"config": ["train", "--data", data_file, "--config", bad],
                "spec": ["gen-data", "--spec", bad],
                "data": ["train", "--data", bad, "--config", train_cfg_file],
                "eval_data": ["eval", "--data", bad, "--checkpoint", checkpoint],
                "attention_data": ["export-attention", "--data", bad, "--checkpoint", checkpoint,
                                   "--image", 0],
                "checkpoint": ["eval", "--data", data_file, "--checkpoint", bad]}[kind]
        capsys.readouterr()
        rc = cli.main([*map(str, argv), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code, err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and fragment in err, err
        assert not out.exists()

    def test_comments_and_blank_lines_change_nothing(self, tmp_path, data_file, train_cfg_file):
        commented = tmp_path / "commented.cfg"
        lines = train_cfg_file.read_text().splitlines()
        commented.write_text("# fast training\n\n" + "".join(
            f"{line}   # a note\n  \n# {line}\n" for line in lines))
        for cfg, out in ((train_cfg_file, "plain.zsld"), (commented, "commented.zsld")):
            assert cli.main(["train", "--data", str(data_file), "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "plain.zsld").read_bytes() == (tmp_path / "commented.zsld").read_bytes()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A tiny dataset container and a checkpoint trained on it, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    spec, data, cfg, ckpt = (root / n for n in ("spec.cfg", "data.zsld",
                                                 "train.cfg", "model.zsld"))
    spec.write_text(format_kv(TINY_SPEC))
    cfg.write_text(format_kv(FAST_TRAIN))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(ckpt)]) == 0
    return root, {"data": data.read_bytes(), "checkpoint": ckpt.read_bytes()}


class TestFuzzedFiles:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(draw=st.data())
    def test_eval_exits_typed(self, valid_files, draw):
        root, blobs = valid_files
        target = draw.draw(st.sampled_from(sorted(blobs)), label="target")
        other = blobs["checkpoint" if target == "data" else "data"]
        blob = bytearray(blobs[target])
        kind = draw.draw(st.sampled_from(["truncate", "flip", "splice"]), label="kind")
        if kind == "truncate":
            del blob[draw.draw(st.integers(0, len(blob) - 1)):]
        elif kind == "flip":
            for _ in range(draw.draw(st.integers(1, 4))):
                blob[draw.draw(st.integers(0, len(blob) - 1))] ^= 1 << draw.draw(
                    st.integers(0, 7))
        else:
            start = draw.draw(st.integers(0, len(blob)))
            end = draw.draw(st.integers(start, len(blob)))
            src = draw.draw(st.integers(0, len(other)))
            blob[start:end] = other[src:draw.draw(st.integers(src, len(other)))]
        paths = {name: root / f"{name}.zsld" for name in blobs}
        for name, content in blobs.items():
            # A fresh file: truncating one written a moment ago waits for writeback.
            paths[name].unlink(missing_ok=True)
            paths[name].write_bytes(bytes(blob) if name == target else content)

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["eval", "--data", str(paths["data"]), "--checkpoint",
                           str(paths["checkpoint"]), "--out", str(root / "metrics.csv")])
        assert rc in (0, 2, 3, 4, 5)
        if rc != 0:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestUsage:
    def test_unknown_flag_rejected(self, spec_file, tmp_path, capsys):
        assert cli.main(["gen-data", "--spec", str(spec_file),
                         "--out", str(tmp_path / "x.zsld"), "--bogus", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_unknown_command_rejected(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_module_entry_point_exits_2_with_one_error_line(self, tmp_path):
        # ``python -m msdn.cli`` runs ``cli.entry``, which exits with main's code.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        run = subprocess.run([sys.executable, "-m", "msdn.cli", "gen-data"], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        err = run.stderr.splitlines()
        assert run.returncode == 2 and run.stdout == "", (run.returncode, run.stdout)
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "--out" in err[0]
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """One parser serves every ``main`` call of a process, with no state carried over."""

    SEQUENCE = (
        ["gen-data", "--spec", "spec.cfg", "--out", "data.zsld"],
        ["train", "--data", "data.zsld", "--config", "train.cfg", "--out", "model.zsld",
         "--history", "history.csv"],
        ["eval", "--data", "data.zsld", "--checkpoint", "model.zsld", "--out", "x.csv",
         "--bogus"],
        ["--help"],
        ["eval", "--data", "data.zsld", "--checkpoint", "model.zsld", "--mode", "czsl",
         "--out", "czsl.csv"],
        ["eval", "--data", "data.zsld", "--checkpoint", "model.zsld", "--out", "gzsl.csv",
         "--per-class", "per_class.csv"],
        ["ablate", "--data", "data.zsld", "--config", "train.cfg", "--out", "ablation.csv"],
    )

    @staticmethod
    def inputs(directory):
        directory.mkdir()
        (directory / "spec.cfg").write_text(format_kv(TINY_SPEC))
        (directory / "train.cfg").write_text(format_kv(FAST_TRAIN))
        return directory

    @staticmethod
    def outputs(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_one_parser_gives_fresh_process_results(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")   # the help text wraps at the terminal width
        monkeypatch.delenv("MSDN_SEED", raising=False)
        here, fresh = self.inputs(tmp_path / "in_process"), self.inputs(tmp_path / "fresh")
        monkeypatch.chdir(here)
        cli.build_parser.cache_clear()
        in_process = []
        for argv in self.SEQUENCE:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 0]
        assert in_process[5][1].startswith("U ")
        assert cli.build_parser().parse_args(self.SEQUENCE[5]).mode == "gzsl"

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv, expected in zip(self.SEQUENCE, in_process):
            run = subprocess.run([sys.executable, "-m", "msdn.cli", *argv], cwd=fresh, env=env,
                                 capture_output=True, text=True, timeout=120)
            assert (run.returncode, run.stdout, run.stderr) == expected, argv
        assert self.outputs(here) == self.outputs(fresh)
