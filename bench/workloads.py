"""The benchmark's three workloads, driven through ``msdn.cli.main``.

Each workload is a closed loop run by one client: the next command
starts only after the previous one has returned.  A workload builds its
inputs from the workload seed once per set-up repetition, then repeats
one *cycle* of commands, checking every output as it goes.

* ``stock_pipeline`` runs the README's pipeline on the stock
  ``SynthSpec`` (K=12, R=9, d_v=16, d_a=10): ``gen-data`` as set-up,
  then per cycle ``train`` (50 epochs) and an (alpha1, alpha2) sweep of
  ``eval`` in both modes.  The matrices are tiny, so time goes to
  per-image Python overhead; batching must show its gain here.
* ``paper_shape`` runs ``train`` (two batches of 8) and ``eval`` on a
  dataset at the paper's CUB shape (K=312, R=196, d_v=2048, d_a=300).
  Time goes to GEMMs, parameter init and container I/O; a change that
  only removes Python overhead should not move it, and one that inflates
  memory shows in its peak RSS.
* ``ablate_grid`` runs ``ablate`` at 5 epochs on stock data.  It uses
  the layers of ``stock_pipeline`` differently (three identical training
  configs, the baseline's own loop without attention), so removing
  duplicate training shows here and not in ``stock_pipeline``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import msdn.cli
import msdn.data_io
import numpy as np

# (alpha1, alpha2) pairs of the stock eval sweep; each is run in both modes.
ALPHA_SWEEP = ((0.9, 0.1), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (1.0, 0.0))
MODES = ("gzsl", "czsl")

# Quality guard for the stock pipeline, recorded at this benchmark's
# first commit: stock SynthSpec with seed 1, 50 epochs with seed 1,
# default fusion.  Summation-order changes may flip a few predictions
# (one flip moves an unseen-class accuracy by 0.02), so the check allows
# an absolute tolerance instead of asking for equal bytes.
QUALITY_REFERENCE = {"seed": 1, "epochs": 50, "gzsl_H": 0.2600, "czsl_acc": 0.6550}
QUALITY_TOLERANCE = 0.05

ABLATION_ROWS = ("baseline", "v2a_no_distill", "a2v_no_distill", "v2a_with_distill",
                 "a2v_with_distill", "full_jsd_only", "full_l2_only", "full")

# Tiny spec for smoke runs: every workload finishes in seconds.
SMOKE_SPEC = "samples_per_class = 5\nnum_regions = 4\nvisual_dim = 6\nattr_dim = 5\n"


@dataclass
class Cycle:
    """Wall times and work counts of one cycle's timed commands."""

    seconds: float = 0.0
    train_s: float = 0.0
    train_samples: int = 0
    eval_s: float = 0.0
    eval_samples: int = 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """Runs ``cli.main`` in-process and counts commands and checks.

    ``main`` is looked up on the module at every call, so a tracer that
    patches the module sees the calls.
    """

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def command(self, *argv) -> tuple[float, str]:
        """Run one CLI command; returns its wall time and its stdout."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = msdn.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crash
            code = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self.check(code == 0, f"{' '.join(argv[:1])} exited {code}: "
                              f"{err.getvalue().strip()}")
        return elapsed, out.getvalue()

    def parse(self, what: str, fn):
        """Apply a parser to an output; a parse error is a failed check."""
        try:
            value = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.check(False, f"{what}: {exc}")
            return None
        self.check(True, what)
        return value


def _read_metrics_csv(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["metric", "value"]:
        raise ValueError(f"bad header {rows[0]}")
    return {name: float(value) for name, value in rows[1:]}


def _read_history(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][-1] != "total":
        raise ValueError(f"bad header {rows[0]}")
    return [float(row[-1]) for row in rows[1:]]


class Workload:
    """Shared command helpers; subclasses define set-up and one cycle."""

    name = ""
    reps = 11  # set-up repetitions; set-up time is their median

    def __init__(self, session: Session, seed: int, smoke: bool):
        self.s = session
        self.seed = seed
        self.smoke = smoke
        self.data = session.work / "data.zsld"
        self.cfg = session.work / "train.cfg"
        self.epochs = 0
        self.n_train = 0
        self.n_test = 0
        self.dims = (0, 0, 0, 0)   # K, R, d_v, d_a
        self._hashes: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def path(self, name: str) -> Path:
        return self.s.work / name

    def same_bytes(self, key: str, path: Path) -> None:
        """Check that a file repeats bit for bit across repetitions."""
        digest = self.s.parse(f"read {path.name}", lambda: sha256(path))
        first = self._hashes.setdefault(key, digest)
        self.s.check(digest is not None and digest == first,
                     f"{path.name} differs between repetitions")

    def write_config(self, path: Path, epochs: int, seed: int, extra: str = "") -> None:
        path.write_text(f"epochs = {epochs}\nseed = {seed}\n{extra}")

    def describe(self) -> None:
        """Record split sizes and dims of the set-up dataset (untimed)."""
        ds = msdn.data_io.load_container(self.data)
        self.n_train = int(ds.train_idx.size)
        self.n_test = int(ds.test_seen_idx.size + ds.test_unseen_idx.size)
        self.dims = (ds.num_attributes, ds.num_regions, ds.visual_dim, ds.attr_dim)

    def gen_data(self, out: Path, seed: int) -> float:
        argv = ["gen-data", "--seed", seed, "--out", out]
        if self.smoke:
            spec = self.path("smoke.spec")
            spec.write_text(SMOKE_SPEC)
            argv += ["--spec", spec]
        elapsed, _ = self.s.command(*argv)
        return elapsed

    def train(self, data: Path, cfg: Path, ckpt: Path, epochs: int) -> float:
        history = ckpt.with_suffix(".history.csv")
        elapsed, out = self.s.command("train", "--data", data, "--config", cfg,
                                      "--out", ckpt, "--history", history)
        totals = self.s.parse("history CSV", lambda: _read_history(history))
        if totals is not None:
            self.s.check(len(totals) == epochs,
                         f"history has {len(totals)} rows, expected {epochs}")
            self.s.check(all(math.isfinite(v) for v in totals), "non-finite loss")
            self.s.check(f"final total loss {totals[-1]:.6f}" in out,
                         f"train stdout {out.strip()!r} disagrees with history")
        return elapsed

    def evaluate(self, data: Path, ckpt: Path, mode: str,
                 alpha1: float = 0.9, alpha2: float = 0.1) -> tuple[float, dict]:
        csv_path = self.path(f"metrics_{mode}.csv")
        elapsed, out = self.s.command("eval", "--data", data, "--checkpoint", ckpt,
                                      "--mode", mode, "--alpha1", alpha1,
                                      "--alpha2", alpha2, "--out", csv_path)
        m = self.s.parse("metrics CSV", lambda: _read_metrics_csv(csv_path))
        if m is None:
            return elapsed, {}
        if mode == "czsl":
            expected = f"acc {m['acc']:.4f}"
        else:
            expected = f"U {m['U']:.4f} S {m['S']:.4f} H {m['H']:.4f}"
        self.s.check(out.strip() == expected,
                     f"eval stdout {out.strip()!r} disagrees with CSV {expected!r}")
        s, u = m["S"], m["U"]
        h = 0.0 if s + u == 0 else 2 * s * u / (s + u)
        self.s.check(all(0 <= v <= 1 for v in m.values()) and abs(h - m["H"]) < 1e-12,
                     f"eval metrics out of range or H != 2SU/(S+U): {m}")
        return elapsed, m

    def scores(self, data: Path, ckpt: Path) -> dict[str, float | None]:
        """GZSL H and CZSL accuracy at the default fusion."""
        _, gzsl = self.evaluate(data, ckpt, "gzsl")
        _, czsl = self.evaluate(data, ckpt, "czsl")
        return {"gzsl_H": gzsl.get("H"), "czsl_acc": czsl.get("acc")}

    def setup(self) -> float:
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks run once after measuring; their time is not reported."""


class StockPipeline(Workload):
    name = "stock_pipeline"

    def setup(self) -> float:
        elapsed = self.gen_data(self.data, self.seed)
        self.same_bytes("data", self.data)
        self.epochs = 2 if self.smoke else 50
        self.write_config(self.cfg, self.epochs, self.seed)
        return elapsed

    def cycle(self) -> Cycle:
        ckpt = self.path("model.ckpt")
        c = Cycle()
        c.train_s = self.train(self.data, self.cfg, ckpt, self.epochs)
        self.same_bytes("checkpoint", ckpt)
        c.train_samples = self.epochs * self.n_train
        for alpha1, alpha2 in ALPHA_SWEEP:
            for mode in MODES:
                elapsed, m = self.evaluate(self.data, ckpt, mode, alpha1, alpha2)
                c.eval_s += elapsed
                c.eval_samples += self.n_test
                if (alpha1, alpha2) == ALPHA_SWEEP[0] and m:
                    key, value = (("gzsl_H", m["H"]) if mode == "gzsl"
                                  else ("czsl_acc", m["acc"]))
                    self.quality[key] = value
        c.seconds = c.train_s + c.eval_s
        return c

    def verify(self) -> None:
        if self.smoke:
            return  # the reference was recorded at the stock shape only
        ref = QUALITY_REFERENCE
        data, cfg, ckpt = (self.path("ref.zsld"), self.path("ref.cfg"),
                           self.path("ref.ckpt"))
        self.gen_data(data, ref["seed"])
        self.write_config(cfg, ref["epochs"], ref["seed"])
        self.train(data, cfg, ckpt, ref["epochs"])
        for key, got in self.scores(data, ckpt).items():
            self.quality[f"reference_{key}"] = got
            self.s.check(got is not None and abs(got - ref[key]) <= QUALITY_TOLERANCE,
                         f"{key} {got} is not within {QUALITY_TOLERANCE} of the "
                         f"reference {ref[key]}")


class PaperShape(Workload):
    name = "paper_shape"

    def build(self) -> msdn.data_io.Dataset:
        """CUB-shaped random dataset: 8 seen and 4 unseen classes.

        Unit-normal region features and attribute vectors of unit
        expected norm keep the bilinear logits of order one, so the loss
        stays finite from the first step.
        """
        K, R, d_v, d_a = (6, 4, 8, 5) if self.smoke else (312, 196, 2048, 300)
        n_seen, n_unseen, n_train, n_test_seen, n_test_unseen = 8, 4, 16, 4, 4
        n = n_train + n_test_seen + n_test_unseen
        rng = np.random.default_rng(self.seed)
        labels = np.concatenate([np.arange(n_train) % n_seen,
                                 np.arange(n_test_seen) % n_seen,
                                 n_seen + np.arange(n_test_unseen) % n_unseen])
        bounds = np.cumsum([0, n_train, n_test_seen, n_test_unseen])
        split = [np.arange(a, b, dtype=np.int32) for a, b in zip(bounds, bounds[1:])]
        return msdn.data_io.Dataset(
            features=rng.standard_normal((n, R, d_v)),
            attributes=rng.standard_normal((K, d_a)) / np.sqrt(d_a),
            class_semantics=rng.random((n_seen + n_unseen, K)),
            labels=labels.astype(np.int32),
            seen_classes=np.arange(n_seen, dtype=np.int32),
            unseen_classes=np.arange(n_seen, n_seen + n_unseen, dtype=np.int32),
            train_idx=split[0], test_seen_idx=split[1], test_unseen_idx=split[2],
        )

    def setup(self) -> float:
        start = time.perf_counter()
        msdn.data_io.save_container(self.build(), self.data)
        elapsed = time.perf_counter() - start
        self.same_bytes("data", self.data)
        self.epochs = 1
        self.write_config(self.cfg, self.epochs, self.seed, "batch_size = 8\n")
        return elapsed

    def cycle(self) -> Cycle:
        ckpt = self.path("model.ckpt")
        c = Cycle()
        c.train_s = self.train(self.data, self.cfg, ckpt, self.epochs)
        self.same_bytes("checkpoint", ckpt)
        c.train_samples = self.epochs * self.n_train
        for mode in MODES:
            elapsed, _ = self.evaluate(self.data, ckpt, mode)
            c.eval_s += elapsed
            c.eval_samples += self.n_test
        c.seconds = c.train_s + c.eval_s
        return c


class AblateGrid(Workload):
    name = "ablate_grid"

    def setup(self) -> float:
        elapsed = self.gen_data(self.data, self.seed)
        self.same_bytes("data", self.data)
        self.epochs = 1 if self.smoke else 5
        self.write_config(self.cfg, self.epochs, self.seed)
        return elapsed

    def cycle(self) -> Cycle:
        out_csv = self.path("ablation.csv")
        elapsed, out = self.s.command("ablate", "--data", self.data,
                                      "--config", self.cfg, "--out", out_csv)
        self.same_bytes("ablation", out_csv)

        def rows():
            with open(out_csv, newline="") as fh:
                table = list(csv.reader(fh))
            if table[0] != ["variant", "acc", "H"]:
                raise ValueError(f"bad header {table[0]}")
            return {name: (float(acc), float(h)) for name, acc, h in table[1:]}

        table = self.s.parse("ablation CSV", rows)
        if table is not None:
            self.s.check(tuple(table) == ABLATION_ROWS,
                         f"ablation rows {tuple(table)} != {ABLATION_ROWS}")
            printed = "\n".join(f"{name} acc={acc:.4f} H={h:.4f}"
                                for name, (acc, h) in table.items())
            self.s.check(out.strip() == printed, "ablate stdout disagrees with CSV")
            self.s.check(all(0 <= v <= 1 for pair in table.values() for v in pair),
                         "ablation metric outside [0, 1]")
            if "full" in table:
                self.quality = {"czsl_acc": table["full"][0], "gzsl_H": table["full"][1]}
        # Both rates count the ablation table's output: every row is one
        # model trained for the configured epochs and scored on the test
        # splits, all within the one command.  So both divide by the whole
        # command's time; the traced run's training.train.total_s and
        # zsl_eval.evaluate.total_s split it into training and scoring.
        rows_done = len(ABLATION_ROWS)
        return Cycle(seconds=elapsed, train_s=elapsed, eval_s=elapsed,
                     train_samples=rows_done * self.epochs * self.n_train,
                     eval_samples=rows_done * self.n_test)

    def verify(self) -> None:
        """The ``full`` row must score like a plain train + eval.

        The CLI round-trips the checkpoint through f32 while the ablation
        keeps float64 weights, so the two may differ by a few predictions.
        """
        ckpt = self.path("full.ckpt")
        self.train(self.data, self.cfg, ckpt, self.epochs)
        for key, got in self.scores(self.data, ckpt).items():
            want = self.quality.get(key)
            self.s.check(got is not None and want is not None
                         and abs(got - want) <= QUALITY_TOLERANCE,
                         f"ablation full-row {key} {want} differs from "
                         f"train+eval {got} by more than {QUALITY_TOLERANCE}")


WORKLOADS = {w.name: w for w in (StockPipeline, PaperShape, AblateGrid)}
