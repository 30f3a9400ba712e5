"""Command-line pipeline: data generation, training, evaluation, checks.

Exit codes: 2 usage/arguments, 3 bad data, 4 numeric failure, 5 shape
mismatch, 6 gradient-check failure.  The first stderr line of any
failure is a single machine-parseable ``error: ...`` message.  Setting
MSDN_SEED overrides --seed wherever that flag exists.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import ablation, data_io, losses, model, training, zsl_eval
from .configfile import load_config, require_seed
from .errors import ArgumentError, GradientCheckError, MsdnError, ShapeError
from .ndmath import Rng, grad_check_detail

GRAD_TOLERANCE = 1e-5
# glibc mallopt(3) settings: serve every block under 32 MiB (glibc's 64-bit
# maximum) from the heap, and keep up to 1 GiB of freed heap for reuse.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30))


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc reuse freed blocks instead of mapping them afresh at every step.

    By default glibc maps each block above a moving threshold (128 KB at
    start) fresh and returns freed heap to the kernel, so every training
    step page-faults its temporaries anew.  Fixing both thresholds keeps
    freed memory in the process for the next step; no arithmetic changes.
    Once per process; a no-op without glibc's ``mallopt`` or on any failure.
    """
    try:
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "gnu_get_libc_version"):  # the setting numbers are glibc's
            return
        mallopt = libc.mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in _MALLOC_POLICY:
            mallopt(param, value)
    except (OSError, AttributeError, TypeError):
        pass


def _resolve_seed(cli_seed: int | None, default: int) -> int:
    env = os.environ.get("MSDN_SEED")
    if env is None:
        return default if cli_seed is None else require_seed("--seed", cli_seed)
    try:
        seed = int(env)
    except ValueError:
        raise ArgumentError(f"MSDN_SEED must be an integer, got {env!r}") from None
    return require_seed("MSDN_SEED", seed)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers share the class: every usage error is exit 2
        raise ArgumentError(f"{self.prog}: {message}")


@functools.cache  # one parser per process: parsing changes no parser state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="msdn",
        description="Mutual-attention zero-shot learner: synthetic data, "
                    "training, evaluation, and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset container")
    p.add_argument("--spec", help="key=value file with SynthSpec fields")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.add_argument("--out", required=True, help="output container path")

    p = sub.add_parser("train", help="train on a dataset container")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True, help="key=value TrainConfig file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", help="per-epoch loss CSV output path")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=zsl_eval.MODES, default="gzsl")
    p.add_argument("--alpha1", type=float, default=zsl_eval.PredictConfig.alpha1)
    p.add_argument("--alpha2", type=float, default=zsl_eval.PredictConfig.alpha2)
    p.add_argument("--out", required=True, help="metric CSV output path")
    p.add_argument("--per-class", dest="per_class", help="per-class accuracy CSV path")

    p = sub.add_parser("grad-check", help="verify analytic gradients")
    p.add_argument("--dims", default="5,4,8,6,3,2",
                   help="k,r,d_v,d_a,c_seen,c_unseen")
    p.add_argument("--seed", type=int, help="instance seed")

    p = sub.add_parser("ablate", help="train and score all ablation variants")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="variant,acc,H CSV path")
    p.add_argument("--alpha1", type=float, default=zsl_eval.PredictConfig.alpha1)
    p.add_argument("--alpha2", type=float, default=zsl_eval.PredictConfig.alpha2)

    p = sub.add_parser("export-attention", help="dump attention weights for one image")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")

    return parser


def cmd_gen_data(args) -> int:
    spec = load_config(data_io.SynthSpec, args.spec) if args.spec else data_io.SynthSpec()
    seed = _resolve_seed(args.seed, spec.seed)
    spec = dataclasses.replace(spec, seed=seed)
    ds = data_io.generate_synthetic(spec)
    data_io.save_container(ds, args.out)
    for name in data_io.REQUIRED_TENSORS:
        print(f"{name} {getattr(ds, name).shape}")
    for name, arr in ds.extras.items():
        print(f"{name} {arr.shape}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(training.TrainConfig, args.config)
    ds = data_io.load_container(args.data)
    params, history = training.train(ds, cfg)
    model.save_checkpoint(params, args.out)
    if args.history:
        training.write_history_csv(history, args.history)
    if history:
        print(f"trained {cfg.epochs} epochs, final total loss {history[-1].total:.6f}")
    else:
        print("trained 0 epochs (parameters left at initialization)")
    return 0


def _load_checkpoint_and_data(args) -> tuple[model.ModelParams, data_io.Dataset]:
    """``--checkpoint``, then ``--data``, whose dims must match.  The checkpoint
    comes first: its file is unmapped before the dataset's pages are read."""
    params = model.load_checkpoint(args.checkpoint)
    ds = data_io.load_container(args.data)
    expected = model.ModelDims.for_dataset(ds)
    if params.dims != expected:
        raise ShapeError(f"checkpoint dims {params.dims} do not match dataset dims {expected}")
    return params, ds


def cmd_eval(args) -> int:
    cfg = zsl_eval.PredictConfig(alpha1=args.alpha1, alpha2=args.alpha2)
    params, ds = _load_checkpoint_and_data(args)
    report = zsl_eval.evaluate(params, ds, cfg)
    zsl_eval.write_report_csv(report, args.out)
    if args.per_class:
        zsl_eval.write_per_class_csv(report, args.per_class)
    if args.mode == "czsl":
        print(f"acc {report.acc:.4f}")
    else:
        print(f"U {report.U:.4f} S {report.S:.4f} H {report.H:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    try:
        k, r, d_v, d_a, c_seen, c_unseen = (int(v) for v in args.dims.split(","))
    except ValueError as exc:
        raise ArgumentError(f"--dims expects six integers, got {args.dims!r}") from exc
    if min(k, r, d_v, d_a, c_seen) < 1 or c_unseen < 0:
        raise ArgumentError(
            f"--dims needs k, r, d_v, d_a, c_seen >= 1 and c_unseen >= 0, got {args.dims!r}")
    seed = _resolve_seed(args.seed, 0)
    rng = Rng(seed)
    dims = model.ModelDims(visual_dim=d_v, attr_dim=d_a,
                           num_attributes=k, num_regions=r)
    params = model.init_params_from_rng(dims, rng)
    batch = 2
    images = [rng.uniform(-1.0, 1.0, r, d_v) for _ in range(batch)]
    regions = np.stack(images, axis=1)   # (R, B, d_v), as in training
    attrs = rng.uniform(-1.0, 1.0, k, d_a)
    semantics = rng.uniform(0.0, 1.0, c_seen + c_unseen, k)
    labels = (rng.uniform(0.0, 1.0, 1, batch)[0] * c_seen).astype(np.intp)
    split = data_io.ClassSplit.of(np.arange(c_seen), np.arange(c_seen, c_seen + c_unseen))
    terms = losses.LossTerms.of((losses.LossConfig(),))

    def loss_with(name: str, flat: np.ndarray) -> float:
        shape = getattr(params, name).shape
        candidate = dataclasses.replace(params, **{name: flat.reshape(shape)})
        breakdown, _ = losses.total_loss_raw(
            candidate, regions, labels, attrs, semantics, split, terms)
        return breakdown.total

    _, grads = losses.total_loss_raw(
        params, regions, labels, attrs, semantics, split, terms)
    failures = []
    for name in model.PARAM_NAMES:
        detail = grad_check_detail(
            lambda flat, _n=name: loss_with(_n, flat),
            getattr(params, name).reshape(-1),
            grads[name].reshape(-1),
        )
        print(f"{name} max_rel_error={detail.max_rel_error:.3e}")
        if detail.max_rel_error > GRAD_TOLERANCE:
            failures.append((name, detail))
    if failures:
        name, detail = max(failures, key=lambda item: item[1].max_rel_error)
        raise GradientCheckError(
            f"gradient check failed for {name} at flat coordinate "
            f"{detail.worst_index}: analytic {detail.analytic_at_worst:.6e}, "
            f"numeric {detail.numeric_at_worst:.6e}, "
            f"relative error {detail.max_rel_error:.3e} > {GRAD_TOLERANCE:.0e}"
        )
    print("all gradients ok")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(training.TrainConfig, args.config)
    predict_cfg = zsl_eval.PredictConfig(alpha1=args.alpha1, alpha2=args.alpha2)
    ds = data_io.load_container(args.data)
    rows = ablation.run_ablation(ds, cfg, predict_cfg)
    ablation.write_ablation_csv(rows, args.out)
    for variant, acc, H in rows:
        print(f"{variant} acc={acc:.4f} H={H:.4f}")
    return 0


def cmd_export_attention(args) -> int:
    params, ds = _load_checkpoint_and_data(args)
    if not 0 <= args.image < ds.num_samples:
        raise ArgumentError(f"--image {args.image} out of range for {ds.num_samples} samples")
    trace = model.forward(ds.regions([args.image]), ds.attributes,
                          params.astype(np.float64))  # float64 maps
    beta, tau, psi, Psi = trace.beta[..., 0], trace.tau[:, 0], trace.psi[:, 0], trace.Psi[:, 0]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_grid(name: str, header: list[str], grid: np.ndarray) -> None:
        rows = ([i, *row] for i, row in enumerate(grid.tolist()))
        data_io.write_table(out_dir / name, header, rows)

    k, r = beta.shape
    write_grid("beta.csv", ["attribute", *(f"region_{j}" for j in range(r))], beta)
    write_grid("tau.csv", ["region", *(f"attribute_{j}" for j in range(k))], tau)
    write_grid("scores.csv", ["attribute", "psi", "Psi"], np.stack([psi, Psi], axis=1))
    print(f"wrote beta.csv, tau.csv, scores.csv to {out_dir}")
    return 0


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "grad-check": cmd_grad_check,
    "ablate": cmd_ablate,
    "export-attention": cmd_export_attention,
}


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        # An overflow is reported once, by the finiteness check that meets
        # it (exit 4), not as a numpy warning per operation beforehand.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _HANDLERS[args.command](args)
    except MsdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
