"""Per-layer metrics from a traced run.

Every time and count is per *pass*: the median over set-up repetitions
plus the median over traced cycles, which is what one set-up followed
by one workload cycle costs.  Names are ``<module>.<function>.<stat>``.
Metrics in ``COMPUTED`` are derived from shapes or file sizes, not
measured.
"""

from __future__ import annotations

import statistics

from counts import IMAGE_INDEPENDENT, gemm_flops

# (function, stats) pairs reported for every workload.
FUNCTION_STATS = (
    ("cli.main", ("calls", "total_s", "self_s")),
    ("cli.cmd_gen_data", ("total_s",)),
    ("cli.cmd_train", ("total_s",)),
    ("cli.cmd_eval", ("total_s",)),
    ("cli.cmd_ablate", ("total_s",)),
    ("data_io.generate_synthetic", ("calls", "total_s")),
    ("data_io.save_container", ("total_s",)),
    ("data_io.load_container", ("total_s",)),
    ("data_io.read_container", ("calls", "total_s")),
    ("data_io.write_container", ("calls", "total_s")),
    ("data_io.validate_dataset", ("calls", "total_s")),
    ("ndmath.softmax_stable", ("calls", "self_s")),
    ("ndmath.log_sum_exp", ("calls", "self_s")),
    ("model.forward", ("calls", "self_s")),
    ("model.a2v_forward", ("calls", "total_s", "self_s")),
    ("model.v2a_forward", ("calls", "total_s", "self_s")),
    ("model.backward", ("calls", "total_s", "self_s")),
    ("model.init_params_from_rng", ("calls", "total_s")),
    ("model.save_checkpoint", ("total_s",)),
    ("model.load_checkpoint", ("total_s",)),
    ("losses.total_loss_raw", ("calls", "total_s", "self_s")),
    ("losses.acec_loss", ("calls", "self_s")),
    ("losses.distill_loss", ("calls", "self_s")),
    ("training.train", ("calls", "total_s", "self_s")),
    ("training.rmsprop_step", ("calls", "self_s")),
    ("training.make_batches", ("calls", "total_s")),
    ("zsl_eval.evaluate", ("calls", "total_s", "self_s")),
    ("zsl_eval.predict", ("calls", "self_s")),
    ("zsl_eval.per_class_accuracy", ("self_s",)),
    ("ablation.run_ablation", ("calls", "total_s", "self_s")),
)

COMPUTED = {
    "data_io.read_container.mb_per_call", "data_io.read_container.mb_per_s",
    "data_io.write_container.mb_per_call", "data_io.write_container.mb_per_s",
    "model.forward_gflop_per_image", "model.backward_gflop_per_image",
    "model.gflop_per_image", "model.image_independent_gflop_per_forward",
    "model.gflop_per_s", "training.rmsprop_step.mb_per_call",
    "training.rmsprop_step.gb_per_s",
}

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, workload, untraced, traced, setup_runs) -> dict[str, tuple]:
    """All per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = tracer.summary()
    setup_runs = list(setup_runs)
    cycle_runs = sorted(r for r in spans.run_ids if r not in setup_runs)
    med = statistics.median

    def per_pass(per_run) -> float:
        """Median over set-up runs plus median over traced cycles."""
        total = 0.0
        for runs in (setup_runs, cycle_runs):
            if runs:
                total += med(per_run(r) for r in runs)
        return total

    def stat(qualname: str, kind: str) -> float:
        return per_pass(lambda r: getattr(spans, kind)(r, qualname))

    def notes(run: int, qualname: str, ancestor: str | None = None) -> list:
        inside = spans.under(ancestor) if ancestor else None
        return [value for i, value in tracer.notes.get(qualname, ())
                if spans.spans["run"][i] == run and (inside is None or inside[i])]

    def noted(qualname: str) -> float:
        return per_pass(lambda r: sum(notes(r, qualname)))

    out: dict[str, tuple] = {}
    for qualname, kinds in FUNCTION_STATS:
        for kind in kinds:
            out[f"{qualname}.{kind}"] = (stat(qualname, kind), _UNITS[kind])

    out["cli.main.self_s_per_call"] = (
        _ratio(out["cli.main.self_s"][0], out["cli.main.calls"][0]), "s")
    for fn in ("read_container", "write_container"):
        qualname = f"data_io.{fn}"
        mb = noted(qualname) / 1e6
        out[f"{qualname}.mb_per_call"] = (_ratio(mb, out[f"{qualname}.calls"][0]), "MB")
        out[f"{qualname}.mb_per_s"] = (_ratio(mb, out[f"{qualname}.total_s"][0]), "MB/s")

    flops = gemm_flops(*workload.dims)
    per_fn = {fn: sum(products.values()) for fn, products in flops.items()}
    forward = per_fn["a2v_forward"] + per_fn["v2a_forward"]
    out["model.forward_gflop_per_image"] = (forward / 1e9, "GFLOP")
    out["model.backward_gflop_per_image"] = (per_fn["backward"] / 1e9, "GFLOP")
    out["model.gflop_per_image"] = ((forward + per_fn["backward"]) / 1e9, "GFLOP")
    out["model.image_independent_gflop_per_forward"] = (
        sum(flops[fn][p] for fn, names in IMAGE_INDEPENDENT.items() for p in names) / 1e9,
        "GFLOP")
    done = sum(stat(f"model.{fn}", "calls") * per_fn[fn] for fn in per_fn)
    busy = sum(stat(f"model.{fn}", "total_s") for fn in per_fn)
    out["model.gflop_per_s"] = (_ratio(done / 1e9, busy), "GFLOP/s")

    step_mb = noted("training.rmsprop_step") / 1e6
    steps = out["training.rmsprop_step.calls"][0]
    out["training.rmsprop_step.mb_per_call"] = (_ratio(step_mb, steps), "MB")
    out["training.rmsprop_step.gb_per_s"] = (
        _ratio(step_mb / 1e3, out["training.rmsprop_step.self_s"][0]), "GB/s")

    # Each evaluate call scores both test splits of the workload's dataset.
    train_images = per_pass(lambda r: sum(n for _, n in notes(r, "training.train")))
    softmax_in_train = per_pass(
        lambda r: spans.calls_under(r, "ndmath.softmax_stable", "training.train"))
    out["ndmath.softmax_stable.calls_per_train_image"] = (
        _ratio(softmax_in_train, train_images), "count")
    forwards_in_eval = per_pass(
        lambda r: spans.calls_under(r, "model.forward", "zsl_eval.evaluate"))
    out["zsl_eval.forwards_per_test_image"] = (
        _ratio(forwards_in_eval, stat("zsl_eval.evaluate", "calls") * workload.n_test),
        "count")

    def train_calls_per_config(run: int) -> float:
        keys = [key for key, _ in notes(run, "training.train", "ablation.run_ablation")]
        return _ratio(len(keys), len(set(keys)))

    out["ablation.train_calls_per_distinct_config"] = (
        med(train_calls_per_config(r) for r in cycle_runs) if cycle_runs else 0.0, "ratio")

    plain = med(c.seconds for c in untraced)
    with_spans = med(c.seconds for c in traced) if traced else 0.0
    out["tracing.untraced_cycle_s"] = (plain, "s")
    out["tracing.traced_cycle_s"] = (with_spans, "s")
    out["tracing.overhead_pct"] = (100.0 * _ratio(with_spans - plain, plain), "%")
    out["tracing.spans_per_cycle"] = (
        med(spans.span_count(r) for r in cycle_runs) if cycle_runs else 0.0,
        "count")
    return out
