"""Benchmark of the msdn command line: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload stock_pipeline --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven
in-process through ``msdn.cli.main`` by one client in a closed loop (see
``workloads.py``).  The run sets its workload up several times, once
before the first cycle and the rest between cycles, and reports the
median set-up time; it repeats workload cycles for about ``--seconds``
seconds and checks every output.

``--trace 0`` reports the end-to-end metrics, measured with tracing off
and scaled by the run's speed probe to a reference machine speed (see
``end_to_end``); the unscaled values are printed as ``wall-clock`` lines.
``--trace 1`` alternates untraced and traced cycles, wraps every public
function of the traced modules (``tracing.py``) during set-up and the
traced cycles, and reports per-layer metrics: for each function its
calls, total and self time per *pass* (the median set-up repetition plus
the median traced cycle), counts derived from those, and the tracing
overhead (traced against untraced cycle time).  The spans are written
to ``.bench_run/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every command and check passed.  ``--smoke`` shrinks every
shape so that all workloads finish in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
CYCLE_RUN_BASE = 1000  # run ids: set-up repetitions 0.., cycles 1000..

# The speed probe: a fixed pure-Python loop, timed before every set-up
# and every cycle.  On a 2-vCPU x86_64 machine shared with other tenants
# it took 0.03-0.045 s; REFERENCE_PROBE_S is the time that reported
# times are scaled to (see ``end_to_end``).
PROBE_ITERATIONS = 200_000
REFERENCE_PROBE_S = 0.040


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Keep BLAS at no more threads than this process may run on."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc()):
            os.environ[var] = str(nproc())


def blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(np),
        "nproc": nproc(),
        "machine": platform.machine(),
        "seed": seed,
    }


def import_msdn() -> None:
    """Import the package from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import msdn
        import msdn.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import msdn from {SRC}: {exc}")
    if not Path(msdn.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: msdn was imported from {msdn.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_s() -> float:
    """Time of the speed probe: how fast this machine runs right now."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x ^= (x << 1) + i
        x &= 0xFFFFFFFF
    return time.perf_counter() - start


def timed_setup(workload, setup_times: list, probes: list, tracer=None) -> None:
    """One more set-up repetition; traced as run ``len(setup_times)``."""
    probes.append(probe_s())
    if tracer is not None:
        tracer.run_id = len(setup_times)
        tracer.install()
    try:
        setup_times.append(workload.setup())
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_cycles(workload, seconds: float, setup_times: list, probes: list,
               tracer=None) -> tuple[list, list]:
    """Closed loop of cycles; returns (untraced, traced) cycle results.

    With a tracer, cycles alternate untraced and traced.  A new cycle
    starts only if the longest cycle so far still fits in the budget,
    once the minimum (two untraced, one traced) is done.  The remaining
    set-up repetitions run between cycles, so that their median samples
    the whole run and not one moment of it.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while not workload.s.failures:
        if len(setup_times) < workload.reps:
            timed_setup(workload, setup_times, probes, tracer)
        traced_turn = tracer is not None and len(untraced) > len(traced)
        probes.append(probe_s())
        t0 = time.perf_counter()
        if traced_turn:
            tracer.run_id = CYCLE_RUN_BASE + len(untraced) + len(traced)
            tracer.install()
        try:
            result = workload.cycle()
        finally:
            if traced_turn:
                tracer.uninstall()
        (traced if traced_turn else untraced).append(result)
        longest = max(longest, time.perf_counter() - t0)
        done = len(untraced) >= 2 and (tracer is None or traced)
        if done and time.perf_counter() - start + longest > seconds:
            break
    while len(setup_times) < workload.reps and not workload.s.failures:
        timed_setup(workload, setup_times, probes, tracer)
    return untraced, traced


def end_to_end(setup_times, cycles, rss, scale: float = 1.0) -> dict:
    """Median set-up time; cycle time and rates come from the run's totals.

    Times are multiplied, and rates divided, by ``scale``.  On a 2-vCPU
    machine shared with other tenants, the same code's speed switches
    between a fast and a slow state every few seconds and drifts by up
    to 40% over tens of minutes.  A median of cycles jumps between the
    two states with the share of the run spent in each, while a total
    moves with that share smoothly.  The drift between runs is removed
    by scaling to the speed at which the probe takes REFERENCE_PROBE_S:
    the run's mean probe time tracked its mean cycle time with a
    correlation of 0.93 over ten 25 s runs of ``ablate_grid``, and the
    scaled cycle time spread 3.5% between them against 15% unscaled.
    """
    med = statistics.median
    return {
        "setup_s": (med(setup_times) * scale, "s"),
        "cycle_s": (sum(c.seconds for c in cycles) / len(cycles) * scale, "s"),
        "train_samples_per_s": (sum(c.train_samples for c in cycles)
                                / sum(c.train_s for c in cycles) / scale, "1/s"),
        "eval_samples_per_s": (sum(c.eval_samples for c in cycles)
                               / sum(c.eval_s for c in cycles) / scale, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


WORKLOADS = ("stock_pipeline", "paper_shape", "ablate_grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, for a quick check that the benchmark works")
    args = parser.parse_args(argv)

    limit_blas_threads()
    import_msdn()
    import numpy as np

    import layers
    import workloads
    from tracing import Tracer

    env = environment(np, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work = RUN_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = workloads.Session(work)
        workload = workloads.WORKLOADS[args.workload](session, args.seed, args.smoke)
        tracer = Tracer() if args.trace else None
        setup_times: list[float] = []
        probes: list[float] = []
        timed_setup(workload, setup_times, probes, tracer)
        workload.describe()
        untraced, traced = run_cycles(workload, args.seconds, setup_times, probes, tracer)
        rss = peak_rss_mb()
        if not session.failures:
            workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: {len(setup_times)} set-ups, "
          f"{len(untraced)} untraced and {len(traced)} traced cycles")
    for label, cycles in (("untraced", untraced), ("traced", traced)):
        if cycles:
            print(f"{label} cycles: seconds " + " ".join(f"{c.seconds:.4f}" for c in cycles)
                  + " | train/s " + " ".join(f"{c.train_samples / c.train_s:.5g}" for c in cycles)
                  + " | eval/s " + " ".join(f"{c.eval_samples / c.eval_s:.5g}" for c in cycles))
    for key, value in sorted(workload.quality.items()):
        if value is not None:
            print(f"quality {key} {value:.4f}")
    if args.trace:
        tracer.write(RUN_DIR / f"spans-{args.workload}.npz")
        metrics = layers.per_layer(tracer, workload, untraced, traced,
                                   range(workload.reps))
    else:
        scale = REFERENCE_PROBE_S / statistics.fmean(probes)
        print(f"speed probe: mean {statistics.fmean(probes):.5f} s over {len(probes)} "
              f"probes, reference {REFERENCE_PROBE_S} s, scale {scale:.5f}")
        for name, (value, unit) in end_to_end(setup_times, untraced, rss).items():
            print(f"wall-clock {name} {value:.6g} {unit}")
        metrics = end_to_end(setup_times, untraced, rss, scale)
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in layers.COMPUTED else ""
        print(f"{name} {value:.6g} {unit}{label}")
    failed = len(session.failures)
    print(f"failed_ops_ratio {failed / max(session.attempted, 1):.6g} "
          f"({failed} of {session.attempted} commands and checks)")
    for what in session.failures[:20]:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(session.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
