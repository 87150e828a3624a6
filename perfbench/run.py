#!/usr/bin/env python3
"""seercal benchmark: one workload, one process, closed loop.

Run from the root of a seercal checkout:

    python3 perfbench/run.py --workload paper-case --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times the public CLI (``seercal.cli.main``) with
tracing off and prints the end-to-end metrics.  With ``--trace 1`` each
operation runs twice, untraced and then traced (the modules' functions
wrapped in spans under the names where the program looks them up), and the
run prints the per-layer metrics.  The last line of
standard output is one JSON object; ``.perfbench_out/<run>/results.json``
keeps the samples, the environment and the sha256 of every generated input.
See NOTES.md for the metric definitions.
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
import traceback
from pathlib import Path

# One caller, one operation at a time, one BLAS thread (set before numpy loads).
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def environment(wl) -> dict:
    import numpy as np

    def sysconf(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # the config layout differs across numpy versions
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE"),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "working_set_bytes": wl.coord_rows * 34 * 8,
    }


def quantile75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seercal benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seercal" / "__init__.py").is_file():
        _fail(f"no seercal sources at {SRC}; run from the root of a seercal checkout")
    sys.path.insert(0, str(SRC))
    import seercal
    if Path(seercal.__file__).resolve().parent != (SRC / "seercal").resolve():
        _fail(f"imported seercal from {seercal.__file__}, not from {SRC}")

    import gen
    import speed
    from spans import Tracer
    from workloads import KEPT, TRACED, WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    run_dir = ROOT / ".perfbench_out" / (
        f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    run_dir.mkdir(parents=True)

    tr = Tracer() if args.trace else None
    keys = wl.keys()
    setup_times, input_sha, correct = [], None, True
    op_times, traced_times, op_keys = [], [], []
    scaled_setups, scaled_ops, refs = [], [], []
    attempted = failed = 0
    measured = 0.0
    min_ops = 1 if tr is not None else wl.min_ops
    inputs_dir = None
    while attempted < min_ops or measured < args.seconds:
        ref_before = speed.reference_ms()
        # Set-up into a fresh directory before every operation: the reps are
        # spread over the run, so their median rides out bursts of load.
        if inputs_dir is not None:
            shutil.rmtree(inputs_dir)
        inputs_dir = run_dir / "inputs" / f"{attempted:04d}"
        t0 = time.perf_counter()
        inputs_dir.mkdir(parents=True)
        wl.inputs = wl.write_inputs(inputs_dir)
        setup_times.append(time.perf_counter() - t0)
        sha = {name: gen.sha256(p) for name, p in wl.inputs.items()}
        correct &= input_sha is None or sha == input_sha
        input_sha = sha

        key = keys[attempted % len(keys)]
        op_dir = run_dir / "ops" / f"{attempted:04d}"
        elapsed, ok = run_op(wl, key, op_dir / "plain")
        ok = ok and check_op(wl, key, op_dir / "plain")
        op_times.append(elapsed)
        measured += elapsed
        refs.append((ref_before + speed.reference_ms()) / 2)
        if wl.scaled:
            scaled_ops.append(speed.scaled(op_times[-1], refs[-1]))
            scaled_setups.append(speed.scaled(setup_times[-1], refs[-1]))
        if tr is not None:
            tr.op = f"op{attempted}"
            with tr.patched(TRACED, KEPT), tr.span("op"):
                elapsed, traced_ok = run_op(wl, key, op_dir / "traced")
            # Checked outside the patch, so the checks' own calls are not traced.
            ok &= traced_ok and check_op(wl, key, op_dir / "traced")
            traced_times.append(elapsed)
            measured += elapsed
        attempted += 1
        op_keys.append(key)
        if not ok:
            failed += 1
            print(f"perfbench: operation {attempted - 1} {key} failed", file=sys.stderr)
        # Files deleted before write-back are never written to disk, so the
        # kernel's flushing does not compete with later operations.
        shutil.rmtree(op_dir)

    # Read before mmre(), which evaluates the calibrated tables after the loop.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(wl), "inputs_sha256": input_sha,
        "setup_s_samples": setup_times, "op_s_samples": op_times,
        "reference_ms_samples": refs, "attempted": attempted, "failed": failed,
    }
    if tr is None:
        ops, setups = (scaled_ops, scaled_setups) if wl.scaled else (op_times, setup_times)
        p50 = statistics.median(ops)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms.p50": (1e3 * p50, "ms"),
            "op_ms.p75": (1e3 * quantile75(ops), "ms"),
            "projects_per_s": (wl.rows / p50, "1/s"),
            "mmre": (wl.mmre(), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        # Reported, not gated: see NOTES.md.
        extra = {"reference_ms.p50": (statistics.median(refs), "ms"),
                 "failed_ratio": (failed / attempted, "ratio")}
        if wl.scaled:
            extra.update({"wall_op_ms.p50": (1e3 * statistics.median(op_times), "ms"),
                          "wall_op_ms.p75": (1e3 * quantile75(op_times), "ms"),
                          "wall_setup_s": (statistics.median(setup_times), "s")})
        if wl.loss_ratios:
            extra["calibrate_loss_ratio"] = (statistics.fmean(wl.loss_ratios.values()), "ratio")
        results["extra_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        results["quality_by_op_key"] = {str(k): v for k, v in wl.quality.items()}
    else:
        extra = {}
        probe_dir = run_dir / "probe"
        probe_dir.mkdir()
        tr.op = "probe"
        wl.probes(tr, probe_dir)
        metrics = layer_metrics(wl, tr, op_keys, op_times, traced_times)
        results["traced_op_s_samples"] = traced_times
        tr.write(run_dir / "spans.json.gz")
    results["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for sub in ("ops", "inputs", "probe"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)
    (run_dir / "results.json").write_text(json.dumps(results, indent=2) + "\n",
                                          encoding="utf-8")

    correct &= failed == 0
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name:<14} {name:<34} {value:>16.6g} {unit}")
    print(f"{wl.name:<14} {'attempted':<34} {attempted:>16d} ops ({failed} failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results["metrics"]}))
    return 0


def run_op(wl, key, out: Path) -> tuple[float, bool]:
    """One operation's CLI commands into ``out``: (wall seconds, all exited 0)."""
    from workloads import run_cli

    t0 = time.perf_counter()
    rcs = []
    for argv in wl.argvs(key, out):
        rcs.append(run_cli(argv))
        if rcs[-1]:
            print(f"perfbench: {key} {argv[0]} exited with {rcs[-1]}", file=sys.stderr)
            break
    return time.perf_counter() - t0, not any(rcs)


def check_op(wl, key, out: Path) -> bool:
    """The workload's checks of one operation's outputs; a crash fails them."""
    try:
        return wl.check(key, out)
    except Exception:
        traceback.print_exc()
        return False


def layer_metrics(wl, tr, op_keys, op_times, traced_times) -> dict:
    """Per-layer metrics from the spans: the workload's own operations where
    they call the layer, else the probes on the workload's data.  A layer's
    time includes the spanned layers it calls (see NOTES.md)."""
    from workloads import train_counts

    totals = tr.totals_by_op()
    counts = tr.count_by_op()
    self_times = tr.self_by_op()
    ops = [f"op{i}" for i in range(len(op_keys))]

    def source(name, only=None):
        """The operations that call ``name`` (those whose key passes ``only``),
        else the probe."""
        picked = [o for o, k in zip(ops, op_keys)
                  if (only is None or only(k)) and name in totals[o]]
        return picked or ["probe"]

    def seconds(name, only=None):
        picked = source(name, only)
        if picked == ["probe"]:
            return statistics.median(tr.durations(name, "probe"))
        return statistics.median(totals[o][name] for o in picked)

    def per_call_us(name):
        picked = source(name)
        return (1e6 * sum(totals[o][name] for o in picked)
                / sum(counts[o][name] for o in picked))

    reports = tr.kept["metrics.evaluate"]
    evaluate_ops = set(source("metrics.evaluate"))
    evaluated = sum(r.n_projects for o, r in reports if o in evaluate_ops)
    counts_train = train_counts([t for _, t in tr.kept["calibration.train"]])
    train_s = seconds("calibration.train")
    setup_s = seconds("calibration.train_setup")
    return {
        "dataset.parse_ms": (1e3 * seconds("dataset.parse"), "ms"),
        "dataset.transfer_ms": (1e3 * seconds("dataset.transfer"), "ms"),
        "dataset.save_projects_ms": (1e3 * seconds("dataset.save_projects"), "ms"),
        "dataset.load_projects_ms": (1e3 * seconds("dataset.load_projects"), "ms"),
        "table.load_ms": (1e3 * seconds("table.load"), "ms"),
        "table.validate_ms": (1e3 * seconds("table.validate"), "ms"),
        "table.text_ms": (1e3 * seconds("table.text"), "ms"),
        "cases.split_ms": (1e3 * seconds("cases.split", wl.runs_baseline_pass), "ms"),
        "calibration.train_s": (train_s, "s"),
        "calibration.train_setup_ms": (1e3 * setup_s, "ms"),
        "calibration.epoch_ms":
            (1e3 * (train_s - setup_s) / counts_train["calibration.epochs"], "ms"),
        "calibration.loss_ms": (1e3 * seconds("calibration.loss"), "ms"),
        "calibration.loss_gradient_ms": (1e3 * seconds("calibration.loss_gradient"), "ms"),
        "calibration.monotone_ms": (1e3 * seconds("calibration.monotone"), "ms"),
        **{name: (value, "ratio" if name.endswith("_ratio") else "count")
           for name, value in counts_train.items()},
        "metrics.evaluate_ms": (1e3 * seconds("metrics.evaluate"), "ms"),
        "metrics.evaluate_us_per_project":
            (1e6 * sum(totals[o]["metrics.evaluate"] for o in evaluate_ops) / evaluated, "us"),
        "engine.effort_us": (per_call_us("engine.effort"), "us"),
        "nfbank.translate_us": (per_call_us("nfbank.translate"), "us"),
        "cli.serialize_ms": (1e3 * seconds("cli.serialize"), "ms"),
        # The root span's self time: the command's time outside every traced call.
        "cli.unattributed_ms":
            (1e3 * statistics.median(self_times[o]["op"] for o in ops), "ms"),
        "trace.overhead_frac":
            (statistics.median(traced_times) / statistics.median(op_times), "ratio"),
    }


if __name__ == "__main__":
    raise SystemExit(main())
