"""varest benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one caller in one process, one BLAS thread and
one harness worker.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs half the time untraced, then whole passes over the input
pool with every layer wrapped, and prints the per-layer metrics.  The last
stdout line is the JSON result; the lines before it are a readable report and
the run's fingerprint.  Results, fingerprints and spans are also written under
``.perfbench_work/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# Fixed explicitly: with default OpenBLAS threading on a shared 2-core machine
# some `varest estimate` calls took twice as long as the rest.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VAREST_THREADS": "1"}
HARNESS_WORKERS = 1
N = 400
SMOKE_N = 20
DEFAULT_SEED = 0  # the seed whose outputs are pinned in reference.json
SETUP_RUNS = 5

LAYERS = ("cli", "harness", "simgen", "model", "kernels", "estimators",
          "selection", "variance", "zeroboost")
TARGETS = (
    "cli.main",
    "harness.estimate", "harness.run_scenario", "harness.summarize",
    "harness.write_records_csv", "harness.read_records_csv", "harness.write_summary_csv",
    "simgen.generate_dataset", "simgen.covariate_model_for", "simgen.build_beta",
    "model.build_w",
    "kernels.gram", "kernels.ordered_sum", "kernels.ordered_col_sums",
    "kernels.triple_sum_distinct", "kernels.chain_sum_distinct", "kernels.offdiag_square_sum",
    "estimators.naive_tau2", "estimators.dicker_tau2", "estimators.t_oracle",
    "estimators.t_full", "estimators.psi_hat", "estimators.build_single_zero",
    "estimators.t_c_hat_star",
    "selection.t_gamma", "selection.gap_select", "selection.beta_squared_estimates",
    "variance.var_tilde_naive", "variance.var_tilde_t_chat", "variance.var_tilde_t_gamma",
    "zeroboost.empirical_estimator",
)
# Entry points through which zeroboost evaluates its initial estimator, one
# per evaluation for every string initial (naive, single, full: build_w).
INITIAL_ENTRIES = ("model.build_w", "estimators.dicker_tau2", "selection.t_gamma")

END_TO_END = (
    ("setup_s", "s"),
    ("datasets_per_s", "1/s"),
    ("dataset_ms_p50", "ms"),
    ("dataset_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics, per dataset.  `<module>.<function>.calls|ms|self_ms` come
# straight from the spans; the rest are computed in `layer_metrics`.
PER_LAYER = (
    ("model.build_w.calls", "count"), ("model.build_w.ms", "ms"),
    ("kernels.gram.calls", "count"), ("kernels.gram.ms", "ms"),
    ("kernels.gram.gflop", "GFLOP"),
    ("simgen.covariate_model_for.calls", "count"),
    ("harness.estimate.self_ms", "ms"),
    ("kernels.ordered_col_sums.calls", "count"), ("kernels.ordered_col_sums.ms", "ms"),
    ("kernels.ordered_sum.calls", "count"), ("kernels.ordered_sum.ms", "ms"),
    ("kernels.sorted_melems", "Melem"),
    ("zeroboost.empirical_estimator.ms", "ms"), ("zeroboost.resample_ms", "ms"),
    ("zeroboost.initial_calls", "count"),
    ("estimators.t_full.ms", "ms"), ("estimators.t_full.gflop", "GFLOP"),
    ("estimators.psi_hat.calls", "count"), ("kernels.triple_sum_distinct.calls", "count"),
    ("selection.t_gamma.ms", "ms"), ("selection.selected_size", "count"),
    ("estimators.naive_tau2.ms", "ms"), ("estimators.dicker_tau2.ms", "ms"),
    ("estimators.t_oracle.ms", "ms"), ("estimators.build_single_zero.ms", "ms"),
    ("estimators.t_c_hat_star.ms", "ms"),
    ("variance.var_tilde_naive.ms", "ms"), ("variance.var_tilde_t_chat.ms", "ms"),
    ("variance.var_tilde_t_gamma.ms", "ms"),
    ("cli.main.self_ms", "ms"), ("cli.csv_mb", "MB"), ("cli.input_mb_per_s", "MB/s"),
    ("simgen.generate_dataset.ms", "ms"), ("harness.run_scenario.self_ms", "ms"),
    ("harness.summarize.ms", "ms"), ("harness.write_records_csv.ms", "ms"),
    ("harness.read_records_csv.ms", "ms"),
    *((f"layer.{layer}.self_ms", "ms") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
)


def import_varest() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not (SRC / "varest" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'varest'} not found; run from the root of a varest checkout")
    sys.path.insert(0, str(SRC))
    import varest

    if Path(varest.__file__).resolve().parent != SRC / "varest":
        sys.exit(f"error: imported varest from {varest.__file__}, not from {SRC}")


def _size(a) -> int:
    import numpy as np

    return int(np.size(a))


def _rows_flop(shape) -> int:
    n, p = shape
    return 2 * n * n * p


def _csv_bytes(tracer, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs["argv"])
    if argv and argv[0] == "estimate":
        tracer.add("csv_bytes", os.path.getsize(argv[argv.index("--data") + 1]))


def _set_rep(tracer, args, kwargs) -> None:
    rep = args[2] if len(args) > 2 else kwargs["rep_index"]
    tracer.dataset = (tracer.dataset[0], int(rep))


MEASURES = {
    "kernels.ordered_sum": lambda t, a, k, r: t.add("sorted_elems", _size(a[0])),
    "kernels.ordered_col_sums": lambda t, a, k, r: t.add("sorted_elems", _size(a[0])),
    "kernels.gram": lambda t, a, k, r: t.add(
        "gram_flop", _rows_flop(getattr(a[0], "w", a[0]).shape)),
    "estimators.t_full": lambda t, a, k, r: t.add("t_full_flop", _rows_flop(a[0].x.shape)),
    "selection.t_gamma": lambda t, a, k, r: t.add("selected", len(r.aux["selected"])),
    "cli.main": _csv_bytes,
}
ON_ENTER = {"simgen.generate_dataset": _set_rep}


def layer_metrics(tracer, datasets: int, overhead_pct: float) -> dict:
    """Per-layer metrics per dataset; ``None`` marks a metric whose layer is absent."""
    summary = tracer.summary()
    quantities = tracer.quantities
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "sites": {}}

    def row(fn):
        return summary.get(fn, empty)

    def ms(ns):
        return ns / 1e6 / datasets

    initial_calls = sum(row(fn)["sites"].get("zeroboost", 0) for fn in INITIAL_ENTRIES)
    cli_self_s = row("cli.main")["self_ns"] / 1e9
    computed = {
        "kernels.sorted_melems": (("kernels.ordered_sum", "kernels.ordered_col_sums"),
                                  lambda: quantities["sorted_elems"] / (datasets * 10**6)),
        "kernels.gram.gflop": (("kernels.gram",),
                               lambda: quantities["gram_flop"] / (datasets * 10**9)),
        "estimators.t_full.gflop": (("estimators.t_full",),
                                    lambda: quantities["t_full_flop"] / (datasets * 10**9)),
        "selection.selected_size": (("selection.t_gamma",),
                                    lambda: quantities["selected"] / datasets),
        "zeroboost.initial_calls": (("zeroboost.empirical_estimator", *INITIAL_ENTRIES),
                                    lambda: initial_calls / datasets),
        "zeroboost.resample_ms": (
            ("zeroboost.empirical_estimator", *INITIAL_ENTRIES),
            lambda: row("zeroboost.empirical_estimator")["ns"] / 1e6 / initial_calls
            if initial_calls else 0.0),
        "cli.csv_mb": (("cli.main",), lambda: quantities["csv_bytes"] / (datasets * 10**6)),
        "cli.input_mb_per_s": (("cli.main",), lambda: quantities["csv_bytes"] / 1e6 / cli_self_s
                               if cli_self_s else 0.0),
        "trace.overhead_pct": ((), lambda: overhead_pct),
    }
    missing = set(tracer.absent) | tracer.broken
    out = {}
    for name, unit in PER_LAYER:
        if name in computed:
            deps, value = computed[name]
        elif name.startswith("layer."):
            layer = name.split(".")[1]
            deps = ()
            value = (lambda layer=layer: ms(sum(r["self_ns"] for fn, r in summary.items()
                                                if fn.startswith(layer + "."))))
        else:
            fn, kind = name.rsplit(".", 1)
            deps = (fn,)
            value = {"calls": lambda fn=fn: row(fn)["calls"] / datasets,
                     "ms": lambda fn=fn: ms(row(fn)["ns"]),
                     "self_ms": lambda fn=fn: ms(row(fn)["self_ns"])}[kind]
        out[name] = {"value": None if missing.intersection(deps) else value(), "unit": unit}
    return out


@dataclass(frozen=True)
class Call:
    index: int  # pool entry
    seconds: float
    code: int
    outputs: tuple
    stderr: str


def timed_loop(pool, seconds: float, tracer=None) -> tuple[list[Call], float]:
    """Cycle through the pool until ``seconds`` pass.

    A traced loop also ends only after whole passes over the pool, so its
    per-dataset counts are the same in every run with the same seed.
    """
    import workloads as wl

    calls = []
    start = time.perf_counter()
    k = 0
    while True:
        entry = pool[k % len(pool)]
        if tracer is not None:
            tracer.dataset = (k, 0)
        t0 = time.perf_counter()
        code, err = wl.run_cli(entry.argv)
        dt = time.perf_counter() - t0
        calls.append(Call(entry.index, dt, code, wl.read_outputs(entry), err))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tracer is None or k % len(pool) == 0):
            return calls, elapsed


def load_reference(workload: str):
    """``({entry: {(rep, eid): values}}, {eid: var expected})`` for ``workload``."""
    raw = json.loads(REFERENCE.read_text())
    entries = [{(rep, eid): (tau2, sigma2, var) for rep, eid, tau2, sigma2, var in results}
               for results in raw["workloads"][workload]]
    var_expected = {}
    for results in entries:
        for (_, eid), (_, _, var) in results.items():
            var_expected[eid] = var_expected.get(eid, False) or var is not None
    return entries, var_expected


def api_check(pool, reference) -> dict:
    """Full-precision outputs of each pool entry against the reference (<= 1e-12 rel)."""
    import workloads as wl

    bad = {}
    for entry in pool:
        got = wl.api_results(entry)
        for key, want in reference[entry.index].items():
            have = got.get(key, (float("nan"), float("nan"), None))
            if not all(wl.close(a, b) for a, b in zip(have, want)):
                bad.setdefault(entry.index, set()).add(key)
                print(f"reference mismatch: entry {entry.index} {key}: {have} != {want}",
                      file=sys.stderr)
    return bad


def check_calls(pool, calls, reference, bad, var_expected, workdir) -> tuple[int, int]:
    """Count attempted and failed (dataset, estimator) results over all calls."""
    import workloads as wl

    attempted = failed = 0
    reported = False
    for call in calls:
        entry = pool[call.index]
        keys = wl.expected_keys(entry)
        attempted += len(keys)
        if call.code != 0 or not wl.summarize_round_trip(entry, call.outputs, workdir):
            failed += len(keys)
            if not reported:
                print(f"failed call (exit {call.code}): {' '.join(entry.argv)}\n{call.stderr}",
                      file=sys.stderr)
                reported = True
            continue
        printed = wl.parse_outputs(entry, call.outputs)
        for key in keys:
            want = reference[entry.index][key] if reference is not None else None
            ok = (key in printed and key not in bad.get(entry.index, ())
                  and wl.check_value(printed[key], want, var_expected.get(key[1], False)))
            failed += not ok
    return attempted, failed


def tail(samples):
    """Highest percentile, at most p95, with ten samples above it: (value, percentile).

    Host preemption on a shared machine hits about one sample in a hundred,
    so the cap keeps the tail from tracking those spikes once a run has more
    than 200 samples.
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    above = max(10, math.ceil(0.05 * len(s)))
    return s[len(s) - above - 1], 100.0 * (len(s) - above) / len(s)


def setup_runs(args) -> list[float]:
    """Time ``import varest`` plus one warm-up dataset in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def setup_probe(args, start: float) -> int:
    import workloads as wl

    pool = wl.build_pool(args.workload, args.seed, workdir_for(args), n_for(args), write=False)
    wl.warm_up(pool[0])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def workdir_for(args) -> Path:
    return WORK / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"


def n_for(args) -> int:
    return SMOKE_N if args.smoke else N


def _blas():
    """(name and version, configuration, threads) of numpy's BLAS."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    config, threads = None, None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                    return name, get_config().decode(), get_threads()
    except (OSError, IndexError):
        pass
    return name, config, threads


def fingerprint(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "varest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas, blas_config, blas_threads = _blas()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "command": list(getattr(sys, "orig_argv", sys.argv)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": n_for(args),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_config": blas_config,
        "blas_threads": blas_threads,
        "thread_env": THREAD_ENV,
        "harness_workers": HARNESS_WORKERS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"n = p = {SMOKE_N}: check the metrics are emitted, not their values")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def record_reference() -> int:
    """Write reference.json: full-precision outputs of every pool entry at DEFAULT_SEED."""
    import workloads as wl

    blocks = []
    for workload in wl.WORKLOADS:
        entries = [
            [[rep, eid, *values] for (rep, eid), values in sorted(wl.api_results(e).items())]
            for e in wl.build_pool(workload, DEFAULT_SEED, WORK, N, write=False)
        ]
        blocks.append(f"  {json.dumps(workload)}: [\n"
                      + ",\n".join(f"   {json.dumps(e)}" for e in entries) + "\n  ]")
    # One pool entry per line, so a changed value shows as a one-line diff.
    REFERENCE.write_text(f'{{"seed": {DEFAULT_SEED}, "n": {N}, "workloads": {{\n'
                         + ",\n".join(blocks) + "\n}}\n")
    return 0


def main(argv=None) -> int:
    start = time.perf_counter()
    os.environ.update(THREAD_ENV)
    argv = sys.argv[1:] if argv is None else argv
    import_varest()
    if argv == ["--record-reference"]:
        return record_reference()
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args, start)

    import workloads as wl
    from tracer import Tracer

    workdir = workdir_for(args)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool = wl.build_pool(args.workload, args.seed, workdir, n_for(args))
    reference, var_expected = load_reference(args.workload)
    if args.smoke or args.seed != DEFAULT_SEED:
        reference = None
    setup = setup_runs(args) if args.trace == 0 else []
    wl.warm_up(pool[0])
    bad = api_check(pool, reference) if reference is not None else {}

    if args.trace:
        plain, plain_s = timed_loop(pool, args.seconds / 2)
        tracer = Tracer(TARGETS, MEASURES, ON_ENTER)
        tracer.install()
        try:
            traced, traced_s = timed_loop(pool, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        calls = plain + traced
    else:
        plain, plain_s = timed_loop(pool, args.seconds)
        calls = plain

    attempted, failed = check_calls(pool, calls, reference, bad, var_expected, workdir)
    samples = [ms for c in plain for ms in wl.dataset_ms(pool[c.index], c.seconds, c.outputs)]
    datasets = sum(pool[c.index].datasets for c in plain)
    tail_ms, tail_pct = tail(samples)
    rate = datasets / plain_s
    report = {
        "setup_s": statistics.median(setup) if setup else None,
        "datasets_per_s": rate,
        "dataset_ms_p50": statistics.median(samples),
        "dataset_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        traced_sets = sum(pool[c.index].datasets for c in traced)
        overhead = 100.0 * (1.0 - (traced_sets / traced_s) / rate)
        metrics = layer_metrics(tracer, traced_sets, overhead)
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}

    info = fingerprint(args)
    print("fingerprint " + json.dumps(info))
    print(f"{args.workload} seed {args.seed}: {len(plain)} calls, {datasets} datasets "
          f"in {plain_s:.2f} s untraced")
    for name, unit in END_TO_END:
        if report[name] is not None:
            print(f"  {name:<18}{report[name]:>12.4f} {unit}")
    print(f"  tail is p{tail_pct:.1f} of {len(samples)} samples"
          + (f"; set-up is the median of {len(setup)} fresh processes" if setup else ""))
    print(f"  {'ops_failed_frac':<18}{failed / max(attempted, 1):>12.4f} "
          f"({failed} of {attempted} results)")
    if args.trace:
        print(f"  traced: {len(traced)} calls, {traced_sets} datasets in {traced_s:.2f} s; "
              f"overhead {overhead:.1f}% of datasets_per_s; "
              f"absent: {sorted(set(tracer.absent) | tracer.broken) or 'none'}")
        for name, unit in PER_LAYER:
            value = metrics[name]["value"]
            print(f"  {name:<36}{'absent' if value is None else format(value, '.6g'):>14} {unit}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {**result, "fingerprint": info, "tail_percentile": tail_pct,
         "samples": len(samples), "setup_runs_s": setup}, indent=1) + "\n")
    if args.trace:
        tracer.write(WORK / f"spans-{tag}.jsonl")
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
