"""Benchmark of polyagraph: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (polyagraph is imported from ``src/``):

    python3 perfbench/run.py --workload consensus-large --seed 1 --seconds 20 --trace 0

prints a machine record and a summary on lines starting with '#', then as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics.  The workloads are described in
``workloads.py``.

    python3 perfbench/run.py --report [--repeat 5] [--workload W ...] [--seconds S] [--smoke]

runs each workload ``--repeat`` times untraced on consecutive seeds and once
traced, then prints per end-to-end metric the median, the quartiles and the
spread against the metric's bound, fail_rate in both modes, and every
per-layer metric.  ``--smoke`` shrinks every job to a tiny size.

    python3 perfbench/run.py --record-reference

re-records the paper-experiments reference outputs from the current source.

Every job runs in a fresh worker process with one BLAS thread.  wall_s is
the median time of one job, excluding set-up; setup_s is the median time of
several worker processes that only start the interpreter, import
polyagraph and build the inputs.  Both are in reference seconds, rescaled
by reference loops timed around each segment (see speed.py); the summary
lines also print the plain wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_THREADS = 1  # serial, so a layer's share of self time bounds the gain from optimising it
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("POLYAGRAPH_OUT_DIR", None)
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py with ``args``; returns its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(base: list[str], repeats: int) -> tuple[float, float]:
    """Median set-up time in reference seconds and in wall seconds."""
    _worker([*base, "--setup-only"], timeout=60)  # warm-up: bytecode and file caches
    clock = Clock("python")
    ref, raw = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        _worker([*base, "--setup-only"], timeout=60)
        raw.append(perf_counter() - t0)
        ref.append(clock.segment(raw[-1]))
    return statistics.median(ref), statistics.median(raw)


def _llc_bytes() -> int | None:
    getconf = shutil.which("getconf")
    if getconf is None:
        return None
    out = subprocess.run([getconf, "LEVEL3_CACHE_SIZE"], capture_output=True, text=True).stdout.strip()
    return int(out) if out.isdigit() and int(out) > 0 else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyagraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _machine_record(result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **result["versions"],
        "blas_threads": BLAS_THREADS,
        "llc_bytes": _llc_bytes(),
        "largest_matrix_bytes": result["largest_matrix_bytes"],
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup_s, setup_raw_s = (None, None) if trace else _setup_seconds(base, 2 if smoke else SETUP_REPEATS)
    result = _worker([*base, "--seconds", str(seconds), "--trace", str(trace)], timeout=WORKER_TIMEOUT_S)

    if trace:
        values, specs = result["layers"], _contract()["per_layer"]
    else:
        values = {"wall_s": result["wall_s"], "setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"]}
        specs = _contract()["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    attempted, failed = result["attempted"], result["failed"]
    print(f"# machine {json.dumps(_machine_record(result), sort_keys=True)}")
    print(f"# {workload} seed {seed} trace {trace}: {result['reps']} repetitions, "
          f"{attempted} operations, {failed} failed, fail_rate {failed / attempted:.6g}, "
          f"{result['unexpected']} outside the known defects")
    for name, reason in result["failures"].items():
        print(f"#   failed: {name}: {reason}")
    if not trace:
        for name, m in metrics.items():
            print(f"#   {name} = {m['value']:.6g} {m['unit']}")
        print(f"#   wall time {result['wall_raw_s']:.6g} s, set-up wall time {setup_raw_s:.6g} s, "
              f"machine speed {result['speed_vs_nominal']:.3g} x nominal (see speed.py)")
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _self_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workloads, seed: int, repeat: int, seconds: float, smoke: bool) -> int:
    contract = _contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    for workload in workloads:
        runs = [_self_run(workload, seed + k, seconds, 0, smoke) for k in range(repeat)]
        traced = _self_run(workload, seed, seconds, 1, smoke)
        print(f"== {workload}: {repeat} untraced runs (seeds {seed}..{seed + repeat - 1}), "
              f"{seconds:g} s each, and one traced run (seed {seed})")
        print(f"{'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  values")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  ABOVE bound/3"
            print(f"{name:<14}{unit:<6}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>7g}  "
                  f"{' '.join(f'{v:.4g}' for v in vals)}{flag}")
        rates = [r["failed"] / r["attempted"] for r in runs]
        print(f"fail_rate      1     untraced {' '.join(f'{v:.6g}' for v in rates)}; "
              f"traced {traced['failed'] / traced['attempted']:.6g}; "
              f"correct {all(r['correct'] for r in runs) and traced['correct']}")
        for name, m in traced["metrics"].items():
            print(f"  {name:<34}{m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="polyagraph benchmark")
    workloads = [w["name"] for w in _contract()["workloads"]]
    p.add_argument("--workload", action="append", choices=workloads,
                   help="workload to run (repeatable with --report; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    p.add_argument("--report", action="store_true", help="repeat and print the spread of every metric")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "polyagraph" / "__init__.py").is_file():
        print(f"error: no polyagraph source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        _worker(["--record-reference", str(HERE / "reference.json")], timeout=None)
        return 0
    if args.report:
        return report(args.workload or workloads, args.seed, args.repeat, args.seconds, args.smoke)
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload")
    return run_once(args.workload[0], args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
