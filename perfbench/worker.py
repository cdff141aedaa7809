"""One benchmark run in a fresh process.

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH and the BLAS thread count pinned.  It imports polyagraph, builds
the workload from the seed, repeats the job until ``--seconds`` are used,
checks every output, and prints one JSON object as its last line.

With ``--trace 1`` the repetitions alternate between untraced and traced,
so the tracing overhead is measured in the same process; per-layer figures
come from the traced repetitions only.  CLI outputs go to a fresh
directory under ``.perfbench/`` for each repetition, which is removed once
its size has been read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from speed import Clock

ROOT = Path.cwd()
BENCH_DIR = ROOT / ".perfbench"
MAX_FAILURES_SHOWN = 8
SEGMENT_S = 0.3


def _import_polyagraph():
    import polyagraph

    src = (ROOT / "src").resolve()
    if not Path(polyagraph.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"polyagraph was imported from {polyagraph.__file__}, not from {src}")
    return polyagraph


def _clear_caches(polyagraph) -> None:
    # A CLI user pays for cold lru caches on every command; so does each repetition.
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == polyagraph.__name__:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, str] = {}
        self.errors: dict[str, float] = {}

    def add(self, op, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.unexpected += not op.known_defect
            if len(self.failures) < MAX_FAILURES_SHOWN or not op.known_defect:
                self.failures.setdefault(op.name, reason + (" (known defect)" if op.known_defect else ""))


def run_job(workload, tally: Tally, rec=None) -> Clock:
    """Run every operation once, timing the calls in segments of at least
    SEGMENT_S between reference loops."""
    clock = Clock(workload.reference)
    segment = 0.0
    for k, op in enumerate(workload.ops):
        if rec is not None:
            rec.active = True
        t0 = time.perf_counter()
        try:
            out, reason = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        segment += time.perf_counter() - t0
        if rec is not None:
            rec.active = False
        if reason is None:
            try:
                reason = op.check(out)
                if op.errors is not None:
                    for key, value in op.errors(out).items():
                        tally.errors[key] = max(tally.errors.get(key, 0.0), value)
            except Exception as exc:  # output too malformed to check
                reason = f"check raised {type(exc).__name__}: {exc}"
        tally.add(op, reason)
        del out
        if segment >= SEGMENT_S or k == len(workload.ops) - 1:
            clock.segment(segment)
            segment = 0.0
    return clock


def _out_dir() -> Path:
    path = Path(tempfile.mkdtemp(prefix="out-", dir=BENCH_DIR))
    os.environ["POLYAGRAPH_OUT_DIR"] = str(path)
    return path


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(workload, polyagraph, seconds: float, trace: bool, span_path: Path) -> dict:
    from spans import Recorder, instrument, layer_metrics
    from workloads import LAW_TOL

    rec = Recorder() if trace else None
    tally = Tally()
    clocks = {False: [], True: []}
    out_bytes = []
    start = time.perf_counter()
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        out_dir = _out_dir()
        _clear_caches(polyagraph)
        try:
            if traced:
                rec.run_id = rep
                uninstall = instrument(rec)
                try:
                    clocks[True].append(run_job(workload, tally, rec))
                finally:
                    uninstall()
                out_bytes.append(sum(f.stat().st_size for f in out_dir.iterdir()))
            else:
                clocks[False].append(run_job(workload, tally))
        finally:
            shutil.rmtree(out_dir)
        rep += 1
        elapsed = time.perf_counter() - start
        if rep >= (2 if trace else 1) and elapsed * (rep + 1) / rep > seconds:
            break

    plain = clocks[False]
    loop_s = statistics.median(t for c in plain for t in c.loop_times)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "failures": tally.failures,
        "reps": rep,
        "wall_s": statistics.median(c.ref for c in plain),
        "wall_raw_s": statistics.median(c.raw for c in plain),
        "speed_vs_nominal": plain[0].nominal / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced = clocks[True]
        layers = layer_metrics(rec, len(traced), statistics.fmean(c.raw for c in traced))
        layers["bench.trace_overhead_frac"] = statistics.median(c.ref for c in traced) / result["wall_s"] - 1.0
        layers["bench.wall_raw_s"] = result["wall_raw_s"]
        layers["bench.speed_vs_nominal"] = result["speed_vs_nominal"]
        layers["bench.fail_rate"] = tally.failed / tally.attempted
        layers["io.bytes_written"] = statistics.fmean(out_bytes)
        layers["analytics.pmf_mass_err_max"] = tally.errors.get("analytics.pmf_mass_err_max", 0.0)
        layers["analytics.mean_err_max"] = tally.errors.get("analytics.mean_err_max", 0.0)
        layers["analytics.pmf_mass_tol"] = layers["analytics.mean_tol"] = LAW_TOL
        result["layers"] = layers
        rec.write(span_path)
    return result


def record_reference(path: Path) -> None:
    """Record paper-experiments output digests for every seed index."""
    import subprocess

    from workloads import REFERENCE_SEEDS, csv_digest, paper_commands, run_cli

    table = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        table[mode] = {}
        for index in range(REFERENCE_SEEDS):
            digests = {}
            out_dir = _out_dir()
            try:
                for name, argv, out_name in paper_commands(index, smoke):
                    code, out_path = run_cli(argv, out_name)
                    if code != 0:
                        raise SystemExit(f"{name} at seed index {index} exited {code}")
                    digests[name] = csv_digest(out_path)
            finally:
                shutil.rmtree(out_dir)
            table[mode][str(index)] = digests
            print(f"recorded {mode} seed index {index}", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    doc = {"recorded_at_commit": commit or None, **table}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="set up, report the set-up time and exit")
    p.add_argument("--record-reference", type=Path, help="write paper-experiments reference digests here")
    args = p.parse_args(argv)

    polyagraph = _import_polyagraph()
    BENCH_DIR.mkdir(exist_ok=True)
    if args.record_reference is not None:
        record_reference(args.record_reference)
        print(json.dumps({"recorded": str(args.record_reference)}))
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_only:
        print(json.dumps({"ops": len(workload.ops)}))
        return 0
    span_path = BENCH_DIR / f"spans-{args.workload}.tsv.gz"
    result = measure(workload, polyagraph, args.seconds, bool(args.trace), span_path)
    result.update(versions=_versions(), largest_matrix_bytes=workload.largest_matrix_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
