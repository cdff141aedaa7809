"""Span recorder for the traced benchmark run.

:func:`instrument` wraps every public function of each polyagraph module
(its ``__all__``, or its non-underscore functions when it has none) plus
``ThresholdGraph.adjacency``.  Each wrapper is rebound in every
``polyagraph.*`` namespace that holds the original function object, because
``cli``, ``consensus`` and ``oracle`` import functions by name.  ``_numeric``
is private and is measured through its callers.

A span records its name, start, end, parent span, the job repetition it
belongs to, and two optional work annotations (a count and a byte figure).
Spans live in flat arrays in memory and are written out once, when the run
ends.  Self time is a span's duration minus the durations of its direct
children; calls are serial, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("rng", "urn", "graph", "analytics", "spectral", "consensus", "oracle", "io", "cli")


class Recorder:
    """In-memory span store; records only while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.run_id = 0
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.nbytes = array("d")

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.count.append(0.0)
        self.nbytes.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        """Write every span as one tab-separated line (times in microseconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tstart_us\tend_us\tcount\tnbytes\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\t"
                    f"{self.count[i]:g}\t{self.nbytes[i]:g}\n"
                )


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _iterate_work(fn, args, kwargs, traj):
    steps = traj.converged_at if traj.converged else _bound(fn, args, kwargs, "t_max")
    return steps, steps * _bound(fn, args, kwargs, "sys").W.nbytes


def _sweep_runs(fn, args, kwargs, points):
    cells = len(points) + len({p.delta for p in points})  # sweep cells plus one baseline per delta
    return cells * _bound(fn, args, kwargs, "runs"), 0


# (count, nbytes) recorded on a span from the call's arguments and result
_ANNOTATE = {
    "urn.sample_polya": lambda fn, a, k, r: (len(r), 0),
    "urn.sample_finite_memory": lambda fn, a, k, r: (len(r), 0),
    "graph.adjacency": lambda fn, a, k, r: (0, r.nbytes),
    "consensus.averaging_matrix": lambda fn, a, k, r: (
        0, r.W.nbytes + r.neighbor_counts.nbytes + r.pi_star.nbytes),
    "consensus.iterate": _iterate_work,
    "consensus.expected_stationary_mc": lambda fn, a, k, r: (_bound(fn, a, k, "runs"), 0),
    "consensus.memory_sweep": _sweep_runs,
    "spectral.verify_eigenpairs": lambda fn, a, k, r: (len(r.failures()), 0),
    "oracle.run_validation_suite": lambda fn, a, k, r: (sum(not c.passed for c in r), 0),
}


def _wrap(fn, name: str, rec: Recorder):
    annotate = _ANNOTATE.get(name)
    if name == "cli.main":
        def name_id(args, kwargs):
            argv = args[0] if args else kwargs["argv"]
            return rec.intern(f"cli.main:{argv[0]}")
    else:
        nid = rec.intern(name)

        def name_id(args, kwargs):
            return nid

    @functools.wraps(fn)
    def span(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name_id(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if annotate is not None:
            rec.count[idx], rec.nbytes[idx] = annotate(fn, args, kwargs, result)
        return result

    return span


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        fn = getattr(mod, attr)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield attr, fn


def instrument(rec: Recorder):
    """Install span wrappers; returns a function that restores the originals."""
    import polyagraph
    from polyagraph.graph import ThresholdGraph

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"polyagraph.{layer}"]
        for attr, fn in _public_functions(mod):
            wrappers[fn] = _wrap(fn, f"{layer}.{attr}", rec)
    patched = []
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == polyagraph.__name__]
    for mod in namespaces:
        hits = [(a, v) for a, v in vars(mod).items() if inspect.isfunction(v) and v in wrappers]
        for attr, fn in hits:
            setattr(mod, attr, wrappers[fn])
            patched.append((mod, attr, fn))
    adjacency = ThresholdGraph.adjacency
    ThresholdGraph.adjacency = _wrap(adjacency, "graph.adjacency", rec)
    patched.append((ThresholdGraph, "adjacency", adjacency))

    def uninstall():
        for obj, attr, original in reversed(patched):
            setattr(obj, attr, original)

    return uninstall


def layer_metrics(rec: Recorder, reps: int, traced_wall_s: float) -> dict[str, float]:
    """Per-job figures from the recorded spans (sums divided by ``reps``)."""
    n = len(rec.start)
    names = np.array(rec.names, dtype=object)
    nid = np.array(rec.name_id, dtype=np.int64)
    parent = np.array(rec.parent, dtype=np.int64)
    dur = np.array(rec.end) - np.array(rec.start)
    count = np.array(rec.count)
    nbytes = np.array(rec.nbytes)
    child = np.zeros(n)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_t = dur - child
    span_names = names[nid]
    span_layer = np.array([s.split(".")[0] for s in names], dtype=object)[nid]

    def pick(*wanted):
        return np.isin(span_names, wanted)

    def total(values, mask):
        return float(values[mask].sum()) / reps

    m: dict[str, float] = {}
    for layer in LAYERS:
        mask = span_layer == layer
        m[f"{layer}.calls"] = float(mask.sum()) / reps
        m[f"{layer}.self_s"] = total(self_t, mask)

    sample = pick("urn.sample_polya", "urn.sample_finite_memory")
    m["urn.sample_calls"] = float(sample.sum()) / reps
    m["urn.draws"] = total(count, sample)
    m["urn.sample_s"] = total(dur, sample)
    sample_us = dur[sample] * 1e6
    m["urn.sample_us_p50"] = float(np.percentile(sample_us, 50)) if sample_us.size else 0.0
    m["urn.sample_us_p99"] = float(np.percentile(sample_us, 99)) if sample_us.size else 0.0
    joint = pick("urn.polya_joint_pmf", "urn.finite_memory_joint_pmf")
    m["urn.joint_pmf_calls"] = float(joint.sum()) / reps
    m["urn.joint_pmf_s"] = total(dur, joint)

    m["graph.adjacency_bytes"] = total(nbytes, pick("graph.adjacency"))

    build = pick("consensus.averaging_matrix")
    m["consensus.build_s"] = total(dur, build)
    m["consensus.system_bytes"] = total(nbytes, build)
    it = pick("consensus.iterate")
    m["consensus.iterate_s"] = total(dur, it)
    m["consensus.steps"] = total(count, it)
    steps, it_s = count[it].sum(), dur[it].sum()
    m["consensus.step_us"] = float(it_s / steps * 1e6) if steps else 0.0
    m["consensus.step_gbps_computed"] = float(nbytes[it].sum() / it_s / 1e9) if it_s else 0.0
    mc = pick("consensus.expected_stationary_mc")
    m["consensus.pi_mc_s"] = total(dur, mc)
    m["consensus.mc_runs"] = total(count, mc | pick("consensus.memory_sweep"))
    m["consensus.sweep_s"] = total(dur, pick("consensus.memory_sweep"))
    m["consensus.pi_exact_s"] = total(dur, pick("consensus.expected_stationary_exact"))

    m["spectral.verify_s"] = total(dur, pick("spectral.verify_eigenpairs"))
    m["spectral.verify_failures"] = total(count, pick("spectral.verify_eigenpairs"))

    m["analytics.degree_pmf_s"] = total(dur, pick("analytics.degree_pmf"))
    m["analytics.centrality_s"] = total(dur, pick("analytics.expected_decay_centrality"))
    m["analytics.distance_pmf_calls"] = float(pick("analytics.distance_pmf").sum()) / reps

    m["oracle.validate_s"] = total(dur, pick("oracle.run_validation_suite"))
    m["oracle.checks_failed"] = total(count, pick("oracle.run_validation_suite"))

    for cmd in ("histogram", "memory-sweep", "pi-e", "validate"):
        m[f"cli.{cmd.replace('-', '_')}_s"] = total(dur, pick(f"cli.main:{cmd}"))

    m["bench.traced_wall_s"] = traced_wall_s
    m["bench.unattributed_s"] = traced_wall_s - total(dur, parent < 0)
    return m
