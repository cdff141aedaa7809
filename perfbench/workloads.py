"""The benchmark's workloads: fixed jobs whose inputs come from a seed.

A workload is a list of operations.  Each operation makes one call into the
library or the CLI, which is timed, and then checks the output, which is
not.  An operation fails if it raises, if the CLI exits nonzero, or if its
output misses its check.

Every workload keeps its cost independent of the seed, because the
benchmark's spread is taken across seeds: the seed picks realizations,
stream indices and node indices, never sizes, and node indices are drawn
from windows where the cost of a call is flat.

consensus-large
    Library path on a few large connected realizations: sample, build the
    dense averaging matrix W (128 MB at n = 4000) and iterate to
    convergence, then the closed-form spectrum and the integer eigenpair
    check at n = 400.  The urn is (R, B, reinforcement) = (500, 500, 2): at
    the paper's (5, 5, 2) the number of steps to converge ranged from 21 to
    270 across seeds, here it stays within 38..44.
paper-experiments
    The paper's experiments through ``polyagraph.cli.main``: the n = 10 and
    n = 100 histograms, the memory sweep and Monte Carlo pi_E.  Tens of
    thousands of small realizations; the only workload that runs the
    finite-memory sampler.  Outputs are checked against values recorded at
    the seed commit for seed index ``seed % REFERENCE_SEEDS``.
exact-laws
    Exact pi_E by enumeration, the degree, Beta-Binomial and distance laws
    over a delta grid from 1e-12 to 1e8, expected decay centrality, and the
    ``validate`` command.  Enumeration and log-gamma evaluation dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from polyagraph import analytics, cli, consensus, spectral, urn

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = 64
REL_TOL = 1e-12

PAPER_URN = ["--R", "5", "--B", "5", "--delta-balls", "2"]
LARGE_URN = urn.UrnParams(500.0, 500.0, 2.0)
ITERATE_TOL = 1e-10

LAW_RHO = 0.3
LAW_DELTAS = (1e-12, 1e-8, 0.2, 1e4, 1e8)
LAW_TOL = 1e-10  # pmf mass and mean tolerance pinned by the test suite
NODE_WINDOW = 64  # seeded node indices come from 1..64, where cost is flat in i


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output passes, else the reason
    known_defect: bool = False
    errors: Callable[[Any], dict[str, float]] | None = None  # measured errors, reported as maxima


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    largest_matrix_bytes: int  # the largest dense n x n matrix the job builds
    reference: str  # the speed.REFERENCES loop that matches the job's bottleneck


def _call(module, name, *args):
    # looked up at call time, so the traced run sees the span wrappers
    return getattr(module, name)(*args)


def known_defect(delta: float, n: int) -> bool:
    """Cells where the degree and Beta-Binomial laws miss LAW_TOL at the seed
    commit: differences of gammaln cancel when delta is far from 1 (ROADMAP
    item 4).  Measured at rho = 0.3: mass errors up to 5e-3 at delta = 1e-12,
    about 3e-7 at 1e-8, 1.6e-5 at 1e8 and 2.2e-10 at 1e4 once n >= 1000.

    These cases stay in the workload and count as failures; a failure
    anywhere else makes the run incorrect.
    """
    return delta in (1e-12, 1e-8, 1e8) or (delta == 1e4 and n >= 1000)


# --------------------------------------------------------------------------
# consensus-large

def _consensus_run(n, seed, stream_index, x0):
    g = consensus.sample_connected_graph(LARGE_URN, n, seed, stream_index=stream_index)
    system = consensus.averaging_matrix(g)
    return system, consensus.iterate(system, x0, tol=ITERATE_TOL, record=False)


def _consensus_check(x0, out):
    system, traj = out
    g = system.graph
    counts = 1 + g.degrees() - np.asarray(g.draws)  # N_i: neighbours plus one, self-loop excluded
    if not np.array_equal(system.neighbor_counts, counts):
        return "neighbour counts differ from the graph's degrees"
    if not traj.converged:
        return "iterate did not converge"
    limit = float(counts @ x0) / float(counts.sum())
    err = float(np.max(np.abs(traj.final - limit)))
    if err > ITERATE_TOL + 1e-12 * float(np.max(np.abs(x0))):
        return f"final state is {err:.3e} from pi* . x0 (tol {ITERATE_TOL:g})"
    return None


def _spectral_run(n, seed, stream_index):
    g = consensus.sample_connected_graph(LARGE_URN, n, seed, stream_index=stream_index)
    return g, spectral.spectrum(g), spectral.verify_eigenpairs(g)


def _spectral_check(out):
    g, eig, report = out
    if not report.all_passed:
        return f"{len(report.failures())} eigenpairs failed"
    degrees = g.adjacency().sum(axis=1)  # row sums, not the degree formula
    if eig != tuple(sorted([0, *map(int, degrees[1:])])):
        return "spectrum differs from sorted {0, deg(2..n)}"
    return None


def consensus_large(seed: int, smoke: bool) -> Workload:
    sizes = (200, 100, 100) if smoke else (4000, 2000, 2000)
    spectral_n = 40 if smoke else 400
    ops = []
    for k, n in enumerate(sizes):
        x0 = consensus.opinion_preset("polarized", n)
        ops.append(Op(f"iterate n={n} stream={k}", partial(_consensus_run, n, seed, k, x0),
                      partial(_consensus_check, x0)))
    for k in range(len(sizes), len(sizes) + 3):
        ops.append(Op(f"spectrum n={spectral_n} stream={k}", partial(_spectral_run, spectral_n, seed, k),
                      _spectral_check))
    return Workload(ops, largest_matrix_bytes=8 * max(sizes) ** 2, reference="stream")


# --------------------------------------------------------------------------
# CLI helpers

def run_cli(argv, out_name):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, Path(os.environ["POLYAGRAPH_OUT_DIR"]) / out_name


# output columns and '# key = value' metadata of the experiment CSVs; the rest echo inputs
DIGEST_COLUMNS = ("consensus_value", "value", "std_error", "baseline", "baseline_se", "pi_e")
DIGEST_META = ("sample_mean", "theoretical_value", "mean_exact_limit")


def csv_digest(path) -> dict[str, float]:
    """Output metadata, and per output column its sum, index-weighted sum,
    sum of squares and maximum."""
    digest: dict[str, float] = {}
    rows = []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            if key in DIGEST_META:
                digest[key] = float(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    cols = np.array(rows, dtype=float).reshape(len(rows), len(header))
    weights = np.arange(1, len(rows) + 1, dtype=float)
    for name, col in zip(header, cols.T):
        if name in DIGEST_COLUMNS:
            digest[f"{name}.sum"] = math.fsum(col)
            digest[f"{name}.wsum"] = math.fsum(col * weights)
            digest[f"{name}.sumsq"] = math.fsum(col * col)
            digest[f"{name}.max"] = float(col.max())
    return digest


def digest_mismatch(got: dict, want: dict | None) -> str | None:
    if want is None:
        return "no reference recorded"
    if set(got) != set(want):
        return f"digest keys differ: {sorted(set(got) ^ set(want))}"
    for key in sorted(want):
        if not math.isclose(got[key], want[key], rel_tol=REL_TOL, abs_tol=0.0):
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    return None


# --------------------------------------------------------------------------
# paper-experiments

def paper_commands(index: int, smoke: bool) -> list[tuple[str, list[str], str]]:
    """(name, argv, output file) of the four experiment commands at a seed index."""
    if smoke:
        runs, t, theory, sweep_runs, memories, mc_runs = "10", "10", "50", "20", "1,2", "50"
    else:
        runs, t, theory, sweep_runs, memories, mc_runs = "200", "100", "10000", "1000", "1,2,4,6,8,10", "10000"
    s = str(index)
    return [
        ("histogram n=10",
         ["histogram", "--n", "10", *PAPER_URN, "--runs", runs, "--t", t, "--x0", "paper-n10",
          "--seed", s, "--out", "histogram_n10.csv"], "histogram_n10.csv"),
        ("histogram n=100",
         ["histogram", "--n", "100", *PAPER_URN, "--runs", runs, "--t", t, "--x0", "paper-n100",
          "--theory-runs", theory, "--seed", s, "--out", "histogram_n100.csv"], "histogram_n100.csv"),
        ("memory-sweep n=10",
         ["memory-sweep", "--rho", "0.5", "--delta", "0.2", "--n", "10", "--deltas", "0.2,1,10",
          "--memories", memories, "--runs", sweep_runs, "--seed", s, "--out", "sweep.csv"], "sweep.csv"),
        ("pi-e mc n=100",
         ["pi-e", *PAPER_URN, "--n", "100", "--mode", "mc", "--runs", mc_runs, "--seed", s,
          "--out", "pi_e_mc.csv"], "pi_e_mc.csv"),
    ]


def _paper_check(want, out):
    code, path = out
    if code != 0:
        return f"exit code {code}"
    return digest_mismatch(csv_digest(path), want)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def paper_experiments(seed: int, smoke: bool) -> Workload:
    index = seed % REFERENCE_SEEDS
    recorded = load_reference()["smoke" if smoke else "full"][str(index)]
    ops = [
        Op(name, partial(run_cli, argv, out_name), partial(_paper_check, recorded.get(name)))
        for name, argv, out_name in paper_commands(index, smoke)
    ]
    return Workload(ops, largest_matrix_bytes=8 * 100 * 100, reference="python")


# --------------------------------------------------------------------------
# exact-laws

def _pi_e_check(expected, out):
    code, path = out
    if code != 0:
        return f"exit code {code}"
    pi = np.array([row["pi_e"] for row in json.loads(path.read_text(encoding="utf-8"))])
    err = abs(math.fsum(pi) - 1.0)
    if err > REL_TOL or not (pi > 0).all():
        return f"pi_E sums to 1 + {err:.3e} or has a non-positive entry"
    if expected is not None and np.max(np.abs(pi - expected)) > REL_TOL:
        return f"pi_E = {pi.tolist()}, expected {expected.tolist()}"
    return None


def _degree_errors(n, out):
    return {
        "analytics.pmf_mass_err_max": abs(math.fsum(out.pmf.values()) - 1.0),
        "analytics.mean_err_max": abs(out.moment_mean() - n * LAW_RHO) / max(1.0, n * LAW_RHO),
    }


def _degree_check(n, out):
    err = _degree_errors(n, out)
    mass_err, mean_err = err["analytics.pmf_mass_err_max"], err["analytics.mean_err_max"]
    out_of_tol = mass_err > LAW_TOL or mean_err > LAW_TOL
    return f"mass error {mass_err:.3e}, relative mean error {mean_err:.3e}" if out_of_tol else None


def _beta_binomial_run(params, n):
    return [urn.beta_binomial_pmf(params, n, k) for k in range(n + 1)]


def _beta_binomial_check(n, out):
    mass_err = abs(math.fsum(out) - 1.0)
    mean_err = abs(math.fsum(k * p for k, p in enumerate(out)) - n * LAW_RHO) / max(1.0, n * LAW_RHO)
    out_of_tol = mass_err > LAW_TOL or mean_err > LAW_TOL
    return f"mass error {mass_err:.3e}, relative mean error {mean_err:.3e}" if out_of_tol else None


def _p_no_later_universal(rho, delta, n):
    """P[k] = prod_{s=0}^{k} (1-rho+s*delta)/(1+s*delta), vectorized."""
    s = np.arange(n + 1, dtype=float)
    return np.cumprod((1.0 - rho + s * delta) / (1.0 + s * delta))


def _distance_check(n, i, j, delta, out):
    probs = out.probabilities
    if abs(math.fsum(probs.values()) - 1.0) > REL_TOL or min(probs.values()) < -REL_TOL:
        return f"distance law is not a distribution: {probs}"
    if i != j:
        want = _p_no_later_universal(LAW_RHO, delta, n)[n - max(i, j)]
        if not math.isclose(probs[math.inf], want, rel_tol=LAW_TOL, abs_tol=1e-300):
            return f"P(inf) = {probs[math.inf]!r}, product form {want!r}"
    return None


def _centrality_check(n, i, delta, alpha, out):
    p = _p_no_later_universal(LAW_RHO, delta, n)
    p_inf = (i - 1) * p[n - i] + math.fsum(p[n - j] for j in range(i + 1, n + 1))
    want = LAW_RHO + (n - 1) * (alpha * LAW_RHO + alpha * alpha * (1.0 - LAW_RHO)) - alpha * alpha * p_inf
    if not math.isclose(out, want, rel_tol=LAW_TOL):
        return f"centrality {out!r}, independent sum {want!r}"
    return None


def _validate_check(out):
    code, _ = out
    return None if code == 0 else f"validate exited {code}"


def exact_laws(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    small_n, large_n, centrality_n = (12, 200, 200) if smoke else (40, 5000, 2000)
    ops = []
    exact_n, memory_n = ("8", "8") if smoke else ("16", "14")
    pi_e_jobs = [(exact_n, None, None), (memory_n, "3", None), ("3", None, np.array([13.0, 13.0, 16.0]) / 42.0)]
    for n, memory, expected in pi_e_jobs:
        out_name = f"pi_e_{n}.json" if memory is None else f"pi_e_{n}_m{memory}.json"
        argv = ["pi-e", *PAPER_URN, "--n", n, "--mode", "exact", "--format", "json", "--out", out_name]
        if memory is not None:
            argv += ["--memory", memory]
        label = f"pi-e exact n={n}" + ("" if memory is None else f" M={memory}")
        ops.append(Op(label, partial(run_cli, argv, out_name), partial(_pi_e_check, expected)))

    large_nodes = sorted(int(v) for v in rng.choice(NODE_WINDOW, size=3, replace=False) + 1)
    pairs = {small_n: [tuple(int(v) for v in rng.integers(1, small_n + 1, size=2)) for _ in range(6)] + [(7, 7)],
             large_n: [tuple(int(v) for v in rng.integers(1, large_n + 1, size=2)) for _ in range(3)]}
    for delta in LAW_DELTAS:
        params = urn.UrnParams.from_proportions(LAW_RHO, delta)
        for n, nodes in ((small_n, range(1, small_n + 1)), (large_n, large_nodes)):
            defect = known_defect(delta, n)
            for i in nodes:
                ops.append(Op(f"degree_pmf n={n} i={i} delta={delta:g}",
                              partial(_call, analytics, "degree_pmf", params, n, i), partial(_degree_check, n),
                              defect, partial(_degree_errors, n)))
            ops.append(Op(f"beta_binomial_pmf n={n} delta={delta:g}",
                          partial(_beta_binomial_run, params, n), partial(_beta_binomial_check, n), defect))
            for i, j in pairs[n]:
                ops.append(Op(f"distance_pmf n={n} ({i},{j}) delta={delta:g}",
                              partial(_call, analytics, "distance_pmf", params, n, i, j),
                              partial(_distance_check, n, i, j, delta)))

    cfg = analytics.CentralityConfig()
    params = urn.UrnParams.from_proportions(LAW_RHO, 0.2)
    for i in sorted(int(v) for v in rng.choice(NODE_WINDOW, size=2, replace=False) + 1):
        ops.append(Op(f"expected_decay_centrality n={centrality_n} i={i}",
                      partial(_call, analytics, "expected_decay_centrality", params, centrality_n, i, cfg),
                      partial(_centrality_check, centrality_n, i, 0.2, cfg.alpha)))
    ops.append(Op("validate", partial(run_cli, ["validate"], ""), _validate_check))
    return Workload(ops, largest_matrix_bytes=8 * 50 * 50, reference="python")  # validate's eigenpair check


WORKLOADS = {
    "consensus-large": consensus_large,
    "paper-experiments": paper_experiments,
    "exact-laws": exact_laws,
}
