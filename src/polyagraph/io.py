"""Deterministic file emission.

CSV files use LF line endings, '.' as the decimal separator and 15
significant digits for floats; metadata lines start with '#' and precede the
header.  JSON documents have sorted keys.  Identical inputs therefore
produce byte-identical files, which the golden tests rely on.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .graph import ThresholdGraph, build_graph
from .urn import UrnParams

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "emit_table",
    "graph_json_payload",
    "load_graph_json",
    "write_edge_csv",
    "write_distribution_csv",
    "write_spectrum_csv",
    "write_trajectory_csv",
    "write_sweep_csv",
    "write_histogram_csv",
]


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.15g}"
    return str(v)


def write_csv(path, header, rows, metadata=()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def emit_table(path, header, rows, metadata=(), fmt: str = "csv") -> None:
    """Emit a table as CSV or as a JSON list of row objects."""
    if fmt == "csv":
        write_csv(path, header, rows, metadata=metadata)
    elif fmt == "json":
        write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _params_metadata(params: UrnParams) -> list[str]:
    return [
        f"R = {format_value(params.red_initial)}",
        f"B = {format_value(params.black_initial)}",
        f"reinforcement_balls = {format_value(params.reinforcement)}",
        f"rho = {format_value(params.rho)}",
        f"delta = {format_value(params.delta)}",
    ]


def graph_json_payload(
    graph: ThresholdGraph,
    params: UrnParams | None = None,
    seed=None,
    memory: int | None = None,
) -> dict:
    """Graph realization document: n, draws, urn params, seed, memory."""
    return {
        "n": graph.n,
        "draws": list(graph.draws),
        "params": None
        if params is None
        else {
            "R": params.red_initial,
            "B": params.black_initial,
            "delta": params.reinforcement,
        },
        "seed": None if seed is None else str(seed),
        "memory": memory,
    }


def load_graph_json(path) -> tuple[ThresholdGraph, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    graph = build_graph(payload["draws"])
    if graph.n != payload["n"]:
        raise ValueError(f"inconsistent document: n = {payload['n']} but {graph.n} draws")
    return graph, payload


def write_edge_csv(path, graph: ThresholdGraph) -> None:
    """Edge list, one undirected edge per row; self-loops as i,i."""
    write_csv(path, ["u", "v"], graph.edges())


def write_distribution_csv(path, dist, params: UrnParams) -> None:
    meta = _params_metadata(params) + [
        f"node = {dist.node}",
        f"n = {dist.horizon}",
        f"mean = {format_value(dist.mean)}",
        f"variance = {format_value(dist.variance)}",
    ]
    values = dist.probabilities.tolist()
    write_csv(path, ["k", "p"], ((k, values[k]) for k in dist.support), metadata=meta)


def write_spectrum_csv(path, eigenvalues) -> None:
    counts = Counter(eigenvalues)
    write_csv(path, ["eigenvalue", "multiplicity"], sorted(counts.items()))


def write_trajectory_csv(path, trajectory, metadata=()) -> None:
    if trajectory.states is None:
        raise ValueError("trajectory was run in streaming mode; re-run with record=True")
    n = len(trajectory.states[0])
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)]
    rows = ((t, *state) for t, state in enumerate(trajectory.states))
    write_csv(path, header, rows, metadata=metadata)


def write_sweep_csv(path, points, metadata=()) -> None:
    header = ["delta", "M", "value", "std_error", "baseline", "baseline_se"]
    rows = (
        (p.delta, p.memory, p.value, p.std_error, p.baseline, p.baseline_se) for p in points
    )
    write_csv(path, header, rows, metadata=metadata)


def write_histogram_csv(path, values, sample_mean: float, theoretical: float, metadata=()) -> None:
    meta = list(metadata) + [
        f"sample_mean = {format_value(sample_mean)}",
        f"theoretical_value = {format_value(theoretical)}",
    ]
    write_csv(path, ["run", "consensus_value"], ((r, v) for r, v in enumerate(values)), metadata=meta)
