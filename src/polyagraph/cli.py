"""Command-line driver for generation, analytics and experiments.

Subcommands: generate, degree-dist, centrality, spectrum, consensus, pi-e,
histogram, memory-sweep, validate.  Urn parameters are given either as ball
counts (--R --B --delta-balls) or as proportions (--rho --delta); the two
flags --delta-balls (the reinforcement ball count) and --delta (the
reinforcement ratio) are deliberately distinct.  Relative output paths land
in $POLYAGRAPH_OUT_DIR when set, else the current directory.

Exit codes: 0 success, 2 configuration error, 3 guard refusal (a request
over an enumeration or exact-DP size budget), 4 validation failure, 5 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .analytics import (
    CentralityConfig,
    degree_pmf,
    empirical_decay_centrality,
    expected_decay_centrality,
)
from .consensus import (
    AveragingOperator,
    EnumerationLimitError,
    _OPINION_PRESETS,
    _opinions,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
    iterate,
    memory_sweep,
    opinion_preset,
    sample_connected_graph,
)
from .graph import build_graph
from .oracle import run_validation_suite
from .spectral import spectrum, verify_eigenpairs
from .urn import UrnParams, sample_polya

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VALIDATION = 4
EXIT_IO = 5


class ConfigError(ValueError):
    pass


def _out_path(name: str) -> Path:
    p = Path(name)
    if p.is_absolute():
        return p
    return Path(os.environ.get("POLYAGRAPH_OUT_DIR", ".")) / p


def _add_urn_args(p: argparse.ArgumentParser, memory: bool = True) -> None:
    g = p.add_argument_group("urn parameters (one style only)")
    g.add_argument("--R", type=float, help="initial red ball count")
    g.add_argument("--B", type=float, help="initial black ball count")
    g.add_argument("--delta-balls", dest="delta_balls", type=float,
                   help="reinforcement ball count added per draw")
    g.add_argument("--rho", type=float, help="initial red proportion")
    g.add_argument("--delta", type=float, help="reinforcement ratio delta")
    if memory:
        g.add_argument("--memory", action=_AtLeast, least=1,
                       help="finite memory length M (default: infinite memory)")


class _AtLeast(argparse.Action):
    """Store an integer flag, or with ``type=_int_list`` a comma list of
    them, refusing any value below ``least`` as it is parsed, so the error
    names the flag as typed, not the library argument it feeds."""

    def __init__(self, option_strings, dest, least: int, type=int, **kwargs):
        super().__init__(option_strings, dest, type=type, **kwargs)
        self.least = least

    def __call__(self, parser, namespace, values, option_string=None):
        for v in values if isinstance(values, list) else [values]:
            if v < self.least:
                raise ConfigError(f"{option_string} must be >= {self.least}, got {v}")
        setattr(namespace, self.dest, values)


def _comma_list(convert, what: str):
    """An argparse type for a comma list of ``convert`` values; a bad token
    is refused as the list is parsed, so the error names the flag."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {what}, got {text!r}") from None

    return parse


_int_list = _comma_list(int, "integers")
_float_list = _comma_list(float, "numbers")


def _seed(text: str) -> int:
    """An argparse type for --seed: an integer in [0, 2^64), the library's
    master seeds, so a bad one is refused with the flag's name."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2^64), got {text!r}")
    return seed


def _urn_params(args) -> UrnParams:
    """The urn of the urn flags, with --memory where the command has it."""
    counts = (args.R, args.B, args.delta_balls)
    props = (args.rho, args.delta)
    memory = getattr(args, "memory", None)
    have_counts = all(v is not None for v in counts)
    have_props = all(v is not None for v in props)
    if have_counts and not any(v is not None for v in props):
        return UrnParams(args.R, args.B, args.delta_balls, memory=memory)
    if have_props and not any(v is not None for v in counts):
        return UrnParams.from_proportions(args.rho, args.delta, memory=memory)
    raise ConfigError(
        "provide exactly one parameter style: --R --B --delta-balls, or --rho --delta"
    )


def _parse_x0(source: str, n: int) -> np.ndarray:
    """x0 as read from a preset name, a comma list or an @file; its length
    and finiteness are checked by the library, as for any caller."""
    if source in _OPINION_PRESETS:
        return opinion_preset(source, n)
    if source.startswith("@"):
        text = Path(source[1:]).read_text(encoding="utf-8")
        tokens = text.replace(",", " ").split()
    else:
        tokens = source.split(",")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        presets = ", ".join(_OPINION_PRESETS)
        raise ConfigError(f"cannot parse x0: {exc}; expected numbers, an @file or a preset ({presets})") from exc


def _parse_draws(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse draws: {exc}") from exc


def _realization(args):
    """Graph from --draws, or sampled from the urn flags."""
    if args.draws is not None:
        return build_graph(_parse_draws(args.draws))
    if args.n is None or args.seed is None:
        raise ConfigError("need either --draws or (--n and --seed with urn parameters)")
    return _sampled_graph(args, _urn_params(args))


def _sampled_graph(args, law):
    """Graph sampled under ``law`` at --n and --seed, its last node forced
    universal under --force-last-universal."""
    if args.force_last_universal:
        return sample_connected_graph(law, args.n, args.seed)
    return build_graph(sample_polya(law, args.n, args.seed))


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_generate(args) -> int:
    params = _urn_params(args)
    g = _sampled_graph(args, params)
    json_path = _out_path(args.json_out)
    edges_path = _out_path(args.edges_out)
    io.write_json(json_path, io.graph_json_payload(g, params=params, seed=args.seed))
    io.write_edge_csv(edges_path, g)
    # a universal node t has t edges, down to itself, as edges() yields them
    edges = sum(t for t, z in enumerate(g.draws, start=1) if z)
    print(f"graph with n = {g.n}, {edges} edges -> {json_path}, {edges_path}")
    return EXIT_OK


def _cmd_degree_dist(args) -> int:
    params = _urn_params(args)
    dist = degree_pmf(params, args.n, args.node)
    path = _out_path(args.out)
    io.write_distribution_csv(path, dist, params)
    print(f"deg(V_{args.node}) at n = {args.n}: mean = {dist.mean:.15g}, variance = {dist.variance:.15g}")
    print(f"pmf -> {path}")
    return EXIT_OK


def _cmd_centrality(args) -> int:
    cfg = CentralityConfig(alpha=args.alpha)
    if args.mode in ("expected", "both"):
        if args.n is None:
            raise ConfigError("expected centrality needs --n")
        params = _urn_params(args)
        value = expected_decay_centrality(params, args.n, args.node, cfg)
        print(f"expected decay centrality of V_{args.node}: {value:.15g}")
    if args.mode in ("empirical", "both"):
        g = _realization(args)
        value = empirical_decay_centrality(g, args.node, cfg)
        print(f"empirical decay centrality of V_{args.node} on draws {g.draws}: {value:.15g}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _realization(args)
    eig = spectrum(g)
    path = _out_path(args.out)
    io.write_spectrum_csv(path, eig)
    report = verify_eigenpairs(g)
    status = "all exact" if report.all_passed else f"{len(report.failures())} FAILED"
    print(f"spectrum of n = {g.n} realization -> {path}")
    print(f"eigenpair verification: {status}")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def _cmd_consensus(args) -> int:
    g = _realization(args)
    sys_ = averaging_matrix(g)
    x0 = _parse_x0(args.x0, g.n)
    traj = iterate(sys_, x0, t_max=args.t_max, tol=args.tolerance, record=True)
    path = _out_path(args.out)
    io.write_trajectory_csv(path, traj, metadata=[f"draws = {','.join(map(str, g.draws))}"])
    print(f"trajectory ({len(traj.states)} states) -> {path}")
    print(f"consensus limit pi* . x0 = {traj.limit:.15g}")
    if traj.converged:
        print(f"converged at t = {traj.converged_at} (tolerance {args.tolerance:g})")
    else:
        print(f"WARNING: not converged within t_max = {args.t_max}")
    return EXIT_OK


def _cmd_pi_e(args) -> int:
    law = _urn_params(args)
    if args.mode == "exact":
        try:
            est = expected_stationary_exact(law, args.n)
        except EnumerationLimitError as exc:
            # the library's refusal names its Monte Carlo function; here that route is a flag
            reason = str(exc).partition("; use ")[0]
            raise EnumerationLimitError(f"{reason}; use --mode mc instead") from None
    else:
        est = expected_stationary_mc(law, args.n, runs=args.runs, seed=args.seed)
    entries = ", ".join(f"{v:.6f}" for v in est.pi)
    print(f"pi_E ({est.mode}, {est.urn_mode}) = ({entries})")
    if args.out is not None:
        header = ["i", "pi_e"] + ([] if est.std_error is None else ["std_error"])
        rows = [
            (i + 1, est.pi[i], *(() if est.std_error is None else (est.std_error[i],)))
            for i in range(args.n)
        ]
        io.emit_table(_out_path(args.out), header, rows, fmt=args.format)
        print(f"table -> {_out_path(args.out)}")
    return EXIT_OK


def _cmd_histogram(args) -> int:
    law = _urn_params(args)
    x0 = _opinions(_parse_x0(args.x0, args.n), args.n)
    # the theory value first: where the DP refuses n, its Monte Carlo runs
    # draw from seed + 1, which must be a seed too, checked before sampling
    try:
        est = expected_stationary_exact(law, args.n)
        theory_mode = est.mode
    except EnumerationLimitError:
        if args.seed + 1 >= 1 << 64:
            raise ConfigError(
                f"--seed must be below 2^64 - 1 when the exact DP refuses n = {args.n} "
                f"(the Monte Carlo theory value draws from seed + 1), got {args.seed}"
            ) from None
        est = expected_stationary_mc(law, args.n, runs=args.theory_runs, seed=args.seed + 1)
        theory_mode = f"{est.mode}({args.theory_runs} runs)"
    theoretical = float(est.pi @ x0)
    # one realization per row, so each step advances every run at once
    W = AveragingOperator.sample(law, args.n, args.runs, args.seed)
    exact_limits = W.pi_star @ x0
    snapshots = W.power(x0, args.t).mean(axis=1)
    path = _out_path(args.out)
    io.write_histogram_csv(
        path,
        snapshots,
        sample_mean=float(snapshots.mean()),
        theoretical=theoretical,
        metadata=[
            f"n = {args.n}",
            f"runs = {args.runs}",
            f"t = {args.t}",
            f"seed = {args.seed}",
            f"theory_mode = {theory_mode}",
            f"mean_exact_limit = {io.format_value(float(exact_limits.mean()))}",
        ],
    )
    print(f"{args.runs} consensus values at t = {args.t} -> {path}")
    print(f"sample mean of snapshots      = {snapshots.mean():.15g}")
    print(f"sample mean of exact limits   = {exact_limits.mean():.15g}")
    print(f"theoretical pi_E . x0         = {theoretical:.15g}")
    return EXIT_OK


def _composition(args) -> UrnParams:
    """The urn parameters of a command that takes each delta from elsewhere:
    the initial composition, --rho or --R --B, is enough, and a left-out
    --delta or --delta-balls stands in as 1."""
    stand_in = argparse.Namespace(**vars(args))
    if args.rho is not None and args.delta is None:
        stand_in.delta = 1.0
    if args.R is not None and args.delta_balls is None:
        stand_in.delta_balls = 1.0
    return _urn_params(stand_in)


def _cmd_memory_sweep(args) -> int:
    params = _composition(args)  # memory_sweep reads only params.rho
    x0 = _parse_x0(args.x0, args.n)
    points = memory_sweep(params, args.n, args.deltas, args.memories, runs=args.runs, x0=x0, seed=args.seed)
    path = _out_path(args.out)
    io.write_sweep_csv(
        path,
        points,
        metadata=[f"n = {args.n}", f"runs = {args.runs}", f"seed = {args.seed}", f"rho = {params.rho:.15g}"],
    )
    print(f"{len(points)} sweep points -> {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    checks = run_validation_suite()
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        failed += 0 if c.passed else 1
        print(f"{mark}  {c.name:<{width}}  {c.detail}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return EXIT_VALIDATION
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


# --------------------------------------------------------------------------

@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyagraph",
        description="Urn-driven random threshold graphs: generation, exact laws, spectra, consensus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a realization; emit graph JSON and edge CSV")
    _add_urn_args(p)
    p.add_argument("--n", action=_AtLeast, least=1, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--force-last-universal", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--json-out", default="graph.json")
    p.add_argument("--edges-out", default="edges.csv")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("degree-dist", help="exact degree pmf of one node; emit CSV")
    _add_urn_args(p, memory=False)
    p.add_argument("--n", action=_AtLeast, least=1, required=True)
    p.add_argument("--node", type=int, required=True, help="node index i (1-based)")
    p.add_argument("--out", default="degree_dist.csv")
    p.set_defaults(handler=_cmd_degree_dist)

    p = sub.add_parser("centrality", help="expected and/or empirical decay centrality")
    _add_urn_args(p, memory=False)
    p.add_argument("--n", action=_AtLeast, least=1)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--mode", choices=("expected", "empirical", "both"), default="expected")
    p.add_argument("--draws", help="comma-separated 0/1 creation sequence")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--force-last-universal", action=argparse.BooleanOptionalAction, default=False)
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("spectrum", help="closed-form Laplacian spectrum + eigenpair verification")
    _add_urn_args(p)
    p.add_argument("--n", action=_AtLeast, least=1)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--draws")
    p.add_argument("--force-last-universal", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--out", default="spectrum.csv")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("consensus", help="averaging trajectory on one realization")
    _add_urn_args(p)
    p.add_argument("--n", action=_AtLeast, least=1)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--draws")
    p.add_argument("--x0", required=True, help="comma list, @file, or preset name")
    p.add_argument("--t-max", action=_AtLeast, least=1, default=10_000)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--force-last-universal", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(handler=_cmd_consensus)

    p = sub.add_parser("pi-e", help="expected consensus weights (exact DP or Monte Carlo)")
    _add_urn_args(p)
    p.add_argument("--n", action=_AtLeast, least=1, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    # checked in exact mode too, where it goes unused, as --theory-runs is
    p.add_argument("--runs", action=_AtLeast, least=2, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_pi_e)

    p = sub.add_parser("histogram", help="consensus values over independent seeded runs")
    _add_urn_args(p)
    p.add_argument("--n", action=_AtLeast, least=1, required=True)
    # an empty batch would write NaN means, a negative t the unstepped values
    # under a t that never happened; the Monte Carlo theory value needs two
    # runs for its standard error, and --theory-runs is checked even where
    # the exact DP leaves it unused
    p.add_argument("--runs", action=_AtLeast, least=1, default=200)
    p.add_argument("--t", action=_AtLeast, least=0, default=100)
    p.add_argument("--x0", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--theory-runs", action=_AtLeast, least=2, default=10_000,
                   help="Monte Carlo size for the reference value when the exact DP refuses n")
    p.add_argument("--out", default="histogram.csv")
    p.set_defaults(handler=_cmd_histogram)

    p = sub.add_parser(
        "memory-sweep",
        help="expected consensus vs memory length for several deltas",
        description="Each cell's delta comes from --deltas, so the initial composition (--rho, or --R --B) "
        "is enough; --delta and --delta-balls are accepted and unused.",
    )
    _add_urn_args(p, memory=False)
    p.add_argument("--n", action=_AtLeast, least=1, required=True)
    p.add_argument("--deltas", type=_float_list, required=True,
                   help="comma list, e.g. 0.2,1,10; each cell's reinforcement ratio")
    p.add_argument("--memories", action=_AtLeast, least=1, type=_int_list, required=True,
                   help="comma list of memory lengths")
    p.add_argument("--runs", action=_AtLeast, least=2, default=1000)
    p.add_argument("--x0", default="polarized")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(handler=_cmd_memory_sweep)

    p = sub.add_parser("validate", help="run the oracle-equivalence suite; nonzero exit on failure")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # a count below its least raises ConfigError
        return args.handler(args)
    except (ValueError, IndexError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
