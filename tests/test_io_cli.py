import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from polyagraph import (
    UrnParams,
    averaging_matrix,
    build_graph,
    degree_pmf,
    opinion_preset,
    sample_connected_graph,
    spectrum,
)
from polyagraph import cli, consensus
from polyagraph.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from polyagraph.io import (
    emit_table,
    format_value,
    graph_json_payload,
    load_graph_json,
    write_csv,
    write_distribution_csv,
    write_edge_csv,
    write_json,
    write_spectrum_csv,
)
from polyagraph.oracle import ValidationCheck


# ---------------------------------------------------------------------------
# emission primitives

def test_format_value():
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value(1 / 3) == "0.333333333333333"
    assert format_value("x") == "x"
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(np.int64(7)) == "7"


def test_write_csv_contract(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 1 / 3)], metadata=["k = v"])
    data = path.read_bytes()
    assert data == b"# k = v\na,b\n1,0.5\n2,0.333333333333333\n"
    assert b"\r" not in data


def test_empty_table_is_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"


def test_emit_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    rows = [(i, math.sqrt(i)) for i in range(20)]
    emit_table(p1, ["i", "r"], rows, metadata=["m = 1"])
    emit_table(p2, ["i", "r"], rows, metadata=["m = 1"])
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_json_stable_keys(tmp_path):
    path = tmp_path / "t.json"
    emit_table(path, ["b", "a"], [(1, 2)], fmt="json")
    assert path.read_text() == '[\n  {\n    "a": 2,\n    "b": 1\n  }\n]\n'
    with pytest.raises(ValueError):
        emit_table(path, ["a"], [], fmt="xml")


def test_graph_json_round_trip(tmp_path):
    g = build_graph((1, 0, 0, 1, 0))
    params = UrnParams(5, 5, 2)
    path = tmp_path / "g.json"
    write_json(path, graph_json_payload(g, params=params, seed=42))
    loaded, payload = load_graph_json(path)
    assert loaded.draws == g.draws
    assert payload["params"] == {"R": 5.0, "B": 5.0, "delta": 2.0}
    assert payload["seed"] == "42"
    assert payload["memory"] is None
    # the memory is read from the urn, and there is none without one
    assert graph_json_payload(g, params=replace(params, memory=3))["memory"] == 3
    assert graph_json_payload(g)["memory"] is None


def test_edge_csv_example(tmp_path):
    path = tmp_path / "edges.csv"
    write_edge_csv(path, build_graph((1, 0, 0, 1, 0)))
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v"
    assert lines[1:] == ["1,1", "4,1", "4,2", "4,3", "4,4"]


def test_distribution_csv(tmp_path):
    params = UrnParams(5, 5, 2)
    path = tmp_path / "d.csv"
    write_distribution_csv(path, degree_pmf(params, 2, 1), params)
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert meta and lines[len(meta)] == "k,p"
    assert len(lines) == len(meta) + 1 + 3


def test_spectrum_csv_multiplicities(tmp_path):
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, spectrum(build_graph((1, 0, 0, 1, 0))))
    assert path.read_text() == "eigenvalue,multiplicity\n0,2\n1,2\n4,1\n"


# ---------------------------------------------------------------------------
# CLI

def run_cli(args):
    return main(args)


def test_generate_contract(tmp_path):
    json_out = tmp_path / "graph.json"
    edges_out = tmp_path / "edges.csv"
    code = run_cli([
        "generate", "--R", "5", "--B", "5", "--delta-balls", "2",
        "--n", "10", "--seed", "42", "--force-last-universal",
        "--json-out", str(json_out), "--edges-out", str(edges_out),
    ])
    assert code == EXIT_OK
    payload = json.loads(json_out.read_text())
    assert payload["n"] == 10
    assert payload["draws"][9] == 1
    assert set(payload["draws"]) <= {0, 1}
    assert payload["params"] == {"R": 5.0, "B": 5.0, "delta": 2.0}
    assert payload["memory"] is None
    assert edges_out.read_text().splitlines()[0] == "u,v"


def test_generate_is_byte_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        json_out = tmp_path / f"{tag}.json"
        edges_out = tmp_path / f"{tag}.csv"
        assert run_cli([
            "generate", "--rho", "0.5", "--delta", "0.2",
            "--n", "12", "--seed", "7",
            "--json-out", str(json_out), "--edges-out", str(edges_out),
        ]) == EXIT_OK
        outs.append((json_out.read_bytes(), edges_out.read_bytes()))
    assert outs[0] == outs[1]


def test_generate_counts_edges_without_building_them(tmp_path, capsys):
    # the printed count is the edge CSV's rows, self-loops included; the
    # edge set it was once counted from peaked at 26 MiB at n = 1000
    edges_out = tmp_path / "edges.csv"

    def generate(n):
        return run_cli([
            "generate", "--rho", "0.5", "--delta", "1e-8", "--n", str(n), "--seed", "1",
            "--json-out", str(tmp_path / "graph.json"), "--edges-out", str(edges_out),
        ])

    assert generate(10) == EXIT_OK  # numpy's one-off allocations
    tracemalloc.start()
    try:
        assert generate(1000) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    rows = len(edges_out.read_text().splitlines()) - 1
    assert rows > 200_000
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"graph with n = 1000, {rows} edges -> ")


def test_pi_e_exact_prints_reference_values(capsys):
    assert run_cli(["pi-e", "--rho", "0.5", "--delta", "0.2", "--n", "3", "--mode", "exact"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.309524" in out and "0.380952" in out


def test_pi_e_guard_refusal(capsys):
    # the refusal points to the CLI's Monte Carlo route, not to the library function
    code = run_cli(["pi-e", "--rho", "0.5", "--delta", "0.2", "--n", "100", "--mode", "exact"])
    assert code == EXIT_GUARD
    assert capsys.readouterr().err == (
        "refused: exact pi_E at n = 100 (infinite) needs more than 64 MiB of DP tables; use --mode mc instead\n"
    )


def test_pi_e_table_output(tmp_path):
    out = tmp_path / "pi.csv"
    assert run_cli([
        "pi-e", "--rho", "0.5", "--delta", "0.2", "--n", "4",
        "--mode", "mc", "--runs", "50", "--seed", "3", "--out", str(out),
    ]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "i,pi_e,std_error"
    assert len(lines) == 5


def test_config_error_on_mixed_parameter_styles(capsys):
    code = run_cli(["pi-e", "--rho", "0.5", "--delta", "0.2", "--R", "5", "--n", "3"])
    assert code == EXIT_CONFIG
    assert "exactly one parameter style" in capsys.readouterr().err


def test_config_error_on_missing_params():
    assert run_cli(["pi-e", "--n", "3"]) == EXIT_CONFIG


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        run_cli(["pi-e", "--bogus", "1"])
    assert exc.value.code == 2


def test_degree_dist_command(tmp_path, capsys):
    out = tmp_path / "dd.csv"
    code = run_cli([
        "degree-dist", "--R", "5", "--B", "5", "--delta-balls", "2",
        "--n", "2", "--node", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "mean = 1" in capsys.readouterr().out
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "k,p"
    assert body[1].startswith("0,0.291666666666667")


def test_centrality_command_modes(capsys):
    assert run_cli([
        "centrality", "--rho", "0.5", "--delta", "0.2", "--n", "2", "--node", "1",
    ]) == EXIT_OK
    assert "0.75" in capsys.readouterr().out
    assert run_cli([
        "centrality", "--mode", "empirical", "--node", "4", "--draws", "1,0,0,1,0",
    ]) == EXIT_OK
    assert "2.5" in capsys.readouterr().out


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = run_cli(["spectrum", "--draws", "1,0,0,1,0", "--out", str(out)])
    assert code == EXIT_OK
    assert "all exact" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "eigenvalue,multiplicity"


def test_consensus_command(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli([
        "consensus", "--draws", "0,0,1", "--x0", "0,0,1", "--out", str(out),
    ])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "0.428571" in stdout  # 3/7
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,x_1,x_2,x_3"


def test_consensus_rejects_disconnected_draws(capsys):
    assert run_cli(["consensus", "--draws", "1,0", "--x0", "0,1"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["consensus", "--draws", "0,0,1", "--x0", "0,nan,1"],
    ["histogram", "--rho", "0.5", "--delta", "0.2", "--n", "3", "--runs", "2", "--seed", "1", "--x0", "0,1,inf"],
    ["memory-sweep", "--rho", "0.5", "--delta", "0.2", "--n", "3", "--deltas", "1", "--memories", "1",
     "--runs", "2", "--x0=-inf,0,1"],
])
def test_non_finite_opinions_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    # a NaN used to run to t_max, or to come back as NaN table cells
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    assert run_cli(argv) == EXIT_CONFIG
    assert "x0 must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_histogram_command_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"h{tag}.csv"
        code = run_cli([
            "histogram", "--n", "10", "--R", "5", "--B", "5", "--delta-balls", "2",
            "--runs", "20", "--t", "100", "--x0", "paper-n10", "--seed", "7",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "# sample_mean = " in text
    assert "# theoretical_value = " in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "run,consensus_value"
    assert len(lines) == 21


@pytest.mark.parametrize("n, x0, mode", [
    (10, "paper-n10", "exact-dp"),
    (100, "paper-n100", "monte-carlo(5 runs)"),  # the infinite urn at n = 100 is over the DP budget
])
def test_histogram_theory_mode(tmp_path, n, x0, mode):
    out = tmp_path / "h.csv"
    assert run_cli([
        "histogram", "--n", str(n), "--R", "5", "--B", "5", "--delta-balls", "2",
        "--runs", "2", "--t", "1", "--x0", x0, "--theory-runs", "5", "--seed", "7",
        "--out", str(out),
    ]) == EXIT_OK
    assert f"# theory_mode = {mode}" in out.read_text().splitlines()


@pytest.mark.parametrize("flag, value, message", [
    ("--runs", "0", "--runs must be >= 1, got 0"),
    ("--runs", "-3", "--runs must be >= 1, got -3"),
    ("--t", "-5", "--t must be >= 0, got -5"),
    ("--theory-runs", "1", "--theory-runs must be >= 2, got 1"),
])
def test_histogram_rejects_empty_batches_and_negative_t(tmp_path, capsys, flag, value, message):
    # an empty batch would write NaN means, a negative t unstepped values,
    # and one theory run no standard error
    out = tmp_path / "h.csv"
    argv = {"--runs": "2", "--t": "1"} | {flag: value}
    code = run_cli([
        "histogram", "--n", "10", "--R", "5", "--B", "5", "--delta-balls", "2",
        *(tok for kv in argv.items() for tok in kv), "--x0", "paper-n10", "--seed", "7",
        "--out", str(out),
    ])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


URN = ["--R", "5", "--B", "5", "--delta-balls", "2"]
COUNT_COMMANDS = {
    "pi-e": ["pi-e", *URN, "--n", "5", "--mode", "mc", "--runs", "50"],
    "histogram": ["histogram", *URN, "--n", "10", "--runs", "2", "--t", "1", "--x0", "polarized", "--seed", "7"],
    "generate": ["generate", *URN, "--n", "5", "--seed", "1", "--json-out", "g.json", "--edges-out", "e.csv"],
    "memory-sweep": ["memory-sweep", "--rho", "0.5", "--n", "5", "--deltas", "1", "--memories", "1", "--runs", "4"],
    "consensus": ["consensus", "--draws", "0,1", "--x0", "0,1"],
}


@pytest.mark.parametrize("command, flag, value, message", [
    ("pi-e", "--runs", "1", "--runs must be >= 2, got 1"),
    ("pi-e", "--n", "0", "--n must be >= 1, got 0"),
    ("pi-e", "--memory", "0", "--memory must be >= 1, got 0"),
    ("histogram", "--n", "0", "--n must be >= 1, got 0"),
    ("generate", "--n", "0", "--n must be >= 1, got 0"),
    ("generate", "--memory", "0", "--memory must be >= 1, got 0"),
    ("memory-sweep", "--memories", "1,0", "--memories must be >= 1, got 0"),
    ("memory-sweep", "--runs", "1", "--runs must be >= 2, got 1"),
    ("consensus", "--t-max", "0", "--t-max must be >= 1, got 0"),
])
def test_count_errors_name_the_flag(tmp_path, monkeypatch, capsys, command, flag, value, message):
    # these used to name the library's argument: "runs must be >= 2, got 1"
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    argv = COUNT_COMMANDS[command]
    assert run_cli(argv) == EXIT_OK
    written = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli([*argv, flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == written


SEED_COMMANDS = {
    **COUNT_COMMANDS,
    "centrality": ["centrality", *URN, "--n", "5", "--node", "2", "--mode", "both", "--seed", "1"],
    "spectrum": ["spectrum", *URN, "--n", "5", "--seed", "1", "--out", "s.csv"],
}
OUT_OF_RANGE = ("-1", str(1 << 64), "x")


@pytest.mark.parametrize("command, flag, value, message", [
    *((command, "--seed", value, f"expected an integer in [0, 2^64), got {value!r}")
      for command in sorted(SEED_COMMANDS) for value in OUT_OF_RANGE),
    ("memory-sweep", "--deltas", "0.2,x", "expected a comma list of numbers, got '0.2,x'"),
    ("memory-sweep", "--memories", "1,x", "expected a comma list of integers, got '1,x'"),
])
def test_parse_errors_name_the_flag(tmp_path, monkeypatch, capsys, command, flag, value, message):
    # pi-e, memory-sweep and generate used to pass a bad seed on and print
    # the library's "master_seed out of range", and a bad delta printed
    # float's bare "could not convert string to float"
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run_cli([*SEED_COMMANDS[command], flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_every_seed_flag_takes_the_whole_seed_range(tmp_path, monkeypatch, command):
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    for seed in ("0", str((1 << 64) - 1)):
        assert run_cli([*SEED_COMMANDS[command], "--seed", seed]) == EXIT_OK


def test_histogram_names_the_seed_limit_of_its_monte_carlo_theory(tmp_path, capsys, monkeypatch):
    # at n = 92 the DP refuses and the theory value draws from seed + 1
    def histogram(n, seed):
        return run_cli([
            "histogram", "--n", str(n), "--R", "5", "--B", "5", "--delta-balls", "2",
            "--runs", "2", "--t", "1", "--x0", "polarized", "--theory-runs", "5",
            "--seed", str(seed), "--out", str(tmp_path / f"h{n}_{seed}.csv"),
        ])

    top = (1 << 64) - 1
    assert histogram(10, top) == EXIT_OK  # exact theory: every seed below 2^64 is valid
    assert histogram(92, top - 1) == EXIT_OK
    capsys.readouterr()

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting the seed")

    monkeypatch.setattr(cli.AveragingOperator, "sample", no_sampling)
    monkeypatch.setattr(cli, "expected_stationary_mc", no_sampling)
    assert histogram(92, top) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--seed must be below 2^64 - 1" in err and f"got {top}" in err
    assert not (tmp_path / f"h92_{top}.csv").exists()


def test_histogram_matches_per_run_dense_steps(tmp_path):
    # the batched run-by-row stepping against one dense W per run; t is short
    # so that no run has settled at its limit yet
    n, runs, t, seed = 10, 30, 4, 11
    out = tmp_path / "h.csv"
    code = run_cli([
        "histogram", "--n", str(n), "--R", "5", "--B", "5", "--delta-balls", "2",
        "--runs", str(runs), "--t", str(t), "--x0", "paper-n10", "--seed", str(seed),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    values = np.array([float(v) for _, v in rows])
    x0 = opinion_preset("paper-n10", n)
    expected = np.empty(runs)
    for r in range(runs):
        W = averaging_matrix(sample_connected_graph(UrnParams(5, 5, 2), n, seed, stream_index=r)).W.toarray()
        x = x0.copy()
        for _ in range(t):
            x = W @ x
        expected[r] = x.mean()
    assert np.unique(np.round(expected, 6)).size > 1
    assert np.max(np.abs(values - expected) / np.abs(expected)) < 1e-12


def test_memory_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "memory-sweep", "--rho", "0.5", "--delta", "0.2", "--n", "6",
        "--deltas", "0.2,1", "--memories", "1,6", "--runs", "200",
        "--seed", "3", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "delta,M,value,std_error,baseline,baseline_se"
    assert len(lines) == 5


def test_memory_sweep_needs_only_the_composition(tmp_path, capsys):
    # each cell's delta comes from --deltas: --rho, or --R --B, is enough,
    # and a given --delta or --delta-balls changes nothing
    sweep = ["--n", "20", "--deltas", "0.2,1,10", "--memories", "1,3,5", "--runs", "40", "--seed", "3"]
    csvs = {}
    for name, urn in (
        ("rho", ["--rho", "0.5"]),
        ("rho-delta", ["--rho", "0.5", "--delta", "0.2"]),
        ("counts", ["--R", "3", "--B", "2"]),
        ("counts-delta", ["--R", "3", "--B", "2", "--delta-balls", "4"]),
    ):
        out = tmp_path / f"{name}.csv"
        assert run_cli(["memory-sweep", *urn, *sweep, "--out", str(out)]) == EXIT_OK
        csvs[name] = out.read_bytes()
    assert csvs["rho"] == csvs["rho-delta"] and csvs["counts"] == csvs["counts-delta"]
    assert csvs["rho"] != csvs["counts"]
    # one style still: a lone --delta, or both compositions, is refused
    for urn in (["--delta", "0.2"], ["--rho", "0.5", "--R", "3", "--B", "2"], ["--R", "3", "--B", "2", "--delta", "4"]):
        assert run_cli(["memory-sweep", *urn, *sweep, "--out", str(tmp_path / "refused.csv")]) == EXIT_CONFIG
    assert not (tmp_path / "refused.csv").exists()
    with pytest.raises(SystemExit):
        main(["memory-sweep", "--help"])
    assert "delta comes from --deltas" in " ".join(capsys.readouterr().out.split())


def test_parser_is_built_once_and_each_call_parses_afresh(capsys):
    assert cli._build_parser() is cli._build_parser()
    urn = ["--R", "5", "--B", "5", "--delta-balls", "2"]
    assert main(["pi-e", *urn, "--n", "3", "--memory", "2"]) == EXIT_OK
    assert "(exact-dp, finite-memory(M=2))" in capsys.readouterr().out
    assert main(["pi-e", *urn, "--n", "3"]) == EXIT_OK
    assert "(exact-dp, infinite)" in capsys.readouterr().out


def test_io_error_exit_code(tmp_path):
    code = run_cli([
        "degree-dist", "--rho", "0.5", "--delta", "0.2", "--n", "2", "--node", "1",
        "--out", str(tmp_path / "missing" / "sub" / "f.csv"),
    ])
    assert code == EXIT_IO


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    code = run_cli([
        "degree-dist", "--rho", "0.5", "--delta", "0.2", "--n", "2", "--node", "1",
        "--out", "dd.csv",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "dd.csv").exists()


def test_validate_command_green(capsys):
    assert run_cli(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 10 checks passed" in out
    assert "FAIL" not in out


def test_validate_failure_exit_code(capsys, monkeypatch):
    checks = [ValidationCheck("ok", True, "fine"), ValidationCheck("broken", False, "off by 1")]
    monkeypatch.setattr(cli, "run_validation_suite", lambda: checks)
    assert run_cli(["validate"]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL  broken  off by 1" in out
    assert "1 of 2 checks failed" in out


X0_COMMANDS = {
    "consensus": ["consensus", "--draws", "0,1"],
    "histogram": ["histogram", *URN, "--n", "10", "--runs", "2", "--t", "1", "--seed", "7"],
    "memory-sweep": ["memory-sweep", "--rho", "0.5", "--n", "10", "--deltas", "1", "--memories", "1", "--runs", "4"],
}


@pytest.mark.parametrize("command", X0_COMMANDS)
def test_x0_parse_errors_name_the_presets(tmp_path, capsys, command):
    # --x0 foo used to answer "cannot parse x0: could not convert string to
    # float: 'foo'" without naming a preset the command takes
    argv = [*X0_COMMANDS[command], "--x0", "foo", "--out", str(tmp_path / "out.csv")]
    assert run_cli(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot parse x0" in err
    for name in consensus._OPINION_PRESETS:
        assert name in err
    with pytest.raises(ValueError, match="the presets are paper-n10, paper-n100, polarized"):
        opinion_preset("foo", 10)


def test_every_opinion_preset_reaches_the_cli():
    # the CLI reads the one list of presets that opinion_preset serves
    for name in consensus._OPINION_PRESETS:
        n = 100 if name == "paper-n100" else 10
        assert np.array_equal(cli._parse_x0(name, n), opinion_preset(name, n))


@pytest.mark.parametrize("command", ["consensus", "histogram"])
def test_opinions_whose_sums_overflow_exit_with_a_config_error(tmp_path, capsys, command):
    # 0..9 * 1e307 used to step to NaN rows; now the stepper refuses them
    x0 = ",".join(str(i * 1e307) for i in range(10))
    argv = {"consensus": ["consensus", "--draws", "1,0,1,0,0,1,1,0,0,1"], "histogram": X0_COMMANDS["histogram"]}
    out = tmp_path / "out.csv"
    assert run_cli([*argv[command], "--x0", x0, "--out", str(out)]) == EXIT_CONFIG
    assert "averaging sums within +-1.7976931348623157e+308" in capsys.readouterr().err
    assert not out.exists()
