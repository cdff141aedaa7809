"""Module boundaries of the package, read from its source with ``ast``.

The library path never reaches into the enumeration oracles, which are test
ground truth: only the ``validate`` command (``cli``) imports ``oracle``, and
the package namespace does not re-export oracle names.  The stepping kernel
``consensus._Stepper`` stays inside ``consensus``; everyone else steps
through ``AveragingOperator.power`` or ``iterate``.  The batched eigenpair
kernel ``spectral._eigenpair_flags`` serves ``spectral`` and the ``oracle``
check alone.  ``urn._law`` decides which urn a law is, in ``urn`` alone,
and ``urn._chain`` is the urn's one Markov chain: the exact pi_E DP in
``consensus`` pulls and pushes through it and keeps no state encoding,
fold or successor rows of its own.
The creation-sequence kernels
``neighbor_sums`` (exact integer sums) and ``neighbor_counts`` are defined
in ``graph`` alone: ``spectral`` takes both from there, and ``consensus``
takes only the counts.  The compensated float sums of the consensus step
belong to ``consensus._Stepper``; no module keeps a second float plan.
The Beta-Binomial log row is built in ``_numeric`` alone, with the log
tables it reads, and the exact laws run without loading ``numpy.random``.
Only ``rng`` imports ``ctypes`` and reaches numpy's Philox state.  A count's
lower bound is worded by ``_numeric.as_int`` alone.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import polyagraph

PACKAGE = Path(polyagraph.__file__).parent
ORACLE_NAMES = (
    "enumerate_expectation",
    "oracle_centrality",
    "oracle_degree_pmf",
    "run_validation_suite",
)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(tree):
    # absolute names of what a module imports; the package is flat, so a
    # relative import always starts from polyagraph
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(filter(None, ("polyagraph", node.module)))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_cli_imports_the_oracles():
    importers = [
        module for module, tree in _modules()
        if module not in ("cli", "oracle") and "polyagraph.oracle" in set(_imported_modules(tree))
    ]
    assert importers == []


def _namers(name):
    # modules that mention ``name`` as a definition, a variable, an
    # attribute or an import
    return [
        module for module, tree in _modules()
        if any(
            (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
            or (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
            for node in ast.walk(tree)
        )
    ]


def test_only_consensus_names_the_stepper():
    assert _namers("_Stepper") == ["consensus"]


def test_only_spectral_and_oracle_name_the_eigenpair_kernel():
    # the batched check is validation machinery: verify_eigenpairs is the
    # library's way to check one realization
    assert _namers("_eigenpair_flags") == ["oracle", "spectral"]


def test_only_rng_touches_numpy_bit_generator_memory():
    # the re-keyed route writes into numpy's Philox state through ctypes;
    # that memory is reached through rng._state_words, in rng alone
    importers = [module for module, tree in _modules() if "ctypes" in set(_imported_modules(tree))]
    assert importers == ["rng"]
    assert _namers("_state_words") == ["rng"]


def test_only_urn_names_the_urn_law():
    # urn._law alone tells the infinite urn from the finite-memory one; the
    # exact pi_E DP reads the law through urn._chain
    assert _namers("_law") == ["urn"]


def test_the_exact_dp_walks_the_urn_chain():
    # one state encoding: the DP pulls and pushes through urn._chain and
    # writes only its own W offsets, so it names no fold of the states,
    # reshapes nothing and indexes a table's rows only whole (or the one
    # state before the first draw)
    assert _namers("_chain") == ["consensus", "urn"]
    assert "consensus" not in _namers("bitwise_count")
    for name in ("merge", "fold", "slice"):
        assert "consensus" not in _namers(name), name
    scatters = [
        module for module, tree in _modules()
        if any(
            isinstance(node, ast.Attribute) and node.attr == "at"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
            for node in ast.walk(tree)
        )
    ]
    assert "consensus" not in scatters
    (dp,) = [
        node for node in ast.walk(dict(_modules())["consensus"])
        if isinstance(node, ast.FunctionDef) and node.name == "_pi_e_dp"
    ]
    row_picks = [
        ast.unparse(node) for node in ast.walk(dp)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
        and not isinstance(node.slice.elts[0], ast.Constant) and ast.unparse(node.slice.elts[0]) != ":"
    ]
    assert row_picks == []
    assert [node for node in ast.walk(dp) if isinstance(node, ast.Attribute) and node.attr == "reshape"] == []


def test_graph_owns_the_creation_sequence_kernels():
    kernels = ("neighbor_sums", "neighbor_counts")
    imports = {module: set(_imported_modules(tree)) for module, tree in _modules()}
    # the eigenpair check takes both kernels; the consensus stepper runs its
    # own float sums and takes only the counts
    taken = {"consensus": ("neighbor_counts",), "spectral": kernels}
    assert [
        (module, name) for module, names in taken.items() for name in names
        if f"polyagraph.graph.{name}" not in imports[module]
    ] == []
    assert "polyagraph.graph.neighbor_sums" not in imports["consensus"]
    # module-level functions only: consensus keeps a neighbor_counts property
    defining = [
        module for module, tree in _modules()
        if any(isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in kernels for node in tree.body)
    ]
    assert defining == ["graph"]
    assert [name for name in kernels if hasattr(polyagraph, name)] == []


def test_graph_owns_the_neighbour_sum_plan():
    # graph's one neighbour-sum plan is the exact integer kernel: no module
    # keeps a separate float plan class, consensus imports nothing private
    # from graph, and the compensated chains' TwoSum is taken from _numeric
    # by consensus, not graph
    assert _namers("_FloatSums") == []
    imports = {module: set(_imported_modules(tree)) for module, tree in _modules()}
    assert [name for name in imports["consensus"] if name.startswith("polyagraph.graph._")] == []
    assert "polyagraph._numeric.sum_errors" in imports["consensus"]
    assert "polyagraph._numeric.sum_errors" not in imports["graph"]


def test_one_sampler_and_one_joint_law_for_both_urns():
    assert [name for name in ("sample_finite_memory", "finite_memory_joint_pmf") if hasattr(polyagraph, name)] == []


def test_package_namespace_has_no_oracle_names():
    assert [name for name in ORACLE_NAMES if hasattr(polyagraph, name)] == []


def test_only_numeric_builds_the_beta_binomial_row():
    # the row is a derived table of LogTables; urn reads entries of it and
    # combines no log factorials of its own, and the per-entry log_pmf is gone
    defining = [
        module for module, tree in _modules()
        if any(isinstance(node, ast.FunctionDef) and node.name == "log_pmf_row" for node in ast.walk(tree))
    ]
    assert defining == ["_numeric"]
    assert "urn" in _namers("log_pmf_row")
    assert "urn" not in _namers("fact")
    assert _namers("log_pmf") == []


def test_only_numeric_words_a_count_bound():
    # every library count is bounded through as_int(name, value, least); the
    # command line words its --flag bounds itself
    bound = re.compile(r"must be >= |need .*>=")
    worders = [
        module for module, tree in _modules()
        if module != "cli" and any(
            isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and any(
                isinstance(part, ast.Constant) and isinstance(part.value, str) and bound.search(part.value)
                for part in ast.walk(node.exc)
            )
            for node in ast.walk(tree)
        )
    ]
    assert worders == ["_numeric"]


def test_exact_laws_do_not_load_numpy_random():
    # importing numpy.random costs about 6 MB of RSS; the package, the CLI
    # module and the exact laws must not load it, only sampling may
    code = """
import sys
import polyagraph, polyagraph.cli
from polyagraph import (UrnParams, beta_binomial_pmf, degree_pmf, distance_pmf,
                        expected_decay_centrality, expected_stationary_exact)
params = UrnParams(5.0, 5.0, 2.0)
degree_pmf(params, 8, 3)
beta_binomial_pmf(params, 8, 3)
distance_pmf(params, 8, 2, 5)
expected_decay_centrality(params, 8, 3)
expected_stationary_exact(params, 6)
print('numpy.random' in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.stdout.strip() == "False", proc.stderr
