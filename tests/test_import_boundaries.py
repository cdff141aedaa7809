"""Module boundaries of the package, read from its source with ``ast``.

The library path never reaches into the enumeration oracles, which are test
ground truth: only the ``validate`` command (``cli``) imports ``oracle``, and
the package namespace does not re-export oracle names.  The stepping kernel
``consensus._Stepper`` stays inside ``consensus``; everyone else steps
through ``AveragingOperator.power`` or ``iterate``.  The batched eigenpair
kernel ``spectral._eigenpair_flags`` serves ``spectral`` and the ``oracle``
check alone.  ``urn._law`` decides which urn a law is, for ``urn`` and the
exact pi_E DP in ``consensus``.  The creation-sequence kernels
``neighbor_sums`` and ``neighbor_counts`` are defined in ``graph`` alone,
and so is ``_FloatSums``, the plan that runs the float neighbour sums:
``spectral`` takes both kernels from there, and ``consensus`` takes the
counts and the plan.
"""

import ast
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
    # modules that mention ``name`` as a variable, an attribute or an import
    return [
        module for module, tree in _modules()
        if any(
            (isinstance(node, ast.Name) and node.id == name)
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


def test_only_urn_and_consensus_name_the_urn_law():
    # urn._law alone tells the infinite urn from the finite-memory one; the
    # exact pi_E DP unpacks through it too
    assert _namers("_law") == ["consensus", "urn"]


def test_graph_owns_the_creation_sequence_kernels():
    kernels = ("neighbor_sums", "neighbor_counts")
    imports = {module: set(_imported_modules(tree)) for module, tree in _modules()}
    # the consensus stepper runs the float neighbour sums through their plan
    taken = {"consensus": ("_FloatSums", "neighbor_counts"), "spectral": kernels}
    assert [
        (module, name) for module, names in taken.items() for name in names
        if f"polyagraph.graph.{name}" not in imports[module]
    ] == []
    # module-level functions only: consensus keeps a neighbor_counts property
    defining = [
        module for module, tree in _modules()
        if any(isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in kernels for node in tree.body)
    ]
    assert defining == ["graph"]
    assert [name for name in kernels if hasattr(polyagraph, name)] == []


def test_graph_owns_the_neighbour_sum_plan():
    # one float path: neighbor_sums runs the plan, and the consensus stepper
    # keeps two of them
    defining = [
        module for module, tree in _modules()
        if any(isinstance(node, ast.ClassDef) and node.name == "_FloatSums" for node in tree.body)
    ]
    assert defining == ["graph"]
    assert _namers("_FloatSums") == ["consensus", "graph"]


def test_one_sampler_and_one_joint_law_for_both_urns():
    assert [name for name in ("sample_finite_memory", "finite_memory_joint_pmf") if hasattr(polyagraph, name)] == []


def test_package_namespace_has_no_oracle_names():
    assert [name for name in ORACLE_NAMES if hasattr(polyagraph, name)] == []
