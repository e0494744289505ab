"""Start-up footprint and public API of the lazily loading package.

`import sievelogic` loads no submodule; each public name is imported
from its home module on first access.  The CLI imports numpy and the
linear-algebra layers inside the functions that use them, so each
command loads only the layers it runs.  Every footprint case runs in a
fresh interpreter, so modules loaded by one case (or by this test
session) cannot leak into another.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelogic

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names, by home module, as exported before loading became lazy.
HOME = {
    "errors": [
        "BaseMismatchError", "DegenerateClusteringError", "InconsistentAssignmentsError",
        "InputError", "NotHermitianError", "NotSubalgebraError", "SieveLogicError",
        "StillColorableError", "ZeroNormError",
    ],
    "report": ["Report"],
    "sieves": [
        "Classification", "CoarseGraining", "Mode", "Partition", "Sieve",
        "admissible_partitions", "all_partitions", "bell_number", "coarsenings_of",
        "compose", "covering_pairs", "lattice_dot", "up_closure",
    ],
    "spectral": [
        "DEFAULT_TOL", "QuantumState", "SpectralOperator", "Tolerances", "apply_function",
        "cluster_values", "coarse_grained_projector", "common_coarsening", "decompose",
        "from_spectral_data", "is_function_of", "prob", "value_fibers",
    ],
    "valuations": [
        "DisjunctionStrength", "GeneralizedValuation", "PartialValuation", "Proposition",
        "SieveComparison", "canonical_graining", "check_axioms", "check_disjunction_strength",
        "check_functional_rule", "check_naturality", "compare_direct_vs_induced",
        "extract_partial",
    ],
    "contexts": [
        "BooleanContext", "SubalgebraPoset", "SubalgebraSieve", "canonical_coarsening",
        "check_coarsening_axioms", "check_local_valuation", "check_restriction_compatibility",
        "context_from_vectors", "true_w", "valuation_sieve",
    ],
    "categories": [
        "CoarseGrainingLattice", "FunctionalRelation", "SectionAssignment", "TwoValuedHom",
        "check_indicator_naturality", "detect_relations", "restrict_hom",
        "search_global_section",
    ],
    "ks_search": [
        "ContextFamily", "DualSectionWitness", "context_operator",
        "minimal_uncolorable_subfamily", "search_dual_section", "section_to_partial_valuation",
    ],
}
EXPORTS = [(module, name) for module, names in HOME.items() for name in names]

PROBE = """
import contextlib, io, json, sys
code = None
{body}
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("sievelogic"))
print(json.dumps({{"code": code, "loaded": loaded}}))
"""

RUN_COMMAND = """
from sievelogic.cli import main
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main.main(args={argv!r}, prog_name="sievelogic", standalone_mode=False)
    except SystemExit as e:
        code = e.code
"""


def probe(body, tmp_path):
    """Exit code and loaded modules (the package's and numpy) after
    running `body` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["code"], {m.removeprefix("sievelogic.") for m in out["loaded"]}


def test_import_package_loads_no_submodule(tmp_path):
    _, loaded = probe("import sievelogic", tmp_path)
    assert loaded == {"sievelogic"}


def test_import_cli_loads_only_errors_and_sieves(tmp_path):
    _, loaded = probe("import sievelogic.cli", tmp_path)
    assert loaded == {"sievelogic", "cli", "errors", "sieves"}


LINEAR = {"numpy", "spectral", "valuations"}


@pytest.mark.parametrize(
    "argv, code, present, absent",
    [
        (["heyting", "neg", "3", "0,2|1", "--mode", "ostar", "--close"], 0, set(),
         {"numpy", "spectral", "valuations", "contexts", "ks_search", "categories"}),
        (["eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}"], 0, LINEAR,
         {"contexts", "ks_search", "categories"}),
        (["dot", "spin_one", "Sx", "-v", "state:psi", "-p", "Sx in {1}"], 0, LINEAR,
         {"contexts", "ks_search", "categories"}),
        (["axioms", "spin_one", "-v", "state:psi"], 0, LINEAR,
         {"contexts", "ks_search", "categories"}),
        (["ks", "ks18_dim4", "--minimize"], 3, {"numpy", "spectral", "contexts", "ks_search"},
         {"valuations", "categories"}),
    ],
    ids=["heyting", "eval", "dot", "axioms", "ks"],
)
def test_command_loads_only_its_layers(argv, code, present, absent, tmp_path):
    got, loaded = probe(RUN_COMMAND.format(argv=argv), tmp_path)
    assert got == code
    assert present <= loaded
    assert not loaded & absent


def test_all_is_pinned():
    assert len(EXPORTS) + len(HOME) == 80
    assert sorted(sievelogic.__all__) == sorted([*HOME, *(name for _, name in EXPORTS)])


@pytest.mark.parametrize("module, name", EXPORTS, ids=[name for _, name in EXPORTS])
def test_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"sievelogic.{module}")
    assert getattr(sievelogic, name) is getattr(home, name)


def test_submodules_resolve():
    for module in HOME:
        assert getattr(sievelogic, module) is importlib.import_module(f"sievelogic.{module}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sievelogic import *", namespace)
    for name in sievelogic.__all__:
        assert namespace[name] is getattr(sievelogic, name)


def test_dir_lists_every_name_without_loading(tmp_path):
    listed, loaded = probe("import sievelogic\ncode = dir(sievelogic)", tmp_path)
    assert set(sievelogic.__all__) <= set(listed)
    assert "__version__" in listed
    assert loaded == {"sievelogic"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievelogic.no_such_name
    assert not hasattr(sievelogic, "no_such_name")
    assert not hasattr(sievelogic, "_mask_of")
