"""The package's exports: the names it had when ``import ghk`` loaded every
module, each the same object from the package and from its own module; and
its declared dependencies: the third-party modules it imports."""

import ast
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ghk

EXPORTS = """
    ClosestProduct ConsistencyError CorrelationReport CovarianceMatrix
    DimensionMismatchError GaussianState
    GhkError InvalidParamsError MtsParams NegativeOccupancyError
    NonSymmetricError NotConvergedError NotPhysicalError
    NotPositiveDefiniteError OutOfFamilyError OverlapResult
    ParseError ProductStateParams SingularSumError StandardForm StsParams
    SymplecticInvariants ToleranceProfile TruncationInsufficientError
    active_profile affinity affinity_from_sqrt_cms as_covariance checks
    classical_correlations closest_product_state correlation_report det2 det4
    discord entanglement_of_formation_symmetric entropic_discord entropic_h
    errors fock_affinity_diagonal fock_product_trace_diagonal
    fock_sqrt_trace_diagonal fock_thermal_spectrum fock_trace_distance_diagonal
    gaussian_overlap_trace hellinger_discord hellinger_discord_mts
    hellinger_discord_sts hellinger_discord_symmetric hellinger_distance
    invariants invariants_from_spectrum is_physical max_affinity
    max_affinity_via_invariants mts_standard_form mts_state mutual_information
    oracle oracle_max_affinity purity random_physical_cm random_standard_form
    random_symplectic reduce_to_standard_form sampling simon_separable
    square_root_cm square_root_standard_form standard_form states
    stationarity_residual sts_separability_threshold sts_standard_form sts_state
    symplectic symplectic_eigenvalues symplectic_form tensor thermal_state
    tolerances trace_of_sqrt vacuum_state verify_phi_zero von_neumann_entropy
    williamson
""".split()

# Names now defined in the numpy-free core, by the module that defined them
# before and still re-exports them.
MOVED_TO_FORMS = {
    "CorrelationReport": "discord",
    "MtsParams": "states",
    "StandardForm": "symplectic",
    "StsParams": "states",
    "entropic_h": "states",
    "mts_standard_form": "states",
    "sts_standard_form": "states",
}


def test_all_is_unchanged():
    assert ghk.__all__ == EXPORTS


def test_star_import_gives_the_same_names():
    namespace = {}
    exec("from ghk import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_one_object_from_the_package_and_its_module(name):
    value = getattr(ghk, name)
    if isinstance(value, ModuleType):
        assert value is importlib.import_module(f"ghk.{name}")
        return
    if name in MOVED_TO_FORMS:
        assert getattr(ghk.forms, name) is value
        module = MOVED_TO_FORMS[name]
    else:
        module = ghk._HOME.get(name) or value.__module__.partition(".")[2]
    assert getattr(importlib.import_module(f"ghk.{module}"), name) is value


def source_nodes() -> list[ast.AST]:
    """Every syntax node of the package's modules."""
    src = Path(ghk.__file__).resolve().parent
    return [n for p in src.glob("*.py") for n in ast.walk(ast.parse(p.read_text()))]


def test_each_exported_error_is_raised_in_the_package():
    # an error type that nothing raises is dead weight in the public API
    nodes = source_nodes()
    raised = {
        n.exc.func.id
        for n in nodes
        if isinstance(n, ast.Raise)
        and isinstance(n.exc, ast.Call)
        and isinstance(n.exc.func, ast.Name)
    }
    errors = {
        name
        for name in EXPORTS
        if isinstance(getattr(ghk, name), type) and issubclass(getattr(ghk, name), ghk.GhkError)
    }
    assert len(errors) > 1
    assert errors - {"GhkError"} - raised == set()


def test_dependencies_are_the_third_party_modules_imported():
    tomllib = pytest.importorskip("tomllib")
    src = Path(ghk.__file__).resolve().parent
    nodes = source_nodes()
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    third_party = {name.partition(".")[0] for name in imported} - sys.stdlib_module_names
    project = tomllib.loads((src.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req)[0] for req in project["dependencies"]}
    assert third_party - {"ghk"} == declared


def test_no_general_eigensolver():
    # symplectic spectra come from the exact two-mode invariants or from
    # Williamson's Hermitian eigenproblem (eigh), never from eigvals(J V)
    nodes = source_nodes()
    names = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "eigh" in names
    assert "eigvals" not in names
