"""The verification checks see a broken closed form, and stay apart from it.

Each check is run on a closed form shifted by a small amount and must
report a deviation above its tolerance together with the offending input,
so a check that silently reports 0 cannot pass for one that found nothing.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import ghk
from ghk import checks

FORMS = [ghk.random_standard_form(np.random.default_rng(5)) for _ in range(3)]

SHIFT = 1e-3


def shifted(fn, by=SHIFT):
    """``fn`` with ``by`` added to its value (to ``.value`` for an overlap)."""

    def wrapper(*args):
        out = fn(*args)
        if isinstance(out, ghk.OverlapResult):
            return dataclasses.replace(out, value=out.value + by)
        return out + by

    return wrapper


def assert_breach(record):
    assert record.worst > record.tol, record
    assert record.detail, record


@pytest.mark.parametrize("by, breached", [(SHIFT, 0), (-SHIFT, 1)])
def test_closed_form_vs_oracle(monkeypatch, by, breached):
    monkeypatch.setattr(checks, "max_affinity", shifted(checks.max_affinity, by))
    records = checks.closed_form_vs_oracle(FORMS[:1], np.random.default_rng(1))
    assert_breach(records[breached])
    assert records[1 - breached].worst == 0.0


def test_route_equivalence(monkeypatch):
    monkeypatch.setattr(checks, "max_affinity", shifted(checks.max_affinity))
    assert_breach(checks.route_equivalence(FORMS))


def test_square_root_routes(monkeypatch):
    closed_form = checks.square_root_standard_form

    def stretched(sf):
        tsf = closed_form(sf)
        return dataclasses.replace(tsf, b1=tsf.b1 * (1.0 + SHIFT))

    monkeypatch.setattr(checks, "square_root_standard_form", stretched)
    assert_breach(checks.square_root_routes(FORMS))


def test_stationarity(monkeypatch):
    closed_form = checks._optimum

    def moved(tsf):
        eta1, eta2, e2r1, e2r2 = closed_form(tsf)
        return eta1 * (1.0 + SHIFT), eta2, e2r1, e2r2

    monkeypatch.setattr(checks, "_optimum", moved)
    assert_breach(checks.stationarity(FORMS))


def test_symmetric_pt_formula(monkeypatch):
    monkeypatch.setattr(
        checks,
        "hellinger_discord_symmetric",
        shifted(checks.hellinger_discord_symmetric),
    )
    assert_breach(checks.symmetric_pt_formula())


def test_pt_formula_on_the_squeezed_vacuum():
    r = 0.94
    b, c = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    assert checks.hellinger_discord_pt(b, c, -c) == pytest.approx(
        math.tanh(r) ** 2, rel=1e-10
    )
    assert checks.hellinger_discord_pt(1.7, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("name", ["hellinger_discord_sts", "hellinger_discord_mts"])
def test_family_xy_formulas(monkeypatch, name):
    monkeypatch.setattr(checks, name, shifted(getattr(checks, name)))
    assert_breach(checks.family_xy_formulas())


def test_xy_formulas_on_known_values():
    # equal occupancies: tanh^2 r; kappa = (2.5, 0.5) at theta = pi/2: 2 - sqrt 3
    assert checks.hellinger_discord_x(ghk.StsParams(3.0, 3.0, 1.0)) == pytest.approx(
        math.tanh(1.0) ** 2, rel=1e-12
    )
    assert checks.hellinger_discord_y(
        ghk.MtsParams(2.5, 0.5, math.pi / 2)
    ) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)
    assert checks.hellinger_discord_x(ghk.StsParams(1.0, 2.0, 0.0)) == 0.0
    assert checks.hellinger_discord_y(ghk.MtsParams(2.5, 0.5, 0.0)) == 0.0


@pytest.mark.parametrize(
    "name", ["trace_of_sqrt", "affinity", "gaussian_overlap_trace"]
)
def test_photon_number(monkeypatch, name):
    monkeypatch.setattr(checks, name, shifted(getattr(checks, name)))
    assert_breach(checks.photon_number())


@pytest.mark.parametrize("by", [SHIFT, -SHIFT])
def test_trace_distance_sandwich(monkeypatch, by):
    # +SHIFT breaks the upper bound on some pair, -SHIFT the lower bound
    name = "fock_trace_distance_diagonal"
    monkeypatch.setattr(checks, name, shifted(getattr(checks, name), by))
    assert_breach(checks.trace_distance_sandwich())


def test_affinity_invariance(monkeypatch):
    closed_form = checks.affinity

    def lopsided(s1, s2):
        out = closed_form(s1, s2)
        return dataclasses.replace(out, value=out.value + SHIFT * s1.mean[0])

    monkeypatch.setattr(checks, "affinity", lopsided)
    assert_breach(checks.affinity_invariance(np.random.default_rng(2), 3))


def assert_nan_fails(record):
    assert not record.worst <= record.tol, record
    assert record.detail, record


def test_nan_deviation_fails(monkeypatch):
    monkeypatch.setattr(checks, "max_affinity", lambda cov: math.nan)
    assert_nan_fails(checks.route_equivalence(FORMS))


@pytest.mark.parametrize(
    "name", ["fock_affinity_diagonal", "fock_trace_distance_diagonal"]
)
def test_nan_in_the_sandwich_fails(monkeypatch, name):
    monkeypatch.setattr(checks, name, lambda nb1, nb2: math.nan)
    assert_nan_fails(checks.trace_distance_sandwich())


SRC = Path(ghk.__file__).resolve().parent


def package_imports(path):
    """(module, name) for each import from the package in one source file.

    ``module`` is relative to the package; ``import ghk.x`` gives (x, None),
    and so does ``from . import x`` for a submodule x. A name the package
    serves lazily counts as imported from the module that defines it, both
    in ``from . import name`` and in the package's own table ``ghk._LAZY``.
    """
    if path.name == "__init__.py":
        for module, names in ghk._LAZY.items():
            for name in names:
                yield module, name
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "ghk":
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is not None:
                    yield base.split(".")[0], alias.name
                elif alias.name in ghk._HOME:
                    yield ghk._HOME[alias.name], alias.name
                else:
                    yield alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ghk."):
                    yield alias.name.split(".")[1], None


def _outside_functions(node):
    """The nodes under ``node`` that run when it runs: no function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def imports_on_load(path):
    """The modules that importing one source file imports.

    Package modules are named ``ghk.x`` (``ghk`` alone for a name such as
    ``__version__``), other modules by their top-level package (``numpy``).
    Imports inside function bodies run later, if ever, and are left out.
    """
    found = set()
    for node in _outside_functions(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(
                alias.name if alias.name.startswith("ghk.") else alias.name.split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.add(f"ghk.{node.module}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update(
                f"ghk.{alias.name}" if (SRC / f"{alias.name}.py").is_file() else "ghk"
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module if node.module.startswith("ghk.") else node.module.split(".")[0])
    return found


NUMPY = {"numpy", "scipy"}


def numpy_layer():
    """The package modules whose import loads numpy or scipy."""
    loads = {f"ghk.{path.stem}": imports_on_load(path) for path in SRC.glob("*.py")}
    layer = set()
    while True:
        grown = {m for m, deps in loads.items() if deps & (NUMPY | layer)}
        if grown == layer:
            return layer
        layer = grown


def top_level_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


class TestLayering:
    def test_only_checks_and_init_import_the_oracle(self):
        importers = {
            path.name
            for path in SRC.glob("*.py")
            if any(module == "oracle" for module, _ in package_imports(path))
        }
        assert importers == {"checks.py", "__init__.py"}

    def test_only_checks_reads_the_spectrum_invariants(self):
        # the paper's invariant formulas are cross-checks, not a second route
        namers = {
            path.stem
            for path in SRC.glob("*.py")
            if "invariants_from_spectrum" in path.read_text(encoding="utf-8")
        }
        assert namers == {"checks", "__init__"}

    @pytest.mark.parametrize(
        "home, names",
        [
            ("checks.py", {"SymplecticInvariants", "invariants_from_spectrum"}),
            ("oracle.py", {"det2", "_det3", "det4"}),
        ],
    )
    def test_verification_only_helpers_live_with_their_readers(self, home, names):
        # only checks reads the invariants; only oracle and checks (which
        # imports oracle) read the determinants
        definers = {
            path.name for path in SRC.glob("*.py") if names & top_level_definitions(path)
        }
        assert definers == {home}
        assert names <= top_level_definitions(SRC / home)

    def test_discord_imports_no_helper_of_the_report(self):
        # each single-measure function is a field of the one report
        folded = {
            "_mutual_information",
            "_pt_spectrum",
            "_simon_separable",
            "_spectrum_entropies",
            "_symmetric_measures",
        }
        assert not folded & {name for _, name in package_imports(SRC / "discord.py")}

    def test_oracle_takes_only_product_state_params_from_discord(self):
        from_discord = [
            name
            for module, name in package_imports(SRC / "oracle.py")
            if module == "discord"
        ]
        assert from_discord == ["ProductStateParams"]

    def test_the_numpy_layer(self):
        assert numpy_layer() == {
            f"ghk.{m}" for m in ("affinity", "checks", "oracle", "sampling", "states")
        }

    @pytest.mark.parametrize(
        "name", ["forms.py", "__init__.py", "cli.py", "symplectic.py", "discord.py"]
    )
    def test_loads_no_numpy(self, name):
        assert not imports_on_load(SRC / name) & (NUMPY | numpy_layer())

    def test_the_core_imports_only_the_standard_library_errors_and_tolerances(self):
        assert imports_on_load(SRC / "forms.py") == {
            "__future__", "math", "dataclasses", "ghk.errors", "ghk.tolerances"
        }

    def test_the_two_mode_reduction_imports_only_the_core(self):
        assert imports_on_load(SRC / "symplectic.py") == {
            "__future__", "math", "dataclasses", "functools", "operator",
            "ghk.errors", "ghk.forms", "ghk.tolerances",
        }

    def test_no_function_is_defined_in_the_core_and_the_numpy_layer(self):
        for core_module in ("forms.py", "symplectic.py", "discord.py"):
            core = top_level_definitions(SRC / core_module)
            for module in numpy_layer():
                path = SRC / f"{module.partition('.')[2]}.py"
                assert not core & top_level_definitions(path), (core_module, module)
