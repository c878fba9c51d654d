"""Hellinger-distance correlation measures of two-mode Gaussian states.

Closed-form Gaussian discord via the maximal affinity with product states,
entropic correlation measures, the state families realizing them, and
independent brute-force oracles that certify every closed form.

``import ghk`` loads the float closed forms of ``ghk.forms``, the error
types and the tolerance profiles, and nothing else. Every other public name
lives in a module that is imported the first time one of its names is
looked up on the package, and all of its names are then bound here, so
later lookups are plain attribute reads. ``ghk.symplectic`` and
``ghk.discord`` import no numpy themselves: their two-mode functions, among
them ``correlation_report``, ``standard_form`` and every discord, run on
Python floats, and only the functions that build or read arrays import
numpy. The other modules are built on numpy. ``ghk.affinity`` is the
function in every import order, although a submodule of that name exists.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    GhkError,
    InvalidParamsError,
    NegativeOccupancyError,
    NonSymmetricError,
    NotConvergedError,
    NotPhysicalError,
    NotPositiveDefiniteError,
    OutOfFamilyError,
    ParseError,
    SingularSumError,
    TruncationInsufficientError,
)
from .forms import (
    CorrelationReport,
    MtsParams,
    StandardForm,
    StsParams,
    entropic_h,
    mts_standard_form,
    sts_standard_form,
)
from .tolerances import ToleranceProfile, active_profile

# The names served from each module, imported on first lookup.
_LAZY = {
    "affinity": (
        "OverlapResult",
        "affinity",
        "affinity_from_sqrt_cms",
        "gaussian_overlap_trace",
        "hellinger_distance",
        "trace_of_sqrt",
    ),
    "checks": (
        "SymplecticInvariants",
        "invariants",
        "invariants_from_spectrum",
        "max_affinity_via_invariants",
        "stationarity_residual",
        "verify_phi_zero",
    ),
    "discord": (
        "ClosestProduct",
        "ProductStateParams",
        "classical_correlations",
        "closest_product_state",
        "correlation_report",
        "entanglement_of_formation_symmetric",
        "entropic_discord",
        "hellinger_discord",
        "hellinger_discord_mts",
        "hellinger_discord_sts",
        "hellinger_discord_symmetric",
        "max_affinity",
        "mutual_information",
        "simon_separable",
    ),
    "oracle": (
        "det2",
        "det4",
        "fock_affinity_diagonal",
        "fock_product_trace_diagonal",
        "fock_sqrt_trace_diagonal",
        "fock_thermal_spectrum",
        "fock_trace_distance_diagonal",
        "oracle_max_affinity",
    ),
    "sampling": ("random_physical_cm", "random_standard_form", "random_symplectic"),
    "states": (
        "GaussianState",
        "mts_state",
        "purity",
        "sts_separability_threshold",
        "sts_state",
        "tensor",
        "thermal_state",
        "vacuum_state",
        "von_neumann_entropy",
    ),
    "symplectic": (
        "CovarianceMatrix",
        "as_covariance",
        "is_physical",
        "reduce_to_standard_form",
        "square_root_cm",
        "square_root_standard_form",
        "standard_form",
        "symplectic_eigenvalues",
        "symplectic_form",
        "williamson",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import the module that serves ``name`` and bind all of its names."""
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    namespace = globals()
    for export in _LAZY[module]:
        namespace[export] = getattr(loaded, export)
    return namespace[name]


class _Package(_ModuleType):
    """The package module, with ``affinity`` a data descriptor.

    Once a submodule is loaded, the import system sets it as an attribute
    of its package, which would make ``ghk.affinity`` the module
    ``ghk.affinity``. A data descriptor on the module's class answers both
    the lookup and the assignment before the module namespace does: it
    drops that one binding and keeps any other value set, such as a
    wrapper put in and taken out again by a tracer.
    """

    @property
    def affinity(self):
        value = vars(self).get("affinity")
        return __getattr__("affinity") if value is None else value

    @affinity.setter
    def affinity(self, value):
        if not isinstance(value, _ModuleType):
            vars(self)["affinity"] = value


_sys.modules[__name__].__class__ = _Package


# The submodules count among the exports, as they did when the package
# imported all of them; the core module ``forms`` is not one of them.
__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} - {"forms"}
    | set(_LAZY)
    | set(_HOME)
)
