"""Exact engine for Hermitian geometric formality on bigraded models.

Computes Dolbeault / Bott-Chern / Aeppli / de Rham cohomology and
harmonic spaces of finite bigraded algebra models over Q(i), decides
geometric-formality notions, evaluates triple ABC-Massey products, and
runs dimension-based obstruction tests.  `dsl` and `obstructions`,
which no engine path reads, are imported on first use of one of their
names (PEP 562).
"""

from importlib import import_module

from .scalars import GaussianRational, ScalarLiteralError, parse_scalar
from .model import (DiagonalAction, Form, GeneratorSpec, ModelError,
                    ModelSpec, invariant_submodel)
from .calculus import (AssemblyError, CohomologyTable, HodgeEngine,
                       InnerProduct, NotClosedError, UnknownTheoryError)
from .formality import (UnknownNotionError, check_all, check_formality,
                        holomorphic_closedness_obstruction)
from .massey import (MasseyVerdict, PotentialError, solve_potential,
                     triple_abc_massey, verify_appendix_case)
from .catalog import CatalogError, load, load_with_action

__version__ = "1.0.0"

_LAZY = {name: module for module, names in (
    ("dsl", "DslError models_equal parse print_model"),
    ("obstructions", "DimTable TableError analyze blowup_derham "
     "blowup_bc_threefold_curve torus_table")) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(import_module("." + _LAZY[name], __name__), name)


__all__ = [
    "GaussianRational", "ScalarLiteralError", "parse_scalar",
    "DiagonalAction", "Form", "GeneratorSpec", "ModelError", "ModelSpec",
    "invariant_submodel",
    "AssemblyError", "CohomologyTable", "HodgeEngine", "InnerProduct",
    "NotClosedError", "UnknownTheoryError",
    "UnknownNotionError", "check_all", "check_formality",
    "holomorphic_closedness_obstruction",
    "MasseyVerdict", "PotentialError", "solve_potential",
    "triple_abc_massey", "verify_appendix_case",
    "CatalogError", "load", "load_with_action",
] + list(_LAZY)
