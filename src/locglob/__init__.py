"""Local-global invariants of finite Galois modules.

Exact first group cohomology, Tate's cyclic-restriction kernel, p-adic
power tests, Hilbert symbols, elliptic 2-power divisibility, and the
Grunwald-Wang kernel over the rationals, with brute-force cross-checks.

`import locglob` loads no submodule: each public name is looked up in its
home module on first use (PEP 562), so a command imports only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"
DEFAULT_PRECISION = 64          # p-adic working precision when none is given

# home module -> the public names it defines
_EXPORTS = {
    "abelian": ("FinAb", "Pairing", "orthogonal_complement_chain", "standard_pairing"),
    "cohomology": ("CocycleClass", "H1Group", "H1Subgroup", "coboundary", "h1", "h1_star"),
    "elliptic": ("Curve", "CurvePoint", "divisible_by_2k", "group_law", "halve_point",
                 "propagation_check", "quad_local_roots", "scalar_mul"),
    "errors": ("InputError", "PrecisionError", "SelfCheckError"),
    "gmodules": ("CyclotomicData", "GModule", "dual_module", "homothety_criterion",
                 "mu8_klein_model", "mu_model", "trivial_action_module", "trivial_character"),
    "groups": ("GroupTable", "cyclic_group", "cyclic_subgroups", "direct_product",
               "klein_four_group", "symmetric_group_3", "trivial_group", "unit_group_mod"),
    "models": ("PlaceModel", "ShaGroup", "Verdict", "finite_support_bound",
               "sha_of_model", "verdict", "weak_approx_verdict"),
    "padics": ("PadicNumber", "Place", "gw_decision", "hilbert_symbol", "is_nth_power",
               "nth_root", "product_formula_check", "square_class_approximate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """The public name from its home module, bound here on first use so
    that later lookups are plain attribute reads."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + home, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
