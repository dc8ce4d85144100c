"""The package namespace: `import locglob` loads no submodule, and each
public name resolves on first use to the object its home module defines."""

import importlib
import pathlib
import subprocess
import sys

import pytest

import locglob

PUBLIC = {
    "FinAb", "Pairing", "orthogonal_complement_chain", "standard_pairing",
    "CocycleClass", "H1Group", "H1Subgroup", "coboundary", "h1", "h1_star",
    "Curve", "CurvePoint", "divisible_by_2k", "group_law", "halve_point",
    "propagation_check", "quad_local_roots", "scalar_mul",
    "InputError", "PrecisionError", "SelfCheckError",
    "CyclotomicData", "GModule", "dual_module", "homothety_criterion",
    "mu8_klein_model", "mu_model", "trivial_action_module", "trivial_character",
    "GroupTable", "cyclic_group", "cyclic_subgroups", "direct_product",
    "klein_four_group", "symmetric_group_3", "trivial_group", "unit_group_mod",
    "PlaceModel", "ShaGroup", "Verdict", "finite_support_bound", "gw_decision",
    "sha_of_model", "verdict", "weak_approx_verdict",
    "PadicNumber", "Place", "hilbert_symbol", "is_nth_power", "nth_root",
    "product_formula_check", "square_class_approximate",
}


def test_all_lists_the_public_names_once():
    assert len(locglob.__all__) == len(PUBLIC)
    assert set(locglob.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(locglob, name)
    assert obj.__module__.startswith("locglob.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(locglob)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        locglob.no_such_name
    assert not hasattr(locglob, "GW_SWEEP_LIMIT")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from locglob import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["gw_decision"] is importlib.import_module("locglob.padics").gw_decision


def test_import_loads_no_submodule():
    code = ("import sys, locglob\n"
            "print(' '.join(m for m in sys.modules if m.startswith('locglob')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["locglob"]


ROOT = pathlib.Path(__file__).resolve().parent.parent
_DZ = ("--curve=-15,5,10", "--point", "1561/144,19459/1728")
_ABSENT = ("dataclasses", "inspect", "numpy")


@pytest.mark.parametrize("args,absent", [
    (("h1", "--input", "sample_inputs/mu8.json"), _ABSENT + ("fractions",)),
    (("hasse", "--input", "sample_inputs/mu8.json"), _ABSENT + ("fractions",)),
    (("power", "--a", "16", "--n", "8", "--p", "7"), _ABSENT),
    (("ec-div", *_DZ, "--k", "2", "--place", "3"), _ABSENT),
], ids=["h1", "hasse", "power", "ec-div"])
def test_command_loads_no_class_code_generator(args, absent):
    # defining a value class generates no code, so no command imports
    # dataclasses or inspect (with ast, dis and tokenize under it) at a cold
    # start; no command loads numpy, which only the benchmark uses; h1 and hasse
    # build no Fraction, so they load no fractions
    code = ("import sys\n"
            "from locglob.cli import main\n"
            "main(sys.argv[1:])\n"
            "sys.stderr.write(' '.join(sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         cwd=ROOT, check=True)
    loaded = set(out.stderr.split())
    assert "locglob.cli" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))
