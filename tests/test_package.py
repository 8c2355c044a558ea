import importlib

import pytest

import regkernel
from regkernel import verify
from regkernel.cli import build_parser

EXPORTS = [
    "Alphabet", "ApproxCertificate", "CapExceededError", "ConceptKey", "ConceptUniverse",
    "Dataset", "Dfa", "GramMatrix", "InstanceKey", "KernelParams", "KernelValue",
    "ParseError", "PerceptronModel", "SparseVec", "alpha_embed", "chi", "decision_values",
    "dfa_space_size", "enumerate_dfas", "enumerate_strings", "enumerate_tables", "exact_kn",
    "exact_pn", "gram_matrix", "hoeffding_samples", "kernel_value", "kn_by_enumeration",
    "label_strings", "load_dataset", "load_model", "mc_pn", "parse_dfa", "phi",
    "pn_by_enumeration", "predict", "required_samples", "sample_dfa", "sample_dfas",
    "save_model", "score", "separator", "serialize_dfa", "table_count", "train",
]


def test_exports_are_the_submodules_own_objects():
    assert regkernel.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(regkernel, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("regkernel.")
        assert getattr(module, name) is value, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from regkernel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert set(EXPORTS) <= set(dir(regkernel))
    assert "__version__" in dir(regkernel)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        regkernel.no_such_name


def test_verify_suite_choices_are_the_suites():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == sorted(verify.SUITES)


def test_every_cli_option_is_listed_here():
    # a new setting has to show up in this literal, and so in a review diff
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in [("regkernel", parser), *commands.choices.items()]}
    kernel = ["--mode", "--scaling", "--nmax", "--eps", "--delta"]
    assert options == {
        "regkernel": ["-h", "--help"],
        "sample": ["-h", "--help", "--states", "--alphabet", "--count", "--seed", "--out"],
        "kernel": ["-h", "--help", *kernel, "--alphabet", "--seed"],
        "gram": ["-h", "--help", *kernel, "--seed", "--dataset", "--out"],
        "train": ["-h", "--help", *kernel, "--seed", "--dataset", "--epochs", "--out"],
        "predict": ["-h", "--help", "--model", "--in"],
        "verify": ["-h", "--help", "--suite"],
    }


def test_only_the_bounds_suite_takes_parameters():
    # the verify command calls every suite bare; suite_bounds keeps its grid
    # so that tests can run it on a smaller one
    import inspect

    parameters = {name: list(inspect.signature(suite).parameters)
                  for name, suite in verify.SUITES.items()}
    assert parameters == {"bounds": ["n_values", "max_len"], "embedding": [],
                          "concentration": [], "psd": []}
