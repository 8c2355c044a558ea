"""regkernel: universal regular-language string kernels.

Exact and Monte Carlo evaluation of the kernel that counts, for each
state count n, the n-state DFAs accepting both of two strings; the
finite-support embeddings under which every regular language is a
separable halfspace; and a dual kernel perceptron that learns languages
as support-string expansions.

Every name in ``__all__`` is resolved on first use (PEP 562): importing
the package loads none of its submodules, and ``regkernel.gram_matrix``
imports ``regkernel.kernel`` when it is first read.  So a CLI command
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in (
        ("automata", (
            "Alphabet", "CapExceededError", "Dfa", "ParseError", "dfa_space_size",
            "enumerate_dfas", "enumerate_tables", "kn_by_enumeration", "parse_dfa",
            "pn_by_enumeration", "serialize_dfa", "table_count",
        )),
        ("embedding", (
            "ConceptKey", "ConceptUniverse", "InstanceKey", "SparseVec", "alpha_embed",
            "chi", "phi", "score", "separator",
        )),
        ("kernel", (
            "ApproxCertificate", "GramMatrix", "KernelParams", "KernelValue", "exact_kn",
            "exact_pn", "gram_matrix", "hoeffding_samples", "kernel_value", "mc_pn",
            "required_samples",
        )),
        ("learner", (
            "Dataset", "PerceptronModel", "decision_values", "enumerate_strings",
            "label_strings", "load_dataset", "load_model", "predict", "save_model", "train",
        )),
        ("stream", ("sample_dfa", "sample_dfas")),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
