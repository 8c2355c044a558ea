"""regkernel: universal regular-language string kernels.

Exact and Monte Carlo evaluation of the kernel that counts, for each
state count n, the n-state DFAs accepting both of two strings; the
finite-support embeddings under which every regular language is a
separable halfspace; and a dual kernel perceptron that learns languages
as support-string expansions.
"""

from .automata import (
    Alphabet,
    CapExceededError,
    Dfa,
    ParseError,
    dfa_space_size,
    enumerate_dfas,
    enumerate_tables,
    parse_dfa,
    serialize_dfa,
    table_count,
)
from .embedding import (
    ConceptKey,
    ConceptUniverse,
    InstanceKey,
    SparseVec,
    alpha_embed,
    chi,
    phi,
    score,
    separator,
)
from .kernel import (
    ApproxCertificate,
    GramMatrix,
    KernelParams,
    KernelValue,
    agreement_count,
    agreement_counts,
    exact_kn,
    exact_pn,
    gram_matrix,
    hoeffding_samples,
    kernel_value,
    kn_by_enumeration,
    mc_pn,
    pn_by_enumeration,
    required_samples,
    sample_dfa,
    sample_dfas,
)
from .learner import (
    Dataset,
    PerceptronModel,
    decision_values,
    enumerate_strings,
    label_strings,
    load_dataset,
    load_model,
    predict,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ApproxCertificate",
    "CapExceededError",
    "ConceptKey",
    "ConceptUniverse",
    "Dataset",
    "Dfa",
    "GramMatrix",
    "InstanceKey",
    "KernelParams",
    "KernelValue",
    "ParseError",
    "PerceptronModel",
    "SparseVec",
    "agreement_count",
    "agreement_counts",
    "alpha_embed",
    "chi",
    "decision_values",
    "dfa_space_size",
    "enumerate_dfas",
    "enumerate_strings",
    "enumerate_tables",
    "exact_kn",
    "exact_pn",
    "gram_matrix",
    "hoeffding_samples",
    "kernel_value",
    "kn_by_enumeration",
    "label_strings",
    "load_dataset",
    "load_model",
    "mc_pn",
    "parse_dfa",
    "phi",
    "pn_by_enumeration",
    "predict",
    "required_samples",
    "sample_dfa",
    "sample_dfas",
    "save_model",
    "score",
    "separator",
    "serialize_dfa",
    "table_count",
    "train",
]
