import numpy as np
import pytest

from regkernel import (
    Alphabet,
    CapExceededError,
    Dataset,
    KernelParams,
    decision_values,
    enumerate_dfas,
    enumerate_strings,
    gram_matrix,
    kernel_value,
    label_strings,
    predict,
    train,
)
from regkernel.kernel import GramMatrix
from regkernel.learner import (
    PerceptronModel,
    dataset_from_text,
    dataset_to_text,
    decision_value,
    load_model,
    model_from_text,
    save_model,
)
from regkernel.automata import ParseError


def exact_params(ab, n_max=2):
    return KernelParams(alphabet=ab, n_max=n_max, mode="exact", scaling="paper")


def constant_gram(strings, value, params):
    """Rank-one all-constant matrix, for inseparability tests."""
    values = tuple(tuple(value for _ in strings) for _ in strings)
    return GramMatrix(strings=tuple(strings), params=params, values=values)


# ---------------------------------------------------------------------
# string enumeration and labeling
# ---------------------------------------------------------------------

def test_enumerate_strings_examples(ab):
    assert enumerate_strings(ab, 0) == [""]
    assert enumerate_strings(ab, 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert enumerate_strings(Alphabet(("a",)), 3) == ["", "a", "aa", "aaa"]


def test_enumerate_strings_cap():
    with pytest.raises(CapExceededError):
        enumerate_strings(Alphabet(("a", "b")), 30)


def test_label_strings_parity(parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 2))
    positive = {s for s, y in ds.records if y == 1}
    negative = {s for s, y in ds.records if y == -1}
    assert positive == {"", "aa", "ab", "ba", "bb"}
    assert negative == {"a", "b"}


def test_label_strings_constant_targets(accept_all, reject_all, ab):
    strings = enumerate_strings(ab, 2)
    assert all(y == 1 for _, y in label_strings(accept_all, strings).records)
    assert all(y == -1 for _, y in label_strings(reject_all, strings).records)


def test_dataset_validation(ab):
    with pytest.raises(ValueError, match="label"):
        Dataset(alphabet=ab, records=(("a", 2),))
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(alphabet=ab, records=(("a", 1), ("a", -1)))
    with pytest.raises(ValueError, match="not in alphabet"):
        Dataset(alphabet=ab, records=(("c", 1),))
    # a float label is refused, not truncated to +1; numpy integers are ints
    for label in (1.9, 1.0, "1"):
        with pytest.raises(ValueError, match="label"):
            Dataset(alphabet=ab, records=(("a", label),))
    ds = Dataset(alphabet=ab, records=(("a", np.int64(1)), ("b", np.int8(-1))))
    assert [(y, type(y)) for y in ds.labels] == [(1, int), (-1, int)]


# ---------------------------------------------------------------------
# training
# ---------------------------------------------------------------------

def test_train_single_class_converges_fast(ab):
    strings = enumerate_strings(ab, 2)
    gram = gram_matrix(strings, exact_params(ab))
    model = train(gram, [1] * len(strings), max_epochs=10)
    assert model.final_errors == 0
    assert model.epochs_run <= 2
    for s in strings:
        assert predict(model, s) == 1


def test_train_parity_converges(parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 4))
    gram = gram_matrix(ds.strings, exact_params(ab, n_max=3))
    model = train(gram, ds.labels, max_epochs=50)
    assert model.final_errors == 0
    assert model.errors_per_epoch[-1] == 0


def test_train_inseparable_reports_errors(ab):
    params = exact_params(ab)
    gram = constant_gram(["a", "b"], 1, params)
    model = train(gram, [1, -1], max_epochs=7)
    assert model.epochs_run == 7
    assert model.final_errors > 0


def test_train_validation(ab):
    gram = gram_matrix(["", "a"], exact_params(ab))
    with pytest.raises(ValueError, match="labels"):
        train(gram, [1], max_epochs=5)
    with pytest.raises(ValueError):
        train(gram, [1, 0], max_epochs=5)
    with pytest.raises(ValueError):
        train(gram, [1, -1], max_epochs=0)
    with pytest.raises(ValueError, match="label"):
        train(gram, [1.9, -1], max_epochs=5)
    assert train(gram, np.array([1, -1]), max_epochs=5) == train(gram, [1, -1], max_epochs=5)


def test_train_deterministic(parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 3))
    gram = gram_matrix(ds.strings, exact_params(ab))
    a = train(gram, ds.labels, max_epochs=100)
    b = train(gram, ds.labels, max_epochs=100)
    assert a == b


def test_convergence_reported_iff_predict_reproduces_labels(ab):
    # every trained-to-zero model must agree with its training labels
    # through the public predict path, with the same exact parameters
    strings = enumerate_strings(ab, 3)
    gram = gram_matrix(strings, exact_params(ab))
    for target in list(enumerate_dfas(2, ab))[::7]:
        ds = label_strings(target, strings)
        model = train(gram, ds.labels, max_epochs=200)
        if model.final_errors == 0:
            assert all(predict(model, s) == y for s, y in ds.records)


def test_all_two_state_targets_separable(ab):
    # the embedding construction promises separability of every target;
    # on a finite sample the perceptron must reach zero errors
    strings = enumerate_strings(ab, 4)
    gram = gram_matrix(strings, exact_params(ab, n_max=2))
    failures = []
    for n in (1, 2):
        for target in enumerate_dfas(n, ab):
            ds = label_strings(target, strings)
            model = train(gram, ds.labels, max_epochs=200)
            if model.final_errors != 0:
                failures.append(target)
    assert not failures


# ---------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------

def test_predict_single_support_is_positive_on_itself(ab):
    model = PerceptronModel(
        support=(("ab", 1),), params=exact_params(ab), epochs_run=1,
        errors_per_epoch=(0,),
    )
    assert predict(model, "ab") == 1


def test_predict_empty_support_is_negative(ab):
    model = PerceptronModel(
        support=(), params=exact_params(ab), epochs_run=1, errors_per_epoch=(0,)
    )
    for x in ("", "a", "bbb"):
        assert predict(model, x) == -1


def test_predict_alphabet_mismatch(ab):
    model = PerceptronModel(
        support=(("a", 1),), params=exact_params(ab), epochs_run=1,
        errors_per_epoch=(0,),
    )
    with pytest.raises(ValueError, match="not in alphabet"):
        predict(model, "xyz")


def mc_params(ab, scaling, epsilon=0.05, failure_prob=0.01):
    # the budget of the benchmark's Monte Carlo workload
    return KernelParams(alphabet=ab, n_max=3, mode="monte-carlo", scaling=scaling,
                        epsilon=epsilon, failure_prob=failure_prob, master_seed=101)


def parity_gram_and_model(parity, ab, params):
    ds = label_strings(parity, enumerate_strings(ab, 4))
    gram = gram_matrix(ds.strings, params)
    return gram, train(gram, ds.labels, max_epochs=200)


def test_decision_values_equal_per_pair_sums(parity, ab):
    # support strings, longer strings, and the empty string, in one call
    queries = ["", "a", "ba", "abab", "aabba", "bbbbbb", "ababab"]
    models = [
        parity_gram_and_model(parity, ab, params)[1]
        for params in (mc_params(ab, "paper", 0.1, 0.05),
                       mc_params(ab, "normalized", 0.1, 0.05),
                       exact_params(ab, n_max=3))
    ]
    for model in models:
        assert model.support
        expected = []
        for x in queries:
            total = 0
            for s, coeff in model.support:
                total += coeff * kernel_value(s, x, model.params).value
            expected.append(total)
        assert decision_values(model, queries) == expected
        assert [decision_value(model, x) for x in queries] == expected


def test_decision_values_reproduce_training_dual_sums(parity, ab):
    # on every training string, the decision value is the dual sum the
    # perceptron read off the Gram: sum_j alpha_j * G[j][i], bit for bit
    for scaling in ("paper", "normalized"):
        gram, model = parity_gram_and_model(parity, ab, mc_params(ab, scaling))
        position = {s: i for i, s in enumerate(gram.strings)}
        expected = []
        for i in range(len(gram.strings)):
            total = 0
            for s, coeff in model.support:
                total += coeff * gram.values[position[s]][i]
            expected.append(total)
        assert decision_values(model, gram.strings) == expected


@pytest.mark.parametrize("mode", ["monte-carlo", "exact"])
def test_decision_values_across_query_chunks(parity, ab, mode):
    from regkernel.learner import _QUERY_CHUNK

    params = {"monte-carlo": mc_params(ab, "normalized", 0.1, 0.05), "exact": exact_params(ab, 3)}
    _, model = parity_gram_and_model(parity, ab, params[mode])
    queries = [s for s in enumerate_strings(ab, 8) if len(s) >= 6][: _QUERY_CHUNK + 40]
    values = decision_values(model, queries)
    around = slice(_QUERY_CHUNK - 3, _QUERY_CHUNK + 3)
    assert values[around] == [decision_value(model, x) for x in queries[around]]


@pytest.mark.parametrize("mode", ["monte-carlo", "exact"])
def test_decision_values_score_at_most_a_chunk_per_block(parity, ab, monkeypatch, mode):
    # both modes score 300 queries in blocks of at most _QUERY_CHUNK
    # columns, so a block's lists stay flat in the number of queries, and
    # the values are those of one block of all the queries, bit for bit
    from regkernel import learner
    from regkernel.kernel import kernel_block
    from regkernel.learner import _QUERY_CHUNK

    params = mc_params(ab, "normalized") if mode == "monte-carlo" else exact_params(ab, 3)
    _, model = parity_gram_and_model(parity, ab, params)
    widths = []
    real = learner.kernel_block

    def recording(rows, cols, params):
        widths.append(len(cols))
        return real(rows, cols, params)

    monkeypatch.setattr(learner, "kernel_block", recording)
    queries = enumerate_strings(ab, 8)[:300]
    values = decision_values(model, queries)
    assert widths == [_QUERY_CHUNK, 300 - _QUERY_CHUNK]
    whole = kernel_block([s for s, _ in model.support], queries, params)
    expected = []
    for j in range(len(queries)):
        total = 0
        for (_, coeff), row in zip(model.support, whole):
            total += coeff * row[j]
        expected.append(total)
    assert values == expected


def test_decision_values_empty_inputs(ab):
    model = PerceptronModel(
        support=(), params=mc_params(ab, "normalized"), epochs_run=1, errors_per_epoch=(0,)
    )
    assert decision_values(model, ["", "ab", "bbb"]) == [0, 0, 0]
    assert decision_values(model, []) == []


def test_exact_decision_values_encode_each_string_once(ab, monkeypatch):
    # the shape of the benchmark's exact predict: 14 support strings and 192
    # queries make one block, whose plan validates what it encodes
    support = tuple((s, 1 - 2 * (i % 2)) for i, s in enumerate(enumerate_strings(ab, 3)[1:]))
    model = PerceptronModel(support=support, params=exact_params(ab, n_max=4), epochs_run=1,
                            errors_per_epoch=(0,))
    queries = [s for s in enumerate_strings(ab, 7) if len(s) >= 6]
    assert (len(support), len(queries)) == (14, 192)
    encoded = []
    real = Alphabet.encode

    def counting(self, s):
        encoded.append(s)
        return real(self, s)

    monkeypatch.setattr(Alphabet, "encode", counting)
    decision_values(model, queries)
    assert len(encoded) == 206
    assert sorted(encoded) == sorted([s for s, _ in support] + queries)


def test_monte_carlo_decision_values_encode_each_query_once(ab, monkeypatch):
    # the queries after the first chunk are checked up front without an
    # encode; each chunk's plan encodes its queries and the support once
    from regkernel.learner import _QUERY_CHUNK

    model = PerceptronModel(support=(("ab", 1), ("ba", -1), ("aab", 1)),
                            params=mc_params(ab, "normalized"), epochs_run=1,
                            errors_per_epoch=(0,))
    queries = enumerate_strings(ab, 8)[:300]
    assert len(queries) > _QUERY_CHUNK
    encoded = []
    encode = Alphabet.encode
    monkeypatch.setattr(Alphabet, "encode", lambda self, x: encoded.append(x) or encode(self, x))
    decision_values(model, queries)
    assert len(encoded) == 306  # 300 queries, and the 3 support strings in each of 2 chunks


def test_parity_model_generalizes(parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 4))
    gram = gram_matrix(ds.strings, exact_params(ab, n_max=3))
    model = train(gram, ds.labels, max_epochs=50)
    held_out = [s for s in enumerate_strings(ab, 5) if len(s) == 5]
    assert len(held_out) == 32
    hits = sum(
        1 for s in held_out if predict(model, s) == (1 if parity.accepts(s) else -1)
    )
    assert hits >= 0.8 * len(held_out)


# ---------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------

def test_dataset_text_round_trip(parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 2))
    text = dataset_to_text(ds)
    assert text.startswith("# alphabet ab\n")
    assert "+1\t\n" in text  # the empty string is a legal record
    assert dataset_from_text(text) == ds


def test_dataset_text_errors():
    with pytest.raises(ParseError, match="alphabet"):
        dataset_from_text("+1\tab\n")
    with pytest.raises(ParseError, match="label"):
        dataset_from_text("# alphabet ab\n+2\ta\n")
    with pytest.raises(ParseError, match="label"):
        dataset_from_text("# alphabet ab\n1\ta\n")
    with pytest.raises(ParseError, match=r"line 3: symbol 'c' at position 1 is not in alphabet"):
        dataset_from_text("# alphabet ab\n+1\ta\n-1\tac\n")
    with pytest.raises(ParseError, match=r"line 4: duplicate string 'ab', first on line 2"):
        dataset_from_text("# alphabet ab\n+1\tab\n-1\tb\n-1\tab\n")
    with pytest.raises(ParseError, match=r"line 2: alphabet has duplicate symbols"):
        dataset_from_text("# comment\n# alphabet aa\n+1\ta\n")
    with pytest.raises(ParseError, match=r"line 2: duplicate alphabet header"):
        dataset_from_text("# alphabet ab\n# alphabet ab\n+1\ta\n")
    with pytest.raises(ParseError, match=r"line 2: expected '<label>\\t<string>', got '\+1 a'"):
        dataset_from_text("# alphabet ab\n+1 a\n")
    with pytest.raises(ParseError, match=r"line 1: missing '# alphabet <symbols>' header"):
        dataset_from_text("# comment\n")


def test_model_round_trip(tmp_path, parity, ab):
    ds = label_strings(parity, enumerate_strings(ab, 3))
    gram = gram_matrix(ds.strings, exact_params(ab))
    model = train(gram, ds.labels, max_epochs=100)
    assert model.support  # parity needs at least one support string
    path = tmp_path / "parity.model"
    save_model(model, path)
    assert load_model(path) == model


def model_text(header, mode, weights, *support):
    params = ('{"alphabet": "ab", "epsilon": 0.1, "failure_prob": 0.05, "master_seed": 1, '
              f'"mode": "{mode}", "n_max": 2, "scaling": "normalized", "weights": {weights}}}')
    meta = f'meta {{"epochs_run": 1, "errors_per_epoch": [0], "params": {params}}}'
    return "\n".join((header, meta, *support)) + "\n"


def test_model_text_errors():
    with pytest.raises(ParseError, match="header"):
        model_from_text("nope\n")
    with pytest.raises(ParseError, match="meta"):
        model_from_text("model v1\nnometa\n")
    with pytest.raises(ParseError, match=r"line 3: expected '<alpha>\\t<string>', got '1 ab'"):
        model_from_text(model_text("model v1", "exact", "null", "1 ab"))
    # non-finite weights and support coefficients are refused, not scored
    for header, mode, weights in (("model v4", "monte-carlo", "[NaN, 1.0]"),
                                  ("model v1", "exact", "[Infinity, 1.0]"),
                                  ("model v1", "exact", "[1.0, -Infinity]"),
                                  ("model v1", "exact", f"[1, {10**400}]")):
        with pytest.raises(ParseError, match="finite"):
            model_from_text(model_text(header, mode, weights, "1\tab"))
    for coeff in ("nan", "inf", "-inf", str(10**400)):
        with pytest.raises(ValueError, match="coefficient"):
            model_from_text(model_text("model v1", "exact", "null", f"{coeff}\tab"))
    # metadata integers that are floats or strings are refused, not truncated
    text = model_text("model v1", "exact", "null", "1\tab")
    for old, new in (('"epochs_run": 1', '"epochs_run": 2.7'),
                     ('"epochs_run": 1', '"epochs_run": "2"'),
                     ('"errors_per_epoch": [0]', '"errors_per_epoch": [3.9, 0.2]')):
        with pytest.raises(ParseError, match="malformed metadata") as caught:
            model_from_text(text.replace(old, new))
        assert caught.value.line == 2


@pytest.mark.parametrize("bad, message", [
    ("-1\tac", "support string 'ac': symbol 'c' at position 1 is not in alphabet 'ab'"),
    ("0\tba", "support string 'ba' has zero coefficient"),
    ("-0.0\tba", "support string 'ba' has zero coefficient"),
    ("nan\tba", "support string 'ba' has a non-finite coefficient"),
    (f"{10**400}\tba", "support string 'ba' has a non-finite coefficient"),
], ids=["symbol", "zero", "negative-zero", "nan", "overflow"])
def test_model_text_names_the_line_of_a_bad_support_string(bad, message):
    # the blank line is skipped but counted
    text = model_text("model v1", "exact", "null", "1\tab", "", bad)
    with pytest.raises(ParseError) as caught:
        model_from_text(text)
    assert caught.value.line == 5
    assert str(caught.value) == f"line 5: {message}"
