"""Dual kernel perceptron over the DFA-counting kernel.

A learned language is carried entirely by its support strings: training
strings whose dual coefficient ended up nonzero.  Membership of a new
string x is decided by the sign of sum_i alpha_i * K(s_i, x), with an
exact tie classified as negative (the membership rule is strict).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .automata import (
    DEFAULT_TABLE_CAP,
    Alphabet,
    CapExceededError,
    Dfa,
    ParseError,
    iter_strings,
)
from .kernel import (
    GramMatrix,
    KernelParams,
    _check_exact_cap,
    _exact_values,
    _mc_value,
    format_version,
    mc_joint_counts,
    required_samples,
)

DEFAULT_STRING_CAP = 1_000_000

LABELS = (1, -1)

# Monte Carlo queries scored per joint-count call.  A block of samples holds
# a fixed number of cells, so with more strings its samples get too few to
# amortise the per-symbol walk; chunking keeps prediction linear in queries.
_QUERY_CHUNK = 256


@dataclass(frozen=True)
class Dataset:
    """Labeled strings over one alphabet; labels are +1/-1, strings distinct."""

    alphabet: Alphabet
    records: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "records", tuple((s, int(label)) for s, label in self.records)
        )
        seen = set()
        for s, label in self.records:
            if label not in LABELS:
                raise ValueError(f"label for {s!r} must be +1 or -1, got {label}")
            if s in seen:
                raise ValueError(f"duplicate string {s!r} in dataset")
            seen.add(s)
            self.alphabet.encode(s)

    @property
    def strings(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.records)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, label in self.records)


@dataclass(frozen=True)
class PerceptronModel:
    """Support strings with their dual coefficients, plus the kernel
    parameters in force at training time (reused verbatim by predict)."""

    support: tuple[tuple[str, int | float], ...]
    params: KernelParams
    epochs_run: int
    errors_per_epoch: tuple[int, ...]

    def __post_init__(self):
        for s, coeff in self.support:
            if coeff == 0:
                raise ValueError(f"support string {s!r} has zero coefficient")

    @property
    def final_errors(self) -> int:
        return self.errors_per_epoch[-1] if self.errors_per_epoch else 0


def enumerate_strings(
    alphabet: Alphabet, max_len: int, cap: int = DEFAULT_STRING_CAP
) -> list[str]:
    """All strings of length 0..max_len, length-then-lexicographic."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    k = len(alphabet)
    total = max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)
    if total > cap:
        raise CapExceededError(total, cap, what="strings")
    return list(iter_strings(alphabet, max_len))


def label_strings(target: Dfa, strings: Sequence[str]) -> Dataset:
    """Ground-truth dataset: label +1 iff the target automaton accepts."""
    records = tuple((s, 1 if target.accepts(s) else -1) for s in strings)
    return Dataset(alphabet=target.alphabet, records=records)


def train(gram: GramMatrix, labels: Sequence[int], max_epochs: int) -> PerceptronModel:
    """Classical dual perceptron on a precomputed Gram matrix.

    Sweeps the records in dataset order (no shuffling); on a mistake at
    index i, meaning labels[i] * sum_j alpha_j * G[j][i] <= 0, it adds
    labels[i] to alpha_i.  Stops at the first mistake-free epoch or after
    max_epochs, reporting the mistake count of every epoch run.  Entirely
    deterministic; inseparable data simply exhausts max_epochs and
    reports its residual errors.
    """
    count = len(gram.strings)
    labels = [int(y) for y in labels]
    if len(labels) != count:
        raise ValueError(f"{count} strings but {len(labels)} labels")
    for y in labels:
        if y not in LABELS:
            raise ValueError(f"labels must be +1 or -1, got {y}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")

    g = gram.numeric()
    alpha = [0] * count
    errors_per_epoch: list[int] = []
    for _ in range(max_epochs):
        mistakes = 0
        for i in range(count):
            s = 0
            for j in range(count):
                if alpha[j]:
                    s += alpha[j] * g[j][i]
            if labels[i] * s <= 0:
                alpha[i] += labels[i]
                mistakes += 1
        errors_per_epoch.append(mistakes)
        if mistakes == 0:
            break

    support = tuple(
        (gram.strings[i], alpha[i]) for i in range(count) if alpha[i] != 0
    )
    return PerceptronModel(
        support=support,
        params=gram.params,
        epochs_run=len(errors_per_epoch),
        errors_per_epoch=tuple(errors_per_epoch),
    )


def decision_values(model: PerceptronModel, xs: Sequence[str]) -> list[int | float]:
    """sum_i alpha_i * K(s_i, x) for every x, under the model's training
    parameters.

    Every x is validated, and an exact model's table cap is checked for
    the largest term, before any kernel work.  Monte Carlo mode reads the
    support against up to _QUERY_CHUNK of xs at a time from one joint-count
    call per n, so each n's sample is drawn once per chunk; exact mode
    evaluates one (support string, x) pair per symbol-permutation class with
    kernel_value.  Each sum runs over the support in model order, so a value
    equals the per-pair sum bit for bit.
    """
    params = model.params
    xs = list(xs)
    for x in xs:
        params.alphabet.encode(x)
    support = [s for s, _ in model.support]
    n_top = min(max(map(len, support), default=0), max(map(len, xs), default=0),
                params.n_max)
    if params.mode == "exact":
        _check_exact_cap(n_top, params, DEFAULT_TABLE_CAP)
        values = _exact_values(((s, x) for x in xs for s in support), params,
                               DEFAULT_TABLE_CAP)
        width = len(support)
        columns = [[kv.value for kv in values[j * width : (j + 1) * width]]
                   for j in range(len(xs))]
    else:
        m = required_samples(params.epsilon, params.failure_prob)
        columns = []
        for lo in range(0, len(xs), _QUERY_CHUNK):
            chunk = xs[lo : lo + _QUERY_CHUNK]
            per_n = [
                mc_joint_counts(support, n, m, params.alphabet, params.master_seed, chunk)
                for n in range(1, n_top + 1)
            ]
            columns += [
                [_mc_value(s, x, [c[i, j] for c in per_n], params, m).value
                 for i, s in enumerate(support)]
                for j, x in enumerate(chunk)
            ]
    # a plain left-to-right loop, as in train: sum() of floats is compensated
    # on Python >= 3.12 and would not reproduce the training sums bit for bit
    totals: list[int | float] = []
    for column in columns:
        total: int | float = 0
        for (_, coeff), value in zip(model.support, column):
            total += coeff * value
        totals.append(total)
    return totals


def decision_value(model: PerceptronModel, x: str) -> int | float:
    """sum_i alpha_i * K(s_i, x) under the model's training parameters."""
    return decision_values(model, [x])[0]


def predict(model: PerceptronModel, x: str) -> int:
    """+1 when the decision value is strictly positive, else -1."""
    return 1 if decision_value(model, x) > 0 else -1


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def dataset_to_text(dataset: Dataset) -> str:
    """Header ``# alphabet <symbols>`` then one ``<label>\\t<string>`` per
    record; labels are the literal tokens +1 and -1."""
    lines = [f"# alphabet {dataset.alphabet.text}"]
    for s, label in dataset.records:
        lines.append(f"{'+1' if label > 0 else '-1'}\t{s}")
    return "\n".join(lines) + "\n"


def dataset_from_text(text: str) -> Dataset:
    alphabet = None
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            parts = raw[1:].split()
            if len(parts) == 2 and parts[0] == "alphabet":
                if alphabet is not None:
                    raise ParseError("duplicate alphabet header", lineno)
                alphabet = Alphabet(tuple(parts[1]))
            continue
        if not raw.strip():
            continue
        if alphabet is None:
            raise ParseError("record before '# alphabet <symbols>' header", lineno)
        try:
            label_text, string = raw.split("\t")
        except ValueError as e:
            raise ParseError(f"expected '<label>\\t<string>', got {raw!r}", lineno) from e
        if label_text not in ("+1", "-1"):
            raise ParseError(f"label must be +1 or -1, got {label_text!r}", lineno)
        records.append((string, 1 if label_text == "+1" else -1))
    if alphabet is None:
        raise ParseError("missing '# alphabet <symbols>' header", 1)
    return Dataset(alphabet=alphabet, records=tuple(records))


def load_dataset(path: str | Path) -> Dataset:
    return dataset_from_text(Path(path).read_text(encoding="utf-8"))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataset_to_text(dataset), encoding="utf-8")


def model_to_text(model: PerceptronModel) -> str:
    """Two metadata lines then one ``<alpha>\\t<string>`` line per support
    string, in training order.  The header is ``model v2`` for a Monte
    Carlo model (one shared sample per n) and ``model v1`` for an exact
    one."""
    meta = {
        "params": model.params.to_dict(),
        "epochs_run": model.epochs_run,
        "errors_per_epoch": list(model.errors_per_epoch),
    }
    lines = [f"model v{format_version(model.params)}",
             "meta " + json.dumps(meta, sort_keys=True)]
    for s, coeff in model.support:
        lines.append(f"{coeff}\t{s}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> PerceptronModel:
    lines = text.splitlines()
    if not lines or lines[0] not in ("model v1", "model v2"):
        raise ParseError("expected 'model v1' or 'model v2' header", 1)
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise ParseError("expected 'meta <json>' line", 2)
    try:
        meta = json.loads(lines[1][len("meta ") :])
        params = KernelParams.from_dict(meta["params"])
        epochs_run = int(meta["epochs_run"])
        errors = tuple(int(e) for e in meta["errors_per_epoch"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed metadata: {e}", 2) from e
    expected = f"model v{format_version(params)}"
    if lines[0] != expected:
        hint = "" if params.mode == "exact" else (
            "; Monte Carlo values now come from one shared sample per n, so retrain"
        )
        raise ParseError(f"{params.mode} model needs a '{expected}' header, "
                         f"got '{lines[0]}'{hint}", 1)
    support = []
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        try:
            coeff_text, string = raw.split("\t")
        except ValueError as e:
            raise ParseError(f"expected '<alpha>\\t<string>', got {raw!r}", lineno) from e
        try:
            coeff: int | float = int(coeff_text)
        except ValueError:
            coeff = float(coeff_text)
        support.append((string, coeff))
    return PerceptronModel(
        support=tuple(support),
        params=params,
        epochs_run=epochs_run,
        errors_per_epoch=errors,
    )


def load_model(path: str | Path) -> PerceptronModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))


def save_model(model: PerceptronModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")
