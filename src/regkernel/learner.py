"""Dual kernel perceptron over the DFA-counting kernel.

A learned language is carried entirely by its support strings: training
strings whose dual coefficient ended up nonzero.  Membership of a new
string x is decided by the sign of sum_i alpha_i * K(s_i, x), with an
exact tie classified as negative (the membership rule is strict).
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path
from typing import Sequence

from .automata import (
    Alphabet,
    CapExceededError,
    Dfa,
    ParseError,
    Record,
    iter_strings,
)
from .kernel import GramMatrix, KernelParams, check_block, format_version, kernel_block

# Upper bound on how many strings enumerate_strings may list.
STRING_CAP = 1_000_000

LABELS = (1, -1)

# Queries scored per kernel block, in either mode.  A block's per-n counts
# and values are support x chunk lists, so chunking keeps the live lists of
# a prediction flat in the number of queries.
_QUERY_CHUNK = 256


class Dataset(Record):
    """Labeled strings over one alphabet; labels are +1/-1, strings distinct.

    Each record is checked once, on construction.  ``lines`` gives the
    source line of each record (dataset_from_text passes it); with it, an
    invalid record raises a ParseError that names its line.  It is neither
    stored nor compared."""

    _fields = ("alphabet", "records")

    def __init__(self, alphabet: Alphabet, records: tuple[tuple[str, int], ...],
                 lines: Sequence[int] | None = None):
        self._set(alphabet=alphabet, records=tuple((s, _label(label)) for s, label in records))
        first: dict[str, int] = {}
        for i, (s, label) in enumerate(self.records):
            try:
                if label not in LABELS:
                    raise ValueError(f"label for {s!r} must be +1 or -1, got {label}")
                self.alphabet.encode(s)
                if s in first:
                    where = f"line {lines[first[s]]}" if lines else f"record {first[s] + 1}"
                    raise ValueError(f"duplicate string {s!r}, first on {where}")
            except ValueError as e:
                if lines is None:
                    raise
                raise ParseError(str(e), lines[i]) from e
            first[s] = i

    @property
    def strings(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.records)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, label in self.records)


class PerceptronModel(Record):
    """Support strings with their dual coefficients, plus the kernel
    parameters in force at training time (reused verbatim by predict).

    Each support string and coefficient is checked on construction.
    ``lines`` gives the source line of each support string
    (model_from_text passes it); with it, an invalid one raises a
    ParseError that names its line.  It is neither stored nor compared."""

    _fields = ("support", "params", "epochs_run", "errors_per_epoch")

    def __init__(self, support: tuple[tuple[str, int | float], ...], params: KernelParams,
                 epochs_run: int, errors_per_epoch: tuple[int, ...],
                 lines: Sequence[int] | None = None):
        self._set(support=support, params=params, epochs_run=epochs_run,
                  errors_per_epoch=errors_per_epoch)
        for i, (s, coeff) in enumerate(self.support):
            try:
                _check_support(self.params.alphabet, s, coeff)
            except ValueError as e:
                if lines is None:
                    raise
                raise ParseError(str(e), lines[i]) from e

    @property
    def final_errors(self) -> int:
        return self.errors_per_epoch[-1] if self.errors_per_epoch else 0


def _label(y) -> int:
    """y as an int, numpy integers included: a float or a string is
    refused, where int() would truncate 1.9 to the label +1."""
    try:
        return operator.index(y)
    except TypeError as e:
        raise ValueError(f"labels must be +1 or -1, got {y!r}") from e


def _check_support(alphabet: Alphabet, s: str, coeff: int | float) -> None:
    """Raise ValueError unless s is over the alphabet and coeff is a
    finite nonzero number."""
    try:
        alphabet.encode(s)
    except ValueError as e:
        raise ValueError(f"support string {s!r}: {e}") from e
    if coeff == 0:
        raise ValueError(f"support string {s!r} has zero coefficient")
    try:
        finite = math.isfinite(coeff)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"support string {s!r} has a non-finite coefficient")


def enumerate_strings(alphabet: Alphabet, max_len: int) -> list[str]:
    """All strings of length 0..max_len, length-then-lexicographic; raises
    CapExceededError up front when there are more than STRING_CAP."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    k = len(alphabet)
    total = max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)
    if total > STRING_CAP:
        raise CapExceededError(total, STRING_CAP, what="strings")
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
    labels = [_label(y) for y in labels]
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
    parameters: kernel_blocks of the support against up to _QUERY_CHUNK
    queries each, in sorted order, in either mode.

    Every x is validated, and check_block run for the deepest term of the
    support and all queries, before any block counts.  Each sum runs over
    the support in model order, so a value equals the per-pair sum bit for bit.
    """
    params = model.params
    xs = list(xs)
    support = [s for s, _ in model.support]
    # each block's plan encodes its own queries: a membership test suffices
    # here, and encode runs only to raise its error for a bad one
    symbols = set(params.alphabet.symbols)
    for x in xs:
        if not symbols.issuperset(x):
            params.alphabet.encode(x)
    check_block(params, min(max(map(len, support), default=0), max(map(len, xs), default=0),
                            params.n_max))
    order = sorted(range(len(xs)), key=xs.__getitem__)  # a block's queries share prefixes
    totals: list[int | float] = [0] * len(xs)
    for lo in range(0, len(xs), _QUERY_CHUNK):
        chunk = order[lo : lo + _QUERY_CHUNK]
        block = kernel_block(support, [xs[i] for i in chunk], params)
        # a plain left-to-right loop, as in train: sum() of floats is
        # compensated on Python >= 3.12 and would not reproduce the training
        # sums bit for bit
        for j, i in enumerate(chunk):
            total: int | float = 0
            for (_, coeff), row in zip(model.support, block):
                total += coeff * row[j]
            totals[i] = total
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
    """Parse dataset_to_text output.  Structural errors are raised here;
    each record's string is checked by Dataset, with its line number."""
    alphabet = None
    records = []
    record_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            parts = raw[1:].split()
            if len(parts) == 2 and parts[0] == "alphabet":
                if alphabet is not None:
                    raise ParseError("duplicate alphabet header", lineno)
                try:
                    alphabet = Alphabet(tuple(parts[1]))
                except ValueError as e:
                    raise ParseError(str(e), lineno) from e
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
        record_lines.append(lineno)
    if alphabet is None:
        raise ParseError("missing '# alphabet <symbols>' header", 1)
    return Dataset(alphabet=alphabet, records=tuple(records), lines=record_lines)


def load_dataset(path: str | Path) -> Dataset:
    return dataset_from_text(Path(path).read_text(encoding="utf-8"))


def model_to_text(model: PerceptronModel) -> str:
    """Two metadata lines then one ``<alpha>\\t<string>`` line per support
    string, in training order.  The header is ``model v4`` for a Monte
    Carlo model (agreement counts over one SHAKE-256 table stream per n)
    and ``model v1`` for an exact one."""
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
    # every header ever written; an older Monte Carlo one is refused below,
    # after the metadata, with a retrain hint
    if not lines or lines[0] not in ("model v1", "model v2", "model v3", "model v4"):
        raise ParseError("expected a 'model v1' to 'model v4' header", 1)
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise ParseError("expected 'meta <json>' line", 2)
    try:
        meta = json.loads(lines[1][len("meta ") :])
        params = KernelParams.from_dict(meta["params"])
        epochs_run = operator.index(meta["epochs_run"])
        errors = tuple(map(operator.index, meta["errors_per_epoch"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed metadata: {e}", 2) from e
    expected = f"model v{format_version(params)}"
    if lines[0] != expected:
        hint = "" if params.mode == "exact" else (
            "; older Monte Carlo models were scored by another estimator or "
            "sample stream, so retrain"
        )
        raise ParseError(f"{params.mode} model needs a '{expected}' header, "
                         f"got '{lines[0]}'{hint}", 1)
    support = []
    support_lines = []
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
        support_lines.append(lineno)
    return PerceptronModel(
        support=tuple(support),
        params=params,
        epochs_run=epochs_run,
        errors_per_epoch=errors,
        lines=support_lines,
    )


def load_model(path: str | Path) -> PerceptronModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))


def save_model(model: PerceptronModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")
