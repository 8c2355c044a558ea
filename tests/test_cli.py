import gc
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from regkernel import (
    Alphabet, CapExceededError, Dataset, Dfa, GramMatrix, KernelParams, enumerate_strings,
    exact_kn, exact_pn, label_strings, mc_pn, parse_dfa,
)
from regkernel.cli import main
from regkernel.count import agreement_matrix
from regkernel.learner import (
    _QUERY_CHUNK, PerceptronModel, dataset_to_text, load_model, model_to_text, predict,
    save_model,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_parity_dataset(tmp_path, parity, ab, max_len=3):
    ds = label_strings(parity, enumerate_strings(ab, max_len))
    path = tmp_path / "parity.tsv"
    path.write_text(dataset_to_text(ds), encoding="utf-8")
    return path


# ---------------------------------------------------------------------
# refused before any work
# ---------------------------------------------------------------------

AB = Alphabet(("a", "b"))


class Tripwire(AssertionError):
    """Work that a refusal should have come before: a counter, a table draw
    or a value assembly."""


def trip(name, *args, **kwargs):
    raise Tripwire(f"{name} ran before the refusal")


def dataset_text(strings):
    records = tuple((s, 1 - 2 * (i % 2)) for i, s in enumerate(strings))
    return dataset_to_text(Dataset(alphabet=AB, records=records))


def model_text(support, **params):
    return model_to_text(PerceptronModel(support=((support, 1),),
                                         params=KernelParams(alphabet=AB, **params),
                                         epochs_run=1, errors_per_epoch=(0,)))


# The directory each CLI row runs in: file name -> text, None for an empty
# directory.
REFUSAL_FILES = {
    "short.tsv": dataset_text(enumerate_strings(AB, 3)),
    "deep.tsv": dataset_text(["a", "a" * 9, "a" * 8 + "b"]),
    "long.tsv": dataset_text(["ab" * 40, "ba" * 40, "a" * 80, "b" * 80, "ab" * 39 + "aa",
                              "ba" * 39 + "bb"]),
    "exact.model": model_text("ab", n_max=2),
    "mc.model": model_text("ab", n_max=2, mode="monte-carlo", scaling="normalized"),
    "mc-cap.model": model_text("ab", n_max=2, mode="monte-carlo", scaling="normalized",
                               epsilon=0.0001),
    "deep.model": model_text("a" * 6, n_max=6),
    "deep-normalized.model": model_text("a" * 6, n_max=6, scaling="normalized"),
    "paper.model": model_text("b" * 80, n_max=80, mode="monte-carlo", scaling="paper"),
    "deep.txt": "a\nab\naaaaaa\nb\n",
    # the first chunk alone passes every check; the deep query sorts last,
    # into the second chunk
    "deep-second.txt": "a\n" * _QUERY_CHUNK + "aaaaaa\n",
    "long-second.txt": "a\n" * _QUERY_CHUNK + "b" * 80 + "\n",
    # the deep query sorts first, into the first chunk
    "long-first.txt": "ab\n" * _QUERY_CHUNK + "a" * 80 + "\n",
    "bad-2.txt": "ab\nacb\nba\n",
    "bad-262.txt": "ab\n" * 261 + "abc\n",
    "file": "",
    "dir.csv": None,
    "side.csv.meta.json": None,
}
EXACT_CAP = r"transition tables, above the cap of \d+ \(use monte-carlo mode"
FLOAT_RANGE = "paper-scaled Monte Carlo sum.*use normalized scaling"
MC_CAP = r"sampled tables per term, above the cap of \d+ \(raise --eps or --delta\)"
SINGLE_N = {"agreement_matrix": partial(agreement_matrix, ["a", "b"]),
            "exact_kn": partial(exact_kn, "a", "b"), "exact_pn": partial(exact_pn, "a", "b")}


def refusal(run, expect, pattern, cap=None, *, id):
    """A row of REFUSALS: a CLI argv ``run``, run in a directory of
    REFUSAL_FILES, exits ``expect`` with ``pattern`` in stderr; a library
    call ``run`` raises ``expect`` matching ``pattern``.  ``cap``, when
    given, stands in for automata.TABLE_CAP."""
    return pytest.param(run, expect, pattern, cap, id=id)


REFUSALS = [
    # exact past the table cap: 6**12 tables at n = 6, 9**18 at n = 9
    refusal(["kernel", "--mode", "exact", "--nmax", "9", "a" * 9, "a" * 8 + "b"], 3, EXACT_CAP,
            id="kernel-exact-cap"),
    refusal(["kernel", "--mode", "exact", "--scaling", "normalized", "--nmax", "9",
             "--alphabet", "ab", "--seed", "0", "a" * 9, "a" * 9], 3, EXACT_CAP,
            id="kernel-exact-cap-normalized"),
    *[refusal([command, "--dataset", "deep.tsv", "--mode", "exact", "--nmax", "9",
               "--out", "out"], 3, EXACT_CAP, id=f"{command}-exact-cap")
      for command in ("gram", "train")],
    refusal(["predict", "--model", "deep.model", "--in", "deep.txt"], 3, EXACT_CAP,
            id="predict-exact-cap"),
    refusal(["predict", "--model", "deep-normalized.model", "--in", "deep.txt"], 3, EXACT_CAP,
            id="predict-exact-cap-normalized"),
    refusal(["predict", "--model", "deep.model", "--in", "deep-second.txt"], 3, EXACT_CAP,
            id="predict-exact-cap-second-chunk"),
    # the single-n path, which no command takes, checks the cap at n itself:
    # 3**6 = 729 tables at n = 3 pass a cap of 729, and the table build is next
    *[refusal(partial(f, n, AB), error, pattern, cap,
              id=f"{name}-n{n}" + (f"-cap{cap}" if cap else ""))
      for name, f in SINGLE_N.items()
      for n, cap, error, pattern in ((6, None, CapExceededError, EXACT_CAP),
                                     (3, 728, CapExceededError, EXACT_CAP),
                                     (0, None, ValueError, "state count"))],
    refusal(partial(agreement_matrix, ["a", "b"], 3, AB), Tripwire, "accessible_tables",
            729, id="agreement_matrix-n3-cap729"),
    # Monte Carlo past the table cap by its m sampled tables per term, at any
    # n: m = 1,844,439,727,056,967,936 at epsilon 1e-9 and 184,443,973 at
    # 1e-4 (delta 0.05)
    refusal(["kernel", "--mode", "mc", "--eps", "1e-9", "--nmax", "1", "a", "b"], 3, MC_CAP,
            id="kernel-mc-cap"),
    *[refusal([command, "--dataset", "short.tsv", "--mode", "mc", "--eps", "0.0001", "--out",
               "out"], 3, MC_CAP, id=f"{command}-mc-cap")
      for command in ("gram", "train")],
    refusal(["predict", "--model", "mc-cap.model", "--in", "deep.txt"], 3, MC_CAP,
            id="predict-mc-cap"),
    refusal(partial(mc_pn, "a", "b", 2, 10_000_001, AB, 0), CapExceededError, MC_CAP,
            id="mc_pn-n2-m10000001"),
    # 185 sampled tables pass a cap of 185, and the counter is next
    refusal(partial(agreement_matrix, ("a", "b"), 2, AB, sample=(185, 0)), CapExceededError,
            MC_CAP, 184, id="agreement_matrix-m185-cap184"),
    refusal(partial(agreement_matrix, ("a", "b"), 2, AB, sample=(185, 0)), Tripwire,
            "_sliced_agreement_counts", 185, id="agreement_matrix-m185-cap185"),
    # Monte Carlo paper scaling past the float range, first refused at
    # n = 76 over two symbols
    refusal(["kernel", "--mode", "mc", "--scaling", "paper", "--nmax", "80", "ab" * 40,
             "ba" * 40], 3, FLOAT_RANGE, id="kernel-mc-paper"),
    *[refusal([command, "--dataset", "long.tsv", "--mode", "mc", "--scaling", "paper",
               "--nmax", "76", "--out", "out"], 3, FLOAT_RANGE, id=f"{command}-mc-paper")
      for command in ("gram", "train")],
    refusal(["predict", "--model", "paper.model", "--in", "long-first.txt"], 3, FLOAT_RANGE,
            id="predict-mc-paper"),
    refusal(["predict", "--model", "paper.model", "--in", "long-second.txt"], 3, FLOAT_RANGE,
            id="predict-mc-paper-second-chunk"),
    # bad input: every query is validated first, and a bad one named by its line
    refusal(["kernel", "a", "c"], 2, "symbol 'c' at position 0 is not in alphabet 'ab'",
            id="kernel-bad-symbol"),
    refusal(["predict", "--model", "exact.model", "--in", "bad-2.txt"], 2,
            "line 2: symbol 'c' at position 1", id="predict-bad-line"),
    *[refusal(["predict", "--model", f"{mode}.model", "--in", "bad-262.txt"], 2,
              "line 262: symbol 'c' at position 2", id=f"predict-bad-line-second-chunk-{mode}")
      for mode in ("exact", "mc")],
    refusal(["predict", "--model", "none.model", "--in", "deep.txt"], 2,
            "No such file or directory: 'none.model'", id="predict-missing-model"),
    refusal(["sample", "--states", "0", "--out", "dfas"], 2, "state count must be >= 1, got 0",
            id="sample-zero-states"),
    refusal(["sample", "--states", "2", "--count", "0", "--out", "dfas"], 2,
            "count must be >= 1, got 0", id="sample-zero-count"),
    # the CLI's own checks
    refusal(["train", "--dataset", "short.tsv", "--epochs", "0", "--out", "out"], 2,
            "max_epochs must be >= 1", id="train-zero-epochs"),
    *[refusal([command, "--dataset", "short.tsv", "--out", out], 2, f"{error}: '{out}'",
              id=f"{command}-out-{case}")
      for command in ("gram", "train")
      for case, out, error in (("missing-parent", "missing/out", "No such file or directory"),
                               ("parent-is-a-file", "file/out", "Not a directory"),
                               ("is-a-directory", "dir.csv", "Is a directory"))],
    # a CSV without its sidecar could not be replayed
    refusal(["gram", "--dataset", "short.tsv", "--out", "side.csv"], 2,
            "Is a directory: 'side.csv.meta.json'", id="gram-sidecar-is-a-directory"),
]


@pytest.mark.parametrize("run, expect, pattern, cap", REFUSALS)
def test_refused_before_any_work(tmp_path, capsys, monkeypatch, run, expect, pattern, cap):
    # every kernel value, Gram and prediction reaches the counter, and every
    # sample the draw: work begun before the refusal trips a wire
    from regkernel import count, kernel, stream

    # tables cached by an earlier test would hide an eager build
    count._accessible_blocks.cache_clear()
    for module, name in ((stream, "draw_table_block"), (count, "accessible_tables"),
                         (count, "_sliced_agreement_counts"), (kernel, "_value_constants")):
        monkeypatch.setattr(module, name, partial(trip, name))
    if cap is not None:
        monkeypatch.setattr("regkernel.automata.TABLE_CAP", cap)
    if callable(run):
        with pytest.raises(expect, match=pattern):
            run()
        return
    for name, text in REFUSAL_FILES.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, *run)
    assert (code, stdout) == (expect, ""), stderr
    assert re.search(pattern, stderr), stderr
    # no --out file, sidecar, model or sample directory is left
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == sorted(REFUSAL_FILES)


# ---------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------

def test_sample_writes_deterministic_files(tmp_path, capsys):
    out = tmp_path / "dfas"
    code, stdout, stderr = run_cli(
        capsys, "sample", "--states", "2", "--alphabet", "ab",
        "--count", "3", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    paths = stdout.splitlines()
    assert len(paths) == 3
    first = [Path(p).read_text() for p in paths]
    for text in first:
        parse_dfa(text)  # every file is a valid automaton document

    code, stdout, _ = run_cli(
        capsys, "sample", "--states", "2", "--alphabet", "ab",
        "--count", "3", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert [Path(p).read_text() for p in stdout.splitlines()] == first


def test_sample_different_seeds_differ(tmp_path, capsys):
    # equality is permitted in principle, but 3 x 2-state draws colliding
    # across seeds would be a 1-in-millions event
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        code, stdout, _ = run_cli(
            capsys, "sample", "--states", "2", "--count", "3",
            "--seed", seed, "--out", str(out),
        )
        assert code == 0
        texts.append("".join(Path(p).read_text() for p in stdout.splitlines()))
    assert texts[0] != texts[1]


@pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
def test_sample_seed_must_fit_in_64_bits(tmp_path, capsys, seed, code):
    # 2**64 would replay seed 0 under the stream's 64-bit mask
    out = tmp_path / "dfas"
    got, stdout, stderr = run_cli(
        capsys, "sample", "--states", "2", "--seed", str(seed), "--out", str(out),
    )
    assert got == code
    if code:
        assert "seed must be in [0, 2**64)" in stderr
        assert stdout == "" and not out.exists()
    else:
        assert len(list(out.iterdir())) == 1


@pytest.mark.parametrize("block", [16, None])
def test_sample_writes_the_tables_the_kernel_counts(tmp_path, capsys, ab, monkeypatch, block):
    # with 16-table blocks, 40 DFAs cross two block boundaries
    from regkernel import count, stream

    if block is not None:
        monkeypatch.setattr(stream, "_BLOCK_SAMPLES", block)
    m = 40
    pairs = [("ab", "ba"), ("aab", "b"), ("", "abba"), ("abab", "baba")]
    for seed in (0, 7, 2**64 - 1):
        out = tmp_path / f"{block}-{seed}"
        code, stdout, _ = run_cli(
            capsys, "sample", "--states", "3", "--count", str(m), "--seed", str(seed),
            "--out", str(out),
        )
        assert code == 0
        dfas = [parse_dfa(Path(p).read_text()) for p in stdout.splitlines()]
        assert len(dfas) == m
        for x, y in pairs:
            agree = sum(d.run(x) == d.run(y) for d in dfas)
            counted = count.agreement_matrix((x, y), 3, ab, sample=(m, seed))[0][1]
            assert agree == counted, (seed, x, y)


def test_sample_prints_resolved_seed_when_omitted(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "sample", "--states", "1", "--count", "1",
        "--out", str(tmp_path / "y"),
    )
    assert code == 0
    config = json.loads(stderr.splitlines()[0].removeprefix("config "))
    assert isinstance(config["seed"], int)


# ---------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------

def test_kernel_exact_examples(capsys):
    code, stdout, _ = run_cli(
        capsys, "kernel", "--mode", "exact", "--scaling", "paper",
        "--nmax", "1", "--alphabet", "ab", "--seed", "0", "a", "b",
    )
    assert code == 0
    assert stdout.strip() == "1"

    # the sum stops at min(|x|, |y|) = 1 even though nmax allows 2
    code, stdout, _ = run_cli(
        capsys, "kernel", "--mode", "exact", "--scaling", "paper",
        "--nmax", "2", "--alphabet", "ab", "--seed", "0", "a", "a",
    )
    assert code == 0
    assert stdout.strip() == "2"

    code, stdout, _ = run_cli(
        capsys, "kernel", "--mode", "exact", "--scaling", "paper",
        "--nmax", "2", "--alphabet", "ab", "--seed", "0", "ab", "ab",
    )
    assert code == 0
    assert stdout.strip() == "34"


def test_kernel_mc_prints_certificate(capsys):
    code, stdout, _ = run_cli(
        capsys, "kernel", "--mode", "mc", "--eps", "0.1", "--delta", "0.05",
        "--nmax", "2", "--alphabet", "ab", "--seed", "5", "ab", "ba",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert "samples_per_term=185" in lines[1]
    assert "bound=hoeffding-per-entry" in lines[1]
    assert "master_seed=5" in lines[1]
    # no term is sampled for an empty string, so no certificate is printed,
    # even for an epsilon whose m the table cap would refuse at n_used >= 1
    for x, y, eps in (("", "", "1e-9"), ("", "ab", "0.1")):
        code, stdout, _ = run_cli(capsys, "kernel", "--mode", "mc", "--eps", eps, x, y)
        assert code == 0
        assert stdout.splitlines() == ["1" if x == y else "0"]


# ---------------------------------------------------------------------
# gram / train / predict
# ---------------------------------------------------------------------

def test_gram_rerun_is_byte_identical(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=2)
    out = tmp_path / "parity.csv"
    args = (
        "gram", "--dataset", str(dataset), "--mode", "exact", "--nmax", "2",
        "--seed", "3", "--out", str(out),
    )
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first_csv = out.read_bytes()
    meta_path = tmp_path / "parity.csv.meta.json"
    first_meta = meta_path.read_bytes()
    assert json.loads(first_meta)["params"]["master_seed"] == 3

    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.read_bytes() == first_csv
    assert meta_path.read_bytes() == first_meta

    header = first_csv.decode().splitlines()[0]
    assert header == ",".join(f"s{i}" for i in range(7))


def test_exact_runs_without_a_seed_write_the_same_bytes(tmp_path, capsys, parity, ab):
    # no exact value reads the master seed, so an exact run that omits it
    # records 0; a Monte Carlo run still samples one
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=2)
    seeds = []
    for mode, command, out in (("exact", "gram", "1.csv"), ("exact", "gram", "2.csv"),
                               ("exact", "train", "1.model"), ("exact", "train", "2.model"),
                               ("mc", "gram", "mc1.csv"), ("mc", "gram", "mc2.csv")):
        code, _, stderr = run_cli(capsys, command, "--dataset", str(dataset), "--mode", mode,
                                  "--nmax", "2", "--out", str(tmp_path / out))
        assert code == 0, stderr
        seeds.append(json.loads(stderr.splitlines()[0].removeprefix("config "))["master_seed"])
    assert seeds[:4] == [0] * 4
    # two equal 63-bit draws would be a 1-in-2**63 event
    assert seeds[4] != seeds[5]
    for first, second in (("1.csv.meta.json", "2.csv.meta.json"), ("1.model", "2.model")):
        assert (tmp_path / first).read_bytes() == (tmp_path / second).read_bytes()


def test_train_and_predict_round_trip(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=4)
    model_path = tmp_path / "parity.model"
    code, stdout, _ = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "exact",
        "--nmax", "3", "--epochs", "200", "--seed", "0", "--out", str(model_path),
    )
    assert code == 0
    assert "training_errors 0" in stdout
    epoch_lines = [l for l in stdout.splitlines() if l.startswith("epoch ")]
    assert len(epoch_lines) <= 50

    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("aa\na\n\nabab\n", encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(model_path), "--in", str(strings_file),
    )
    assert code == 0
    assert stdout.splitlines() == ["+1", "-1", "+1", "+1"]


def test_gram_and_train_take_the_alphabet_from_the_dataset(tmp_path, capsys):
    dataset = tmp_path / "abc.tsv"
    dataset.write_text("# alphabet abc\n+1\t\n-1\ta\n-1\tbc\n+1\tcab\n", encoding="utf-8")
    gram_csv = tmp_path / "g.csv"
    for command, out in (("gram", gram_csv), ("train", tmp_path / "m.model")):
        code, _, stderr = run_cli(capsys, command, "--dataset", str(dataset), "--nmax", "2",
                                  "--seed", "0", "--out", str(out))
        assert code == 0, stderr
        config = json.loads(stderr.splitlines()[0].removeprefix("config "))
        assert config["alphabet"] == "abc"
        assert "jobs" not in config
        assert out.exists()
    # kernel and sample, whose inputs name no alphabet, still take --alphabet
    code, stdout, _ = run_cli(capsys, "kernel", "--alphabet", "abc", "--nmax", "2",
                              "--seed", "0", "bc", "cab")
    assert code == 0
    assert stdout.splitlines()[0] == gram_csv.read_text().splitlines()[3].split(",")[3]
    code, stdout, _ = run_cli(capsys, "sample", "--states", "2", "--alphabet", "abc",
                              "--seed", "0", "--out", str(tmp_path / "dfas"))
    assert code == 0
    assert parse_dfa(Path(stdout.strip()).read_text()).alphabet.text == "abc"


@pytest.mark.parametrize("command", ["gram", "train"])
@pytest.mark.parametrize("flag", [("--alphabet", "ab"), ("--jobs", "2")], ids=["alphabet", "jobs"])
def test_gram_and_train_refuse_alphabet_and_jobs(tmp_path, capsys, parity, ab, command, flag):
    dataset = write_parity_dataset(tmp_path, parity, ab)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([command, "--dataset", str(dataset), *flag, "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert not out.exists()


def test_predict_encodes_each_query_once(tmp_path, capsys, parity, ab, monkeypatch):
    # the block's plan validates each query as it encodes it for the trie
    from regkernel.automata import Alphabet

    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=2)
    model_path = tmp_path / "parity.model"
    code, _, _ = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "exact",
        "--nmax", "2", "--seed", "0", "--out", str(model_path),
    )
    assert code == 0
    queries = [s for s in enumerate_strings(ab, 4) if len(s) >= 3]  # none in the support
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("\n".join(queries) + "\n", encoding="utf-8")
    encoded = []
    real = Alphabet.encode

    def counting(self, x):
        encoded.append(x)
        return real(self, x)

    monkeypatch.setattr(Alphabet, "encode", counting)
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(model_path), "--in", str(strings_file),
    )
    assert code == 0
    assert len(stdout.splitlines()) == len(queries)
    assert [encoded.count(q) for q in queries] == [1] * len(queries)


def count_sample_draws(monkeypatch):
    """Record the state count of every draw_table_block call."""
    from regkernel import stream

    drawn = []
    real = stream.draw_table_block

    def counting(n, k, master_seed, block, size):
        drawn.append(n)
        return real(n, k, master_seed, block, size)

    monkeypatch.setattr(stream, "draw_table_block", counting)
    return drawn


def test_predict_draws_one_sample_per_n(tmp_path, capsys, parity, ab, monkeypatch):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=4)
    model_path = tmp_path / "mc.model"
    code, _, _ = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "mc", "--nmax", "3",
        "--seed", "8", "--out", str(model_path),
    )
    assert code == 0
    model = load_model(model_path)
    assert len(model.support) > 1
    queries = [s for s in enumerate_strings(ab, 6) if len(s) >= 5]
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("\n".join(queries) + "\n", encoding="utf-8")
    expected = ["+1" if predict(model, x) > 0 else "-1" for x in queries[:4]]

    drawn = count_sample_draws(monkeypatch)
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(model_path), "--in", str(strings_file),
    )
    assert code == 0
    assert drawn == [1, 2, 3]
    labels = stdout.splitlines()
    assert len(labels) == len(queries) == 96
    assert labels[:4] == expected


def test_predict_edge_cases(tmp_path, capsys, parity, ab, monkeypatch):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    models = {"trained": tmp_path / "mc.model", "empty": tmp_path / "empty.model"}
    code, _, _ = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "mc", "--nmax", "3",
        "--seed", "8", "--out", str(models["trained"]),
    )
    assert code == 0
    trained = load_model(models["trained"])
    save_model(PerceptronModel(support=(), params=trained.params, epochs_run=1,
                               errors_per_epoch=(0,)), models["empty"])
    queries = ["ab", "", "ba", "abab"]
    strings_file = tmp_path / "strings.txt"
    empty_file = tmp_path / "none.txt"
    strings_file.write_text("\n".join(queries) + "\n", encoding="utf-8")
    empty_file.write_text("", encoding="utf-8")
    drawn = count_sample_draws(monkeypatch)

    # an empty support labels everything -1 without drawing a sample
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(models["empty"]), "--in", str(strings_file),
    )
    assert code == 0
    assert stdout.splitlines() == ["-1"] * 4
    assert drawn == []

    # an empty query file prints no labels
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(models["trained"]), "--in", str(empty_file),
    )
    assert code == 0
    assert stdout == ""
    assert drawn == []

    # the empty line is scored like any other query
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(models["trained"]), "--in", str(strings_file),
    )
    assert code == 0
    assert stdout.splitlines() == [
        "+1" if predict(trained, x) > 0 else "-1" for x in queries
    ]


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------

def test_verify_psd_suite(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "psd")
    assert code == 0
    rows = [l.split("\t") for l in stdout.splitlines()]
    assert all(row[1] == "PASS" for row in rows)
    assert any("eigenvalue" in row[2] for row in rows)


@pytest.mark.parametrize("matrix", [
    [[1, 2], [2, 1]],  # second minor -3
    [[0, 0], [0, 1]],  # first minor 0
    [[1, 0], [3, 1]],  # minors 1 and 1, but x = (1, -1) gives x'Mx = -1
], ids=["negative-minor", "zero-minor", "asymmetric"])
def test_positive_definite_check_rejects_literals(matrix):
    from regkernel import verify

    assert not verify._positive_definite(matrix)


def test_verify_psd_rejects_a_corrupted_gram(monkeypatch):
    # corrupting the pair (0, 19) leaves the first 19 leading minors as
    # they were, so only the last one can see that [[1, 35], [35, 34]] is
    # an indefinite principal submatrix
    from regkernel import verify

    real = verify.gram_matrix

    def corrupted(strings, params):
        gram = real(strings, params)
        values = [list(row) for row in gram.values]
        values[0][-1] = values[-1][0] = values[0][0] + values[-1][-1]
        return GramMatrix(gram.strings, params, tuple(map(tuple, values)))

    monkeypatch.setattr(verify, "gram_matrix", corrupted)
    assert not verify.suite_psd()[0].passed


def test_verify_concentration_suite(capsys):
    # every row is a deterministic function of seeds 0..999, so the table is
    # pinned whole: a change to how the suite counts its samples shows here
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "concentration")
    assert code == 0
    assert stdout == (
        "concentration.budget_4427\tPASS\trequired_samples(0.1, 0.05) = 4427\n"
        "concentration.budget_6358\tPASS\trequired_samples(0.1, 0.01) = 6358\n"
        "concentration.eps0.1_delta0.05\tPASS\thit rate 1.0000 >= 0.94 at m=4427\n"
        "concentration.eps0.1_delta0.01\tPASS\tfailure rate 0.0000 <= 0.0195 at m=6358\n"
        "concentration.hoeffding.eps0.1_delta0.05\tPASS\thit rate 1.0000 >= 0.94 at m=185\n"
        "concentration.hoeffding.eps0.1_delta0.01\tPASS\thit rate 1.0000 >= 0.94 at m=265\n"
        "concentration.hoeffding_agreement.eps0.1_delta0.05\tPASS\t"
        "|A/m - 1/2| > 0.1 on 0.0030 <= 0.0712 of seeds at m=185\n"
        "concentration.hoeffding_agreement.eps0.1_delta0.01\tPASS\t"
        "|A/m - 1/2| > 0.1 on 0.0020 <= 0.0195 of seeds at m=265\n"
        "concentration.unbiased\tPASS\tmean 0.37524 vs exact 0.37500, tolerance 0.00158\n"
        "summary\tPASS\t9/9 checks passed\n"
    )


def test_verify_bounds_checks_the_runtime_counter(monkeypatch):
    from regkernel import verify

    names = {c.name: c.passed for c in verify.suite_bounds(n_values=(1, 2), max_len=3)}
    assert names["bounds.runtime.n1"] and names["bounds.runtime.n2"]

    real = verify.agreement_matrix

    def off_by_one(rows, n, alphabet, cols=None, sample=None):
        counts = real(rows, n, alphabet, cols, sample)
        counts[0][-1] += n == 2
        return counts

    monkeypatch.setattr(verify, "agreement_matrix", off_by_one)
    names = {c.name: c.passed for c in verify.suite_bounds(n_values=(1, 2), max_len=3)}
    assert names["bounds.runtime.n1"] and not names["bounds.runtime.n2"]
    assert names["bounds.two_path.n2"]


def test_verify_bounds_checks_the_closed_form_against_enumeration(monkeypatch):
    from regkernel import verify

    real = verify.joint_accept_count_grid

    def off_by_one(strings, n, alphabet):
        counts = real(strings, n, alphabet)
        counts[0][-1] += n == 2
        return counts

    monkeypatch.setattr(verify, "joint_accept_count_grid", off_by_one)
    names = {c.name: c.passed for c in verify.suite_bounds(n_values=(1, 2), max_len=3)}
    assert names["bounds.two_path.n1"] and not names["bounds.two_path.n2"]
    assert names["bounds.runtime.n2"] and names["bounds.half_accept.n2"]


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_config_line_is_replayable_json(capsys):
    code, _, stderr = run_cli(
        capsys, "kernel", "--alphabet", "ab", "--seed", "12", "a", "b",
    )
    assert code == 0
    config = json.loads(stderr.splitlines()[0].removeprefix("config "))
    assert config["master_seed"] == 12
    assert config["mode"] == "exact"
    assert config["command"] == "kernel"


# ---------------------------------------------------------------------
# format versions
# ---------------------------------------------------------------------

def test_gram_monte_carlo_rerun_is_byte_identical_v4(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    out = tmp_path / "mc.csv"
    meta_path = tmp_path / "mc.csv.meta.json"
    args = (
        "gram", "--dataset", str(dataset), "--mode", "mc", "--nmax", "3",
        "--seed", "9", "--out", str(out),
    )
    outputs = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        outputs.append((out.read_bytes(), meta_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["format"] == "regkernel gram v4"

    code, _, _ = run_cli(capsys, "gram", "--dataset", str(dataset), "--mode", "exact",
                         "--nmax", "2", "--out", str(out))
    assert code == 0
    assert json.loads(meta_path.read_bytes())["format"] == "regkernel gram v1"


def test_monte_carlo_model_v1_is_refused(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("aa\nab\n", encoding="utf-8")
    models = {}
    for mode in ("exact", "mc"):
        models[mode] = tmp_path / f"{mode}.model"
        code, _, _ = run_cli(
            capsys, "train", "--dataset", str(dataset), "--mode", mode, "--nmax", "2",
            "--seed", "4", "--out", str(models[mode]),
        )
        assert code == 0
    assert models["exact"].read_text().startswith("model v1\n")
    mc_text = models["mc"].read_text()
    assert mc_text.startswith("model v4\n")
    code, stdout, _ = run_cli(
        capsys, "predict", "--model", str(models["mc"]), "--in", str(strings_file),
    )
    assert code == 0 and len(stdout.splitlines()) == 2

    # the older Monte Carlo formats were scored by other estimators or streams
    for old in ("model v1", "model v2", "model v3"):
        models["mc"].write_text(mc_text.replace("model v4", old, 1), encoding="utf-8")
        code, stdout, stderr = run_cli(
            capsys, "predict", "--model", str(models["mc"]), "--in", str(strings_file),
        )
        assert code == 2
        assert stdout == ""
        assert "retrain" in stderr


def test_predict_refuses_non_finite_model_numbers(tmp_path, capsys):
    def model(header, mode, weights, support):
        params = json.dumps({"alphabet": "ab", "epsilon": 0.1, "failure_prob": 0.05,
                             "master_seed": 1, "mode": mode, "n_max": 2,
                             "scaling": "normalized", "weights": weights})
        meta = f'{{"epochs_run": 1, "errors_per_epoch": [0], "params": {params}}}'
        return f"{header}\nmeta {meta}\n{support}"

    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\nba\n", encoding="utf-8")
    texts = (
        model("model v4", "monte-carlo", [float("nan"), 1.0], "1\tab\n"),
        model("model v1", "exact", [float("inf"), 1.0], "1\tab\n"),
        model("model v1", "exact", None, "nan\tab\n1\tba\n"),
    )
    for text in texts:
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "predict", "--model", str(path),
                                       "--in", str(strings_file))
        assert (code, stdout) == (2, ""), text
        assert "Traceback" not in stderr


@pytest.mark.parametrize("field, value", [("n_max", 2.5), ("master_seed", 7.9)])
def test_predict_refuses_a_model_whose_integers_are_floats(tmp_path, capsys, ab, field, value):
    # a float is refused, not truncated to the integer below it
    params = json.dumps({**KernelParams(alphabet=ab, n_max=2).to_dict(), field: value})
    path = tmp_path / "float.model"
    path.write_text(f'model v1\nmeta {{"epochs_run": 1, "errors_per_epoch": [0], '
                    f'"params": {params}}}\n1\tab\n', encoding="utf-8")
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\nba\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "predict", "--model", str(path),
                                   "--in", str(strings_file))
    assert (code, stdout) == (2, "")
    assert "integers" in stderr


def test_predict_refuses_weights_whose_values_pass_the_float_range(tmp_path, capsys):
    # K(aab, aab) = 1 + 1.5 * 1.7e308 would pass the float range: the model's
    # parameters are refused, in either mode, before any label is printed
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\naab\n", encoding="utf-8")
    for header, mode in (("model v1", "exact"), ("model v4", "monte-carlo")):
        params = json.dumps({"alphabet": "ab", "epsilon": 0.1, "failure_prob": 0.05,
                             "master_seed": 1, "mode": mode, "n_max": 3,
                             "scaling": "normalized", "weights": [1.7e308] * 3})
        path = tmp_path / "big.model"
        path.write_text(f'{header}\nmeta {{"epochs_run": 1, "errors_per_epoch": [0], '
                        f'"params": {params}}}\n1\taab\n', encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "predict", "--model", str(path),
                                       "--in", str(strings_file))
        assert (code, stdout) == (2, ""), mode
        assert "float range" in stderr


def test_predict_names_a_support_string_outside_the_alphabet(tmp_path, capsys, ab):
    params = json.dumps(KernelParams(alphabet=ab, n_max=2).to_dict())
    path = tmp_path / "bad.model"
    path.write_text(f'model v1\nmeta {{"epochs_run": 1, "errors_per_epoch": [0], '
                    f'"params": {params}}}\n1\tab\n-1\tac\n', encoding="utf-8")
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\nba\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "predict", "--model", str(path),
                                   "--in", str(strings_file))
    assert (code, stdout) == (2, "")
    assert "support string 'ac': symbol 'c' at position 1" in stderr


def test_predict_names_the_model_line_of_a_bad_support_string(tmp_path, capsys, ab):
    params = json.dumps(KernelParams(alphabet=ab, n_max=2).to_dict())
    path = tmp_path / "bad.model"
    path.write_text(f'model v1\nmeta {{"epochs_run": 1, "errors_per_epoch": [0], '
                    f'"params": {params}}}\n1\tab\n-1\tac\n', encoding="utf-8")
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\nba\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "predict", "--model", str(path),
                                   "--in", str(strings_file))
    assert (code, stdout) == (2, "")
    assert stderr.splitlines()[-1] == ("error: line 4: support string 'ac': "
                                       "symbol 'c' at position 1 is not in alphabet 'ab'")


# ---------------------------------------------------------------------
# cold start: each test runs in a fresh interpreter
# ---------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_env():
    """The environment of a fresh interpreter that imports from src/."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


def run_fresh(*argv, cwd=None):
    """``python *argv`` in a fresh interpreter that imports from src/."""
    return subprocess.run([sys.executable, *argv], env=fresh_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# Prefixed to each run's code: at exit, after the console entry's
# gc.freeze() and sys.exit(), the names in sys.modules are printed as the
# last line of stderr.
REPORT = """import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
"""
# what ``python -m regkernel.cli *sys.argv[1:]`` runs: the console entry
CONSOLE = 'runpy.run_module("regkernel.cli", run_name="__main__", alter_sys=True)'

PACKAGE = {f"regkernel.{p.stem}" for p in (SRC / "regkernel").glob("*.py")} - {
    "regkernel.__init__"}
# no run loads a worker pool, scipy (a test dependency) or secrets (with
# hmac: an omitted seed comes from random.SystemRandom)
NEVER = {"concurrent.futures", "scipy", "secrets"}
# records are plain classes and values integer ratios, so dataclasses
# (inspect) and fractions (decimal) would only slow a command's start, as
# numpy would; only verify loads fractions, with the embedding and its
# suites, and no command loads dataclasses or inspect
MONTE_CARLO = NEVER | {"numpy", "dataclasses", "inspect", "fractions", "decimal",
                       "regkernel.embedding", "regkernel.verify"}
# hashlib is the Monte Carlo stream's, for SHAKE-256
EXACT = MONTE_CARLO | {"hashlib"}
# importing the package, building the parser or printing --help
COLD = EXACT | PACKAGE


def kernel_commands(mode, flags):
    """The four kernel commands of one mode, run in the table's directory."""
    return {
        "kernel": ["kernel", *flags, "abab", "abba"],
        "gram": ["gram", "--dataset", "parity.tsv", *flags, "--out", f"{mode}.csv"],
        "train": ["train", "--dataset", "parity.tsv", *flags, "--out", f"{mode}-trained.model"],
        "predict": ["predict", "--model", f"{mode}.model", "--in", "queries.txt"],
    }


# Each row runs in a fresh interpreter, in the directory of the cold_start
# fixture, and must exit 0: its code, or the console entry with its argv.
# It must load the modules of ``loads``, none of ``never`` that a bare
# interpreter has not loaded, and print ``prints`` to stdout.
MODULE_LOADS = [
    pytest.param("import regkernel", {"regkernel"}, COLD, "", id="import"),
    pytest.param("import regkernel.cli as c; c.build_parser()", {"regkernel.cli"},
                 COLD - {"regkernel.cli"}, "", id="build_parser"),
    # the console entry runs cli as __main__, never as regkernel.cli
    pytest.param(["--help"], {"regkernel"}, COLD, "", id="help"),
    *[pytest.param(argv, {"regkernel.count"}, EXACT, "", id=f"{command}-exact")
      for command, argv in kernel_commands("exact", ["--nmax", "3"]).items()],
    pytest.param(["sample", "--states", "2", "--count", "2", "--seed", "3", "--out", "dfas"],
                 {"regkernel.stream", "hashlib"},
                 MONTE_CARLO | {"regkernel.count", "regkernel.kernel"},
                 "dfas/dfa_0000.dfa\ndfas/dfa_0001.dfa\n", id="sample"),
    *[pytest.param(argv, {"regkernel.count", "hashlib"}, MONTE_CARLO, "", id=f"{command}-mc")
      for command, argv in kernel_commands(
          "monte-carlo", ["--mode", "mc", "--nmax", "3", "--seed", "0"]).items()],
    pytest.param(["verify", "--suite", "concentration"], {"regkernel.verify"},
                 NEVER | {"numpy", "dataclasses", "inspect"}, "", id="verify-concentration"),
    # the concept embedding reads tables, and the oracle holds them as ints
    pytest.param(["verify", "--suite", "embedding"], {"regkernel.embedding"},
                 NEVER | {"numpy", "dataclasses", "inspect"}, "embedding.recovery\tPASS",
                 id="verify-embedding"),
    pytest.param(["verify", "--suite", "bounds"], {"regkernel.verify"},
                 NEVER | {"numpy", "dataclasses", "inspect"}, "bounds.two_path.n3\tPASS",
                 id="verify-bounds"),
    pytest.param(["verify", "--suite", "psd"], {"regkernel.verify"},
                 NEVER | {"numpy", "dataclasses", "inspect"}, "psd.min_eigenvalue\tPASS",
                 id="verify-psd"),
]


def fresh_modules(code, *args, cwd=None):
    """The finished run of ``code`` with ``args`` in a fresh interpreter,
    and the names in its sys.modules at exit."""
    result = run_fresh("-c", REPORT + code, *args, cwd=cwd)
    return result, set(json.loads(result.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare_modules():
    return fresh_modules("")[1]


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """A directory with the files the table's commands read: a parity
    dataset, three queries, and an exact and a Monte Carlo model."""
    path = tmp_path_factory.mktemp("cold_start")
    ab = Alphabet(("a", "b"))
    write_parity_dataset(path, Dfa(n=2, alphabet=ab, table=((1, 1), (0, 0)),
                                   accepting=frozenset({0})), ab)
    (path / "queries.txt").write_text("aa\nab\naba\n", encoding="utf-8")
    for mode in ("exact", "monte-carlo"):
        save_model(PerceptronModel(support=(("ab", 1), ("a", -1)),
                                   params=KernelParams(alphabet=ab, n_max=3, mode=mode),
                                   epochs_run=1, errors_per_epoch=(0,)), path / f"{mode}.model")
    return path


@pytest.mark.parametrize("run, loads, never, prints", MODULE_LOADS)
def test_module_loads(cold_start, bare_modules, run, loads, never, prints):
    code, args = (run, []) if isinstance(run, str) else (CONSOLE, run)
    result, loaded = fresh_modules(code, *args, cwd=cold_start)
    assert result.returncode == 0, result.stderr
    assert loads <= loaded, loads - loaded
    assert not (never - bare_modules) & loaded, (never - bare_modules) & loaded
    assert prints in result.stdout


def test_only_the_console_entry_freezes_the_heap_at_exit():
    # the freeze spares the exit-time collections of a finished process; an
    # atexit hook runs after it, and main() run in process never freezes
    code = """import atexit, gc, runpy, sys
atexit.register(lambda: print("freeze_count", gc.get_freeze_count()))
sys.argv[1:] = ["kernel", "--nmax", "2", "--seed", "0", "ab", "ba"]
runpy.run_module("regkernel.cli", run_name="__main__", alter_sys=True)
"""
    result = run_fresh("-c", code)
    assert result.returncode == 0, result.stderr
    *_, report = result.stdout.splitlines()
    assert report.startswith("freeze_count ") and int(report.split()[1]) > 0
    assert main(["kernel", "--nmax", "2", "--seed", "0", "ab", "ba"]) == 0
    assert gc.get_freeze_count() == 0


def test_fresh_monte_carlo_gram_rerun_is_byte_identical(tmp_path, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    out = tmp_path / "mc.csv"
    outputs = []
    for _ in range(2):
        result = run_fresh("-m", "regkernel.cli", "gram", "--dataset", str(dataset),
                           "--mode", "mc", "--nmax", "3", "--seed", "9", "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append((out.read_bytes(), (tmp_path / "mc.csv.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_predict_into_a_closed_pipe_exits_1_quietly(tmp_path, ab):
    # ``predict ... | head -1``: the reader closes stdout after one line.
    # 150 KB of labels fill more than a pipe and the reader's buffer, so
    # predict still has labels to write once the pipe is closed.
    model = tmp_path / "m.model"
    save_model(PerceptronModel(support=(("ab", 1),), params=KernelParams(alphabet=ab, n_max=1),
                               epochs_run=1, errors_per_epoch=(0,)), model)
    queries = tmp_path / "queries.txt"
    queries.write_text("ab\n" * 50_000, encoding="utf-8")
    argv = [sys.executable, "-m", "regkernel.cli", "predict", "--model", str(model),
            "--in", str(queries)]
    with subprocess.Popen(argv, env=fresh_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"+1\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    # no traceback, no "error:" and no "Exception ignored": the config line alone
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config "), stderr

