import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regkernel import KernelParams, label_strings, enumerate_strings, parse_dfa
from regkernel.cli import main
from regkernel.learner import PerceptronModel, dataset_to_text, load_model, predict, save_model


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


def test_sample_zero_states_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "sample", "--states", "0", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "state count" in stderr


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
    from regkernel import kernel

    if block is not None:
        monkeypatch.setattr(kernel, "_BLOCK_SAMPLES", block)
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
            assert agree == kernel.mc_agreement_counts((x, y), 3, m, ab, seed)[0][1], (seed, x, y)


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


def test_kernel_cap_exit_3(capsys):
    code, _, stderr = run_cli(
        capsys, "kernel", "--mode", "exact", "--nmax", "9", "--alphabet", "ab",
        "--seed", "0", "aaaaaaaaa", "aaaaaaaaa",
    )
    assert code == 3
    assert "monte-carlo" in stderr


def test_kernel_bad_symbol_exit_2(capsys):
    code, _, stderr = run_cli(
        capsys, "kernel", "--alphabet", "ab", "--seed", "0", "a", "c",
    )
    assert code == 2
    assert "not in alphabet" in stderr


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


def test_train_alphabet_mismatch_exit_2(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab)
    code, _, stderr = run_cli(
        capsys, "train", "--dataset", str(dataset), "--alphabet", "abc",
        "--seed", "0", "--out", str(tmp_path / "m"),
    )
    assert code == 2
    assert "alphabet" in stderr


def test_gram_alphabet_mismatch_exit_2(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab)
    code, stdout, stderr = run_cli(
        capsys, "gram", "--dataset", str(dataset), "--alphabet", "abc",
        "--seed", "0", "--out", str(tmp_path / "g.csv"),
    )
    assert (code, stdout) == (2, "")
    assert "dataset alphabet 'ab' does not match --alphabet 'abc'" in stderr
    assert not (tmp_path / "g.csv").exists()


def test_predict_validates_all_lines_before_output(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=2)
    model_path = tmp_path / "parity.model"
    code, _, _ = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "exact",
        "--nmax", "2", "--seed", "0", "--out", str(model_path),
    )
    assert code == 0
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("ab\nacb\nba\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "predict", "--model", str(model_path), "--in", str(strings_file),
    )
    assert code == 2
    assert stdout == ""
    assert "'c'" in stderr and "line 2" in stderr


def test_predict_encodes_each_query_twice(tmp_path, capsys, parity, ab, monkeypatch):
    # once to validate it and once for the block's trie plan
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
    assert [encoded.count(q) for q in queries] == [2] * len(queries)


def test_predict_missing_model_exit_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "predict", "--model", str(tmp_path / "none.model"),
        "--in", str(tmp_path / "none.txt"),
    )
    assert code == 2


def count_sample_draws(monkeypatch):
    """Record the state count of every draw_table_block call."""
    from regkernel import kernel

    drawn = []
    real = kernel.draw_table_block

    def counting(n, k, master_seed, block, size):
        drawn.append(n)
        return real(n, k, master_seed, block, size)

    monkeypatch.setattr(kernel, "draw_table_block", counting)
    return drawn


def test_predict_exact_cap_exits_3_before_any_label(tmp_path, capsys, ab):
    # the first two queries are cheap; the third needs n = 6, 6**12 tables
    model_path = tmp_path / "big.model"
    save_model(PerceptronModel(
        support=(("aaaaaa", 1),), params=KernelParams(alphabet=ab, n_max=6),
        epochs_run=1, errors_per_epoch=(0,),
    ), model_path)
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text("a\nab\naaaaaa\nb\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "predict", "--model", str(model_path), "--in", str(strings_file),
    )
    assert code == 3
    assert stdout == ""
    assert "transition tables" in stderr


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


def test_verify_embedding_suite(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "embedding")
    assert code == 0
    assert "embedding.recovery\tPASS" in stdout


def test_verify_bounds_checks_the_runtime_counter(monkeypatch):
    from regkernel import verify

    names = {c.name: c.passed for c in verify.suite_bounds(n_values=(1, 2), max_len=3)}
    assert names["bounds.runtime.n1"] and names["bounds.runtime.n2"]

    real = verify.exhaustive_agreement_counts

    def off_by_one(rows, n, alphabet, cols=None):
        counts = real(rows, n, alphabet, cols)
        counts[0][-1] += n == 2
        return counts

    monkeypatch.setattr(verify, "exhaustive_agreement_counts", off_by_one)
    names = {c.name: c.passed for c in verify.suite_bounds(n_values=(1, 2), max_len=3)}
    assert names["bounds.runtime.n1"] and not names["bounds.runtime.n2"]
    assert names["bounds.two_path.n2"]


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


def test_cli_start_does_not_import_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; import regkernel.cli as c; c.build_parser(); "
        "sys.exit(1 if 'scipy' in sys.modules else 0)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0, "importing the CLI loaded scipy"


# ---------------------------------------------------------------------
# format versions and --jobs
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


def test_gram_jobs_zero_exit_2(tmp_path, capsys, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=2)
    code, stdout, stderr = run_cli(
        capsys, "gram", "--dataset", str(dataset), "--jobs", "0",
        "--out", str(tmp_path / "g.csv"),
    )
    assert code == 2
    assert stdout == ""
    assert "jobs" in stderr
    assert not (tmp_path / "g.csv").exists()


def test_train_epochs_zero_exits_2_before_any_kernel_work(tmp_path, capsys, parity, ab,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel work started before --epochs was checked")

    monkeypatch.setattr("regkernel.cli.gram_matrix", refuse)
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    model_path = tmp_path / "m.model"
    code, stdout, stderr = run_cli(
        capsys, "train", "--dataset", str(dataset), "--mode", "exact", "--nmax", "3",
        "--epochs", "0", "--out", str(model_path),
    )
    assert code == 2
    assert stdout == ""
    assert "max_epochs must be >= 1" in stderr
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["gram", "train"])
def test_unwritable_out_exits_2_before_any_kernel_work(tmp_path, capsys, parity, ab,
                                                      monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel work started before --out was checked")

    monkeypatch.setattr("regkernel.cli.gram_matrix", refuse)
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for out, message in ((tmp_path / "missing" / "g.csv", "No such file or directory"),
                         (blocker / "g.csv", "Not a directory"),
                         (tmp_path, "Is a directory")):
        code, stdout, stderr = run_cli(
            capsys, command, "--dataset", str(dataset), "--mode", "exact",
            "--nmax", "3", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert message in stderr and str(out) in stderr


def test_gram_unwritable_sidecar_exits_2_before_any_kernel_work(tmp_path, capsys, parity,
                                                                 ab, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel work started before the sidecar path was checked")

    monkeypatch.setattr("regkernel.cli.gram_matrix", refuse)
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    out = tmp_path / "side" / "g.csv"
    meta = tmp_path / "side" / "g.csv.meta.json"
    meta.mkdir(parents=True)
    code, stdout, stderr = run_cli(
        capsys, "gram", "--dataset", str(dataset), "--mode", "exact", "--nmax", "3",
        "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert "Is a directory" in stderr and str(meta) in stderr
    # no CSV is left without a sidecar to replay it
    assert not out.exists()


# ---------------------------------------------------------------------
# cold start: each test runs in a fresh interpreter
# ---------------------------------------------------------------------

def run_fresh(*argv, cwd=None):
    """``python *argv`` in a fresh interpreter that imports from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


LOADED = "print(json.dumps([m for m in ('numpy', 'concurrent.futures') if m in sys.modules]))"


@pytest.mark.parametrize("setup", ["import regkernel",
                                   "import regkernel.cli as c; c.build_parser()"])
def test_import_loads_neither_numpy_nor_thread_pool(setup):
    result = run_fresh("-c", f"import json, sys; {setup}; {LOADED}")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_exact_commands_never_load_numpy(tmp_path, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    queries = tmp_path / "queries.txt"
    queries.write_text("aa\nab\naba\n", encoding="utf-8")
    model = tmp_path / "m.model"
    runs = [
        ["kernel", "--mode", "exact", "--nmax", "3", "--seed", "0", "abab", "abba"],
        ["gram", "--dataset", str(dataset), "--nmax", "3", "--seed", "0",
         "--out", str(tmp_path / "g.csv")],
        ["train", "--dataset", str(dataset), "--nmax", "3", "--seed", "0",
         "--out", str(model)],
        ["predict", "--model", str(model), "--in", str(queries)],
    ]
    code = ("import json, sys; from regkernel.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            f"print(json.dumps(codes)); {LOADED}")
    result = run_fresh("-c", code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    *_, codes, loaded = result.stdout.splitlines()
    assert json.loads(codes) == [0, 0, 0, 0]
    assert json.loads(loaded) == []


def test_monte_carlo_commands_never_load_numpy(tmp_path, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    queries = tmp_path / "queries.txt"
    queries.write_text("aa\nab\naba\n", encoding="utf-8")
    model = tmp_path / "m.model"
    flags = ["--mode", "mc", "--nmax", "3", "--seed", "0"]
    runs = [
        ["sample", "--states", "3", "--count", "2", "--seed", "0",
         "--out", str(tmp_path / "dfas")],
        ["kernel", *flags, "abab", "abba"],
        ["gram", "--dataset", str(dataset), *flags, "--out", str(tmp_path / "g.csv")],
        ["train", "--dataset", str(dataset), *flags, "--out", str(model)],
        ["predict", "--model", str(model), "--in", str(queries)],
    ]
    code = ("import json, sys; from regkernel.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            f"print(json.dumps(codes)); {LOADED}")
    result = run_fresh("-c", code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    *_, codes, loaded = result.stdout.splitlines()
    assert json.loads(codes) == [0, 0, 0, 0, 0]
    assert json.loads(loaded) == []
    assert model.read_text(encoding="utf-8").startswith("model v4\n")


def test_fresh_exact_gram_jobs_2_equals_jobs_1(tmp_path, parity, ab):
    dataset = write_parity_dataset(tmp_path, parity, ab, max_len=3)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        result = run_fresh("-m", "regkernel.cli", "gram", "--dataset", str(dataset),
                           "--mode", "exact", "--scaling", "normalized", "--nmax", "3",
                           "--seed", "0", "--jobs", jobs, "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


def test_fresh_sample_and_verify_psd_exit_0(tmp_path):
    result = run_fresh("-m", "regkernel.cli", "sample", "--states", "2", "--count", "2",
                       "--seed", "3", "--out", str(tmp_path / "dfas"))
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 2
    result = run_fresh("-m", "regkernel.cli", "verify", "--suite", "psd")
    assert result.returncode == 0, result.stderr
    assert "psd.min_eigenvalue\tPASS" in result.stdout
