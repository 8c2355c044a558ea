import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regkernel import label_strings, enumerate_strings, parse_dfa
from regkernel.cli import main
from regkernel.learner import dataset_to_text


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
    assert "samples_per_term=4427" in lines[1]
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


def test_predict_missing_model_exit_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "predict", "--model", str(tmp_path / "none.model"),
        "--in", str(tmp_path / "none.txt"),
    )
    assert code == 2


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
