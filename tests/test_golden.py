"""Golden outputs: fixed-seed CLI artifacts must not drift across commits.

A small dataset goes through ``gram``, ``train`` and ``predict`` in all four
(mode, scaling) combinations.  The sha256 of each artifact was recorded once
and is pinned here, so any change to a value, its formatting, the sidecar or
the model format fails this test.  The stdout of ``verify --suite bounds`` is
pinned the same way.  A change that alters output on purpose records new
digests and says so.
"""

import hashlib

import pytest

from regkernel import cli

STRINGS = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "aba", "bbb"]
QUERIES = ["abab", "bba", "aaaa", "babb", "b", "abbab", "aaaaa", "ba"]
SEED = 20261018

GOLDEN = {
    ("exact", "paper"): {
        "gram.csv": "f126888f38f4f365504847e3909daf43321a5dd358eb1afd956ec539e97bf197",
        "gram.csv.meta.json": "cdeca727d9514c8c63c33d4ebb159ff7d5944fe3b4a85641559b980ebe5d8578",
        "train.stdout": "fb98f611dca71c6a35ff2dddccbf3f342dab5b66447f3aa0eee57514b874775f",
        "model": "03661a7ac2759983931315cbdd1644e826ca76043fe01a054469cf95292254c9",
        "predict.stdout": "646628053b51f5f81ddc37fe71c1b30105b6d82682347c5df0bbdd64c41d9b74",
    },
    ("exact", "normalized"): {
        "gram.csv": "525e60a618ec94d8065cba1bddbb00628a443a0f921aa7be7d68243e887045f5",
        "gram.csv.meta.json": "c9985cc2292376d37138075028fb270b0d481ec34fd4bc944d6a81c14abbc2f4",
        "train.stdout": "77d3137552b0486982fd23d980583dda640d61b4dcdac6f06919b71930982720",
        "model": "9677e04a476f50e0e31092a13568262ff3102743b87f79e279b5458d8cfe337e",
        "predict.stdout": "87a5e77c66ccb12c61f10fbd195d1ec09b6d955786da9a55896b229e30bdcbaf",
    },
    ("monte-carlo", "paper"): {
        "gram.csv": "6d507b66b2326a2cfbaa75cbc74301f3bc8ed46221275962ae54ae51c2d6ad4e",
        "gram.csv.meta.json": "62cb4b34d9cd331446320686925a3e0ea4cae1dd878364b0614fa27a754dcabb",
        "train.stdout": "fb98f611dca71c6a35ff2dddccbf3f342dab5b66447f3aa0eee57514b874775f",
        "model": "d785c295a1d2ef0f84f318c901a77c6001c7208a1470d86b22f61a7aadf9440f",
        "predict.stdout": "646628053b51f5f81ddc37fe71c1b30105b6d82682347c5df0bbdd64c41d9b74",
    },
    ("monte-carlo", "normalized"): {
        "gram.csv": "c2a81e4dfb80c42d41e33886a67cfe805264a05030ac903f41fba7bd89d6eb26",
        "gram.csv.meta.json": "77f162b030d6a829692284712bf138f4476f5c8fe013dd2f955444be06603b32",
        "train.stdout": "b1f02db7b38ae2d12225f1c5ad5b57e6cdae86b9858320771eba04e5e609df21",
        "model": "64da31d45d8134cd55e4dd480f4918c50b6e4573113afd801e458d235c864718",
        "predict.stdout": "646628053b51f5f81ddc37fe71c1b30105b6d82682347c5df0bbdd64c41d9b74",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode,scaling", sorted(GOLDEN))
def test_fixed_seed_artifacts_match_golden(mode, scaling, tmp_path, capsys):
    dataset = tmp_path / "train.tsv"
    dataset.write_text(
        "# alphabet ab\n"
        + "".join(f"{'+1' if len(s) % 2 == 0 else '-1'}\t{s}\n" for s in STRINGS),
        encoding="utf-8",
    )
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(QUERIES) + "\n", encoding="utf-8")
    kernel_flags = ["--mode", mode, "--scaling", scaling, "--nmax", "3",
                    "--eps", "0.2", "--delta", "0.1", "--seed", str(SEED)]
    gram, model = tmp_path / "gram.csv", tmp_path / "model"

    assert cli.main(["gram", *kernel_flags, "--dataset", str(dataset), "--out", str(gram)]) == 0
    capsys.readouterr()
    assert cli.main(["train", *kernel_flags, "--dataset", str(dataset),
                     "--out", str(model)]) == 0
    train_stdout = capsys.readouterr().out
    assert cli.main(["predict", "--model", str(model), "--in", str(queries)]) == 0
    predict_stdout = capsys.readouterr().out

    got = {
        "gram.csv": sha256(gram.read_text(encoding="utf-8")),
        "gram.csv.meta.json": sha256((tmp_path / "gram.csv.meta.json").read_text(encoding="utf-8")),
        "train.stdout": sha256(train_stdout),
        "model": sha256(model.read_text(encoding="utf-8")),
        "predict.stdout": sha256(predict_stdout),
    }
    assert got == GOLDEN[mode, scaling]


VERIFY_BOUNDS_STDOUT = "066d5a917bbf47707a2ff8d709e0b8a039bc966c3b7366a66dba50f823c7edfc"


def test_verify_bounds_stdout_matches_golden(capsys):
    assert cli.main(["verify", "--suite", "bounds"]) == 0
    assert sha256(capsys.readouterr().out) == VERIFY_BOUNDS_STDOUT
