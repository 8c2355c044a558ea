"""Command-line interface.

Commands: sample, kernel, gram, train, predict, verify.  Results go to
stdout, diagnostics to stderr.  Every run prints its fully resolved
configuration (defaults filled in, master seed included) to stderr as a
single ``config {...}`` line so outputs can be replayed exactly.

Exit codes: 0 success, 1 stdout closed before the output was written
(``cmd | head``), 2 usage or input error, 3 resource cap exceeded,
4 verification failure.

``gram`` and ``train`` take the alphabet from their dataset's required
``# alphabet`` header; only ``kernel`` and ``sample``, whose inputs name
none, take ``--alphabet``.

Only what parsing the arguments needs is imported with this module; each
command imports the package modules it runs on entry, so building the
parser (or printing ``--help``) loads no other regkernel module, and no
exact command loads the Monte Carlo stream's hashlib or the verify suites.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .automata import Alphabet
    from .kernel import KernelParams

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

MODE_ALIASES = {"exact": "exact", "mc": "monte-carlo", "monte-carlo": "monte-carlo"}
SEED_HELP = "64-bit master seed; when omitted, Monte Carlo runs sample and print one"
DEFAULT_ALPHABET = "ab"
DATASET_HELP = "labelled strings; the '# alphabet <symbols>' header sets the alphabet"


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    import random

    # the os.urandom draw of secrets.randbits, without importing secrets and hmac
    return random.SystemRandom().getrandbits(63)


def _print_config(command: str, resolved: dict) -> None:
    import json

    print(f"config {json.dumps({'command': command, **resolved}, sort_keys=True)}",
          file=sys.stderr)


def _kernel_params(args: argparse.Namespace, alphabet: Alphabet) -> KernelParams:
    from .kernel import KernelParams

    mode = MODE_ALIASES[args.mode]
    # no exact value reads the seed: an exact run records 0, so that its
    # outputs are the same bytes on every run
    seed = 0 if mode == "exact" and args.seed is None else _resolve_seed(args.seed)
    return KernelParams(
        alphabet=alphabet,
        n_max=args.nmax,
        mode=mode,
        scaling=args.scaling,
        epsilon=args.eps,
        failure_prob=args.delta,
        master_seed=seed,
    )


def _check_out_path(out: str | Path) -> None:
    """Refuse, before any kernel work, an output path that cannot be written
    as a file (its parent is not an existing directory, or it is one), with
    the error that writing it would have raised."""
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(out))


def _add_kernel_flags(p: argparse.ArgumentParser, scaling_default: str = "paper",
                      alphabet_flag: bool = True) -> None:
    p.add_argument("--mode", choices=sorted(MODE_ALIASES), default="exact",
                   help="exact enumeration or monte-carlo estimation")
    p.add_argument("--scaling", choices=("paper", "normalized"), default=scaling_default,
                   help="raw DFA counts or weighted joint-acceptance fractions")
    p.add_argument("--nmax", type=int, default=3, help="cap on automaton size in the sum")
    p.add_argument("--eps", type=float, default=0.1, help="relative accuracy (monte-carlo)")
    p.add_argument("--delta", type=float, default=0.05,
                   help="failure probability (monte-carlo)")
    if alphabet_flag:
        p.add_argument("--alphabet", default=DEFAULT_ALPHABET,
                       help="alphabet symbols, concatenated")
    else:
        # The command reads the alphabet from its dataset.  The parsed
        # namespace still carries the default, because bench/layers.py
        # resolves a gram or train run's KernelParams from parsed arguments
        # alone; ROADMAP item 2 has that script read the dataset instead.
        p.set_defaults(alphabet=DEFAULT_ALPHABET)
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)


def cmd_sample(args: argparse.Namespace) -> int:
    from .automata import Alphabet, serialize_dfa
    from .stream import check_seed, sample_dfas

    seed = _resolve_seed(args.seed)
    check_seed(seed)
    alphabet = Alphabet(tuple(args.alphabet))
    if args.states < 1:
        raise ValueError(f"state count must be >= 1, got {args.states}")
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    _print_config("sample", {
        "states": args.states, "alphabet": alphabet.text, "count": args.count,
        "seed": seed, "out": str(args.out),
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, dfa in enumerate(sample_dfas(args.states, alphabet, seed, args.count)):
        path = out_dir / f"dfa_{i:04d}.dfa"
        path.write_text(serialize_dfa(dfa), encoding="utf-8")
        print(path)
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace) -> int:
    from .automata import Alphabet
    from .kernel import format_scalar, kernel_value

    params = _kernel_params(args, Alphabet(tuple(args.alphabet)))
    _print_config("kernel", {**params.to_dict(), "x": args.x, "y": args.y})
    kv = kernel_value(args.x, args.y, params)
    print(format_scalar(kv.value))
    if kv.certificate is not None:
        c = kv.certificate
        print(
            f"certificate epsilon={c.epsilon} failure_prob={c.failure_prob} "
            f"samples_per_term={c.samples_per_term} bound={c.bound} "
            f"master_seed={c.master_seed} "
            f"n_used={kv.n_used}"
        )
    return EXIT_OK


def cmd_gram(args: argparse.Namespace) -> int:
    from .kernel import gram_matrix, gram_metadata_json, gram_to_csv
    from .learner import load_dataset

    dataset = load_dataset(args.dataset)
    params = _kernel_params(args, dataset.alphabet)
    _check_out_path(args.out)
    out = Path(args.out)
    # a CSV without its sidecar cannot be replayed: check both before the work
    meta = out.with_suffix(out.suffix + ".meta.json")
    _check_out_path(meta)
    _print_config("gram", {**params.to_dict(), "dataset": str(args.dataset),
                           "out": str(args.out)})
    gram = gram_matrix(dataset.strings, params)
    out.write_text(gram_to_csv(gram), encoding="utf-8")
    meta.write_text(gram_metadata_json(gram), encoding="utf-8")
    print(out)
    print(meta)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    from .kernel import gram_matrix
    from .learner import load_dataset, save_model, train

    dataset = load_dataset(args.dataset)
    params = _kernel_params(args, dataset.alphabet)
    if args.epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {args.epochs}")
    _check_out_path(args.out)
    _print_config("train", {**params.to_dict(), "dataset": str(args.dataset),
                            "epochs": args.epochs, "out": str(args.out)})
    gram = gram_matrix(dataset.strings, params)
    model = train(gram, dataset.labels, args.epochs)
    for epoch, errors in enumerate(model.errors_per_epoch, start=1):
        print(f"epoch {epoch} errors {errors}")
    print(f"training_errors {model.final_errors}")
    save_model(model, args.out)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    from .automata import ParseError
    from .learner import decision_values, load_model

    model = load_model(args.model)
    _print_config("predict", {"model": str(args.model), "in": str(args.infile),
                              **model.params.to_dict()})
    lines = Path(args.infile).read_text(encoding="utf-8").splitlines()
    # every value, and so every cap check, comes before the first label;
    # decision_values validates every line first, and a bad one is named
    try:
        values = decision_values(model, lines)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            try:
                model.params.alphabet.encode(line)
            except ValueError as e:
                raise ParseError(str(e), lineno) from e
        raise
    for value in values:
        print("+1" if value > 0 else "-1")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES

    _print_config("verify", {"suite": args.suite})
    checks = SUITES[args.suite]()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}\t{status}\t{check.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(f"summary\t{'PASS' if failed == 0 else 'FAIL'}\t"
          f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regkernel",
        description="DFA-counting string kernels: sampling, evaluation, learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="write the Monte Carlo kernel's sampled DFAs to a directory")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("kernel", help="evaluate the kernel on one string pair")
    _add_kernel_flags(p)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("gram", help="write the Gram matrix of a dataset as CSV")
    _add_kernel_flags(p, alphabet_flag=False)
    p.add_argument("--dataset", required=True, help=DATASET_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gram)

    # training defaults to normalized scaling: float Gram entries stay
    # bounded however large n_max gets
    p = sub.add_parser("train", help="train a dual perceptron on a dataset")
    _add_kernel_flags(p, scaling_default="normalized", alphabet_flag=False)
    p.add_argument("--dataset", required=True, help=DATASET_HELP)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify strings with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run a verification suite")
    # the keys of verify.SUITES, spelled out so that parsing imports no suite
    p.add_argument("--suite", choices=("bounds", "concentration", "embedding", "psd"),
                   required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .automata import CapExceededError, ParseError

    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        raise  # a closed stdout is no input error: entry() ends the run
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The recipe of Python's signal documentation: the streams are
        # flushed again at exit, so stdout is pointed at devnull to keep
        # that from raising too, and the exit code is 1, as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    # At exit the interpreter runs full cyclic collections over every object
    # still alive (the standard library, site's modules, this package), whose
    # memory the OS takes back anyway.  Frozen objects are never collected, so
    # those sweeps are skipped, while atexit handlers, stream flushes and
    # refcount deallocation still run (os._exit would skip them).  main() does
    # not freeze: callers, tests among them, run it in process many times.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
