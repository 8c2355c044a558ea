"""Command-line interface.

Commands: sample, kernel, gram, train, predict, verify.  Results go to
stdout, diagnostics to stderr.  Every run prints its fully resolved
configuration (defaults filled in, master seed included) to stderr as a
single ``config {...}`` line so outputs can be replayed exactly.

Exit codes: 0 success, 2 usage or input error, 3 resource cap exceeded,
4 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import secrets
import sys
import time
from pathlib import Path

from .automata import (
    Alphabet,
    CapExceededError,
    ParseError,
    serialize_dfa,
)
from .kernel import (
    KernelParams,
    check_seed,
    format_scalar,
    gram_matrix,
    gram_metadata_json,
    gram_to_csv,
    kernel_value,
    sample_dfas,
)
from .learner import Dataset, decision_values, load_dataset, load_model, save_model, train
from .verify import SUITES

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

MODE_ALIASES = {"exact": "exact", "mc": "monte-carlo", "monte-carlo": "monte-carlo"}
SEED_HELP = "64-bit master seed; sampled and printed when omitted"


def _resolve_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _print_config(command: str, resolved: dict) -> None:
    print(f"config {json.dumps({'command': command, **resolved}, sort_keys=True)}",
          file=sys.stderr)


def _note(args: argparse.Namespace, message: str) -> None:
    if getattr(args, "verbose", 0):
        print(message, file=sys.stderr)


def _kernel_params(args: argparse.Namespace, seed: int) -> KernelParams:
    return KernelParams(
        alphabet=Alphabet(tuple(args.alphabet)),
        n_max=args.nmax,
        mode=MODE_ALIASES[args.mode],
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


def _load_dataset(path: str, alphabet: Alphabet) -> Dataset:
    """The dataset at ``path``, refused unless its alphabet is ``alphabet``."""
    dataset = load_dataset(path)
    if dataset.alphabet != alphabet:
        raise ValueError(
            f"dataset alphabet {dataset.alphabet.text!r} does not match "
            f"--alphabet {alphabet.text!r}"
        )
    return dataset


def _add_kernel_flags(p: argparse.ArgumentParser, scaling_default: str = "paper") -> None:
    p.add_argument("--mode", choices=sorted(MODE_ALIASES), default="exact",
                   help="exact enumeration or monte-carlo estimation")
    p.add_argument("--scaling", choices=("paper", "normalized"), default=scaling_default,
                   help="raw DFA counts or weighted joint-acceptance fractions")
    p.add_argument("--nmax", type=int, default=3, help="cap on automaton size in the sum")
    p.add_argument("--eps", type=float, default=0.1, help="relative accuracy (monte-carlo)")
    p.add_argument("--delta", type=float, default=0.05,
                   help="failure probability (monte-carlo)")
    p.add_argument("--alphabet", default="ab", help="alphabet symbols, concatenated")
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for the exact walk, which runs only when "
                        "n**(n*k) exceeds 2**16 tables; counting the accessible tables and the "
                        "Monte Carlo path run on one thread (results unchanged)")


def cmd_sample(args: argparse.Namespace) -> int:
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
    seed = _resolve_seed(args.seed)
    params = _kernel_params(args, seed)
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
    seed = _resolve_seed(args.seed)
    params = _kernel_params(args, seed)
    dataset = _load_dataset(args.dataset, params.alphabet)
    _check_out_path(args.out)
    out = Path(args.out)
    # a CSV without its sidecar cannot be replayed: check both before the work
    meta = out.with_suffix(out.suffix + ".meta.json")
    _check_out_path(meta)
    _print_config("gram", {**params.to_dict(), "dataset": str(args.dataset),
                           "out": str(args.out), "jobs": args.jobs})
    started = time.perf_counter()
    gram = gram_matrix(dataset.strings, params, jobs=args.jobs)
    count = len(dataset.strings)
    _note(args, f"Gram of {count * (count + 1) // 2} pairs "
                f"in {time.perf_counter() - started:.2f}s")
    out.write_text(gram_to_csv(gram), encoding="utf-8")
    meta.write_text(gram_metadata_json(gram), encoding="utf-8")
    print(out)
    print(meta)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    params = _kernel_params(args, seed)
    dataset = _load_dataset(args.dataset, params.alphabet)
    if args.epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {args.epochs}")
    _check_out_path(args.out)
    _print_config("train", {**params.to_dict(), "dataset": str(args.dataset),
                            "epochs": args.epochs, "out": str(args.out),
                            "jobs": args.jobs})
    started = time.perf_counter()
    gram = gram_matrix(dataset.strings, params, jobs=args.jobs)
    _note(args, f"Gram ready in {time.perf_counter() - started:.2f}s")
    model = train(gram, dataset.labels, args.epochs)
    for epoch, errors in enumerate(model.errors_per_epoch, start=1):
        print(f"epoch {epoch} errors {errors}")
    print(f"training_errors {model.final_errors}")
    save_model(model, args.out)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
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
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="extra diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="write the Monte Carlo kernel's sampled DFAs to a directory")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", default="ab")
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
    _add_kernel_flags(p)
    _add_jobs_flag(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gram)

    # training defaults to normalized scaling: float Gram entries stay
    # bounded however large n_max gets
    p = sub.add_parser("train", help="train a dual perceptron on a dataset")
    _add_kernel_flags(p, scaling_default="normalized")
    _add_jobs_flag(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify strings with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
