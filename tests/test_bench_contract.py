"""The benchmark's calls into the package still resolve.

The scripts under bench/ import regkernel and call it directly.  A name
they use that the package no longer has makes the traced run exit 1.  A
keyword they pass that a function no longer takes fails more quietly:
bench/layers.py asks ``inspect.signature(rk.gram_matrix)`` for ``jobs``
and skips the timing when it is gone, so ``kernel.gram_s.mc.jobs2`` is
silently missing from the traced result.  The scripts are parsed with
``ast`` rather than searched with a regex, so a metric name in a string
such as ``"cli.import_s"`` is not mistaken for an attribute.  The
exact-gram workload's reference file is checked against the enumeration
oracle that wrote it.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import regkernel as rk
from regkernel.automata import joint_accept_count_grid

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _from_import(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule, e.g. cli


def _uses():
    """(file, line, what, object or None, keywords passed to it) for every
    regkernel name the bench scripts reference."""
    uses = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {}  # local name -> regkernel module or object
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "regkernel" and a.asname:
                        bound[a.asname] = importlib.import_module(a.name)
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "regkernel"):
                for a in node.names:
                    try:
                        obj = _from_import(node.module, a.name)
                    except (ImportError, AttributeError):
                        obj = None
                    uses.append((path.name, node.lineno, f"{node.module}.{a.name}", obj, ()))
                    if obj is not None:
                        bound[a.asname or a.name] = obj

        def resolve(node):
            if isinstance(node, ast.Name) and node.id in bound:
                return node.id, bound[node.id]
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and inspect.ismodule(bound.get(node.value.id))):
                return f"{node.value.id}.{node.attr}", getattr(bound[node.value.id], node.attr, None)
            return None

        for node in ast.walk(tree):
            found = resolve(node) if isinstance(node, ast.Attribute) else None
            if found:
                uses.append((path.name, node.lineno, *found, ()))
            if isinstance(node, ast.Call):
                keywords = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
                for target in (node.func, *node.args):
                    found = resolve(target)
                    if found and found[1] is not None and keywords:
                        uses.append((path.name, node.lineno, *found, keywords))
    return uses


def test_bench_names_resolve():
    uses = _uses()
    assert any(what == "rk.gram_matrix" for _, _, what, _, _ in uses)
    missing = [f"{f}:{line} {what}" for f, line, what, obj, _ in uses if obj is None]
    assert not missing, missing


def test_bench_keywords_in_signature():
    checked = []
    bad = []
    for f, line, what, obj, keywords in _uses():
        if not keywords or obj is None:
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for kw in keywords:
            checked.append((what, kw))
            if kw not in params:
                bad.append(f"{f}:{line} {what}(..., {kw}=...)")
    assert ("rk.gram_matrix", "jobs") in checked
    assert not bad, bad


def test_bench_reads_of_a_monte_carlo_kernel_value_resolve():
    # bench/layers.py multiplies mc_kv.n_used by
    # mc_kv.certificate.samples_per_term, where mc_kv is a Monte Carlo
    # rk.kernel_value result; a renamed attribute would end the traced run
    tree = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id == "mc_kv":
            chains.add(tuple(reversed(attrs)))
    assert {("n_used",), ("certificate", "samples_per_term")} <= chains
    params = rk.KernelParams(alphabet=rk.Alphabet(tuple("ab")), n_max=3, mode="monte-carlo",
                             scaling="normalized", epsilon=0.05, failure_prob=0.01,
                             master_seed=1)
    mc_kv = rk.kernel_value("ababa", "abbaa", params)
    for chain in chains:
        obj = mc_kv
        for attr in chain:
            obj = getattr(obj, attr)
    assert mc_kv.n_used == 3
    assert isinstance(mc_kv.certificate.samples_per_term, int)
    assert mc_kv.certificate.samples_per_term > 0


def test_exact_gram_reference_is_the_oracle_gram():
    # the reference the exact-gram workload checks every Gram entry
    # against, rebuilt from its own strings and n_max as
    # bench/make_reference.py builds it: 1 on the diagonal plus K_n of
    # every n up to the shorter string's length
    doc = json.loads((BENCH / "data" / "exact_gram_reference.json").read_text(encoding="utf-8"))
    strings = doc["strings"]
    grids = [joint_accept_count_grid(strings, n, rk.Alphabet(tuple("ab")))
             for n in range(1, doc["n_max"] + 1)]
    assert doc["scaling"] == "paper"
    assert doc["values"] == [
        [int(i == j) + sum(grid[i][j] for grid in grids[: min(len(x), len(y))])
         for j, y in enumerate(strings)] for i, x in enumerate(strings)]
