"""The package's modules import one another without a cycle: ``count`` and
``stream`` never come to depend on ``kernel``.  Imports inside functions
count; imports under ``if TYPE_CHECKING:`` do not, since they never run.
No module imports ``concurrent.futures``: the counters are pure Python and
hold the GIL, so a thread pool only adds scheduling to the same work.  And
only ``count.block_counts`` reaches the private counter: no function goes
round it, or round the table cap that its callers check first."""

import ast
from pathlib import Path

import regkernel

PACKAGE = Path(regkernel.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imported_modules(source: str) -> set[str]:
    """The dotted module names that ``source`` imports when it runs.
    ``from x import y`` gives x and x.y, since y may be a submodule; a
    relative import gives the package module's bare name."""
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            nodes = node.orelse
        else:
            nodes = ast.iter_child_nodes(node)
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .m import x, and from . import m
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.add(node.module)
                found.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                found.update(a.name for a in node.names)
        for child in nodes:
            visit(child)

    visit(ast.parse(source))
    return found


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports when it runs."""
    return ({name.removeprefix("regkernel.").split(".")[0] for name in imported_modules(source)}
            & set(MODULES))


def import_graph() -> dict[str, set[str]]:
    return {m: package_imports((PACKAGE / f"{m}.py").read_text(encoding="utf-8"))
            for m in MODULES}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of the graph as a path that ends where it starts,
    or None."""
    done: set[str] = set()

    def walk(module, path):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        for target in sorted(graph[module]):
            cycle = walk(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = walk(module, [])
        if cycle:
            return cycle
    return None


def test_no_import_cycle_between_package_modules():
    graph = import_graph()
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))
    # the graph is read, not empty: module-level and function-level edges
    assert {"count", "stream"} <= graph["kernel"]
    assert graph["count"] == {"automata", "stream"}
    assert graph["stream"] == {"automata"}
    assert {"kernel", "learner", "stream", "verify"} <= graph["cli"]


def test_cycle_guard_reads_every_kind_of_import():
    source = """
from typing import TYPE_CHECKING
import regkernel.automata
from . import stream
from regkernel import learner

if TYPE_CHECKING:
    from .kernel import KernelParams
else:
    from .verify import Check


def f():
    from .embedding import phi
"""
    assert package_imports(source) == {"automata", "embedding", "learner", "stream", "verify"}
    assert find_cycle({"count": {"stream"}, "stream": set()}) is None
    assert find_cycle({"count": {"stream"}, "stream": {"kernel"}, "kernel": {"count"}}) == [
        "count", "stream", "kernel", "count"]


def test_no_module_imports_a_worker_pool():
    pools = {}
    for m in MODULES:
        names = imported_modules((PACKAGE / f"{m}.py").read_text(encoding="utf-8"))
        pools[m] = sorted(n for n in names if n.startswith("concurrent.futures"))
    assert not any(pools.values()), pools
    # the scan sees every spelling, at module level and inside a function
    for source in ("import concurrent.futures", "from concurrent import futures",
                   "def f():\n    from concurrent.futures import ThreadPoolExecutor\n"):
        assert "concurrent.futures" in imported_modules(source), source


# The private counter, and the one function of ``count`` allowed to name
# it: block_counts counts a sample or the accessible tables with it.
COUNTERS = ("_sliced_agreement_counts",)
CHAIN = {"block_counts": {"_sliced_agreement_counts"}}


def counter_references(source: str) -> dict[str, set[str]]:
    """The private counters each top-level function or class of ``source``
    names, called or not, by bare name or as an attribute; code outside
    them counts under "<module>"."""
    found: dict[str, set[str]] = {}
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name in COUNTERS:
                found.setdefault(owner, set()).add(name)
    return found


def side_doors(module: str, source: str) -> dict[str, list[str]]:
    """Every reference to a private counter outside the chain of ``count``."""
    allowed = CHAIN if module == "count" else {}
    return {f"{module}.{owner}": sorted(names - allowed.get(owner, set()))
            for owner, names in counter_references(source).items()
            if names - allowed.get(owner, set())}


def test_only_block_counts_reaches_the_counters():
    found = {}
    for m in MODULES:
        found.update(side_doors(m, (PACKAGE / f"{m}.py").read_text(encoding="utf-8")))
    assert not found, found
    # the scan reads the chain itself
    chain = counter_references((PACKAGE / "count.py").read_text(encoding="utf-8"))
    assert chain == CHAIN


def test_side_door_guard_sees_every_spelling():
    source = """
from functools import partial
from . import count
from .count import _sliced_agreement_counts


def exact(plan, blocks):
    return _sliced_agreement_counts(plan, blocks)


def accessible(plan, blocks):
    return count._sliced_agreement_counts(plan, blocks)


class Counter:
    def count(self, plan):
        return partial(count._sliced_agreement_counts, plan)


LATER = count._sliced_agreement_counts


def block_counts(plan, blocks):
    return _sliced_agreement_counts(plan, blocks)
"""
    owners = ["exact", "accessible", "Counter", "<module>"]
    assert side_doors("kernel", source) == {
        f"kernel.{owner}": ["_sliced_agreement_counts"] for owner in owners + ["block_counts"]}
    # in count, only block_counts may name the counter
    assert side_doors("count", source) == {
        f"count.{owner}": ["_sliced_agreement_counts"] for owner in owners}
