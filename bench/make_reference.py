"""Write the exact-gram reference Gram matrix from the enumeration oracle.

The ``exact-gram`` workload checks every Gram entry the CLI prints against
this file.  The values come from ``joint_accept_count_grid``, which walks
every (transition table, accepting set) pair and so shares no code with the
closed-form path the CLI uses.  The inputs are exhaustive, so the file does
not depend on any seed; regenerate it only if the workload's inputs change:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from regkernel import Alphabet  # noqa: E402
from regkernel.kernel import joint_accept_count_grid  # noqa: E402

from workloads import EXACT_GRAM, REFERENCE_PATH  # noqa: E402


def main() -> None:
    strings = EXACT_GRAM.train_strings()
    n_max = EXACT_GRAM.n_max
    alphabet = Alphabet(tuple("ab"))
    grids = {n: joint_accept_count_grid(strings, n, alphabet) for n in range(1, n_max + 1)}
    values = []
    for i, x in enumerate(strings):
        row = []
        for j, y in enumerate(strings):
            total = 1 if i == j else 0
            for n in range(1, min(len(x), len(y), n_max) + 1):
                total += int(grids[n][i, j])
            row.append(total)
        values.append(row)
    doc = {"n_max": n_max, "scaling": "paper", "strings": strings, "values": values}
    REFERENCE_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(REFERENCE_PATH)


if __name__ == "__main__":
    main()
