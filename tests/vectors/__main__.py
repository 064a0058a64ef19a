"""``python -m tests.vectors [--regenerate]``: report moved vectors; rewrite the file.

Computes every case on the array engine's exchange, prints the ids
whose digest differs from ``vectors.json`` (and ids added or dropped),
and exits 1 if any did.  ``--regenerate`` writes the new digests
instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from tests.vectors import VECTORS_PATH, load_vectors
from tests.vectors.cases import CASES
from tests.vectors.handlers import compute


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.vectors", description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite vectors.json with the new digests",
    )
    args = parser.parse_args(argv)
    old = load_vectors() if VECTORS_PATH.exists() else {}
    new = {case_id: compute(case) for case_id, case in sorted(CASES.items())}
    moved = sorted(
        case_id for case_id in old.keys() | new.keys() if old.get(case_id) != new.get(case_id)
    )
    for case_id in moved:
        state = "added" if case_id not in old else "dropped" if case_id not in new else "moved"
        print(f"{state}: {case_id}")
    if args.regenerate:
        VECTORS_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(new)} vectors, {len(moved)} changed")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
