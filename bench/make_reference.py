"""Write reference/seed0.json: every seed-0 result document of every workload.

    python3 bench/make_reference.py

Run it only when a change to gapsieve is meant to change a document, and say
so where the change is described; run.py compares seed-0 runs against it.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    reference = {}
    for name in WORKLOADS:
        workload = workloads.build(name, 0)
        state: dict = {}
        reference[name] = [{"op": op.name, "doc": json.loads(op.run(state))} for op in workload.ops]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
