"""Write ``digests.json``: the expected output digest of every request.

Run from the repository root after a change that is meant to alter outputs::

    python3 perfbench/make_digests.py

Every request any seed can produce (full and smoke sizes) is sent once; a
request whose output fails an independent reference check aborts the run,
so the table never records a wrong answer.
"""

from __future__ import annotations

import json
import sys
import time

from run import DIGESTS, Runner, prepare_imports
from workloads import WORKLOADS, all_requests


def main() -> int:
    prepare_imports()
    runner = Runner(None)
    table: dict[str, list] = {}
    for workload in WORKLOADS:
        for smoke in (True, False):
            requests = [r for r in all_requests(workload, smoke) if r.key not in table]
            start = time.perf_counter()
            for req in requests:
                outcome = runner.run(req)
                if outcome.error is not None:
                    print(f"FAILED {req.key}: {outcome.error}", file=sys.stderr)
                    return 1
                table[req.key] = [outcome.digest, outcome.checks]
            print(f"{workload}{' (smoke)' if smoke else ''}: {len(requests)} requests "
                  f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items())]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
