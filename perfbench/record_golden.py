"""Record the canonical-JSON digests of every result at the default seed.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json.  Run it only when a change to the benchmark
itself changes what an instance computes; a change to the package must
reproduce the recorded digests.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        kind, specs, parsed = run.setup(workload, workloads.DEFAULT_SEED)
        digests = {}
        for spec, inst in zip(specs, parsed):
            out = kind.run(inst)
            problems, _, dig = kind.check(
                inst, out, run.instance_rng(workloads.DEFAULT_SEED, spec["id"])
            )
            if problems:
                print(f"{workload}/{spec['id']}: {problems}", file=sys.stderr)
                return 1
            digests[spec["id"]] = dig
        golden[workload] = digests
        print(f"{workload}: {len(digests)} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
