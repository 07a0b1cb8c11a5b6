"""Write bench/reference/seed1729.json: one pass of every workload at the reference seed.

    python3 bench/make_reference.py

Run it from a monofit checkout at the commit whose outputs are the
reference.  It runs each workload once, refuses to write when a pass fails
its checks, and stores the numbers each workload's ``view`` selects.
"""

import json
import os
import sys

from run import BENCH, ROOT, load_program
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    load_program()
    nproc = len(os.sched_getaffinity(0))
    os.environ["MONOFIT_WORKERS"] = str(nproc)
    reference = {}
    for name, cls in WORKLOADS.items():
        work = ROOT / ".bench_out" / "work" / ("reference-" + name)
        work.mkdir(parents=True, exist_ok=True)
        workload = cls(REFERENCE_SEED, work, nproc)
        workload.prepare()
        workload.clear()
        failed, problems, parsed = workload.evaluate(workload.run_pass())
        if failed:
            raise SystemExit("error: %s failed its checks: %s" % (name, problems))
        reference[name] = workload.view(parsed)
        print("%s: %d values" % (name, sum(len(v) for v in reference[name].values())))
    path = BENCH / "reference" / ("seed%d.json" % REFERENCE_SEED)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
