"""Write the reference outputs that ``run.py`` checks against.

    python3 benchmarks/record_reference.py [--workload NAME ...] [--variant N ...]

Run it from the root of a checkout. For each workload and input variant
(all of them by default) it runs the command once, as ``run.py`` does,
and stores the digest of its outputs in ``benchmarks/reference.json``.
Record only from a commit whose outputs are known to be right: every
later run is held to these values.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--variant", action="append", type=int)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)

    reference = {}
    if os.path.isfile(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            reference = json.load(fh)
    for name in args.workload or sorted(run.WORKLOADS):
        for variant in args.variant or range(run.VARIANTS):
            work = os.path.join(run.WORK_ROOT, "reference-%s-%d" % (name, variant))
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                workload = run.WORKLOADS[name](work, variant)
                out = os.path.join(work, "out")
                os.makedirs(out)
                result = run.spawn("run", workload.argv(out), work, 0)
                if result is None or result["rc"] != 0:
                    sys.exit("%s variant %d failed" % (name, variant))
                digest, problems = workload.digest(out, result)
                if problems:
                    sys.exit("%s variant %d: %s" % (name, variant, "; ".join(problems)))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference.setdefault(name, {})[str(variant)] = digest
            print("%s variant %d: %.2f s" % (name, variant, result["work_s"]), flush=True)
            with open(run.REFERENCE, "w") as fh:
                json.dump(reference, fh, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
