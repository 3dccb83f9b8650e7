"""Regenerate expected.json: the outputs the benchmark checks against.

Run on a commit whose outputs are known to be correct:

    python3 perfbench/record_expected.py

For cli-corpus it records the exit code and report hash of every command
line in both renderings.  For the other workloads it records facts that
depend neither on the seed nor on the basis, from the un-rebased
inputs.
"""

from __future__ import annotations

import json
import os
import sys

from worker import ROOT, import_hopfex


def main() -> int:
    os.chdir(ROOT)  # corpus command lines name files relative to the root
    import_hopfex()
    import workloads

    ops = {
        "cli-corpus": [workloads.cli_op(argv + flag)
                       for argv in workloads.cli_argvs(ROOT)
                       for flag in ([], ["--json"])],
        "coradical": workloads.build_coradical(0, ROOT, rebased=False),
        "extend": workloads.build_extend(0, ROOT),
        "hopf-powers": workloads.build_hopf_powers(0, ROOT),
    }
    expected = {}
    bad = 0
    for name, wl_ops in ops.items():
        facts = {}
        for op in wl_ops:
            result = op.run()
            for problem in op.verify(result):
                print(f"{name}: {op.name}: {problem}", file=sys.stderr)
                bad += 1
            if op.key is not None:
                facts[op.key] = op.facts(result)
        expected[name] = facts
        print(f"{name}: {len(facts)} expectations", file=sys.stderr)
    if bad:
        print("not written: the outputs above fail their own checks",
              file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
