#!/usr/bin/env python3
"""Check perfbench's virtual outputs against the recorded digests.

    python3 tools/check_perfbench_digests.py

Run from the repository root. For each workload of EXPECTED it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

passes perfbench's own output through, and reads the
"virtual-output digest:" line. It exits non-zero when a run fails its
own checks, prints no digest, or prints a digest other than the
recorded one. Stdlib only.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = "virtual-output digest:"

# Seed-1 virtual-output digests. The digest hashes every virtual output
# of a workload (latencies, counters, memory), so it depends neither on
# the host nor on --seconds. A change that means to move virtual outputs
# updates these and says why.
EXPECTED = {
    "sfork-burst": "872dc3b445feeef5",
    "fleet-flash": "c8d9852b3263a5f5",
    "fleet-stateful": "4d084d31c9ccbc62",
}


def main():
    failures = []
    for workload, want in EXPECTED.items():
        result = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(result.stdout)
        got = None
        for line in result.stdout.splitlines():
            if line.startswith(PREFIX):
                got = line[len(PREFIX):].strip()
        if result.returncode != 0:
            failures.append("%s: perfbench exited %d"
                            % (workload, result.returncode))
        elif got != want:
            failures.append("%s: digest %s, expected %s"
                            % (workload, got, want))
        else:
            print("digest ok: %s %s" % (workload, got))
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
