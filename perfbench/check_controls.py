"""Negative controls: show that the benchmark's checks catch faults.

    python3 perfbench/check_controls.py [--workload direct] [--seconds 3]

Runs run.py once clean and once per `--control`.  The clean run must
report no failures; each control run must report at least one failed
operation and `"correct": false`.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
CONTROLS = ("corrupt-witness", "flip-verdict", "kill")


def result(workload: str, seconds: str, control=None) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "7",
            "--seconds", seconds, "--trace", "0"]
    if control:
        argv += ["--control", control]
    done = subprocess.run(argv, cwd=os.path.dirname(HERE), capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="direct")
    p.add_argument("--seconds", default="3")
    args = p.parse_args()
    ok = True
    for control in (None,) + CONTROLS:
        res = result(args.workload, args.seconds, control)
        ratio = res["failed"] / res["attempted"]
        expected = (res["failed"] == 0 and res["correct"]) if control is None else (
            res["failed"] > 0 and not res["correct"])
        ok &= expected
        print(f"{control or 'clean':16s} failed_ratio {ratio:.4f} "
              f"({res['failed']} of {res['attempted']})  {'ok' if expected else 'UNEXPECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
