#!/usr/bin/env python3
"""Record the sha256 of each timed call's stdout for the default seed.

    python3 perfbench/record_goldens.py

run.py compares each call's stdout with these hashes when --seed is the
default, so any change to the bytes of a default report counts as a failed
call. Record only from a revision whose reports are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

# Cycles recorded per workload: more than a default run measures here.
CYCLES = {"sim-random": 24, "seq-ties": 80, "sweep": 360}


def main() -> int:
    run._add_program_to_path()
    goldens = {}
    for workload, cycles in CYCLES.items():
        workdir = run.OUT / f"goldens-{workload}"
        try:
            gen, runner, cli_main = run.set_up(workload, run.DEFAULT_SEED, workdir)
            hashes = []
            for _ in range(cycles):
                for call in gen.next_cycle():
                    result = runner.invoke(cli_main, call.args)
                    problems = run._checked(call, result, None, cross_check=False)
                    if problems:
                        sys.exit(f"record_goldens: call {call.args} failed its checks: {problems}")
                    hashes.append(hashlib.sha256(result.stdout_bytes).hexdigest())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        goldens[workload] = hashes
        print(f"{workload}: {len(hashes)} calls")
    run.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
