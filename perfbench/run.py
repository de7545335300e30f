"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(``bench.py``) started with ``setsid``, so it and everything it starts —
the fleet's forkserver, resource tracker and workers — share one process
group.  The child writes its result to a file (a pipe would stay open as
long as any process of the group holds it); this parent prints it as the
last line of its standard output, and owns process hygiene:

* SIGTERM/SIGINT are forwarded to the group; after a grace period the
  group is killed;
* past ``DEADLINE_S`` the group is killed and no result is printed;
* after the child exits, no process of the group may remain: leftovers
  are killed, reported on stderr, and the run's result is marked incorrect.

The child's temporary files (multiprocessing sockets) and traced-run span
files go to ``.perfbench/`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0
GRACE_S = 10.0


def group_members(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid`` (read from /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def stop_group(pgid: int, grace: float) -> None:
    """SIGTERM the group, SIGKILL what is left after ``grace`` seconds, and
    wait until none of it runs."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, None)):
        if not group_members(pgid):
            return
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        limit = time.monotonic() + (wait if wait is not None else 1e9)
        while group_members(pgid) and time.monotonic() < limit:
            time.sleep(0.05)


def reap_group(pgid: int, grace: float) -> List[int]:
    """Give the group ``grace`` seconds to exit on its own, then stop what
    is left.  Returns the pids that had to be stopped."""
    limit = time.monotonic() + grace
    while group_members(pgid) and time.monotonic() < limit:
        time.sleep(0.05)
    leftover = group_members(pgid)
    stop_group(pgid, grace)
    return leftover


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Flash reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"result-{os.getpid()}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    # The hash seed follows --seed, so one seed repeats a run exactly and
    # a set of seeds covers several string-hash orders.
    env = dict(os.environ, TMPDIR=tmp, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED=str(args.seed % 2**32))
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path,
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    pgid = child.pid
    interrupted: List[int] = []

    def on_signal(signum, frame):
        interrupted.append(signum)
        stop_group(pgid, GRACE_S)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        stop_group(pgid, GRACE_S)
        child.wait()
        print(f"run exceeded {DEADLINE_S:.0f} s; stopped", file=sys.stderr)
        return 1
    finally:
        leftover = reap_group(pgid, GRACE_S)
        shutil.rmtree(os.path.join(OUT_DIR, "mp"), ignore_errors=True)
        if leftover:
            print(f"processes left running after the run: {leftover}", file=sys.stderr)
    if interrupted:
        return 128 + interrupted[0]
    if child.returncode != 0 or not os.path.exists(result_path):
        print(f"benchmark child exited with {child.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    os.remove(result_path)
    if leftover:
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
