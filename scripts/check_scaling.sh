#!/usr/bin/env bash
# Crawl scaling and memory gate.
#
#   usage: check_scaling.sh path/to/worker_age path/to/repro
#
# 1. Worker age: runs the `worker_age` example of origin-bench
#    (crates/bench/examples/worker_age.rs). It loads the same pages on
#    a crawl worker that has made about 11,500 visits and on a fresh
#    one, over one dataset, and fails when the old worker is more than
#    1.25x slower. Dataset size and page mix cancel out of that ratio,
#    so it does not depend on the runner's caches. A pool whose clear
#    walked every key it had ever seen measured 3.1; a per-visit clear
#    measures about 1.0.
# 2. Memory: runs `repro --sites 50000 --threads 1 --only t1` once and
#    fails when the child's peak resident set (getrusage ru_maxrss of
#    that process alone) exceeds 170 MB. That ceiling sits about 1.3x
#    above the peak measured on a 2-core x86-64 Linux machine
#    (133 MB), most of it the dataset and the per-site samples the
#    crawl keeps for its figures. Per-worker interners that grew with
#    the run put the same run at 183 MB.
#
# Requires python3 (for the child's ru_maxrss).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 path/to/worker_age path/to/repro" >&2
    exit 2
fi

"$1"

exec python3 - "$2" <<'EOF'
import os
import subprocess
import sys

SITES = 50000
CEILING_MB = 170

args = [sys.argv[1], "--sites", str(SITES), "--threads", "1", "--only", "t1"]
child = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
code = os.waitstatus_to_exitcode(status)
if code != 0:
    sys.exit(f"FAIL: {' '.join(args)} exited {code}")
# Linux reports ru_maxrss in KiB.
rss = usage.ru_maxrss / 1024
print(f"memory gate: {SITES} ranks, peak RSS {rss:.1f} MB (ceiling {CEILING_MB} MB)")
if rss > CEILING_MB:
    sys.exit(f"FAIL: peak RSS {rss:.1f} MB at {SITES} ranks exceeds {CEILING_MB} MB: some state grows with the crawl.")
EOF
