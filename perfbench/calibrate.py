"""Host-speed calibration that runs alongside a measured sweep.

    python3 perfbench/calibrate.py --cpu C

The benchmark runs on shared VMs whose CPU speed can move by 1.5x over tens
of seconds without showing up as steal time (another tenant's load on the
same core, most likely), so a sweep's CPU time alone does not repeat from
run to run. A sampler pinned to a CPU wakes every ``PERIOD_S``, times one
fixed chunk of pure-Python graph work that belongs to the benchmark (so no
change to rqsim can move it) in its own CPU time, and goes back to sleep.
The mean chunk time over every sampler, against ``REFERENCE_CHUNK_S``, is
how much slower than the reference speed the CPUs ran during the sweep;
``run.py`` scales the figures by it. Interleaved with a fixed rqsim loop in
one thread, this cut the interquartile spread of 2-second rates from 0.12
to 0.03.

A sampler prints ``ready`` once it is warm, then samples until its
standard input closes, and prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

#: Sampling period: about 5% of the CPU at the chunk cost below.
PERIOD_S = 0.02
#: Chunk CPU time that defines the reference speed; on the 2 vCPUs the
#: benchmark was introduced on, a chunk took 0.65 to 1.4 ms. It only scales
#: the figures, and parent and change are compared with the same value.
REFERENCE_CHUNK_S = 1.0e-3

_NODES = 2000
_ADJ = [[(u * 7 + k * 13 + 1) % _NODES for k in range(3)] for u in range(_NODES)]


def chunk() -> int:
    """Breadth-first search with depth bookkeeping over a fixed graph."""
    seen = bytearray(_NODES)
    seen[0] = 1
    depth = {0: 0}
    queue = [0]
    for u in queue:
        for v in _ADJ[u]:
            if not seen[v]:
                seen[v] = 1
                depth[v] = depth[u] + 1
                queue.append(v)
    return len(queue)


def sample(cpu: int) -> dict:
    os.sched_setaffinity(0, {cpu})
    for _ in range(20):
        chunk()
    print("ready", flush=True)
    times = []
    c0 = time.process_time()
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = time.thread_time()
        chunk()
        times.append(time.thread_time() - t0)
    return {"chunks": len(times), "chunk_s": sum(times), "cpu_s": time.process_time() - c0}


class Samplers:
    """One sampler per CPU in ``cpus`` for the duration of a ``with`` block.

    After the block, ``slowdown`` is the mean chunk time over every sample
    against the reference, and ``cpu_s`` the CPU time the samplers took.
    """

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.procs: list[subprocess.Popen] = []
        self.slowdown = self.cpu_s = None

    def __enter__(self) -> "Samplers":
        for cpu in self.cpus:
            proc = subprocess.Popen([sys.executable, __file__, "--cpu", str(cpu)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            self.procs.append(proc)
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"calibration sampler on CPU {cpu} did not start")
        return self

    def __exit__(self, exc_type, *_) -> None:
        results = []
        for proc in self.procs:
            if exc_type is not None:
                proc.kill()
            proc.stdin.close()
            out = proc.stdout.read()
            proc.wait()
            if exc_type is None:
                results.append(json.loads(out))
        if results:
            chunks = sum(r["chunks"] for r in results)
            if chunks == 0:
                raise RuntimeError("calibration samplers took no samples")
            self.slowdown = sum(r["chunk_s"] for r in results) / chunks / REFERENCE_CHUNK_S
            self.cpu_s = sum(r["cpu_s"] for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(sample(args.cpu)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
