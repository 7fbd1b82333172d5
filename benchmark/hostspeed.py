"""A fixed piece of work that gauges how fast the host runs a process right now.

On a VM that shares its host, the same scan can take 1.5 times longer from
one minute to the next, because other guests load the host.  The benchmark
runs the probe between passes, never during a scan, and scales the times of
a run (on the workloads `workloads.PROBE_SCALED` names) by
REFERENCE_S / (the median probe time of the run).  A scaled time reads as
seconds on a host where the probe takes REFERENCE_S: it moves in proportion
to the scan's own cost, and a slowdown that lasts long enough to hit the
probes and the scans alike cancels out.  One probe is noisier than a whole
run, so the factor is taken over the run, not per scan.

The probe mixes what the workloads spend their time on: interpreted integer
arithmetic and dict updates (`fp_arith`, `residues`, `sifter`, `cli`),
scattered writes into a table larger than the caches (`mat2.census`), an
integer convolution like `sums.delta_profile`'s, and an FFT and a sort
(`sums`, `characters`).  It runs in a worker process of its own,
`python3 hostspeed.py`, which reads a count n per line of stdin and answers
with n probe times.  So the benchmark's process stays small: a child
inherits its parent's peak RSS in `ru_maxrss`, and the probe's tables would
show in every scan's `peak_rss_mb`.
"""

import statistics
import subprocess
import sys
import time

# About the probe's time on a lightly loaded 2-CPU Xeon VM.
REFERENCE_S = 0.06
# Probing time after a pass, as a share of the pass.
PROBE_SHARE = 0.1


def _tables():
    import numpy as np

    rng = np.random.default_rng(0)
    table = np.zeros(1 << 22, dtype=np.int64)
    index = rng.integers(0, 1 << 22, size=1 << 19)
    signal = rng.standard_normal(1 << 17)
    vals = np.arange(1, 61, dtype=np.int64)
    products = np.bincount(np.outer(vals, vals).ravel())
    return np, table, index, signal, products


def _work(np, table, index, signal, products):
    acc = 0
    for i in range(1, 100000):
        acc = (acc + pow(i, 3, 10007) * i) % 1000003
    counts = {}
    for i in range(50000):
        key = i * 7 % 1009
        counts[key] = counts.get(key, 0) + i
    table[:] = 0
    np.add.at(table, index, 1)
    np.convolve(products, products[::-1])
    np.fft.rfft(signal)
    np.sort(index)
    return acc + len(counts)


def serve():
    """Worker loop: for each line `n` of stdin, n probe times in seconds on one line of stdout.

    Each batch starts with an untimed run of the work, so every probe finds
    its tables in cache, whether it follows a scan or another probe.
    """
    tables = _tables()
    for line in sys.stdin:
        _work(*tables)
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            _work(*tables)
            times.append(time.perf_counter() - t0)
        print(" ".join(map(repr, times)), flush=True)


class Gauge:
    """Probes taken between the passes of one run, and the scale they give."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.samples = []
        self.probe(1)

    def probe(self, n):
        self.proc.stdin.write("%d\n" % n)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the host speed probe exited with code %s" % self.proc.wait())
        times = [float(t) for t in line.split()]
        self.samples.extend(times)
        return times

    def after(self, seconds):
        """Probe after a pass of `seconds`: for about PROBE_SHARE of it, at least once."""
        return self.probe(max(1, round(PROBE_SHARE * seconds / REFERENCE_S)))

    def factor(self):
        """Multiply a raw time of this run by this to scale it to the reference host speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self):
        """Stop the worker and wait for it to end."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
