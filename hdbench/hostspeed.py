"""Host-speed probe: a fixed slice of work timed between the stages.

The shared 2-core VMs this benchmark runs on change speed by up to 2x over
tens of seconds as co-tenant load comes and goes, and that drift is far
wider than any regression bound worth having.  So the tracer times this
probe before every stage (and once after each repetition), never between
the calls inside a stage, and each stage time is rescaled by
``REFERENCE_S`` over the median of the probes within half a second of it:
the metrics read as seconds on a host where the probe takes
``REFERENCE_S``, and most of the drift cancels.  The probe's
mix follows the pipeline's (a Python loop, float formatting and parsing,
small BLAS matrix-vector products, calls on tiny numpy arrays, big-int XOR
and popcount, and a pass over an array larger than the L2 cache) and does not touch hdwear, so a
change to hdwear cannot move it.  Probe time is kept out of every stage
and call time.

On the reference host (2-core Intel Xeon VM, Python 3.11, numpy 2.4), in
sets of five to ten 25-35 second runs per workload, rescaling cut the
seed-to-seed spread (quartile distance over median) of pipeline_s from
0.09-0.33 to 0.04-0.11.  The raw wall-time medians go to the run record.
"""

from __future__ import annotations

import numpy as np

REFERENCE_S = 3.0e-3  # probe time on the reference host in its fast state


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((4, 1024))
        self._v = np.ones(1024)
        self._ints = [int.from_bytes(rng.bytes(512), "little") for _ in range(12)]
        self._big = np.ones(1 << 19)  # 4 MiB
        self._buf = np.empty_like(self._big)
        self._tiny = np.array([1.0, 3.0, 2.0])

    def work(self) -> int:
        s = 0
        for i in range(10000):
            s += i * i
        for _ in range(200):
            self._m @ self._v
        for _ in range(2):
            np.multiply(self._big, 1.0001, out=self._buf)
        for _ in range(150):
            s += int(np.argmax(self._tiny)) + int(np.array(self._tiny).sum())
        for a in self._ints:
            for b in self._ints:
                s += (a ^ b).bit_count()
        return s + len([float(f"{x:.5f}") for x in range(1500)])
