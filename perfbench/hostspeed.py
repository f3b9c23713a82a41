"""Host speed probe: fixed numpy and scipy work that never calls eimrb.

The benchmark's host is a small virtual machine whose speed drifts by up
to 1.6x for minutes at a time, as neighbouring machines load the shared
cores.  A run times this probe at the same moments as its own work and
reports each timing at the reference speed: raw / factor, where factor
is the median probe time over REFERENCE_S.  Like the timings it
normalizes, the probe is timed in this thread's CPU time, so intervals
in which the host runs other processes count in neither.  The probe
shares no code with eimrb, so a change to eimrb moves the normalized
figure by the same factor as the raw one; only the host's drift cancels.

The probe has two halves of about equal length, because the drift hits
interpreter-bound and memory-bound code by different amounts: a loop of
small dense operations shaped like the reduced Newton solve, then an
element-batch einsum and a sparse LU shaped like finite element assembly
and solves.  REFERENCE_S is a fixed constant: changing it rescales every
normalized figure.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

REFERENCE_S = 0.022

_rng = np.random.default_rng(0)
_dense = _rng.random((20, 20)) + 20.0 * np.eye(20)
_lower = np.tril(_rng.random((25, 25))) + 25.0 * np.eye(25)
_vec20, _vec25 = _rng.random(20), _rng.random(25)
_elements = _rng.random((2048, 6, 7))
_n = 40
_second_difference = sp.csr_array(
    (np.concatenate([np.full(_n, 2.0), np.full(_n - 1, -1.0), np.full(_n - 1, -1.0)]),
     (np.concatenate([np.arange(_n), np.arange(_n - 1), np.arange(1, _n)]),
      np.concatenate([np.arange(_n), np.arange(1, _n), np.arange(_n - 1)]))),
    shape=(_n, _n))
_laplacian = sp.csc_array(sp.kron(_second_difference, sp.eye_array(_n))
                          + sp.kron(sp.eye_array(_n), _second_difference))
_ones = np.ones(_n * _n)


def _probe():
    for _ in range(300):
        x = np.linalg.solve(_dense, _vec20)
        solve_triangular(_lower, _vec25, lower=True, check_finite=False)
        float(np.linalg.norm(x))
        np.tensordot(_vec20, _dense, axes=1)
    for _ in range(2):
        np.einsum("tnq,tmq->tnm", _elements, _elements)
        spla.splu(_laplacian).solve(_ones)


class HostSpeed:
    """Probe times collected over one measured interval of a run."""

    def __init__(self):
        self.samples = []
        _probe()  # the first call pays one-off allocation and dispatch costs

    def sample(self):
        """Time the probe once; returns this sample's slowdown factor."""
        t0 = time.thread_time()
        _probe()
        self.samples.append(time.thread_time() - t0)
        return self.samples[-1] / REFERENCE_S

    @contextmanager
    def every(self, interval):
        """Sample before and after the block and every ``interval`` seconds
        of wall time inside it (on SIGALRM).  Yields a one-item list with
        the CPU seconds spent sampling inside the block, which the caller
        subtracts from its own timing of the block."""
        spent = [0.0]

        def handler(signum, frame):
            t0 = time.thread_time()
            self.sample()
            spent[0] += time.thread_time() - t0

        self.sample()
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def factor(self):
        """Median probe time over the reference; above 1 is slower."""
        return statistics.median(self.samples) / REFERENCE_S
