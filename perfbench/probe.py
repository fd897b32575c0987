"""Fixed reference kernels that gauge how fast the machine runs right now.

On a 2-vCPU Intel Xeon virtual machine that was otherwise idle, the same
single-threaded job ran at speeds 1.5 to 2.4 times apart, in stretches
lasting from 10 s to minutes, so whole 30-second runs landed in a slow or a
fast stretch and the run-to-run spread of every wall-clock metric reached
0.2-0.5 of its median.

The child times one of these kernels every PROBE_EVERY_S seconds between
jobs, and run.py scales each job's time by REFERENCE_S[kind] over the median
kernel time of the probes around the job, i.e. to the speed at which the
kernel takes its reference time.  The slow stretches do not slow all code
alike, so each workload uses the kernel that resembles its hot path:

- "small": 32-node Gauss-Legendre panels of a square-root integrand plus
  products over a 101 x 2000 block, dominated by per-call overhead on small
  arrays, like the Green quadrature and low-degree LP solves;
- "large": one barycentric pricing pass of 101 nodes over 2000 grid points,
  like the LP oracle at n = 100.

Both are frozen here and never call chebgap, so a change to chebgap never
changes what they measure.  Each probe runs its kernel twice and times the
second pass, so the kernel's data are back in cache whatever the job before
it left there.

Set-up time gets the same treatment with a separate gauge: START_CODE, run
in a fresh interpreter, starts Python and imports numpy, as `import chebgap`
does before its own modules load.  REFERENCE_START_S is its time in the fast
stretches.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_EVERY_S = 0.25

# Median times (warm kernel pass; fresh interpreter for START_CODE) on that
# virtual machine in its fast stretches.
REFERENCE_S = {"small": 0.4e-3, "large": 0.85e-3}
REFERENCE_START_S = 0.13

START_CODE = "import numpy, time; print(repr(time.monotonic()))"

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_BLOCK = np.random.default_rng(0).standard_normal((101, 2000))
_POINTS = np.linspace(-1.0, 1.0, 101)
_GRID = np.linspace(-1.0, 1.0, 2000)
_TNODES = 0.97 * np.cos(np.linspace(np.pi, 0.0, 101))
_SIGNS = np.where(np.arange(101) % 2 == 0, 1.0, -1.0)


def _integrand(phi):
    one_plus = 0.3 + 0.8 * np.sin(0.5 * phi) ** 2
    one_minus = 1.1 + 0.8 * np.cos(0.5 * phi) ** 2
    inv = 1.0 / np.sqrt(one_plus * one_minus)
    return np.stack([np.cos(phi) * inv, inv])


def _small():
    acc = 0.0
    for k in range(12):
        half, mid = 0.25, 0.1 * k + 0.25
        acc += float((_integrand(mid + half * _NODES) * _WEIGHTS).sum()) * half
    acc += float(np.abs(_POINTS[:, None] - 0.5 * _POINTS[None, :]).sum())
    for _ in range(3):
        acc += float(np.abs(_POINTS @ _BLOCK).max())
    return acc


def _large():
    inv = 1.0 / (_GRID[:, None] - _TNODES[None, :])
    return float(np.abs((inv @ _SIGNS) / (inv @ np.abs(_SIGNS))).max())


_KERNELS = {"small": _small, "large": _large}


def speed_probe(kind):
    """Seconds one warm pass of the `kind` reference kernel takes."""
    kernel = _KERNELS[kind]
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
