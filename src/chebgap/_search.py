"""The bracketed search primitive used across the package: lockstep
Illinois for roots."""

from __future__ import annotations

import numpy as np

from . import _stats


def illinois_many(f, a, b, fa, fb, stop, inset=0.0):
    """Roots of increasing functions on brackets [a, b], fa < 0 < fb, all
    in lockstep: regula falsi whose end kept twice in a row has its value
    halved (Illinois).  Each trial is kept `inset` inside its bracket.
    f(xs, lanes) gives the values at the trials of the lanes left, and a
    lane ends once stop(a, b, f) holds after its update.  Returns each
    lane's final bracket (a, b), a = b at an exact root.  The calls of f
    count in `search.illinois_many.evals`, each one over every lane left."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    kept = np.zeros(len(a))        # the end kept by the last step: -1 a, +1 b
    lanes = np.arange(len(a))
    evals = 0
    try:
        while lanes.size:
            x = (a[lanes] * fb[lanes] - b[lanes] * fa[lanes]) / (fb[lanes] - fa[lanes])
            x = np.clip(x, a[lanes] + inset, b[lanes] - inset)
            evals += 1
            fx = f(x, lanes)
            left = fx < 0.0
            fb[lanes[left & (kept[lanes] > 0)]] *= 0.5
            fa[lanes[~left & (kept[lanes] < 0)]] *= 0.5
            a[lanes[left]], fa[lanes[left]] = x[left], fx[left]
            b[lanes[~left]], fb[lanes[~left]] = x[~left], fx[~left]
            a[lanes[fx == 0.0]] = x[fx == 0.0]     # an exact root closes its bracket
            kept[lanes] = np.where(left, 1.0, -1.0)
            lanes = lanes[~stop(a[lanes], b[lanes], fx)]
    finally:
        _stats.add({"search.illinois_many.evals": evals})
    return a, b
