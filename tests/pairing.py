"""Pair two separately computed pole sets pole by pole.

Sorting each set (``np.sort_complex``) pairs them by position, and the
order of a conjugate pair whose real parts differ only by round-off can
flip between two computations; pairing each pole with its nearest
counterpart does not depend on round-off.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment


def pair_nearest(a, b):
    """``(a, b_paired)``: ``b`` reordered so ``b_paired[i]`` is the pole
    paired with ``a[i]``, by the pairing with the least summed distance."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, (a, b)
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return a[rows], b[cols]
