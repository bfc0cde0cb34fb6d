"""Reference relabeling kernels: the int8 bit-target table of all n!
relabelings and the shift-and-add images over it, which the library computed
certificates with before every relabeled mask went through one float64
product (`qec.kernels.relabeled_masks`).  The tests check the product
against these.

A bit-target table is (B, P) int8: under relabeling p, bit s of the original
mask becomes bit perm_tgt[s, p] of the relabeled mask.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from qec.canon import _tgt_from_perms


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """Bit-target table of every relabeling of n vertices (1.13 MB at n = 8)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    return _tgt_from_perms(perms, n)


def _images(mask: int, perm_tgt: np.ndarray) -> np.ndarray:
    """The P relabeled masks of `mask`, one per column of perm_tgt."""
    imgs = np.zeros(perm_tgt.shape[1], dtype=np.int64)
    for s in range(perm_tgt.shape[0]):
        if mask >> s & 1:
            imgs += np.left_shift(1, perm_tgt[s], dtype=np.int64)  # numpy < 2 would shift in int8
    return imgs


def min_permuted_mask(mask: int, perm_tgt: np.ndarray) -> int:
    """Minimum of `mask` under the relabelings in perm_tgt (and `mask` itself)."""
    return int(min(mask, _images(mask, perm_tgt).min()))
