import itertools
import math
import random

import numpy as np
import pytest

from constructions import is_connected, relabel
from qec import kernels
from qec.bits import n_bits
from qec.canon import perm_powers
from qec.graphs import build_family, cycle, from_mask, multipartite
from relabelings import _images, min_permuted_mask, perm_table


def test_active_backend_env():
    assert kernels.active_backend() == "numpy"


def test_connected_masks_against_bfs():
    for n in (1, 2, 3, 4, 5):
        masks = kernels.connected_masks(n)
        expected = [m for m in range(1 << n_bits(n)) if is_connected(from_mask(n, m))]
        assert masks.tolist() == expected


def test_orbit_min_mark():
    n = 5
    table = perm_table(n)
    g = build_family(cycle(5))
    seen = np.zeros(1 << n_bits(n), dtype=np.uint8)
    least = kernels.orbit_min_mark(g.mask, perm_powers((n,)), seen)
    assert least <= g.mask
    assert seen[g.mask] == 1 and seen[least] == 1
    # orbit size x automorphism order = n!
    orbit = int(seen.sum())
    assert orbit == 12  # 5!/|Aut(C5)| = 120/10
    assert min_permuted_mask(g.mask, table) == least


def test_min_permuted_mask_is_invariant():
    table = perm_table(5)
    g = build_family(multipartite(3, 2))
    base = min_permuted_mask(g.mask, table)
    relabeled = relabel(g, [3, 0, 4, 1, 2]).mask
    assert relabeled != g.mask
    assert min_permuted_mask(relabeled, table) == base


def _brute_force_orbit(n, mask):
    """Every relabeling of `mask`, from itertools.permutations alone."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = {pairs[t] for t in range(len(pairs)) if mask >> t & 1}
    orbit = set()
    for perm in itertools.permutations(range(n)):
        image = 0
        for t, (i, j) in enumerate(pairs):
            if (perm[i], perm[j]) in edges or (perm[j], perm[i]) in edges:
                image |= 1 << t
        orbit.add(image)
    return orbit


@pytest.mark.parametrize("n", [5, 6, 7])
def test_orbit_kernels_against_brute_force(n):
    rng = random.Random(n)
    table = perm_table(n)
    for _ in range(25 if n < 7 else 4):
        mask = rng.getrandbits(n_bits(n))
        orbit = _brute_force_orbit(n, mask)
        seen = np.zeros(1 << n_bits(n), dtype=np.uint8)
        least = kernels.orbit_min_mark(mask, np.ldexp(1.0, table), seen)
        assert set(np.flatnonzero(seen).tolist()) == orbit
        assert least == min(orbit)
        assert min_permuted_mask(mask, table) == min(orbit)


def _compositions(n):
    """Every tuple of positive cell sizes summing to n, in order."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


def test_perm_powers_is_a_read_only_float64_power_table():
    """The table of consecutive cells of `sizes` vertices is 2.0 ** the columns
    of the all-relabelings table whose relabeling keeps every cell in place,
    in the same order: for one cell of 2..6 vertices, every column; and for
    every split of 2..7 vertices into cells with at most 720 such relabelings."""
    for n in range(2, 8):
        for sizes in _compositions(n):
            if math.prod(map(math.factorial, sizes)) > 720:
                continue
            cell_of = [k for k, size in enumerate(sizes) for _ in range(size)]
            keep = [p for p, perm in enumerate(itertools.permutations(range(n)))
                    if all(cell_of[v] == cell_of[i] for i, v in enumerate(perm))]
            powers = perm_powers(sizes)
            assert powers.dtype == np.float64 and not powers.flags.writeable
            assert np.array_equal(powers, 2.0 ** perm_table(n)[:, keep].astype(np.int64)), sizes


def test_power_images_exact_at_order_8():
    """Order 8 has 28 edge bits, beyond float32's 24: the float64 product must
    give the int8 shift-and-add images bit for bit (the full 8! power table is
    built here; the library's tables hold at most 720 relabelings each)."""
    table = perm_table(8)
    powers = np.ldexp(1.0, table)
    rng = random.Random(8)
    masks = [rng.getrandbits(28) for _ in range(50)] + [(1 << 28) - 1]
    masks += [1 << s for s in range(28)]
    for mask in masks:
        images = kernels.relabeled_masks(mask >> np.arange(28) & 1, powers).astype(np.int64)
        assert np.array_equal(images, _images(mask, table))


def test_jacobi_against_numpy_eigh():
    """The eigensolver's contract: eigenvalues in descending order, orthonormal
    eigenvectors, and V diag(w) V^T reconstructing the input.  Both sides are
    LAPACK, so this is no value oracle; that is the power iteration in
    test_engine.py."""
    rng = np.random.default_rng(12345)
    for n in (1, 2, 3, 5, 8, 9):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, v = kernels.jacobi_eigh(a)
        assert np.allclose(w, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-10)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)


def test_jacobi_diagonal_input_short_circuits():
    w, v = kernels.jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert w.tolist() == [3.0, 2.0, 1.0]
    assert np.allclose(v @ v.T, np.eye(3))


def test_jacobi_rejects_nonsquare():
    with pytest.raises(ValueError):
        kernels.jacobi_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kernels.jacobi_eigh(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError):
        kernels.jacobi_eigh(np.zeros(3))


def test_jacobi_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 6, 9):
        a = rng.standard_normal((40, n, n))
        a = a + a.transpose(0, 2, 1)
        w, v = kernels.jacobi_eigh(a)
        assert w.shape == (40, n) and v.shape == (40, n, n)
        for k in range(len(a)):
            wk, vk = kernels.jacobi_eigh(a[k])
            assert w[k].tobytes() == wk.tobytes()
            assert v[k].tobytes() == vk.tobytes()


def test_eigvalsh_is_jacobi_eigh_without_vectors():
    """Values-only solves: descending, within rounding of jacobi_eigh's values,
    and a stack's values are those of each matrix alone, bit for bit."""
    rng = np.random.default_rng(77)
    for n in (1, 2, 6, 9):
        a = rng.standard_normal((40, n, n))
        a = a + a.transpose(0, 2, 1)
        w = kernels.eigvalsh(a)
        assert w.shape == (40, n) and (np.diff(w, axis=1) <= 0).all()
        assert np.allclose(w, kernels.jacobi_eigh(a)[0], atol=1e-12)
        for k in range(len(a)):
            assert w[k].tobytes() == kernels.eigvalsh(a[k]).tobytes()
