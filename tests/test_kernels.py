import numpy as np
import pytest

from qec import kernels
from qec.bits import n_bits
from qec.canon import perm_table
from qec.graphs import build_family, cycle, from_mask, is_connected, multipartite


def test_active_backend_env():
    assert kernels.active_backend() == "numpy"


def test_connected_masks_against_bfs():
    for n in (2, 3, 4, 5):
        masks = kernels.connected_masks(n)
        expected = [m for m in range(1 << n_bits(n)) if is_connected(from_mask(n, m))]
        assert masks.tolist() == expected


def test_orbit_min_mark():
    n = 5
    table = perm_table(n)
    g = build_family(cycle(5))
    seen = np.zeros(1 << n_bits(n), dtype=np.uint8)
    least = kernels.orbit_min_mark(g.mask, table, seen)
    assert least <= g.mask
    assert seen[g.mask] == 1 and seen[least] == 1
    # orbit size x automorphism order = n!
    orbit = int(seen.sum())
    assert orbit == 12  # 5!/|Aut(C5)| = 120/10
    assert kernels.min_permuted_mask(g.mask, table) == least


def test_min_permuted_mask_is_invariant():
    table = perm_table(5)
    g = build_family(multipartite(3, 2))
    base = kernels.min_permuted_mask(g.mask, table)
    bits = [(g.mask >> int(s)) & 1 for s in table[17]]
    relabeled = sum(b << t for t, b in enumerate(bits))
    assert kernels.min_permuted_mask(relabeled, table) == base


def test_jacobi_against_numpy_eigh():
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
