import numpy as np
import pytest
from scipy.spatial import cKDTree

from sqplan import proximity
from sqplan.geometry import Superquadric, inside_outside, surface_samples
from sqplan.proximity import (batch_closest_pairs, closest_pair, overlaps,
                              pair_lower_bound, point_distance)


def random_sq(rng, dim, center_range=3.0, eps_range=(0.4, 1.6)):
    center = rng.uniform(-center_range, center_range, dim)
    if dim == 2:
        return Superquadric.create(rng.uniform(*eps_range, 1),
                                   np.sort(rng.uniform(0.3, 1.2, 2)),
                                   center, rng.uniform(-np.pi, np.pi, 1))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Superquadric.create(rng.uniform(*eps_range, 2),
                               np.sort(rng.uniform(0.3, 1.2, 3)),
                               center, rng.uniform(0.0, np.pi) * axis)


def sampled_distance(a, b, n):
    return float(cKDTree(surface_samples(a, n)).query(surface_samples(b, n))[0].min())


def test_circle_pair_analytic():
    a = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    b = Superquadric.create([1.0], [0.3, 0.3], [2.0, 0.0])
    pair = closest_pair(a, b)
    assert abs(pair.distance - 1.2) <= 1e-9
    assert np.allclose(pair.p_i, [0.5, 0.0], atol=1e-6)
    assert np.allclose(pair.p_j, [1.7, 0.0], atol=1e-6)


def test_sphere_pairs_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ca, cb = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        ra, rb = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        d = np.linalg.norm(ca - cb)
        if d <= ra + rb + 0.05:
            continue
        a = Superquadric.create([1.0, 1.0], [ra, ra, ra], ca)
        b = Superquadric.create([1.0, 1.0], [rb, rb, rb], cb)
        pair = closest_pair(a, b)
        assert abs(pair.distance - (d - ra - rb)) <= 1e-9


def test_random_pairs_match_sampling_oracle():
    rng = np.random.default_rng(4)
    for dim, count, n, d_min in ((2, 20, 4000, 0.1), (3, 10, 100, 0.2)):
        for _ in range(count):
            while True:
                a, b = random_sq(rng, dim), random_sq(rng, dim)
                pair = closest_pair(a, b)
                if pair.distance > d_min:
                    break
            oracle = sampled_distance(a, b, n)
            assert abs(pair.distance - oracle) / oracle <= 1e-3


def test_closest_pair_equal_circles():
    a = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [3.0, 0.0])
    pair = closest_pair(a, b)
    assert abs(pair.distance - 2.0) <= 1e-9
    assert pair.converged


@pytest.mark.parametrize("dim, eps", [(2, 0.1), (2, 2.0), (3, 0.1), (3, 2.0)])
def test_eps_clamp_ends_match_sampling_oracle(dim, eps):
    """Boxes (eps = 0.1) and diamonds (eps = 2.0) against dense samples.

    The sampled distance can only overestimate the true one, by at most the
    sample spacing. The witnesses must lie on their surfaces, and every
    sample of each shape must stay on its own side of the slab that the
    witnesses span, which certifies that no closer pair exists.
    """
    rng = np.random.default_rng(11)
    n, count = (20000, 6) if dim == 2 else (120, 4)
    for _ in range(count):
        while True:
            a = random_sq(rng, dim, eps_range=(eps, eps))
            b = random_sq(rng, dim, eps_range=(eps, eps))
            pair = closest_pair(a, b)
            if pair.distance > 0.1:
                break
        assert pair.converged
        pa, pb = surface_samples(a, n), surface_samples(b, n)
        d, _ = cKDTree(pa).query(pb)
        spacing = max(float(np.max(cKDTree(p).query(p, k=2)[0][:, 1]))
                      for p in (pa, pb))
        assert pair.distance <= d.min() + 1e-9
        assert d.min() - pair.distance <= spacing
        assert abs(inside_outside(a, pair.p_i)) <= 1e-6
        assert abs(inside_outside(b, pair.p_j)) <= 1e-6
        normal = (pair.p_j - pair.p_i) / pair.distance
        assert np.max(pa @ normal) <= pair.p_i @ normal + 1e-9
        assert np.min(pb @ normal) >= pair.p_j @ normal - 1e-9


def test_contained_shape_has_distance_zero():
    for outer, inner in (
            (Superquadric.create([0.3], [1.0, 2.0], [0.5, 0.5], [0.4]),
             Superquadric.create([1.5], [0.1, 0.2], [0.6, 0.3], [1.0])),
            (Superquadric.create([0.3, 1.0], [1.0, 1.5, 2.0], [0.5, 0.5, 0.5]),
             Superquadric.create([2.0, 0.1], [0.1, 0.2, 0.3], [0.6, 0.4, 0.7],
                                 [0.3, -0.2, 0.9]))):
        for a, b in ((outer, inner), (inner, outer)):
            pair = closest_pair(a, b)
            assert pair.distance == 0.0 and pair.converged
            assert overlaps(a, b, pair)
            assert overlaps(a, b)


def test_iteration_cap_reports_nonconvergence(monkeypatch):
    a = Superquadric.create([0.7, 1.3], [0.4, 0.7, 1.1], [0.0, 0.0, 0.0],
                            [0.3, 0.5, -0.2])
    b = Superquadric.create([1.2, 0.6], [0.3, 0.8, 1.0], [3.0, 1.0, 0.5],
                            [-0.4, 0.1, 0.7])
    full = closest_pair(a, b)
    monkeypatch.setattr(proximity, "MAX_ITER", 2)
    capped = closest_pair(a, b)
    assert not capped.converged
    assert full.converged
    assert capped.distance >= full.distance


def test_overlaps_detects_witness_and_containment():
    a = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [0.8, 0.0])
    assert overlaps(a, b, closest_pair(a, b))
    c = Superquadric.create([1.0], [0.5, 0.5], [2.0, 0.0])
    assert not overlaps(a, c, closest_pair(a, c))


def test_overlaps_interpenetrating_boxes():
    # boxy cross: surfaces intersect but neither center is inside the other
    bar = Superquadric.create([0.2], [0.02, 0.12], [0.25, 0.30], [np.pi / 2])
    stem = Superquadric.create([0.2], [0.02, 0.07], [0.25, 0.22], [0.0])
    assert overlaps(bar, stem, closest_pair(bar, stem))


def test_point_distance():
    sq = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    p, d = point_distance(np.array([2.0, 0.0]), sq)
    assert abs(d - 1.5) <= 1e-9
    assert np.allclose(p, [0.5, 0.0], atol=1e-6)
    _, d_in = point_distance(np.array([0.1, 0.0]), sq)
    assert d_in <= 1e-9


def test_pair_lower_bound_is_a_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = random_sq(rng, 2), random_sq(rng, 2)
        lb = pair_lower_bound(a, b)
        pair = closest_pair(a, b)
        assert lb <= pair.distance + 1e-9


def test_batch_closest_pairs_prunes():
    shapes = [Superquadric.create([1.0], [0.2, 0.2], [float(k), 0.0])
              for k in range(4)]
    pairs = batch_closest_pairs(shapes, prune_above=0.7)
    assert (0, 1) in pairs and abs(pairs[(0, 1)].distance - 0.6) <= 1e-6
    assert (0, 3) not in pairs
