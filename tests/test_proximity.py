import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import (closest_pairs, load_bench_scenes, pair_records,
                     plain_closest_pair_arrays, plain_pair_records, robot_pose_at)
from sqplan import proximity, voronoi
from sqplan.geometry import (EPS_MAX, Superquadric, expand, inside_outside, stack_pairs,
                             stack_shapes, surface_samples)
from sqplan.poses import robot_rotations
from sqplan.proximity import (ClosestPair, PairArrays, closest_pair, closest_pair_arrays,
                              overlaps)
from sqplan.scenario import BENCHMARK_NAMES, generate_benchmark, scenario_from_dict


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


def test_closest_pairs_batch_of_neighbours():
    shapes = [Superquadric.create([1.0], [0.2, 0.2], [float(k), 0.0])
              for k in range(4)]
    keys = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs = pair_records([shapes[i] for i, _ in keys], [shapes[j] for _, j in keys])
    for (i, j), pair in zip(keys, pairs):
        assert abs(pair.distance - (j - i - 0.4)) <= 1e-9 and pair.converged
        assert np.allclose(pair.p_i, [i + 0.2, 0.0], atol=1e-6)
        assert np.allclose(pair.p_j, [j - 0.2, 0.0], atol=1e-6)


# ------------------------------------------------ one-pair reference GJK
#
# The scalar GJK that closest_pairs replaced: one pair per call, Python-float
# support maps, and the signed-volumes subalgorithm (Montanari, Petrinic &
# Barbieri, ACM TOG 2017) over every face, not only those that contain the
# newest vertex. It reads the stop rules from proximity at call time.


def _dual_exponent(e):
    return math.inf if e >= EPS_MAX else 2.0 / (2.0 - e)


def _lq_gradient(x, y, q):
    """(||(x, y)||_q, d/dx, d/dy) for two scalars; q = inf takes a vertex."""
    m = max(abs(x), abs(y))
    if m == 0.0:
        return 0.0, 0.0, 0.0
    if q == math.inf:
        if abs(x) >= abs(y):
            return m, math.copysign(1.0, x), 0.0
        return m, 0.0, math.copysign(1.0, y)
    norm = m * ((abs(x) / m) ** q + (abs(y) / m) ** q) ** (1.0 / q)
    return (norm, math.copysign((abs(x) / norm) ** (q - 1.0), x),
            math.copysign((abs(y) / norm) ** (q - 1.0), y))


def scalar_support(sq):
    """World direction (3,) -> support point (3,); 2D shapes in z = 0."""
    rot, pos, a = sq.pose.matrix, sq.center, sq.axes
    if sq.dim == 2:
        q = _dual_exponent(sq.eps[0])

        def local(c):
            return np.array(_lq_gradient(*c.tolist(), q)[1:])
    else:
        q1, q2 = _dual_exponent(sq.eps[0]), _dual_exponent(sq.eps[1])

        def local(c):
            x, y, z = c.tolist()
            r, g_x, g_y = _lq_gradient(x, y, q2)
            _, g_r, g_z = _lq_gradient(r, z, q1)
            return np.array([g_r * g_x, g_r * g_y, g_z])

    def support(d):
        p = rot @ (a * local(a * (d[:sq.dim] @ rot))) + pos
        return np.append(p, 0.0) if sq.dim == 2 else p
    return support


def _same_sign(a, b):
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def _s1d(y):
    t = y[1] - y[0]
    tt = float(t @ t)
    u = 0.0 if tt == 0.0 else -float(y[0] @ t) / tt
    if u <= 0.0:
        return [0], np.ones(1)
    if u >= 1.0:
        return [1], np.ones(1)
    return [0, 1], np.array([1.0 - u, u])


def _s2d(y):
    rows = y.tolist()
    e1 = [b - a for a, b in zip(rows[0], rows[1])]
    e2 = [c - a for a, c in zip(rows[0], rows[2])]
    n = [e1[1] * e2[2] - e1[2] * e2[1], e1[2] * e2[0] - e1[0] * e2[2],
         e1[0] * e2[1] - e1[1] * e2[0]]
    k = max(range(3), key=lambda c: abs(n[c]))
    mu = n[k]
    areas = [0.0, 0.0, 0.0]
    if mu != 0.0:
        scale = sum(a * b for a, b in zip(rows[0], n)) / sum(c * c for c in n)
        i, j = (k + 1) % 3, (k + 2) % 3
        pi, pj = scale * n[i], scale * n[j]
        for m in range(3):
            b, c = rows[(m + 1) % 3], rows[(m + 2) % 3]
            areas[m] = (b[i] - pi) * (c[j] - pj) - (c[i] - pi) * (b[j] - pj)
        if all(_same_sign(mu, s) for s in areas):
            return [0, 1, 2], np.array(areas) / mu
    return _best_face(y, [m for m in range(3) if not _same_sign(mu, areas[m])], _s1d)


def _s3d(y):
    vols = np.array([-np.linalg.det(y[[1, 2, 3]]), np.linalg.det(y[[0, 2, 3]]),
                     -np.linalg.det(y[[0, 1, 3]]), np.linalg.det(y[[0, 1, 2]])])
    total = float(vols.sum())
    if all(_same_sign(total, s) for s in vols):
        return [0, 1, 2, 3], vols / total
    return _best_face(y, [m for m in range(4) if not _same_sign(total, vols[m])], _s2d)


def _best_face(y, dropped, solve):
    best = None
    for m in dropped:
        face = [r for r in range(len(y)) if r != m]
        idx, lam = solve(y[face])
        v = lam @ y[face][idx]
        dist = float(v @ v)
        if best is None or dist < best[0]:
            best = (dist, [face[r] for r in idx], lam)
    return best[1], best[2]


def oracle_closest_pair(sq_i, sq_j):
    """Reference closest pair: one pair, one iteration at a time."""
    dim = sq_i.dim
    support_i, support_j = scalar_support(sq_i), scalar_support(sq_j)
    v = np.zeros(3)
    v[:dim] = sq_i.center - sq_j.center
    if not v.any():
        v = np.eye(3)[0]
    a, b = support_i(-v), support_j(v)
    pts_i, pts_j, lam = a[None], b[None], np.ones(1)
    v = a - b
    converged = enclosed = False
    for it in range(1, proximity.MAX_ITER + 1):
        a, b = support_i(-v), support_j(v)
        vv = float(v @ v)
        if vv - float(v @ (a - b)) <= proximity.REL_TOL * vv:
            converged = True
            break
        pts_i, pts_j = np.vstack([pts_i, a]), np.vstack([pts_j, b])
        y = pts_i - pts_j
        keep, lam = {2: _s1d, 3: _s2d, 4: _s3d}[len(y)](y)
        pts_i, pts_j, y = pts_i[keep], pts_j[keep], y[keep]
        v_new = lam @ y
        size = float(np.max(np.einsum("ij,ij->i", y, y)))
        if (len(keep) == dim + 1
                or float(v_new @ v_new) <= proximity.TOUCH_TOL**2 * size):
            converged = enclosed = True
            break
        if float(v_new @ v_new) >= vv:
            converged = True
            break
        v = v_new
    p_i, p_j = lam @ pts_i, lam @ pts_j
    distance = 0.0 if enclosed else float(np.linalg.norm(p_i - p_j))
    return ClosestPair(p_i[:dim], p_j[:dim], distance, converged, it)


def assert_matches_oracle(got, a, b):
    want = oracle_closest_pair(a, b)
    assert abs(got.distance - want.distance) <= 1e-9
    assert overlaps(a, b, got) == overlaps(a, b, want)
    assert got.converged == want.converged
    if want.distance > proximity.OVERLAP_TOL:  # witnesses of an overlap differ
        assert np.max(np.abs(got.p_i - want.p_i)) <= 1e-5
        assert np.max(np.abs(got.p_j - want.p_j)) <= 1e-5


def same_result(x, y):
    return (x.distance == y.distance and x.converged == y.converged
            and np.array_equal(x.p_i, y.p_i) and np.array_equal(x.p_j, y.p_j))


def oracle_cases(dim, eps_range, rng):
    """Separated and overlapping random pairs, containment, equal centres,
    and pairs moved to within 1e-3 .. -1e-7 m of touching."""
    cases = [(random_sq(rng, dim, eps_range=eps_range),
              random_sq(rng, dim, eps_range=eps_range)) for _ in range(12)]
    for _ in range(3):
        outer = random_sq(rng, dim, center_range=0.1, eps_range=eps_range)
        inner = random_sq(rng, dim, center_range=0.1, eps_range=eps_range)
        inner = Superquadric.create(inner.eps, inner.axes * 0.05, inner.center,
                                    inner.pose.rotation)
        cases += [(outer, inner), (inner, outer)]
    for _ in range(2):
        a = random_sq(rng, dim, eps_range=eps_range)
        b = random_sq(rng, dim, eps_range=eps_range)
        cases.append((a, Superquadric.create(b.eps, b.axes, a.center, b.pose.rotation)))
    for gap in (1e-3, 1e-7, 1e-11, -1e-7):
        while True:
            a = random_sq(rng, dim, eps_range=eps_range)
            b = random_sq(rng, dim, eps_range=eps_range)
            pair = oracle_closest_pair(a, b)
            if pair.distance > 0.1:
                break
        # sliding B along the witness normal keeps the witnesses
        normal = (pair.p_j - pair.p_i) / pair.distance
        cases.append((a, Superquadric.create(
            b.eps, b.axes, b.center - (pair.distance - gap) * normal, b.pose.rotation)))
    return cases


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps_range", [(0.1, 0.1), (2.0, 2.0), (0.1, 2.0)])
def test_closest_pairs_match_one_pair_oracle(dim, eps_range):
    rng = np.random.default_rng([dim, int(10 * eps_range[0]), int(10 * eps_range[1])])
    cases = oracle_cases(dim, eps_range, rng)
    got = pair_records([a for a, _ in cases], [b for _, b in cases])
    assert len(got) == len(cases)
    for pair, (a, b) in zip(got, cases):
        assert_matches_oracle(pair, a, b)
    assert any(p.distance == 0.0 for p in got) and any(p.distance > 0.1 for p in got)


def test_closest_pairs_empty_and_single_batches():
    assert all(len(x) == 0 for x in closest_pairs([], []))
    a = Superquadric.create([0.3, 1.7], [0.4, 0.6, 1.0], [0.0, 0.0, 0.0], [0.2, -0.4, 0.1])
    b = Superquadric.create([2.0, 0.1], [0.3, 0.5, 0.7], [2.0, 0.5, -0.3])
    (single,) = pair_records([a], [b])
    assert same_result(single, closest_pair(a, b))
    assert_matches_oracle(single, a, b)
    with pytest.raises(ValueError):
        closest_pairs([a], [b, a])
    with pytest.raises(ValueError):
        closest_pairs([a], [Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])])


def test_finished_pairs_stay_frozen_in_a_mixed_batch():
    # spheres finish in a few iterations, rotated boxes and diamonds take
    # tens; each pair's result must be the one it gets alone
    rng = np.random.default_rng(21)
    fast = [(Superquadric.create([1.0, 1.0], [r, r, r], c),
             Superquadric.create([1.0, 1.0], [0.4, 0.4, 0.4], c + [2.0, 0.5, 0.0]))
            for r, c in ((0.3, np.zeros(3)), (0.6, np.ones(3)))]
    slow = [(random_sq(rng, 3, eps_range=(eps, eps)), random_sq(rng, 3, eps_range=(eps, eps)))
            for eps in (0.1, 2.0, 0.1, 2.0)]
    cases = [fast[0], slow[0], slow[1], fast[1], slow[2], slow[3]]
    got = pair_records([a for a, _ in cases], [b for _, b in cases])
    for pair, (a, b) in zip(got, cases):
        assert same_result(pair, closest_pair(a, b))
        assert_matches_oracle(pair, a, b)


@pytest.mark.parametrize("dim", [2, 3])
def test_result_does_not_depend_on_the_batch(dim):
    rng = np.random.default_rng(30 + dim)
    cases = oracle_cases(dim, (0.1, 2.0), rng)
    alone = [closest_pair(a, b) for a, b in cases]
    for perm in (rng.permutation(len(cases)), np.arange(len(cases))[::-1]):
        got = pair_records([cases[k][0] for k in perm], [cases[k][1] for k in perm])
        assert all(same_result(g, alone[k]) for g, k in zip(got, perm))
    half = pair_records([a for a, _ in cases[1::2]], [b for _, b in cases[1::2]])
    assert all(same_result(g, x) for g, x in zip(half, alone[1::2]))


def test_diagrams_match_one_pair_oracle(monkeypatch):
    """The six benchmark scenes and the benchmark's random build fields give
    the same clusters and hyperplanes with batched GJK as with the one-pair
    oracle. Each diagram decides all its obstacle pairs against OVERLAP_TOL
    in one call, then solves in full, in at most one more call, only pairs
    across clusters."""
    bench = load_bench_scenes()
    scenes = ([generate_benchmark(name) for name in BENCHMARK_NAMES]
              + [scenario_from_dict(bench.random_field(*f)) for f in bench.BUILD3D_FIELDS])

    def build(scn):
        return voronoi.build_diagram(scn.robot, scn.obstacles, scn.world_lo, scn.world_hi)

    def obstacle_rows(scn, pairs):
        """Each pair's two obstacle indices, found by their centres."""
        centres = np.array([o.center for o in scn.obstacles])
        assert len(np.unique(centres, axis=0)) == len(centres)
        rows = [np.nonzero(np.all(side[:, None] == centres, axis=2))[1] for side in pairs.pos]
        assert all(len(r) == pairs.pos.shape[1] for r in rows)
        return rows

    calls = []
    solve = voronoi.closest_pair_arrays

    def counted(pairs, tol=0.0, threshold=None, upper=None):
        calls.append((obstacle_rows(scn, pairs), tol, threshold, upper))
        return solve(pairs, tol, threshold, upper)

    monkeypatch.setattr(voronoi, "closest_pair_arrays", counted)
    got = []
    for scn in scenes:
        calls.clear()
        diagram = build(scn)
        got.append(diagram)
        n = len(scn.obstacles)
        ((i, j), *options), *rest = calls
        assert (len(i), *options) == (n * (n - 1) // 2, 0.0, proximity.OVERLAP_TOL, None)
        assert sorted(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(n)
                                                       for b in range(a + 1, n)]
        assert len(rest) <= 1
        label = {k: c.id for c in diagram.clusters for k in c.members}
        for (i, j), *options in rest:
            assert options == [0.0, None, None]
            assert all(label[a] != label[b] for a, b in zip(i.tolist(), j.tolist()))

    # a full solve answers any threshold question
    def oracle(pairs, tol=0.0, threshold=None, upper=None):
        grown = [expand(o, float(scn.robot.axes[0])) for o in scn.obstacles]
        records = [oracle_closest_pair(grown[a], grown[b])
                   for a, b in zip(*(r.tolist() for r in obstacle_rows(scn, pairs)))]
        fields = zip(*((r.p_i, r.p_j, r.distance, r.converged, r.iterations) for r in records))
        return PairArrays(*map(np.array, fields), np.full(len(records), np.nan),
                          np.zeros(len(records), int))

    monkeypatch.setattr(voronoi, "closest_pair_arrays", oracle)
    for diagram, scn in zip(got, scenes):
        want = build(scn)
        assert [c.members for c in diagram.clusters] == [c.members for c in want.clusters]
        assert ([(h.cluster_i, h.cluster_j) for h in diagram.hyperplanes]
                == [(h.cluster_i, h.cluster_j) for h in want.hyperplanes])
        for h, w in zip(diagram.hyperplanes, want.hyperplanes):
            assert np.max(np.abs(h.normal - w.normal)) <= 1e-6
        assert diagram.nonconverged == want.nonconverged == 0


# ------------------------------------------- tolerance stop and array core


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps_range", [(0.2, 0.2), (0.1, 2.0)])
def test_tolerance_stop_bounds_the_full_solve(dim, eps_range):
    # rotated boxy pairs at eps = 0.2 converge slowest; the cases also hold
    # overlaps, containment and pairs within 1e-3 .. -1e-7 m of touching
    rng = np.random.default_rng([40 + dim, int(10 * eps_range[0])])
    cases = oracle_cases(dim, eps_range, rng) + [
        (random_sq(rng, dim, eps_range=eps_range), random_sq(rng, dim, eps_range=eps_range))
        for _ in range(20)]
    shapes_i, shapes_j = [a for a, _ in cases], [b for _, b in cases]
    sides = stack_pairs(shapes_i, shapes_j)
    full = pair_records(shapes_i, shapes_j)
    for pair, *record in zip(full, *closest_pair_arrays(sides, 0.0)[:5]):
        assert same_result(pair, ClosestPair(*record)) and pair.iterations == record[4]
        assert 1 <= pair.iterations < proximity.MAX_ITER
    # a tolerance stop cuts short the unpolished GJK full solve
    full = plain_pair_records(shapes_i, shapes_j)
    stopped_early = 0
    for tol in (1e-9, 1e-6, 1e-3, 1e-1):
        _, _, distance, converged, iterations, *_ = closest_pair_arrays(sides, tol)
        for exact, d, ok, it in zip(full, distance, converged, iterations):
            assert ok
            assert exact.distance - 1e-12 <= d <= exact.distance + tol + 1e-12
            assert it <= exact.iterations
            stopped_early += it < exact.iterations
    assert stopped_early > 0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-4])
def test_array_core_matches_list_front_end_on_robot_poses(dim, tol):
    # the robot posed along a trajectory as the clearance audit feeds it, by
    # robot_rotations' matrices (in 3D they differ from a RigidPose's in the
    # last bits, so there the posed shapes' own matrices) and the positions
    rng = np.random.default_rng(50 + dim)
    robot = random_sq(rng, dim)
    obstacles = [random_sq(rng, dim) for _ in range(3)]
    positions = rng.uniform(-3.0, 3.0, size=(12, dim))
    orientations = rng.normal(size=(12, 1 if dim == 2 else 3))
    posed = [robot_pose_at(robot, p, o) for p, o in zip(positions, orientations)]
    rotations = (robot_rotations(dim, orientations) if dim == 2
                 else stack_shapes(posed).rot)
    i, j = np.divmod(np.arange(len(posed) * len(obstacles)), len(obstacles))
    sides = stack_pairs([robot] * len(i), [obstacles[k] for k in j])
    sides.rot[0], sides.pos[0] = rotations[i], positions[i]
    posed_i, obstacles_j = [posed[k] for k in i], [obstacles[k] for k in j]
    got = closest_pair_arrays(sides, tol)
    want = closest_pair_arrays(stack_pairs(posed_i, obstacles_j), tol)
    for x, y in zip(got, want):
        assert np.array_equal(x, y, equal_nan=True)
    if tol == 0.0:
        for pair, *record in zip(pair_records(posed_i, obstacles_j), *got[:5]):
            assert same_result(pair, ClosestPair(*record))
            assert pair.iterations == record[4]


# ------------------------------------------------------ threshold query


def threshold_cases(dim, rng):
    """oracle_cases (gaps 1e-3 .. -1e-7, containment, equal centres) over
    the whole eps range, plus random pairs near and far."""
    return oracle_cases(dim, (0.1, 2.0), rng) + [
        (random_sq(rng, dim, eps_range=(0.1, 2.0)), random_sq(rng, dim, eps_range=(0.1, 2.0)))
        for _ in range(20)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("threshold", [proximity.OVERLAP_TOL, 1e-3, 0.1])
def test_threshold_query_decides_like_the_full_solve(dim, threshold):
    # the threshold query cuts short the unpolished GJK full solve
    rng = np.random.default_rng([60 + dim, int(-math.log10(threshold))])
    cases = threshold_cases(dim, rng)
    shapes_i, shapes_j = [a for a, _ in cases], [b for _, b in cases]
    full = plain_pair_records(shapes_i, shapes_j)
    got = pair_records(shapes_i, shapes_j, threshold)
    retired = 0
    for exact, pair in zip(full, got):
        assert (pair.distance <= threshold) == (exact.distance <= threshold)
        assert pair.converged and pair.iterations <= exact.iterations
        if pair.lower_bound is None:
            assert same_result(pair, exact) and pair.iterations == exact.iterations
        else:
            retired += 1
            assert 0.0 <= pair.lower_bound <= exact.distance + 1e-12
            assert exact.distance <= pair.distance + 1e-12
    assert retired > 0
    # the array core carries the same lower bounds, NaN for full solves
    result = closest_pair_arrays(stack_pairs(shapes_i, shapes_j), 0.0, threshold)
    assert len(result) == 7
    bound = [np.nan if p.lower_bound is None else p.lower_bound for p in got]
    assert np.array_equal(result.lower_bound, bound, equal_nan=True)
    # threshold None is the full solve
    assert all(same_result(x, y) and y.lower_bound is None
               for x, y in zip(pair_records(shapes_i, shapes_j),
                               pair_records(shapes_i, shapes_j, None)))


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_query_does_not_depend_on_the_batch(dim):
    rng = np.random.default_rng(70 + dim)
    cases = threshold_cases(dim, rng)
    threshold = 1e-3
    alone = [pair_records([a], [b], threshold)[0] for a, b in cases]

    def same(x, y):
        return (same_result(x, y) and x.iterations == y.iterations
                and x.lower_bound == y.lower_bound)

    for perm in (rng.permutation(len(cases)), np.arange(len(cases))[::-1]):
        got = pair_records([cases[k][0] for k in perm], [cases[k][1] for k in perm],
                           threshold)
        assert all(same(g, alone[k]) for g, k in zip(got, perm))
    half = pair_records([a for a, _ in cases[::2]], [b for _, b in cases[::2]], threshold)
    assert all(same(g, x) for g, x in zip(half, alone[::2]))
    assert all(len(x) == 0 for x in closest_pairs([], [], threshold))


# ------------------------------------------------------------ min-search


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps_range", [(0.1, 0.1), (2.0, 2.0), (0.1, 2.0)])
@pytest.mark.parametrize("tol", [0.0, 1e-6, 1e-3])
def test_min_search_keeps_unretired_pairs_and_the_batch_minimum(dim, eps_range, tol):
    # oracle_cases hold overlaps, containment, equal centres and near
    # touches; the separated ones alone make a batch whose minimum is > 0
    rng = np.random.default_rng([80 + dim, int(10 * eps_range[0]), int(10 * eps_range[1]),
                                 int(1e6 * tol)])
    cases = oracle_cases(dim, eps_range, rng) + [
        (random_sq(rng, dim, eps_range=eps_range), random_sq(rng, dim, eps_range=eps_range))
        for _ in range(20)]
    # the min-search cuts short the unpolished GJK full solve
    exact = closest_pairs([a for a, _ in cases], [b for _, b in cases]).distance
    separated = [c for c, d in zip(cases, exact) if d > 1e-6]
    assert len(separated) >= 20
    retired_any = False
    for batch in (cases, separated, separated[::3]):
        sides = stack_pairs([a for a, _ in batch], [b for _, b in batch])
        want = np.array([plain_closest_pair_arrays(stack_pairs([a], [b])).distance[0]
                         for a, b in batch])
        for upper in (np.inf, want.min() + tol):
            got = closest_pair_arrays(sides, tol, upper=upper)
            retired = ~np.isnan(got.lower_bound)
            retired_any |= retired.any()
            assert got[3].all()
            for k in np.flatnonzero(retired):
                assert 0.0 <= got.lower_bound[k] <= want[k] + 1e-12
                assert want[k] <= got[2][k] + 1e-12
            for k in np.flatnonzero(~retired):  # the unpolished solve alone
                alone = plain_closest_pair_arrays(sides.take(np.s_[:, k:k + 1]), tol)
                assert all(np.array_equal(x[k], y[0]) for x, y in zip(got[:5], alone[:5]))
                assert np.isnan(alone.lower_bound[0])
            assert want.min() - 1e-12 <= got[2].min() <= want.min() + tol + 1e-12
    assert retired_any


def test_min_search_below_the_minimum_retires_every_pair_with_a_bound():
    # an upper bound under every distance retires each pair as soon as
    # its lower bound is positive, still certified
    rng = np.random.default_rng(90)
    cases = [(random_sq(rng, 3), random_sq(rng, 3)) for _ in range(30)]
    want = np.array([closest_pair(a, b).distance for a, b in cases])
    far = want > 0.1
    sides = stack_pairs([a for a, _ in cases], [b for _, b in cases])
    got = closest_pair_arrays(sides.take(np.s_[:, far]), 0.0, upper=0.0)
    assert np.all(got.lower_bound <= want[far] + 1e-12) and np.all(got[4] <= 2)


# ------------------------------------------------------------ Newton polish


def polish_cases(dim, rng, count=60):
    """Random pairs over eps in [0.1, 2], B often stretched up to 4:1, slid
    along the plain GJK solve's witness normal to distances spread from
    1e-9 to 10 m."""
    cases = []
    for gap in np.logspace(-9, 1, count):
        while True:
            a, b = (random_sq(rng, dim, eps_range=(0.1, 2.0)) for _ in range(2))
            stretch = np.where(rng.random(dim) < 0.5, rng.uniform(1.0, 4.0, dim), 1.0)
            b = Superquadric.create(b.eps, np.sort(b.axes * stretch), b.center + 8.0,
                                    b.pose.rotation)
            pair = plain_closest_pair_arrays(stack_pairs([a], [b]))
            if pair.distance[0] > 0.1:
                break
        normal = (pair.p_j[0] - pair.p_i[0]) / pair.distance[0]
        cases.append((a, Superquadric.create(
            b.eps, b.axes, b.center - (pair.distance[0] - gap) * normal, b.pose.rotation)))
    return cases


def parallel_boxes(rng, dim, gap):
    """Two boxy shapes (eps = 0.1) in one random rotation whose facing flat
    faces are parallel, gap apart and offset sideways."""
    axes = [np.sort(rng.uniform(0.2, 1.5, dim)) for _ in range(2)]
    rotation = rng.uniform(-np.pi, np.pi, 1 if dim == 2 else 3)
    a = Superquadric.create([0.1] * (dim - 1), axes[0], rng.uniform(-1.0, 1.0, dim), rotation)
    k = rng.integers(dim)
    offset = rng.uniform(-0.3, 0.3, dim) * np.minimum(*axes)
    offset[k] = axes[0][k] + axes[1][k] + gap
    centre = a.center + a.pose.matrix @ offset
    return a, Superquadric.create([0.1] * (dim - 1), axes[1], centre, rotation)


def recorded_lower_bounds(monkeypatch, sides):
    """The full solve of a pair stack and, per pair, the greatest lower bound
    u.x(u) / |u| over the support directions u that it evaluated, with x(u)
    = s_A(-u) - s_B(u): read from its support calls, pairs told apart by
    their centres."""
    rows = {(i.tobytes(), j.tobytes()): k for k, (i, j) in enumerate(zip(*sides.pos))}
    lower = np.full(len(rows), -np.inf)
    support = proximity.support_points

    def recorded(rot, pos, axes, q, d):
        out = support(rot, pos, axes, q, d)
        pos, d = np.broadcast_arrays(pos, d)
        u, x = d[1], out[0] - out[1]
        bounds = np.einsum("...i,...i->...", u, x) / np.linalg.norm(u, axis=-1)
        dim = pos.shape[-1]
        for b, i, j in zip(bounds.ravel(), pos[0].reshape(-1, dim), pos[1].reshape(-1, dim)):
            k = rows[i.tobytes(), j.tobytes()]
            lower[k] = max(lower[k], b)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(proximity, "support_points", recorded)
        result = closest_pair_arrays(sides)
    return result, lower


ROUNDING = 1e-13  # a few ulps of coordinates up to about 20 m


@pytest.mark.parametrize("dim", [2, 3])
def test_polished_solve_is_certified_and_matches_the_plain_kernel(dim, monkeypatch):
    rng = np.random.default_rng(110 + dim)
    cases = polish_cases(dim, rng)
    sides = stack_pairs([a for a, _ in cases], [b for _, b in cases])
    got, lower = recorded_lower_bounds(monkeypatch, sides)
    plain = plain_closest_pair_arrays(sides)
    d = got.distance
    assert got.converged.all() and np.all(got.iterations <= plain.iterations)
    assert np.all(got.newton_steps <= got.iterations)
    assert np.count_nonzero(got.newton_steps) > len(cases) // 2
    assert got.iterations.sum() < 0.7 * plain.iterations.sum()
    # the witnesses attain the distance, and every bound seen is below it
    assert np.allclose(d, np.linalg.norm(got.p_i - got.p_j, axis=1), rtol=1e-15, atol=0.0)
    assert np.all(lower <= np.minimum(d, plain.distance) + ROUNDING)
    # off contact the gap to the greatest bound seen is within REL_TOL, and
    # the distance within 2 REL_TOL of plain GJK's; nearer, GJK stops on
    # rounding and the least |x| seen is no larger than its last
    far = plain.distance >= 1e-6
    assert np.count_nonzero(far) >= 0.7 * len(cases) and np.count_nonzero(~far) >= 10
    assert np.all((d - lower)[far] <= proximity.REL_TOL * d[far] + ROUNDING)
    assert np.all(np.abs(d - plain.distance)[far] <= 2 * proximity.REL_TOL * d[far] + ROUNDING)
    assert np.all(d[~far] <= plain.distance[~far] + ROUNDING)


@pytest.mark.parametrize("dim", [2, 3])
def test_polished_solve_does_not_depend_on_the_batch(dim):
    rng = np.random.default_rng(120 + dim)
    cases = polish_cases(dim, rng, 20) + oracle_cases(dim, (0.1, 2.0), rng)
    alone = [closest_pair_arrays(stack_pairs([a], [b])) for a, b in cases]
    assert any(x.newton_steps[0] for x in alone)
    for perm in (rng.permutation(len(cases)), np.arange(len(cases))[::-1],
                 np.arange(1, len(cases), 2)):
        got = closest_pair_arrays(stack_pairs([cases[k][0] for k in perm],
                                              [cases[k][1] for k in perm]))
        for row, k in enumerate(perm):
            assert all(np.array_equal(x[row], y[0], equal_nan=True)
                       for x, y in zip(got, alone[k]))


@pytest.mark.parametrize("dim", [2, 3])
def test_tolerance_threshold_and_bound_solves_are_plain_gjk(dim):
    rng = np.random.default_rng(130 + dim)
    cases = threshold_cases(dim, rng) + polish_cases(dim, rng, 20)
    sides = stack_pairs([a for a, _ in cases], [b for _, b in cases])
    least = plain_closest_pair_arrays(sides).distance.min()
    for options in ((1e-9, None, None), (1e-3, None, None), (0.0, proximity.OVERLAP_TOL, None),
                    (0.0, 0.1, None), (1e-4, 0.0, None), (0.0, None, np.inf),
                    (1e-6, None, least + 1e-6)):
        got = closest_pair_arrays(sides, *options)
        want = plain_closest_pair_arrays(sides, *options)
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(got, want))
        assert not got.newton_steps.any()


@pytest.mark.parametrize("dim", [2, 3])
def test_polish_on_parallel_flat_faces_near_contact_and_containment(dim):
    # rotated boxy shapes with parallel faces are where GJK converges only
    # linearly and Newton on the normal stalls; down to 1e-9 m apart, and
    # a small box inside a large one
    rng = np.random.default_rng(140 + dim)
    cases = [parallel_boxes(rng, dim, gap) for gap in (1.0, 0.1, 1e-3, 1e-6, 1e-9)
             for _ in range(6)]
    outer, inner = parallel_boxes(rng, dim, 0.5)
    inner = Superquadric.create(inner.eps, inner.axes * 0.1, outer.center, [0.3] * (2 * dim - 3))
    cases += [(outer, inner), (inner, outer)]
    sides = stack_pairs([a for a, _ in cases], [b for _, b in cases])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = closest_pair_arrays(sides)
    plain = plain_closest_pair_arrays(sides)
    assert got.converged.all() and all(np.isfinite(x).all() for x in got[:5])
    assert np.all(got.iterations <= plain.iterations)
    assert got.iterations.max() <= proximity.MAX_ITER and np.count_nonzero(got.newton_steps) > 10
    assert np.all(got.distance[-2:] == 0.0)
    # GJK on long thin simplices along the faces stops on rounding below
    # 1e-3 m, and the least |x| seen is no larger than its last
    d, far = got.distance[:-2], plain.distance[:-2] >= 1e-3
    assert np.all(np.abs(d - plain.distance[:-2])[far] <= 2 * proximity.REL_TOL * d[far]
                  + ROUNDING)
    assert np.all(d[~far] <= plain.distance[:-2][~far] + ROUNDING)


def test_newton_steps_that_do_not_help_hand_the_pair_back_to_gjk(monkeypatch):
    # steps that turn the normal away never shrink |x| - n.x, so each pair
    # takes two Newton steps at most and GJK alone finishes it, with no
    # more iterations than plain GJK and the same distance
    def astray(n, tangents, x):
        m = n + 0.5 * tangents[0]
        return m / np.linalg.norm(m, axis=1, keepdims=True), np.ones(len(n), bool)

    rng = np.random.default_rng(150)
    cases = polish_cases(3, rng, 20) + polish_cases(2, rng, 20)
    for batch in (cases[:20], cases[20:]):
        sides = stack_pairs([a for a, _ in batch], [b for _, b in batch])
        plain = plain_closest_pair_arrays(sides)
        with monkeypatch.context() as patch:
            patch.setattr(proximity, "_newton_normals", astray)
            got = closest_pair_arrays(sides)
        assert got.converged.all() and got.newton_steps.max() == 2
        assert np.all(got.iterations <= plain.iterations)
        far = plain.distance >= 1e-6
        assert np.all(np.abs(got.distance - plain.distance)[far]
                      <= 2 * proximity.REL_TOL * got.distance[far] + ROUNDING)


def test_polish_stays_within_the_iteration_cap(monkeypatch):
    rng = np.random.default_rng(160)
    cases = polish_cases(3, rng, 20)
    sides = stack_pairs([a for a, _ in cases], [b for _, b in cases])
    full = closest_pair_arrays(sides)
    for cap in (1, 2, 5, 8):
        monkeypatch.setattr(proximity, "MAX_ITER", cap)
        got = closest_pair_arrays(sides)
        assert got.iterations.max() <= cap and np.all(got.newton_steps <= got.iterations)
        assert np.all(got.iterations[~got.converged] == cap) and not got.converged.all()
        # a capped pair reports the least |x| seen: a distance, not a bound below one
        assert np.all(got.distance >= full.distance - ROUNDING)
