from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from oracles import closest_pairs
from sqplan.geometry import (EPS_MAX, EPS_MIN, RigidPose, Superquadric,
                             box_gaps, expand, inside_outside, signed_pow,
                             stack_shapes, surface_point, surface_samples)
from sqplan.poses import robot_pose_at


def test_signed_pow():
    assert np.isclose(signed_pow(2.0, 3.0), 8.0)
    assert np.isclose(signed_pow(-2.0, 3.0), -8.0)
    assert np.isclose(signed_pow(-0.25, 0.5), -0.5)
    assert signed_pow(0.0, 0.7) == 0.0


def test_pose_roundtrip():
    pose = RigidPose.create([1.0, -2.0, 0.5], [0.3, -0.2, 0.9])
    pts = np.random.default_rng(1).normal(size=(40, 3))
    back = pose.inverse_transform(pose.transform(pts))
    assert np.allclose(back, pts, atol=1e-12)


def test_pose_matrix_built_with_the_pose_frozen_and_read_only():
    from sqplan.rotations import exp_so3, rot2d
    pose3 = RigidPose.create([1.0, -2.0, 0.5], [0.3, -0.2, 0.9])
    pose2 = RigidPose.create([1.0, -2.0], [2.5])
    assert np.array_equal(pose3.matrix, exp_so3(pose3.rotation))
    assert np.array_equal(pose2.matrix, rot2d(pose2.rotation[0]))
    for pose in (pose2, pose3):
        assert not pose.matrix.flags.writeable
        with pytest.raises(ValueError):
            pose.matrix[0, 0] = 2.0
        for name in ("position", "rotation", "matrix"):
            with pytest.raises(FrozenInstanceError):
                setattr(pose, name, getattr(pose, name).copy())


def test_axis_relabeling_keeps_exact_rotation():
    # axes given longest first are relabeled by a signed permutation; the
    # matrix stays exact, so an axis-aligned box has exact face centres
    from sqplan.proximity import closest_pair
    from sqplan.rotations import exp_so3, rot2d
    a = Superquadric.create([0.2], [0.055, 0.02], [0.0, 0.0])
    b = Superquadric.create([0.2], [0.055, 0.02], [0.2, 0.0])
    assert np.array_equal(a.pose.matrix, [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(a.pose.matrix, rot2d(a.pose.rotation[0]), atol=1e-15)
    assert not a.pose.matrix.flags.writeable
    pair = closest_pair(a, b)
    assert np.allclose(pair.p_i, [0.055, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(pair.p_j, [0.145, 0.0], rtol=0.0, atol=1e-15)
    box = Superquadric.create([0.5, 0.5], [0.4, 0.2, 0.9], [0.0, 0.0, 0.0])
    r = box.pose.matrix
    assert np.array_equal(np.abs(r), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.linalg.det(r) == 1.0
    assert np.allclose(r, exp_so3(box.pose.rotation), atol=1e-12)


def test_pose_validates_shapes():
    with pytest.raises(ValueError):
        RigidPose.create([1.0])
    with pytest.raises(ValueError):
        RigidPose.create([1.0, 2.0], [0.1, 0.2, 0.3])


def test_create_clamps_eps_and_rejects_bad_axes():
    sq = Superquadric.create([5.0], [0.1, 0.2], [0.0, 0.0])
    assert np.isclose(sq.eps[0], EPS_MAX)
    sq = Superquadric.create([0.01], [0.1, 0.2], [0.0, 0.0])
    assert np.isclose(sq.eps[0], EPS_MIN)
    with pytest.raises(ValueError):
        Superquadric.create([1.0], [0.1, -0.2], [0.0, 0.0])
    with pytest.raises(ValueError):
        Superquadric.create([1.0, 1.0], [0.1, 0.2], [0.0, 0.0])


def test_axes_canonical_ascending_preserves_shape():
    # same ellipse given with swapped axes plus compensating rotation
    a = Superquadric.create([1.0], [0.4, 0.1], [0.0, 0.0], [0.0])
    b = Superquadric.create([1.0], [0.1, 0.4], [0.0, 0.0], [np.pi / 2.0])
    assert np.all(np.diff(a.axes) >= 0.0)
    assert np.all(np.diff(b.axes) >= 0.0)
    pts = np.random.default_rng(2).uniform(-0.5, 0.5, size=(200, 2))
    assert np.allclose(inside_outside(a, pts), inside_outside(b, pts), atol=1e-9)


def test_inside_outside_signs_2d():
    sq = Superquadric.create([0.8], [0.2, 0.5], [1.0, 2.0], [0.3])
    assert inside_outside(sq, sq.center) < 0.0
    assert inside_outside(sq, sq.center + np.array([5.0, 5.0])) > 0.0
    on = surface_point(sq, np.linspace(-np.pi, np.pi, 64, endpoint=False))
    assert np.allclose(inside_outside(sq, on), 0.0, atol=1e-9)


def test_inside_outside_signs_3d():
    sq = Superquadric.create([0.7, 1.4], [0.2, 0.3, 0.5], [0.0, 1.0, -1.0],
                             [0.2, -0.1, 0.4])
    assert inside_outside(sq, sq.center) < 0.0
    assert inside_outside(sq, sq.center + np.array([0.0, 0.0, 3.0])) > 0.0
    eta = np.linspace(-np.pi / 2, np.pi / 2, 11)[1:-1]
    om = np.linspace(-np.pi, np.pi, 12, endpoint=False)
    ee, oo = np.meshgrid(eta, om)
    on = surface_point(sq, np.stack([ee.ravel(), oo.ravel()], axis=-1))
    assert np.allclose(inside_outside(sq, on), 0.0, atol=1e-9)


def test_sphere_surface_points_have_unit_radius():
    sq = Superquadric.create([1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    pts = surface_samples(sq, 100)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_surface_samples_lie_on_surface():
    sq = Superquadric.create([0.3], [0.1, 0.3], [0.2, -0.4], [1.1])
    pts = surface_samples(sq, 200)
    assert pts.shape == (200, 2)
    assert np.allclose(inside_outside(sq, pts), 0.0, atol=1e-9)


def test_expand_contains_original():
    sq = Superquadric.create([0.4, 1.2], [0.2, 0.4, 0.7], [1.0, 0.0, 0.0],
                             [0.1, 0.2, 0.3])
    grown = expand(sq, 0.05)
    assert np.allclose(grown.axes, sq.axes + 0.05)
    pts = surface_samples(sq, 50)
    assert np.all(inside_outside(grown, pts) < 0.0)


def test_world_local_roundtrip():
    sq = Superquadric.create([1.0], [0.2, 0.5], [2.0, -1.0], [0.7])
    local = np.array([0.1, -0.3])
    assert np.allclose(sq.pose.inverse_transform(sq.pose.transform(local)), local,
                       atol=1e-12)


def test_bounding_radius_bounds_surface():
    sq = Superquadric.create([0.2, 1.8], [0.3, 0.5, 0.9], [0.0, 0.0, 0.0],
                             [0.4, 0.4, 0.4])
    pts = surface_samples(sq, 40)
    assert np.all(np.linalg.norm(pts - sq.center, axis=1) <=
                  sq.bounding_radius() + 1e-9)


def test_box_gaps_is_the_distance_to_the_posed_box():
    box = Superquadric.create([0.2], [0.5, 1.0], [1.0, 2.0], [np.pi / 2])
    ball = Superquadric.create([1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    # the box's long axis runs along world x after the quarter turn
    assert np.allclose(box_gaps([[1.0, 2.0], [3.0, 2.0], [1.0, 3.0], [3.0, 3.5]],
                                stack_shapes([box])),
                       [[0.0, 1.0, 0.5, np.hypot(1.0, 1.0)]], atol=1e-12)
    assert np.array_equal(box_gaps([[0.5, 0.5, 0.5], [3.0, 0.0, 0.0]], stack_shapes([ball])),
                          [[0.0, 2.0]])
    assert box_gaps(np.zeros((5, 3)), stack_shapes([])).shape == (0, 5)


@pytest.mark.parametrize("dim", [2, 3])
def test_box_gaps_minus_robot_radius_bounds_the_exact_distance(dim):
    rng = np.random.default_rng(60 + dim)
    k = 1 if dim == 2 else 3
    robots, obstacles, positions = [], [], []
    for trial in range(240):
        boxy = trial % 3 == 0
        obstacle = Superquadric.create(
            np.full(dim - 1, 0.2) if boxy else rng.uniform(0.1, 2.0, dim - 1),
            np.sort(rng.uniform(0.2, 1.5, dim)), rng.uniform(-1.0, 1.0, dim),
            rng.normal(size=k) if trial % 4 else np.zeros(k))
        robot = Superquadric.create(rng.uniform(0.1, 2.0, dim - 1),
                                    np.sort(rng.uniform(0.05, 0.5, dim)), np.zeros(dim))
        # from overlapping to well clear of the obstacle's box
        direction = rng.normal(size=dim)
        reach = obstacle.bounding_radius() + robot.bounding_radius()
        direction *= rng.uniform(0.0, 1.3) * reach / np.linalg.norm(direction)
        position = obstacle.center + direction
        robots.append(robot_pose_at(robot, position, rng.normal(size=k)))
        obstacles.append(obstacle)
        positions.append(position)
    exact = closest_pairs(robots, obstacles).distance
    bound = np.array([box_gaps(p[None], stack_shapes([o]))[0, 0] - r.bounding_radius()
                      for p, o, r in zip(positions, obstacles, robots)])
    sphere = np.array([np.linalg.norm(p - o.center) - o.bounding_radius() - r.bounding_radius()
                       for p, o, r in zip(positions, obstacles, robots)])
    assert np.all(bound <= exact + 1e-12)
    assert np.all(bound >= sphere - 1e-12)
    assert np.sum(exact == 0.0) >= 20 and np.sum(bound > 0.0) >= 20
