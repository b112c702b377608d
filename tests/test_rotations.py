import numpy as np
import pytest

from oracles import hat, reference_exp_so3, reference_log_so3
from sqplan.rotations import (canonical_rotvec, exp_so3, exp_so3_batch, log_so3,
                              log_so3_batch, rot2d, wrap_angle)


def random_rotvecs(rng, n):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, np.pi - 1e-6, size=(n, 1))
    return axes * angles


def test_rot2d_basic():
    r = rot2d(np.pi / 2.0)
    assert np.allclose(r @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-12)
    assert np.allclose(rot2d(0.0), np.eye(2), atol=1e-15)


def test_hat_antisymmetric():
    v = np.array([0.3, -1.2, 2.0])
    h = hat(v)
    assert np.allclose(h, -h.T)
    w = np.array([1.0, 0.5, -0.25])
    assert np.allclose(h @ w, np.cross(v, w), atol=1e-15)


def test_exp_batch_matches_single():
    # bit-equal to the scalar formula, one vector at a time or as a stack
    rng = np.random.default_rng(4)
    vs = np.concatenate([random_rotvecs(rng, 20), 1e-13 * rng.normal(size=(5, 3)),
                         np.zeros((1, 3))])
    want = np.stack([reference_exp_so3(v) for v in vs])
    assert np.array_equal(exp_so3_batch(vs), want)
    assert np.array_equal(np.stack([exp_so3(v) for v in vs]), want)


def test_exp_identity_and_quarter_turn():
    assert np.allclose(exp_so3(np.zeros(3)), np.eye(3), atol=1e-15)
    r = exp_so3(np.array([0.0, 0.0, np.pi / 2.0]))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(0)
    vs = random_rotvecs(rng, 2000)
    for v in vs:
        r = exp_so3(v)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)
        back = log_so3(r)
        assert np.linalg.norm(back - v) <= 1e-9


def test_log_near_pi():
    v = np.array([0.0, 1.0, 0.0]) * (np.pi - 1e-8)
    r = exp_so3(v)
    back = log_so3(r)
    assert np.linalg.norm(exp_so3(back) - r) <= 1e-7


def test_log_rejects_non_rotation():
    with pytest.raises(ValueError):
        log_so3(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        log_so3(np.diag([1.0, 1.0, -1.0]))


def extraction_branch(r):
    """The row of the quaternion extraction that r takes (3 for the trace,
    else the largest diagonal element's index), and whether qw < 0 there."""
    t, d = np.trace(r), np.diag(r)
    if np.all(t > d):
        return 3, False
    i = int(np.argmax(d))
    j, k = (i + 1) % 3, (i + 2) % 3
    return i, r[k, j] - r[j, k] < 0.0


def test_log_batch_matches_single_on_every_branch():
    # bit-equal to the scalar extraction, as a stack or one matrix at a
    # time: small angles (trace row), turns near and at pi about each axis,
    # either way round (each diagonal row, qw < 0 on the negative axis),
    # generic turns, the identity and turns below the zero-angle cut
    rng = np.random.default_rng(8)
    vs = [random_rotvecs(rng, 40), 1e-13 * rng.normal(size=(3, 3)), np.zeros((1, 3))]
    for axis in np.eye(3):
        for sign in (1.0, -1.0):
            tilted = sign * (axis + 0.05 * rng.normal(size=(10, 3)))
            tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
            angles = np.pi - rng.uniform(0.0, 1e-3, size=(10, 1))
            vs += [tilted * angles, [sign * np.pi * axis]]
    rs = np.concatenate([exp_so3_batch(np.concatenate(vs)), np.eye(3)[None]])
    branches = [extraction_branch(r) for r in rs]
    assert {b for b, _ in branches} == {0, 1, 2, 3}
    assert {b for b, negative in branches if negative} == {0, 1, 2}
    want = np.stack([reference_log_so3(r) for r in rs])
    assert np.array_equal(log_so3_batch(rs), want)
    assert np.array_equal(np.stack([log_so3(r) for r in rs]), want)
    assert np.sum(np.all(want == 0.0, axis=1)) >= 2  # the identity rows


@pytest.mark.parametrize("bad", [np.eye(3) * 2.0, np.diag([1.0, 1.0, -1.0]),
                                 np.eye(3) + 0.5 * np.eye(3, k=1)])  # the last a shear, det 1
@pytest.mark.parametrize("at", [0, 3, 6])
def test_log_batch_rejects_one_bad_matrix_anywhere_in_a_stack(bad, at):
    rs = exp_so3_batch(random_rotvecs(np.random.default_rng(9), 7))
    rs[at] = bad
    with pytest.raises(ValueError):
        log_so3_batch(rs)


def test_wrap_angle():
    assert np.isclose(wrap_angle(3.0 * np.pi), np.pi) or \
        np.isclose(wrap_angle(3.0 * np.pi), -np.pi)
    assert np.isclose(wrap_angle(0.3), 0.3)
    assert abs(wrap_angle(123.456)) <= np.pi + 1e-12


def test_canonical_rotvec():
    v = np.array([0.0, 0.0, 2.0 * np.pi + 0.5])
    c = canonical_rotvec(v)
    assert np.linalg.norm(c) <= np.pi + 1e-12
    assert np.allclose(exp_so3(c), exp_so3(v), atol=1e-9)
