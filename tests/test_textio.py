"""Round trips and header handling for the plain-text formats."""

import numpy as np
import pytest

from surfquad import textio
from surfquad.geometry import PointCloud, gen_circle_r3, gen_fibonacci_sphere


def test_cloud_round_trip(tmp_path):
    cloud = PointCloud(np.random.default_rng(0).standard_normal((17, 4)))
    path = tmp_path / "cloud.txt"
    textio.write_cloud(path, cloud)
    back = textio.read_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.dim == 4


def test_oriented_round_trip(tmp_path):
    sample = gen_fibonacci_sphere(23)
    path = tmp_path / "sphere.txt"
    textio.write_oriented(path, sample)
    back = textio.read_oriented(path)
    assert np.array_equal(back.points, sample.points)
    assert np.array_equal(back.normals, sample.normals)


def test_framed_round_trip(tmp_path):
    framed = gen_circle_r3(12)
    path = tmp_path / "circle.txt"
    textio.write_framed(path, framed)
    back = textio.read_framed(path)
    assert back.codim == 2
    assert np.array_equal(back.points, framed.points)
    assert np.array_equal(back.frames, framed.frames)


def test_weights_round_trip_with_offset(tmp_path):
    sample = gen_fibonacci_sphere(9)
    tau = np.linspace(0.1, 0.9, 9)
    path = tmp_path / "weights.txt"
    textio.write_weights(path, sample.points, tau, normals=sample.normals, offset=0.25)
    rec = textio.read_weights(path)
    assert np.array_equal(rec.points, sample.points)
    assert np.array_equal(rec.normals, sample.normals)
    assert np.array_equal(rec.tau, tau)
    assert rec.offset == 0.25


def test_weights_without_normals(tmp_path):
    pts = np.random.default_rng(1).standard_normal((5, 3))
    path = tmp_path / "w.txt"
    textio.write_weights(path, pts, np.ones(5))
    rec = textio.read_weights(path)
    assert rec.normals is None and rec.offset is None
    assert np.array_equal(rec.points, pts)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("# dim=3 codim=1\n\n# a comment\n1 0 0\n\n0 1 0\n")
    cloud = textio.read_cloud(path)
    assert len(cloud) == 2


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n1 2\n")
    with pytest.raises(ValueError):
        textio.read_cloud(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# dim=3\n")
    with pytest.raises(ValueError):
        textio.read_cloud(path)


def test_wrong_column_count_rejected(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# dim=4\n1 2 3\n")
    with pytest.raises(ValueError):
        textio.read_cloud(path)


def test_weight_file_requires_tau_flag(tmp_path):
    sample = gen_fibonacci_sphere(4)
    path = tmp_path / "s.txt"
    textio.write_oriented(path, sample)
    with pytest.raises(ValueError):
        textio.read_weights(path)


def test_manifold_header_preserved(tmp_path):
    sample = gen_fibonacci_sphere(6)
    path = tmp_path / "cap.txt"
    textio.write_weights(path, sample.points, np.ones(6), normals=sample.normals,
                         extra="manifold=s2")
    assert textio.read_weights(path).meta["manifold"] == "s2"
