"""Round trips and header handling for the plain-text formats."""

import re

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


@pytest.mark.parametrize("block, value", [("points", np.inf), ("normals", np.nan),
                                          ("tau", np.nan), ("offset", -np.inf)])
def test_weights_with_a_non_finite_value_rejected(tmp_path, block, value):
    sample = gen_fibonacci_sphere(9)
    arrays = {"points": sample.points.copy(), "normals": sample.normals.copy(),
              "tau": np.full(9, 0.5), "offset": 0.25}
    if block == "offset":
        arrays["offset"] = value
    else:
        arrays[block][4] = value
    path = tmp_path / "weights.txt"
    textio.write_weights(path, **arrays)
    with pytest.raises(ValueError, match=f"weights.txt: the {block} block holds a non-finite"):
        textio.read_weights(path)


def test_weights_with_a_negative_tau_rejected(tmp_path):
    sample = gen_fibonacci_sphere(9)
    tau = np.full(9, 0.5)
    tau[4] = -0.5
    path = tmp_path / "weights.txt"
    textio.write_weights(path, sample.points, tau, normals=sample.normals)
    with pytest.raises(ValueError, match="weights.txt: the tau block holds a negative value"):
        textio.read_weights(path)


def test_weights_with_a_zero_tau_read(tmp_path):
    # a clamped weight is 0, not negative
    sample = gen_fibonacci_sphere(9)
    tau = np.zeros(9)
    path = tmp_path / "weights.txt"
    textio.write_weights(path, sample.points, tau, normals=sample.normals)
    assert np.array_equal(textio.read_weights(path).tau, tau)


@pytest.mark.parametrize("read, header, width, message", [
    (textio.read_cloud, "# dim=abc codim=1", 3, "dim=abc is not an integer"),
    (textio.read_oriented, "# dim=1.5 codim=1", 6, "dim=1.5 is not an integer"),
    (textio.read_framed, "# dim=3 codim=two", 9, "codim=two is not an integer"),
    (textio.read_weights, "# dim=x3 codim=1 tau", 7, "dim=x3 is not an integer"),
    (textio.read_weights, "# dim=3 codim=1 tau offset=zz", 7, "offset=zz is not a number"),
], ids=["cloud-dim", "oriented-dim", "framed-codim", "weights-dim", "weights-offset"])
def test_header_tag_that_does_not_read_names_file_and_tag(tmp_path, read, header, width,
                                                          message):
    path = tmp_path / "f.txt"
    path.write_text(header + "\n" + " ".join(["0.5"] * width) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"f.txt: header tag {message}")):
        read(path)


def test_weights_without_normals(tmp_path):
    # every weight file carries normals: point, normal, tau
    pts = np.random.default_rng(1).standard_normal((5, 3))
    path = tmp_path / "w.txt"
    path.write_text("# dim=3 codim=1 tau\n"
                    + "".join(f"{x} {y} {z} 1\n" for x, y, z in pts))
    with pytest.raises(ValueError, match="expected 7 columns"):
        textio.read_weights(path)


def test_weights_dimension_from_columns_without_dim_header(tmp_path):
    # a header without dim= reads n from the 2n + 1 columns, as oriented samples do
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((6, 4))
    nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    tau = rng.random(6)
    path = tmp_path / "w4.txt"
    path.write_text("# tau\n" + "".join(" ".join("%.17g" % v for v in row) + "\n"
                                         for row in np.hstack([pts, nrm, tau[:, None]])))
    rec = textio.read_weights(path)
    assert rec.points.shape == (6, 4)
    assert np.array_equal(rec.points, pts)
    assert np.array_equal(rec.normals, nrm)
    assert np.array_equal(rec.tau, tau)


def test_trailing_comment_on_data_line_rejected(tmp_path):
    path = tmp_path / "note.txt"
    path.write_text("# dim=3 codim=1\n1 0 0\n0 1 0 # note\n")
    with pytest.raises(ValueError):
        textio.read_cloud(path)


def test_crlf_reads_as_lf(tmp_path):
    text = "# dim=3 codim=1 tau\n0.5 0 0 1 0 0 0.25\n\n0 -1 0 0 -1 0 2e-3\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    a, b = textio.read_weights(lf), textio.read_weights(crlf)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.tau, b.tau)
    assert a.meta == b.meta and a.flags == b.flags


def test_parsed_values_match_python_float_bitwise(tmp_path):
    # the reference is float() per token, which the reader used before numpy's
    tokens = ["-0.0", "5e-324", "-4.9406564584124654e-324", "1.7976931348623157e308",
              "0.1", "1e-310", "123456789012345678901234567890", "2.2250738585072011e-308",
              "-1E5", "+.5", "nan", "-inf"]
    rng = np.random.default_rng(4)
    tokens += ["%.17g" % v for v in rng.standard_normal(36) * 10.0 ** rng.integers(-30, 30, 36)]
    rows = [tokens[k:k + 4] for k in range(0, len(tokens), 4)]
    path = tmp_path / "vals.txt"
    path.write_text("# dim=4\n" + "".join(" ".join(r) + "\n" for r in rows))
    ref = np.array([[float(t) for t in r] for r in rows])
    parsed, _, _ = textio._parse(path)
    assert np.array_equal(parsed.view(np.uint64), ref.view(np.uint64))


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


def test_matrix_text_matches_per_value_format(tmp_path):
    # one format per row writes what "%.17g" writes per value, for signed
    # zeros, subnormals, huge and negative values alike
    data = np.array([[-0.0, 5e-324, 1e300, -1.5],
                     [0.1, -2.0 / 3.0, -1e-300, 0.0],
                     [np.pi, -5e-324, -1e300, 123456789.0]])
    path = tmp_path / "cloud.txt"
    textio.write_cloud(path, PointCloud(data))
    body = path.read_text(encoding="utf-8").split("\n", 1)[1]
    assert body == "".join(" ".join("%.17g" % v for v in row) + "\n" for row in data)
    assert np.array_equal(textio.read_cloud(path).points, data)
