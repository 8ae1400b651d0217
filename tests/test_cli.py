"""Command-line behavior: determinism, file products, error exits."""

import csv
import re

import numpy as np
import pytest

from surfquad import textio
from surfquad.errors import ClampedMassWarning
from surfquad.geometry import PointCloud, circle_r3_spec, interior_queries
from surfquad.cli import main


def run(args):
    return main([str(a) for a in args])


def test_generate_sphere_file(tmp_path):
    out = tmp_path / "s.txt"
    assert run(["generate", "--fixture", "sphere", "--count", 500, "--seed", 1,
                "-o", out]) == 0
    sample = textio.read_oriented(out)
    assert len(sample) == 500


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert run(["generate", "--fixture", "ellipsoid", "--a", 2, "--b", 1.5,
                    "--c", 1, "--count", 128, "--seed", 7, "-o", path]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_circle_framed_header(tmp_path):
    out = tmp_path / "c.txt"
    assert run(["generate", "--fixture", "circle-r3", "--count", 100, "-o", out]) == 0
    framed = textio.read_framed(out)
    assert framed.codim == 2 and len(framed) == 100


def test_generate_invalid_fixture_count_errors(tmp_path):
    out = tmp_path / "x.txt"
    assert run(["generate", "--fixture", "circle-r3", "--count", 2, "-o", out]) == 1


def test_weights_closed_sphere(tmp_path, capsys):
    s, w = tmp_path / "s.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "sphere", "--count", 400, "-o", s])
    assert run(["weights", "--pipeline", "closed", "--sample", s, "--fixture", "sphere",
                "--query-count", 200, "--query-seed", 3, "-o", w]) == 0
    out = capsys.readouterr().out
    assert "sum of elements" in out
    # 200 queries against 400 unknowns: a wide system
    assert "solver path:     wide-qr\n" in out
    assert re.search(r"negative raw weights: \d+\nremoved mass: +\d", out)
    rec = textio.read_weights(w)
    assert rec.tau.sum() == pytest.approx(4.0 * np.pi, rel=0.02)


def test_weights_collar_doubles_rows(tmp_path):
    s, w = tmp_path / "h.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "hemisphere", "--count", 300, "-o", s])
    with pytest.warns(ClampedMassWarning, match="flipping"):
        assert run(["weights", "--pipeline", "collar", "--sample", s,
                    "--fixture", "hemisphere", "--query-count", 300,
                    "--query-seed", 3, "-o", w]) == 0
    rec = textio.read_weights(w)
    assert len(rec.tau) == 600
    assert "eps" in rec.meta and "collar" in rec.flags


def test_weights_s2_cap_reports_offset(tmp_path, capsys):
    s, w = tmp_path / "cap.txt", tmp_path / "w.txt"
    alpha = np.pi / 3
    run(["generate", "--fixture", "s2-cap", "--alpha", alpha, "--count", 200, "-o", s])
    assert run(["weights", "--pipeline", "s2-cap", "--sample", s, "--alpha", alpha,
                "--query-count", 40, "--query-seed", 2, "-o", w]) == 0
    out = capsys.readouterr().out
    assert "offset c" in out
    assert "solver path:     wide-qr\n" in out
    rec = textio.read_weights(w)
    assert rec.offset == pytest.approx(0.25, abs=0.05)


def test_weights_s2_cap_honours_margin(tmp_path):
    from surfquad.pipelines import solve_manifold_boundary
    from surfquad.riemannian import ManifoldBoundarySample, SphereModel, cap_query_points

    s, w, w_margin = tmp_path / "cap.txt", tmp_path / "w.txt", tmp_path / "wm.txt"
    alpha = np.pi / 3
    run(["generate", "--fixture", "s2-cap", "--alpha", alpha, "--count", 200, "-o", s])
    for out, extra in ((w, []), (w_margin, ["--margin", 0.05])):
        assert run(["weights", "--pipeline", "s2-cap", "--sample", s, "--alpha", alpha,
                    "--query-count", 40, "--query-seed", 2, "-o", out, *extra]) == 0
    assert w.read_bytes() != w_margin.read_bytes()
    # the weights are those of the library solve at the requested margin
    sample = textio.read_oriented(s)
    sol = solve_manifold_boundary(
        ManifoldBoundarySample(sample.cloud, sample.normals), SphereModel(),
        cap_query_points(alpha, 40, 2, side="interior", margin=0.05),
        cap_query_points(alpha, 40, 3, side="exterior", margin=0.05))
    assert np.array_equal(textio.read_weights(w_margin).tau, sol.tau)


def test_s2_cap_rejects_query_files(tmp_path, capsys):
    s, q, w = tmp_path / "cap.txt", tmp_path / "q.txt", tmp_path / "w.txt"
    assert run(["generate", "--fixture", "s2-cap", "--count", 100, "-o", s,
                "--queries", q]) == 1
    assert not q.exists()
    assert not s.exists()
    assert "no interior-query rule" in capsys.readouterr().err
    assert run(["generate", "--fixture", "s2-cap", "--count", 100, "-o", s]) == 0
    textio.write_cloud(q, PointCloud(np.eye(3)))
    assert run(["weights", "--pipeline", "s2-cap", "--sample", s, "--queries", q,
                "-o", w]) == 1
    assert "reads no --queries file" in capsys.readouterr().err
    assert not w.exists()


@pytest.mark.parametrize("pipeline,fixture", [
    ("collar", "hemisphere"), ("tube", "circle-r3"), ("s2-cap", "s2-cap")])
def test_weights_vector_mode_closed_only(tmp_path, capsys, pipeline, fixture):
    s, w = tmp_path / "s.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", fixture, "--count", 100, "-o", s])
    assert run(["weights", "--pipeline", pipeline, "--sample", s, "--mode", "vector",
                "-o", w]) == 1
    assert "--mode vector applies to the closed pipeline only" in capsys.readouterr().err
    assert not w.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("weights", "--softening", 0.3), ("study", "--softening", 0.3),
    ("indicator", "--softening", 0.3), ("weights", "--rhs-mode", "half"),
    ("study", "--rhs-mode", "half"), ("weights", "--policy", "clamp"),
    ("study", "--policy", "keep")])
def test_removed_kernel_and_rhs_flags_are_usage_errors(tmp_path, command, flag, value):
    s, q, w, out = (tmp_path / "s.txt", tmp_path / "q.txt",
                    tmp_path / "w.txt", tmp_path / "out.txt")
    run(["generate", "--fixture", "sphere", "--count", 100, "-o", s,
         "--queries", q, "--query-count", 10])
    sample = textio.read_oriented(s)
    textio.write_weights(w, sample.points, np.full(100, 4.0 * np.pi / 100),
                         normals=sample.normals)
    # each command line is valid without the removed flag
    argv = {
        "weights": ["weights", "--pipeline", "closed", "--sample", s, "--queries", q],
        "study": ["study", "--fixture", "sphere", "--sizes", 100],
        "indicator": ["indicator", "--weights", w, "--queries", q],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([*argv, flag, value, "-o", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_lambda_sets_the_tikhonov_weight(tmp_path, capsys):
    s, w, out = tmp_path / "s.txt", tmp_path / "w.txt", tmp_path / "study.csv"
    run(["generate", "--fixture", "sphere", "--count", 100, "-o", s])
    # lambda = 0 is plain least squares, on a tall system of full rank
    assert run(["weights", "--pipeline", "closed", "--sample", s, "--fixture", "sphere",
                "--query-count", 300, "--lambda", 0, "-o", w]) == 0
    assert "solver path:     lstsq\n" in capsys.readouterr().out
    assert run(["study", "--fixture", "sphere", "--sizes", 100, "--lambda", 1e-3,
                "-o", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda"] for r in rows] == ["0.001"]


def test_fixture_of_another_construction_rejected(tmp_path, capsys):
    s, c, w, wt = (tmp_path / "s.txt", tmp_path / "c.txt",
                   tmp_path / "w.txt", tmp_path / "wt.txt")
    run(["generate", "--fixture", "sphere", "--count", 300, "-o", s])
    capsys.readouterr()
    # a sphere is a closed sample: the tube pipeline must not solve against it
    assert run(["weights", "--pipeline", "tube", "--sample", s, "--fixture", "sphere",
                "-o", w]) == 1
    assert "fixture sphere is a closed sample, not a tube one" in capsys.readouterr().err
    assert not w.exists()
    run(["generate", "--fixture", "circle-r3", "--count", 120, "-o", c])
    assert run(["weights", "--pipeline", "tube", "--sample", c, "--fixture", "circle-r3",
                "-o", wt]) == 0
    capsys.readouterr()
    # tube weights summed against the sphere's reference values
    assert run(["integrate", "--sample", c, "--weights", wt, "--fixture", "sphere"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fixture sphere is a closed sample, not a tube one" in captured.err


def test_indicator_rejects_queries_off_the_sphere(tmp_path, capsys):
    s, w, q, out = (tmp_path / "cap.txt", tmp_path / "w.txt",
                    tmp_path / "q.txt", tmp_path / "chi.csv")
    run(["generate", "--fixture", "s2-cap", "--count", 100, "-o", s])
    run(["weights", "--pipeline", "s2-cap", "--sample", s, "-o", w])
    textio.write_cloud(q, PointCloud(np.array([[0.0, 0.0, 0.5]])))
    assert run(["indicator", "--weights", w, "--queries", q, "-o", out]) == 1
    assert "off the unit sphere" in capsys.readouterr().err
    assert not out.exists()


def test_sphere_nd_fixture_lives_in_rn(tmp_path, capsys):
    s, q, w = tmp_path / "s.txt", tmp_path / "q.txt", tmp_path / "w.txt"
    assert run(["generate", "--fixture", "sphere-nd", "--dim", 4, "--count", 400,
                "--seed", 2, "-o", s, "--queries", q]) == 0
    assert textio.read_cloud(q).dim == 4
    # random points on S^3 do not resolve the indicator at 400 samples
    with pytest.warns(ClampedMassWarning, match="clamping"):
        assert run(["weights", "--pipeline", "closed", "--sample", s, "--fixture", "sphere-nd",
                    "--dim", 4, "-o", w]) == 0
    capsys.readouterr()
    assert run(["integrate", "--sample", s, "--weights", w, "--fixture", "sphere-nd",
                "--dim", 4]) == 0
    assert "reference = 19.7392088" in capsys.readouterr().out


def test_integrate_sphere_reference(tmp_path, capsys):
    s, w = tmp_path / "s.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "sphere", "--count", 500, "-o", s])
    run(["weights", "--pipeline", "closed", "--sample", s, "--fixture", "sphere",
         "--query-count", 250, "--query-seed", 5, "-o", w])
    capsys.readouterr()
    assert run(["integrate", "--sample", s, "--weights", w, "--integrand", "z2",
                "--fixture", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "rel_err" in out
    value = float(out.split("=")[1].split()[0])
    assert value == pytest.approx(4.0 * np.pi / 3.0, rel=0.02)


def test_integrate_tube_length(tmp_path, capsys):
    s, w = tmp_path / "c.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "circle-r3", "--count", 200, "-o", s])
    run(["weights", "--pipeline", "tube", "--sample", s, "--fixture", "circle-r3",
         "--epsilon", 0.05, "--q-directions", 16, "--query-count", 400,
         "--query-seed", 5, "-o", w])
    capsys.readouterr()
    assert run(["integrate", "--sample", s, "--weights", w,
                "--integrand", "const1", "--fixture", "circle-r3"]) == 0
    value = float(capsys.readouterr().out.split("=")[1].split()[0])
    assert value == pytest.approx(2.0 * np.pi, rel=0.05)


def test_integrate_unknown_integrand_rejected(tmp_path, capsys):
    s, w = tmp_path / "s.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "sphere", "--count", 50, "-o", s])
    # 50 points do not resolve the sphere: the set-up solve clamps real mass
    with pytest.warns(ClampedMassWarning, match="clamping"):
        run(["weights", "--pipeline", "closed", "--sample", s, "--fixture", "sphere",
             "--query-count", 50, "-o", w])
    with pytest.raises(SystemExit):
        run(["integrate", "--sample", s, "--weights", w, "--integrand", "bogus"])


def test_integrate_mismatched_files_error(tmp_path):
    s1, s2, w = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "w.txt"
    run(["generate", "--fixture", "sphere", "--count", 50, "-o", s1])
    run(["generate", "--fixture", "sphere", "--count", 60, "-o", s2])
    with pytest.warns(ClampedMassWarning, match="clamping"):
        run(["weights", "--pipeline", "closed", "--sample", s1, "--fixture", "sphere",
             "--query-count", 50, "-o", w])
    assert run(["integrate", "--sample", s2, "--weights", w]) == 1


def test_indicator_csv(tmp_path):
    s, w, q, out = (tmp_path / "s.txt", tmp_path / "w.txt",
                    tmp_path / "q.txt", tmp_path / "chi.csv")
    run(["generate", "--fixture", "sphere", "--count", 300, "-o", s,
         "--queries", q, "--query-count", 40, "--query-seed", 4])
    run(["weights", "--pipeline", "closed", "--sample", s, "--queries", q, "-o", w])
    assert run(["indicator", "--weights", w, "--queries", q, "-o", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "chi"]
    assert len(rows) == 41
    chi = np.array([float(r[-1]) for r in rows[1:]])
    assert np.max(np.abs(chi - 1.0)) < 0.05


def test_indicator_on_cap_weights_uses_sphere_field(tmp_path):
    s, w, q, out = (tmp_path / "cap.txt", tmp_path / "w.txt",
                    tmp_path / "q.txt", tmp_path / "chi.csv")
    alpha = np.pi / 3
    run(["generate", "--fixture", "s2-cap", "--alpha", alpha, "--count", 300, "-o", s])
    run(["weights", "--pipeline", "s2-cap", "--sample", s, "--alpha", alpha,
         "--query-count", 40, "--query-seed", 2, "-o", w])
    # probe both sides: indicator should be ~1 inside the cap, ~0 outside
    from surfquad.riemannian import cap_query_points

    probes = np.vstack([cap_query_points(alpha, 5, seed=9, side="interior").points,
                        cap_query_points(alpha, 5, seed=10, side="exterior").points])
    textio.write_cloud(q, PointCloud(probes))
    assert run(["indicator", "--weights", w, "--queries", q, "-o", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    chi = np.array([float(r[-1]) for r in rows[1:]])
    assert np.max(np.abs(chi[:5] - 1.0)) < 0.05
    assert np.max(np.abs(chi[5:])) < 0.05


def test_indicator_on_tube_weights(tmp_path):
    s, w, q, out = (tmp_path / "c.txt", tmp_path / "w.txt",
                    tmp_path / "q.txt", tmp_path / "chi.csv")
    run(["generate", "--fixture", "circle-r3", "--count", 120, "-o", s])
    assert run(["weights", "--pipeline", "tube", "--sample", s, "--fixture", "circle-r3",
                "--query-seed", 3, "-o", w]) == 0
    eps = float(textio.read_weights(w).meta["eps"])
    inside = interior_queries(circle_r3_spec(), 40, 9, epsilon=eps).points
    # the center of the circle and a point beyond it are far from the tube
    far = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    textio.write_cloud(q, PointCloud(np.vstack([inside, far])))
    assert run(["indicator", "--weights", w, "--queries", q, "-o", out]) == 0
    with open(out, newline="") as fh:
        chi = np.array([float(r[-1]) for r in list(csv.reader(fh))[1:]])
    assert np.max(np.abs(chi[:40] - 1.0)) < 0.1
    assert np.max(np.abs(chi[40:])) < 0.01


def test_study_csv_schema_and_roundtrip(tmp_path):
    out = tmp_path / "study.csv"
    assert run(["study", "--fixture", "sphere", "--sizes", "100,200,400",
                "--query-count", 150, "--margin", 0.5, "-o", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "eps", "lambda", "residual", "integral",
                       "ref", "rel_err", "seconds"]
    assert len(rows) == 4
    parsed = [[float(v) for v in row] for row in rows[1:]]
    assert [int(r[0]) for r in parsed] == [100, 200, 400]
    for r in parsed:
        assert r[5] == pytest.approx(4.0 * np.pi)
        assert r[6] < 0.02


def test_study_rejects_underresolved_codim2_tube(tmp_path):
    # the same guard as `weights --pipeline tube`: the study shares its wiring
    assert run(["study", "--fixture", "circle-r3", "--sizes", 120, "--q-directions", 4,
                "-o", tmp_path / "s.csv"]) == 1
    assert not (tmp_path / "s.csv").exists()


def test_study_empty_sizes_rejected(tmp_path):
    assert run(["study", "--fixture", "sphere", "--sizes", ",",
                "-o", tmp_path / "s.csv"]) == 1


def test_missing_file_errors(tmp_path):
    assert run(["weights", "--pipeline", "closed", "--sample", tmp_path / "no.txt",
                "--fixture", "sphere", "-o", tmp_path / "w.txt"]) == 1
