"""Plain-text formats for clouds, samples, and solved weights.

One point per line, whitespace-separated reals: n columns for bare clouds,
2n for oriented samples (point then normal), n + r*n for framed samples
(point then frame rows). Lines starting with '#' are comments; a header
comment carries `dim=<n> codim=<r>`; weight files add the `tau` flag and
the tags of their construction (`collar eps=...`, `tube r=... q=... eps=...`,
`manifold=s2`, `offset=...`).
Floats are written with 17 significant digits so files round-trip losslessly
and regeneration under identical flags is byte-identical.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import FramedSample, OrientedSample, PointCloud

_FMT = "%.17g"


def _write_matrix(fh, data: np.ndarray):
    for row in np.atleast_2d(data):
        fh.write(" ".join(_FMT % v for v in row) + "\n")


def _parse(path):
    """Return (data matrix, header dict, flag set) for one text file."""
    meta, flags, rows = {}, set(), []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                    else:
                        flags.add(token)
                continue
            rows.append([float(v) for v in line.split()])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=float), meta, flags


def _header(dim: int, codim: int = 1, extra: str = "") -> str:
    text = f"# dim={dim} codim={codim}"
    return text + (" " + extra if extra else "")


def write_cloud(path, cloud: PointCloud):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(cloud.dim) + "\n")
        _write_matrix(fh, cloud.points)


def read_cloud(path) -> PointCloud:
    data, meta, _ = _parse(path)
    dim = int(meta.get("dim", data.shape[1]))
    if data.shape[1] != dim:
        raise ValueError(f"{path}: expected {dim} columns for a bare cloud")
    return PointCloud(data)


def write_oriented(path, sample: OrientedSample, extra: str = ""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(sample.dim, extra=extra) + "\n")
        _write_matrix(fh, np.hstack([sample.points, sample.normals]))


def read_oriented(path) -> OrientedSample:
    data, meta, _ = _parse(path)
    dim = int(meta.get("dim", data.shape[1] // 2))
    if data.shape[1] != 2 * dim:
        raise ValueError(f"{path}: expected {2 * dim} columns for an oriented sample")
    return OrientedSample(PointCloud(data[:, :dim]), data[:, dim:])


def write_framed(path, framed: FramedSample):
    n, r = framed.dim, framed.codim
    flat = framed.frames.reshape(len(framed), r * n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(n, codim=r) + "\n")
        _write_matrix(fh, np.hstack([framed.points, flat]))


def read_framed(path) -> FramedSample:
    data, meta, _ = _parse(path)
    if "dim" not in meta or "codim" not in meta:
        raise ValueError(f"{path}: framed samples need a '# dim=<n> codim=<r>' header")
    dim, r = int(meta["dim"]), int(meta["codim"])
    if data.shape[1] != dim + r * dim:
        raise ValueError(f"{path}: expected {dim + r * dim} columns for codim {r}")
    frames = data[:, dim:].reshape(-1, r, dim)
    return FramedSample(PointCloud(data[:, :dim]), frames)


@dataclass(frozen=True)
class WeightRecord:
    """Read-side view of a solved-weights file."""

    points: np.ndarray
    normals: np.ndarray | None
    tau: np.ndarray
    offset: float | None
    meta: dict
    flags: frozenset


def write_weights(path, points: np.ndarray, tau: np.ndarray,
                  normals: np.ndarray | None = None,
                  offset: float | None = None, extra: str = ""):
    points = np.asarray(points, dtype=float)
    blocks = [points] + ([np.asarray(normals, dtype=float)] if normals is not None else [])
    blocks.append(np.asarray(tau, dtype=float)[:, None])
    tags = "tau" + (f" offset={_FMT % offset}" if offset is not None else "")
    if extra:
        tags += " " + extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(points.shape[1], extra=tags) + "\n")
        _write_matrix(fh, np.hstack(blocks))


def read_weights(path) -> WeightRecord:
    data, meta, flags = _parse(path)
    if "tau" not in flags:
        raise ValueError(f"{path}: weight files need the 'tau' header flag")
    dim = int(meta.get("dim", 3))
    cols = data.shape[1]
    if cols == dim + 1:
        normals = None
    elif cols == 2 * dim + 1:
        normals = data[:, dim:-1]
    else:
        raise ValueError(f"{path}: expected {dim + 1} or {2 * dim + 1} columns")
    offset = float(meta["offset"]) if "offset" in meta else None
    return WeightRecord(points=data[:, :dim], normals=normals,
                        tau=data[:, -1], offset=offset,
                        meta=meta, flags=frozenset(flags))
