"""Plain-text formats for clouds, samples, and solved weights.

One point per line, whitespace-separated reals: n columns for bare clouds,
2n for oriented samples (point then normal), n + r*n for framed samples
(point then frame rows), 2n + 1 for solved weights (point, normal, tau).
Lines starting with '#' are comments; a header comment carries
`dim=<n> codim=<r>`; weight files add the `tau` flag and the tags of their
construction (`collar eps=...`, `tube r=... q=... eps=...`, `manifold=s2`,
`offset=...`).
A data line that does not read is named by its line number in the file, and
a header tag that does not read by the file and the tag.
Floats are written with 17 significant digits so files round-trip losslessly
and regeneration under identical flags is byte-identical; ``write_csv``
writes the command-line tables (indicator, study) in the same 17 digits.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import FramedSample, OrientedSample, PointCloud

_FMT = "%.17g"


def _write(path, header: str, data: np.ndarray):
    # one format call per row writes the text of _FMT per value; converting
    # a row at a time keeps the whole matrix out of Python floats
    data = np.atleast_2d(data)
    line = " ".join([_FMT] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(line % tuple(row.tolist()))


def _parse(path):
    """Return (data matrix, header dict, flag set) for one text file."""
    meta, flags, rows, numbers = {}, set(), [], []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
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
            rows.append(line)
            numbers.append(number)
    # loadtxt only warns on no rows; a '#' after data values stays an error
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(rows, ndmin=2, comments=None), meta, flags
    except ValueError:
        # name the first unreadable or ragged data line by its line in the file,
        # read alone by the parser that failed
        width = len(rows[0].split())
        for number, row in zip(numbers, rows):
            try:
                np.loadtxt([row], comments=None)
            except ValueError as bad:
                why = str(bad).replace(" at row 0,", ",")  # row 0 of the one-line read
                raise ValueError(f"{path}, line {number}: {why}") from None
            if len(row.split()) != width:
                raise ValueError(f"{path}, line {number}: {len(row.split())} values, "
                                 f"the first data line has {width}") from None
        raise


def write_csv(path, header: list, rows):
    """Header and rows as CSV, CRLF-ended as csv's excel dialect; floats by _FMT, else by str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row) + "\r\n")


def header_tag(path, meta: dict, key: str, kind=int, default=None):
    """Header tag ``key`` read as ``kind`` (int or float), or ``default`` without the tag."""
    if key not in meta:
        return default
    try:
        return kind(meta[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: header tag {key}={meta[key]} is not {what}") from None


def _header(dim: int, codim: int = 1, extra: str = "") -> str:
    text = f"# dim={dim} codim={codim}"
    return text + (" " + extra if extra else "")


def write_cloud(path, cloud: PointCloud):
    _write(path, _header(cloud.dim), cloud.points)


def read_cloud(path) -> PointCloud:
    data, meta, _ = _parse(path)
    dim = header_tag(path, meta, "dim", default=data.shape[1])
    if data.shape[1] != dim:
        raise ValueError(f"{path}: expected {dim} columns for a bare cloud")
    return PointCloud(data)


def write_oriented(path, sample: OrientedSample, extra: str = ""):
    _write(path, _header(sample.dim, extra=extra), np.hstack([sample.points, sample.normals]))


def read_oriented(path) -> OrientedSample:
    data, meta, _ = _parse(path)
    dim = header_tag(path, meta, "dim", default=data.shape[1] // 2)
    if data.shape[1] != 2 * dim:
        raise ValueError(f"{path}: expected {2 * dim} columns for an oriented sample")
    return OrientedSample(PointCloud(data[:, :dim]), data[:, dim:])


def write_framed(path, framed: FramedSample):
    n, r = framed.dim, framed.codim
    flat = framed.frames.reshape(len(framed), r * n)
    _write(path, _header(n, codim=r), np.hstack([framed.points, flat]))


def read_framed(path) -> FramedSample:
    data, meta, _ = _parse(path)
    if "dim" not in meta or "codim" not in meta:
        raise ValueError(f"{path}: framed samples need a '# dim=<n> codim=<r>' header")
    dim, r = header_tag(path, meta, "dim"), header_tag(path, meta, "codim")
    if data.shape[1] != dim + r * dim:
        raise ValueError(f"{path}: expected {dim + r * dim} columns for codim {r}")
    frames = data[:, dim:].reshape(-1, r, dim)
    return FramedSample(PointCloud(data[:, :dim]), frames)


@dataclass(frozen=True)
class WeightRecord:
    """Read-side view of a solved-weights file."""

    points: np.ndarray
    normals: np.ndarray
    tau: np.ndarray
    offset: float | None
    meta: dict
    flags: frozenset


def write_weights(path, points: np.ndarray, tau: np.ndarray, normals: np.ndarray,
                  offset: float | None = None, extra: str = ""):
    points = np.asarray(points, dtype=float)
    blocks = [points, np.asarray(normals, dtype=float), np.asarray(tau, dtype=float)[:, None]]
    tags = "tau" + (f" offset={_FMT % offset}" if offset is not None else "")
    if extra:
        tags += " " + extra
    _write(path, _header(points.shape[1], extra=tags), np.hstack(blocks))


def read_weights(path) -> WeightRecord:
    data, meta, flags = _parse(path)
    if "tau" not in flags:
        raise ValueError(f"{path}: weight files need the 'tau' header flag")
    dim = header_tag(path, meta, "dim", default=(data.shape[1] - 1) // 2)
    if data.shape[1] != 2 * dim + 1:
        raise ValueError(f"{path}: expected {2 * dim + 1} columns (point, normal, tau)")
    offset = header_tag(path, meta, "offset", float)
    # C-contiguous copies, as a solve's own arrays are: np.dot sums a strided
    # tau in another order, and would miss Pipeline.total by an ulp or two
    record = WeightRecord(points=data[:, :dim].copy(), normals=data[:, dim:-1].copy(),
                          tau=data[:, -1].copy(), offset=offset,
                          meta=meta, flags=frozenset(flags))
    for block in ("points", "normals", "tau", "offset"):
        value = getattr(record, block)
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{path}: the {block} block holds a non-finite value")
    if np.any(record.tau < 0.0):
        raise ValueError(f"{path}: the tau block holds a negative value")
    return record
