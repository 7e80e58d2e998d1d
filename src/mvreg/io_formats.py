"""File formats: PLY point clouds, packed feature files, trajectory logs,
and flat key=value pipeline configuration.

All readers are strict: any mismatch between what a header declares and what
the payload contains is an error, never a silent truncation. Binary formats
are little-endian; text is UTF-8.
"""

from __future__ import annotations

import re
import struct
import warnings
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .config import PipelineConfig
from .errors import (
    MalformedConfig,
    MalformedEntry,
    MalformedHeader,
    NonRigidMatrix,
    TruncatedPayload,
    UnsupportedFormat,
)
from .geometry import PointCloud

FEATURE_MAGIC = b"FEAT"
FEATURE_HEADER_BYTES = 16
DEFAULT_VOXEL_CELL = 0.025

_PLY_NUMPY_CODES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def _parse_ply_header(handle):
    """Returns (is_binary, elements) where each element is
    (name, count, properties) and a property is (kind, name) with kind either
    a scalar type string or the marker "list"."""
    magic = handle.readline()
    if magic.strip() != b"ply":
        raise MalformedHeader("file does not start with a 'ply' line")
    is_binary = None
    elements = []
    current = None
    while True:
        raw = handle.readline()
        if not raw:
            raise MalformedHeader("header ended before 'end_header'")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        if line == "end_header":
            break
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "format":
            if len(tokens) < 2:
                raise MalformedHeader("malformed 'format' line")
            if tokens[1] == "ascii":
                is_binary = False
            elif tokens[1] == "binary_little_endian":
                is_binary = True
            elif tokens[1] == "binary_big_endian":
                raise UnsupportedFormat("big-endian PLY payloads are not supported")
            else:
                raise UnsupportedFormat(f"unknown PLY format '{tokens[1]}'")
        elif keyword == "element":
            if len(tokens) != 3:
                raise MalformedHeader(f"malformed element line: '{line}'")
            try:
                count = int(tokens[2])
            except ValueError as exc:
                raise MalformedHeader(f"non-integer element count in '{line}'") from exc
            if count < 0:
                raise MalformedHeader(f"negative element count in '{line}'")
            current = (tokens[1], count, [])
            elements.append(current)
        elif keyword == "property":
            if current is None:
                raise MalformedHeader("property declared before any element")
            if len(tokens) >= 2 and tokens[1] == "list":
                if len(tokens) != 5:
                    raise MalformedHeader(f"malformed list property: '{line}'")
                current[2].append(("list", tokens[4]))
            elif len(tokens) == 3:
                if tokens[1] not in _PLY_NUMPY_CODES:
                    raise MalformedHeader(f"unknown property type '{tokens[1]}'")
                current[2].append((tokens[1], tokens[2]))
            else:
                raise MalformedHeader(f"malformed property line: '{line}'")
        else:
            # unknown header keywords are tolerated
            continue
    if is_binary is None:
        raise MalformedHeader("header has no 'format' line")
    return is_binary, elements


def _vertex_layout(elements):
    """(index, columns): the position of the single vertex element, and the
    positions of its x, y and z properties, each a float or double."""
    found = [k for k, (name, _, _) in enumerate(elements) if name == "vertex"]
    if len(found) != 1:
        raise MalformedHeader(f"expected one 'vertex' element, found {len(found)}")
    _, count, props = elements[found[0]]
    if count == 0:
        raise MalformedHeader("the vertex element declares 0 rows")
    names = [name for _, name in props]
    columns = []
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise MalformedHeader(f"vertex element lacks property '{coord}'")
        columns.append(names.index(coord))
        if props[columns[-1]][0] not in ("float", "float32", "double", "float64"):
            raise MalformedHeader(f"vertex property '{coord}' must be float or double")
    return found[0], columns


def read_ply(path) -> PointCloud:
    """Point coordinates from an ascii or binary_little_endian PLY file.

    Properties other than x, y, z and elements other than vertex are skipped.
    """
    with open(path, "rb") as handle:
        is_binary, elements = _parse_ply_header(handle)
        index, columns = _vertex_layout(elements)
        body = handle.read()
    _, count, props = elements[index]

    if is_binary:
        for name, _, element_props in elements:
            if any(kind == "list" for kind, _ in element_props):
                raise UnsupportedFormat(f"binary list property in element '{name}' has no fixed size")
        dtypes = [np.dtype([(f"f{k}", "<" + _PLY_NUMPY_CODES[kind]) for k, (kind, _) in enumerate(p)])
                  for _, _, p in elements]
        sizes = [n * dtype.itemsize for (_, n, _), dtype in zip(elements, dtypes)]
        if len(body) != sum(sizes):
            raise TruncatedPayload(f"payload holds {len(body)} bytes but the header declares {sum(sizes)}")
        rows = np.frombuffer(body, dtype=dtypes[index], count=count, offset=sum(sizes[:index]))
        points = np.column_stack([rows[f"f{k}"].astype(np.float64) for k in columns])
    else:
        lines = body.decode("ascii", errors="replace").splitlines()
        declared = sum(n for _, n, _ in elements)
        if len(lines) < declared:
            raise TruncatedPayload(f"the header declares {declared} rows but the file ends after {len(lines)}")
        if any(line.strip() for line in lines[declared:]):
            raise TruncatedPayload("file holds data beyond the declared elements")
        if any(kind == "list" for kind, _ in props):
            raise UnsupportedFormat("list properties on the vertex element are not supported")
        start = sum(n for _, n, _ in elements[:index])
        points = np.empty((count, 3))
        for r, line in enumerate(lines[start:start + count]):
            tokens = line.split()
            if len(tokens) != len(props):
                raise TruncatedPayload(
                    f"vertex row {r} has {len(tokens)} values, expected {len(props)}"
                )
            try:
                points[r] = [float(tokens[k]) for k in columns]
            except ValueError as exc:
                raise TruncatedPayload(f"vertex row {r} holds a non-numeric value") from exc
    if not np.all(np.isfinite(points)):
        raise MalformedEntry("vertex coordinates must be finite")
    return PointCloud(points)


def write_ply(cloud, path, binary: bool = False):
    """Write coordinates as double precision (round-trips are bitwise exact)."""
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {points.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            handle.write(np.ascontiguousarray(points, dtype="<f8").tobytes())
        else:
            body = "\n".join("%.17g %.17g %.17g" % tuple(row) for row in points)
            handle.write((body + "\n").encode("ascii"))


def read_features(path) -> np.ndarray:
    """N x D float32 descriptor matrix from a FEAT file, widened to float64."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < FEATURE_HEADER_BYTES or data[:4] != FEATURE_MAGIC:
        raise MalformedHeader("not a FEAT file (bad magic or incomplete header)")
    n, d, reserved = struct.unpack("<III", data[4:FEATURE_HEADER_BYTES])
    if reserved != 0:
        raise MalformedHeader(f"reserved header field must be 0, got {reserved}")
    expected = n * d * 4
    actual = len(data) - FEATURE_HEADER_BYTES
    if actual != expected:
        raise TruncatedPayload(f"payload holds {actual} bytes but the header declares {expected}")
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=FEATURE_HEADER_BYTES)
    if not np.all(np.isfinite(values)):
        raise MalformedEntry("feature values must be finite")
    return values.astype(np.float64).reshape(n, d)


def write_features(features, path):
    """Write an N x D matrix as 'FEAT', u32 N, u32 D, u32 0, float32 payload."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(struct.pack("<III", arr.shape[0], arr.shape[1], 0))
        handle.write(arr.tobytes())


@dataclass(frozen=True, eq=False)
class TrajectoryEntry:
    """One trajectory record: metadata triplet plus a 4x4 motion matrix."""

    i: int
    j: int
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64)
        if mat.shape != (4, 4):
            raise ValueError(f"matrix must be 4x4, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def read_trajectory(path) -> list[TrajectoryEntry]:
    """Entries of a text trajectory: one 'i j n' line then 4 matrix rows each.

    A rotation block that fails the orthonormality check at 1e-6 triggers a
    NonRigidMatrix warning but the entry is still returned.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln.strip() for ln in handle if ln.strip()]
    entries = []
    cursor = 0
    while cursor < len(lines):
        meta = lines[cursor].split()
        if len(meta) != 3:
            raise MalformedEntry(f"expected metadata line 'i j n', got '{lines[cursor]}'")
        try:
            i, j, n = (int(tok) for tok in meta)
        except ValueError as exc:
            raise MalformedEntry(f"non-integer metadata in '{lines[cursor]}'") from exc
        if cursor + 5 > len(lines):
            raise MalformedEntry(f"entry ({i}, {j}, {n}) is missing matrix rows")
        rows = []
        for r in range(1, 5):
            tokens = lines[cursor + r].split()
            if len(tokens) != 4:
                raise MalformedEntry(
                    f"matrix row {r} of entry ({i}, {j}, {n}) has {len(tokens)} values, expected 4"
                )
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as exc:
                raise MalformedEntry(
                    f"non-numeric matrix value in entry ({i}, {j}, {n})"
                ) from exc
        matrix = np.array(rows)
        if not np.all(np.isfinite(matrix)):
            raise MalformedEntry(f"entry ({i}, {j}, {n}) holds non-finite values")
        if np.linalg.norm(matrix[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9:
            raise MalformedEntry(
                f"entry ({i}, {j}, {n}) bottom row must be (0, 0, 0, 1), got {matrix[3]}"
            )
        rot = matrix[:3, :3]
        if (
            np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-6
            or abs(np.linalg.det(rot) - 1.0) > 1e-6
        ):
            warnings.warn(
                NonRigidMatrix(f"entry ({i}, {j}, {n}) rotation block is not in SO(3)")
            )
        entries.append(TrajectoryEntry(i, j, n, matrix))
        cursor += 5
    return entries


def write_trajectory(entries, path):
    """Write entries with 17 significant digits so floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(f"{entry.i} {entry.j} {entry.n}\n")
            for row in entry.matrix:
                handle.write(" ".join("%.17g" % v for v in row) + "\n")


def trajectory_from_motions(motions) -> list[TrajectoryEntry]:
    """Absolute poses as trajectory entries (i, i, n)."""
    motions = list(motions)
    return [TrajectoryEntry(i, i, len(motions), m.matrix) for i, m in enumerate(motions)]


# scan indices are runs of ASCII digits: int() also takes signs, "_" and other scripts
_INDEX_PAIR = re.compile(r"([0-9]+)(?:-|\s+)([0-9]+)", re.ASCII)


def parse_index_pair(text: str, what: str) -> tuple[int, int]:
    """Scan indices (i, j) from 'i-j' or 'i j': two runs of ASCII digits joined
    by one '-' or by whitespace. Anything else raises ValueError about `what`."""
    match = _INDEX_PAIR.fullmatch(text)
    if match is None:
        raise ValueError(f"{what} '{text}' is not 'i j' or 'i-j' with scan indices i, j >= 0")
    return int(match[1]), int(match[2])


def _parse_connectivity(value: str):
    chunks = [chunk.strip() for chunk in value.split(",")]
    return tuple(parse_index_pair(c, "connectivity entry") for c in chunks if c)


# every PipelineConfig field but connectivity is a float
_CONFIG_PARSERS = {
    f.name: _parse_connectivity if f.name == "connectivity" else float
    for f in dataclass_fields(PipelineConfig)
}


def read_config(path) -> PipelineConfig:
    """Flat key=value file; every key must name a PipelineConfig field, at
    most once, and the keys it omits keep PipelineConfig's defaults."""
    overrides, key_lines = {}, {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedConfig(f"line {lineno} is not of the form key=value: '{line}'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_PARSERS:
                raise MalformedConfig(f"unknown configuration key '{key}' on line {lineno}")
            if key in key_lines:
                raise MalformedConfig(f"key '{key}' on line {lineno} repeats line {key_lines[key]}")
            key_lines[key] = lineno
            try:
                overrides[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise MalformedConfig(f"bad value for '{key}' on line {lineno}: {exc}") from exc
    try:
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise MalformedConfig(str(exc)) from exc


def voxel_downsample(cloud: PointCloud, cell: float = DEFAULT_VOXEL_CELL) -> PointCloud:
    """Average points (and features) within each occupied voxel of size cell."""
    if not 0.0 < cell < np.inf:
        raise ValueError(f"cell size must be a positive finite number, got {cell}")
    # voxel indices beyond int64 would all cast to one value and merge every point
    if not float(np.abs(cloud.points).max()) < 2.0**62 * cell:
        raise ValueError(f"cell size {cell} is too small for the cloud's coordinates")
    keys = np.floor(cloud.points / cell).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    k = counts.shape[0]
    pts = np.zeros((k, 3))
    np.add.at(pts, inverse, cloud.points)
    pts /= counts[:, None]
    feats = None
    if cloud.features is not None:
        feats = np.zeros((k, cloud.features.shape[1]))
        np.add.at(feats, inverse, cloud.features)
        feats /= counts[:, None]
    return PointCloud(pts, feats)
