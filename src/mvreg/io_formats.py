"""File formats: PLY point clouds, packed feature files, trajectory logs,
and flat key=value pipeline configuration.

All readers are strict: any mismatch between what a header declares and what
the payload contains is an error, never a silent truncation. Binary formats
are little-endian; text is UTF-8.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace as dataclass_replace, fields as dataclass_fields

import numpy as np

from .config import CONFIG_FIELD_NAMES, PipelineConfig
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
    for name, count, props in elements:
        if name == "vertex":
            prop_names = [p[1] for p in props]
            for coord in ("x", "y", "z"):
                if coord not in prop_names:
                    raise MalformedHeader(f"vertex element lacks property '{coord}'")
                kind = props[prop_names.index(coord)][0]
                if kind not in ("float", "float32", "double", "float64"):
                    raise MalformedHeader(f"vertex property '{coord}' must be float or double")
            return name, count, props
    raise MalformedHeader("no 'vertex' element declared")


def read_ply(path) -> PointCloud:
    """Point coordinates from an ascii or binary_little_endian PLY file.

    Properties other than x, y, z and elements other than vertex are skipped.
    """
    with open(path, "rb") as handle:
        is_binary, elements = _parse_ply_header(handle)
        _vertex_layout(elements)
        body = handle.read()

    if is_binary:
        for name, count, props in elements:
            if any(kind == "list" for kind, _ in props):
                raise UnsupportedFormat(
                    f"binary list property in element '{name}' has no fixed size"
                )
        expected = sum(
            count * sum(np.dtype(_PLY_NUMPY_CODES[kind]).itemsize for kind, _ in props)
            for name, count, props in elements
        )
        if len(body) != expected:
            raise TruncatedPayload(
                f"payload holds {len(body)} bytes but the header declares {expected}"
            )
        offset = 0
        points = None
        for name, count, props in elements:
            row_dtype = np.dtype(
                [(f"f{k}", "<" + _PLY_NUMPY_CODES[kind]) for k, (kind, _) in enumerate(props)]
            )
            size = count * row_dtype.itemsize
            if name == "vertex":
                rows = np.frombuffer(body, dtype=row_dtype, count=count, offset=offset)
                prop_names = [p[1] for p in props]
                cols = [rows[f"f{prop_names.index(c)}"].astype(np.float64) for c in ("x", "y", "z")]
                points = np.column_stack(cols)
            offset += size
        return PointCloud(points)

    lines = [ln for ln in body.decode("ascii", errors="replace").splitlines()]
    cursor = 0
    points = None
    for name, count, props in elements:
        if cursor + count > len(lines):
            raise TruncatedPayload(
                f"element '{name}' declares {count} rows but the file ends early"
            )
        chunk = lines[cursor:cursor + count]
        cursor += count
        if name != "vertex":
            continue
        if any(kind == "list" for kind, _ in props):
            raise UnsupportedFormat("list properties on the vertex element are not supported")
        prop_names = [p[1] for p in props]
        xyz = (prop_names.index("x"), prop_names.index("y"), prop_names.index("z"))
        points = np.empty((count, 3))
        for r, line in enumerate(chunk):
            tokens = line.split()
            if len(tokens) != len(props):
                raise TruncatedPayload(
                    f"vertex row {r} has {len(tokens)} values, expected {len(props)}"
                )
            try:
                points[r] = [float(tokens[k]) for k in xyz]
            except ValueError as exc:
                raise TruncatedPayload(f"vertex row {r} holds a non-numeric value") from exc
    if any(line.strip() for line in lines[cursor:]):
        raise TruncatedPayload("file holds data beyond the declared elements")
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


_INT_CONFIG_KEYS = {"outer_iterations", "sync_rounds", "inner_irls"}


def _parse_connectivity(value: str):
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise MalformedConfig(f"connectivity entry '{chunk}' is not of the form i-j")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise MalformedConfig(f"connectivity entry '{chunk}' is not a pair of integers") from exc
    return tuple(pairs)


def read_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    """Flat key=value file; every key must name a PipelineConfig field."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedConfig(f"line {lineno} is not of the form key=value: '{line}'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_FIELD_NAMES:
                raise MalformedConfig(f"unknown configuration key '{key}' on line {lineno}")
            try:
                if key == "connectivity":
                    overrides[key] = _parse_connectivity(value)
                elif key in _INT_CONFIG_KEYS:
                    overrides[key] = int(value)
                else:
                    overrides[key] = float(value)
            except ValueError as exc:
                raise MalformedConfig(f"bad value for '{key}' on line {lineno}: '{value}'") from exc
    try:
        return dataclass_replace(base or PipelineConfig(), **overrides)
    except ValueError as exc:
        raise MalformedConfig(str(exc)) from exc


def voxel_downsample(cloud: PointCloud, cell: float = DEFAULT_VOXEL_CELL) -> PointCloud:
    """Average points (and features) within each occupied voxel of size cell."""
    if cell <= 0.0:
        raise ValueError("cell size must be positive")
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
