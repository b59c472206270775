"""Anomaly object meshes: OFF loading, surface sampling, reflectivity,
target heights, and each object's pose.

Meshes are organized ModelNet-style: one directory per category (with
underscores standing in for spaces, e.g. ``flower_pot``), containing
ASCII OFF files anywhere below it.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NoReturn

import numpy as np

from .configfile import parse_number, read_bundled, read_keyvalue
from .errors import FormatError, UnknownCategoryError, ValidationError
from .range_projection import point_ranges

OBJECT_POINTS = 50_000       # surface points sampled per forged object
SCALE_RANGE = (0.5, 1.0)     # uniform scale augmentation after sizing to the target height
_AREA_BLOCK = 1 << 12        # faces per step of TriangleMesh.face_areas


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray     # (F, 3) int64

    def __post_init__(self):
        # copied, not viewed: a later write to the caller's arrays must not
        # leave face_areas stale
        for name in ("vertices", "faces"):
            own = np.array(getattr(self, name))
            own.setflags(write=False)
            object.__setattr__(self, name, own)

    @cached_property
    def face_areas(self) -> np.ndarray:
        """Per-face areas, computed once per mesh and read-only.

        Huge coordinates can overflow to an infinite area; sample_surface
        rejects a total that is not finite.

        Half the norm of (b - a) x (c - a), one coordinate column at a
        time: the same products, differences and sums, in the same order,
        as ``0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)``, so
        the areas are bit-identical to it, at under half its cost.

        Faces are taken _AREA_BLOCK at a time.  Each area depends on its
        own face alone, so the blocks give the same bits, and memory
        beyond the result is one copy of the vertices plus a block's
        temporaries (about 0.5 MB), whatever the face count.
        """
        x, y, z = np.ascontiguousarray(self.vertices.T)
        areas = np.empty(len(self.faces))
        with np.errstate(over="ignore", invalid="ignore"):
            for at in range(0, len(areas), _AREA_BLOCK):
                i, j, k = np.ascontiguousarray(self.faces[at:at + _AREA_BLOCK].T)
                ax, ay, az = x[i], y[i], z[i]
                u0, u1, u2 = x[j] - ax, y[j] - ay, z[j] - az
                w0, w1, w2 = x[k] - ax, y[k] - ay, z[k] - az
                cx = u1 * w2 - u2 * w1
                cy = u2 * w0 - u0 * w2
                cz = u0 * w1 - u1 * w0
                s = cx * cx
                s += cy * cy
                s += cz * cz
                areas[at:at + len(s)] = 0.5 * np.sqrt(s)
        areas.setflags(write=False)
        return areas


# the separators are " \t\n\r\v\f" throughout: the bytes that np.fromstring's
# sep=" ", bytes.split and bytes.isspace skip, and \s matches in a bytes pattern
_COMMENT = re.compile(rb"#[^\n\r\v\f]*")  # to the end of its line, of any bytes
_COUNTS = re.compile(rb"\s*(\S*)\s*(\S*)\s*(\S*)\s*")  # after "OFF"; empty when missing
_TOKEN = re.compile(rb"\S+")
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\v\f]")  # the separators that end a line
# per byte: d a digit, s a sign, a space a separator, x other
_CHAR_CLASSES = b"".join(b"d" if c in b"0123456789" else b"s" if c in b"+-"
                        else b" " if c in b" \t\n\r\v\f" else b"x" for c in range(256))
_SCAN_BLOCK = 1 << 16  # bytes per step of _token_start


def load_off(path: str | os.PathLike) -> TriangleMesh:
    """Parse an ASCII OFF mesh.

    The body is read as a stream of tokens split on " \\t\\n\\r\\v\\f",
    with ``#`` comments (which may hold any bytes) ignored, so line
    breaks may fall anywhere.  Every other byte belongs to a token, and
    a vertex coordinate is a token np.fromstring reads ("1_0" and
    "\\u0663" are not).  Tolerates the header token glued to the counts
    line ("OFF490 518 0"), a quirk of many ModelNet files.  Tokens
    after the last face are ignored.  Raises FormatError naming the
    file and, where one token is at fault, its line.

    The file's bytes are read once and parsed as bytes: a block-wise
    scan finds where the vertex tokens end, and np.fromstring reads the
    vertices, then the faces, with no token list or decoded text; a
    file with comments is copied once without them.  For every
    well-formed file the traced peak, face_areas included, stays under
    5 times the file's size (2.9 times for a 1.6 MB file of 50k faces).
    """
    mesh = TriangleMesh(*_off_arrays(path))
    if not (mesh.face_areas > 0).any():
        raise FormatError(f"{path}: mesh has no face with nonzero area")
    return mesh


def _off_arrays(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """An OFF file's vertices and faces; its bytes die before TriangleMesh copies them."""
    data = Path(path).read_bytes()
    if b"#" in data:
        data = _COMMENT.sub(b"", data)  # removes no line break, so lines keep their numbers

    def fail(offset: int | None, message: str) -> NoReturn:
        if offset is not None:
            line = 1 + len(_LINE_BREAK.findall(data, 0, offset))
            raise FormatError(f"{path}:{line}: {message}")
        raise FormatError(f"{path}: {message}")

    def end_of_file(what: str) -> NoReturn:  # at the last token, or the header if none
        fail(len(data.rstrip()) - 1, f"unexpected end of file while reading {what}")

    def quote(token: re.Match) -> str:
        return repr(token.group().decode("utf-8", "replace"))

    header = _token_start(data, 0, 0)
    if header == len(data):
        fail(None, "empty file, missing OFF header")
    if not data.startswith(b"OFF", header):
        fail(header, "missing OFF header")
    counts = _COUNTS.match(data, header + 3)
    first = counts.start(1) if counts.group(1) else header
    try:
        n_vertices, n_faces, _n_edges = map(int, counts.groups())
    except ValueError:
        fail(first, "malformed counts line")
    if n_vertices < 0 or n_faces < 0:
        fail(first, "negative counts")

    start = counts.end()  # the first vertex token
    end = _token_start(data, start, 3 * n_vertices)  # the first face token
    try:
        vertices = np.fromstring(data[start:end], dtype=np.float64, sep=" ")
    except ValueError:  # a token that is not a number
        vertices = None
    if vertices is None or vertices.size != 3 * n_vertices:
        if _token_start(data, start, 3 * n_vertices - 1) == len(data):
            end_of_file("vertices")
        for token in _TOKEN.finditer(data, start, end):
            try:  # item() fails too unless the token reads as one value
                np.fromstring(token.group(), dtype=np.float64, sep=" ").item()
            except ValueError:
                fail(token.start(), f"non-numeric vertex coordinate {quote(token)}")
    if not np.isfinite(vertices).all():
        # nan, inf or a value that overflows (1e400) would reach the area sums
        k = int(np.argmin(np.isfinite(vertices)))
        token = _TOKEN.match(data, _token_start(data, start, k))
        fail(token.start(), f"non-finite vertex coordinate {quote(token)}")

    need = 4 * n_faces
    flat = bad = None
    # np.fromstring reads a lone sign as the sign of the next integer, or
    # as 0 at the end, so a face section with a sign takes the token scan
    if data.find(b"+", end) < 0 and data.find(b"-", end) < 0:
        try:
            flat = np.fromstring(data[end:], dtype=np.int64, sep=" ")
        except ValueError:  # a token that is not an integer
            pass
    if flat is None or flat.size < need:
        flat, bad = _leading_integers(data, end)

    def face_fail(face: int, token: int, message: str) -> NoReturn:
        # {} in message: token `token` of face `face` (0: the arity) as
        # written, not the value np.fromstring saturated
        matches = list(itertools.islice(_TOKEN.finditer(data, end),
                                        4 * face, 4 * face + token + 1))
        fail(matches[0].start(), message.format(matches[-1].group().decode()))

    arity = "face with {} vertices; only triangles supported"
    # faces in full before the stream ends; check them in file order
    whole = min(flat.size, need) // 4
    table = flat[:4 * whole].reshape(whole, 4)
    in_range = (table[:, 1:] >= 0) & (table[:, 1:] < n_vertices)
    good = (table[:, 0] == 3) & in_range.all(axis=1)
    if not good.all():
        i = int(np.argmin(good))
        if table[i, 0] != 3:
            face_fail(i, 0, arity)
        face_fail(i, 1 + int(np.argmin(in_range[i])),
                  f"face index {{}} out of range for {n_vertices} vertices")
    if whole < n_faces:
        # the stream ends inside face `whole`, at the end of the file or at a
        # bad token; too few tokens from that one on to finish the face is the end
        partial = flat[4 * whole:]
        if partial.size and partial[0] != 3:
            face_fail(whole, 0, arity)
        if bad is None or partial.size and _token_start(data, bad, 3 - partial.size) == len(data):
            end_of_file("face indices" if partial.size else "face arity")
        token = _TOKEN.match(data, bad)
        fail(bad, f"non-integer face token {quote(token)}")
    return vertices.reshape(n_vertices, 3), table[:, 1:]


def _token_start(data: bytes, start: int, k: int) -> int:
    """Offset of token k (from 0) of ``data[start:]``, or len(data) when
    it has no more than k tokens.  Copies one block of bytes at a time,
    never the whole range."""
    before = True  # whether the byte before the block is a separator
    for at in range(start, len(data), _SCAN_BLOCK):
        block = data[at:at + _SCAN_BLOCK].translate(_CHAR_CLASSES)
        space = np.frombuffer(block, dtype=np.uint8) == ord(" ")
        starts = ~space
        starts[0] &= before
        starts[1:] &= space[:-1]
        found = int(np.count_nonzero(starts))
        if found > k:
            return at + int(np.flatnonzero(starts)[k])
        k -= found
        before = space[-1]
    return len(data)


def _leading_integers(data: bytes, start: int) -> tuple[np.ndarray, int | None]:
    """The integer tokens that open ``data[start:]``, and the offset of the
    first token that is not one (None when every token is an integer)."""
    classes = (data[start:] + b" ").translate(_CHAR_CLASSES)  # a space ends the last token
    # an integer token is a sign at most, then digits, as np.fromstring
    # reads them; any other token holds one of these
    hits = [at for at in map(classes.find, (b"x", b"ds", b"ss", b"s ")) if at >= 0]
    bad = start + classes.rfind(b" ", 0, min(hits)) + 1 if hits else None
    del classes
    integers = data[start:bad]
    # np.fromstring reads separators alone as one 0
    return np.fromstring(b"" if integers.isspace() else integers, dtype=np.int64, sep=" "), bad


def sample_surface(mesh: TriangleMesh, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Sample n points uniformly over the mesh surface.

    Faces are chosen with probability proportional to their area, then a
    point is drawn with uniform barycentric coordinates.  Deterministic
    for a given seed.

    The face draw is ``Generator.choice(len(areas), size=n,
    p=areas / total)``: the same cumulative distribution, the same n
    uniform draws and the same right-side search, so the same indices
    and generator stream.  It searches the draws in sorted order, which
    is faster, and scatters the indices back.  The face-draw oracle in
    tests/test_mesh_bank.py and the golden digests pin this equality.

    A total area that is not finite, from a non-finite vertex or an
    overflow, raises ValidationError.
    """
    if n <= 0:
        raise ValidationError(f"sample count must be positive, got {n}")
    areas = mesh.face_areas
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        total = areas.sum()
    if not np.isfinite(total):
        raise ValidationError(f"mesh total surface area is not finite ({total})")
    if total <= 0:
        raise ValidationError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)

    cdf = np.cumsum(areas / total)
    cdf /= cdf[-1]
    u = rng.random(n)
    order = np.argsort(u)
    face_idx = np.empty(n, dtype=np.int64)
    face_idx[order] = cdf.searchsorted(u[order], side="right")
    r1 = rng.random(n)
    r2 = rng.random(n)
    # uniform on the triangle via the sqrt trick
    s = np.sqrt(r1)
    w0 = 1.0 - s
    w1 = s * (1.0 - r2)
    w2 = s * r2

    # one contiguous corner array at a time, summed in the order w0*a + w1*b + w2*c
    vertices, faces = mesh.vertices, mesh.faces
    out = w0[:, None] * vertices.take(faces[:, 0].take(face_idx), axis=0)
    out += w1[:, None] * vertices.take(faces[:, 1].take(face_idx), axis=0)
    out += w2[:, None] * vertices.take(faces[:, 2].take(face_idx), axis=0)
    return out


class ReflectivityCatalog:
    """Category -> material reflectivity in (0, 1]."""

    def __init__(self, values: dict[str, float]):
        for cat, rho in values.items():
            if not 0.0 < rho <= 1.0:
                raise ValidationError(f"reflectivity for {cat!r} must be in (0, 1], got {rho}")
        self._values = dict(values)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ReflectivityCatalog":
        raw = read_keyvalue(path)
        return cls({cat: parse_number(path, cat, v, float) for cat, v in raw.items()})

    @classmethod
    def default(cls) -> "ReflectivityCatalog":
        return read_bundled("reflectivity.cfg", cls.from_file)

    @property
    def categories(self) -> list[str]:
        return sorted(self._values)

    def __contains__(self, category: str) -> bool:
        return category in self._values

    def get(self, category: str) -> float:
        try:
            return self._values[category]
        except KeyError:
            raise UnknownCategoryError(category, self._values) from None


def load_target_heights(path: str | os.PathLike | None = None) -> dict[str, float]:
    """Category -> target physical height in meters (editable config)."""
    if path is None:
        return read_bundled("target_heights.cfg", load_target_heights)
    heights = {cat: parse_number(path, cat, v, float) for cat, v in read_keyvalue(path).items()}
    for cat, h in heights.items():
        if not 0 < h < math.inf:
            raise ValidationError(
                f"target height for {cat!r} must be positive and finite, got {h}")
    return heights


@dataclass(frozen=True)
class AnomalyObject:
    """A surface-sampled anomaly instance.

    ``points`` are the sampled surface points in the current frame;
    intensity stays implicitly zero until synthesis after insertion.
    ``scale`` is the cumulative model-to-meters factor, ``yaw`` the
    cumulative rotation about the vertical axis, ``translation`` the
    applied scene offset.
    """

    points: np.ndarray
    category: str
    reflectivity: float
    yaw: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # a read-only view: the caller's own array stays writable
        points = self.points.view()
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @cached_property
    def xy_radius(self) -> float:
        """Largest horizontal distance of any point from the translation
        center: the largest ``point_ranges`` of the points' xy offsets.

        Computed once per instance: ``place`` and ``replace`` build new
        instances, so a cached radius always belongs to its own points.
        """
        return float(point_ranges(self.points[:, :2] - self.translation[:2]).max())


def _yaw_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def build_anomaly_object(mesh: TriangleMesh, category: str, reflectivity: float,
                         height: float, rng: np.random.Generator) -> AnomalyObject:
    """Sample OBJECT_POINTS points of a mesh, size them to ``height``
    meters, turn them by a yaw drawn uniformly in [0, 2*pi) and scale
    them by a factor drawn uniformly from SCALE_RANGE.

    The turn and scale are a similarity: pairwise distances scale by
    exactly the drawn factor.  The result is centered: xy centroid at
    the origin, lowest point at z = 0, ready to be rested on an
    insertion surface.  Its ``scale`` is the sizing times the drawn
    factor.
    """
    pts = sample_surface(mesh, OBJECT_POINTS, rng)

    extent_z = float(pts[:, 2].max() - pts[:, 2].min())
    if extent_z < 1e-9:
        # degenerate flat model: fall back to the largest bbox extent
        extent_z = float((pts.max(axis=0) - pts.min(axis=0)).max())
    size = height / extent_z
    yaw = float(rng.uniform(0.0, 2.0 * np.pi))
    scale = float(rng.uniform(*SCALE_RANGE))
    pts = ((pts * size) @ _yaw_matrix(yaw).T) * scale
    pts[:, :2] -= pts[:, :2].mean(axis=0)
    pts[:, 2] -= pts[:, 2].min()
    return AnomalyObject(points=pts, category=category, reflectivity=reflectivity,
                         yaw=yaw, scale=size * scale)


def place(obj: AnomalyObject, x: float, y: float, ground_z: float) -> AnomalyObject:
    """Move an object so it rests on the surface at (x, y).

    A placed object is first moved back by its translation, so the
    result is placed as its centered self would be.  The lowest sampled
    point ends at ground_z.
    """
    points = obj.points
    if obj.translation != (0.0, 0.0, 0.0):
        points = points - np.asarray(obj.translation)
    offset = np.array([x, y, ground_z - points[:, 2].min()])
    return replace(obj, points=points + offset,
                   translation=(float(offset[0]), float(offset[1]), float(offset[2])))


class MeshBank:
    """Lazy-loading collection of category-organized OFF meshes, with
    each category's reflectivity and target height.  A category missing
    from the catalog is skipped with a warning; one without a height is
    rejected, and so are two directories that name one category
    (``flower_pot`` and ``flower pot``).

    The bank keeps file lists only: each draw parses its file, so a
    mesh lives as long as the draw's caller holds it, and forge threads
    share no mutable state through the bank.
    """

    def __init__(self, root: str | os.PathLike, catalog: ReflectivityCatalog,
                 heights: dict[str, float]):
        self.root = Path(root)
        self._files: dict[str, list[Path]] = {}
        seen: dict[str, str] = {}  # category -> the directory that named it
        for sub in sorted(p for p in self.root.iterdir() if p.is_dir()):
            category = sub.name.replace("_", " ")
            files = sorted(sub.rglob("*.off"))
            if not files:
                continue
            if category not in catalog:
                warnings.warn(f"skipping mesh directory {sub.name!r}: not in reflectivity catalog")
                continue
            if category in seen:
                raise ValidationError(f"mesh directories {seen[category]!r} and {sub.name!r} "
                                      f"both name the category {category!r}")
            seen[category] = sub.name
            self._files[category] = files
        if not self._files:
            raise ValidationError(f"no usable mesh categories under {self.root}")
        unsized = [c for c in self.categories if c not in heights]
        if unsized:
            raise ValidationError(f"no target height for mesh categories {', '.join(unsized)}")
        self.reflectivity = {c: catalog.get(c) for c in self.categories}
        self.heights = {c: heights[c] for c in self.categories}

    @property
    def categories(self) -> list[str]:
        return sorted(self._files)

    def choose(self, rng: np.random.Generator) -> tuple[str, TriangleMesh]:
        category = self.categories[int(rng.integers(len(self.categories)))]
        files = self._files[category]
        return category, load_off(files[int(rng.integers(len(files)))])
