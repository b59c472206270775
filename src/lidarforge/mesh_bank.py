"""Anomaly object meshes: OFF loading, surface sampling, reflectivity,
and pose/scale augmentation.

Meshes are organized ModelNet-style: one directory per category (with
underscores standing in for spaces, e.g. ``flower_pot``), containing
ASCII OFF files anywhere below it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .configfile import read_keyvalue
from .errors import FormatError, UnknownCategoryError, ValidationError

DEFAULT_SAMPLE_COUNT = 50_000
DEFAULT_SCALE_RANGE = (0.5, 1.0)


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray     # (F, 3) int64

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    def face_areas(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def load_off(path: str | os.PathLike) -> TriangleMesh:
    """Parse an ASCII OFF mesh.

    Tolerates the header token glued to the counts line ("OFF490 518 0"),
    a quirk of many ModelNet files.
    """
    lines = Path(path).read_text(encoding="utf-8", errors="replace").splitlines()
    tokens: list[str] = []
    token_lines: list[int] = []

    first_content = None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if first_content is None:
            if not body.startswith("OFF"):
                raise FormatError(f"{path}:{lineno}: missing OFF header")
            first_content = lineno
            body = body[3:].strip()
            if not body:
                continue
        for tok in body.split():
            tokens.append(tok)
            token_lines.append(lineno)
    if first_content is None:
        raise FormatError(f"{path}: empty file, missing OFF header")

    pos = 0

    def take(n: int, what: str) -> list[str]:
        nonlocal pos
        if pos + n > len(tokens):
            lineno = token_lines[-1] if tokens else first_content
            raise FormatError(f"{path}:{lineno}: unexpected end of file while reading {what}")
        out = tokens[pos:pos + n]
        pos += n
        return out

    try:
        n_vertices, n_faces, _n_edges = (int(t) for t in take(3, "counts"))
    except ValueError:
        raise FormatError(f"{path}:{token_lines[0]}: malformed counts line") from None
    if n_vertices < 0 or n_faces < 0:
        raise FormatError(f"{path}:{token_lines[0]}: negative counts")

    try:
        flat = np.array([float(t) for t in take(3 * n_vertices, "vertices")], dtype=np.float64)
    except ValueError:
        raise FormatError(f"{path}: non-numeric vertex coordinate") from None
    vertices = flat.reshape(n_vertices, 3)

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        where = token_lines[pos] if pos < len(token_lines) else token_lines[-1]
        arity = int(take(1, "face arity")[0])
        if arity != 3:
            raise FormatError(f"{path}:{where}: face with {arity} vertices; only triangles supported")
        idx = [int(t) for t in take(3, "face indices")]
        for j in idx:
            if not 0 <= j < n_vertices:
                raise FormatError(
                    f"{path}:{where}: face index {j} out of range for {n_vertices} vertices"
                )
        faces[i] = idx

    mesh = TriangleMesh(vertices=vertices, faces=faces)
    if n_faces == 0 or not (mesh.face_areas() > 0).any():
        raise FormatError(f"{path}: mesh has no face with nonzero area")
    return mesh


def sample_surface(mesh: TriangleMesh, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Sample n points uniformly over the mesh surface.

    Faces are chosen with probability proportional to their area, then a
    point is drawn with uniform barycentric coordinates.  Deterministic
    for a given seed.
    """
    if n <= 0:
        raise ValidationError(f"sample count must be positive, got {n}")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise ValidationError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)

    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    r1 = rng.random(n)
    r2 = rng.random(n)
    # uniform on the triangle via the sqrt trick
    s = np.sqrt(r1)
    w0 = 1.0 - s
    w1 = s * (1.0 - r2)
    w2 = s * r2

    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    return w0[:, None] * a + w1[:, None] * b + w2[:, None] * c


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
        return cls({cat: float(v) for cat, v in raw.items()})

    @classmethod
    def default(cls) -> "ReflectivityCatalog":
        with resources.as_file(resources.files("lidarforge.data") / "reflectivity.cfg") as p:
            return cls.from_file(p)

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
        with resources.as_file(resources.files("lidarforge.data") / "target_heights.cfg") as p:
            raw = read_keyvalue(p)
    else:
        raw = read_keyvalue(path)
    heights = {cat: float(v) for cat, v in raw.items()}
    for cat, h in heights.items():
        if h <= 0:
            raise ValidationError(f"target height for {cat!r} must be positive, got {h}")
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
        self.points.setflags(write=False)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def xy_radius(self) -> float:
        """Largest horizontal distance of any point from the translation center."""
        off = self.points[:, :2] - np.asarray(self.translation[:2])
        return float(np.linalg.norm(off, axis=1).max())


def _yaw_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def augment(obj: AnomalyObject, seed: int | np.random.Generator,
            scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
            yaw: float | None = None, scale: float | None = None) -> AnomalyObject:
    """Rotate about the vertical axis and rescale.

    yaw is drawn uniformly in [0, 2*pi) and the scale factor uniformly
    from ``scale_range`` unless forced explicitly.  The transform is a
    similarity: pairwise distances scale by exactly the drawn factor.
    """
    rng = np.random.default_rng(seed)
    if yaw is None:
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
    if scale is None:
        lo, hi = scale_range
        if not 0 < lo <= hi:
            raise ValidationError(f"invalid scale range {scale_range}")
        scale = float(rng.uniform(lo, hi))
    pts = (obj.points @ _yaw_matrix(yaw).T) * scale
    return replace(obj, points=pts, yaw=obj.yaw + yaw, scale=obj.scale * scale)


def build_anomaly_object(mesh: TriangleMesh, category: str,
                         catalog: ReflectivityCatalog,
                         target_heights: dict[str, float],
                         rng: np.random.Generator,
                         n_points: int = DEFAULT_SAMPLE_COUNT,
                         scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE) -> AnomalyObject:
    """Sample a mesh densely, size it to a plausible physical height,
    and apply random yaw/scale augmentation.

    The result is centered: xy centroid at the origin, lowest point at
    z = 0, ready to be rested on an insertion surface.
    """
    rho = catalog.get(category)
    if category not in target_heights:
        raise UnknownCategoryError(category, target_heights)
    pts = sample_surface(mesh, n_points, rng)

    extent_z = float(pts[:, 2].max() - pts[:, 2].min())
    if extent_z < 1e-9:
        # degenerate flat model: fall back to the largest bbox extent
        extent_z = float((pts.max(axis=0) - pts.min(axis=0)).max())
    base = AnomalyObject(points=pts, category=category, reflectivity=rho,
                         scale=1.0, yaw=0.0)
    sized = replace(base, points=pts * (target_heights[category] / extent_z),
                    scale=target_heights[category] / extent_z)
    out = augment(sized, rng, scale_range=scale_range)

    centered = out.points.copy()
    centered[:, :2] -= centered[:, :2].mean(axis=0)
    centered[:, 2] -= centered[:, 2].min()
    return replace(out, points=centered)


def place(obj: AnomalyObject, x: float, y: float, ground_z: float) -> AnomalyObject:
    """Translate a centered object so it rests on the surface at (x, y).

    The lowest sampled point ends exactly at ground_z.
    """
    offset = np.array([x, y, ground_z - obj.points[:, 2].min()])
    return replace(obj, points=obj.points + offset,
                   translation=(float(offset[0]), float(offset[1]), float(offset[2])))


class MeshBank:
    """Lazy-loading collection of category-organized OFF meshes."""

    def __init__(self, root: str | os.PathLike, catalog: ReflectivityCatalog):
        self.root = Path(root)
        self.catalog = catalog
        self._files: dict[str, list[Path]] = {}
        self._cache: dict[Path, TriangleMesh] = {}
        for sub in sorted(p for p in self.root.iterdir() if p.is_dir()):
            category = sub.name.replace("_", " ")
            files = sorted(sub.rglob("*.off"))
            if not files:
                continue
            if category not in catalog:
                warnings.warn(f"skipping mesh directory {sub.name!r}: not in reflectivity catalog")
                continue
            self._files[category] = files
        if not self._files:
            raise ValidationError(f"no usable mesh categories under {self.root}")

    @property
    def categories(self) -> list[str]:
        return sorted(self._files)

    def choose(self, rng: np.random.Generator) -> tuple[str, TriangleMesh]:
        category = self.categories[int(rng.integers(len(self.categories)))]
        files = self._files[category]
        path = files[int(rng.integers(len(files)))]
        if path not in self._cache:
            self._cache[path] = load_off(path)
        return category, self._cache[path]
