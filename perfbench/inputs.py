"""Seeded synthetic inputs for the benchmark workloads.

Every input is a pure function of the benchmark seed:

* ray-cast KITTI-sized scans on the 64-beam ``semantickitti`` geometry
  (a street canyon: road 40, sidewalk 48, terrain 72, building wall 50);
* a ModelNet-like mesh bank of ASCII OFF files with 2k-50k faces;
* float32 feature tensors for both scoring heads (C = 19), with about
  1% of the points relabelled as the anomaly class.

This module writes the files with numpy alone and never imports
lidarforge, so a defect in lidarforge's own writers cannot shape the
inputs it is measured on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# semantickitti sensor: 64 beams, +3 deg up, -25 deg down, 2048 columns
BEAMS = 64
FOV_UP_DEG = 3.0
FOV_DOWN_DEG = 25.0
AZIMUTH_STEPS = 1800

ROAD, SIDEWALK, TERRAIN, WALL = 40, 48, 72, 50
SCENE_CLASSES = (ROAD, SIDEWALK, TERRAIN, WALL)
ANOMALY_LABEL = 2
NUM_CLASSES = 19

# mesh bank: categories of the bundled catalog, files per category, face range
MESH_CATEGORIES = ("chair", "table", "sofa", "lamp", "monitor", "toilet", "bathtub", "flower_pot")
FILES_PER_CATEGORY = 4
FACES_MIN, FACES_MAX = 2_000, 50_000

# stream ids that keep each kind of input independent of the others
_SCAN, _MESH, _FEATURE, _MASTER = 1, 2, 3, 4


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def master_seed(seed: int, rep: int, candidate: int) -> int:
    """Candidate forge ``--seed`` number ``candidate`` of repetition ``rep``."""
    return int(_rng(seed, _MASTER, rep, candidate).integers(0, 2**63))


def ray_cast_scan(seed: int, index: int):
    """One ray-cast scan: (N, 4) float32 points, (N,) uint32 labels and
    the (N, 2) int beam/azimuth-step grid position of every point."""
    rng = _rng(seed, _SCAN, index)
    height = rng.uniform(1.70, 1.76)
    road_half = rng.uniform(3.5, 6.0)
    sidewalk = rng.uniform(1.5, 3.0)
    wall_left, wall_right = rng.uniform(10.0, 18.0, 2)
    end_front, end_back = rng.uniform(45.0, 70.0, 2)

    # HDL-64-like beams: near-uniform spacing with per-beam irregularity,
    # and per-point firing jitter in azimuth
    fov = FOV_UP_DEG + FOV_DOWN_DEG
    step = fov / BEAMS
    elev_deg = FOV_UP_DEG - (np.arange(BEAMS) + 0.5) * step + rng.normal(0.0, 0.12 * step, BEAMS)
    az_step = 2.0 * np.pi / AZIMUTH_STEPS
    az = (np.arange(AZIMUTH_STEPS) * az_step)[None, :] \
        + rng.normal(0.0, 0.12 * az_step, (BEAMS, AZIMUTH_STEPS))
    elev = np.deg2rad(elev_deg)[:, None]

    dx = (np.cos(elev) * np.cos(az)).ravel()
    dy = (np.cos(elev) * np.sin(az)).ravel()
    dz = np.broadcast_to(np.sin(elev), az.shape).ravel()

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < 0, height / -dz, np.inf)
        t_wall = np.minimum.reduce([
            np.where(dy > 0, wall_left / dy, np.inf),
            np.where(dy < 0, wall_right / -dy, np.inf),
            np.where(dx > 0, end_front / dx, np.inf),
            np.where(dx < 0, end_back / -dx, np.inf),
        ])
    t = np.minimum(t_ground, t_wall)
    hit_ground = t_ground <= t_wall
    t = t + rng.normal(0.0, 0.02, t.shape)

    xyz = np.stack([t * dx, t * dy, t * dz], axis=1)
    lateral = np.abs(xyz[:, 1])
    labels = np.where(~hit_ground, WALL,
                      np.where(lateral <= road_half, ROAD,
                               np.where(lateral <= road_half + sidewalk, SIDEWALK, TERRAIN)))

    base = {ROAD: 0.22, SIDEWALK: 0.30, TERRAIN: 0.42, WALL: 0.35}
    intensity = np.zeros(t.shape)
    for cls, value in base.items():
        intensity[labels == cls] = value
    intensity = np.clip(intensity + rng.normal(0.0, 0.05, t.shape), 0.01, 1.0)

    # about 2% of the beams return nothing (dark or specular surfaces)
    keep = rng.random(t.shape) >= 0.02
    grid = np.stack(np.unravel_index(np.arange(t.size), (BEAMS, AZIMUTH_STEPS)), axis=1)
    points = np.empty((int(keep.sum()), 4), dtype=np.float32)
    points[:, :3] = xyz[keep]
    points[:, 3] = intensity[keep]
    return points, labels[keep].astype(np.uint32), grid[keep]


def write_scans(seed: int, count: int, scans_dir: Path, labels_dir: Path) -> None:
    """Write ``count`` ray-cast scans as <stem>.bin / <stem>.label."""
    scans_dir.mkdir(parents=True, exist_ok=True)
    labels_dir.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        points, labels, _ = ray_cast_scan(seed, i)
        (scans_dir / f"{i:06d}.bin").write_bytes(points.astype("<f4").tobytes())
        (labels_dir / f"{i:06d}.label").write_bytes(labels.astype("<u4").tobytes())


def _uv_blob(rng: np.random.Generator, faces: int):
    """Closed, smoothly deformed UV-sphere with about ``faces`` triangles."""
    rings = max(3, int(round(np.sqrt(faces / 4.0))) + 1)
    segments = max(3, int(round(faces / (2.0 * (rings - 1)))))
    theta = np.linspace(0.0, np.pi, rings + 1)[1:-1]          # interior latitudes
    phi = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")

    radius = 1.0 + 0.0 * th
    for _ in range(4):
        l, m = rng.integers(1, 5, 2)
        radius = radius + rng.uniform(-0.15, 0.15) * np.cos(l * th) * np.cos(m * ph + rng.uniform(0, 6.3))
    axes = rng.uniform(0.4, 1.0, 3)
    ring = np.stack([axes[0] * radius * np.sin(th) * np.cos(ph),
                     axes[1] * radius * np.sin(th) * np.sin(ph),
                     axes[2] * radius * np.cos(th)], axis=-1).reshape(-1, 3)
    vertices = np.vstack([[0.0, 0.0, axes[2]], ring, [0.0, 0.0, -axes[2]]])

    n_ring = rings - 1
    idx = 1 + np.arange(n_ring * segments).reshape(n_ring, segments)
    nxt = np.roll(idx, -1, axis=1)
    top = np.stack([np.zeros(segments, dtype=np.int64), nxt[0], idx[0]], axis=1)
    bottom_pole = vertices.shape[0] - 1
    bottom = np.stack([np.full(segments, bottom_pole), idx[-1], nxt[-1]], axis=1)
    a, b, c, d = idx[:-1], nxt[:-1], idx[1:], nxt[1:]
    quads = np.concatenate([np.stack([a, b, d], axis=-1).reshape(-1, 3),
                            np.stack([a, d, c], axis=-1).reshape(-1, 3)])
    return vertices, np.concatenate([top, quads, bottom]).astype(np.int64)


def write_mesh_bank(seed: int, root: Path) -> None:
    """ModelNet-style bank: <category>/<category>_NNNN.off.

    Face counts follow a fixed log-spaced schedule over 2k-50k that the
    seed permutes across files, so every seed loads the same volume of
    OFF text while shapes and assignments differ.
    """
    rng = _rng(seed, _MESH)
    n_files = len(MESH_CATEGORIES) * FILES_PER_CATEGORY
    schedule = np.geomspace(FACES_MIN, FACES_MAX, n_files).round().astype(int)
    schedule = schedule[rng.permutation(n_files)]
    for k in range(n_files):
        category = MESH_CATEGORIES[k // FILES_PER_CATEGORY]
        vertices, faces = _uv_blob(rng, int(schedule[k]))
        folder = root / category
        folder.mkdir(parents=True, exist_ok=True)
        # some ModelNet files glue the header to the counts line
        counts = f"{len(vertices)} {len(faces)} 0"
        head = f"OFF\n{counts}" if rng.random() < 0.7 else f"OFF{counts}"
        body = "\n".join("%.6f %.6f %.6f" % tuple(v) for v in vertices.tolist())
        tris = "\n".join("3 %d %d %d" % tuple(f) for f in faces.tolist())
        (folder / f"{category}_{k % FILES_PER_CATEGORY + 1:04d}.off").write_text(
            f"{head}\n{body}\n{tris}\n", encoding="ascii")


def _write_tensor(path: Path, array: np.ndarray) -> None:
    """lidarforge feature tensor: b"FEATBIN1", rows and cols as little-endian
    uint64, then row-major float32 values."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = b"FEATBIN1" + np.array(arr.shape, dtype="<u8").tobytes()
    path.write_bytes(header + arr.tobytes())


def write_score_inputs(seed: int, count: int, root: Path) -> dict[str, int]:
    """Scans, labels with one ~1% anomaly patch each, feature tensors of
    both heads and a prototype file; returns {stem: point count}.

    Layout: root/velodyne, root/labels, root/features/<stem>.{sem,cont}.ftr,
    root/prototypes.ftr.
    """
    for sub in ("velodyne", "labels", "features"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, _FEATURE)
    _write_tensor(root / "prototypes.ftr",
                  3.0 * np.eye(NUM_CLASSES) + rng.normal(0.0, 0.1, (NUM_CLASSES, NUM_CLASSES)))
    inlier_index = np.zeros(max(SCENE_CLASSES) + 1, dtype=np.int64)
    inlier_index[list(SCENE_CLASSES)] = np.arange(len(SCENE_CLASSES))
    counts = {}
    for i in range(count):
        stem = f"{i:06d}"
        points, labels, grid = ray_cast_scan(seed, 1000 + i)
        # the anomaly: a 14-beam x 80-step patch of the range image
        row0 = int(rng.integers(20, BEAMS - 14))
        col0 = int(rng.integers(0, AZIMUTH_STEPS - 80))
        patch = (grid[:, 0] >= row0) & (grid[:, 0] < row0 + 14) \
            & (grid[:, 1] >= col0) & (grid[:, 1] < col0 + 80)
        cls = inlier_index[labels]
        labels = np.where(patch, ANOMALY_LABEL, labels).astype(np.uint32)

        n = points.shape[0]
        rows = np.arange(n)
        sem = rng.normal(0.0, 1.0, (n, NUM_CLASSES))
        sem[rows, cls] += np.where(patch, rng.uniform(0.0, 2.5, n), rng.uniform(1.0, 4.5, n))
        cont = rng.normal(0.0, 0.3, (n, NUM_CLASSES))
        cont[rows, cls] += np.where(patch, rng.uniform(0.0, 1.5, n), rng.uniform(1.2, 3.5, n))

        (root / "velodyne" / f"{stem}.bin").write_bytes(points.astype("<f4").tobytes())
        (root / "labels" / f"{stem}.label").write_bytes(labels.astype("<u4").tobytes())
        _write_tensor(root / "features" / f"{stem}.sem.ftr", sem)
        _write_tensor(root / "features" / f"{stem}.cont.ftr", cont)
        counts[stem] = n
    return counts
