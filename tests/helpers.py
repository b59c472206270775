"""Shared synthetic fixtures: flat road scenes, simple meshes, walls."""

from __future__ import annotations

import numpy as np

from lidarforge import LabelArray, PointCloud, SensorConfig, TriangleMesh

ROAD_CLASS = 40
ROAD_Z = -1.7

TEST_SENSOR = SensorConfig(beams=32, width=512, fov_up_deg=8.0, fov_down_deg=24.0)


def make_flat_scene(rng: np.random.Generator, n_points: int = 6000,
                    r_min: float = 4.0, r_max: float = 45.0,
                    road_class: int = ROAD_CLASS, z: float = ROAD_Z,
                    z_noise: float = 0.01, intensity: float = 0.3):
    """Uniform annulus of road points on a flat plane."""
    radius = np.sqrt(rng.uniform(r_min**2, r_max**2, n_points))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_points)
    pts = np.empty((n_points, 4), dtype=np.float32)
    pts[:, 0] = radius * np.cos(theta)
    pts[:, 1] = radius * np.sin(theta)
    pts[:, 2] = z + rng.normal(0.0, z_noise, n_points)
    pts[:, 3] = intensity
    return PointCloud(pts), LabelArray.from_class_ids(np.full(n_points, road_class))


def make_random_cloud(rng: np.random.Generator, n_points: int = 5000,
                      cfg: SensorConfig = TEST_SENSOR):
    """Random points inside the sensor FOV with positive range."""
    radius = rng.uniform(2.0, 60.0, n_points)
    yaw = rng.uniform(-np.pi, np.pi, n_points)
    elev = rng.uniform(-cfg.fov_down_rad, cfg.fov_up_rad, n_points)
    pts = np.empty((n_points, 4), dtype=np.float32)
    pts[:, 0] = radius * np.cos(elev) * np.cos(yaw)
    pts[:, 1] = radius * np.cos(elev) * np.sin(yaw)
    pts[:, 2] = radius * np.sin(elev)
    pts[:, 3] = rng.uniform(0.0, 1.0, n_points)
    return PointCloud(pts)


def make_cube_mesh(half: float = 0.5) -> TriangleMesh:
    """Axis-aligned cube of side 2*half centered at the origin."""
    h = half
    v = np.array([
        [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
        [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
    ], dtype=np.float64)
    f = np.array([
        [0, 2, 1], [0, 3, 2],      # bottom (z = -h)
        [4, 5, 6], [4, 6, 7],      # top (z = +h)
        [0, 1, 5], [0, 5, 4],      # y = -h
        [2, 3, 7], [2, 7, 6],      # y = +h
        [1, 2, 6], [1, 6, 5],      # x = +h
        [3, 0, 4], [3, 4, 7],      # x = -h
    ], dtype=np.int64)
    return TriangleMesh(vertices=v, faces=f)


def write_off(mesh: TriangleMesh, path) -> None:
    lines = [f"OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:g} {v[1]:g} {v[2]:g}")
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    path.write_text("\n".join(lines) + "\n")


def full_coverage_wall(cfg: SensorConfig, distance: float = 5.0) -> np.ndarray:
    """One point at the given range through the center of every range
    image cell: occludes everything farther away in every cell."""
    rows, cols = np.meshgrid(np.arange(cfg.beams), np.arange(cfg.width), indexing="ij")
    u = (cols.ravel() + 0.5) / cfg.width
    v = (rows.ravel() + 0.5) / cfg.beams
    yaw = (1.0 - 2.0 * u) * np.pi
    elev = (1.0 - v) * cfg.fov_rad - cfg.fov_down_rad
    pts = np.empty((u.size, 3))
    pts[:, 0] = distance * np.cos(elev) * np.cos(yaw)
    pts[:, 1] = distance * np.cos(elev) * np.sin(yaw)
    pts[:, 2] = distance * np.sin(elev)
    return pts
