"""Placing anomaly objects in real scans and forging dataset splits.

An object is rested on a permitted planar surface, the combined cloud
is projected to the range image and re-projected back, which removes
occluded points and resamples the object in the sensor's beam pattern.
Surviving object points receive synthesized intensities and the
anomaly label; surviving scene points are carried through bit-exact.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from . import mesh_bank
from .errors import PlacementInfeasibleError, ValidationError
from .intensity import (DEFAULT_NEIGHBORS, estimate_normals, lambert_intensity,
                        normalize_and_noise)
from .mesh_bank import AnomalyObject, MeshBank
from .range_projection import project
from .scan_io import (LabelArray, PointCloud, SensorConfig, check_pair,
                      read_labels, read_scan, write_labels, write_scan)

SINGLE_RATIO = 0.40
MULTI_RATIO = 0.60
MULTI_COUNT_DISTRIBUTION = (0.40, 0.30, 0.20, 0.10)


@dataclass(frozen=True)
class SplitPolicy:
    """Rules of one dataset split.

    ``count_distribution[i]`` is the probability of inserting i+1
    objects into a scan that was selected to contain anomalies.
    """

    kind: str
    anomaly_ratio: float
    surface_classes: frozenset
    count_distribution: tuple
    anomaly_label: int
    max_radius: float = 50.0
    min_surface_points: int = 30
    flatness_threshold: float = 0.2
    ground_neighborhood: float = 1.0
    retry_budget: int = 10
    placement_attempts: int = 64

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValidationError(f"policy kind must be 'single' or 'multi', got {self.kind!r}")
        if not 0 < self.anomaly_ratio <= 1:
            raise ValidationError(f"anomaly ratio must be in (0, 1], got {self.anomaly_ratio}")
        total = sum(self.count_distribution)
        if abs(total - 1.0) > 1e-9 or any(p < 0 for p in self.count_distribution):
            raise ValidationError(f"count distribution must be a probability vector, got {self.count_distribution}")
        if self.max_radius <= 0:
            raise ValidationError("max_radius must be positive")
        if not self.surface_classes:
            raise ValidationError("at least one allowed surface class is required")

    @classmethod
    def single(cls, surface_classes=(40,), anomaly_label=2, **kwargs) -> "SplitPolicy":
        """One object per anomaly scan, road surfaces only by default."""
        return cls(kind="single", anomaly_ratio=SINGLE_RATIO,
                   surface_classes=frozenset(surface_classes),
                   count_distribution=(1.0,), anomaly_label=anomaly_label, **kwargs)

    @classmethod
    def multi(cls, surface_classes=(40, 44, 48, 49), anomaly_label=2, **kwargs) -> "SplitPolicy":
        """1-4 objects per anomaly scan on any permitted planar surface."""
        return cls(kind="multi", anomaly_ratio=MULTI_RATIO,
                   surface_classes=frozenset(surface_classes),
                   count_distribution=MULTI_COUNT_DISTRIBUTION,
                   anomaly_label=anomaly_label, **kwargs)


@dataclass(frozen=True)
class ForgeParams:
    """Knobs of the insertion pipeline that are not split policy."""

    object_points: int = mesh_bank.DEFAULT_SAMPLE_COUNT
    scale_range: tuple = mesh_bank.DEFAULT_SCALE_RANGE
    noise_scale: float = 0.05
    normal_neighbors: int = DEFAULT_NEIGHBORS
    normalization: str = "mean"


@dataclass(frozen=True)
class InsertionRecord:
    """Bookkeeping for one inserted object.

    ``index_start:index_end`` is the half-open range of the object's
    points in the output cloud; empty for objects that did not survive
    occlusion (surviving_count == 0).
    """

    scan_id: str
    category: str
    yaw: float
    x: float
    y: float
    z: float
    scale: float
    surviving_count: int
    index_start: int
    index_end: int
    seed: int


def scan_seed(master_seed: int, scan_id: str) -> int:
    """Stable 64-bit per-scan seed; depends only on (master seed, scan id)."""
    if not 0 <= int(master_seed) < 2**64:
        raise ValidationError(f"master seed must be an unsigned 64-bit value, got {master_seed}")
    key = int(master_seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(scan_id.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def _reject_preexisting_anomaly_labels(labels: LabelArray, policy: SplitPolicy) -> None:
    """A scene already using the anomaly id would break provenance:
    forged anomaly points must be the only carriers of that label."""
    if (labels.class_ids == policy.anomaly_label).any():
        raise ValidationError(
            f"scene labels already use the anomaly id {policy.anomaly_label}")


class PlacementSurface:
    """Precomputed allowed-surface geometry of one scan.

    Reusable across placement draws: holds the allowed points' xy
    positions, heights, radii and a KD-tree for neighborhood queries.
    """

    def __init__(self, scene: PointCloud, labels: LabelArray, policy: SplitPolicy):
        check_pair(scene, labels)
        class_ids = labels.class_ids
        allowed = np.zeros(len(class_ids), dtype=bool)
        for cid in policy.surface_classes:
            allowed |= class_ids == cid
        self.xy = scene.xyz[allowed, :2].astype(np.float64)
        self.z = scene.xyz[allowed, 2].astype(np.float64)
        self.r_xy = np.linalg.norm(self.xy, axis=1)
        self.tree = cKDTree(self.xy) if self.xy.shape[0] else None
        self.in_radius_count = int((self.r_xy <= policy.max_radius).sum())


def pick_placement(scene: PointCloud, labels: LabelArray, policy: SplitPolicy,
                   seed: int | np.random.Generator, object_radius: float = 0.0,
                   occupied: list = (),
                   surface: PlacementSurface | None = None) -> tuple[float, float, float]:
    """Draw an insertion site on an allowed planar surface.

    Returns (x, y, ground_z) where ground_z is the median height of the
    allowed-surface neighbors within 1 m of the site.  Candidates whose
    neighborhood spreads more than the flatness threshold in z, or that
    would overlap an entry of ``occupied`` ((x, y, radius) triples), are
    rejected and redrawn.  Raises PlacementInfeasibleError when no site
    is found.  Pass a prebuilt ``surface`` when placing repeatedly into
    the same scan.
    """
    rng = np.random.default_rng(seed)
    if surface is None:
        surface = PlacementSurface(scene, labels, policy)

    if surface.in_radius_count < policy.min_surface_points:
        raise PlacementInfeasibleError(
            f"only {surface.in_radius_count} allowed-surface points within "
            f"{policy.max_radius} m (need {policy.min_surface_points})"
        )

    # the whole object must stay inside the radius
    candidates = np.flatnonzero(surface.r_xy <= policy.max_radius - object_radius)
    if candidates.size == 0:
        raise PlacementInfeasibleError(
            f"no allowed-surface point leaves room for an object of radius {object_radius:.2f} m"
        )

    for _ in range(policy.placement_attempts):
        pick = int(candidates[rng.integers(candidates.size)])
        cx, cy = surface.xy[pick]

        if any(np.hypot(cx - ox, cy - oy) < object_radius + orad for ox, oy, orad in occupied):
            continue

        near = surface.tree.query_ball_point((cx, cy), policy.ground_neighborhood)
        if len(near) < 5:
            continue
        z_near = surface.z[near]
        if float(z_near.max() - z_near.min()) > policy.flatness_threshold:
            continue
        return float(cx), float(cy), float(np.median(z_near))

    raise PlacementInfeasibleError(
        f"no flat non-overlapping site found in {policy.placement_attempts} attempts"
    )


def compose_scan(scene: PointCloud, labels: LabelArray, objects: list,
                 cfg: SensorConfig, policy: SplitPolicy,
                 seed: int | np.random.Generator,
                 params: ForgeParams = ForgeParams(),
                 scan_id: str = "", record_seed: int = 0):
    """Merge placed objects into a scan through the projection pipeline.

    Returns (cloud, labels, records).  Output ordering: surviving scene
    points first in their original relative order, then surviving
    object points grouped per object.  Scene points and labels pass
    through bit-exact; object points take the policy's anomaly label.
    """
    check_pair(scene, labels)
    _reject_preexisting_anomaly_labels(labels, policy)
    rng = np.random.default_rng(seed)

    if not objects:
        img = project(scene, cfg)
        idx = img.surviving_indices()
        return scene.take(idx), labels.take(idx), []

    for obj in objects:
        horiz = np.linalg.norm(obj.points[:, :2], axis=1)
        if float(horiz.max()) > policy.max_radius + 1e-9:
            raise ValidationError(
                f"object {obj.category!r} extends to {horiz.max():.2f} m, "
                f"beyond the {policy.max_radius} m insertion radius"
            )

    n_scene = scene.count
    object_f32 = [np.asarray(obj.points, dtype=np.float32) for obj in objects]
    blocks = [scene.data]
    for pts in object_f32:
        block = np.zeros((pts.shape[0], 4), dtype=np.float32)
        block[:, :3] = pts
        blocks.append(block)
    combined = PointCloud(np.concatenate(blocks, axis=0), validate=False)

    img = project(combined, cfg, scene_count=n_scene)
    surviving = img.surviving_indices()

    sizes = [pts.shape[0] for pts in object_f32]
    block_starts = n_scene + np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)

    scene_mean = float(scene.intensity.mean()) if scene.count else 0.0

    out_data = [combined.data[surviving[surviving < n_scene]]]
    out_words = [labels.words[surviving[surviving < n_scene]]]
    records = []
    cursor = out_data[0].shape[0]

    for j, obj in enumerate(objects):
        lo, hi = int(block_starts[j]), int(block_starts[j]) + sizes[j]
        mine = surviving[(surviving >= lo) & (surviving < hi)]
        m_surv = int(mine.size)

        if m_surv > 0:
            dense = object_f32[j].astype(np.float64)
            k_eff = min(params.normal_neighbors, dense.shape[0] - 1)
            if k_eff >= 2:
                field = estimate_normals(dense, k=k_eff)
                normals = field.normals[mine - lo]
            else:
                d = np.linalg.norm(dense, axis=1, keepdims=True)
                normals = (-dense / np.where(d > 0, d, 1.0))[mine - lo]
            pts_surv = dense[mine - lo]
            raw = lambert_intensity(pts_surv, normals, obj.reflectivity)
            final = normalize_and_noise(raw, scene_mean, params.noise_scale, rng,
                                        policy=params.normalization)
            block = combined.data[mine].copy()
            block[:, 3] = final.astype(np.float32)
            out_data.append(block)
            out_words.append(np.full(m_surv, policy.anomaly_label, dtype=np.uint32))

        records.append(InsertionRecord(
            scan_id=scan_id, category=obj.category, yaw=obj.yaw,
            x=obj.translation[0], y=obj.translation[1], z=obj.translation[2],
            scale=obj.scale, surviving_count=m_surv,
            index_start=cursor if m_surv else 0,
            index_end=cursor + m_surv if m_surv else 0,
            seed=record_seed,
        ))
        cursor += m_surv

    cloud = PointCloud(np.concatenate(out_data, axis=0), validate=False)
    words = LabelArray(np.concatenate(out_words))
    return cloud, words, records


@dataclass
class ForgeScanResult:
    cloud: PointCloud
    labels: LabelArray
    records: list
    modified: bool


def forge_scan(scene: PointCloud, labels: LabelArray, scan_id: str,
               cfg: SensorConfig, policy: SplitPolicy, bank: MeshBank,
               target_heights: dict, seed: int,
               params: ForgeParams = ForgeParams()) -> ForgeScanResult:
    """Run the per-scan insertion protocol.

    A Bernoulli draw with the policy ratio decides anomaly presence;
    the object count follows the policy distribution.  Objects whose
    every point loses the occlusion contest are re-placed up to the
    retry budget, then dropped.  Scans that end up with no surviving
    object are emitted unchanged.
    """
    check_pair(scene, labels)
    _reject_preexisting_anomaly_labels(labels, policy)
    rng = np.random.default_rng(seed)

    if rng.random() >= policy.anomaly_ratio:
        return ForgeScanResult(scene, labels, [], modified=False)

    n_objects = 1 + int(rng.choice(len(policy.count_distribution),
                                   p=np.asarray(policy.count_distribution)))

    surface = PlacementSurface(scene, labels, policy)
    placed: list[AnomalyObject] = []
    for _ in range(n_objects):
        category, mesh = bank.choose(rng)
        obj = mesh_bank.build_anomaly_object(
            mesh, category, bank.catalog, target_heights, rng,
            n_points=params.object_points, scale_range=params.scale_range)
        try:
            x, y, gz = pick_placement(
                scene, labels, policy, rng, object_radius=obj.xy_radius,
                occupied=[(p.translation[0], p.translation[1], p.xy_radius) for p in placed],
                surface=surface)
        except PlacementInfeasibleError:
            continue
        placed.append(mesh_bank.place(obj, x, y, gz))

    if not placed:
        return ForgeScanResult(scene, labels, [], modified=False)

    def compose(objs):
        return compose_scan(scene, labels, objs, cfg, policy, rng, params,
                            scan_id=scan_id, record_seed=seed)

    cloud, words, records = compose(placed)
    dead_records: list[InsertionRecord] = []
    for _ in range(policy.retry_budget):
        dead = [j for j, rec in enumerate(records) if rec.surviving_count == 0]
        if not dead:
            break
        for j in dead:
            obj = placed[j]
            try:
                x, y, gz = pick_placement(
                    scene, labels, policy, rng, object_radius=obj.xy_radius,
                    occupied=[(p.translation[0], p.translation[1], p.xy_radius)
                              for i, p in enumerate(placed) if i != j],
                    surface=surface)
            except PlacementInfeasibleError:
                continue
            base = replace(obj, points=obj.points - np.asarray(obj.translation),
                           translation=(0.0, 0.0, 0.0))
            placed[j] = mesh_bank.place(base, x, y, gz)
        cloud, words, records = compose(placed)
    else:
        alive = [obj for obj, rec in zip(placed, records) if rec.surviving_count > 0]
        dead_records = [rec for rec in records if rec.surviving_count == 0]
        placed = alive
        if placed:
            cloud, words, records = compose(placed)
        else:
            records = []

    if not placed:
        return ForgeScanResult(scene, labels, dead_records, modified=False)
    return ForgeScanResult(cloud, words, records + dead_records, modified=True)


@dataclass
class ForgeSummary:
    scan_count: int
    anomaly_scan_count: int
    object_count: int
    anomaly_point_count: int
    records: list
    per_scan_objects: dict
    skipped: list


def discover_pairs(scans_dir: str | Path, labels_dir: str | Path):
    """Match <stem>.bin with <stem>.label, sorted by stem."""
    scans_dir, labels_dir = Path(scans_dir), Path(labels_dir)
    pairs = []
    for scan_path in sorted(scans_dir.glob("*.bin")):
        pairs.append((scan_path.stem, scan_path, labels_dir / f"{scan_path.stem}.label"))
    return pairs


def forge_split(pairs: list, out_dir: str | Path, policy: SplitPolicy,
                cfg: SensorConfig, bank: MeshBank, target_heights: dict,
                master_seed: int, params: ForgeParams = ForgeParams(),
                workers: int = 1, config_echo: dict | None = None) -> ForgeSummary:
    """Forge a whole split into ``out_dir`` (velodyne/, labels/, manifest.tsv).

    Deterministic for a given master seed: each scan is keyed by
    (master seed, scan id) only, so the output tree is byte-identical
    regardless of worker count.  Unreadable scans are skipped and
    reported in the manifest.
    """
    if not pairs:
        raise ValidationError("scan list is empty")
    out_dir = Path(out_dir)
    (out_dir / "velodyne").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)

    def work(item):
        sid, scan_path, label_path = item
        try:
            scene = read_scan(scan_path)
            labels = read_labels(label_path)
            check_pair(scene, labels)
        except Exception as exc:  # noqa: BLE001 - skip-and-report contract
            return sid, None, f"{type(exc).__name__}: {exc}"
        result = forge_scan(scene, labels, sid, cfg, policy, bank,
                            target_heights, scan_seed(master_seed, sid), params)
        write_scan(result.cloud, out_dir / "velodyne" / f"{sid}.bin")
        write_labels(result.labels, out_dir / "labels" / f"{sid}.label")
        return sid, result, None

    if workers <= 1:
        outcomes = [work(item) for item in pairs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, pairs))

    records, skipped, per_scan = [], [], {}
    anomaly_points = 0
    for sid, result, error in sorted(outcomes, key=lambda t: t[0]):
        if error is not None:
            skipped.append((sid, error))
            continue
        records.extend(result.records)
        alive = sum(1 for rec in result.records if rec.surviving_count > 0)
        if alive:
            per_scan[sid] = alive
            anomaly_points += sum(rec.surviving_count for rec in result.records)

    summary = ForgeSummary(
        scan_count=len(pairs) - len(skipped),
        anomaly_scan_count=len(per_scan),
        object_count=sum(per_scan.values()),
        anomaly_point_count=anomaly_points,
        records=records,
        per_scan_objects=per_scan,
        skipped=skipped,
    )
    _write_manifest(out_dir / "manifest.tsv", summary, config_echo or {})
    return summary


def _write_manifest(path: Path, summary: ForgeSummary, config_echo: dict) -> None:
    lines = ["# lidarforge forge manifest"]
    for key, value in config_echo.items():
        lines.append(f"# {key} = {value}")
    lines.append(f"# scans_total = {summary.scan_count}")
    lines.append(f"# scans_skipped = {len(summary.skipped)}")
    lines.append(f"# scans_with_anomaly = {summary.anomaly_scan_count}")
    lines.append(f"# objects_inserted = {summary.object_count}")
    lines.append(f"# anomaly_points = {summary.anomaly_point_count}")
    for sid, reason in summary.skipped:
        lines.append(f"# skipped: {sid}\t{reason}")
    lines.append("scan_id\tcategory\tyaw\tx\ty\tz\tscale\tpoints\tindex_start\tindex_end\tseed")
    for rec in sorted(summary.records, key=lambda r: (r.scan_id, r.index_start, r.category)):
        lines.append(
            f"{rec.scan_id}\t{rec.category}\t{rec.yaw:.9g}\t{rec.x:.9g}\t{rec.y:.9g}"
            f"\t{rec.z:.9g}\t{rec.scale:.9g}\t{rec.surviving_count}"
            f"\t{rec.index_start}\t{rec.index_end}\t{rec.seed}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
