"""Placing anomaly objects in real scans and forging dataset splits.

An object is rested on a permitted planar surface, the scene and the
object points are projected together to the range image and
re-projected back, which removes occluded points and resamples the
object in the sensor's beam pattern.
Surviving object points receive synthesized intensities on the host
scan's scale and the anomaly label; surviving scene points are carried
through bit-exact.

``forge_scan`` draws and places the objects of one scan and merges
them through ``compose_scan``, the one composition path, which owns
the retries of fully occluded objects.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import mesh_bank
from .errors import LidarForgeError, PlacementInfeasibleError, ValidationError
from .intensity import (DEFAULT_NEIGHBORS, NOISE_SCALE, estimate_normals, lambert_intensity,
                        normalize_and_noise)
from .mesh_bank import AnomalyObject, MeshBank
from .range_projection import point_ranges, project
from .scan_io import (LabelArray, PointCloud, SensorConfig, check_class_ids, check_pair,
                      read_labels, read_scan, staged, write_labels, write_scan)

SINGLE_RATIO = 0.40
MULTI_RATIO = 0.60
MULTI_COUNT_DISTRIBUTION = (0.40, 0.30, 0.20, 0.10)
DEFAULT_MAX_RADIUS = 50.0    # insertion radius (m) around the sensor
MIN_SURFACE_POINTS = 30      # allowed points within the insertion radius
FLATNESS_THRESHOLD = 0.2     # max height spread (m) of a site's neighbors
GROUND_NEIGHBORHOOD = 1.0    # radius (m) of a site's neighborhood
PLACEMENT_ATTEMPTS = 64
RETRY_BUDGET = 10           # re-placements of a fully occluded object

# per dataset style: anomaly label id, single-split surfaces, multi-split surfaces
STYLE_PRESETS = {
    "kitti": (2, (40,), (40, 44, 48, 49)),
    "poss": (2, (22,), (22,)),
    "nuscenes": (100, (24,), (24, 25, 26)),
}


@dataclass(frozen=True)
class SplitPolicy:
    """Rules of one dataset split.

    ``kind`` fixes the protocol: the share of scans that receive
    anomalies (``anomaly_ratio``) and the object count distribution,
    whose entry i is the probability of inserting i+1 objects into a
    selected scan.  ``surface_classes`` and ``anomaly_label`` left None
    are taken from ``style``'s entry of ``STYLE_PRESETS`` for ``kind``.
    """

    kind: str
    surface_classes: frozenset | None = None
    anomaly_label: int | None = None
    max_radius: float = DEFAULT_MAX_RADIUS
    style: str = "kitti"

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValidationError(f"policy kind must be 'single' or 'multi', got {self.kind!r}")
        if self.style not in STYLE_PRESETS:
            raise ValidationError(f"style {self.style!r} is not one of {sorted(STYLE_PRESETS)}")
        label, single, multi = STYLE_PRESETS[self.style]
        preset = single if self.kind == "single" else multi
        object.__setattr__(self, "surface_classes", frozenset(
            preset if self.surface_classes is None else self.surface_classes))
        if self.anomaly_label is None:
            object.__setattr__(self, "anomaly_label", label)
        if not 0 < self.max_radius < math.inf:
            raise ValidationError(f"max_radius must be positive and finite, got {self.max_radius}")
        # stored as float, so the manifest reads 50.0 whether 50 or 50.0 was passed
        object.__setattr__(self, "max_radius", float(self.max_radius))
        if not self.surface_classes:
            raise ValidationError("at least one allowed surface class is required")
        check_class_ids("anomaly label", self.anomaly_label)
        check_class_ids("surface classes", sorted(self.surface_classes))
        # objects rest on surface points, so those scenes would already use the anomaly id
        if self.anomaly_label in self.surface_classes:
            raise ValidationError(f"anomaly label {self.anomaly_label} is one of the "
                                  f"surface classes {sorted(self.surface_classes)}")

    @property
    def anomaly_ratio(self) -> float:
        return SINGLE_RATIO if self.kind == "single" else MULTI_RATIO

    @property
    def count_distribution(self) -> tuple:
        return (1.0,) if self.kind == "single" else MULTI_COUNT_DISTRIBUTION

    @classmethod
    def single(cls, surface_classes=None, anomaly_label=None) -> "SplitPolicy":
        """One object per anomaly scan, kitti road surfaces only by default."""
        return cls("single", surface_classes, anomaly_label)

    @classmethod
    def multi(cls, surface_classes=None, anomaly_label=None) -> "SplitPolicy":
        """1-4 objects per anomaly scan on any permitted planar surface,
        the kitti ones by default."""
        return cls("multi", surface_classes, anomaly_label)


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
    positions, heights and radii, and the insertion radius they are
    filtered by.
    """

    def __init__(self, scene: PointCloud, labels: LabelArray, policy: SplitPolicy):
        check_pair(scene, labels)
        class_ids = labels.class_ids
        allowed = np.zeros(len(class_ids), dtype=bool)
        for cid in policy.surface_classes:
            allowed |= class_ids == cid
        rows = scene.data.compress(allowed, axis=0)  # whole rows: one fast gather
        self.xy = rows[:, :2].astype(np.float64)
        self.z = rows[:, 2].astype(np.float64)
        self.r_xy = point_ranges(self.xy)
        self.max_radius = policy.max_radius
        self.in_radius_count = int((self.r_xy <= policy.max_radius).sum())

    def heights_near(self, x: float, y: float) -> np.ndarray:
        """Heights of the allowed points within GROUND_NEIGHBORHOOD of
        (x, y), the boundary included."""
        dx = self.xy[:, 0] - x
        dy = self.xy[:, 1] - y
        return self.z[dx * dx + dy * dy <= GROUND_NEIGHBORHOOD * GROUND_NEIGHBORHOOD]


def pick_placement(surface: PlacementSurface, seed: int | np.random.Generator,
                   object_radius: float = 0.0,
                   occupied: list = ()) -> tuple[float, float, float]:
    """Draw an insertion site on an allowed planar surface.

    Returns (x, y, ground_z) where ground_z is the median height of the
    allowed-surface neighbors within GROUND_NEIGHBORHOOD of the site.
    Candidates with fewer than 5 neighbors, whose neighbors spread more
    than FLATNESS_THRESHOLD in z, or that would overlap an entry of
    ``occupied`` ((x, y, radius) triples: nearer, by ``point_ranges``,
    than ``object_radius`` plus radius), are rejected and redrawn.
    Raises PlacementInfeasibleError when no site is found.
    """
    rng = np.random.default_rng(seed)
    if surface.in_radius_count < MIN_SURFACE_POINTS:
        raise PlacementInfeasibleError(
            f"only {surface.in_radius_count} allowed-surface points within "
            f"{surface.max_radius} m (need {MIN_SURFACE_POINTS})"
        )

    # the whole object must stay inside the radius
    candidates = np.flatnonzero(surface.r_xy <= surface.max_radius - object_radius)
    if candidates.size == 0:
        raise PlacementInfeasibleError(
            f"no allowed-surface point leaves room for an object of radius {object_radius:.2f} m"
        )

    sites = np.asarray(occupied, dtype=np.float64).reshape(-1, 3)
    for _ in range(PLACEMENT_ATTEMPTS):
        pick = int(candidates[rng.integers(candidates.size)])
        cx, cy = surface.xy[pick]

        if (point_ranges(surface.xy[pick] - sites[:, :2]) < object_radius + sites[:, 2]).any():
            continue

        z_near = surface.heights_near(cx, cy)
        if len(z_near) < 5:
            continue
        if float(z_near.max() - z_near.min()) > FLATNESS_THRESHOLD:
            continue
        return float(cx), float(cy), float(np.median(z_near))

    raise PlacementInfeasibleError(
        f"no flat non-overlapping site found in {PLACEMENT_ATTEMPTS} attempts"
    )


def _occlude(scene: PointCloud, objects: list, cfg: SensorConfig):
    """One occlusion pass: project the scene together with the objects'
    points, which follow it in index order.

    Returns (scene_idx, own): the surviving scene indices, and for each
    object the indices of its surviving points within the object, all
    ascending.
    """
    surviving = project(scene, cfg, [obj.points for obj in objects]).surviving_indices()
    starts = scene.count + np.cumsum([0] + [obj.count for obj in objects])[:-1]
    parts = np.split(surviving, np.searchsorted(surviving, starts))
    return parts[0], [part - start for part, start in zip(parts[1:], starts)]


def _finalize(scene: PointCloud, labels: LabelArray, objects: list,
              scene_idx: np.ndarray, own: list, policy: SplitPolicy,
              rng: np.random.Generator):
    """Build (cloud, labels, records) from one occlusion pass.

    Surviving scene rows pass through bit-exact.  Each object's
    survivors get normals, Lambert intensities blended into the scene
    with noise, and the anomaly label; an object with no survivor gets a
    0-point record and draws nothing from ``rng``.  Records carry scan
    id "" and seed 0.
    """
    # a float32 mean may overflow; normalize_and_noise rejects the infinite mean
    with np.errstate(over="ignore"):
        scene_mean = float(scene.intensity.mean()) if scene.count else 0.0
    scene_max = float(scene.intensity.max()) if scene.count else 0.0
    out_data = [scene.data[scene_idx]]
    out_words = [labels.words[scene_idx]]
    records = []
    cursor = len(scene_idx)
    for obj, mine in zip(objects, own):
        m_surv = len(mine)
        if m_surv:
            dense = np.asarray(obj.points, dtype=np.float32).astype(np.float64)
            pts_surv = dense[mine]
            normals = estimate_normals(dense, at=mine)
            raw = lambert_intensity(pts_surv, normals, obj.reflectivity)
            block = np.empty((m_surv, 4), dtype=np.float32)
            block[:, :3] = pts_surv
            block[:, 3] = normalize_and_noise(raw, scene_mean, scene_max, rng)
            out_data.append(block)
            out_words.append(np.full(m_surv, policy.anomaly_label, dtype=np.uint32))
        records.append(InsertionRecord(
            scan_id="", category=obj.category, yaw=obj.yaw,
            x=obj.translation[0], y=obj.translation[1], z=obj.translation[2],
            scale=obj.scale, surviving_count=m_surv,
            index_start=cursor if m_surv else 0,
            index_end=cursor + m_surv if m_surv else 0,
            seed=0,
        ))
        cursor += m_surv

    cloud = PointCloud(np.concatenate(out_data, axis=0))
    return cloud, LabelArray(np.concatenate(out_words)), records


def _settle(surface: PlacementSurface, rng: np.random.Generator,
            obj: AnomalyObject, others: list) -> AnomalyObject | None:
    """``obj`` rested on a flat site of ``surface`` clear of ``others``, or None."""
    try:
        x, y, gz = pick_placement(
            surface, rng, obj.xy_radius,
            [(p.translation[0], p.translation[1], p.xy_radius) for p in others])
    except PlacementInfeasibleError:
        return None
    return mesh_bank.place(obj, x, y, gz)


def compose_scan(scene: PointCloud, labels: LabelArray, objects: list,
                 cfg: SensorConfig, policy: SplitPolicy,
                 seed: int | np.random.Generator):
    """Merge placed objects into a scan, then build the output once.

    An object whose every point loses the occlusion contest is re-placed
    clear of the others, up to ``RETRY_BUDGET`` times; a retry re-runs
    only the occlusion pass, so a budget of 0 gives exactly one.  An
    object that finds no new site keeps its place.

    Returns (cloud, labels, records), one record per object in the
    given order, at its final placement, each with scan id "" and
    seed 0; an object still fully occluded gets 0 points.  Output
    ordering: surviving scene points first in their original relative
    order, then surviving object points grouped per object.  Scene
    points and labels pass through bit-exact; object points take the
    policy's anomaly label.  With no objects the result is the scene's
    own re-projection.
    """
    check_pair(scene, labels)
    _reject_preexisting_anomaly_labels(labels, policy)
    for obj in objects:
        reach = float(point_ranges(obj.points[:, :2]).max())
        if reach > policy.max_radius + 1e-9:
            raise ValidationError(f"object {obj.category!r} extends to {reach:.2f} m, "
                                  f"beyond the {policy.max_radius} m insertion radius")
    rng = np.random.default_rng(seed)
    objects = list(objects)
    scene_idx, own = _occlude(scene, objects, cfg)
    surface = None
    for _ in range(RETRY_BUDGET):
        dead = [j for j, mine in enumerate(own) if not len(mine)]
        if not dead:
            break
        if surface is None:
            surface = PlacementSurface(scene, labels, policy)
        for j in dead:
            objects[j] = _settle(surface, rng, objects[j],
                                 objects[:j] + objects[j + 1:]) or objects[j]
        scene_idx, own = _occlude(scene, objects, cfg)
    return _finalize(scene, labels, objects, scene_idx, own, policy, rng)


@dataclass
class ForgeScanResult:
    cloud: PointCloud
    labels: LabelArray
    records: list
    modified: bool


def forge_scan(scene: PointCloud, labels: LabelArray, scan_id: str,
               cfg: SensorConfig, policy: SplitPolicy, bank: MeshBank,
               seed: int) -> ForgeScanResult:
    """Run the per-scan insertion protocol.

    A Bernoulli draw with the policy ratio decides anomaly presence;
    the object count follows the policy distribution.  Each object is
    placed on a flat site clear of the others, or dropped when it finds
    none.  ``compose_scan`` merges the placed objects, retries included,
    drawing from the same generator.  Records carry ``scan_id`` and
    ``seed``; objects still fully occluded keep a 0-point record after
    the surviving ones.  Scans that end up with no surviving object are
    emitted unchanged.
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
        obj = _settle(surface, rng, mesh_bank.build_anomaly_object(
            mesh, category, bank.reflectivity[category], bank.heights[category], rng), placed)
        if obj is not None:
            placed.append(obj)
    # float64 copies of every allowed point; compose_scan builds its own for retries
    del surface
    if not placed:
        return ForgeScanResult(scene, labels, [], modified=False)

    cloud, words, records = compose_scan(scene, labels, placed, cfg, policy, rng)
    records = [replace(rec, scan_id=scan_id, seed=seed) for rec in records]
    records.sort(key=lambda rec: rec.surviving_count == 0)  # stable: survivors first
    if not any(rec.surviving_count for rec in records):
        return ForgeScanResult(scene, labels, records, modified=False)
    return ForgeScanResult(cloud, words, records, modified=True)


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
                cfg: SensorConfig, bank: MeshBank, master_seed: int,
                workers: int = 1) -> ForgeSummary:
    """Forge a whole split into ``out_dir`` (velodyne/, labels/, manifest.tsv).

    Deterministic for a given master seed: each scan is keyed by
    (master seed, scan id) only, so the output tree is byte-identical
    regardless of worker count.  The manifest's header records how the
    split was forged, as the CLI's does.  Scans that cannot be read, or
    whose forging or writing raises a LidarForgeError, are skipped and
    reported in the manifest, with none of their files left behind.
    Each worker holds one scan at a time: a scan's cloud and labels die
    once they are written, and only its records wait for the manifest.
    A master seed outside [0, 2**64) or fewer than one worker is
    rejected first.  The tree is committed by ``scan_io.staged``, so an
    existing ``out_dir`` is refused, and a split that raises leaves no
    directory behind.
    """
    if not pairs:
        raise ValidationError("scan list is empty")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    seeds = {sid: scan_seed(master_seed, sid) for sid, _, _ in pairs}

    with staged(out_dir) as tree:
        (tree / "velodyne").mkdir()
        (tree / "labels").mkdir()

        def work(item):
            sid, scan_path, label_path = item
            try:
                scene = read_scan(scan_path)
                labels = read_labels(label_path)
            except Exception as exc:  # noqa: BLE001 - skip-and-report contract
                return sid, None, f"{type(exc).__name__}: {exc}"
            scan_file = tree / "velodyne" / f"{sid}.bin"
            label_file = tree / "labels" / f"{sid}.label"
            try:
                result = forge_scan(scene, labels, sid, cfg, policy, bank, seeds[sid])
                write_scan(result.cloud, scan_file)
                write_labels(result.labels, label_file)
            except LidarForgeError as exc:  # skip-and-report contract
                scan_file.unlink(missing_ok=True)
                label_file.unlink(missing_ok=True)
                return sid, None, f"{type(exc).__name__}: {exc}"
            # not the result: its cloud and labels would live until the manifest
            return sid, result.records, None

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, pairs))

        records, skipped, per_scan = [], [], {}
        anomaly_points = 0
        for sid, scan_records, error in sorted(outcomes, key=lambda t: t[0]):
            if error is not None:
                skipped.append((sid, error))
                continue
            records.extend(scan_records)
            alive = sum(1 for rec in scan_records if rec.surviving_count > 0)
            if alive:
                per_scan[sid] = alive
                anomaly_points += sum(rec.surviving_count for rec in scan_records)

        summary = ForgeSummary(
            scan_count=len(pairs) - len(skipped),
            anomaly_scan_count=len(per_scan),
            object_count=sum(per_scan.values()),
            anomaly_point_count=anomaly_points,
            records=records,
            per_scan_objects=per_scan,
            skipped=skipped,
        )
        _write_manifest(tree / "manifest.tsv", summary, policy, cfg, master_seed)
    return summary


def _write_manifest(path: Path, summary: ForgeSummary, policy: SplitPolicy,
                    cfg: SensorConfig, master_seed: int) -> None:
    """The header (how the split was forged, its counts, skipped scans), then the records."""
    header = {
        "seed": master_seed,
        "policy": policy.kind,
        "anomaly_ratio": policy.anomaly_ratio,
        "surface_classes": ",".join(str(c) for c in sorted(policy.surface_classes)),
        "anomaly_label": policy.anomaly_label,
        "max_radius": policy.max_radius,
        "count_distribution": ",".join(f"{p:g}" for p in policy.count_distribution),
        **{f"sensor_{f.name}": getattr(cfg, f.name) for f in fields(cfg)},
        "style": policy.style,
        # fixed values, kept in the header the golden digests cover
        "object_points": mesh_bank.OBJECT_POINTS,
        "noise_scale": NOISE_SCALE,
        "normal_neighbors": DEFAULT_NEIGHBORS,
        "normalization": "mean",
        "scans_total": summary.scan_count,
        "scans_skipped": len(summary.skipped),
        "scans_with_anomaly": summary.anomaly_scan_count,
        "objects_inserted": summary.object_count,
        "anomaly_points": summary.anomaly_point_count,
    }
    lines = ["# lidarforge forge manifest"]
    lines += [f"# {key} = {value}" for key, value in header.items()]
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
