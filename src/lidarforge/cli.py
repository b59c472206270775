"""Command line interface.

Subcommands:

* ``forge``    build an out-of-distribution split from scans + meshes
* ``project``  debug range-image projection of a single scan (PGM)
* ``score``    compute anomaly scores from feature tensor files
* ``eval``     evaluate score files against label files

Randomized behavior is keyed to a single master seed.  forge and score
write only a new ``--out``: they stage it and rename it into place only
on success (``scan_io.staged``), so a failed run leaves no directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import insertion, losses, metrics, scoring
from .configfile import read_bundled
from .errors import LidarForgeError, ValidationError
from .insertion import DEFAULT_MAX_RADIUS, STYLE_PRESETS, SplitPolicy
from .mesh_bank import MeshBank, ReflectivityCatalog, load_target_heights
from .range_projection import point_ranges, project, write_pgm
from .scan_io import SensorConfig, check_class_ids, read_labels, read_scan, staged

BUNDLED_SENSORS = {
    "semantickitti": "sensor_semantickitti.cfg",
    "semanticposs": "sensor_semanticposs.cfg",
    "nuscenes": "sensor_nuscenes.cfg",
}


def _load_sensor(name_or_path: str) -> SensorConfig:
    if Path(name_or_path).exists():
        return SensorConfig.from_file(name_or_path)
    if name_or_path in BUNDLED_SENSORS:
        return read_bundled(BUNDLED_SENSORS[name_or_path], SensorConfig.from_file)
    raise ValidationError(
        f"sensor {name_or_path!r} is neither a file nor one of {sorted(BUNDLED_SENSORS)}")


def _build_policy(args) -> SplitPolicy:
    """The policy of ``args``; what they leave unset comes from the style's preset."""
    surfaces = None
    if args.surface_classes:
        try:
            surfaces = tuple(int(t) for t in args.surface_classes.split(","))
        except ValueError:
            raise ValidationError(f"--surface-classes must be comma-separated integers, "
                                  f"got {args.surface_classes!r}") from None
    return SplitPolicy(args.policy, surfaces, args.anomaly_label, args.max_radius, args.style)


def cmd_forge(args) -> int:
    for name in ("scans", "labels", "meshes"):
        if not Path(getattr(args, name)).is_dir():
            raise ValidationError(f"--{name} directory {getattr(args, name)!r} does not exist")

    sensor = _load_sensor(args.sensor)
    policy = _build_policy(args)
    catalog = ReflectivityCatalog.from_file(args.catalog) if args.catalog \
        else ReflectivityCatalog.default()
    bank = MeshBank(args.meshes, catalog, load_target_heights(args.heights))

    pairs = insertion.discover_pairs(args.scans, args.labels)
    if not pairs:
        raise ValidationError(f"no .bin scans found under {args.scans}")

    summary = insertion.forge_split(pairs, args.out, policy, sensor, bank, args.seed,
                                    workers=args.workers)
    print(f"forged {summary.scan_count} scans -> {args.out}")
    print(f"  anomaly scans: {summary.anomaly_scan_count}"
          f" ({summary.anomaly_scan_count / max(summary.scan_count, 1):.2%})")
    print(f"  objects inserted: {summary.object_count}")
    print(f"  anomaly points: {summary.anomaly_point_count}")
    if summary.skipped:
        print(f"  skipped scans: {len(summary.skipped)} (see manifest)")
    return 0


def cmd_project(args) -> int:
    sensor = _load_sensor(args.sensor)
    cloud = read_scan(args.scan)
    img = project(cloud, sensor)
    write_pgm(img, args.out)
    filled = int(img.filled.sum())
    finite = img.ranges[img.filled]
    print(f"projected {cloud.count} points onto {img.height}x{img.width}")
    print(f"  filled cells: {filled} ({filled / (img.height * img.width):.2%})")
    if filled:
        print(f"  range min/max: {finite.min():.3f} / {finite.max():.3f} m")
    print(f"  wrote {args.out}")
    return 0


def _feature_pairs(features_dir: Path):
    pairs = []
    for sem in sorted(features_dir.glob("*.sem.ftr")):
        stem = sem.name[: -len(".sem.ftr")]
        cont = features_dir / f"{stem}.cont.ftr"
        if not cont.exists():
            raise ValidationError(f"missing contrastive features for {stem!r}: {cont}")
        pairs.append((stem, sem, cont))
    if not pairs:
        raise ValidationError(f"no *.sem.ftr feature files under {features_dir}")
    return pairs


def cmd_score(args) -> int:
    """Score every scan of ``--features`` into a new ``--out``, staged:
    an existing ``--out`` is refused and a failed run leaves no
    directory, so eval never reads a partial set of score files or one
    that mixes two runs.  A scan's ValidationError names the feature
    file at fault (see ``_score_scan``)."""
    features_dir = Path(args.features)
    if not features_dir.is_dir():
        raise ValidationError(f"--features directory {features_dir} does not exist")
    bank = scoring.PrototypeBank(scoring.read_tensor(args.prototypes))
    # faults of the run, not of the scan that would meet them first
    bank.require_complete()
    scoring.check_radius(args.radius)
    pairs = _feature_pairs(features_dir)
    buffers = (bytearray(), bytearray())  # one per head, reused by every scan
    with staged(args.out) as stage:
        for stem, sem_path, cont_path in pairs:
            _score_scan(stem, sem_path, cont_path, bank, stage, args, buffers)
    print(f"scored {len(pairs)} scans -> {args.out}")
    return 0


def _score_scan(stem: str, sem_path: Path, cont_path: Path, bank: scoring.PrototypeBank,
                out_dir: Path, args, buffers: tuple[bytearray, bytearray]) -> None:
    """Score one scan and write its score files into ``out_dir``.  Its
    features and scores die on return, so one scan is alive at a time.

    Each head is read into its own buffer of ``buffers``, which the
    features view: the caller passes the same two for every scan, so no
    scan allocates its file buffers anew.

    A ValidationError is prefixed with the file at fault: the
    ``.cont.ftr`` when only its values are not finite, else the
    ``.sem.ftr``.  The heads are searched only once the scan has failed.
    """
    sem = scoring.read_tensor(sem_path, buffers[0])
    cont = scoring.read_tensor(cont_path, buffers[1])
    try:
        feats = scoring.FeatureSet(semantic=sem, contrastive=cont)
        scores = scoring.compute_scores(feats, bank, radius=args.radius)
        scoring.write_scores(out_dir / stem, scores, which=args.score)
        if args.losses is not None:
            _print_losses(stem, feats, bank, args)
    except ValidationError as exc:
        in_cont = (sem.shape == cont.shape and np.isfinite(sem).all()
                   and not np.isfinite(cont).all())
        raise ValidationError(f"{cont_path if in_cont else sem_path}: {exc}") from exc


def _print_losses(stem: str, feats: scoring.FeatureSet, bank: scoring.PrototypeBank,
                  args) -> None:
    """Debug output: forward loss values for one scan.

    Labels must hold class indices below C; points at or above C are
    excluded from the losses (they are not inlier training points).
    """
    label_path = Path(args.losses) / f"{stem}.label"
    y = read_labels(label_path).class_ids.astype(np.int64)
    if y.shape[0] != feats.count:
        raise ValidationError(f"{y.shape[0]} labels vs {feats.count} feature rows")
    c = feats.num_classes
    keep = y < c
    sem, cont, y = feats.semantic[keep], feats.contrastive[keep], y[keep]
    if y.size == 0:
        print(f"{stem}\tno inlier-labeled points, losses skipped")
        return
    ce, _ = losses.loss_ce(sem, y)
    lovasz, _ = losses.loss_lovasz(sem, y)
    prot, _ = losses.loss_prototype(sem, y, bank)
    means, _ = losses.mean_class_features(cont, y, c)
    cont_loss, _ = losses.loss_contrastive(means, bank)
    obj, _ = losses.loss_objectosphere(cont, np.ones(y.shape[0], dtype=bool), args.radius)
    shead, chead = losses.loss_heads(ce, lovasz, prot, cont_loss, obj)
    print(f"{stem}\tce={ce:.6f}\tlovasz={lovasz:.6f}\tprototype={prot:.6f}"
          f"\tcontrastive={cont_loss:.6f}\tobjectosphere={obj:.6f}"
          f"\tsemantic_head={shead:.6f}\tcontrastive_head={chead:.6f}")


def _collect_eval(args):
    """Read every scan's scores, truth and, with ``--scans``, ranges.

    Returns ``(paths, offsets, scores, truth, ranges)``: the score files
    read, then float32 scores, bool truth and float32 ranges, each
    filled into one array sized from the score files' lengths, scan
    ``i`` at ``offsets[i]:offsets[i + 1]``; ``ranges`` is None without
    ``--scans``.  Only one scan's file contents are alive besides them.
    An error in a scan, label or score file names that file.
    """
    scores_dir = Path(args.scores)
    labels_dir = Path(args.labels)
    scans_dir = Path(args.scans) if args.scans else None
    paths = sorted(scores_dir.glob("*.scores"))
    if not paths:
        raise ValidationError(f"no *.scores files under {scores_dir}")
    # one float32 per score; read_scores rejects a file of partial records
    offsets = np.cumsum([0] + [path.stat().st_size // 4 for path in paths])
    scores = np.empty(offsets[-1], dtype=np.float32)
    truth = np.empty(offsets[-1], dtype=bool)
    ranges = None if scans_dir is None else np.empty(offsets[-1], dtype=np.float32)
    for path, lo, hi in zip(paths, offsets[:-1], offsets[1:]):
        stem = path.stem
        label_path = labels_dir / f"{stem}.label"
        if not label_path.exists():
            raise ValidationError(f"missing labels for {stem!r}: {label_path}")
        s = scoring.read_scores(path)
        if s.shape[0] != hi - lo:
            raise ValidationError(f"{path} changed while it was read")
        scores[lo:hi] = s
        labels = read_labels(label_path)
        if labels.count != hi - lo:
            raise ValidationError(f"{label_path}: {hi - lo} scores vs {labels.count} labels")
        np.equal(labels.class_ids, args.anomaly_label, out=truth[lo:hi])
        if ranges is not None:
            scan_path = scans_dir / f"{stem}.bin"
            try:
                cloud = read_scan(scan_path)
            except ValidationError as exc:
                raise ValidationError(f"{scan_path}: {exc}") from exc
            if cloud.count != hi - lo:
                raise ValidationError(f"{scan_path}: {cloud.count} points vs {hi - lo} scores")
            ranges[lo:hi] = _float32_at_most(point_ranges(cloud.xyz))
    return paths, offsets, scores, truth, ranges


def _float32_at_most(values: np.ndarray) -> np.ndarray:
    """float64 ranges ``values`` (each at least 0) rounded down to float32.

    A range-bin edge is a float32 value, so it splits the rounded-down
    ranges exactly as it splits the float64 ones; rounding to nearest
    would move a range just below an edge onto it.  A range beyond
    float32's largest value becomes that value.
    """
    with np.errstate(over="ignore"):  # beyond float32's range: inf, rounded down below
        out = values.astype(np.float32)
    # at least 0, so the float32 one step down is one less on the bits
    bits = out.view(np.uint32)
    bits -= out > values
    return out


def cmd_eval(args) -> int:
    check_class_ids("anomaly label", args.anomaly_label)
    paths, offsets, scores, truth, ranges = _collect_eval(args)
    try:
        pair = metrics.EvalPair(scores, truth, ranges)
    except ValidationError as exc:
        # the arrays match in length, so a score is not finite: name its file
        first = int(np.flatnonzero(~np.isfinite(scores))[0])
        path = paths[int(np.searchsorted(offsets, first, side="right")) - 1]
        raise ValidationError(f"{path}: {exc}") from exc

    lines = ["metric               value", "-" * 27]
    if pair.positives and pair.negatives:
        auroc, fpr, ap = metrics.split_metrics(pair)
    else:  # a split without one class: only AP, and only with positives, is defined
        auroc = fpr = None
        ap = metrics.average_precision(pair) if pair.positives else None
    kv = {"auroc": auroc, "fpr_at_95tpr": fpr, "ap": ap}
    if ranges is not None:
        for key, value in metrics.range_binned_ap(pair).items():
            kv[f"ap_bin_{key}"] = value
    for key, value in kv.items():
        shown = "undefined" if value is None else f"{value:.6f}"
        lines.append(f"{key:<20} {shown}")
    lines.append("")
    for key, value in kv.items():
        lines.append(f"{key} = {'undefined' if value is None else f'{value:.9f}'}")

    if args.per_scan:
        lines.append("")
        for path, lo, hi in zip(paths, offsets[:-1], offsets[1:]):
            try:
                value = metrics.auroc(metrics.EvalPair(scores[lo:hi], truth[lo:hi]))
                lines.append(f"scan {path.stem} auroc = {value:.6f}")
            except LidarForgeError as exc:
                lines.append(f"scan {path.stem} auroc = undefined ({exc})")

    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lidarforge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    forge = sub.add_parser("forge", help="forge an out-of-distribution split")
    forge.add_argument("--scans", required=True, help="directory of <stem>.bin scans")
    forge.add_argument("--labels", required=True, help="directory of <stem>.label files")
    forge.add_argument("--meshes", required=True, help="root of category/*.off mesh folders")
    forge.add_argument("--out", required=True, help="output dataset directory (must not exist)")
    forge.add_argument("--sensor", required=True,
                       help=f"sensor config path or one of {sorted(BUNDLED_SENSORS)}")
    forge.add_argument("--policy", choices=("single", "multi"), required=True)
    forge.add_argument("--seed", type=int, default=0, help="master seed (uint64)")
    forge.add_argument("--style", choices=sorted(STYLE_PRESETS), default="kitti")
    forge.add_argument("--surface-classes", default="",
                       help="comma-separated class ids overriding the style preset")
    forge.add_argument("--anomaly-label", type=int, default=None)
    forge.add_argument("--max-radius", type=float, default=DEFAULT_MAX_RADIUS)
    forge.add_argument("--catalog", default=None, help="reflectivity config (default: bundled)")
    forge.add_argument("--heights", default=None, help="target-height config (default: bundled)")
    forge.add_argument("--workers", type=int, default=1)
    forge.set_defaults(func=cmd_forge)

    proj = sub.add_parser("project", help="project one scan to a PGM range image")
    proj.add_argument("--scan", required=True)
    proj.add_argument("--sensor", required=True)
    proj.add_argument("--out", required=True, help="output .pgm path")
    proj.set_defaults(func=cmd_project)

    score = sub.add_parser("score", help="compute anomaly scores from feature files")
    score.add_argument("--features", required=True,
                       help="directory of <stem>.sem.ftr / <stem>.cont.ftr tensor files")
    score.add_argument("--prototypes", required=True, help="prototype tensor file (C x C)")
    score.add_argument("--out", required=True,
                       help="output directory of score files (must not exist)")
    score.add_argument("--radius", type=float, default=scoring.DEFAULT_NORM_THRESHOLD)
    score.add_argument("--score", choices=scoring.SCORE_NAMES,
                       default="fused", help="which score channel to write")
    score.add_argument("--losses", default=None, metavar="LABELS_DIR",
                       help="also print forward loss values against the <stem>.label "
                            "files with class indices in this directory")
    score.set_defaults(func=cmd_score)

    ev = sub.add_parser("eval", help="evaluate score files against labels")
    ev.add_argument("--scores", required=True, help="directory of <stem>.scores files")
    ev.add_argument("--labels", required=True, help="directory of <stem>.label files")
    ev.add_argument("--scans", default=None,
                    help="directory of <stem>.bin scans; enables range-binned AP")
    ev.add_argument("--anomaly-label", type=int, default=SplitPolicy.single().anomaly_label)
    ev.add_argument("--per-scan", action="store_true")
    ev.add_argument("--out", default=None, help="also write the report to this file")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LidarForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
