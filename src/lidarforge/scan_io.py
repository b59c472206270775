"""Reading and writing LiDAR scans and per-point label files.

Supported on-disk layout (the KITTI convention, used here for every
dataset style):

* scan (``.bin``): consecutive little-endian ``float32`` quadruples
  ``(x, y, z, intensity)``, 16 bytes per point.
* labels (``.label``): one little-endian ``uint32`` word per point.
  The low 16 bits hold the semantic class id; the high 16 bits carry an
  instance id that is preserved on round-trip but otherwise ignored.

All containers are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .configfile import parse_number, read_keyvalue
from .errors import FormatError, ValidationError

CLASS_ID_MASK = 0xFFFF


class PointCloud:
    """A LiDAR scan: N points of (x, y, z, intensity) as float32.

    Coordinates are meters, intensity is the sensor remission value
    (non-negative; raw sensors may exceed 1).  Every cloud is validated
    when it is built.  A contiguous float32 array is kept as a read-only
    view, not copied: the caller's own array stays writable, and a write
    to it afterwards shows in the cloud (``write_scan`` validates again).
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValidationError(f"point cloud must be (N, 4), got shape {data.shape}")
        data = data.view()
        data.setflags(write=False)
        self._data = data
        self.validate()

    @classmethod
    def from_xyz(cls, xyz: np.ndarray, intensity: np.ndarray | float = 0.0) -> "PointCloud":
        xyz = np.asarray(xyz, dtype=np.float32)
        data = np.empty((xyz.shape[0], 4), dtype=np.float32)
        data[:, :3] = xyz
        data[:, 3] = intensity
        return cls(data)

    def validate(self) -> None:
        # one pass over the whole array; the per-row pass only finds the index
        if not np.isfinite(self._data).all():
            idx = int(np.flatnonzero(~np.isfinite(self._data).all(axis=1))[0])
            raise ValidationError(f"non-finite value at point index {idx}")
        neg = self._data[:, 3] < 0
        if neg.any():
            idx = int(np.flatnonzero(neg)[0])
            raise ValidationError(f"negative intensity at point index {idx}")

    @property
    def data(self) -> np.ndarray:
        """The raw (N, 4) float32 array (read-only)."""
        return self._data

    @property
    def xyz(self) -> np.ndarray:
        return self._data[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self._data[:, 3]

    @property
    def count(self) -> int:
        return self._data.shape[0]

    def __len__(self) -> int:
        return self.count

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Select points by index, preserving exact float bits."""
        return PointCloud(self._data[np.asarray(indices)])

    def tobytes(self) -> bytes:
        return self._data.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.tobytes() == other.tobytes()


class LabelArray:
    """Per-point label words; low 16 bits are the semantic class id.

    Like ``PointCloud``, keeps a read-only view of a contiguous uint32
    array and leaves the caller's array writable.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        words = np.ascontiguousarray(words, dtype=np.uint32)
        if words.ndim != 1:
            raise ValidationError(f"labels must be 1-D, got shape {words.shape}")
        words = words.view()
        words.setflags(write=False)
        self._words = words

    @classmethod
    def from_class_ids(cls, class_ids: np.ndarray) -> "LabelArray":
        ids = np.asarray(class_ids)
        if ids.size and (ids.min() < 0 or ids.max() > CLASS_ID_MASK):
            raise ValidationError("class ids must fit in 16 bits")
        return cls(ids.astype(np.uint32))

    @property
    def words(self) -> np.ndarray:
        return self._words

    @property
    def class_ids(self) -> np.ndarray:
        return self._words & CLASS_ID_MASK

    @property
    def instance_ids(self) -> np.ndarray:
        return self._words >> 16

    @property
    def count(self) -> int:
        return self._words.shape[0]

    def __len__(self) -> int:
        return self.count

    def take(self, indices: np.ndarray) -> "LabelArray":
        return LabelArray(self._words[np.asarray(indices)])

    def tobytes(self) -> bytes:
        return self._words.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelArray):
            return NotImplemented
        return self.tobytes() == other.tobytes()


@dataclass(frozen=True)
class SensorConfig:
    """Geometry of a spinning LiDAR sensor for range-image projection.

    ``fov_up_deg`` and ``fov_down_deg`` are the upward and downward
    inclination extents as finite magnitudes >= 0 in degrees; the total
    vertical field of view is their sum, which must be positive.
    """

    beams: int
    width: int
    fov_up_deg: float
    fov_down_deg: float

    def __post_init__(self):
        if self.beams <= 0 or self.width <= 0:
            raise ValidationError("beams and width must be positive")
        for name in ("fov_up_deg", "fov_down_deg"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(
                    f"{name} must be a finite magnitude >= 0, got {getattr(self, name)}")
        if self.fov_rad <= 0:
            raise ValidationError("total vertical field of view must be positive")

    @property
    def fov_up_rad(self) -> float:
        return float(np.deg2rad(self.fov_up_deg))

    @property
    def fov_down_rad(self) -> float:
        return float(np.deg2rad(self.fov_down_deg))

    @property
    def fov_rad(self) -> float:
        return self.fov_up_rad + self.fov_down_rad

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "SensorConfig":
        """Load from a key-value file with exactly the keys beams, width,
        fov_up_deg and fov_down_deg; any other key is a FormatError."""
        raw = read_keyvalue(path)
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                hint = " (the insertion radius is set by --max-radius)" \
                    if key == "max_insert_radius_m" else ""
                raise FormatError(f"{path}: unknown sensor config key {key!r}{hint}")
        kinds = {"beams": int, "width": int, "fov_up_deg": float, "fov_down_deg": float}
        try:
            return cls(**{key: parse_number(path, key, raw[key], kind)
                          for key, kind in kinds.items()})
        except KeyError as exc:
            raise FormatError(f"{path}: missing sensor config key {exc.args[0]!r}") from None


def read_records(path: str | os.PathLike, dtype: str, width: int, what: str) -> np.ndarray:
    """Read a file of fixed-size records as an (N, width) array of ``dtype``.

    Raises FormatError, naming the file as ``what``, when the byte
    length is not a whole number of records; the message reports the
    offset of the incomplete record.
    """
    raw = Path(path).read_bytes()
    record_bytes = np.dtype(dtype).itemsize * width
    if len(raw) % record_bytes != 0:
        offset = len(raw) - (len(raw) % record_bytes)
        raise FormatError(
            f"{path}: truncated {what}, {len(raw)} bytes is not a multiple of "
            f"{record_bytes}; incomplete record starts at byte offset {offset}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(-1, width)


def read_scan(path: str | os.PathLike) -> PointCloud:
    """Read a ``.bin`` scan file.

    Raises FormatError when the byte length is not a multiple of 16
    and ValidationError on non-finite values.
    """
    return PointCloud(read_records(path, "<f4", 4, "scan"))


def write_scan(cloud: PointCloud, path: str | os.PathLike) -> None:
    """Write a scan; read_scan(write_scan(c)) reproduces c bit-exactly."""
    cloud.validate()
    _write_records(cloud.data, "<f4", path)


def read_labels(path: str | os.PathLike) -> LabelArray:
    """Read a ``.label`` file of little-endian uint32 words."""
    return LabelArray(read_records(path, "<u4", 1, "label file").ravel())


def write_labels(labels: LabelArray, path: str | os.PathLike) -> None:
    _write_records(labels.words, "<u4", path)


def _write_records(array: np.ndarray, dtype: str, path: str | os.PathLike) -> None:
    """Write ``array`` as ``dtype`` from its own buffer, without a bytes copy."""
    with open(path, "wb") as f:
        array.astype(dtype, copy=False).tofile(f)


def check_pair(cloud: PointCloud, labels: LabelArray) -> None:
    """Reject a scan/label pair whose lengths disagree."""
    if cloud.count != labels.count:
        raise ValidationError(
            f"scan has {cloud.count} points but labels have {labels.count} entries"
        )
