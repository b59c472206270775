import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarforge import (FormatError, LabelArray, PointCloud, SensorConfig,
                        ValidationError, check_pair, read_labels, read_scan,
                        write_labels, write_scan)
from lidarforge.cli import BUNDLED_SENSORS, _load_sensor
from lidarforge.scan_io import MAX_GRID_CELLS, staged


class TestReadScan:
    def test_single_point_layout(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        cloud = read_scan(path)
        assert cloud.count == 1
        np.testing.assert_array_equal(cloud.data[0], [1.0, 2.0, 3.0, 0.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert read_scan(path).count == 0

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 33)
        with pytest.raises(FormatError) as info:
            read_scan(path)
        assert str(info.value) == (f"{path}: truncated scan, 33 bytes is not a multiple of 16; "
                                   "incomplete record starts at byte offset 32")

    def test_nonfinite_reports_index(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[:, 3] = 0.1
        data[1, 2] = np.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(data.tobytes())
        with pytest.raises(ValidationError, match="index 1"):
            read_scan(path)


class TestReadLabels:
    def test_low_bits_are_class_id(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<2I", 0x00010002, 0x00000064))
        labels = read_labels(path)
        np.testing.assert_array_equal(labels.class_ids, [2, 100])
        np.testing.assert_array_equal(labels.instance_ids, [1, 0])

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.label"
        path.write_bytes(b"\x00" * 7)
        with pytest.raises(FormatError) as info:
            read_labels(path)
        assert str(info.value) == (f"{path}: truncated label file, 7 bytes is not a multiple "
                                   "of 4; incomplete record starts at byte offset 4")


class TestRoundTrip:
    def test_thousand_random_clouds_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "rt.bin"
        for _ in range(1000):
            n = int(rng.integers(0, 64))
            data = rng.standard_normal((n, 4)).astype(np.float32) * 50
            data[:, 3] = np.abs(data[:, 3])
            cloud = PointCloud(data)
            write_scan(cloud, path)
            assert path.read_bytes() == cloud.tobytes()
            assert read_scan(path) == cloud

    def test_label_roundtrip_preserves_instance_bits(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "rt.label"
        for _ in range(200):
            words = rng.integers(0, 2**32, size=int(rng.integers(0, 64)), dtype=np.uint64)
            labels = LabelArray(words.astype(np.uint32))
            write_labels(labels, path)
            assert read_labels(path) == labels

    def test_empty_cloud_writes_zero_bytes(self, tmp_path):
        path = tmp_path / "e.bin"
        write_scan(PointCloud(np.empty((0, 4), dtype=np.float32)), path)
        assert path.read_bytes() == b""

    def test_nan_cloud_rejected_before_write(self, tmp_path):
        data = np.zeros((2, 4), dtype=np.float32)
        bad = PointCloud(data[:])  # the cloud freezes the view; data stays writable
        data[0, 0] = np.nan
        path = tmp_path / "never.bin"
        with pytest.raises(ValidationError):
            write_scan(bad, path)
        assert not path.exists()

    @given(n=st.integers(min_value=0, max_value=40),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        data = (rng.standard_normal((n, 4)) * 100).astype(np.float32)
        data[:, 3] = np.abs(data[:, 3])
        cloud = PointCloud(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.bin"
            write_scan(cloud, path)
            assert read_scan(path) == cloud


class TestInvariants:
    def test_negative_intensity_rejected(self):
        data = np.zeros((1, 4), dtype=np.float32)
        data[0, 3] = -0.1
        with pytest.raises(ValidationError, match="intensity"):
            PointCloud(data)

    def test_pair_length_mismatch_rejected(self):
        cloud = PointCloud(np.zeros((3, 4), dtype=np.float32))
        labels = LabelArray.from_class_ids(np.zeros(2, dtype=np.int64))
        with pytest.raises(ValidationError, match="3 points"):
            check_pair(cloud, labels)

    def test_cloud_is_immutable(self):
        cloud = PointCloud(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            cloud.data[0, 0] = 1.0

    def test_callers_arrays_stay_writable(self):
        points = np.zeros((3, 4), dtype=np.float32)
        words = np.zeros(3, dtype=np.uint32)
        cloud, labels = PointCloud(points), LabelArray(words)
        points[0, 0] = 1.0
        words[0] = 7
        for frozen in (cloud.data, labels.words):
            assert not frozen.flags.writeable
            with pytest.raises(ValueError):
                frozen[0] = 2


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestStaged:
    def test_new_directory_appears_whole_on_success(self, tmp_path):
        out = tmp_path / "deep" / "out"
        with staged(out) as stage:
            assert list(stage.iterdir()) == []
            (stage / "sub").mkdir()
            (stage / "sub" / "a.bin").write_bytes(b"a")
            assert not out.exists()
        assert files(out) == {"sub/a.bin": b"a"}
        assert [p.name for p in out.parent.iterdir()] == ["out"]
        # made under the umask, as mkdir makes a directory
        (tmp_path / "plain").mkdir()
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_entries_move_into_an_existing_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.scores").write_bytes(b"old")
        (out / "same.scores").write_bytes(b"earlier")
        with staged(out) as stage:
            (stage / "same.scores").write_bytes(b"later")
            (stage / "new.scores").write_bytes(b"new")
        assert files(out) == {"new.scores": b"new", "old.scores": b"old",
                              "same.scores": b"later"}
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_current_directory_as_out_dir(self, tmp_path, monkeypatch):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "out")
        with staged(".") as stage:
            (stage / "a.scores").write_bytes(b"a")
        assert files(tmp_path) == {"out/a.scores": b"a"}
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_raising_block_leaves_out_dir_as_it_was(self, tmp_path, existing):
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "same.scores").write_bytes(b"earlier")
        with pytest.raises(KeyboardInterrupt):
            with staged(out) as stage:
                (stage / "same.scores").write_bytes(b"later")
                raise KeyboardInterrupt
        assert files(tmp_path) == ({"out/same.scores": b"earlier"} if existing else {})
        assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])


class TestSensorConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 64\nwidth = 2048\nfov_up_deg = 3.0\n"
                        "fov_down_deg = 25.0\n")
        cfg = SensorConfig.from_file(path)
        assert cfg.beams == 64 and cfg.width == 2048
        assert cfg.fov_rad == pytest.approx(np.deg2rad(28.0))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 64\n")
        with pytest.raises(FormatError, match="width"):
            SensorConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 64\nwidth = 2048\nfov_up_deg = 3.0\n"
                        "fov_down_deg = 25.0\nfov_up = 3.0\n")
        with pytest.raises(FormatError, match="unknown sensor config key 'fov_up'"):
            SensorConfig.from_file(path)

    def test_radius_key_points_to_cli_flag(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 64\nwidth = 2048\nfov_up_deg = 3.0\n"
                        "fov_down_deg = 25.0\nmax_insert_radius_m = 30\n")
        with pytest.raises(FormatError, match="'max_insert_radius_m'.*--max-radius"):
            SensorConfig.from_file(path)

    def test_zero_fov_rejected(self):
        with pytest.raises(ValidationError):
            SensorConfig(beams=64, width=2048, fov_up_deg=10.0, fov_down_deg=-10.0)

    @pytest.mark.parametrize("up, down", [
        (float("nan"), 25.0), (float("inf"), 25.0), (3.0, -4.0), (-1.0, 25.0), (0.0, 0.0)])
    def test_fov_needs_finite_magnitudes_with_a_positive_sum(self, up, down):
        with pytest.raises(ValidationError):
            SensorConfig(beams=64, width=2048, fov_up_deg=up, fov_down_deg=down)

    def test_zero_upward_extent_allowed(self):
        cfg = SensorConfig(beams=16, width=1024, fov_up_deg=0.0, fov_down_deg=15.0)
        assert cfg.fov_rad == cfg.fov_down_rad

    @pytest.mark.parametrize("beams, width", [
        (65536, 65536), (2**31 - 1, 1), (65535, 32768), (1, 2**30)])
    def test_grid_above_int32_cells_rejected(self, beams, width):
        # (beams + 1) x width counts the out-of-FOV row; nothing is allocated
        with pytest.raises(ValidationError, match=f"beams = {beams} and width = {width}"):
            SensorConfig(beams=beams, width=width, fov_up_deg=3.0, fov_down_deg=25.0)

    @pytest.mark.parametrize("beams, width", [(2**31 - 2, 1), (65534, 32768), (1, 2**30 - 1)])
    def test_grid_at_most_int32_cells_accepted(self, beams, width):
        cfg = SensorConfig(beams=beams, width=width, fov_up_deg=3.0, fov_down_deg=25.0)
        assert (cfg.beams + 1) * cfg.width <= MAX_GRID_CELLS

    def test_grid_bound_applies_to_files(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 65536\nwidth = 65536\nfov_up_deg = 3.0\nfov_down_deg = 25.0\n")
        with pytest.raises(ValidationError, match="beams = 65536 and width = 65536"):
            SensorConfig.from_file(path)

    @pytest.mark.parametrize("name", sorted(BUNDLED_SENSORS))
    def test_bundled_sensors_load(self, name):
        cfg = _load_sensor(name)
        assert (cfg.beams + 1) * cfg.width <= MAX_GRID_CELLS

    def test_non_numeric_value_is_format_error(self, tmp_path):
        path = tmp_path / "sensor.cfg"
        path.write_text("beams = 64\nwidth = wide\nfov_up_deg = 3.0\nfov_down_deg = 25.0\n")
        with pytest.raises(FormatError, match="width = 'wide'"):
            SensorConfig.from_file(path)
