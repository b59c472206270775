import numpy as np
import pytest
from scipy.stats import chisquare

from helpers import make_cube_mesh

from lidarforge import (AnomalyObject, FormatError, MeshBank, ReflectivityCatalog,
                        TriangleMesh, UnknownCategoryError, ValidationError, augment,
                        build_anomaly_object, load_off, load_target_heights, place,
                        sample_surface)

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


class TestLoadOff:
    def test_tetrahedron(self, tmp_path):
        path = tmp_path / "tetra.off"
        path.write_text(TETRA_OFF)
        mesh = load_off(path)
        assert mesh.vertices.shape == (4, 3)
        assert mesh.faces.shape == (4, 3)

    def test_glued_header(self, tmp_path):
        glued = TETRA_OFF.replace("OFF\n4 4 6", "OFF4 4 6")
        a, b = tmp_path / "a.off", tmp_path / "b.off"
        a.write_text(TETRA_OFF)
        b.write_text(glued)
        ma, mb = load_off(a), load_off(b)
        np.testing.assert_array_equal(ma.vertices, mb.vertices)
        np.testing.assert_array_equal(ma.faces, mb.faces)

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text(TETRA_OFF.replace("3 1 2 3", "3 1 2 99"))
        with pytest.raises(FormatError, match="99"):
            load_off(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("4 4 6\n0 0 0\n")
        with pytest.raises(FormatError, match="OFF header"):
            load_off(path)

    def test_truncated_vertices(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n")
        with pytest.raises(FormatError, match="vertices"):
            load_off(path)


class TestSampleSurface:
    def test_triangle_centroid(self):
        mesh = TriangleMesh(
            vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            faces=np.array([[0, 1, 2]]),
        )
        pts = sample_surface(mesh, 100_000, seed=0)
        np.testing.assert_allclose(pts.mean(axis=0), [1 / 3, 1 / 3, 0.0], atol=0.01)

    def test_area_weighted_face_choice(self):
        # two coplanar triangles with areas 1 and 3, separable by x sign
        mesh = TriangleMesh(
            vertices=np.array([
                [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0],   # area 1
                [0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 0.0],    # area 3
            ]),
            faces=np.array([[0, 1, 2], [3, 4, 5]]),
        )
        pts = sample_surface(mesh, 100_000, seed=1)
        frac_small = (pts[:, 0] < 0).mean()
        assert frac_small == pytest.approx(0.25, abs=0.01)

    def test_deterministic_given_seed(self):
        mesh = make_cube_mesh()
        np.testing.assert_array_equal(sample_surface(mesh, 1000, seed=42),
                                      sample_surface(mesh, 1000, seed=42))

    def test_area_uniformity_chi2(self):
        rng = np.random.default_rng(2)
        verts = rng.standard_normal((12, 3))
        faces = np.array([[i, i + 1, i + 2] for i in range(0, 12, 3)])
        mesh = TriangleMesh(vertices=verts, faces=faces)
        areas = mesh.face_areas()
        pts = sample_surface(mesh, 50_000, seed=3)
        # recover the face of each sample by distance to face planes
        counts = np.zeros(len(faces))
        for k, f in enumerate(faces):
            a, b, c = verts[f]
            normal = np.cross(b - a, c - a)
            normal /= np.linalg.norm(normal)
            on_plane = np.abs((pts - a) @ normal) < 1e-9
            counts[k] += on_plane.sum()
        assert counts.sum() == pytest.approx(50_000, abs=1)  # planes distinct a.s.
        expected = areas / areas.sum() * 50_000
        assert chisquare(counts, expected).pvalue > 0.01

    def test_zero_area_rejected(self):
        mesh = TriangleMesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
            faces=np.array([[0, 1, 2]]),
        )
        with pytest.raises(ValidationError):
            sample_surface(mesh, 10, seed=0)


class TestReflectivity:
    def test_tabulated_values(self):
        catalog = ReflectivityCatalog.default()
        assert catalog.get("toilet") == 0.60
        assert catalog.get("glass box") == 0.20
        assert catalog.get("xbox") == 0.30

    def test_all_29_categories_present(self):
        catalog = ReflectivityCatalog.default()
        assert len(catalog.categories) == 29
        for rho in (catalog._values).values():
            assert 0.0 < rho <= 1.0

    def test_unknown_category_lists_known(self):
        catalog = ReflectivityCatalog({"chair": 0.35})
        with pytest.raises(UnknownCategoryError, match="chair"):
            catalog.get("spaceship")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ReflectivityCatalog({"chair": 0.0})


class TestAugment:
    def _object(self, rng):
        pts = rng.standard_normal((200, 3))
        return AnomalyObject(points=pts, category="chair", reflectivity=0.35)

    def test_identity_when_forced(self):
        rng = np.random.default_rng(4)
        obj = self._object(rng)
        out = augment(obj, rng, yaw=0.0, scale=1.0)
        np.testing.assert_allclose(out.points, obj.points, atol=1e-15)

    def test_half_turn_flips_x(self):
        obj = AnomalyObject(points=np.array([[1.0, 0.0, 0.0]]),
                            category="chair", reflectivity=0.35)
        out = augment(obj, seed=0, yaw=np.pi, scale=1.0)
        np.testing.assert_allclose(out.points[0], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_similarity_scales_pairwise_distances(self):
        rng = np.random.default_rng(5)
        obj = self._object(rng)
        out = augment(obj, rng)
        factor = out.scale / obj.scale
        pairs = rng.integers(0, 200, size=(50, 2))
        for i, j in pairs:
            before = np.linalg.norm(obj.points[i] - obj.points[j])
            after = np.linalg.norm(out.points[i] - out.points[j])
            assert after == pytest.approx(factor * before, rel=1e-9)


class TestBuildAndPlace:
    def test_build_sizes_to_target_height(self):
        rng = np.random.default_rng(6)
        catalog = ReflectivityCatalog({"chair": 0.35})
        obj = build_anomaly_object(make_cube_mesh(), "chair", catalog,
                                   {"chair": 0.9}, rng, n_points=5000,
                                   scale_range=(1.0, 1.0))
        height = obj.points[:, 2].max() - obj.points[:, 2].min()
        assert height == pytest.approx(0.9, rel=0.01)
        assert obj.points[:, 2].min() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(obj.points[:, :2].mean(axis=0), 0.0, atol=1e-9)

    def test_place_rests_on_ground(self):
        rng = np.random.default_rng(7)
        catalog = ReflectivityCatalog({"chair": 0.35})
        obj = build_anomaly_object(make_cube_mesh(), "chair", catalog,
                                   {"chair": 0.9}, rng, n_points=500)
        placed = place(obj, 12.0, -3.0, -1.7)
        assert placed.points[:, 2].min() == pytest.approx(-1.7, abs=1e-9)
        assert placed.translation[0] == pytest.approx(12.0)
        r = np.linalg.norm(placed.points[:, :2] - np.array([12.0, -3.0]), axis=1)
        assert placed.xy_radius == pytest.approx(r.max())

    def test_missing_height_raises(self):
        rng = np.random.default_rng(8)
        catalog = ReflectivityCatalog({"chair": 0.35})
        with pytest.raises(UnknownCategoryError):
            build_anomaly_object(make_cube_mesh(), "chair", catalog, {}, rng, n_points=10)

    def test_default_heights_cover_catalog(self):
        heights = load_target_heights()
        catalog = ReflectivityCatalog.default()
        assert set(catalog.categories) <= set(heights)


class TestMeshBank:
    def test_choose_is_deterministic(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "chair_0001.off").write_text(TETRA_OFF)
        (tmp_path / "glass_box").mkdir()
        (tmp_path / "glass_box" / "g1.off").write_text(TETRA_OFF)
        bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35, "glass box": 0.2}))
        assert bank.categories == ["chair", "glass box"]
        a = bank.choose(np.random.default_rng(0))
        b = bank.choose(np.random.default_rng(0))
        assert a[0] == b[0]

    def test_unknown_directory_skipped_with_warning(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "c.off").write_text(TETRA_OFF)
        (tmp_path / "spaceship").mkdir()
        (tmp_path / "spaceship" / "s.off").write_text(TETRA_OFF)
        with pytest.warns(UserWarning, match="spaceship"):
            bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}))
        assert bank.categories == ["chair"]
