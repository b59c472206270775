import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from helpers import make_cube_mesh

from lidarforge import (AnomalyObject, FormatError, MeshBank, ReflectivityCatalog,
                        TriangleMesh, UnknownCategoryError, ValidationError,
                        build_anomaly_object, load_off, load_target_heights, place,
                        sample_surface)
from lidarforge import mesh_bank
from lidarforge.mesh_bank import OBJECT_POINTS, SCALE_RANGE

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

_TETRA_VERTS = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"

# (id, text, line of the error or None, message after "<path>:<line>: ")
OFF_ERROR_CASES = [
    ("comments",
     "# hand-made\nOFF  # header\n4 4 6\n# vertices\n" + _TETRA_VERTS
     + "# faces\n3 0 1 2\n3 0 1 3\n3 0 2 3  # fine\n3 1 2 9  # bad\n",
     13, "face index 9 out of range for 4 vertices"),
    ("glued-header-truncated-vertices", "OFF4 4 6\n0 0 0\n1 0 0\n",
     3, "unexpected end of file while reading vertices"),
    ("header-own-line-truncated-indices",
     "OFF\n\n4 2 0\n" + _TETRA_VERTS + "3 0 1 2\n3 0 1\n",
     9, "unexpected end of file while reading face indices"),
    ("blank-lines-arity-4",
     "\nOFF\n\n4 2 0\n\n" + _TETRA_VERTS + "\n3 0 1 2\n\n4 0 1 2 3\n",
     13, "face with 4 vertices; only triangles supported"),
    ("truncated-vertices", "OFF\n4 4 6\n0 0 0\n1 0 0\n",
     4, "unexpected end of file while reading vertices"),
    ("truncated-faces", TETRA_OFF.replace("3 1 2 3\n", ""),
     9, "unexpected end of file while reading face arity"),
    ("truncated-face-indices", TETRA_OFF.replace("3 1 2 3\n", "3 1 2\n"),
     10, "unexpected end of file while reading face indices"),
    ("truncated-face-arity-4", TETRA_OFF.replace("3 1 2 3\n", "4 1 2\n"),
     10, "face with 4 vertices; only triangles supported"),
    ("arity-4", TETRA_OFF.replace("3 0 1 3", "4 0 1 3 2"),
     8, "face with 4 vertices; only triangles supported"),
    ("arity-4-before-truncation", TETRA_OFF.replace("3 0 1 3", "4 0 1 3").replace("3 1 2 3\n", ""),
     8, "face with 4 vertices; only triangles supported"),
    ("index-out-of-range", TETRA_OFF.replace("3 1 2 3", "3 1 2 99"),
     10, "face index 99 out of range for 4 vertices"),
    ("negative-index", TETRA_OFF.replace("3 0 1 2", "3 0 -1 2"),
     7, "face index -1 out of range for 4 vertices"),
    ("non-numeric-vertex", TETRA_OFF.replace("0 1 0", "0 one 0"),
     5, "non-numeric vertex coordinate 'one'"),
    ("nan-vertex", TETRA_OFF.replace("0 1 0", "0 nan 0"),
     5, "non-finite vertex coordinate 'nan'"),
    ("inf-vertex-glued-header", "OFF4 4 6 0 0 -inf\n" + TETRA_OFF.split("\n", 3)[3],
     1, "non-finite vertex coordinate '-inf'"),
    ("overflowing-vertex", TETRA_OFF.replace("0 0 1\n", "# big\n0 0\n1e400\n"),
     8, "non-finite vertex coordinate '1e400'"),
    ("missing-header", "# comment\n4 4 6\n0 0 0\n", 2, "missing OFF header"),
    ("empty", "# only a comment\n\n", None, "empty file, missing OFF header"),
    ("header-only", "OFF\n", 1, "malformed counts line"),
    ("truncated-counts", "OFF\n4 4\n", 2, "malformed counts line"),
    ("malformed-counts", "OFF\n# c\n4 four 6\n", 3, "malformed counts line"),
    ("negative-counts", "OFF -4 4 6\n", 1, "negative counts"),
    ("no-faces", "OFF\n4 0 0\n" + _TETRA_VERTS, None, "mesh has no face with nonzero area"),
    ("zero-area", "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n",
     None, "mesh has no face with nonzero area"),
    # a token past the faces sends the face section to the integer-token
    # scan, which reads integers of any length, as the clean parse does
    ("19-digit-index", TETRA_OFF.replace("3 0 2 3", "3 0 2 1234567890123456789"),
     9, "face index 1234567890123456789 out of range for 4 vertices"),
    ("19-digit-index-before-trailing-text",
     TETRA_OFF.replace("3 0 2 3", "3 0 2 1234567890123456789") + "end\n",
     9, "face index 1234567890123456789 out of range for 4 vertices"),
    # np.fromstring alone reads a final lone sign as the index 0
    ("lone-sign-last-index", TETRA_OFF.replace("3 1 2 3", "3 1 2 -"),
     10, "non-integer face token '-'"),
    # a count past ssize_t
    ("huge-vertex-count", "OFF 100000000000000000000 5 0\n0 0 0\n",
     2, "unexpected end of file while reading vertices"),
]
# a token byte that str.splitlines takes for a line break ends no line
for _name, _char in (("line-separator", "\u2028"), ("file-separator", "\x1c"),
                     ("next-line", "\x85")):
    OFF_ERROR_CASES.append((f"{_name}-in-a-token", f"OFF\n3 1 0\n0 0 0\n1{_char} 0 0\n",
                            4, "unexpected end of file while reading vertices"))
# past int64, np.fromstring saturates either sign to 2**63 - 1: the
# messages quote the token as written
for _sign, _token in (("", "99999999999999999999"), ("negative-", "-99999999999999999999")):
    for _tail, _where in (("", ""), ("end\n", "-before-trailing-text")):
        OFF_ERROR_CASES += [
            (f"20-digit-{_sign}index{_where}",
             TETRA_OFF.replace("3 0 2 3", f"3 0 2 {_token}") + _tail,
             9, f"face index {_token} out of range for 4 vertices"),
            (f"20-digit-{_sign}arity{_where}",
             TETRA_OFF.replace("3 0 2 3", f"{_token} 0 2 3") + _tail,
             9, f"face with {_token} vertices; only triangles supported")]
OFF_ERRORS = [case[1:] for case in OFF_ERROR_CASES]


# (face replacing "3 0 2 3", the token named in the error)
NON_INTEGER_FACES = [
    ("3 0 1 x", "x"), ("3 0 1 2.0", "2.0"), ("3.0 0 1 2", "3.0"), ("x 0 1 2", "x"),
    ("3 1e0 1 2", "1e0"),
    # made of digits and signs, but not a sign followed by digits
    ("3 0 1+2 3", "1+2"), ("3 + 1 2", "+"), ("3 0 --3 1", "--3"), ("3 0 1 2-", "2-"),
    # a lone sign, which np.fromstring alone reads as the next integer's sign
    ("3 0 + 2 3", "+"), ("3 0 2 -", "-"),
]
# tokens and separators for the token-loop oracle: "" glues two tokens;
# \x1c, \x85 and \xa0 are whitespace to str.split, but part of a token here
FACE_TOKENS = ["3", "0", "17", "-1", "+2", "007", "-0", "+", "-", "1+2", "--3", "2-",
               "123456789012345678", "1234567890123456789", "0000000000000000001",
               "99999999999999999999", "-99999999999999999999", "x", "end", "1.5", "1e3",
               "\u0663", "nan"]
SEPARATORS = [" ", "\n", "\r\n", "\t", "\v", "\f", "  \n ", "", "\x1c", "\x85", "\xa0"]


# well-formed files for the parity test: ASCII separators (comments
# included) and vertex tokens np.fromstring reads
COMMENTS = [" # note\n", "\t#\r\n"]
ASCII_SEPARATORS = [" ", "\n", "\r\n", "\t", "\v", "\f", "  \n "] + COMMENTS
VERTEX_TOKENS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                          st.sampled_from(["-0", "+.5", "7.", "1E-3", "0.1"]))


@st.composite
def off_texts(draw):
    """A well-formed OFF text; its first face has nonzero area."""
    extra = draw(st.integers(0, 5))
    n_vertices = 3 + extra
    vertex_tokens = "0 0 0 1 0 0 0 1 0".split() + draw(st.lists(
        VERTEX_TOKENS, min_size=3 * extra, max_size=3 * extra))
    index = st.integers(0, n_vertices - 1).map(str)
    faces = [["3", "0", "1", "2"]] + draw(
        st.lists(st.lists(index, min_size=3, max_size=3).map(lambda f: ["3", *f]), max_size=5))
    tokens = [str(n_vertices), str(len(faces)), "0", *vertex_tokens, *sum(faces, [])]
    separators = draw(st.lists(st.sampled_from(ASCII_SEPARATORS),
                               min_size=len(tokens), max_size=len(tokens)))
    header = draw(st.sampled_from(["OFF\n", "OFF", "OFF ", "# exported\r\nOFF # header\n"]))
    trailing = draw(st.sampled_from(["", "", "end\n", "trailing data", "7 1+2\n", "+ 1\n"]))
    return header + "".join(t + sep for t, sep in zip(tokens, separators)) + trailing


def leading_integers_loop(data: bytes) -> tuple[list[int | None], int | None]:
    """Token by token, the reference for mesh_bank._leading_integers.
    A value outside int64, which np.fromstring saturates, is None."""
    values = []
    for match in re.finditer(rb"[^ \t\n\r\v\f]+", data):
        if not re.fullmatch(rb"[+-]?[0-9]+", match.group()):
            return values, match.start()
        value = int(match.group())
        values.append(value if -2**63 <= value < 2**63 else None)
    return values, None


def reference_off(text: str) -> TriangleMesh:
    """Token-by-token reading of a well-formed OFF text, the reference for load_off."""
    tokens = " ".join(line.split("#", 1)[0] for line in text.splitlines()).split()
    glued = tokens.pop(0)[3:]
    if glued:
        tokens.insert(0, glued)
    n_vertices, n_faces = int(tokens[0]), int(tokens[1])
    vertex_tokens = tokens[3:3 + 3 * n_vertices]
    face_tokens = tokens[3 + 3 * n_vertices:3 + 3 * n_vertices + 4 * n_faces]
    vertices = np.array([float(t) for t in vertex_tokens]).reshape(n_vertices, 3)
    faces = np.array([int(t) for t in face_tokens], dtype=np.int64).reshape(n_faces, 4)
    return TriangleMesh(vertices=vertices, faces=faces[:, 1:].copy())


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

    @pytest.mark.parametrize("text", [
        TETRA_OFF.replace("OFF\n4 4 6", "# exported\nOFF # header\n4 4 6 # counts"),
        TETRA_OFF.replace("\n", "\n\n  \n"),
        TETRA_OFF.replace("\n", "\r\n"),
        TETRA_OFF.replace("0 1 0\n0 0 1\n3 0 1 2", "0 1 0 0\n0 1 3\n0 1 2"),
        TETRA_OFF + "trailing data\n",
        TETRA_OFF + "1+2\n", TETRA_OFF + "+\n", TETRA_OFF + "+ 1\n", TETRA_OFF + "--3 4\n",
        TETRA_OFF + "1234567890123456789\n",
        TETRA_OFF.replace("3 0 2 3", "3 0 2 0000000000000000003"),
        TETRA_OFF.replace("3 0 2 3", "3 0 2 0000000000000000003") + "end\n",
    ], ids=["comments", "blank-lines", "crlf", "tokens-across-lines", "trailing-data",
            "trailing-1+2", "trailing-sign", "trailing-sign-then-integer", "trailing---3",
            "trailing-19-digits", "zero-padded-index", "zero-padded-index-before-trailing-text"])
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "m.off"
        path.write_text(text, newline="")
        mesh = load_off(path)
        ref = reference_off(TETRA_OFF)
        np.testing.assert_array_equal(mesh.vertices, ref.vertices)
        np.testing.assert_array_equal(mesh.faces, ref.faces)
        assert mesh.faces.dtype == np.int64 and mesh.vertices.dtype == np.float64

    def test_matches_token_reference_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        vertices = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-3, 4, (300, 1))
        faces = np.stack([rng.permutation(300)[:3] for _ in range(500)])
        tokens = [repr(float(v)) for v in vertices.ravel()]
        tokens += [str(int(t)) for f in faces for t in (3, *f)]
        breaks = rng.random(len(tokens)) < 0.3
        body = "".join(tok + ("\n" if brk else " ") for tok, brk in zip(tokens, breaks))
        text = f"OFF\n# random layout\n300 500 0\n{body}\n"
        path = tmp_path / "r.off"
        path.write_text(text)
        mesh, ref = load_off(path), reference_off(text)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.faces, ref.faces)

    @pytest.mark.parametrize("text, line, message", OFF_ERRORS,
                             ids=[case[0] for case in OFF_ERROR_CASES])
    def test_error_message_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.off"
        path.write_text(text, encoding="utf-8")
        where = f"{path}:{line}" if line else f"{path}"
        with pytest.raises(FormatError) as info:
            load_off(path)
        assert str(info.value) == f"{where}: {message}"

    @pytest.mark.parametrize("face, token", NON_INTEGER_FACES)
    def test_non_integer_face_token(self, tmp_path, face, token):
        path = tmp_path / "bad.off"
        path.write_text(TETRA_OFF.replace("3 0 2 3", face))
        with pytest.raises(FormatError) as info:
            load_off(path)
        assert str(info.value) == f"{path}:9: non-integer face token {token!r}"

    @pytest.mark.parametrize("face, token", NON_INTEGER_FACES)
    def test_non_integer_face_token_before_trailing_text(self, tmp_path, face, token):
        path = tmp_path / "bad.off"
        path.write_text(TETRA_OFF.replace("3 0 2 3", face) + "end\n")
        with pytest.raises(FormatError) as info:
            load_off(path)
        assert str(info.value) == f"{path}:9: non-integer face token {token!r}"

    @given(text=off_texts(), block=st.sampled_from([1, 2, 5, 64, mesh_bank._SCAN_BLOCK]))
    @example(text="OFF3 1 0 # c\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n+ 1\n", block=1)
    @settings(max_examples=300, deadline=None)
    def test_byte_and_text_readers_equal_the_token_reference(self, text, block):
        # the one reader gives the reference at any scan block, with or
        # without text after the faces
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(mesh_bank, "_SCAN_BLOCK", block):
            path = Path(tmp) / "m.off"
            path.write_text(text, encoding="utf-8", newline="")
            mesh = load_off(path)
        ref = reference_off(text)
        assert np.array_equal(mesh.vertices.view(np.uint64), ref.vertices.view(np.uint64))
        assert mesh.faces.dtype == np.int64 and np.array_equal(mesh.faces, ref.faces)

    @pytest.mark.parametrize("tail", ["", "end\n"], ids=["clean", "text-after-faces"])
    def test_parse_peak_under_five_times_the_file(self, tmp_path, tail):
        # 50k faces, as the largest benchmark mesh: no token list, no decoded
        # text, face areas a block at a time; text after the faces sends the
        # face section to the integer-token scan
        rng = np.random.default_rng(17)
        n_vertices, n_faces = 25_000, 50_000
        rows = ["%.6f %.6f %.6f" % tuple(v) for v in rng.standard_normal((n_vertices, 3)).tolist()]
        rows += ["3 %d %d %d" % tuple(f)
                 for f in rng.integers(0, n_vertices, (n_faces, 3)).tolist()]
        path = tmp_path / "big.off"
        path.write_text(f"OFF\n{n_vertices} {n_faces} 0\n" + "\n".join(rows) + "\n" + tail)
        tracemalloc.start()
        try:
            load_off(path).face_areas
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * path.stat().st_size

    # a byte outside ASCII, or one of \x1c-\x1f, is part of a token, and
    # "1_0" and "\u0663", which Python's float reads, are not numbers here;
    # a comment may hold any of them
    @pytest.mark.parametrize("token", ["0\xa01", "0\x851", "0\x1c1", "1_0", "\u0663"],
                             ids=["nbsp", "nel", "file-separator", "underscore", "arabic-digit"])
    def test_non_ascii_and_python_only_tokens_rejected(self, tmp_path, token):
        path = tmp_path / "bad.off"
        path.write_text(TETRA_OFF.replace("0 1 0", f"0 {token} 0"), encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_off(path)
        assert str(info.value) == f"{path}:5: non-numeric vertex coordinate {token!r}"
        path.write_text(TETRA_OFF.replace("0 1 0", f"0 1 0 # {token} caf\u00e9"),
                        encoding="utf-8")
        mesh, ref = load_off(path), reference_off(TETRA_OFF)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.faces, ref.faces)

    @given(tokens=st.lists(st.sampled_from(FACE_TOKENS), max_size=12),
           separators=st.lists(st.sampled_from(SEPARATORS), min_size=13, max_size=13),
           lead=st.booleans())
    @example(tokens=["3", "-"], separators=[" "] + [""] * 12, lead=False)  # a sign ends it
    @settings(max_examples=400, deadline=None)
    def test_leading_integers_equal_the_token_loop(self, tokens, separators, lead):
        data = ((separators[-1] if lead else "") + "".join(
            token + sep for token, sep in zip(tokens, separators))).encode()
        # the scan starts after bytes it must not read
        before = b"x 1+ 2 -"
        values, bad = mesh_bank._leading_integers(before + b" " + data, len(before) + 1)
        expected, expected_bad = leading_integers_loop(data)
        assert bad == (None if expected_bad is None else len(before) + 1 + expected_bad)
        assert values.dtype == np.int64 and len(values) == len(expected)
        assert all(want is None or got == want for got, want in zip(values.tolist(), expected))


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
        areas = mesh.face_areas
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

    # areas (1e200) or their norms (1e153) that overflow, and a nan vertex
    @pytest.mark.parametrize("scale, nan", [(1e200, False), (1e153, False), (1.0, True)])
    def test_non_finite_total_area_rejected(self, scale, nan):
        vertices = make_cube_mesh().vertices * scale
        if nan:
            vertices[3, 1] = np.nan
        mesh = TriangleMesh(vertices=vertices, faces=make_cube_mesh().faces)
        with pytest.raises(ValidationError, match="not finite"):
            sample_surface(mesh, 10, seed=0)

    def test_zero_area_rejected(self):
        mesh = TriangleMesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
            faces=np.array([[0, 1, 2]]),
        )
        with pytest.raises(ValidationError):
            sample_surface(mesh, 10, seed=0)


def reference_face_areas(mesh: TriangleMesh) -> np.ndarray:
    """Face areas by np.cross and np.linalg.norm, the reference for face_areas."""
    a, b, c = (mesh.vertices[mesh.faces[:, i]] for i in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


class TestFaceAreasOracle:
    """face_areas equals the np.cross/np.linalg.norm formula bit for bit,
    overflow to inf and NaN (sign bit included) alike."""

    def test_bitwise_equal_to_cross_norm(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n_vertices = int(rng.integers(3, 40))
            scale = 10.0 ** rng.uniform(-3, 160)
            vertices = rng.standard_normal((n_vertices, 3)) * scale
            huge = rng.random(n_vertices) < 0.1
            vertices[huge] = rng.choice([-1e308, 1e308], size=(int(huge.sum()), 3))
            faces = rng.integers(0, n_vertices, (int(rng.integers(1, 80)), 3))
            mesh = TriangleMesh(vertices=vertices, faces=faces)
            got, want = mesh.face_areas, reference_face_areas(mesh)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), trial

    def test_blocks_give_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(32)
        mesh = TriangleMesh(vertices=rng.standard_normal((50, 3)),
                            faces=rng.integers(0, 50, (1000, 3)))
        monkeypatch.setattr(mesh_bank, "_AREA_BLOCK", 7)
        got, want = mesh.face_areas, reference_face_areas(mesh)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_sample_surface(mesh: TriangleMesh, n: int, seed) -> np.ndarray:
    """The face draw by Generator.choice, the reference for sample_surface."""
    areas = mesh.face_areas
    rng = np.random.default_rng(seed)
    face_idx = rng.choice(len(areas), size=n, p=areas / areas.sum())
    r1 = rng.random(n)
    r2 = rng.random(n)
    s = np.sqrt(r1)
    w0 = 1.0 - s
    w1 = s * (1.0 - r2)
    w2 = s * r2
    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    return w0[:, None] * a + w1[:, None] * b + w2[:, None] * c


# faces of draw_mesh that repeat a corner, so that their area is exactly 0
ZERO_AREA_FACES = {"zero-first": [0], "zero-middle": [29, 30], "zero-last": [58, 59],
                   "zero-first-middle-last": [0, 31, 59], "one-face": []}


def draw_mesh(layout: str) -> TriangleMesh:
    rng = np.random.default_rng(21)
    vertices = rng.standard_normal((40, 3))
    if layout == "one-face":
        return TriangleMesh(vertices=vertices, faces=np.array([[4, 17, 30]]))
    faces = np.stack([rng.permutation(40)[:3] for _ in range(60)])
    zero = ZERO_AREA_FACES[layout]
    faces[zero, 1] = faces[zero, 0]
    return TriangleMesh(vertices=vertices, faces=faces)


class TestFaceDrawOracle:
    """sample_surface equals the Generator.choice draw bit for bit, and
    leaves a passed generator where that draw leaves it."""

    @pytest.mark.parametrize("layout", list(ZERO_AREA_FACES))
    @pytest.mark.parametrize("n", [1, 7, 100_000])
    @pytest.mark.parametrize("seed_kind", ["int", "generator"])
    def test_bitwise_equal_to_choice(self, layout, n, seed_kind):
        mesh = draw_mesh(layout)
        assert np.flatnonzero(mesh.face_areas == 0).tolist() == ZERO_AREA_FACES[layout]
        if seed_kind == "int":
            got, want = sample_surface(mesh, n, 9), reference_sample_surface(mesh, n, 9)
        else:
            rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
            got, want = sample_surface(mesh, n, rng), reference_sample_surface(mesh, n, ref_rng)
            assert rng.random() == ref_rng.random()
        assert got.shape == (n, 3) and got.dtype == np.float64
        assert np.array_equal(got, want)


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
    """The yaw and scale that build_anomaly_object draws after sizing."""

    def _build(self, seed):
        """(the mesh samples the object starts from, the object)"""
        samples = sample_surface(make_cube_mesh(), OBJECT_POINTS, np.random.default_rng(seed))
        obj = build_anomaly_object(make_cube_mesh(), "chair", 0.35, 0.9,
                                   np.random.default_rng(seed))
        return samples, obj

    def test_applies_the_pose_it_records(self):
        for seed in range(5):
            samples, obj = self._build(seed)
            size = 0.9 / (samples[:, 2].max() - samples[:, 2].min())
            yaw, scale = obj.yaw, obj.scale / size
            assert 0.0 <= yaw < 2.0 * np.pi and SCALE_RANGE[0] <= scale <= SCALE_RANGE[1]
            c, s = np.cos(yaw), np.sin(yaw)
            expected = np.column_stack([c * samples[:, 0] - s * samples[:, 1],
                                        s * samples[:, 0] + c * samples[:, 1],
                                        samples[:, 2]]) * (size * scale)
            expected[:, :2] -= expected[:, :2].mean(axis=0)
            expected[:, 2] -= expected[:, 2].min()
            np.testing.assert_allclose(obj.points, expected, atol=1e-12)

    def test_similarity_scales_pairwise_distances(self):
        samples, obj = self._build(5)
        pairs = np.random.default_rng(5).integers(0, OBJECT_POINTS, size=(50, 2))
        for i, j in pairs:
            before = np.linalg.norm(samples[i] - samples[j])
            after = np.linalg.norm(obj.points[i] - obj.points[j])
            assert after == pytest.approx(obj.scale * before, rel=1e-9)


class TestCallerArrays:
    def test_triangle_mesh_copies_the_callers_arrays(self):
        cube = make_cube_mesh()
        v, f = np.array(cube.vertices), np.array(cube.faces)
        mesh = TriangleMesh(v, f)
        areas = np.array(mesh.face_areas)
        v[0, 0] = 7.0       # the caller's arrays stay writable
        f[0, 0] = 5
        assert mesh.vertices[0, 0] == -0.5 and mesh.faces[0, 0] == 0
        assert not mesh.vertices.flags.writeable and not mesh.faces.flags.writeable
        # the cached areas still describe the mesh
        np.testing.assert_array_equal(mesh.face_areas, areas)
        np.testing.assert_array_equal(TriangleMesh(mesh.vertices, mesh.faces).face_areas,
                                      areas)

    def test_anomaly_object_keeps_a_read_only_view(self):
        p = np.zeros((4, 3))
        obj = AnomalyObject(points=p, category="chair", reflectivity=0.35)
        p[0, 0] = 1.0       # the caller's array stays writable, and the view shows it
        assert obj.points[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            obj.points[0, 0] = 2.0


class TestBuildAndPlace:
    def test_build_sizes_to_target_height(self):
        rng = np.random.default_rng(6)
        obj = build_anomaly_object(make_cube_mesh(), "chair", 0.35, 0.9, rng)
        assert obj.count == OBJECT_POINTS
        # sized to 0.9 m, then scaled by a draw from SCALE_RANGE; the unit
        # cube's sampled height is 1, so the height is the cumulative scale
        height = obj.points[:, 2].max() - obj.points[:, 2].min()
        assert height == pytest.approx(obj.scale, rel=1e-6)
        assert SCALE_RANGE[0] * 0.9 <= height <= SCALE_RANGE[1] * 0.9 + 1e-6
        assert obj.points[:, 2].min() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(obj.points[:, :2].mean(axis=0), 0.0, atol=1e-9)

    def test_build_sizes_a_flat_mesh_by_its_largest_extent(self):
        # a 2 x 1 quad in the xy plane has no height to size
        quad = TriangleMesh(vertices=np.array([[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]]),
                            faces=np.array([[0, 1, 2], [0, 2, 3]]))
        obj = build_anomaly_object(quad, "chair", 0.35, 0.9, np.random.default_rng(10))
        rng = np.random.default_rng(10)
        sample_surface(quad, OBJECT_POINTS, rng)
        yaw, factor = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(*SCALE_RANGE)
        assert obj.yaw == yaw
        c, s = np.cos(yaw), np.sin(yaw)
        unturned = obj.points @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        extents = unturned.max(axis=0) - unturned.min(axis=0)
        assert extents[0] == pytest.approx(0.9 * factor, rel=1e-9)
        assert extents[1] == pytest.approx(0.45 * factor, rel=1e-3)
        assert extents[2] == 0.0

    def test_place_rests_on_ground(self):
        rng = np.random.default_rng(7)
        obj = build_anomaly_object(make_cube_mesh(), "chair", 0.35, 0.9, rng)
        placed = place(obj, 12.0, -3.0, -1.7)
        assert placed.points[:, 2].min() == pytest.approx(-1.7, abs=1e-9)
        assert placed.translation[0] == pytest.approx(12.0)
        r = np.linalg.norm(placed.points[:, :2] - np.array([12.0, -3.0]), axis=1)
        assert placed.xy_radius == pytest.approx(r.max())

    def test_place_and_replace_radius_from_own_points(self):
        rng = np.random.default_rng(8)
        obj = build_anomaly_object(make_cube_mesh(), "chair", 0.35, 0.9, rng)

        def radius(o):
            off = o.points[:, :2] - np.asarray(o.translation[:2])
            return float(np.sqrt((off * off).sum(axis=1)).max())

        assert obj.xy_radius == radius(obj)  # computed, and kept, before the copies
        placed = place(obj, 12.0, -3.0, -1.7)
        assert placed.xy_radius == radius(placed)
        grown = replace(obj, points=obj.points * 3.0)
        assert grown.xy_radius == radius(grown)
        assert grown.xy_radius == pytest.approx(3.0 * obj.xy_radius)
        shifted = replace(placed, translation=(0.0, 0.0, 0.0))
        assert shifted.xy_radius == radius(shifted) != placed.xy_radius
        assert obj.xy_radius == radius(obj)

    def test_place_moves_a_placed_object_as_its_centered_self(self):
        obj = build_anomaly_object(make_cube_mesh(), "chair", 0.35, 0.9,
                                   np.random.default_rng(9))
        placed = place(obj, 12.0, -3.0, -1.7)
        moved = place(placed, -4.5, 20.25, 0.3)
        # the un-placing a caller once had to do before re-placing an object
        base = replace(placed, points=placed.points - np.asarray(placed.translation),
                       translation=(0.0, 0.0, 0.0))
        expected = place(base, -4.5, 20.25, 0.3)
        assert moved.points.tobytes() == expected.points.tobytes()
        assert moved.translation == expected.translation
        assert moved.xy_radius == expected.xy_radius
        # the translation it records is the one its points have
        np.testing.assert_allclose(moved.points - np.asarray(moved.translation), obj.points,
                                   atol=1e-12)

    def test_missing_height_raises(self, tmp_path):
        # the height build_anomaly_object sizes to is demanded when the bank is built
        for name in ("chair", "glass_box", "toilet"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "m.off").write_text(TETRA_OFF)
        catalog = ReflectivityCatalog({"chair": 0.35, "glass box": 0.2, "toilet": 0.6})
        with pytest.raises(ValidationError,
                           match="no target height for mesh categories glass box, toilet$"):
            MeshBank(tmp_path, catalog, {"chair": 0.9, "spaceship": 2.0})
        # a category skipped for want of a reflectivity needs no height
        catalog = ReflectivityCatalog({"chair": 0.35})
        with pytest.warns(UserWarning):
            bank = MeshBank(tmp_path, catalog, {"chair": 0.9})
        assert bank.heights == {"chair": 0.9}

    def test_default_heights_cover_catalog(self):
        heights = load_target_heights()
        catalog = ReflectivityCatalog.default()
        assert set(catalog.categories) <= set(heights)

    @pytest.mark.parametrize("value, error", [
        ("nan", ValidationError), ("inf", ValidationError), ("0", ValidationError),
        ("tall", FormatError)])
    def test_invalid_height_rejected(self, tmp_path, value, error):
        path = tmp_path / "heights.cfg"
        path.write_text(f"table = 0.75\nchair = {value}\n")
        with pytest.raises(error, match="chair"):
            load_target_heights(path)


class TestMeshBank:
    def test_choose_is_deterministic(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "chair_0001.off").write_text(TETRA_OFF)
        (tmp_path / "glass_box").mkdir()
        (tmp_path / "glass_box" / "g1.off").write_text(TETRA_OFF)
        bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35, "glass box": 0.2}),
                        {"chair": 0.9, "glass box": 0.4})
        assert bank.categories == ["chair", "glass box"]
        assert bank.heights == {"chair": 0.9, "glass box": 0.4}
        assert bank.reflectivity == {"chair": 0.35, "glass box": 0.2}
        a = bank.choose(np.random.default_rng(0))
        b = bank.choose(np.random.default_rng(0))
        assert a[0] == b[0]

    def test_unknown_directory_skipped_with_warning(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "c.off").write_text(TETRA_OFF)
        (tmp_path / "spaceship").mkdir()
        (tmp_path / "spaceship" / "s.off").write_text(TETRA_OFF)
        with pytest.warns(UserWarning, match="spaceship"):
            bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}), {"chair": 0.9})
        assert bank.categories == ["chair"]

    def test_directory_without_off_files_skipped_silently(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "c.off").write_text(TETRA_OFF)
        (tmp_path / "table").mkdir()
        (tmp_path / "table" / "notes.txt").write_text("no meshes yet\n")
        catalog = ReflectivityCatalog({"chair": 0.35, "table": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a skipped category needs no height
            bank = MeshBank(tmp_path, catalog, {"chair": 0.9})
        assert bank.categories == ["chair"]

    def test_colliding_category_directories_rejected(self, tmp_path):
        for name in ("flower pot", "flower_pot"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "m.off").write_text(TETRA_OFF)
        with pytest.raises(ValidationError) as info:
            MeshBank(tmp_path, ReflectivityCatalog({"flower pot": 0.3}), {"flower pot": 0.3})
        assert str(info.value) == ("mesh directories 'flower pot' and 'flower_pot' "
                                   "both name the category 'flower pot'")

    def test_huge_vertex_count_is_a_format_error_on_every_draw(self, tmp_path):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "c.off").write_text("OFF 100000000000000000000 5 0\n0 0 0\n")
        bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}), {"chair": 0.9})
        for _ in range(2):
            with pytest.raises(FormatError, match="unexpected end of file while reading"):
                bank.choose(np.random.default_rng(0))

    def test_each_draw_parses_its_file(self, tmp_path, monkeypatch):
        (tmp_path / "chair").mkdir()
        (tmp_path / "chair" / "c.off").write_text(TETRA_OFF)
        bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}), {"chair": 0.9})
        parses = []
        real_load_off = mesh_bank.load_off

        def counting_load_off(path):
            parses.append(path)
            return real_load_off(path)

        # choose looks load_off up when it draws, so a wrapper set later sees every parse
        monkeypatch.setattr(mesh_bank, "load_off", counting_load_off)
        first, second = (bank.choose(np.random.default_rng(seed))[1] for seed in (0, 1))
        assert parses == [tmp_path / "chair" / "c.off"] * 2
        assert first is not second
        assert np.array_equal(first.vertices, second.vertices)
