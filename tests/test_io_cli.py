"""Triangle/TetGen file parsing, spec parsing and the CLI drivers."""

import inspect
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from femwarp import Mesh, gen_annulus, gen_box_tets, gen_rectangle
from femwarp import cli, errors, io
from femwarp.cli import MAX_GRID_POINTS, _param_grid, main
from femwarp.errors import BadIndexError, InvalidSpecError, ParseError
from femwarp.mesh import quality_report

from oracles import first_bad_node_record, write_mesh_by_line

SINGLE_NODE = """\
3 2 0 1
# a comment line
0 0.0 0.0 1
1 1.0 0.0 1
2 0.0 1.0 1
"""
SINGLE_ELE = """\
1 3 0
0 0 1 2
"""


def write_pair(tmp_path, node_text, ele_text, base="m"):
    node = tmp_path / f"{base}.node"
    ele = tmp_path / f"{base}.ele"
    node.write_text(node_text)
    ele.write_text(ele_text)
    return str(node), str(ele)


class TestReadMesh:
    def test_single_triangle(self, tmp_path):
        node, ele = write_pair(tmp_path, SINGLE_NODE, SINGLE_ELE)
        mesh = io.read_mesh(node, ele)
        assert mesh.n_elements == 1
        assert mesh.dim == 2
        assert np.array_equal(mesh.boundary_ids, [0, 1, 2])

    def test_one_based_autodetect(self, tmp_path):
        node_text = "3 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 0.0 1.0 1\n"
        ele_text = "1 3 0\n1 1 2 3\n"
        node, ele = write_pair(tmp_path, node_text, ele_text)
        mesh = io.read_mesh(node, ele)
        assert np.array_equal(mesh.elements[0], [0, 1, 2])

    def test_no_elements_rejected(self, tmp_path):
        node, ele = write_pair(tmp_path, SINGLE_NODE, "# none\n0 3 0\n")
        with pytest.raises(ParseError, match="empty mesh") as info:
            io.read_mesh(node, ele)
        assert info.value.context["line"] == 2

    def test_bad_index(self, tmp_path):
        ele_text = "1 3 0\n0 0 1 999\n"
        node, ele = write_pair(tmp_path, SINGLE_NODE, ele_text)
        with pytest.raises(BadIndexError):
            io.read_mesh(node, ele)

    def test_malformed_header(self, tmp_path):
        # int() reads "0_1" as 1
        for header in ("bogus header", "3 2 0 0_1"):
            node, ele = write_pair(tmp_path, SINGLE_NODE.replace("3 2 0 1", header), SINGLE_ELE)
            with pytest.raises(ParseError, match="malformed header"):
                io.read_mesh(node, ele)

    def test_markerless_boundary_inferred(self, tmp_path):
        node_text = "3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n"
        node, ele = write_pair(tmp_path, node_text, SINGLE_ELE)
        mesh = io.read_mesh(node, ele)
        assert np.array_equal(mesh.boundary_ids, [0, 1, 2])

    @pytest.mark.parametrize(
        "mesh", [gen_annulus(0.5, 4, 16), gen_box_tets(4, 5, 4)], ids=["annulus", "box"]
    )
    def test_markerless_boundary_matches_generator(self, tmp_path, mesh):
        node, ele = str(tmp_path / "m.node"), str(tmp_path / "m.ele")
        io.write_mesh(mesh, node, ele)
        # the same nodes with the marker column dropped
        lines = open(node).read().splitlines()
        n, dim = lines[0].split()[:2]
        body = [" ".join(line.split()[:-1]) for line in lines[1:]]
        with open(node, "w") as fh:
            fh.write("\n".join([f"{n} {dim} 0 0"] + body) + "\n")
        back = io.read_mesh(node, ele)
        assert np.array_equal(back.boundary_ids, mesh.boundary_ids)
        assert np.array_equal(back.coords, mesh.coords)

    def test_negative_orientation_fixed_with_warning(self, tmp_path):
        ele_text = "1 3 0\n0 0 2 1\n"  # clockwise
        node, ele = write_pair(tmp_path, SINGLE_NODE, ele_text)
        with pytest.warns(UserWarning):
            mesh = io.read_mesh(node, ele)
        from femwarp.mesh import count_reversals

        assert count_reversals(mesh)[0] == 0


# a 4-node square cut into two triangles, 1-based, written every way the
# format allows: comments, blank lines, trailing tokens, attribute columns
# and records out of order (the first record carries the base id)
MESSY_NODE = """\
# square with one interior-free diagonal

4 2 2 1   # nodes, dim, attributes, markers
1 0.0 0.0   7.5 x   1 trailing tokens
# a comment between records
3 1.0 1.0 0 0 1

4\t0.0\t1.0 0 0 0    # a tab-separated record
2 1.0 0.0 0 0 1 # and a trailing comment
"""
MESSY_ELE = """\
# elements
2 3 1
  1 1 2 3 9
2 1 3 4 9   extra
"""
MESSY_MESH = Mesh(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2], [0, 2, 3]], [0, 1, 2]
)


def assert_same_mesh(a, b):
    assert np.array_equal(a.coords.view(np.int64), b.coords.view(np.int64))
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.boundary, b.boundary)


class TestReadMeshRecords:
    def test_messy_files_read_as_clean(self, tmp_path):
        node, ele = write_pair(tmp_path, MESSY_NODE, MESSY_ELE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # comment-only lines warn nothing
            assert_same_mesh(io.read_mesh(node, ele), MESSY_MESH)

    def test_too_few_records(self, tmp_path):
        node, ele = write_pair(tmp_path, "3 2 0 1\n0 0.0 0.0 1\n1 1.0 0.0 1\n", SINGLE_ELE)
        with pytest.raises(ParseError, match=r"\.node: expected 3 node records"):
            io.read_mesh(node, ele)
        node, ele = write_pair(tmp_path, SINGLE_NODE, SINGLE_ELE.replace("1 3 0", "2 3 0"))
        with pytest.raises(ParseError, match=r"\.ele: expected 2 element records"):
            io.read_mesh(node, ele)

    def test_trailing_records_ignored(self, tmp_path):
        node, ele = write_pair(
            tmp_path, SINGLE_NODE + "3 not a record\n", SINGLE_ELE + "junk\n"
        )
        assert io.read_mesh(node, ele).n_nodes == 3

    @pytest.mark.parametrize(
        "node_text, ele_text, cls, where",
        [
            (MESSY_NODE.replace("3 1.0 1.0", "3 1.0 1.x"), MESSY_ELE, ParseError, "node:6"),
            (MESSY_NODE.replace("3 1.0 1.0 0 0 1", "3 1.0 1.0 0 0"), MESSY_ELE,
             ParseError, "node:6"),
            (MESSY_NODE.replace("3 1.0 1.0", "5 1.0 1.0"), MESSY_ELE, BadIndexError, "node:6"),
            ("4 2 1 0\n# no markers\n1 0.0 0.0 5\n2 1.0 0.0\n3 1.0 1.0 5\n4 0.0 1.0 5\n",
             MESSY_ELE, ParseError, "node:4"),
            (MESSY_NODE, MESSY_ELE.replace("2 1 3 4", "2 1 3 x"), ParseError, "ele:4"),
            (MESSY_NODE, MESSY_ELE.replace("2 1 3 4", "2 1 3 0"), BadIndexError, "ele:4"),
            (MESSY_NODE, MESSY_ELE.replace("1 1 2 3", "1 1 2 0").replace("2 1 3 4", "2 0 3 4"),
             BadIndexError, "ele:3"),
            # an integer field never truncates a decimal
            (MESSY_NODE.replace("3 1.0 1.0", "3.0 1.0 1.0"), MESSY_ELE, ParseError, "node:6"),
            (MESSY_NODE.replace("3 1.0 1.0 0 0 1", "3 1.0 1.0 0 0 0.5"), MESSY_ELE,
             ParseError, "node:6"),
            (MESSY_NODE, MESSY_ELE.replace("2 1 3 4", "2 1 3.7 4"), ParseError, "ele:4"),
            # a token numpy's parser refuses names its line, even where
            # Python's int/float would accept it
            (MESSY_NODE.replace("3 1.0 1.0", "3 1_0.0 1.0"), MESSY_ELE, ParseError, "node:6"),
            (MESSY_NODE, MESSY_ELE.replace("2 1 3 4", "2 1 3 4_0"), ParseError, "ele:4"),
            # a non-finite coordinate is malformed
            (MESSY_NODE.replace("3 1.0 1.0", "3 nan 1.0"), MESSY_ELE, ParseError, "node:6"),
            (MESSY_NODE.replace("3 1.0 1.0", "3 1.0 -inf"), MESSY_ELE, ParseError, "node:6"),
            # parse errors come before bad ids, whichever record is first
            (MESSY_NODE.replace("1 0.0 0.0", "7 0.0 0.0").replace("3 1.0 1.0", "3 1.x 1.0"),
             MESSY_ELE, ParseError, "node:6"),
            (MESSY_NODE, MESSY_ELE.replace("1 1 2 3", "1 1 2 9").replace("2 1 3 4", "2 1 3 x"),
             ParseError, "ele:4"),
        ],
        ids=[
            "bad_float",
            "short_node",
            "node_id_range",
            "short_attributes",
            "bad_int",
            "element_id_range",
            "first_element_id_range",
            "decimal_node_id",
            "decimal_marker",
            "decimal_element_id",
            "underscore_float",
            "underscore_int",
            "nan_coordinate",
            "inf_coordinate",
            "node_id_range_before_bad_float",
            "element_id_range_before_bad_int",
        ],
    )
    def test_mid_file_error_names_its_line(self, tmp_path, node_text, ele_text, cls, where):
        node, ele = write_pair(tmp_path, node_text, ele_text)
        with pytest.raises(cls) as err:
            io.read_mesh(node, ele)
        assert err.value.context["line"] == int(where.split(":")[1])
        assert f".{where}:" in str(err.value)

    @pytest.mark.parametrize(
        "record", ["3 2.0", "3.0 2.0 2.0", "3 2_0 2.0", "3 nan 2.0", "3 2.0 inf"]
    )
    def test_frame_error_names_its_line(self, tmp_path, record):
        node, ele = write_pair(tmp_path, MESSY_NODE, MESSY_ELE)
        mesh = io.read_mesh(node, ele)
        frame = tmp_path / "f.node"
        frame.write_text(f"4 2 0 0\n1 0 0\n2 2 0\n{record}\n4 0 1\n")
        with pytest.raises(ParseError) as err:
            io.read_boundary_frame(mesh, str(frame))
        assert err.value.context["line"] == 4

    def test_frame_parse_errors_before_bad_ids(self, tmp_path):
        node, ele = write_pair(tmp_path, MESSY_NODE, MESSY_ELE)
        mesh = io.read_mesh(node, ele)
        frame = tmp_path / "f.node"
        frame.write_text("4 2 0 0\n1 0 0\n1 2 0\n3 2.x 2\n4 0 1\n")
        with pytest.raises(ParseError) as err:
            io.read_boundary_frame(mesh, str(frame))
        assert err.value.context["line"] == 4
        # a record past n repeats or leaves the id range; the first is named
        frame.write_text("4 2 0 0\n1 0 0\n2 2 0\n3 2 2\n4 0 1\n2 5 5\n")
        with pytest.raises(BadIndexError, match=r"\.node:6: node id 2 repeated"):
            io.read_boundary_frame(mesh, str(frame))

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(
            st.one_of(st.integers(-3, 8), st.sampled_from([-(2**63), 2**63 - 1])),
            max_size=8,
        ),
        n=st.integers(0, 8),
    )
    def test_node_id_check_matches_loop(self, ids, n):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.node")
            with open(path, "w") as fh:
                fh.write(f"# ids\n{len(ids)} 2\n" + "".join(f"{i} 0 0\n\n" for i in ids))
            expected = first_bad_node_record(ids, n)
            if expected is None:
                rows, base = io._node_rows(path, np.array(ids, dtype=np.int64), n)
                assert [base + r for r in rows.tolist()] == ids
                return
            record, problem = expected
            with pytest.raises(BadIndexError) as err:
                io._node_rows(path, np.array(ids, dtype=np.int64), n)
            assert err.value.context["line"] == 3 + 2 * record
            assert str(err.value).endswith(f"node id {ids[record]} {problem}")

    def test_valid_files_never_walk_lines(self, tmp_path, monkeypatch):
        messy = write_pair(tmp_path, MESSY_NODE, MESSY_ELE)
        box = gen_box_tets(3, 4, 3)
        box_pair = str(tmp_path / "box.node"), str(tmp_path / "box.ele")
        io.write_mesh(box, *box_pair)
        frame = tmp_path / "f.node"
        frame.write_text("# frame\n4 2 0 0\n\n4 9 9\n3 2 2 # c\n2 2 0\n1 -1 -1\n")

        def walk(path):
            raise AssertionError(f"walked the lines of {path}")

        monkeypatch.setattr(io, "_data_lines", walk)
        mesh = io.read_mesh(*messy)
        assert_same_mesh(mesh, MESSY_MESH)
        assert_same_mesh(io.read_mesh(*box_pair), box)
        assert np.array_equal(
            io.read_boundary_frame(mesh, str(frame)), [[-1.0, -1.0], [2.0, 0.0], [2.0, 2.0]]
        )

    def test_repeated_node_id_rejected(self, tmp_path):
        # ids 0 1 1 3: node 2 would be left unset
        node_text = "4 2 0 1\n0 0.0 0.0 1\n1 1.0 0.0 1\n1 1.0 1.0 1\n3 0.0 1.0 1\n"
        node, ele = write_pair(tmp_path, node_text, "1 3 0\n0 0 1 3\n")
        with pytest.raises(BadIndexError) as err:
            io.read_mesh(node, ele)
        assert err.value.context["line"] == 4
        assert "repeated" in str(err.value)

    def test_frame_reads_any_record_order(self, tmp_path):
        node, ele = write_pair(tmp_path, MESSY_NODE, MESSY_ELE)
        mesh = io.read_mesh(node, ele)
        frame = tmp_path / "f.node"
        text = "# frame\n4 2 0 0\n\n4 9 9\n3 2 2 # c\n2 2 0\n1 -1 -1\n"
        frame.write_text(text)
        assert np.array_equal(
            io.read_boundary_frame(mesh, str(frame)), [[-1.0, -1.0], [2.0, 0.0], [2.0, 2.0]]
        )
        # a repeated id is refused at its second record, not taken as an update
        frame.write_text(text.replace("4 9 9", "1 0 0\n4 9 9"))
        with pytest.raises(BadIndexError) as err:
            io.read_boundary_frame(mesh, str(frame))
        assert err.value.context["line"] == 8
        assert ".node:8: node id 1 repeated" in str(err.value)

    def test_frame_is_a_whole_node_file(self, tmp_path):
        # 0-based square: interior nodes 0 and 5, boundary nodes 1-4
        coords = [[1, 1.5], [0, 0], [3, 0], [3, 3], [0, 3], [2, 1.5]]
        tris = [[1, 2, 5], [1, 5, 0], [1, 0, 4], [0, 5, 3], [0, 3, 4], [5, 2, 3]]
        mesh = Mesh(coords, tris, [1, 2, 3, 4])
        frame = tmp_path / "f.node"
        records = "".join(f"{i} {i}0 {i}1\n" for i in range(1, 6))
        # ids 1-5 alone would read with base 1 and shift every boundary row
        for text, line in [
            (f"5 2 0 0\n{records}", 1),
            (f"6 2 0 0\n{records}", None),
            (f"6 2 0 0\n{records}7 0 0\n", 7),
            (f"6 2 0 0\n{records}6 0 0\n9 0 0\n", 8),
        ]:
            frame.write_text(text)
            with pytest.raises(BadIndexError) as err:
                io.read_boundary_frame(mesh, str(frame))
            assert err.value.context.get("line") == line
        frame.write_text(f"6 2 0 0\n0 -1 -1\n{records}")
        assert np.array_equal(
            io.read_boundary_frame(mesh, str(frame)), [[10, 11], [20, 21], [30, 31], [40, 41]]
        )

    def test_base_is_the_smallest_id(self, tmp_path):
        # a 0-based file whose first record is not the lowest id
        node_text = "4 2 0 1\n2 1.0 1.0 1\n0 0.0 0.0 1\n3 0.0 1.0 1\n1 1.0 0.0 1\n"
        ele_text = "2 3 0\n0 0 1 2\n1 0 2 3\n"
        node, ele = write_pair(tmp_path, node_text, ele_text)
        clean = Mesh(MESSY_MESH.coords, MESSY_MESH.elements, [0, 1, 2, 3])
        assert_same_mesh(io.read_mesh(node, ele), clean)
        frame = tmp_path / "f.node"
        frame.write_text("4 2 0 0\n2 3 3\n0 -1 -1\n3 0 2\n1 2 0\n")
        assert np.array_equal(
            io.read_boundary_frame(clean, str(frame)),
            [[-1.0, -1.0], [2.0, 0.0], [3.0, 3.0], [0.0, 2.0]],
        )
        # with that base, an id past base + n - 1 is the one out of range
        node, ele = write_pair(tmp_path, node_text.replace("3 0.0", "4 0.0"), ele_text)
        with pytest.raises(BadIndexError) as err:
            io.read_mesh(node, ele)
        assert err.value.context["line"] == 4
        assert "node id 4 out of range" in str(err.value)


def random_mesh(draw, dim):
    n = draw(st.integers(dim + 1, 12))
    coords = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=n * dim,
            max_size=n * dim,
        )
    )
    ne = draw(st.integers(1, 6))
    elements = draw(
        st.lists(st.integers(0, n - 1), min_size=ne * (dim + 1), max_size=ne * (dim + 1))
    )
    boundary = draw(st.sets(st.integers(0, n - 1)))
    return Mesh(
        np.reshape(coords, (n, dim)), np.reshape(elements, (ne, dim + 1)), sorted(boundary)
    )


@st.composite
def meshes(draw):
    return random_mesh(draw, draw(st.sampled_from([2, 3])))


class TestWriteMesh:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mesh=meshes())
    def test_round_trip_property(self, mesh):
        with tempfile.TemporaryDirectory() as tmp:
            node, ele = os.path.join(tmp, "m.node"), os.path.join(tmp, "m.ele")
            io.write_mesh(mesh, node, ele)
            assert_same_mesh(io.read_mesh(node, ele, reorient=False), mesh)

    @pytest.mark.parametrize("mesh", [gen_annulus(0.5, 4, 16), gen_box_tets(3, 4, 3)],
                             ids=["annulus", "box"])
    def test_bytes_match_line_writer(self, tmp_path, rng, mesh):
        coords = mesh.coords + rng.normal(0.0, 1e-3, size=mesh.coords.shape)
        coords[:3, 0] = [-0.0, 5e-324, 1.2345678901234567e22]
        mesh = mesh.with_coords(coords)
        io.write_mesh(mesh, str(tmp_path / "a.node"), str(tmp_path / "a.ele"))
        write_mesh_by_line(mesh, str(tmp_path / "b.node"), str(tmp_path / "b.ele"))
        for ext in ("node", "ele"):
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

    @pytest.mark.parametrize("digits", [1, 2, 3, 4, 5])
    def test_ele_bytes_across_digit_boundaries(self, tmp_path, digits):
        # node ids 10^k - 1 and 10^k for k <= digits, element ids up to
        # 10^digits: every field crosses each width up to digits + 1
        n = 10**digits + 1
        ids = [i for k in range(1, digits + 1) for i in (10**k - 1, 10**k)]
        rows = np.resize(np.array([0] + ids + [n - 1]), (n + 1, 3))
        mesh = Mesh(np.zeros((n, 2)), rows, [0])
        io.write_mesh(mesh, str(tmp_path / "m.node"), str(tmp_path / "m.ele"))
        expected = f"{n + 1} 3 0\n" + "".join(
            "%d %d %d %d\n" % (eid, *row) for eid, row in enumerate(rows.tolist())
        )
        assert (tmp_path / "m.ele").read_bytes() == expected.encode()

    def test_round_trip_2d_bitwise(self, tmp_path, rng):
        mesh = gen_annulus(0.5, 4, 16)
        jitter = rng.uniform(-0.01, 0.01, size=mesh.coords.shape)
        mesh = mesh.with_coords(mesh.coords + jitter)
        node, ele = str(tmp_path / "a.node"), str(tmp_path / "a.ele")
        io.write_mesh(mesh, node, ele)
        back = io.read_mesh(node, ele)
        assert np.array_equal(back.coords, mesh.coords)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.boundary, mesh.boundary)

    def test_round_trip_3d_bitwise(self, tmp_path):
        mesh = gen_box_tets(3, 3, 3)
        node, ele = str(tmp_path / "b.node"), str(tmp_path / "b.ele")
        io.write_mesh(mesh, node, ele)
        back = io.read_mesh(node, ele)
        assert np.array_equal(back.coords, mesh.coords)
        assert np.array_equal(back.elements, mesh.elements)

    def test_empty_mesh_refused(self, tmp_path):
        mesh = Mesh(np.zeros((3, 2)), np.zeros((0, 3), dtype=int), [0])
        with pytest.raises(ParseError):
            io.write_mesh(mesh, str(tmp_path / "e.node"), str(tmp_path / "e.ele"))


class TestSpecParsing:
    def test_key_value_lines(self, tmp_path):
        spec = tmp_path / "d.spec"
        spec.write_text("Motion = annulus\ntheta_outer = 0.5 # comment\n\n")
        parsed = io.read_spec(str(spec))
        assert parsed == {"motion": "annulus", "theta_outer": "0.5"}

    def test_bad_line(self, tmp_path):
        spec = tmp_path / "d.spec"
        spec.write_text("no equals sign here\n")
        with pytest.raises(ParseError):
            io.read_spec(str(spec))

    def test_matrix_and_vector(self):
        m = io.parse_matrix("1,2;3,4", 2)
        assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
        v = io.parse_vector("5, 6", 2)
        assert np.array_equal(v, [5.0, 6.0])
        with pytest.raises(ParseError):
            io.parse_matrix("1,2;3", 2)


@pytest.fixture()
def annulus_on_disk(tmp_path):
    mesh = gen_annulus(0.5, 6, 24)
    base = str(tmp_path / "ann")
    io.write_mesh(mesh, base + ".node", base + ".ele")
    return base, mesh


class TestCli:
    def test_oracle_annulus(self, capsys):
        rc = main(["oracle", "annulus", "--r", "0.5", "--s", "0.5", "--theta", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reversal_predicate = true" in out
        assert "min_jac_det" in out

    def test_oracle_below_cutoff(self, capsys):
        rc = main(["oracle", "annulus", "--r", "0.5", "--s", "0.5", "--theta", "0.8"])
        assert rc == 0
        assert "reversal_predicate = false" in capsys.readouterr().out

    def test_warp_identity_affine(self, tmp_path, annulus_on_disk, capsys):
        base, mesh = annulus_on_disk
        spec = tmp_path / "id.spec"
        spec.write_text("motion = affine\nl = 1,0;0,1\nv = 0,0\n")
        out = str(tmp_path / "out")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc == 0
        assert "outcome = SUCCESS" in capsys.readouterr().out
        warped = io.read_mesh(out + ".node", out + ".ele")
        assert np.abs(warped.coords - mesh.coords).max() < 1e-10

    def test_warp_reversal_exit_code(self, tmp_path, annulus_on_disk):
        base, _ = annulus_on_disk
        spec = tmp_path / "rot.spec"
        spec.write_text("motion = annulus\ntheta_outer = 3.14159\n")
        out = str(tmp_path / "out")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc == 2

    def test_warp_report_file(self, tmp_path, annulus_on_disk):
        base, _ = annulus_on_disk
        spec = tmp_path / "rot.spec"
        spec.write_text("motion = annulus\ntheta_outer = 0.4\n")
        out = str(tmp_path / "out")
        assert main(["warp", "--mesh", base, "--spec", str(spec), "--out", out]) == 0
        report = open(out + ".report").read()
        for key in ("outcome", "reversals", "n_factorizations", "quality_min_imr"):
            assert key in report

    @staticmethod
    def warp_report_file(tmp_path, base, spec_text):
        spec = tmp_path / "w.spec"
        spec.write_text(spec_text)
        out = str(tmp_path / "out")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        with open(out + ".report") as fh:
            return rc, dict(line.split(" = ") for line in fh.read().splitlines())

    def test_report_names_t_reached_and_the_untangle_run(self, tmp_path, annulus_on_disk):
        base, _ = annulus_on_disk
        # a small-step warp toward a reflection ends REVERSED before t = 1
        flip = "motion = affine\nl = 1,0;0,-1\nalgorithm = small_step\n"
        rc, report = self.warp_report_file(tmp_path, base, flip)
        assert rc == 2 and report["outcome"] == "REVERSED"
        assert 0.0 < float(report["t_reached"]) < 1.0
        assert "untangle_outcome" not in report and "untangle_sweeps" not in report
        # turning the inner boundary a quarter, or the outer one by 1.5 on
        # genmesh's default annulus, reverses the one-shot warp, and the
        # untangler mends it
        default = str(tmp_path / "default")
        io.write_mesh(gen_annulus(0.5, 6, 48), default + ".node", default + ".ele")
        inner = "motion = annulus\ntheta_outer = 0.0\ntheta_inner = 1.5707963\n"
        outer = "motion = annulus\ntheta_outer = 1.5\n"
        for mesh, turn, algorithm, sweeps in (
            (base, inner, "femwarp", None),
            (base, inner, "hybrid", "5"),
            (base, inner, "untangle", "6"),
            (default, outer, "femwarp", None),
            (default, outer, "hybrid", "28"),
        ):
            rc, report = self.warp_report_file(tmp_path, mesh, f"{turn}algorithm = {algorithm}\n")
            assert report["t_reached"] == "1"
            if sweeps is None:
                assert rc == 2 and "untangle_outcome" not in report
            else:
                assert rc == 0
                assert (report["untangle_outcome"], report["untangle_sweeps"]) == ("SUCCESS", sweeps)

    def test_sweep_csv_deterministic(self, tmp_path, annulus_on_disk):
        base, _ = annulus_on_disk
        spec = tmp_path / "rot.spec"
        spec.write_text("motion = annulus\ntheta_outer = 1.0\nalgorithm = femwarp\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            rc = main(
                [
                    "sweep",
                    "--mesh",
                    base,
                    "--spec",
                    str(spec),
                    "--param-grid",
                    "0:1.2:0.3",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
        assert out1.read_text() == out2.read_text()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "param,outcome,reversals,n_factorizations"
        assert len(lines) == 6
        assert lines[1].startswith("0,SUCCESS")
        assert lines[-1].startswith("1.2,REVERSED")

    @pytest.mark.parametrize(
        "algorithm", ["femwarp", "small_step", "hybrid", "untangle"]
    )
    def test_sweep_builds_one_topology(
        self, tmp_path, annulus_on_disk, topology_builds, algorithm
    ):
        base, _ = annulus_on_disk
        spec = tmp_path / "rot.spec"
        spec.write_text(
            f"motion = annulus\ntheta_outer = 1.2\nalgorithm = {algorithm}\n"
        )
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--mesh", base, "--spec", str(spec), "--out", str(out)]
        assert main(argv + ["--param-grid", "0:1:0.25"]) == 0
        assert len(out.read_text().splitlines()) == 6  # header and 5 points
        assert len(topology_builds) == 1

    def test_param_grid_by_index(self):
        # adding 0.01 repeatedly would end at 99.99000000001425 and miss 100
        grid = _param_grid("0:100:0.01")
        assert len(grid) == 10001
        assert grid[0] == 0.0 and grid[-1] == 100.0
        assert grid[1234] == 1234 * 0.01
        assert _param_grid("0:1.2:0.3") == [0.0, 0.3, 0.6, 3 * 0.3, 1.2]
        assert _param_grid("1:0:0.5") == []
        for bad in ("0:1", "0:1:0", "0:inf:1", "0:nan:1", "a:b:c", "0:1_0:1", "0:\u0665:1"):
            with pytest.raises(InvalidSpecError):
                _param_grid(bad)

    @pytest.mark.parametrize("grid", ["0:1e308:1e-308", "-1e308:1e308:1"])
    def test_param_grid_refuses_an_overflowing_count(self, grid):
        # the point count is inf; int() of it used to raise OverflowError
        with pytest.raises(InvalidSpecError, match="finite point count"):
            _param_grid(grid)

    def test_param_grid_refuses_more_points_than_the_cap(self):
        # a finite count past the cap used to build its list until memory
        # ran out; the refusal comes before any point is built
        assert len(_param_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        for grid in (f"0:{MAX_GRID_POINTS}:1", "0:1e300:1", "0:1:1e-300"):
            with pytest.raises(InvalidSpecError, match=f"more than {MAX_GRID_POINTS}"):
                _param_grid(grid)

    def test_quality_command(self, annulus_on_disk, capsys):
        base, _ = annulus_on_disk
        assert main(["quality", "--mesh", base]) == 0
        out = capsys.readouterr().out
        assert "reversal_count = 0" in out

    @pytest.mark.filterwarnings("error")
    def test_quality_reports_the_file_as_written(self, tmp_path, annulus_on_disk, capsys):
        # a REVERSED warp output is measured as written: `quality` does not
        # reorient its elements (it used to report 0 reversals here)
        base, _ = annulus_on_disk
        spec = tmp_path / "rot.spec"
        spec.write_text("motion = annulus\ntheta_outer = 3.0\n")
        out = str(tmp_path / "out")
        assert main(["warp", "--mesh", base, "--spec", str(spec), "--out", out]) == 2
        with open(out + ".report") as fh:
            report = dict(line.split(" = ") for line in fh.read().splitlines())
        assert int(report["reversals"]) > 0
        capsys.readouterr()
        assert main(["quality", "--mesh", out]) == 0
        assert f"reversal_count = {report['reversals']}\n" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_stretched_rectangle_report_is_finite(self, tmp_path, capsys):
        # every measure is a finite 8.33e198, but squared edges overflow;
        # the report must equal that of the output scaled by 2**-600, with
        # h scaled back, and the closed forms of these right triangles with
        # legs a = 2e200 / 4 and b = 1 / 3
        base = str(tmp_path / "r")
        argv = ["genmesh", "rectangle", "--nx", "5", "--ny", "4", "--out", base]
        assert main(argv) == 0
        spec = tmp_path / "stretch.spec"
        spec.write_text("motion = affine\nl = 1e200,0;0,1\n")
        out = str(tmp_path / "out")
        assert main(["warp", "--mesh", base, "--spec", str(spec), "--out", out]) == 0
        with open(out + ".report") as fh:
            report = dict(line.split(" = ") for line in fh.read().splitlines())
        assert report["outcome"] == "SUCCESS"
        mesh = io.read_mesh(out + ".node", out + ".ele")
        copy = quality_report(mesh.with_coords(np.ldexp(mesh.coords, -600)))
        for key, value in copy.as_dict().items():
            got = float(report[f"quality_{key}"])
            if key == "h":
                assert got == np.ldexp(value, 600)
            elif "aspect" in key or "imr" in key or key == "near_degenerate_count":
                assert np.isfinite(got) and got == value, key
        a, b = 0.5e200, 1.0 / 3.0
        assert math.isclose(float(report["quality_h"]), a, rel_tol=1e-15)
        assert math.isclose(float(report["quality_max_aspect"]), 3.0 * a, rel_tol=1e-14)
        imr = a / (math.sqrt(3.0) * b)
        assert math.isclose(float(report["quality_min_imr"]), imr, rel_tol=1e-14)
        assert int(report["quality_near_degenerate_count"]) == mesh.n_elements == 24

    def test_genmesh_annulus(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        rc = main(
            ["genmesh", "annulus", "--r", "0.5", "--rings", "4", "--sectors", "16",
             "--out", out]
        )
        assert rc == 0
        mesh = io.read_mesh(out + ".node", out + ".ele")
        assert mesh.n_nodes == 64

    def test_error_path_single_line(self, tmp_path, annulus_on_disk, capsys):
        base, _ = annulus_on_disk
        spec = tmp_path / "bad.spec"
        spec.write_text("motion = teleport\n")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error code=")
        assert "\n" not in err

    def test_missing_file_error(self, tmp_path, capsys):
        rc = main(
            ["quality", "--mesh", str(tmp_path / "nope")]
        )
        assert rc == 1
        assert "error code=" in capsys.readouterr().err

    def test_untangle_algorithm(self, tmp_path, annulus_on_disk):
        base, _ = annulus_on_disk
        spec = tmp_path / "u.spec"
        spec.write_text("motion = annulus\ntheta_outer = 0.2\nalgorithm = untangle\n")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc in (0, 2)

    def test_tabulated_frames(self, tmp_path, annulus_on_disk):
        base, mesh = annulus_on_disk
        frame = mesh.with_coords(mesh.coords * 1.05)
        fbase = str(tmp_path / "frame")
        io.write_mesh(frame, fbase + ".node", fbase + ".ele")
        spec = tmp_path / "t.spec"
        spec.write_text(f"motion = tabulated\nframes = {fbase}.node\n")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc == 0
        warped = io.read_mesh(out + ".node", out + ".ele")
        assert np.abs(warped.coords - mesh.coords * 1.05).max() < 1e-8

    def test_untangle_node_in_no_element(self, tmp_path, capsys):
        rect = gen_rectangle(1.0, 1.0, 4, 4)
        coords = np.vstack([rect.coords, [0.5, 0.5]])  # interior, in no element
        base = str(tmp_path / "iso")
        mesh = Mesh(coords, rect.elements, rect.boundary_ids)
        io.write_mesh(mesh, base + ".node", base + ".ele")
        spec = tmp_path / "reflect.spec"
        spec.write_text("motion = affine\nl = -1,0;0,1\nalgorithm = untangle\n")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        warped = io.read_mesh(out + ".node", out + ".ele", reorient=False)
        assert np.array_equal(warped.coords[16], [0.5, 0.5])

    @pytest.mark.parametrize("k", [160, 200, 300])
    def test_untangle_with_an_overflowing_cavity(self, tmp_path, capsys, k):
        # outer boundary node 183 pushed out by 10**k and the boundary
        # point-reflected: the simplex terms of the cavities next to it
        # overflow, and those cavities stay
        mesh = gen_annulus(0.5, 6, 36)
        coords = np.array(mesh.coords)
        coords[183] *= 10.0**k
        base = str(tmp_path / "far")
        io.write_mesh(mesh.with_coords(coords), base + ".node", base + ".ele")
        spec = tmp_path / "reflect.spec"
        spec.write_text("motion = affine\nl = -1,0;0,-1\nalgorithm = untangle\nmax_sweeps = 5\n")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        report = Path(out + ".report").read_text()
        assert "untangle_sweeps = 5" in report


class TestCliErrorContract:
    """Bad specs and frame files end in one ``error code=...`` line, exit 1."""

    @pytest.mark.parametrize(
        "spec_text, code",
        [
            ("motion = annulus\ntheta_outer = abc\n", "INVALID_SPEC"),
            ("motion = affine\nv = 0,0\n", "INVALID_SPEC"),
            ("motion = affine\nl = 1,0;0,x\n", "PARSE_ERROR"),
            ("motion = annulus\ntheta_outer = 0.1\nscheme = bogus\n", "INVALID_SPEC"),
            (
                "motion = annulus\ntheta_outer = 0.1\nalgorithm = small_step\n"
                "min_step = 0\n",
                "INVALID_SPEC",
            ),
            ("motion = affine\nl = nan,0;0,1\n", "PARSE_ERROR"),
            ("motion = shear\nalpha = inf\n", "INVALID_SPEC"),
            ("motion = tabulated\nframes = ,\n", "INVALID_SPEC"),
            ("motion = tabulated\n", "INVALID_SPEC"),
            # Python's float and int read these as 25, 10, 50 and 5
            ("motion = annulus\ntheta_outer = 2_5\n", "INVALID_SPEC"),
            ("motion = affine\nl = 1_0,0;0,1\n", "PARSE_ERROR"),
            ("motion = shear\nalpha = 0.1\nalgorithm = untangle\nmax_sweeps = 5_0\n",
             "INVALID_SPEC"),
            ("motion = annulus\ntheta_outer = \u0665\n", "INVALID_SPEC"),
        ],
        ids=[
            "bad_float",
            "affine_without_l",
            "bad_matrix_entry",
            "bad_scheme",
            "zero_min_step",
            "nan_matrix_entry",
            "inf_alpha",
            "no_frames",
            "frames_missing",
            "underscore_float",
            "underscore_matrix_entry",
            "underscore_int",
            "arabic_indic_digit",
        ],
    )
    def test_bad_spec(self, tmp_path, annulus_on_disk, capsys, spec_text, code):
        base, _ = annulus_on_disk
        spec = tmp_path / "bad.spec"
        spec.write_text(spec_text, encoding="utf-8")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", out])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error code={code} message=")
        assert "\n" not in err
        assert not any(os.path.exists(out + ext) for ext in (".node", ".ele", ".report"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["femwarp", "small_step", "hybrid", "untangle"])
    @pytest.mark.parametrize(
        "spec_text",
        ["motion = shear\nalpha = 1e308\n", "motion = affine\nl = 1e308,0;0,1e308\n"],
        ids=["shear", "affine"],
    )
    def test_overflowing_motion_target(self, tmp_path, capsys, spec_text, algorithm):
        # finite spec values whose boundary target overflows to inf or nan
        base = str(tmp_path / "rect")
        io.write_mesh(gen_rectangle(2.0, 1.0, 5, 4), base + ".node", base + ".ele")
        spec = tmp_path / "big.spec"
        spec.write_text(spec_text + f"algorithm = {algorithm}\n")
        out = str(tmp_path / "o")
        for argv in (
            ["warp", "--mesh", base, "--spec", str(spec), "--out", out],
            ["sweep", "--mesh", base, "--spec", str(spec), "--param-grid", "1:1:1"],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert err.startswith("error code=INVALID_SPEC message=")
            assert "\n" not in err and captured.out == ""
        assert not os.path.exists(out + ".node")

    @pytest.mark.filterwarnings("error")
    def test_annulus_radius_change_on_a_boundary_through_the_origin(self, tmp_path, capsys):
        # s rescales the inner boundary by s / r, and the rectangle's corner
        # (0, 0) makes its smallest boundary radius r zero
        base = str(tmp_path / "rect")
        io.write_mesh(gen_rectangle(2.0, 1.0, 5, 4), base + ".node", base + ".ele")
        spec = tmp_path / "s.spec"
        spec.write_text("motion = annulus\ntheta_outer = 0.5\ns = 0.6\n")
        out = str(tmp_path / "o")
        args = ["--mesh", base, "--spec", str(spec), "--out", out]
        for argv, outputs in (
            (["warp", *args], (".node", ".ele", ".report")),
            (["sweep", *args, "--param-grid", "1:1:1"], ("",)),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error code=INVALID_SPEC message=")
            assert captured.out == ""
            assert not any(os.path.exists(out + ext) for ext in outputs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec_text",
        ["motion = annulus\ntheta_outer = 1e308\n", "motion = affine\nl = 1e308,0;0,1\n"],
        ids=["annulus_angle", "affine_matrix"],
    )
    def test_sweep_scales_a_parameter_past_the_float_range(self, tmp_path, capsys, spec_text):
        # grid point 2 doubles 1e308 to inf: the angle ended in a math domain
        # error traceback, the matrix in a numpy overflow warning
        base = str(tmp_path / "ann")
        io.write_mesh(gen_annulus(0.5, 3, 12), base + ".node", base + ".ele")
        spec = tmp_path / "big.spec"
        spec.write_text(spec_text)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--mesh", base, "--spec", str(spec), "--out", str(out)]
        assert main(argv + ["--param-grid", "0:2:1"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error code=INVALID_SPEC message=")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_oracle_refuses_a_non_finite_angle(self, capsys, theta):
        # it printed nan coefficients and exited 0
        assert main(["oracle", "annulus", "--r", "0.5", "--s", "0.5", f"--theta={theta}"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error code=INVALID_SPEC message=")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "make, spec_text",
        [
            (lambda: gen_box_tets(4, 4, 4), "motion = annulus\ntheta_outer = 0.5\n"),
            (lambda: gen_annulus(0.5, 4, 16), "motion = nonlinear3d\nalpha = 1\n"),
        ],
        ids=["annulus_on_box", "nonlinear3d_on_annulus"],
    )
    def test_motion_of_the_wrong_dimension(self, tmp_path, capsys, make, spec_text):
        # these used to end in a ValueError and an IndexError traceback
        base = str(tmp_path / "m")
        io.write_mesh(make(), base + ".node", base + ".ele")
        spec = tmp_path / "dim.spec"
        spec.write_text(spec_text)
        out = str(tmp_path / "o")
        assert main(["warp", "--mesh", base, "--spec", str(spec), "--out", out]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert lines[0].startswith("error code=INVALID_SPEC message=")
        assert not any(os.path.exists(out + ext) for ext in (".node", ".ele", ".report"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["0:1e308:1e-308", "-1e308:1e308:1", "0:1e300:1"])
    def test_overflowing_param_grid(self, tmp_path, annulus_on_disk, capsys, grid):
        # the point count overflows to inf, which used to end in a traceback,
        # or is finite but past the cap, which used to fill the memory
        base, _ = annulus_on_disk
        spec = tmp_path / "id.spec"
        spec.write_text("motion = affine\nl = 1,0;0,1\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--mesh", base, "--spec", str(spec), "--out", str(out)]
        assert main(argv + [f"--param-grid={grid}"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert lines[0].startswith("error code=INVALID_SPEC message=")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("file", ["spec", "node_header", "node_tail", "ele_tail", "frame"])
    def test_file_not_utf8(self, tmp_path, annulus_on_disk, capsys, file):
        # each used to end in a UnicodeDecodeError traceback
        base, mesh = annulus_on_disk
        bad = str(tmp_path / "bad")
        io.write_mesh(mesh, bad + ".node", bad + ".ele")
        spec = tmp_path / "t.spec"
        spec.write_text("motion = affine\nl = 1,0;0,1\n")
        tail = {"node": mesh.n_nodes + 2, "ele": mesh.n_elements + 2}
        if file == "spec":
            spec.write_bytes(b"motion = affine\nl = 1,0;0,1\n\xff\xfe = 1\n")
            name, lineno = spec, 3
        elif file == "node_header":
            path = Path(bad + ".node")
            path.write_bytes(b"# \xff\n" + path.read_bytes())
            name, lineno = path, 1
        else:
            ext = ".ele" if file == "ele_tail" else ".node"
            with open(bad + ext, "ab") as fh:
                fh.write(b"\xff\xfe")
            name, lineno = bad + ext, tail[ext[1:]]
        if file == "frame":
            spec.write_text(f"motion = tabulated\nframes = {bad}.node\n")
        mesh_base = base if file in ("spec", "frame") else bad
        out = str(tmp_path / "o")
        runs = [["warp", "--mesh", mesh_base, "--spec", str(spec), "--out", out]]
        if file in ("node_header", "node_tail", "ele_tail"):
            runs.append(["quality", "--mesh", mesh_base])
        for argv in runs:
            assert main(argv) == 1
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1 and captured.out == ""
            assert lines[0] == f"error code=PARSE_ERROR message={name}:{lineno}: not UTF-8 text"
        assert not any(os.path.exists(out + ext) for ext in (".node", ".ele", ".report"))

    def test_sweep_refuses_tabulated(self, tmp_path, annulus_on_disk, capsys):
        # a tabulated motion has no parameter, so every row would claim the
        # whole motion; it is refused before any frame is read
        base, mesh = annulus_on_disk
        fbase = str(tmp_path / "frame")
        io.write_mesh(mesh, fbase + ".node", fbase + ".ele")
        out = tmp_path / "sweep.csv"
        for frames in (fbase + ".node", str(tmp_path / "missing.node")):
            spec = tmp_path / "t.spec"
            spec.write_text(f"motion = tabulated\nframes = {frames}\n")
            argv = ["sweep", "--mesh", base, "--spec", str(spec), "--out", str(out)]
            assert main(argv + ["--param-grid", "0:2:0.5"]) == 1
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error code=INVALID_SPEC message=")
            assert captured.out == "" and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_measures_count_as_reversed(self, tmp_path, capsys):
        # param 0.5 warps to finite coordinates near 1e308 whose measures
        # overflow to nan or inf: every element counts as reversed, with no
        # warning; param 1 overflows the boundary target itself
        base = str(tmp_path / "rect")
        io.write_mesh(gen_rectangle(2, 1, 5, 4), base + ".node", base + ".ele")
        spec = tmp_path / "big.spec"
        spec.write_text("motion = affine\nl = 1e308,0;0,1e308\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--mesh", base, "--spec", str(spec), "--out", str(out)]
        assert main(argv + ["--param-grid", "0:1:0.5"]) == 1
        assert capsys.readouterr().err.startswith("error code=INVALID_SPEC message=")
        assert not out.exists()
        assert main(argv + ["--param-grid", "0:0.5:0.5"]) == 0
        assert out.read_text().splitlines() == [
            "param,outcome,reversals,n_factorizations",
            "0,SUCCESS,0,1",
            "0.5,REVERSED,24,1",
        ]

    @pytest.mark.parametrize("command", ["quality", "warp"])
    def test_mesh_without_elements(self, tmp_path, capsys, command):
        # an .ele header listing 0 elements is refused when the mesh is read
        write_pair(tmp_path, SINGLE_NODE, "0 3 0\n", base="empty")
        base = str(tmp_path / "empty")
        spec = tmp_path / "id.spec"
        spec.write_text("motion = affine\nl = 1,0;0,1\n")
        out = str(tmp_path / "o")
        argv = {
            "quality": ["quality", "--mesh", base],
            "warp": ["warp", "--mesh", base, "--spec", str(spec), "--out", out],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error code=PARSE_ERROR message=")
        assert f"{base}.ele:1: " in err and "Traceback" not in err
        assert not any(os.path.exists(out + ext) for ext in (".node", ".ele", ".report"))

    def test_repeated_node_id(self, tmp_path, capsys):
        base = str(tmp_path / "dup")
        write_pair(
            tmp_path,
            "4 2 0 1\n0 0.0 0.0 1\n1 1.0 0.0 1\n1 1.0 1.0 1\n3 0.0 1.0 1\n",
            "1 3 0\n0 0 1 3\n",
            base="dup",
        )
        assert main(["quality", "--mesh", base]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error code=BAD_INDEX message=")
        assert "\n" not in err

    def test_malformed_frame_token(self, tmp_path, annulus_on_disk, capsys):
        base, mesh = annulus_on_disk
        fbase = str(tmp_path / "frame")
        io.write_mesh(mesh, fbase + ".node", fbase + ".ele")
        lines = open(fbase + ".node").read().split("\n")
        lines[1] = lines[1].replace(lines[1].split()[1], "1.0e", 1)
        open(fbase + ".node", "w").write("\n".join(lines))
        spec = tmp_path / "t.spec"
        spec.write_text(f"motion = tabulated\nframes = {fbase}.node\n")
        rc = main(["warp", "--mesh", base, "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error code=PARSE_ERROR message=")
        assert ":2:" in err

    @pytest.mark.parametrize("file", ["mesh", "frame"])
    def test_non_finite_coordinate(self, tmp_path, annulus_on_disk, capsys, file):
        base, mesh = annulus_on_disk
        bad = str(tmp_path / "bad")
        io.write_mesh(mesh, bad + ".node", bad + ".ele")
        lines = open(bad + ".node").read().split("\n")
        tokens = lines[3].split()
        tokens[2] = "inf"  # node 2's y coordinate
        lines[3] = " ".join(tokens)
        open(bad + ".node", "w").write("\n".join(lines))
        spec = tmp_path / "t.spec"
        if file == "mesh":
            spec.write_text("motion = affine\nl = 1,0;0,1\n")
        else:
            spec.write_text(f"motion = tabulated\nframes = {bad}.node\n")
        out = str(tmp_path / "o")
        rc = main(["warp", "--mesh", bad if file == "mesh" else base, "--spec", str(spec),
                   "--out", out])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error code=PARSE_ERROR message=")
        assert ":4:" in err and "\n" not in err
        assert not os.path.exists(out + ".report")

    @pytest.mark.parametrize(
        "spec_text, code, names",
        [
            ("motion = annulus\ntheta_outr = 2.5\n", "INVALID_SPEC", "'theta_outr'"),
            ("motion = annulus\ntheta_outer = 2.5\nalgoritm = hybrid\n", "INVALID_SPEC",
             "'algoritm'"),
            ("motion = annulus\ntheta_outer = 2.5\nschem = uniform\n", "INVALID_SPEC",
             "'schem'"),
            ("motion = shear\nalpha = 0.5\nv = 1,2\n", "INVALID_SPEC", "'v'"),
            ("motion = shear\nalpha = 0.5\nalpha = 0.7\n", "PARSE_ERROR", ":3: "),
            ("motion = annulus\ntheta_outer = 2.5\nalgorithm = hybrid\nmax_sweeps = -5\n",
             "INVALID_SPEC", "-5"),
        ],
        ids=["unknown_motion_key", "unknown_algorithm_key", "unknown_scheme_key",
             "key_the_motion_ignores", "repeated_key", "negative_max_sweeps"],
    )
    def test_refused_spec(self, tmp_path, annulus_on_disk, capsys, spec_text, code, names):
        # each used to run: a typo ran the default, a repeated key kept its
        # last value and a negative max_sweeps untangled nothing
        base, _ = annulus_on_disk
        spec = tmp_path / "bad.spec"
        spec.write_text(spec_text)
        out = str(tmp_path / "o")
        for argv in (
            ["warp", "--mesh", base, "--spec", str(spec), "--out", out],
            ["sweep", "--mesh", base, "--spec", str(spec), "--param-grid", "1:1:1",
             "--out", out + ".csv"],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1 and captured.out == ""
            assert lines[0].startswith(f"error code={code} message=")
            assert names in lines[0]
        assert not any(os.path.exists(out + ext) for ext in (".node", ".ele", ".report", ".csv"))

    def test_run_keys_valid_with_any_motion(self, tmp_path, annulus_on_disk, capsys):
        # the keys every run reads pass the key check whatever the algorithm
        base, _ = annulus_on_disk
        spec = tmp_path / "ok.spec"
        spec.write_text(
            "motion = shear\nalpha = 0.1\nscheme = LOG_BARRIER\nalgorithm = femwarp\n"
            "min_step = 0.01\nmax_sweeps = 0\n"
        )
        out = str(tmp_path / "o")
        assert main(["warp", "--mesh", base, "--spec", str(spec), "--out", out]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["genmesh", "annulus", "--rings", "abc", "--out", "OUT"], "--rings"),
            (["oracle", "annulus", "--r", "0.5", "--s", "0.5", "--theta", "x"], "--theta"),
            (["genmesh", "rectangle", "--nx", "1.5", "--out", "OUT"], "--nx"),
            (["genmesh", "annulus", "--rings", "1_0", "--out", "OUT"], "--rings"),
            (["oracle", "annulus", "--r", "0.5", "--s", "0.5", "--theta", "\u0665"], "--theta"),
            (["genmesh", "annulus", "--rings", "8"], "--out"),
            (["genmesh", "rectangle", "--out"], "--out"),
            (["bogus", "--out", "OUT"], "'bogus'"),
            ([], "command"),
        ],
        ids=["rings_abc", "theta_x", "nx_1.5", "rings_underscore", "theta_arabic_indic",
             "missing_out", "out_without_value", "unknown_subcommand", "no_subcommand"],
    )
    def test_usage_error(self, tmp_path, capsys, argv, names):
        # each used to print argparse's usage block and its error line
        out = str(tmp_path / "g")
        assert main([out if a == "OUT" else a for a in argv]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert lines[0].startswith("error code=USAGE_ERROR message=femwarp")
        assert names in lines[0]
        assert not os.listdir(tmp_path)

    def test_every_error_is_a_coded_value_error(self):
        # the library raises the code the CLI prints, and ``except ValueError``
        # catches every refusal
        classes = [
            cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__
        ]
        assert errors.ShapeError in classes
        assert all(issubclass(cls, ValueError) for cls in classes)
        assert len({cls.code for cls in classes}) == len(classes)

    @pytest.mark.parametrize("argv", [["--help"], ["genmesh", "annulus", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: femwarp") and captured.err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["annulus", "--sectors", "4"],
            ["annulus", "--rings", "1"],
            ["annulus", "--r", "1.5"],
            ["annulus", "--r", "nan"],
            ["rectangle", "--nx", "1"],
            ["rectangle", "--width", "nan"],
            ["rectangle", "--width", "-2"],
            ["rectangle", "--height", "inf"],
        ],
        ids=["sectors4", "rings1", "r1.5", "r_nan", "nx1", "width_nan", "width_neg",
             "height_inf"],
    )
    def test_genmesh_refuses_bad_shape(self, tmp_path, capsys, argv):
        # each used to print a traceback or write nan or reversed elements
        out = str(tmp_path / "g")
        assert main(["genmesh", *argv, "--out", out]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert lines[0].startswith("error code=INVALID_SPEC message=")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
         (MemoryError(), "out of memory")],
        ids=["numpy_message", "bare"],
    )
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch, exc, message):
        # a huge annulus used to print numpy's _ArrayMemoryError traceback;
        # the generator is stubbed to raise, so the test allocates nothing
        def refuse(*args):
            raise exc

        monkeypatch.setattr(cli, "gen_annulus", refuse)
        out = str(tmp_path / "g")
        argv = ["genmesh", "annulus", "--rings", "1000000", "--sectors", "1000000", "--out", out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error code=OUT_OF_MEMORY message={message}"]
        assert not os.listdir(tmp_path)
