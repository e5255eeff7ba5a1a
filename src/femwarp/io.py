"""Triangle/TetGen .node/.ele file I/O and deformation-spec parsing."""

from itertools import combinations

import numpy as np

from .errors import BadIndexError, ParseError
from .mesh import Mesh, count_reversals, signed_measures


def _data_lines(path):
    """(line_number, tokens) for non-comment, non-blank lines."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append((lineno, line.split()))
    return out


def _parse_header(path, lines, expected_fields):
    if not lines:
        raise ParseError(f"{path}: empty file", line=0)
    lineno, tokens = lines[0]
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: malformed header", line=lineno)
    if len(values) < expected_fields:
        raise ParseError(f"{path}:{lineno}: short header", line=lineno)
    return values


def read_mesh(node_path, ele_path, reorient=True):
    """Read a mesh from Triangle/TetGen .node + .ele files.

    A nonzero trailing marker in the .node file marks a boundary node; if
    the file carries no markers, boundary nodes are inferred as those on
    faces belonging to exactly one element.  1-based node ids are detected
    from the first node record and shifted to 0-based.  Negatively oriented
    elements are reoriented with a warning unless ``reorient`` is False.
    """
    node_lines = _data_lines(node_path)
    n_nodes, dim, n_attrs, n_markers = _parse_header(node_path, node_lines, 4)[:4]
    if dim not in (2, 3):
        raise ParseError(f"{node_path}: dimension must be 2 or 3, got {dim}")
    records = node_lines[1:]
    if len(records) < n_nodes:
        raise ParseError(f"{node_path}: expected {n_nodes} node records")
    coords = np.empty((n_nodes, dim))
    markers = np.zeros(n_nodes, dtype=int)
    base = None
    for k in range(n_nodes):
        lineno, tokens = records[k]
        if len(tokens) < 1 + dim + n_attrs + n_markers:
            raise ParseError(f"{node_path}:{lineno}: short node record", line=lineno)
        try:
            nid = int(tokens[0])
            vals = [float(t) for t in tokens[1 : 1 + dim]]
            marker = int(tokens[1 + dim + n_attrs]) if n_markers else 0
        except ValueError:
            raise ParseError(f"{node_path}:{lineno}: malformed node record", line=lineno)
        if base is None:
            base = nid  # autodetect 0- vs 1-based ids from the first record
        idx = nid - base
        if not (0 <= idx < n_nodes):
            raise BadIndexError(f"{node_path}:{lineno}: node id {nid} out of range")
        coords[idx] = vals
        markers[idx] = marker

    ele_lines = _data_lines(ele_path)
    n_ele, nodes_per = _parse_header(ele_path, ele_lines, 2)[:2]
    if nodes_per != dim + 1:
        raise ParseError(
            f"{ele_path}: expected {dim + 1} nodes per element, got {nodes_per}"
        )
    records = ele_lines[1:]
    if len(records) < n_ele:
        raise ParseError(f"{ele_path}: expected {n_ele} element records")
    elements = np.empty((n_ele, nodes_per), dtype=np.int64)
    for k in range(n_ele):
        lineno, tokens = records[k]
        if len(tokens) < 1 + nodes_per:
            raise ParseError(f"{ele_path}:{lineno}: short element record", line=lineno)
        try:
            ids = [int(t) for t in tokens[1 : 1 + nodes_per]]
        except ValueError:
            raise ParseError(f"{ele_path}:{lineno}: malformed element record", line=lineno)
        for nid in ids:
            if not (0 <= nid - base < n_nodes):
                raise BadIndexError(
                    f"{ele_path}:{lineno}: node id {nid} out of range", line=lineno
                )
        elements[k] = [nid - base for nid in ids]

    if n_markers:
        boundary = np.flatnonzero(markers != 0)
    else:
        boundary = _infer_boundary(elements, dim)
    mesh = Mesh(coords, elements, boundary)
    if reorient:
        meas = signed_measures(mesh)
        flipped = np.flatnonzero(meas < 0.0)
        if len(flipped):
            import warnings

            warnings.warn(
                f"reoriented {len(flipped)} negatively oriented elements",
                stacklevel=2,
            )
            elements = np.array(elements)
            elements[flipped, 0], elements[flipped, 1] = (
                elements[flipped, 1],
                elements[flipped, 0].copy(),
            )
            mesh = Mesh(coords, elements, boundary)
    return mesh


def _infer_boundary(elements, dim):
    """Nodes on faces shared by exactly one element."""
    corners = np.array(list(combinations(range(dim + 1), dim)))
    faces = np.sort(elements[:, corners].reshape(-1, dim), axis=1)
    faces, counts = np.unique(faces, axis=0, return_counts=True)
    return np.unique(faces[counts == 1])


def write_mesh(mesh, node_path, ele_path):
    """Write Triangle/TetGen .node/.ele files (0-based ids, shortest
    round-trip float formatting, boundary markers)."""
    if mesh.n_nodes == 0 or mesh.n_elements == 0:
        raise ParseError("refusing to write an empty mesh")
    with open(node_path, "w") as fh:
        fh.write(f"{mesh.n_nodes} {mesh.dim} 0 1\n")
        for nid in range(mesh.n_nodes):
            xyz = " ".join(repr(float(v)) for v in mesh.coords[nid])
            fh.write(f"{nid} {xyz} {1 if mesh.boundary[nid] else 0}\n")
    with open(ele_path, "w") as fh:
        fh.write(f"{mesh.n_elements} {mesh.dim + 1} 0\n")
        for eid in range(mesh.n_elements):
            ids = " ".join(str(int(v)) for v in mesh.elements[eid])
            fh.write(f"{eid} {ids}\n")


def read_spec(path):
    """Parse a line-oriented ``key = value`` deformation spec into a dict."""
    spec = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'", line=lineno)
            key, value = line.split("=", 1)
            spec[key.strip().lower()] = value.strip()
    return spec


def parse_matrix(text, dim):
    """Parse 'a,b;c,d' row-major matrix text."""
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, got {len(rows)}")
    out = []
    for row in rows:
        vals = [v for v in row.replace(",", " ").split() if v]
        if len(vals) != dim:
            raise ParseError(f"expected {dim} entries per row, got {len(vals)}")
        out.append(_floats(vals))
    return np.array(out)


def parse_vector(text, dim):
    vals = [v for v in text.replace(",", " ").split() if v]
    if len(vals) != dim:
        raise ParseError(f"expected {dim}-vector, got {len(vals)} entries")
    return np.array(_floats(vals))


def _floats(tokens):
    try:
        return [float(v) for v in tokens]
    except ValueError as exc:
        raise ParseError(f"malformed number: {exc}")


def read_boundary_frame(mesh, node_path):
    """Boundary coordinates for ``mesh`` from another .node file.

    Only boundary rows are consulted; ids must match the mesh numbering
    (same base detection as read_mesh).
    """
    lines = _data_lines(node_path)
    n_nodes, dim = _parse_header(node_path, lines, 2)[:2]
    if dim != mesh.dim:
        raise ParseError(f"{node_path}: frame dimension {dim} != mesh dim {mesh.dim}")
    records = lines[1:]
    if not records:
        raise ParseError(f"{node_path}: no node records")
    coords = {}
    base = None
    for lineno, tokens in records:
        if len(tokens) < 1 + dim:
            raise ParseError(f"{node_path}:{lineno}: short node record", line=lineno)
        try:
            nid = int(tokens[0])
            vals = [float(t) for t in tokens[1 : 1 + dim]]
        except ValueError:
            raise ParseError(f"{node_path}:{lineno}: malformed node record", line=lineno)
        if base is None:
            base = nid
        coords[nid - base] = vals
    out = np.empty((len(mesh.boundary_ids), mesh.dim))
    for row, nid in enumerate(mesh.boundary_ids):
        if int(nid) not in coords:
            raise BadIndexError(f"{node_path}: missing boundary node {nid}")
        out[row] = coords[int(nid)]
    return out
