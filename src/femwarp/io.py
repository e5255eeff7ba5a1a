"""Triangle/TetGen .node/.ele file I/O and deformation-spec parsing."""

import warnings
from itertools import combinations

import numpy as np

from .errors import BadIndexError, ParseError
from .mesh import Mesh, count_reversals, signed_measures


def _data_lines(path):
    """(line_number, text) for non-comment, non-blank lines, comments cut."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append((lineno, line))
    return out


def _parse_header(path, expected_fields):
    """(line_number, integer fields) of the first data line of ``path``."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                break
        else:
            raise ParseError(f"{path}: empty file", line=0)
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: malformed header", line=lineno)
    if len(values) < expected_fields:
        raise ParseError(f"{path}:{lineno}: short header", line=lineno)
    if min(values[:expected_fields]) < 0:
        raise ParseError(f"{path}:{lineno}: negative count in header", line=lineno)
    return lineno, values


def _records(path, skip, dtype, usecols, n=None):
    """The first ``n`` data records (all when None) after line ``skip`` of
    ``path`` (a file name or a list of lines), parsed in one call; None when
    a record cannot be parsed or fewer than ``n`` exist."""
    dtype = np.dtype(dtype)
    if n == 0:
        return np.zeros(0, dtype)
    try:
        with warnings.catch_warnings():
            # comment-only lines and an empty block are not errors here
            warnings.simplefilter("ignore", UserWarning)
            # older numpy only warns when it truncates "1.7" to an integer
            warnings.simplefilter("error", DeprecationWarning)
            rec = np.loadtxt(
                path, dtype=dtype, comments="#", usecols=usecols,
                skiprows=skip, max_rows=n, ndmin=1,
            )
    except (ValueError, OverflowError):
        return None
    return None if n is not None and len(rec) != n else rec


def _record(path, lineno, line, dtype, usecols, kind):
    """The one record on ``line`` as :func:`_records` parses it, or the
    coded error of a short or malformed ``kind`` record."""
    if len(line.split()) <= usecols[-1]:
        raise ParseError(f"{path}:{lineno}: short {kind} record", line=lineno)
    rec = _records([line], 0, dtype, usecols, 1)
    if rec is None:
        raise ParseError(f"{path}:{lineno}: malformed {kind} record", line=lineno)
    return rec[0]


def _offsets(ids, base, n):
    """``ids - base`` and the mask of ids in ``[base, base + n)``, free of
    int64 wrap-around."""
    idx = ids - base
    return idx, (ids >= base) & (idx >= 0) & (idx < n)


def _positions(ids, n):
    """Row of each of ``n`` records, ``ids - ids.min()``, or None unless
    that is a permutation of 0..n-1."""
    if not n:
        return ids
    idx, ok = _offsets(ids, ids.min(), n)
    hit = np.zeros(n, dtype=bool)
    hit[idx[ok]] = True
    return idx if hit.all() else None


def read_mesh(node_path, ele_path, reorient=True):
    """Read a mesh from Triangle/TetGen .node + .ele files.

    A nonzero trailing marker in the .node file marks a boundary node; if
    the file carries no markers, boundary nodes are inferred as those on
    faces belonging to exactly one element.  Node records may come in any
    order, but their ids must be a permutation of ``base .. base + n - 1``,
    where ``base`` is the smallest id (0 or 1 in practice); ids are shifted
    to 0-based.  Negatively oriented elements are reoriented with a warning
    unless ``reorient`` is False.
    """
    skip, header = _parse_header(node_path, 4)
    n_nodes, dim, n_attrs, n_markers = header[:4]
    if dim not in (2, 3):
        raise ParseError(f"{node_path}: dimension must be 2 or 3, got {dim}")
    fields = [("id", np.int64), ("x", np.float64, (dim,))]
    usecols = tuple(range(1 + dim))
    if n_markers:
        fields.append(("marker", np.int64))
        usecols += (1 + dim + n_attrs,)
    last = dim + n_attrs + n_markers  # the last token a record must have
    if last > usecols[-1]:
        fields.append(("last", "U1"))  # read only so a short record fails
        usecols += (last,)
    rec = _records(node_path, skip, fields, usecols, n_nodes)
    idx = None if rec is None else _positions(rec["id"], n_nodes)
    if idx is None:
        _raise_node_record_error(node_path, n_nodes, fields, usecols)
    base = int(rec["id"].min()) if n_nodes else 0
    coords = np.empty((n_nodes, dim))
    coords[idx] = rec["x"]
    markers = np.zeros(n_nodes, dtype=np.int64)
    if n_markers:
        markers[idx] = rec["marker"]

    skip, header = _parse_header(ele_path, 2)
    n_ele, nodes_per = header[:2]
    if nodes_per != dim + 1:
        raise ParseError(
            f"{ele_path}: expected {dim + 1} nodes per element, got {nodes_per}"
        )
    fields = [("ids", np.int64, (nodes_per,))]
    usecols = tuple(range(1, 1 + nodes_per))
    rec = _records(ele_path, skip, fields, usecols, n_ele)
    if rec is not None:
        elements, ok = _offsets(rec["ids"], base, n_nodes)
    if rec is None or not ok.all():
        _raise_element_record_error(ele_path, n_ele, fields, usecols, n_nodes, base)

    if n_markers:
        boundary = np.flatnonzero(markers != 0)
    else:
        boundary = _infer_boundary(elements, dim)
    mesh = Mesh(coords, elements, boundary)
    if reorient:
        meas = signed_measures(mesh)
        flipped = np.flatnonzero(meas < 0.0)
        if len(flipped):
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


def _raise_node_record_error(path, n_nodes, fields, usecols):
    """Walk the node records of ``path`` line by line, each parsed as the
    one-call parse reads it, and raise the coded error of the first bad one;
    only called once the one-call parse failed."""
    records = _data_lines(path)[1:]
    if len(records) < n_nodes:
        raise ParseError(f"{path}: expected {n_nodes} node records")
    ids = [
        int(_record(path, lineno, line, fields, usecols, "node")["id"])
        for lineno, line in records[:n_nodes]
    ]
    base = min(ids)  # 0- or 1-based, as read_mesh detects it
    seen = np.zeros(n_nodes, dtype=bool)
    for (lineno, _), nid in zip(records, ids):
        idx = nid - base
        if not (0 <= idx < n_nodes):
            raise BadIndexError(
                f"{path}:{lineno}: node id {nid} out of range", line=lineno
            )
        if seen[idx]:
            raise BadIndexError(f"{path}:{lineno}: node id {nid} repeated", line=lineno)
        seen[idx] = True
    raise ParseError(f"{path}: unreadable node records")


def _raise_element_record_error(path, n_ele, fields, usecols, n_nodes, base):
    """Element-file counterpart of :func:`_raise_node_record_error`."""
    records = _data_lines(path)[1:]
    if len(records) < n_ele:
        raise ParseError(f"{path}: expected {n_ele} element records")
    for lineno, line in records[:n_ele]:
        rec = _record(path, lineno, line, fields, usecols, "element")
        for nid in rec["ids"].tolist():
            if not (0 <= nid - base < n_nodes):
                raise BadIndexError(
                    f"{path}:{lineno}: node id {nid} out of range", line=lineno
                )
    raise ParseError(f"{path}: unreadable element records")


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
    d = mesh.dim
    # %r of a Python float is its shortest round-trip repr
    nodes = zip(
        range(mesh.n_nodes), *mesh.coords.T.tolist(), mesh.boundary.astype(int).tolist()
    )
    with open(node_path, "w") as fh:
        fh.write(
            f"{mesh.n_nodes} {d} 0 1\n"
            + "".join(map(("%d" + " %r" * d + " %d\n").__mod__, nodes))
        )
    elements = zip(range(mesh.n_elements), *mesh.elements.T.tolist())
    with open(ele_path, "w") as fh:
        fh.write(
            f"{mesh.n_elements} {d + 1} 0\n"
            + "".join(map(("%d" + " %d" * (d + 1) + "\n").__mod__, elements))
        )


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

    A frame is a whole .node file of the mesh: its header and its records
    count ``mesh.n_nodes`` nodes and, as in read_mesh, its ids are a
    permutation of ``base .. base + n - 1`` with ``base`` the smallest id
    (a frame of only some nodes would leave its base ambiguous).  Only the
    boundary rows are returned.  A malformed or repeated record is a coded
    error naming its line, and any other mismatch is a BAD_INDEX.
    """
    skip, header = _parse_header(node_path, 2)
    n_frame, dim = header[:2]
    if dim != mesh.dim:
        raise ParseError(f"{node_path}: frame dimension {dim} != mesh dim {mesh.dim}")
    fields = [("id", np.int64), ("x", np.float64, (dim,))]
    usecols = tuple(range(1 + dim))
    rec = _records(node_path, skip, fields, usecols)
    if rec is None or len(np.unique(rec["id"])) != len(rec):
        _raise_frame_record_error(node_path, fields, usecols)
    n = mesh.n_nodes
    if n_frame != n:
        raise BadIndexError(
            f"{node_path}:{skip}: frame of {n_frame} nodes for a mesh of {n}", line=skip
        )
    if len(rec) < n:
        raise BadIndexError(f"{node_path}: expected {n} node records, got {len(rec)}")
    if len(rec) > n:
        lineno = _data_lines(node_path)[n + 1][0]
        raise BadIndexError(f"{node_path}:{lineno}: node record past {n}", line=lineno)
    idx = _positions(rec["id"], n)
    if idx is None:
        _raise_node_record_error(node_path, n, fields, usecols)
    return rec["x"][np.argsort(idx)[mesh.boundary_ids]]


def _raise_frame_record_error(path, fields, usecols):
    """Frame-file counterpart of :func:`_raise_node_record_error`."""
    seen = set()
    for lineno, line in _data_lines(path)[1:]:
        nid = int(_record(path, lineno, line, fields, usecols, "node")["id"])
        if nid in seen:
            raise BadIndexError(f"{path}:{lineno}: node id {nid} repeated", line=lineno)
        seen.add(nid)
    raise ParseError(f"{path}: unreadable node records")
