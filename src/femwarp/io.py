"""Triangle/TetGen .node/.ele file I/O and deformation-spec parsing.

Node, element and frame files share one error rule.  A valid file is parsed
in one call.  Otherwise the first short, malformed or non-finite record is a
PARSE_ERROR naming its line; once every record parses, the first record
citing a node id out of range, or repeating an earlier node record's id, is
a BAD_INDEX naming its line.  Every file is read as UTF-8: one that is not
(a spec file too) is a PARSE_ERROR naming its first line that is not.
"""

import warnings

import numpy as np

from .errors import BadIndexError, ParseError
from .mesh import Mesh, _boundary_facet_nodes, signed_measures


def _not_utf8(path):
    """The PARSE_ERROR of a file that is not UTF-8 text, naming its first
    line that is not (``bytes.splitlines`` ends lines where text mode does)."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return ParseError(f"{path}:{lineno}: not UTF-8 text", line=lineno)
    return ParseError(f"{path}: not UTF-8 text")


def _data_lines(path):
    """(line_number, text) for non-comment, non-blank lines, comments cut."""
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    out.append((lineno, line))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return out


def _parse_header(path, expected_fields):
    """(line_number, integer fields) of the first data line of ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                tokens = raw.split("#", 1)[0].split()
                if tokens:
                    break
            else:
                raise ParseError(f"{path}: empty file", line=0)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        values = list(map(number(int), tokens))
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
    a record cannot be parsed, holds a non-finite number or fewer than ``n``
    exist."""
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
                skiprows=skip, max_rows=n, ndmin=1, encoding="utf-8",
            )
    # a UnicodeDecodeError is a ValueError: _read_records names its line
    except (ValueError, OverflowError):
        return None
    if n is not None and len(rec) != n:
        return None
    floats = [rec[k] for k in dtype.names if dtype[k].base.kind == "f"]
    return rec if all(np.isfinite(f).all() for f in floats) else None


def _read_records(path, skip, dtype, usecols, n, kind):
    """:func:`_records`, or the PARSE_ERROR of the first short or malformed
    (non-finite included) ``kind`` record, naming its line."""
    rec = _records(path, skip, dtype, usecols, n)
    if rec is not None:
        return rec
    lines = _data_lines(path)[1:]
    if n is not None and len(lines) < n:
        raise ParseError(f"{path}: expected {n} {kind} records")
    for lineno, line in lines[:n]:
        if len(line.split()) <= usecols[-1]:
            raise ParseError(f"{path}:{lineno}: short {kind} record", line=lineno)
        if _records([line], 0, dtype, usecols, 1) is None:
            raise ParseError(f"{path}:{lineno}: malformed {kind} record", line=lineno)
    raise ParseError(f"{path}: unreadable {kind} records")


def _bad_id(path, record, nid, what):
    """The BAD_INDEX of data record ``record`` (0 is the first after the
    header) citing node ``nid``; the file is re-read for its line."""
    lineno = _data_lines(path)[record + 1][0]
    return BadIndexError(f"{path}:{lineno}: node id {nid} {what}", line=lineno)


def _offsets(ids, base, n):
    """``ids - base`` and the mask of ids in ``[base, base + n)``, free of
    int64 wrap-around."""
    idx = ids - base
    return idx, (ids >= base) & (idx >= 0) & (idx < n)


def _node_rows(path, ids, n):
    """Row ``ids - base`` of each node record and ``base``, the smallest id;
    BAD_INDEX at the first record whose id is outside ``[base, base + n)``
    or repeats an earlier record's."""
    base = int(ids.min()) if len(ids) else 0
    idx, ok = _offsets(ids, base, n)
    if ok.all() and np.bincount(idx, minlength=n).max(initial=0) <= 1:
        return idx, base
    repeat = np.ones(len(ids), dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    i = np.flatnonzero(~ok | repeat)[0]
    raise _bad_id(path, i, ids[i], "repeated" if ok[i] else "out of range")


def read_mesh(node_path, ele_path, reorient=True):
    """Read a mesh from Triangle/TetGen .node + .ele files.

    A nonzero trailing marker in the .node file marks a boundary node; if
    the file carries no markers, boundary nodes are inferred as those on
    faces belonging to exactly one element.  Node records may come in any
    order, but their ids must be a permutation of ``base .. base + n - 1``,
    where ``base`` is the smallest id (0 or 1 in practice); ids are shifted
    to 0-based; element ids must lie in that range.  Errors follow the
    module's rule, node file first.  Negatively oriented elements are
    reoriented with a warning unless ``reorient`` is False.
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
    rec = _read_records(node_path, skip, fields, usecols, n_nodes, "node")
    idx, base = _node_rows(node_path, rec["id"], n_nodes)
    coords = np.empty((n_nodes, dim))
    coords[idx] = rec["x"]
    markers = np.zeros(n_nodes, dtype=np.int64)
    if n_markers:
        markers[idx] = rec["marker"]

    skip, header = _parse_header(ele_path, 2)
    n_ele, nodes_per = header[:2]
    if n_ele == 0:
        raise ParseError(f"{ele_path}:{skip}: refusing an empty mesh", line=skip)
    if nodes_per != dim + 1:
        raise ParseError(
            f"{ele_path}: expected {dim + 1} nodes per element, got {nodes_per}"
        )
    fields = [("ids", np.int64, (nodes_per,))]
    usecols = tuple(range(1, 1 + nodes_per))
    rec = _read_records(ele_path, skip, fields, usecols, n_ele, "element")
    elements, ok = _offsets(rec["ids"], base, n_nodes)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise _bad_id(ele_path, i, rec["ids"][i, j], "out of range")

    if n_markers:
        boundary = np.flatnonzero(markers != 0)
    else:
        boundary = _boundary_facet_nodes(elements)
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
            elements[flipped, :2] = elements[flipped, 1::-1]
            mesh = Mesh(coords, elements, boundary)
    return mesh


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
    table = np.column_stack((np.arange(mesh.n_elements), mesh.elements))
    with open(ele_path, "wb") as fh:
        fh.write(f"{mesh.n_elements} {d + 1} 0\n".encode())
        fh.write(_int_lines(table))


def _int_lines(table):
    """The bytes of ``"%d" + " %d" * (k - 1) + "\\n"`` over the rows of a
    non-negative (r, k) integer table, formatted in one vectorized pass:
    each field's digit count fixes its offset in one ``uint8`` buffer, and
    the digits are written from the last one back."""
    values = table.ravel()
    ndigits = 1 + np.searchsorted(10 ** np.arange(1, 19), values, side="right")
    # the narrowest unsigned type divides fastest
    values = values.astype(np.min_scalar_type(values.max()))
    end = np.cumsum(ndigits + 1)  # just past each field and its separator
    buf = np.full(end[-1], ord(" "), dtype=np.uint8)
    buf[end[table.shape[1] - 1 :: table.shape[1]] - 1] = ord("\n")
    pos = end - 2
    while len(values):
        buf[pos] = ord("0") + values % 10
        values = values // 10
        more = values > 0
        values, pos = values[more], pos[more] - 1
    return buf.tobytes()


def read_spec(path):
    """Parse a line-oriented ``key = value`` deformation spec into a dict;
    a line without ``=`` or repeating an earlier key is a PARSE_ERROR."""
    spec = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in spec:
            raise ParseError(f"{path}:{lineno}: repeated key {key!r}", line=lineno)
        spec[key] = value.strip()
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


def number(kind):
    """A parser of ``kind`` (float or int) that, unlike ``kind`` itself,
    refuses ``1_0`` and ``٥``: a ValueError, for the caller to code."""
    def parse(token):
        if not token.isascii() or "_" in token:
            raise ValueError(f"{token!r} is not an ASCII {kind.__name__} without '_'")
        return kind(token)
    parse.__name__ = kind.__name__  # argparse names a bad option value's type by it
    return parse


def _floats(tokens):
    try:
        values = list(map(number(float), tokens))
    except ValueError as exc:
        raise ParseError(f"malformed number: {exc}")
    if not np.isfinite(values).all():
        raise ParseError(f"non-finite number in {' '.join(tokens)!r}")
    return values


def read_boundary_frame(mesh, node_path):
    """Boundary coordinates for ``mesh`` from another .node file.

    A frame is a whole .node file of the mesh: its header and its records
    count ``mesh.n_nodes`` nodes and, as in read_mesh, its ids are a
    permutation of ``base .. base + n - 1`` with ``base`` the smallest id
    (a frame of only some nodes would leave its base ambiguous).  Only the
    boundary rows are returned.  Every record is read, and errors follow
    the module's rule; once every record parses, a header count other than
    ``mesh.n_nodes`` or too few records is a BAD_INDEX before any id is.
    """
    skip, header = _parse_header(node_path, 2)
    n_frame, dim = header[:2]
    if dim != mesh.dim:
        raise ParseError(f"{node_path}: frame dimension {dim} != mesh dim {mesh.dim}")
    fields = [("id", np.int64), ("x", np.float64, (dim,))]
    usecols = tuple(range(1 + dim))
    rec = _read_records(node_path, skip, fields, usecols, None, "node")
    n = mesh.n_nodes
    if n_frame != n:
        raise BadIndexError(
            f"{node_path}:{skip}: frame of {n_frame} nodes for a mesh of {n}", line=skip
        )
    if len(rec) < n:
        raise BadIndexError(f"{node_path}: expected {n} node records, got {len(rec)}")
    idx, _ = _node_rows(node_path, rec["id"], n)
    return rec["x"][np.argsort(idx)[mesh.boundary_ids]]
