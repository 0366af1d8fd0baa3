"""Desk-scale 2D problem generation and the instance/state file formats.

Rectangular meshes of bilinear quadrilaterals with a 2x2 Gauss rule
(k = 3, nig = 4).  The per-element strain operators hold the mapped
shape-function gradients evaluated at the Gauss points; boundary
conditions remove the fixed columns so N counts free DOFs only.

Local DOF ordering is node-major, then x/y.  Element nodes are numbered
counterclockwise from the lower-left corner; global nodes are numbered
row-major from the lower-left of the grid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    compliances,
    elements_first,
    elements_last,
)

GAUSS = 1.0 / np.sqrt(3.0)
# reference-square corners, counterclockwise from (-1, -1)
CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
GAUSS_POINTS = GAUSS * CORNERS  # one per corner, same ordering

EDGES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class LoadSpec:
    """One load case: a node selector and the force on each selected node.

    ``nodes`` is either an edge/corner keyword (``left_edge``,
    ``right_edge``, ``bottom_edge``, ``top_edge``, ``bottom_right``,
    ``top_right``, ``mid_right``) or an explicit tuple of global node ids.
    The force vector is split equally over the selected nodes.
    """

    nodes: object
    force: tuple


@dataclass(frozen=True)
class MeshSpec:
    """Rectangular quadrilateral mesh with one fully fixed edge."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0
    fixed_edge: str = "left"
    loads: tuple = (LoadSpec("right_edge", (0.0, -1.0)),)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InvalidInstance("need nx, ny >= 1")
        if self.fixed_edge not in EDGES:
            raise InvalidInstance(f"fixed_edge must be one of {EDGES}")
        for name in ("lx", "ly"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidInstance(f"need a finite positive {name}, got {value}")
        if not self.loads:
            raise InvalidInstance("need at least one load case")


def shape_gradients(xi: float, eta: float) -> np.ndarray:
    """(2, 4) gradients of the bilinear shape functions in reference coords."""
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


def node_grid(spec: MeshSpec):
    """Global node ids on the (nx+1) x (ny+1) grid, id = iy*(nx+1) + ix."""
    return np.arange((spec.nx + 1) * (spec.ny + 1)).reshape(spec.ny + 1, spec.nx + 1)


def element_matrices(spec: MeshSpec):
    """Strain operators of every element over the full (unfixed) DOF set.

    Returns ``(node_ids, B_local)`` where ``node_ids`` is (m, 4) and
    ``B_local`` is (m, 4, 3, 8): for each Gauss point the 3x8 matrix whose
    node blocks stack the mapped gradient, one derivative per normal-strain
    row and the half-shear row.  Every element of the uniform grid has the
    same operator, so ``B_local`` is a read-only broadcast of one template.
    Elements are numbered row-major from the lower left, like the nodes.
    """
    hx, hy = spec.lx / spec.nx, spec.ly / spec.ny
    jac_inv = np.array([2.0 / hx, 2.0 / hy])  # rectangle: diagonal Jacobian
    point_B = []
    for xi, eta in GAUSS_POINTS:
        grad = shape_gradients(xi, eta) * jac_inv[:, None]  # (2, 4) physical
        B = np.zeros((3, 8))
        for a in range(4):
            B[0, 2 * a] = grad[0, a]
            B[1, 2 * a + 1] = grad[1, a]
            B[2, 2 * a] = 0.5 * grad[1, a]
            B[2, 2 * a + 1] = 0.5 * grad[0, a]
        point_B.append(B)
    point_B = np.stack(point_B)
    if not np.all(np.isfinite(point_B)):
        raise NumericalFailure("degenerate element: singular Jacobian")
    # lower-left node of each element, then the corners counterclockwise
    lower_left = node_grid(spec)[:-1, :-1].reshape(-1, 1)
    node_ids = lower_left + np.array([0, 1, spec.nx + 2, spec.nx + 1])
    return node_ids, np.broadcast_to(point_B, (node_ids.shape[0],) + point_B.shape)


def fixed_nodes(spec: MeshSpec) -> np.ndarray:
    grid = node_grid(spec)
    if spec.fixed_edge == "left":
        return grid[:, 0]
    if spec.fixed_edge == "right":
        return grid[:, -1]
    if spec.fixed_edge == "bottom":
        return grid[0, :]
    return grid[-1, :]


def select_nodes(spec: MeshSpec, selector) -> np.ndarray:
    grid = node_grid(spec)
    if isinstance(selector, str):
        table = {
            "left_edge": grid[:, 0],
            "right_edge": grid[:, -1],
            "bottom_edge": grid[0, :],
            "top_edge": grid[-1, :],
            "bottom_right": grid[0, -1:],
            "top_right": grid[-1, -1:],
            "mid_right": grid[grid.shape[0] // 2, -1:],
        }
        if selector not in table:
            raise InvalidInstance(f"unknown node selector {selector!r}")
        return np.atleast_1d(table[selector])
    return np.asarray(selector, dtype=np.int64)


def build_instance(spec: MeshSpec, rho_l, rho_u, r, gamma, eta, nu=0.0) -> ProblemInstance:
    """Assemble a ProblemInstance from a mesh specification.

    Columns of the fixed edge are deleted, so N = 2 * (free nodes); loads
    selecting fixed nodes are rejected.
    """
    node_ids, B_local = element_matrices(spec)
    n_nodes = (spec.nx + 1) * (spec.ny + 1)
    fixed = np.zeros(n_nodes, dtype=bool)
    fixed[fixed_nodes(spec)] = True
    free_nodes = np.flatnonzero(~fixed)
    # free-DOF index of each node's (x, y) pair; -1 marks a removed column
    dof_of_node = -np.ones((n_nodes, 2), dtype=np.int64)
    dof_of_node[free_nodes, 0] = 2 * np.arange(free_nodes.size)
    dof_of_node[free_nodes, 1] = 2 * np.arange(free_nodes.size) + 1
    N = 2 * free_nodes.size

    # free DOF of each local column (node-major, x before y), element axis
    # last.  Each element's columns are sorted by DOF with the fixed columns
    # (key N) last, then cut to the widest kept support; fixed columns left
    # inside it become zero padding on DOF 0.  Gathering along the
    # transposed template writes B straight into element-last storage.
    dofs = dof_of_node[node_ids].reshape(node_ids.shape[0], -1).T
    dofs[dofs < 0] = N
    order = np.argsort(dofs, axis=0, kind="stable")
    dofs = np.take_along_axis(dofs, order, axis=0)
    width = int((dofs < N).sum(axis=0).max())
    cols = dofs[:width]
    padding = cols == N
    cols[padding] = 0
    B = np.take_along_axis(elements_last(B_local), order[None, None, :width], axis=2)
    np.copyto(B, 0.0, where=padding)

    loads = np.zeros((len(spec.loads), N))
    for j, load in enumerate(spec.loads):
        nodes = select_nodes(spec, load.nodes)
        if np.any(fixed[nodes]):
            raise InvalidInstance(f"load case {j} touches fixed nodes")
        share = np.asarray(load.force, dtype=float) / nodes.size
        for node in nodes:
            loads[j, dof_of_node[node, 0]] += share[0]
            loads[j, dof_of_node[node, 1]] += share[1]

    return ProblemInstance(cols.T, elements_first(B), loads, rho_l, rho_u, r, gamma, eta, nu)


def reference_compliance(instance: ProblemInstance, E: MaterialState):
    """``model.compliances`` of a ``MaterialState``; kept for perfbench until ROADMAP item 6."""
    return compliances(instance, E.dense())


# -- file formats ---------------------------------------------------------

INSTANCE_MAGIC = "fmo-inst/1"
STATE_MAGIC = "fmo-state/1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_row(values: list) -> str:
    return " ".join(map(repr, values))


def write_instance(instance: ProblemInstance, path) -> None:
    """Write the versioned structured-text instance format (bit-exact).

    Schema (one record per line, whitespace separated)::

        fmo-inst/1
        dims m=<int> k=<int> N=<int> L=<int> nig=<int>
        param r <float>          # eigenvalue floor
        param gamma <float>      # compliance cap
        param eta <float>        # dual-ball radius
        param nu <float>         # penalty weight
        rho_l <m floats>         # per-element trace lower bounds
        rho_u <m floats>
        B <i> <l> <nnz>          # element i, integration point l
        <row> <col> <value>      # nnz triplets; col is a free-DOF index
        ...
        load <j>
        <N floats>

    Floats are written with ``repr`` so a read/write round trip is
    byte-identical.  Columns index free DOFs after boundary fixing,
    ordered node-major with the x component before y; rows follow the
    strain convention (xx, yy, half-shear).
    """
    lines = [INSTANCE_MAGIC]
    lines.append(
        f"dims m={instance.m} k={instance.k} N={instance.N} "
        f"L={instance.L} nig={instance.nig}"
    )
    for name in ("r", "gamma", "eta", "nu"):
        lines.append(f"param {name} {_fmt(getattr(instance, name))}")
    lines.append("rho_l " + _fmt_row(instance.rho_l.tolist()))
    lines.append("rho_u " + _fmt_row(instance.rho_u.tolist()))
    # nonzeros in (element, point, row, local column) order, padding skipped
    elem, point, rows, local = np.nonzero(instance.B_packed)
    entries = zip(
        rows.tolist(),
        instance.cols_packed[elem, local].tolist(),
        instance.B_packed[elem, point, rows, local].tolist(),
    )
    nnz = np.bincount(elem * instance.nig + point, minlength=instance.m * instance.nig)
    for block, count in enumerate(nnz.tolist()):
        i, ig = divmod(block, instance.nig)
        lines.append(f"B {i} {ig} {count}")
        for row, col, val in itertools.islice(entries, count):
            lines.append(f"{row} {col} {val!r}")
    for j, load in enumerate(instance.loads.tolist()):
        lines.append(f"load {j}")
        lines.append(_fmt_row(load))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path) -> ProblemInstance:
    """Read an fmo-inst/1 file written by ``write_instance``.

    Every (element, integration point) header must appear exactly once
    with indices in range, every entry must name a row in [0, k) and a
    column in [0, N) at most once per header, and every load index in
    [0, L) must appear exactly once with N values; anything else raises
    InvalidInstance naming the first offending line in file order.  B
    entries are read as ``np.loadtxt`` reads them: three fields, ASCII
    digits, no ``_`` and no comment.  Every other number of the file (the
    dims, param, rho_l, rho_u, B header and load lines) follows the same
    token rule, and every real value must be finite.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline ending the last line
    if not lines or lines[0] != INSTANCE_MAGIC:
        raise InvalidInstance(f"not a {INSTANCE_MAGIC} file: {path}")
    pos = 1

    def fail(at: int, what: str) -> InvalidInstance:
        return InvalidInstance(f"{path}, line {at + 1}: {what}")

    def take(keyword=None, count=None):
        """Split the next line, checking its leading keyword and token count."""
        nonlocal pos
        if pos >= len(lines):
            raise fail(pos, "unexpected end of file")
        toks = lines[pos].split()
        pos += 1
        if keyword is not None and (not toks or toks[0] != keyword):
            raise fail(pos - 1, f"expected '{keyword} ...', got {lines[pos - 1]!r}")
        if count is not None and len(toks) != count:
            raise fail(pos - 1, f"expected {count} fields, got {lines[pos - 1]!r}")
        return toks

    def reals(toks) -> np.ndarray:
        """The fields ``toks`` of the line just taken, read as the B entry values
        are (``np.loadtxt``: ASCII digits, no ``_``); a non-finite value is refused."""
        values = np.loadtxt([" ".join(toks)], comments=None, ndmin=1)
        if not np.isfinite(values).all():
            raise fail(pos - 1, f"values must be finite, got {lines[pos - 1]!r}")
        return values

    try:
        dims = dict(tok.split("=") for tok in take("dims", 6)[1:])
        m, k, N, L, nig = (_integer(dims[key]) for key in ("m", "k", "N", "L", "nig"))
        if min(m, k, N, L, nig) < 1:
            raise ValueError
    except (KeyError, ValueError) as exc:
        what = "expected 'dims m=<int> k=<int> N=<int> L=<int> nig=<int>', all >= 1"
        raise fail(1, what) from exc

    try:
        params = {}
        for _ in range(4):
            _, name, val = take("param", 3)
            if name not in ("r", "gamma", "eta", "nu") or name in params:
                raise fail(pos - 1, f"unexpected or repeated parameter {name!r}")
            params[name] = float(reals([val])[0])
        rho_l = reals(take("rho_l", m + 1)[1:])
        rho_u = reals(take("rho_u", m + 1)[1:])

        # the B section: one walk over the headers, then every entry line in
        # one read; a bad header waits until the entries before it are checked
        start, counts, body, error = pos, {}, [], None  # counts: i * nig + ig -> entries
        try:
            for _ in range(m * nig):
                head = take("B", 4)
                try:
                    i, ig, nnz = (_integer(v) for v in head[1:])
                except ValueError as exc:
                    raise fail(pos - 1, f"cannot parse {lines[pos - 1]!r}") from exc
                if not (0 <= i < m and 0 <= ig < nig and nnz >= 0):
                    raise fail(pos - 1, f"B header needs 0 <= i < {m}, 0 <= ig < {nig}, nnz >= 0")
                if i * nig + ig in counts:
                    raise fail(pos - 1, f"duplicate B header for element {i}, point {ig}")
                counts[i * nig + ig] = got = min(nnz, len(lines) - pos)
                body += lines[pos:pos + got]
                pos += got
                if got < nnz:
                    raise fail(pos, "unexpected end of file")
        except InvalidInstance as exc:
            error = exc

        entries = _read_entries(body)
        block = np.repeat(list(counts), list(counts.values()))[:entries.size]
        row, col, values = entries["row"], entries["col"], entries["value"]
        in_range = (0 <= row) & (row < k) & (0 <= col) & (col < N)
        finite = np.isfinite(values)
        key = (block * k + row) * N + col  # distinct for distinct in-range entries
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(key.size, dtype=bool)  # true from the second sighting on
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(~(in_range & finite) | repeated)
        e = int(bad[0]) if bad.size else entries.size  # the first bad entry line, if any
        if e < len(body):
            # its line follows the section start, e entries and the headers up to its own
            ends = np.cumsum(list(counts.values()))
            at = start + 1 + e + int(np.searchsorted(ends, e, side="right"))
            if e == entries.size:
                what = f"expected '<row> <col> <value>', got {lines[at]!r}"
            elif in_range[e] and not finite[e]:
                what = f"entry value must be finite, got {lines[at]!r}"
            elif in_range[e]:
                i, ig = divmod(int(block[e]), nig)
                what = f"repeated entry ({row[e]}, {col[e]}) in element {i}, point {ig}"
            else:
                what = f"entry needs 0 <= row < {k} and 0 <= col < {N}"
            error = fail(at, what)
        if error is not None:
            raise error

        loads = np.zeros((L, N))
        seen = np.zeros(L, dtype=bool)
        for _ in range(L):
            j = _integer(take("load", 2)[1])
            if not 0 <= j < L or seen[j]:
                raise fail(pos - 1, f"load index {j} outside [0, {L}) or repeated")
            seen[j] = True
            loads[j] = reals(take(count=N))
    except ValueError as exc:
        raise fail(pos - 1, f"cannot parse {lines[pos - 1]!r}") from exc
    if pos < len(lines):
        raise fail(pos, "unexpected content after the last load")

    elem, point = np.divmod(block, nig)
    # the support of each element is the sorted set of its columns: the
    # distinct element * N + col keys, of which element i's start at first[i]
    # (sorted by hand: the first np.unique call imports numpy.ma, 1.3 MB)
    keys = np.sort(elem * N + col)
    support = keys[np.diff(keys, prepend=-1) != 0]
    first = np.searchsorted(support, np.arange(m) * N)
    width = np.diff(first, append=support.size)
    cols = np.zeros((int(width.max()), m), dtype=np.int64)  # element-last storage
    cols[np.arange(support.size) - np.repeat(first, width), support // N] = support % N
    B = np.zeros((nig, k, cols.shape[0], m))
    B[point, row, np.searchsorted(support, elem * N + col) - first[elem], elem] = values

    return ProblemInstance(
        cols.T,
        elements_first(B),
        loads,
        rho_l,
        rho_u,
        params["r"],
        params["gamma"],
        params["eta"],
        params["nu"],
    )


def _integer(text: str) -> int:
    """``text`` as ``np.loadtxt`` reads an integer field: ``int`` without the
    non-ASCII digits and ``_`` separators it would accept."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for an integer field: {text!r}")
    return int(text)


def _real(text: str) -> float:
    """``text`` as ``np.loadtxt`` reads a float field: ``float`` without the
    non-ASCII digits and ``_`` separators it would accept."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for a float field: {text!r}")
    return float(text)


_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _read_entries(body: list) -> np.ndarray:
    """The B entries of ``body`` up to its first line that is not one entry:
    a line that ``np.loadtxt`` reads as exactly the three fields of ``_ENTRY``.

    One loadtxt call reads all lines; only when it fails, or reads fewer
    rows than lines (it skips blank lines), are they read one at a time.
    """
    read = functools.partial(np.loadtxt, dtype=_ENTRY, comments=None, ndmin=1)
    if body and body[0].strip():  # loadtxt warns on all-blank lines; the loop names them
        try:
            entries = read(body)
            if entries.size == len(body):
                return entries
        except ValueError:
            pass
    good = [np.zeros(0, dtype=_ENTRY)]
    for text in body:
        if not text.strip():
            break
        try:
            good.append(read([text]))
        except ValueError:
            break
    return np.concatenate(good)


def write_state(state: MaterialState, path) -> None:
    """Write a material state in the companion structured-text format.

    Schema::

        fmo-state/1
        dims m=<int> k=<int>
        block <i>
        <k rows of k floats>     # dense symmetric block, repr round-trip
    """
    lines = [STATE_MAGIC, f"dims m={state.m} k={state.k}"]
    for i, block in enumerate(state.dense().tolist()):
        lines.append(f"block {i}")
        lines.extend(_fmt_row(row) for row in block)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_state(path) -> MaterialState:
    """Read an fmo-state/1 file written by ``write_state``.

    Every block index in [0, m) must appear exactly once, with k finite
    values per row and an exactly symmetric block; anything else raises
    InvalidInstance naming the offending line.  Numbers follow the token
    rule of ``read_instance`` (``np.loadtxt``'s: ASCII digits, no ``_``).
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != STATE_MAGIC:
        raise InvalidInstance(f"not a {STATE_MAGIC} file: {path}")

    def fail(pos: int, what: str) -> InvalidInstance:
        return InvalidInstance(f"{path}, line {pos + 1}: {what}")

    try:
        head = lines[1].split()
        if head[0] != "dims":
            raise ValueError
        dims = dict(tok.split("=") for tok in head[1:])
        m, k = _integer(dims["m"]), _integer(dims["k"])
        if m < 1 or k < 1:
            raise ValueError
    except (IndexError, KeyError, ValueError) as exc:
        raise fail(1, "expected 'dims m=<int> k=<int>' with m, k >= 1") from exc
    if len(lines) < 2 + m * (k + 1):
        raise fail(len(lines), f"unexpected end of file, expected {m} blocks of {k} rows")

    blocks = np.zeros((m, k, k))
    seen = np.zeros(m, dtype=bool)
    pos = 2
    for _ in range(m):
        head = lines[pos].split()
        try:
            if len(head) != 2 or head[0] != "block":
                raise ValueError
            i = _integer(head[1])
        except ValueError as exc:
            raise fail(pos, f"expected 'block <i>', got {lines[pos]!r}") from exc
        if not 0 <= i < m:
            raise fail(pos, f"block index {i} outside [0, {m})")
        if seen[i]:
            raise fail(pos, f"duplicate block {i}")
        seen[i] = True
        for row, n in enumerate(range(pos + 1, pos + 1 + k)):
            vals = lines[n].split()
            try:
                blocks[i, row] = [_real(v) for v in vals]
            except ValueError as exc:
                raise fail(n, f"expected {k} floats, got {lines[n]!r}") from exc
            if not np.all(np.isfinite(blocks[i, row])):
                raise fail(n, f"block {i} has a non-finite entry")
        if not np.array_equal(blocks[i], blocks[i].T):
            raise fail(pos, f"block {i} is not symmetric")
        pos += k + 1
    if pos < len(lines):
        raise fail(pos, "unexpected content after the last block")
    return MaterialState.from_dense(blocks)
