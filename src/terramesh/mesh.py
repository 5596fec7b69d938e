"""Robot-centric triangular terrain mesh: storage, initialization, lookup, recentering.

The mesh is a regular grid of right isosceles triangles over a square window
centered on the robot.  Each grid square is split along the diagonal from its
lower-left corner ``(i, j)`` to its upper-right corner ``(i+1, j+1)``; the
south-east triangle of a cell precedes the north-west one in face-index
order.  All state lives in flat numpy arrays (struct-of-arrays) so per-frame
updates stay vectorizable.  Nothing derived from the lattice is stored: a
face's corner vertex ids follow from its id (:meth:`Mesh.face_corners`),
and their coordinates from the one placement ``origin + index*side``
(:meth:`Mesh.corner_xy`), so a shift leaves no cache to clear.
``face_vertex_ids`` and ``vertex_positions`` build whole arrays on request.

Vertex and face state is stored as a ring buffer over the window, as grid_map
stores a moving map (Fankhauser & Hutter, "A Universal Grid Map Library",
2016).  ``Mesh.ring`` holds the arrays in storage order: canonical vertex
``(iy, ix)`` lives at ``((iy + r) % n_v, (ix + c) % n_v)`` and canonical cell
``(cy, cx)`` at ``((cy + r) % n_c, (cx + c) % n_c)``, where ``(r, c)`` is the
window's accumulated ``(row, col)`` start offset.  :func:`recenter` clears
the rows and columns that enter the window and moves the offset, so a shift
costs the cells that enter, not the map.  It writes only the entries that
hold nonzero bits, so storage that no frame has written is never written,
and resident memory follows the part of the map the robot has seen.  For
the same reason each ring array is its own private anonymous mapping,
advised against transparent huge pages where the platform has that advice
(:func:`_ring_zeros`): numpy asks for huge pages on arrays of 4 MiB or more,
and on a host whose huge pages are in ``madvise`` mode the evidence array
would then become resident in 2 MiB steps instead of the 4 KiB pages that
frames write.  Face
and vertex ids everywhere else (``assign_face_ids``, ``face_vertex_ids``,
exports) are canonical window ids; the per-frame writers translate them to
storage slots with :meth:`Mesh.vertex_slots` / :meth:`Mesh.face_slots`.
Exports read ring storage without a full-size copy:
:meth:`Mesh.canonical_chunks` yields any ring array in canonical order, a
bounded block of rows at a time, and the estimator gathers rows through
``face_slots`` a block of faces at a time.  The public
``z_mean``/``z_var``/``touched``/``alpha``/``observed`` are canonical views:
the first access after a shift rolls the storage back to offset zero once
(``np.roll`` is exact), and assigning one of them does the same first.
They serve tests, the oracles and the benchmark's checks; no library path
assigns them, and a loaded map is read into the ring storage of a new mesh.

The mesh holds map state and scratch only.  A frame's in-window points are
a value, :class:`FramePoints`, that the frame update builds once and passes
to height fusion and the class reduction.  :meth:`FramePoints.from_assignment`
groups the points by face, and the observed faces' corners by vertex,
without sorting the points and without scanning the map: the mesh's one
int32 scratch array, with a slot per window face or vertex, whichever are
more, maps ids to ranks, and only the distinct ids are sorted.  The face
grouping is copied out before the vertex grouping writes, and every slot a
grouping reads is written earlier in it, so the scratch is never cleared.

Concurrency: a mesh is a single-writer structure.  Exactly one frame update
may mutate it at a time; reads (export, evaluation) happen between updates.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError


@dataclass(frozen=True)
class MeshConfig:
    """Grid geometry: triangle leg length, window half-extent, class count."""

    side_length_m: float
    half_extent_m: float
    num_classes: int

    def __post_init__(self):
        if not (self.side_length_m > 0):
            raise ConfigurationError("side_length_m must be positive")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be at least 1")
        ratio = self.half_extent_m / self.side_length_m
        if self.half_extent_m <= 0 or not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                "half_extent_m must be a positive integer multiple of side_length_m"
            )
        # lattice coordinates span the width, and barycentric areas take side squared
        side, half = float(self.side_length_m), float(self.half_extent_m)
        if not (math.isfinite(2.0 * half) and math.isfinite(side * side)):
            raise ConfigurationError("the window width 2*half_extent_m and side_length_m**2 must be finite")

    @property
    def cells_per_side(self) -> int:
        return int(round(2.0 * self.half_extent_m / self.side_length_m))

    @property
    def vertices_per_side(self) -> int:
        return self.cells_per_side + 1

    @property
    def num_vertices(self) -> int:
        return self.vertices_per_side ** 2

    @property
    def num_faces(self) -> int:
        return 2 * self.cells_per_side ** 2


@dataclass
class FramePoints:
    """One frame's in-window points in projection order, grouped by face.

    ``z`` holds each point's map height, and ``pos_sensor`` (n, 3) their
    sensor coordinates as the transpose of a coordinate-major (3, n) array,
    so each coordinate column is contiguous.  ``scores`` is class-major: row
    ``j`` holds every point's score for class ``j``.  ``faces`` (m,) are the
    observed window face ids, ascending, and ``inverse`` (n,) gives each
    point's row in ``faces``, so a point's face is ``faces[inverse]``.
    ``vertices`` (h,) are the distinct corners of the observed faces,
    ascending, and ``corners`` (m, 3) names each observed face's corners by
    their rows in ``vertices``, so a point's corners are ``corners[inverse]``.
    """

    z: np.ndarray
    pos_sensor: np.ndarray
    scores: np.ndarray
    faces: np.ndarray
    inverse: np.ndarray
    vertices: np.ndarray
    corners: np.ndarray

    @classmethod
    def from_assignment(cls, mesh, pos_map, pos_sensor, scores, face_ids, rows):
        """Keep the points with a face of ``mesh``, read their scores once
        and group them.

        ``scores`` is a (N, K) table and ``rows`` each point's row in it;
        the points in the window read theirs with one gather into a
        class-major (K, n) float array, and their sensor coordinates with
        one gather along the points axis of ``pos_sensor.T``.  The grouping
        goes through the mesh's scratch array, sorting only the observed
        face ids and the corners of those faces.
        """
        keep = np.flatnonzero(face_ids >= 0)
        # np.take gathers rows of a 2-D array far faster than fancy indexing
        scores = np.take(np.asarray(scores), rows[keep], axis=0)
        z = np.take(pos_map[:, 2], keep)
        pos_sensor = np.take(pos_sensor.T, keep, axis=1).T
        scores = scores.T.astype(float, order="C")
        face_ids = face_ids[keep]
        # the (n, K) gather and the index of the kept points are freed
        # before grouping, so that neither coexists with the groups
        del keep
        faces, inverse = _group(face_ids, mesh._scratch)
        corner_ids = mesh.face_corners(faces)
        vertices, corners = _group(corner_ids.reshape(-1), mesh._scratch)
        return cls(z, pos_sensor, scores, faces, inverse, vertices, corners.reshape(corner_ids.shape))


@dataclass
class RingState:
    """Vertex and face state in ring storage order (see the module docstring)."""

    z_mean: np.ndarray
    z_var: np.ndarray
    touched: np.ndarray
    alpha: np.ndarray
    observed: np.ndarray


def _canonical_view(name: str, doc: str) -> property:
    def get(mesh):
        mesh._canonicalize()
        return getattr(mesh.ring, name)

    def put(mesh, value):
        mesh._canonicalize()
        setattr(mesh.ring, name, np.ascontiguousarray(value))

    return property(get, put, doc=doc)


# bytes per chunk of Mesh.face_vertex_chunks, and of canonical grid rows per
# chunk of Mesh.canonical_chunks on a map whose column offset is not zero
CHUNK_BYTES = 1 << 18


class Mesh:
    """Triangular elevation/semantics map over a regular grid.

    Use :func:`init_mesh` to construct one.  State lives once, in ``ring``
    (storage order).  The canonical views below roll it back to offset zero
    on first access after a shift; exports and the estimator read it in
    place, through :meth:`canonical_chunks` and :meth:`face_slots`.
    """

    z_mean = _canonical_view("z_mean", "(V,) fused vertex heights, canonical order.")
    z_var = _canonical_view("z_var", "(V,) vertex height variances, canonical order.")
    touched = _canonical_view("touched", "(V,) vertices observed at least once.")
    alpha = _canonical_view("alpha", "(F, K) accumulated class evidence, canonical order.")
    observed = _canonical_view("observed", "(F,) faces any processed frame observed.")

    def __init__(self, cfg: MeshConfig, center_xy=(0.0, 0.0)):
        self.cfg = cfg
        self.center = np.asarray(center_xy, dtype=float).reshape(2)
        n_v = cfg.num_vertices
        n_f = cfg.num_faces
        self.ring = RingState(
            z_mean=_ring_zeros((n_v,)),
            z_var=_ring_zeros((n_v,)),
            # zero-variance initialization would freeze the filter, so
            # vertices are flagged untouched and adopt their first
            # observation wholesale
            touched=_ring_zeros((n_v,), bool),
            alpha=_ring_zeros((n_f, cfg.num_classes)),
            observed=_ring_zeros((n_f,), bool),
        )
        # accumulated (row, col) window shift since storage was last canonical
        self._start = (0, 0)
        # FramePoints.from_assignment's scratch, never cleared (see the module docstring)
        self._scratch = np.empty(max(n_f, n_v), dtype=np.int32)

    # -- geometry -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.cfg.num_vertices

    @property
    def num_faces(self) -> int:
        return self.cfg.num_faces

    @property
    def origin_xy(self) -> np.ndarray:
        return self.center - self.cfg.half_extent_m

    def _axes(self):
        """Vertex ``(iy, ix)`` lies at ``(xs[ix], ys[iy])``: the lattice axes
        ``origin + index*side``, the one place a mesh coordinate is computed."""
        steps = np.arange(self.cfg.vertices_per_side) * self.cfg.side_length_m
        ox, oy = self.origin_xy
        return ox + steps, oy + steps

    def vertex_positions(self):
        """(x, y) arrays for all vertices, row-major with y as the outer index."""
        xs, ys = self._axes()
        return np.tile(xs, xs.size), np.repeat(ys, ys.size)

    def face_corners(self, fids) -> np.ndarray:
        """(m, 3) int32 corner vertex ids of canonical faces ``fids``, counterclockwise."""
        return _lattice_corners(np.asarray(fids), self.cfg.cells_per_side)

    def corner_xy(self, fids):
        """Corner coordinates ``(x, y)`` of canonical faces ``fids``, each of
        shape ``fids.shape + (3,)``, in :meth:`face_corners` order."""
        fids = np.asarray(fids)
        xs, ys = self._axes()
        corners = self.face_corners(fids.reshape(-1)).reshape(*fids.shape, 3)
        corner_x = xs[corners % xs.size]
        corners //= xs.size  # in place: one (..., 3) index array at a time
        return corner_x, ys[corners]

    @property
    def face_vertex_ids(self) -> np.ndarray:
        """(F, 3) int32 corner vertex ids of every face, built on each access."""
        return self.face_corners(np.arange(self.num_faces, dtype=np.int32))

    def face_vertex_chunks(self):
        """Yield :attr:`face_vertex_ids` in blocks of about :data:`CHUNK_BYTES`
        that concatenate to it."""
        step = CHUNK_BYTES // (3 * 4)  # three int32 corners per face
        for lo in range(0, self.num_faces, step):
            yield self.face_corners(np.arange(lo, min(lo + step, self.num_faces), dtype=np.int32))

    def face_centroids(self) -> np.ndarray:
        """(F, 2) mean corner coordinates of every face."""
        corner_x, corner_y = self.corner_xy(np.arange(self.num_faces, dtype=np.int32))
        out = np.empty((self.num_faces, 2))  # means written in place: no (F,) temporaries
        corner_x.mean(axis=1, out=out[:, 0])
        corner_y.mean(axis=1, out=out[:, 1])
        return out

    # -- ring storage -------------------------------------------------------

    def vertex_slots(self, vids: np.ndarray) -> np.ndarray:
        """Ring-storage indices of canonical vertex ids."""
        r, c = self._start
        if r == 0 and c == 0:
            return vids  # storage is canonical: frames without recentering skip the arithmetic
        n = self.cfg.vertices_per_side
        iy, ix = np.divmod(vids, n)
        return (iy + r % n) % n * n + (ix + c % n) % n

    def face_slots(self, fids: np.ndarray) -> np.ndarray:
        """Ring-storage indices of canonical face ids."""
        r, c = self._start
        if r == 0 and c == 0:
            return fids
        n = self.cfg.cells_per_side
        cell, tri = np.divmod(fids, 2)
        cy, cx = np.divmod(cell, n)
        return 2 * ((cy + r % n) % n * n + (cx + c % n) % n) + tri

    def _ring_grids(self):
        """``(name, grid side)`` of every ring-stored array."""
        n_v, n_c = self.cfg.vertices_per_side, self.cfg.cells_per_side
        return (("z_mean", n_v), ("z_var", n_v), ("touched", n_v), ("alpha", n_c), ("observed", n_c))

    def canonical_chunks(self, name: str):
        """Yield ring array ``name`` in canonical order, in chunks that keep
        its trailing shape, so that they concatenate to the canonical array.

        With a zero column offset the rows run on in storage, and the chunks
        are the (at most two) storage slices.  Otherwise each chunk holds
        whole canonical grid rows, copied into one buffer of about
        :data:`CHUNK_BYTES` that the next chunk reuses: use each chunk
        before asking for the next.
        """
        arr = getattr(self.ring, name)
        n = dict(self._ring_grids())[name]
        r, c = self._start[0] % n, self._start[1] % n
        grid = arr.reshape(n, n, -1)
        trailing = (-1, *arr.shape[1:])
        if c == 0:
            yield from (part.reshape(trailing) for part in (grid[r:], grid[:r]) if part.size)
            return
        rows = max(1, CHUNK_BYTES // grid[0].nbytes)
        buffer = np.empty((rows, *grid.shape[1:]), dtype=arr.dtype)
        # storage rows r..n-1, then 0..r-1; each row's columns from c on, then those before
        for lo, hi in ((r, n), (0, r)):
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                block = buffer[: stop - start]
                block[:, : n - c] = grid[start:stop, c:]
                block[:, n - c :] = grid[start:stop, :c]
                yield block.reshape(trailing)

    def _canonicalize(self):
        """Roll ring storage back to offset zero (exact; a no-op when there)."""
        r, c = self._start
        if r == 0 and c == 0:
            return
        for name, n in self._ring_grids():
            arr = getattr(self.ring, name)
            grid = arr.reshape(n, n, -1)
            # one array at a time, so at most one extra copy is alive
            setattr(self.ring, name, np.roll(grid, (-(r % n), -(c % n)), axis=(0, 1)).reshape(arr.shape))
        self._start = (0, 0)


def _ring_zeros(shape: tuple, dtype=float) -> np.ndarray:
    """A zero array on its own private anonymous mapping, advised against
    transparent huge pages where the platform has that advice.

    Pages become resident when first written, 4 KiB at a time (see the
    module docstring).  A mapping the system refuses raises
    :class:`MemoryError`, as an impossible ``np.zeros`` does.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    try:
        buffer = mmap.mmap(-1, count * dtype.itemsize, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except (OSError, OverflowError):
        raise MemoryError(f"Unable to allocate {count * dtype.itemsize} bytes of ring storage {shape}") from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _group(ids: np.ndarray, scratch: np.ndarray):
    """``np.unique(ids, return_inverse=True)`` for ids that index ``scratch``.

    Each id's slot receives the position of a point carrying it; the one
    point per id that reads its own position back names the id once.  Only
    those distinct ids are sorted, and their ranks, written into the same
    slots, are read back as the inverse.
    """
    order = np.arange(ids.size, dtype=np.int32)
    scratch[ids] = order
    distinct = np.sort(ids[scratch[ids] == order])
    scratch[distinct] = order[: distinct.size]
    return distinct, scratch[ids].astype(np.intp)


def _lattice_corners(fids: np.ndarray, n: int) -> np.ndarray:
    """Corner vertex ids, (m, 3) int32, of faces ``fids`` on a lattice of
    ``n`` cells per side.

    Face ``f`` is triangle ``tri = f & 1`` of cell ``cell = f >> 1``, whose
    lower-left vertex is ``v00 = cell + cell // n`` (one more vertex than
    cells per row).  The south-east triangle (``tri = 0``) has corners
    ``(v00, v00 + 1, v00 + n + 2)`` and the north-west one
    ``(v00, v00 + n + 2, v00 + n + 1)``, both counterclockwise: the middle
    corner is ``v00 + 1 + tri*(n + 1)`` and the last ``v00 + n + 2 - tri``.
    """
    f = fids.astype(np.int32, copy=False)
    tri = f & 1
    cell = f >> 1
    # contiguous temporaries, each copied into its column once, run about
    # twice as fast as arithmetic in the strided columns
    v00 = cell // n
    v00 += cell
    out = np.empty((f.size, 3), dtype=np.int32)
    out[:, 0] = v00
    mid = tri * (n + 1)
    mid += v00
    mid += 1
    out[:, 1] = mid
    v00 -= tri
    v00 += n + 2
    out[:, 2] = v00
    return out


def init_mesh(cfg: MeshConfig) -> Mesh:
    """Fresh mesh: flat zero-height vertices, all-zero alpha."""
    return Mesh(cfg)


def _lam_direct(corner_x, corner_y, px, py):
    """Closed-form barycentric coordinates from triangle corner coordinates.

    ``corner_x``/``corner_y`` are (..., 3); ``px``/``py`` broadcast against
    the leading shape.  The candidate scan and the exhaustive scan both take
    their corners from :meth:`Mesh.corner_xy` and both pass them through
    this fixed expression (no linear solve), so they produce bit-identical
    coordinates per face.
    """
    x1, x2, x3 = corner_x[..., 0], corner_x[..., 1], corner_x[..., 2]
    y1, y2, y3 = corner_y[..., 0], corner_y[..., 1], corner_y[..., 2]
    denom = (y2 - y3) * (x1 - x3) + (x3 - x2) * (y1 - y3)
    l1 = ((y2 - y3) * (px - x3) + (x3 - x2) * (py - y3)) / denom
    l2 = ((y3 - y1) * (px - x3) + (x1 - x3) * (py - y3)) / denom
    return np.stack([l1, l2, 1.0 - l1 - l2], axis=-1)


# Distance, in cell units, from a cell edge or diagonal within which a point
# goes to the exact candidate scan.  Far from the map origin the band widens
# to c*eps*(max(|ox|, |oy|) + half_extent)/side cells, with c = 4.  A lattice
# corner ``ox + i*side`` is rounded twice (product and sum), so it lies up to
# eps*|x| from its true place.  In the window |x| <= max(|ox|, |oy|) +
# 2*half_extent, at most twice the length in the bound: one factor 2 of c.
# The other covers the rounding of the point's cell coordinates and of the
# barycentric test (lattice probes 1e5-5e6 m out already agree at c = 0.5).
# Within about 1e6 cells of the origin (20 km at 2 cm) the band is EDGE_TOL.
EDGE_TOL = 1e-9
_FAR_TOL = 4.0 * float(np.finfo(float).eps)


def _candidate_scan(mesh: Mesh, xy: np.ndarray, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """First-match closed containment over the 3x3 neighborhood of each
    point's cell ``(cu, cv)``, which must lie in the window; -1 where no
    face contains the point.

    Every face whose closed triangle can contain a point near its cell lies
    in that neighborhood.  Neighbor cells are clamped into the window, so
    the 18 candidate columns are ascending face ids (repeats at the border
    are harmless) and the first hit is the lowest.  Corners and barycentric
    coordinates come from :meth:`Mesh.corner_xy` and :func:`_lam_direct`,
    as in the exhaustive scan, so they are bit-identical to its own.
    """
    n = mesh.cfg.cells_per_side
    step = np.arange(-1, 2)
    # (m, dy, dx, triangle) candidate grid, in face-index order
    gx = np.clip(cu[:, None] + step, 0, n - 1)[:, None, :, None]
    gy = np.clip(cv[:, None] + step, 0, n - 1)[:, :, None, None]
    fids = (2 * (gy * n + gx) + np.arange(2)).reshape(-1, 18)
    corner_x, corner_y = mesh.corner_xy(fids)
    lam = _lam_direct(corner_x, corner_y, xy[:, 0, None], xy[:, 1, None])
    ok = np.all((lam >= 0.0) & (lam <= 1.0), axis=2)
    first = np.argmax(ok, axis=1)
    hit = fids[np.arange(fids.shape[0]), first]
    return np.where(ok.any(axis=1), hit, -1)


def face_lookup(mesh: Mesh, xy, exhaustive: bool = False):
    """Face id whose closed triangle contains ``xy``, or ``None``.

    Ties on shared edges/vertices go to the lowest face index (first match in
    face-index order).  The default path is :func:`assign_face_ids` on one
    point; ``exhaustive=True`` scans every face instead and is the
    correctness oracle for it.  Both share the same barycentric arithmetic.
    """
    x, y = float(xy[0]), float(xy[1])
    if not (np.isfinite(x) and np.isfinite(y)):
        return None
    if exhaustive:
        corner_x, corner_y = mesh.corner_xy(np.arange(mesh.num_faces))
        lam = _lam_direct(corner_x, corner_y, x, y)
        ok = np.all((lam >= 0.0) & (lam <= 1.0), axis=1)
        hits = np.nonzero(ok)[0]
        return int(hits[0]) if hits.size else None
    hit = int(assign_face_ids(mesh, np.array([[x, y]]))[0])
    return None if hit < 0 else hit


def assign_face_ids(mesh: Mesh, xy: np.ndarray) -> np.ndarray:
    """Vectorized face assignment for (n, 2) planar points; -1 when outside.

    Every point gets the lowest-index face whose closed triangle contains
    it, the rule of ``face_lookup(..., exhaustive=True)``.  A point more
    than the edge tolerance (:data:`EDGE_TOL` cell units, wider far from
    the map origin) from every edge of its cell and from the cell diagonal
    lies in exactly one face, that of its floor cell.  Every other point
    within the tolerance of the window goes to the exact candidate scan;
    the rest, NaN and infinities included, get -1.
    """
    xy = np.asarray(xy, dtype=float)
    n = mesh.cfg.cells_per_side
    side = mesh.cfg.side_length_m
    ox, oy = mesh.origin_xy
    tol = max(EDGE_TOL, _FAR_TOL * (max(abs(ox), abs(oy)) + mesh.cfg.half_extent_m) / side)
    u = xy[:, 0] - ox
    u /= side
    v = xy[:, 1] - oy
    v /= side
    # floor cells clamped into the window: a point outside it has an in-cell
    # coordinate outside [0, 1], and NaN stays NaN and fails every test.
    # The arithmetic runs in place, since fresh (n,) arrays cost page faults.
    cu = np.floor(u)
    np.clip(cu, 0, n - 1, out=cu)
    cv = np.floor(v)
    np.clip(cv, 0, n - 1, out=cv)
    fu = np.subtract(u, cu, out=u)
    fv = np.subtract(v, cv, out=v)
    upper = fu < fv  # above the cell diagonal -> north-west triangle
    hi = np.maximum(fu, fv)
    lo = np.minimum(fu, fv, out=fu)
    near = lo >= -tol
    near &= hi <= 1.0 + tol
    clear = lo > tol
    clear &= hi < 1.0 - tol
    face = np.multiply(cv, n, out=v)
    face += cu
    face *= 2
    face += upper
    np.copyto(face, -1.0, where=~near)
    # inf - inf and NaN casts only touch points that are -1 already
    with np.errstate(invalid="ignore"):
        hi -= lo
        clear &= hi > tol
        fids = face.astype(np.int64)
    near &= ~clear
    if near.any():
        scan = np.flatnonzero(near)
        fids[scan] = _candidate_scan(mesh, xy[scan], cu[scan].astype(np.int64), cv[scan].astype(np.int64))
    return fids


def _entering(shift: int, start: int, n: int) -> tuple:
    """Storage slices (none to two) of the canonical lines that enter a ring
    of ``n`` lines when the window moves by ``shift`` and its offset becomes
    ``start``."""
    k = min(abs(shift), n)
    if k == 0:
        return ()
    lo = ((n - k if shift > 0 else 0) + start) % n
    if lo + k <= n:
        return (slice(lo, lo + k),)
    return slice(lo, n), slice(0, lo + k - n)


def _clear(block: np.ndarray) -> None:
    """Zero a view of ring storage, writing only the entries whose bits are
    not zero, so that storage no frame has written is never written.  The
    bits are compared as unsigned integers of the same width, so that a
    ``-0.0`` is cleared to ``+0.0`` too."""
    bits = block.view(f"u{block.itemsize}")
    nonzero = bits != 0
    if nonzero.any():
        block[nonzero] = 0


def recenter(mesh: Mesh, new_center_xy) -> Mesh:
    """Shift the window toward ``new_center_xy`` by whole cells, in place.

    Vertex and face state that stays inside the window is preserved exactly;
    cells entering the window are reinitialized as at startup.  Displacements
    below one cell leave the mesh untouched.  Only the entering rows and
    columns of the ring storage are read, and only their nonzero entries
    are written.  A shift of 2**63 cells or more, or not finite, raises
    :class:`InputError` before any state changes.
    """
    target = np.asarray(new_center_xy, dtype=float).reshape(2)
    side = mesh.cfg.side_length_m
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.trunc((target - mesh.center) / side)
    if not abs(cells).max() < 2.0**63:  # NaN fails too
        raise InputError(
            f"recentering on {target.tolist()} moves the window {cells.tolist()} cells, more than its offset holds"
        )
    shift = cells.astype(np.int64)
    if shift[0] == 0 and shift[1] == 0:
        return mesh

    dx, dy = int(shift[0]), int(shift[1])
    r, c = mesh._start[0] + dy, mesh._start[1] + dx
    mesh._start = (r, c)
    for name, n in mesh._ring_grids():
        grid = getattr(mesh.ring, name).reshape(n, n, -1)
        for rows in _entering(dy, r, n):
            _clear(grid[rows])
        for cols in _entering(dx, c, n):
            _clear(grid[:, cols])

    mesh.center = mesh.center + shift * side
    return mesh
