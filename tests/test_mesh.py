import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from terramesh.errors import ConfigurationError, InputError
from terramesh.formats import load_map, save_map
from terramesh.mesh import (
    FramePoints,
    MeshConfig,
    _entering,
    _lattice_corners,
    assign_face_ids,
    face_lookup,
    init_mesh,
    recenter,
)

from oracles import copy_recenter, lattice_face_table


def small_mesh(side=0.5, half=1.0, k=3):
    return init_mesh(MeshConfig(side, half, k))


def incident_faces(m):
    """(V, 6) face ids incident to each vertex, ascending, -1 padded."""
    incident = np.full((m.num_vertices, 6), -1)
    for v in range(m.num_vertices):
        faces = np.flatnonzero((m.face_vertex_ids == v).any(axis=1))
        incident[v, : faces.size] = faces
    return incident


def inverse_transforms(m):
    """(F, 3, 3) inverses of the barycentric basis ``[[1,1,1],[x1,x2,x3],[y1,y2,y3]]``."""
    corner_x, corner_y = m.corner_xy(np.arange(m.num_faces))
    basis = np.empty((m.num_faces, 3, 3))
    basis[:, 0, :] = 1.0
    basis[:, 1, :] = corner_x
    basis[:, 2, :] = corner_y
    return np.linalg.inv(basis)


class TestConfig:
    def test_counts_half_meter_grid(self):
        m = small_mesh(0.5, 1.0, 3)
        assert m.num_vertices == 25
        assert m.num_faces == 32

    def test_counts_unit_grid(self):
        m = small_mesh(1.0, 1.0, 10)
        assert m.num_vertices == 9
        assert m.num_faces == 8
        assert np.all(m.alpha == 0.0)
        assert m.alpha.shape == (8, 10)

    def test_counts_fine_grid_by_enumeration(self):
        # enumerate the lattice directly and cross-check the closed form
        cfg = MeshConfig(0.02, 0.5, 10)
        m = init_mesh(cfg)
        vx, vy = m.vertex_positions()
        lattice = {(round(x / 0.02), round(y / 0.02)) for x, y in zip(vx, vy)}
        assert len(lattice) == m.num_vertices == 2601
        assert m.num_faces == 5000
        per_side = int(round(2 * 0.5 / 0.02)) + 1
        assert m.num_vertices == per_side**2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshConfig(0.0, 1.0, 3)
        with pytest.raises(ConfigurationError):
            MeshConfig(0.3, 1.0, 3)  # 1.0 not a multiple of 0.3
        with pytest.raises(ConfigurationError):
            MeshConfig(0.5, 1.0, 0)
        # a window 2*half_extent_m wide, or a side squared, that overflows
        for side in (1e308, 1e200):
            with pytest.raises(ConfigurationError, match="must be finite"):
                MeshConfig(side, side, 3)
        assert MeshConfig(1e150, 1e150, 2).num_faces == 8

    def test_initial_state(self):
        m = small_mesh()
        assert np.all(m.z_mean == 0.0)
        assert np.all(m.z_var == 0.0)
        assert not m.touched.any()

    def test_ring_storage_is_plain_zero_arrays(self):
        m = small_mesh(0.25, 1.5, 3)
        for name, _ in m._ring_grids():
            arr = getattr(m.ring, name)
            assert arr.flags.writeable and arr.flags.c_contiguous, name
            assert not arr.any(), name
        m.ring.alpha[5] = [1.0, 2.0, 3.0]
        twin = copy.deepcopy(m)
        for name, _ in m._ring_grids():
            got, want = getattr(twin.ring, name), getattr(m.ring, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        twin.ring.alpha[5] = 0.0
        assert m.ring.alpha[5].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("source", ["new", "loaded"])
    def test_evidence_storage_stays_off_huge_pages(self, tmp_path, source):
        # the CLI's default mesh: alpha is 40 MB, far above numpy's 4 MiB
        # huge-page threshold, so only its own allocation keeps it off them;
        # a loaded map is read into the storage of a new mesh
        mesh = init_mesh(MeshConfig(0.02, 5.0, 10))
        if source == "loaded":
            save_map(mesh, tmp_path / "map.bin", [str(k) for k in range(10)])
            mesh, _ = load_map(tmp_path / "map.bin")
        alpha = mesh.ring.alpha
        lo = alpha.__array_interface__["data"][0]
        hi = lo + alpha.nbytes
        try:
            with open("/proc/self/smaps") as fh:
                text = fh.read()
        except OSError:
            pytest.skip("no /proc/self/smaps")
        eligible, overlaps = [], False
        for line in text.splitlines():
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                start, stop = (int(x, 16) for x in head.split("-"))
                overlaps = start < hi and lo < stop
            elif overlaps and head == "THPeligible:":
                eligible.append(line.split()[1])
        if not eligible:
            pytest.skip("smaps has no THPeligible field")
        assert set(eligible) == {"0"}

    def test_vertices_on_lattice(self):
        m = small_mesh(0.25, 1.0, 2)
        vx, vy = m.vertex_positions()
        ratio = (vx - m.origin_xy[0]) / 0.25
        assert np.allclose(ratio, np.round(ratio), atol=1e-12)

    def test_faces_are_ccw_right_isosceles(self):
        m = small_mesh()
        vx, vy = m.vertex_positions()
        for fid in range(m.num_faces):
            ids = m.face_vertex_ids[fid]
            pts = np.column_stack([vx[ids], vy[ids]])
            e1 = pts[1] - pts[0]
            e2 = pts[2] - pts[0]
            area2 = e1[0] * e2[1] - e1[1] * e2[0]
            assert area2 > 0  # counterclockwise
            sides = sorted(
                np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))
            )
            assert np.isclose(sides[0], 0.5) and np.isclose(sides[1], 0.5)
            assert np.isclose(sides[2], 0.5 * np.sqrt(2))


class TestFaceCorners:
    """The closed-form face corners against the stored face table they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 250, 500])
    def test_closed_form_matches_lattice_table(self, n):
        table = lattice_face_table(n)
        got = _lattice_corners(np.arange(table.shape[0]), n)
        assert got.dtype == np.int32 and np.array_equal(got, table)
        if n % 2 == 0:  # a window always spans an even number of cells
            m = init_mesh(MeshConfig(1.0, n / 2, 1))
            assert np.array_equal(m.face_corners(np.arange(m.num_faces)), table)
            assert m.face_vertex_ids.dtype == np.int32
            assert np.array_equal(m.face_vertex_ids, table)
            assert np.array_equal(np.concatenate(list(m.face_vertex_chunks())), table)

    def test_any_face_subset(self, rng):
        m = small_mesh(0.02, 1.0, 2)
        fids = rng.integers(0, m.num_faces, size=3000)
        assert np.array_equal(m.face_corners(fids), lattice_face_table(m.cfg.cells_per_side)[fids])

    def test_init_allocates_no_face_table(self):
        # the CLI's default 0.02 m / 5 m mesh: an (F, 3) int32 table is 6 MB
        cfg = MeshConfig(0.02, 5.0, 10)
        tracemalloc.start()
        try:
            m = init_mesh(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the ring arrays are anonymous mappings, which tracemalloc does not see
        held = m._scratch.nbytes
        assert peak < held + m.num_faces * 3 * 4


class TestCornerCoordinates:
    """Every coordinate is the lattice placement ``origin + index*side``,
    gathered through the face table the mesh once stored."""

    @pytest.mark.parametrize(
        "target", [None, (0.37, -0.21), (3.2e6, 1.1e6)], ids=["unshifted", "recentred", "far-east"]
    )
    def test_gathers_match_lattice_table(self, target):
        m = small_mesh(0.1, 0.5, 3)
        if target is not None:
            recenter(m, target)
        n, side = m.cfg.vertices_per_side, m.cfg.side_length_m
        ox, oy = m.origin_xy
        vids = np.arange(m.num_vertices)
        vx, vy = m.vertex_positions()
        assert vx.tobytes() == (ox + vids % n * side).tobytes()
        assert vy.tobytes() == (oy + vids // n * side).tobytes()
        table = lattice_face_table(m.cfg.cells_per_side)
        corner_x, corner_y = m.corner_xy(np.arange(m.num_faces))
        assert corner_x.tobytes() == vx[table].tobytes() and corner_y.tobytes() == vy[table].tobytes()
        # any id shape, such as the candidate scan's (m, 18)
        fids = np.arange(m.num_faces).reshape(-1, 20)[::-1]
        block_x, block_y = m.corner_xy(fids)
        assert block_x.shape == fids.shape + (3,)
        assert block_x.tobytes() == vx[table[fids]].tobytes() and block_y.tobytes() == vy[table[fids]].tobytes()
        # the centroids the table gather gave
        cents = np.column_stack([vx[table].mean(axis=1), vy[table].mean(axis=1)])
        assert m.face_centroids().tobytes() == cents.tobytes()


class TestFaceLookup:
    def test_centroid_resolves_to_own_face(self):
        m = small_mesh()
        cents = m.face_centroids()
        for fid in range(m.num_faces):
            assert face_lookup(m, cents[fid]) == fid

    def test_outside_returns_none(self):
        m = small_mesh()
        assert face_lookup(m, (5.0, 0.0)) is None
        assert face_lookup(m, (0.0, -1.001)) is None
        assert face_lookup(m, (np.nan, 0.0)) is None

    @pytest.mark.parametrize(
        "cfg",
        [(0.5, 1.0, 3), (0.25, 1.5, 2), (0.1, 0.5, 4)],
    )
    def test_agrees_with_exhaustive_scan(self, cfg, rng):
        m = init_mesh(MeshConfig(*cfg))
        half = cfg[1]
        pts = rng.uniform(-half, half, size=(2000, 2))
        for p in pts:
            assert face_lookup(m, p) == face_lookup(m, p, exhaustive=True)

    def test_boundary_ties_first_match(self):
        m = small_mesh(0.5, 1.0, 3)  # origin (-1, -1), 4x4 cells
        cases = [
            ((-0.7, -0.7), 0),  # cell diagonal: south-east face wins
            ((-0.5, -0.8), 0),  # vertical edge: left cell's SE face
            ((-0.8, -0.5), 1),  # horizontal edge: lower cell's NW face
            ((-0.5, -0.5), 0),  # lattice vertex: lowest incident face
            ((1.0, -0.8), 6),   # right mesh boundary: last-column face
            ((-1.0, -1.0), 0),  # mesh corner
        ]
        for xy, expected in cases:
            assert face_lookup(m, xy) == expected
            assert face_lookup(m, xy, exhaustive=True) == expected

    def test_partition_property(self, rng):
        # off the shared edges, exactly one face passes the closed test
        m = small_mesh(0.5, 1.0, 3)
        inv = inverse_transforms(m)
        for _ in range(500):
            p = rng.uniform(-1, 1, size=2)
            lam = inv @ np.array([1.0, p[0], p[1]])
            hits = np.sum(np.all((lam >= 0) & (lam <= 1), axis=1))
            assert hits == 1

    def test_shared_edge_touches_two_faces(self):
        m = small_mesh(0.5, 1.0, 3)
        inv = inverse_transforms(m)
        lam = inv @ np.array([1.0, -0.5, -0.8])  # interior vertical edge
        hits = np.sum(np.all((lam >= 0) & (lam <= 1), axis=1))
        assert hits == 2

    def test_in_simplex_consistency(self):
        m = small_mesh()
        inv = inverse_transforms(m)
        p = m.face_centroids()[7]
        lam = inv[7] @ np.array([1.0, p[0], p[1]])
        assert np.all((lam >= 0.0) & (lam <= 1.0))


class TestBulkAssignment:
    def test_matches_scalar_lookup_random(self, rng):
        m = small_mesh(0.25, 1.5, 2)
        pts = rng.uniform(-1.8, 1.8, size=(3000, 2))
        fids = assign_face_ids(m, pts)
        for p, f in zip(pts[:400], fids[:400]):
            expected = face_lookup(m, p)
            assert (f == -1 and expected is None) or f == expected

    def test_matches_scalar_on_lattice_points(self):
        m = small_mesh(0.5, 1.0, 3)
        xs = np.arange(-1.0, 1.01, 0.25)
        pts = np.array([(x, y) for x in xs for y in xs])
        fids = assign_face_ids(m, pts)
        for p, f in zip(pts, fids):
            expected = face_lookup(m, p)
            assert (f == -1 and expected is None) or f == expected

    def test_frame_points_drop_outside(self, rng):
        m = small_mesh()
        pos = rng.uniform(-2, 2, size=(100, 3))
        fids = assign_face_ids(m, pos[:, :2])
        fp = FramePoints.from_assignment(m, pos, pos, np.full((100, 3), 1 / 3), fids, np.arange(100))
        inside = fids >= 0
        assert np.array_equal(fp.faces[fp.inverse], fids[inside])
        assert np.array_equal(fp.z, pos[inside, 2])
        assert np.array_equal(fp.pos_sensor, pos[inside])


class TestPointGroups:
    """``FramePoints.from_assignment``'s scratch-array grouping against
    ``np.unique`` and the corner table."""

    def assert_groups(self, m, fids):
        n = fids.size
        pos = np.zeros((n, 3))
        points = FramePoints.from_assignment(m, pos, pos, np.zeros((n, 1)), fids, np.arange(n))
        kept = fids[fids >= 0]
        assert np.array_equal(points.faces[points.inverse], kept)
        faces, inverse = np.unique(kept, return_inverse=True)
        assert np.array_equal(points.faces, faces)
        assert np.array_equal(points.inverse, inverse)
        corner_ids = m.face_vertex_ids[faces]
        assert np.array_equal(points.vertices, np.unique(corner_ids))
        assert np.array_equal(points.vertices[points.corners], corner_ids)

    def test_matches_unique(self, rng):
        # one mesh throughout, so every case meets the scratch left by the last
        m = small_mesh(0.25, 1.0, 3)
        f = m.num_faces
        cases = [
            rng.integers(0, f, size=5000),
            rng.integers(0, f, size=7),
            np.full(300, 17),
            np.array([f - 1]),
            np.arange(f)[::-1].copy(),
        ]
        for fids in cases:
            self.assert_groups(m, fids)

    def test_matches_unique_after_recenter(self, rng):
        m = small_mesh(0.25, 1.0, 3)
        pts = rng.uniform(-1.0, 1.0, size=(400, 2))
        fids = assign_face_ids(m, pts)
        self.assert_groups(m, fids)
        recenter(m, (0.6, -0.35))
        fids = assign_face_ids(m, pts)
        assert 0 < (fids >= 0).sum() < fids.size
        self.assert_groups(m, fids)  # from_assignment drops the points outside


class TestRecenter:
    def seeded_mesh(self, rng):
        m = small_mesh(0.5, 1.0, 3)
        m.z_mean = rng.standard_normal(m.num_vertices)
        m.z_var = rng.uniform(0.1, 1.0, m.num_vertices)
        m.touched[:] = rng.random(m.num_vertices) < 0.7
        m.alpha = rng.uniform(0, 5, m.alpha.shape)
        return m

    def snapshot(self, m):
        return (m.z_mean.copy(), m.z_var.copy(), m.touched.copy(), m.alpha.copy(), m.center.copy())

    def test_zero_shift_identity(self, rng):
        m = self.seeded_mesh(rng)
        before = self.snapshot(m)
        recenter(m, (0.0, 0.0))
        after = self.snapshot(m)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_subcell_shift_is_noop(self, rng):
        m = self.seeded_mesh(rng)
        before = self.snapshot(m)
        recenter(m, (0.2, -0.15))  # 0.4 and 0.3 cells
        after = self.snapshot(m)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_one_cell_shift_translates_state(self, rng):
        m = self.seeded_mesh(rng)
        n = m.cfg.vertices_per_side
        before = m.z_mean.reshape(n, n).copy()
        recenter(m, (0.5, 0.0))
        after = m.z_mean.reshape(n, n)
        assert np.array_equal(after[:, : n - 1], before[:, 1:])
        assert np.all(after[:, n - 1] == 0.0)
        assert np.allclose(m.center, [0.5, 0.0], atol=0)

    def test_counts_invariant(self, rng):
        m = self.seeded_mesh(rng)
        recenter(m, (3.7, -2.2))
        assert m.num_vertices == 25 and m.num_faces == 32
        assert m.z_mean.size == 25 and m.alpha.shape == (32, 3)

    def test_net_zero_walk_preserves_survivors(self, rng):
        m = self.seeded_mesh(rng)
        n = m.cfg.vertices_per_side
        before = m.z_mean.reshape(n, n).copy()
        before_alpha = m.alpha.reshape(4, 4, 6).copy()
        recenter(m, (1.0, 0.0))   # +2 cells
        recenter(m, (0.0, 0.0))   # -2 cells back
        after = m.z_mean.reshape(n, n)
        # vertices with x-index >= 2 never left the window
        assert np.array_equal(after[:, 2:], before[:, 2:])
        assert np.all(after[:, :2] == 0.0)
        after_alpha = m.alpha.reshape(4, 4, 6)
        assert np.array_equal(after_alpha[:, 2:, :], before_alpha[:, 2:, :])
        assert np.all(after_alpha[:, :2, :] == 0.0)

    @pytest.mark.parametrize("shift", [(9, 9), (-9, 7), (9, -10)])
    def test_wrapped_entering_lines_match_copy_oracle_bytes(self, rng, shift):
        m = small_mesh(0.25, 1.5, 3)  # 12 cells, 13 vertices per side
        side = m.cfg.side_length_m
        recenter(m, (5.5 * side, -5.5 * side))
        # every ring entry set in storage, so the offset stays; every third
        # float entry is -0.0, so every entering line holds some
        for name, _ in m._ring_grids():
            arr = getattr(m.ring, name)
            if arr.dtype == bool:
                arr[...] = rng.random(arr.shape) < 0.6
            else:
                arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
                arr.reshape(-1)[::3] = -0.0
        ref = copy.deepcopy(m)
        d = np.array(shift, dtype=float)
        target = m.center + (d + 0.5 * np.sign(d)) * side
        recenter(m, target)
        copy_recenter(ref, target)
        # the entering rows and columns run over the end of storage
        for n in (12, 13):
            assert len(_entering(shift[1], m._start[0], n)) == 2
            assert len(_entering(shift[0], m._start[1], n)) == 2
        view = copy.deepcopy(m)  # keeps the mesh under test at its offset
        for name in ("z_mean", "z_var", "touched", "alpha"):
            assert getattr(view, name).tobytes() == getattr(ref, name).tobytes(), name
        assert np.array_equal(view.center, ref.center)

    def test_storage_holding_zero_is_never_written(self):
        m = small_mesh(0.25, 1.5, 3)
        for name, _ in m._ring_grids():
            getattr(m.ring, name).flags.writeable = False
        # a write into the read-only storage would raise
        for target in ((0.9, -1.3), (-2.1, 0.4), (9.0, 9.0)):
            recenter(m, target)
        assert m._start != (0, 0)

    @pytest.mark.filterwarnings("error")
    def test_shift_past_the_offset_is_refused_before_any_state_changes(self, rng):
        m = self.seeded_mesh(rng)
        recenter(m, (0.7, -1.2))
        start, center = m._start, m.center.copy()
        stored = {name: getattr(m.ring, name).tobytes() for name, _ in m._ring_grids()}
        for target in ((1e300, 0.0), (0.0, -1e300), (np.inf, 0.0), (np.nan, 0.0), (2.0**62, 0.0)):
            with pytest.raises(InputError, match="more than its offset holds"):
                recenter(m, target)
            assert m._start == start and np.array_equal(m.center, center)
            for name, _ in m._ring_grids():
                assert getattr(m.ring, name).tobytes() == stored[name], name
        # 2e12 cells: the offset holds it, and the whole window enters
        recenter(m, (1e12, center[1]))
        assert m.center.tolist() == [1e12, center[1]] and m._start == (start[0], start[1] + 1999999999999)
        assert not m.z_mean.any() and not m.touched.any() and not m.alpha.any()

    def test_lattice_preserved_and_lookup_consistent(self, rng):
        m = self.seeded_mesh(rng)
        recenter(m, (1.0, -0.5))
        vx, vy = m.vertex_positions()
        assert np.isclose(vx.min(), m.center[0] - 1.0)
        assert np.isclose(vy.max(), m.center[1] + 1.0)
        cents = m.face_centroids()
        for fid in (0, 7, 31):
            assert face_lookup(m, cents[fid]) == fid


class TestLookupAfterRecenter:
    def lattice_points(self, m):
        """Every vertex (exactly as ``vertex_positions`` places it), edge
        midpoint and cell centre of the window, plus half-steps outside it."""
        steps = np.arange(-1, 2 * m.cfg.cells_per_side + 2) * (m.cfg.side_length_m / 2)
        ox, oy = m.origin_xy
        half = np.array([(ox + a, oy + b) for a in steps for b in steps])
        return np.vstack([np.column_stack(m.vertex_positions()), half])

    def test_candidate_scan_agrees_with_exhaustive_scan(self):
        m = small_mesh(0.1, 0.5, 3)
        for target in ((0.37, -0.21), (-0.93, 0.54), (0.3, 9.0)):
            recenter(m, target)
            for p in self.lattice_points(m):
                assert face_lookup(m, p) == face_lookup(m, p, exhaustive=True)

    @pytest.mark.parametrize(
        "target",
        [None, (0.37, -0.21), (5.0e5, 4.2e6), (3.2e6, 1.1e6)],
        ids=["unshifted", "recentred", "utm-like", "far-east"],
    )
    @pytest.mark.parametrize("cfg", [(0.1, 0.5), (0.02, 0.3)], ids=["10cm", "2cm"])
    def test_assignment_agrees_with_exhaustive_scan(self, cfg, target):
        # non-dyadic sides: lattice points land within rounding of cell edges
        m = small_mesh(*cfg, 3)
        if target is not None:
            recenter(m, target)
        pts = self.lattice_points(m)
        got = [None if f < 0 else int(f) for f in assign_face_ids(m, pts)]
        assert got == [face_lookup(m, p, exhaustive=True) for p in pts]

    def test_non_finite_points_are_outside(self):
        m = small_mesh(0.1, 0.5, 3)
        values = (0.0, np.nan, np.inf, -np.inf)
        pts = np.array([(a, b) for a in values for b in values])[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fids = assign_face_ids(m, pts)
        assert np.all(fids == -1)

    def test_border_lookup_builds_no_corner_table(self):
        m = init_mesh(MeshConfig(0.02, 5.0, 10))
        recenter(m, (0.37, -0.21))
        pts = m.center + np.array([[0.0, 0.0], [0.02, 0.04], [0.01, -0.3]])
        tracemalloc.start()
        try:
            fids = assign_face_ids(m, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(fids >= 0)
        assert peak < 1e6


class TestIncidence:
    def test_interior_vertex_has_six_faces(self):
        m = small_mesh(0.5, 1.0, 3)
        inc = incident_faces(m)
        n = m.cfg.vertices_per_side
        interior = 2 * n + 2  # vertex (2, 2)
        faces = inc[interior][inc[interior] >= 0]
        assert faces.size == 6
        # every listed face references the vertex
        for f in faces:
            assert interior in m.face_vertex_ids[f]

    def test_corner_vertices(self):
        m = small_mesh(0.5, 1.0, 3)
        inc = incident_faces(m)
        sw = inc[0][inc[0] >= 0]
        assert sw.size == 2  # both triangles of cell (0, 0)
        ne = inc[-1][inc[-1] >= 0]
        assert ne.size == 2

    def test_incidence_matches_face_table(self):
        m = small_mesh(0.25, 1.0, 2)
        inc = incident_faces(m)
        # reconstruct incidence from the face table and compare
        expected = [[] for _ in range(m.num_vertices)]
        for fid, ids in enumerate(m.face_vertex_ids):
            for v in ids:
                expected[v].append(fid)
        for vid in range(m.num_vertices):
            got = sorted(int(f) for f in inc[vid] if f >= 0)
            assert got == expected[vid]
