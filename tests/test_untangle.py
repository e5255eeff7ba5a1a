"""Maximin LP repositioning, sweeps, and the warp/untangle hybrid."""

import warnings
from importlib import import_module
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femwarp import (
    Mesh,
    annulus_rotation_motion,
    femwarp_step,
    gen_annulus,
    gen_box_tets,
    gen_rectangle,
)
from femwarp.assembly import build_weights
from femwarp.cli import run_algorithm
from femwarp.mesh import count_reversals, quality_report, signed_measures
from femwarp.untangle import (
    BOX_FACTOR,
    TRIPLES_KEPT,
    LocalSubmesh,
    _dual_maximin_2d,
    _float_terms_2d,
    _measure_terms,
    _simplex_reposition,
    _triples,
    hybrid_warp,
    maximin_reposition,
    untangle,
)
from femwarp.warp import AffineMotion

from conftest import jittered
from oracles import (
    bumped_measure_coeffs,
    grid_maximin,
    local_submesh,
    maximin_reposition_by_arrays,
    maximin_reposition_nested,
    nested_dual_maximin_2d,
    stack_measure_gradients,
    tri_measures,
    untangle_nested,
)

# the package re-exports the function untangle under the submodule's name
untangle_module = import_module("femwarp.untangle")


def square_cavity(free_pos):
    """Four triangles fanning from a free vertex to the corners (+-1, +-1)."""
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    coords = np.vstack([corners, free_pos])
    elements = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(coords, elements, [0, 1, 2, 3])


def reflected_cavity():
    """Cavity whose free vertex was reflected outside, reversing one
    triangle; a positive optimum exists back inside."""
    outer = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    coords = np.vstack([outer, [1.0, -0.4]])  # below the bottom edge
    elements = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(coords, elements, [0, 1, 2, 3])


def star_cavity(seed, n, spread):
    """Cavity of ``n`` triangles fanning from a free vertex, placed uniformly
    in [-spread, spread]^2 and so often outside the ring, to a random star
    polygon around the origin."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.cumsum(rng.dirichlet(np.ones(n)))
    ring = rng.uniform(0.5, 1.5, size=(n, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    )
    coords = np.vstack([ring, rng.uniform(-spread, spread, size=2)])
    elements = np.array([[i, (i + 1) % n, n] for i in range(n)])
    return local_submesh(Mesh(coords, elements, list(range(n))), n, range(n))


def open_fan():
    """Three triangles above a free vertex's lower neighbours and none above
    it: every gradient points up, so only the box bounds the LP."""
    coords = np.array([[-1.0, 0.0], [-0.3, -0.2], [0.3, -0.2], [1.0, 0.0], [0.1, 0.3]])
    return Mesh(coords, np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4]]), [0, 1, 2, 3])


def shifted_box():
    """3x3x3 box of tets with its one interior node moved off centre."""
    mesh = gen_box_tets(3, 3, 3)
    coords = np.array(mesh.coords)
    coords[13] += [0.31, -0.22, 0.17]
    return mesh.with_coords(coords)


# name -> (mesh factory, free vertex, the dense simplex's position and value,
# pinned bit for bit: these cavities must keep taking the simplex path)
SIMPLEX_CAVITIES = {
    "open_fan_2d": (open_fan, 4, [10.549999999999997, 20.3], 6.1499999999999995),
    "box_tet_3d": (shifted_box, 13, [0.5, 0.5, 0.5], 0.020833333333333332),
}


def reversed_rotation_warp():
    """One-shot FEM warp of the 8x60 annulus that reverses elements."""
    mesh = gen_annulus(0.5, 8, 60)
    motion = annulus_rotation_motion(mesh, 0.75 * np.pi, 0.25 * np.pi)
    return femwarp_step(mesh, build_weights(mesh, "FEM"), motion.evaluate(1.0))[0]


def boundary_only_reversed_triangle():
    """A clockwise triangle with no interior node: a sweep moves nothing."""
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return Mesh(coords, np.array([[0, 1, 2]]), [0, 1, 2])


# name -> (mesh factory, max_sweeps, expected sweeps, expected outcome)
UNTANGLE_EXITS = {
    "untangled": (lambda: gen_annulus(0.5, 6, 24), 50, 0, "SUCCESS"),
    "max_sweeps_0": (reversed_rotation_warp, 0, 0, "MAX_SWEEPS"),
    "max_sweeps_1": (reversed_rotation_warp, 1, 1, "MAX_SWEEPS"),
    "success_on_last_sweep": (reflected_cavity, 1, 1, "SUCCESS"),
    "stalled": (boundary_only_reversed_triangle, 50, 1, "STALLED"),
}


# small integers make repeated points and exactly collinear triples common
COORDS = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def fan_cavity(free, ring_pairs, slots):
    """LocalSubmesh of the triangles (free, a, b), each rotated so that the
    free vertex sits in its slot and the orientation is kept."""
    tris = []
    for (a, b), s in zip(ring_pairs, slots):
        tri = [free, a, b]
        tris.append(tri[-s:] + tri[:-s] if s else tri)
    return LocalSubmesh(np.array(free, dtype=float), np.array(tris, dtype=float), np.array(slots))


@st.composite
def random_cavities(draw):
    """A 2D cavity of 1-8 triangles of any orientation, degenerate ones
    (a repeated point) included, with the free vertex in any slot."""
    point = st.lists(COORDS, min_size=2, max_size=2)
    k = draw(st.integers(1, 8))
    pairs = []
    for _ in range(k):
        a = draw(point)
        pairs.append((a, a if draw(st.booleans()) else draw(point)))
    slots = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return fan_cavity(draw(point), pairs, slots)


def float_terms(sub):
    return _float_terms_2d(sub.elements.ravel().tolist(), sub.free_slots.tolist())


def array_terms(sub):
    """``_measure_terms`` and the box radius of ``maximin_reposition``'s
    array path."""
    ptp = np.ptp(sub.elements.reshape(-1, sub.position.size), axis=0).max()
    return (*_measure_terms(sub), BOX_FACTOR * max(ptp, 1e-12))


def quiet_oracle(sub):
    """:func:`oracles.maximin_reposition_by_arrays` with the runtime
    warnings of its array kernels ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return maximin_reposition_by_arrays(sub)


def assert_same_bits(got, want):
    want = np.asarray(want, dtype=float)
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


CAVITY_MESHES = {
    "annulus": lambda: gen_annulus(0.5, 5, 20),
    "box": lambda: gen_box_tets(4, 4, 4),
}


class TestAffineMeasureCoeffs:
    @pytest.mark.parametrize("name", CAVITY_MESHES)
    def test_matches_bump_oracle(self, name, rng):
        # every node in turn is the free vertex, so every row of every
        # element's measure gradients is checked
        mesh = jittered(CAVITY_MESHES[name](), rng, frac=0.1)
        incident, _ = mesh.topology.incidence
        for vid in range(mesh.n_nodes):
            sub = local_submesh(mesh, vid, incident[vid])
            grads, meas = _measure_terms(sub)
            consts = meas - grads @ sub.position
            want_g, want_c = bumped_measure_coeffs(sub)
            assert np.abs(grads - want_g).max() <= 1e-12 * np.abs(want_g).max()
            assert np.abs(consts - want_c).max() <= 1e-12 * np.abs(want_c).max()
            slots = (np.arange(len(grads)), sub.free_slots)
            assert np.array_equal(stack_measure_gradients(sub.elements)[slots], grads)


class TestFloatTerms2d:
    @settings(max_examples=300, deadline=None)
    @given(sub=random_cavities())
    def test_matches_array_kernels_bitwise(self, sub):
        for got, want in zip(float_terms(sub), array_terms(sub)):
            assert_same_bits(got, want)

    def test_every_slot_and_orientation(self):
        a, b = [1.1, 0.2], [0.4, 0.9]
        kinds = {"positive": (a, b), "reversed": (b, a), "degenerate": (a, a)}
        pairs = [pair for pair in kinds.values() for _ in range(3)]
        sub = fan_cavity([0.3, -0.7], pairs, [0, 1, 2] * 3)
        grads, meas, radius = float_terms(sub)
        assert np.sign(meas).tolist() == [1.0] * 3 + [-1.0] * 3 + [0.0] * 3
        for got, want in zip((grads, meas, radius), array_terms(sub)):
            assert_same_bits(got, want)

    # the library stays silent; only the array oracle may warn (on inf - inf
    # and on a box past the largest float)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("corner, axis", [(1, 0), (2, 0), (1, 1)])
    def test_non_finite_cavity_stays(self, bad, corner, axis):
        # one coordinate of a ring corner of a later triangle: Python's max
        # and min may skip a nan there, so the box alone cannot tell
        sub = star_cavity(3, 6, 0.5)
        elements = np.array(sub.elements)
        elements[3, (sub.free_slots[3] + corner) % 3, axis] = bad
        sub = LocalSubmesh(sub.position, elements, sub.free_slots)
        pos, val = maximin_reposition(sub)
        want_pos, want_val = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert_same_bits(val, want_val)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_box_stays(self):
        # a star cavity whose LP the dual certifies, and two triangles with
        # finite coordinates and measures that take the box diameter past
        # the largest float
        sub = star_cavity(3, 6, 0.5)
        x, y = sub.position.tolist()
        far = [[[1e308, y], [1e308, y + 1.0]], [[-1e308, y], [-1e308, y - 1.0]]]
        outer = fan_cavity([x, y], far, [0, 0])
        sub = LocalSubmesh(
            sub.position,
            np.concatenate([sub.elements, outer.elements]),
            np.concatenate([sub.free_slots, outer.free_slots]),
        )
        grads, meas, radius = float_terms(sub)
        assert np.isfinite(sum(meas)) and radius == np.inf
        assert _dual_maximin_2d(grads, meas, 1e308) is not None
        pos, val = maximin_reposition(sub)
        want_pos, want_val = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert val == want_val == min(meas)


def tangled_box():
    """4x4x4 box of tets with one interior node pushed through a face."""
    mesh = gen_box_tets(4, 4, 4)
    coords = np.array(mesh.coords)
    vid = mesh.interior_ids[5]
    coords[vid] += [0.5, 0.4, -0.45]
    return mesh.with_coords(coords)


class TestFloatPathMatchesArrays:
    """The untangler with the 2D float terms moves every vertex exactly as
    it does with :func:`oracles.maximin_reposition_by_arrays`."""

    @staticmethod
    def runs(monkeypatch, call):
        """``call()`` under each reposition, with the exits of the
        ``untangle`` runs it makes."""
        results = []
        for reposition in (maximin_reposition, maximin_reposition_by_arrays):
            exits = []

            def recording(*args, **kwargs):
                out = untangle(*args, **kwargs)
                exits.append(out[1:])
                return out

            monkeypatch.setattr(untangle_module, "maximin_reposition", reposition)
            monkeypatch.setattr(untangle_module, "untangle", recording)
            results.append((call(), exits))
        return results

    def test_hybrid_workload_seeds(self, monkeypatch):
        # the benchmark's hybrid_annulus8x60 cell and motion, seeds 1-20
        base = gen_annulus(0.5, 8, 60)
        for seed in range(1, 21):
            mesh = jittered(base, np.random.default_rng(seed), frac=1e-10)
            target = annulus_rotation_motion(mesh, 0.75 * np.pi, 0.25 * np.pi).evaluate(1.0)
            weights = build_weights(mesh, "FEM")
            (got, got_exits), (want, want_exits) = self.runs(
                monkeypatch, lambda: hybrid_warp(mesh, weights, target)
            )
            assert len(got_exits) == 1 and got_exits == want_exits
            assert_same_bits(got[0].coords, want[0].coords)
            assert got[1] == want[1]

    def test_3d_untangle(self, monkeypatch):
        mesh = tangled_box()
        assert count_reversals(mesh)[0] > 0
        (got, _), (want, _) = self.runs(monkeypatch, lambda: untangle(mesh))
        assert got[1:] == want[1:] and got[2] == "SUCCESS"
        assert_same_bits(got[0].coords, want[0].coords)


def hybrid_seed_warp(seed):
    """The benchmark's hybrid_annulus8x60 cell on ``seed``, warped one-shot
    by FEM: the mesh its untangler starts from."""
    mesh = jittered(gen_annulus(0.5, 8, 60), np.random.default_rng(seed), frac=1e-10)
    target = annulus_rotation_motion(mesh, 0.75 * np.pi, 0.25 * np.pi).evaluate(1.0)
    return femwarp_step(mesh, build_weights(mesh, "FEM"), target)[0]


def flipped_rectangle(seed):
    """``gen_rectangle(2, 1, 11, 7)``'s nodes with each cell split along a
    random diagonal, so that interior cavities hold 4 to 8 triangles, and
    interior nodes jittered by up to two cells, which reverses dozens."""
    nx, ny = 11, 7
    base = gen_rectangle(2.0, 1.0, nx, ny)
    rng = np.random.default_rng(seed)
    elements = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a, b = j * nx + i, j * nx + i + 1
            c, d = b + nx, a + nx
            elements += [[a, b, c], [a, c, d]] if rng.random() < 0.5 else [[a, b, d], [b, c, d]]
    coords = np.array(base.coords)
    ii = base.interior_ids
    coords[ii] += rng.uniform(-2.0 / (ny - 1), 2.0 / (ny - 1), size=(len(ii), 2))
    return Mesh(coords, np.array(elements), base.boundary_ids)


def point_reflected(mesh):
    coords = np.array(mesh.coords)
    coords[mesh.boundary_ids] *= -1.0
    return mesh.with_coords(coords)


class TestSweepMatchesNested:
    """The flat-index dual and the sweep that keeps moves in Python floats
    reproduce :func:`oracles.untangle_nested` (the nested-list dual, row
    copies and array steps) bit for bit."""

    @staticmethod
    def visited(monkeypatch, mesh):
        """``untangle(mesh)`` and a copy of every cavity it solved."""
        cavities = []

        def recording(sub):
            # the position is the row of the sweep's coordinates, which the
            # sweep overwrites after the call
            cavities.append(LocalSubmesh(np.array(sub.position), sub.elements, sub.free_slots))
            return maximin_reposition(sub)

        monkeypatch.setattr(untangle_module, "maximin_reposition", recording)
        out = untangle(mesh)
        monkeypatch.undo()
        return out, cavities

    @staticmethod
    def assert_same_run(got, want):
        assert got[1:] == want[1:]
        assert_same_bits(got[0].coords, want[0].coords)

    @staticmethod
    def assert_same_cavities(cavities):
        for sub in cavities:
            terms = float_terms(sub)
            # repr tells -0.0 from 0.0 and keeps None
            assert repr(_dual_maximin_2d(*terms)) == repr(nested_dual_maximin_2d(*terms))
            pos, val = maximin_reposition(sub)
            want_pos, want_val = maximin_reposition_nested(sub)
            assert_same_bits(pos, want_pos)
            assert repr(val) == repr(want_val)

    @pytest.mark.parametrize("n", [*range(3, 10), TRIPLES_KEPT + 1])
    def test_triples_in_combinations_order(self, n):
        table = list(_triples(n))
        assert [t[3:] for t in table] == list(combinations(range(n), 3))
        assert [t[:3] for t in table] == [
            (j * n + l, l * n + i, i * n + j) for i, j, l in combinations(range(n), 3)
        ]
        # kept once built, up to TRIPLES_KEPT elements
        assert (_triples(n) is _triples(n)) == (n <= TRIPLES_KEPT)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hybrid_workload_seeds(self, monkeypatch, seed):
        warped = hybrid_seed_warp(seed)
        got, cavities = self.visited(monkeypatch, warped)
        assert got[1:] == (13, "SUCCESS") and len(cavities) == 13 * 360
        self.assert_same_run(got, untangle_nested(warped))
        self.assert_same_cavities(cavities)

    def test_cell_out_of_sweeps(self, annulus_mid):
        # the theta = 2.5 hybrid cell of TestHybrid: 50 sweeps, not untangled
        w = build_weights(annulus_mid, "FEM")
        target = annulus_rotation_motion(annulus_mid, 2.5).evaluate(1.0)
        warped = femwarp_step(annulus_mid, w, target)[0]
        got = untangle(warped)
        assert got[1:] == (50, "MAX_SWEEPS")
        self.assert_same_run(got, untangle_nested(warped))

    def test_point_reflection_fixture(self, annulus_14_64, reflection_untangle_result):
        want = untangle_nested(point_reflected(annulus_14_64))
        self.assert_same_run(reflection_untangle_result, want)

    def test_cavities_of_four_to_eight_triangles(self, monkeypatch):
        mesh = flipped_rectangle(0)
        eids = mesh.topology.incidence[0]
        assert {len(eids[v]) for v in mesh.interior_ids} == {4, 5, 6, 7, 8}
        assert count_reversals(mesh)[0] > 0
        got, cavities = self.visited(monkeypatch, mesh)
        assert got[2] == "SUCCESS" and got[1] > 1
        self.assert_same_run(got, untangle_nested(mesh))
        self.assert_same_cavities(cavities)

    def test_on_move_calls(self):
        warped = hybrid_seed_warp(1)
        calls = {}
        for run in (untangle, untangle_nested):
            calls[run] = []
            run(warped, max_sweeps=3, on_move=lambda *args: calls[run].append(args))
        got, want = calls[untangle], calls[untangle_nested]
        assert len(got) == 3 * 360
        assert [tuple(map(type, c)) for c in got] == [tuple(map(type, c)) for c in want]
        assert repr(got) == repr(want)


class TestMaximinReposition:
    def test_square_cavity_optimum(self):
        mesh = square_cavity([0.3, -0.2])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val = maximin_reposition(sub)
        assert np.allclose(pos, [0.0, 0.0], atol=1e-9)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_matches_grid_oracle(self):
        mesh = square_cavity([0.3, -0.2])
        others = mesh.coords[mesh.elements]
        slots = np.full(4, 2)
        _, oracle_val = grid_maximin(others, slots, [0.0, 0.0], 2.5)
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        _, val = maximin_reposition(sub)
        assert val == pytest.approx(oracle_val, abs=1e-4)

    def test_idempotent_at_optimum(self):
        mesh = square_cavity([0.0, 0.0])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val = maximin_reposition(sub)
        assert np.allclose(pos, [0.0, 0.0], atol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_recovers_reflected_vertex(self):
        mesh = reflected_cavity()
        assert count_reversals(mesh)[0] == 1
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val = maximin_reposition(sub)
        assert val > 0.0
        moved = np.array(mesh.coords)
        moved[4] = pos
        assert count_reversals(mesh.with_coords(moved))[0] == 0

    def test_never_worsens(self, rng):
        for _ in range(25):
            mesh = square_cavity(rng.uniform(-1.5, 1.5, size=2))
            sub = local_submesh(mesh, 4, [0, 1, 2, 3])
            before = tri_measures(
                sub.position, sub.elements, sub.free_slots
            ).min()
            _, after = maximin_reposition(sub)
            assert after >= before - 1e-12

    def test_first_order_optimality(self):
        mesh = square_cavity([0.4, 0.1])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val = maximin_reposition(sub)
        h = 2.0
        for step in np.array(
            [[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float
        ) * (1e-6 * h):
            perturbed = tri_measures(pos + step, sub.elements, sub.free_slots).min()
            assert perturbed <= val + 1e-9

    # the library stays silent on the array path too; only the oracle warns
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_or_overflowing_3d_cavity_stays(self, bad):
        # a ring corner of the first tet moved to +bad and one of the last
        # to -bad: non-finite coordinates, or a box past the largest float
        mesh = gen_box_tets(4, 4, 4)
        vid = mesh.interior_ids[0]
        sub = local_submesh(mesh, vid, mesh.topology.incidence[0][vid])
        elements = np.array(sub.elements)
        elements[0, (sub.free_slots[0] + 1) % 4] = bad
        elements[-1, (sub.free_slots[-1] + 1) % 4] = -bad
        sub = LocalSubmesh(sub.position, elements, sub.free_slots)
        pos, val = maximin_reposition(sub)
        want_pos, want_val = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert_same_bits(val, want_val)


class TestDualMaximin:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        spread=st.floats(0.0, 2.0),
    )
    def test_matches_simplex(self, seed, n, spread):
        sub = star_cavity(seed, n, spread)
        grads, meas, radius = array_terms(sub)
        want_x, want = _simplex_reposition(grads, meas, sub.position, radius)
        exact = _dual_maximin_2d(grads.tolist(), meas.tolist(), radius)
        assert exact is not None
        u, got = exact
        scale = max(abs(want), np.abs(meas).max())
        assert abs(got - want) <= 1e-9 * scale
        assert np.abs(sub.position + u - want_x).max() <= 1e-9 * 2 * radius
        pos, val = maximin_reposition(sub)
        assert np.array_equal(pos, sub.position + u) and val == got

    def test_rejects_a_step_outside_the_box(self):
        # nearly opposed gradients put the unboxed optimum at u = (0.50025, 500)
        grads = [[1.0, 0.0], [-1.0, 1e-6], [-1.0, -1e-6]]
        meas = [0.0, 1.0, 1.001]
        assert _dual_maximin_2d(grads, meas, 10.0) is None
        (ux, uy), val = _dual_maximin_2d(grads, meas, 1000.0)
        assert ux == pytest.approx(0.50025) and uy == pytest.approx(500.0)
        assert val == pytest.approx(0.50025)

    @pytest.mark.parametrize("name", SIMPLEX_CAVITIES)
    def test_simplex_cases_unchanged(self, name, monkeypatch):
        make, vid, want_pos, want_val = SIMPLEX_CAVITIES[name]
        mesh = make()
        sub = local_submesh(mesh, vid, mesh.topology.incidence[0][vid])
        if mesh.dim == 2:
            grads, meas, radius = array_terms(sub)
            assert _dual_maximin_2d(grads.tolist(), meas.tolist(), radius) is None
        calls = []

        def counting(*args):
            calls.append(1)
            return _simplex_reposition(*args)

        monkeypatch.setattr(untangle_module, "_simplex_reposition", counting)
        pos, val = maximin_reposition(sub)
        assert len(calls) == 1
        assert pos.tolist() == want_pos and val == want_val


class TestUntangle:
    def test_valid_mesh_short_circuit(self, annulus_coarse):
        out, sweeps, outcome = untangle(annulus_coarse)
        assert outcome == "SUCCESS" and sweeps == 0
        assert signed_measures(out).min() >= signed_measures(annulus_coarse).min()

    def test_single_reflected_vertex_one_sweep(self):
        mesh = reflected_cavity()
        out, sweeps, outcome = untangle(mesh)
        assert outcome == "SUCCESS" and sweeps == 1
        assert count_reversals(out)[0] == 0

    def test_boundary_never_moves(self, annulus_coarse):
        coords = np.array(annulus_coarse.coords)
        coords[annulus_coarse.interior_ids[:4]] *= 0.2  # tangle a few nodes
        tangled = annulus_coarse.with_coords(coords)
        out, _, _ = untangle(tangled)
        bid = annulus_coarse.boundary_ids
        assert np.array_equal(out.coords[bid], tangled.coords[bid])

    def test_per_move_monotonicity(self):
        mesh = gen_annulus(0.5, 5, 24)
        motion = annulus_rotation_motion(mesh, np.deg2rad(100.0))
        coords = np.array(mesh.coords)
        coords[mesh.boundary_ids] = motion.evaluate(1.0)
        records = []
        untangle(
            mesh.with_coords(coords),
            max_sweeps=5,
            on_move=lambda vid, before, after: records.append((before, after)),
        )
        assert records
        assert all(after >= before - 1e-12 for before, after in records)

    def test_node_in_no_element_stays(self):
        cavity = reflected_cavity()
        coords = np.vstack([cavity.coords, [0.5, 0.5]])  # interior, in no element
        mesh = Mesh(coords, cavity.elements, cavity.boundary_ids)
        out, sweeps, outcome = untangle(mesh)
        assert (sweeps, outcome) == (1, "SUCCESS")
        assert np.array_equal(out.coords[5], [0.5, 0.5])

    @pytest.mark.parametrize(
        "make, scale, want",
        [(reversed_rotation_warp, s, "SUCCESS") for s in (1e80, 1e120)]
        + [(tangled_box, 1e104, "STALLED")],
        ids=["1e+80", "1e+120", "tangled_box-1e+104"],
    )
    def test_huge_finite_coordinates(self, make, scale, want):
        # 2D: the dual value overflows to nan in many cavities this large;
        # the box test and the certificate must refuse it, not write it.
        # 3D: the measures overflow in a finite box; the cavity must stay
        mesh = make()
        out, _, outcome = untangle(mesh.with_coords(mesh.coords * scale))
        assert np.isfinite(out.coords).all()
        assert outcome == want

    def test_point_reflection_fixture_fails(self, reflection_untangle_result):
        out, sweeps, outcome = reflection_untangle_result
        assert outcome != "SUCCESS"
        assert count_reversals(out)[0] > 0

    @pytest.mark.parametrize("name", UNTANGLE_EXITS)
    def test_exit_outcomes(self, name):
        make, max_sweeps, sweeps, outcome = UNTANGLE_EXITS[name]
        assert untangle(make(), max_sweeps=max_sweeps)[1:] == (sweeps, outcome)

    def test_vertex_to_elements(self, annulus_coarse):
        incident, _ = annulus_coarse.topology.incidence
        for vid in (0, int(annulus_coarse.interior_ids[0])):
            for eid in incident[vid]:
                assert vid in annulus_coarse.elements[eid]

    def test_vertex_to_elements_matches_loop(self, box_mesh):
        want = [[] for _ in range(box_mesh.n_nodes)]
        for eid, elem in enumerate(box_mesh.elements):
            for slot, v in enumerate(elem):
                want[v].append((eid, slot))
        eids, slots = box_mesh.topology.incidence
        assert len(eids) == len(slots) == box_mesh.n_nodes
        got = [list(zip(e.tolist(), s.tolist())) for e, s in zip(eids, slots)]
        assert got == want

    def test_cli_untangle_report_carries_quality(self):
        mesh = reflected_cavity()
        identity = AffineMotion(mesh, np.eye(2), np.zeros(2))
        fixed, rep = run_algorithm(mesh, {"algorithm": "untangle"}, identity)
        assert rep.success and rep.n_factorizations == 0
        assert rep.quality == quality_report(fixed)


class TestHybrid:
    def test_equals_femwarp_when_untangled(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(annulus_coarse, 0.3)
        target = motion.evaluate(1.0)
        direct, drep = femwarp_step(annulus_coarse, w, target)
        hybrid, hrep = hybrid_warp(annulus_coarse, w, target)
        assert drep.success and hrep.success
        assert np.array_equal(direct.coords, hybrid.coords)

    def test_succeeds_where_femwarp_fails(self, annulus_mid):
        w = build_weights(annulus_mid, "FEM")
        motion = annulus_rotation_motion(
            annulus_mid, np.deg2rad(30.0), np.deg2rad(90.0)
        )
        target = motion.evaluate(1.0)
        _, drep = femwarp_step(annulus_mid, w, target)
        assert not drep.success
        fixed, hrep = hybrid_warp(annulus_mid, w, target)
        assert hrep.success
        assert count_reversals(fixed)[0] == 0

    def test_builds_one_topology(self, topology_builds):
        # build_weights builds it; the warped mesh and untangle share it
        mesh = gen_annulus(0.5, 6, 24)
        motion = annulus_rotation_motion(mesh, 0.0, np.deg2rad(90.0))
        _, hrep = hybrid_warp(mesh, build_weights(mesh, "FEM"), motion.evaluate(1.0))
        assert hrep.success and hrep.steps[0].reversals > 0
        assert len(topology_builds) == 1 and topology_builds[0] is mesh

    def test_untangled_report_carries_quality(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(annulus_coarse, 0.0, np.deg2rad(90.0))
        target = motion.evaluate(1.0)
        assert not femwarp_step(annulus_coarse, w, target)[1].success
        fixed, hrep = hybrid_warp(annulus_coarse, w, target)
        assert hrep.success and hrep.n_factorizations == 1
        assert hrep.quality == quality_report(fixed)

    def test_success_is_not_recounted(self, annulus_coarse, monkeypatch):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(annulus_coarse, 0.0, np.deg2rad(90.0))
        target = motion.evaluate(1.0)
        warped, _ = femwarp_step(annulus_coarse, w, target)
        _, sweeps, outcome = untangle(warped)
        assert outcome == "SUCCESS" and sweeps > 0
        calls = []

        def counting(mesh):
            calls.append(1)
            return count_reversals(mesh)

        monkeypatch.setattr(untangle_module, "count_reversals", counting)
        _, hrep = hybrid_warp(annulus_coarse, w, target)
        # one exit check before each sweep and one after the last
        assert hrep.success and hrep.reversals == 0
        assert len(calls) == sweeps + 1

    def test_never_worse_than_one_shot(self, annulus_mid):
        # 50 sweeps leave 640 reversals on this cell's 216 one-shot ones
        w = build_weights(annulus_mid, "FEM")
        target = annulus_rotation_motion(annulus_mid, 2.5).evaluate(1.0)
        warped, drep = femwarp_step(annulus_mid, w, target)
        assert drep.reversals == 216
        out, hrep = hybrid_warp(annulus_mid, w, target)
        assert hrep.reversals <= 216
        assert hrep.reversals == count_reversals(out)[0]

    def test_reports_failure_honestly(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(
            annulus_coarse, np.deg2rad(0.0), np.deg2rad(180.0)
        )
        _, hrep = hybrid_warp(annulus_coarse, w, motion.evaluate(1.0))
        assert hrep.outcome == "REVERSED"
        assert hrep.reversals > 0
