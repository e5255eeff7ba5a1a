"""Maximin LP repositioning, sweeps, and the warp/untangle hybrid."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from importlib import import_module
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from femwarp import (
    Mesh,
    annulus_rotation_motion,
    femwarp_step,
    gen_annulus,
    gen_box_tets,
)
from femwarp.assembly import build_weights
from femwarp.cli import run_algorithm
from femwarp.mesh import count_reversals, quality_report, signed_measures
from femwarp.untangle import (
    BOX_FACTOR,
    KERNEL_MAX,
    LocalSubmesh,
    _measure_terms,
    _simplex_reposition,
    hybrid_warp,
    maximin_reposition,
    untangle,
)
from femwarp.warp import AffineMotion

import oracles
from conftest import flipped_rectangle, jittered
from oracles import (
    array_terms,
    bumped_measure_coeffs,
    cavity_arrays,
    grid_maximin,
    local_submesh,
    maximin_reposition_by_arrays,
    maximin_reposition_nested,
    nested_best_triple,
    nested_dual_maximin_2d,
    nested_reposition_2d,
    no_worse,
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
# pinned bit for bit under every OpenBLAS kernel: these cavities must keep
# taking the simplex path)
SIMPLEX_CAVITIES = {
    "open_fan_2d": (open_fan, 4, [10.549999999999997, 20.3], 6.1499999999999995),
    "box_tet_3d": (shifted_box, 13, [0.5, 0.5, 0.5], 0.02083333333333333),
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
    return LocalSubmesh.from_arrays(np.array(tris, dtype=float), slots)


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
            grads, meas = _measure_terms(sub.elements, sub.slots)
            consts = meas - grads @ sub.position
            want_g, want_c = bumped_measure_coeffs(sub)
            assert np.abs(grads - want_g).max() <= 1e-12 * np.abs(want_g).max()
            assert np.abs(consts - want_c).max() <= 1e-12 * np.abs(want_c).max()
            slots = (np.arange(len(grads)), sub.free_slots)
            assert np.array_equal(stack_measure_gradients(sub.elements)[slots], grads)


class TestFloatTerms2d:
    """The 2D kernels, whose terms are built in Python floats, return what
    :func:`oracles.nested_reposition_2d` returns on the terms of the array
    kernels: by ``repr``, which tells -0.0 from 0.0 and a numpy float from a
    Python one."""

    @settings(max_examples=300, deadline=None)
    @given(sub=random_cavities())
    def test_matches_array_kernels_bitwise(self, sub):
        want = repr(nested_reposition_2d(sub))
        assert repr(kernel(len(sub.slots))(sub.flat, sub.slots)) == want

    def test_every_slot_and_orientation(self):
        # each slot with a positive, a reversed and a degenerate triangle,
        # and the free vertex on a grid around them
        a, b = [1.1, 0.2], [0.4, 0.9]
        kinds = {"positive": (a, b), "reversed": (b, a), "degenerate": (a, a)}
        pairs = [pair for pair in kinds.values() for _ in range(3)]
        sub = fan_cavity([0.3, -0.7], pairs, [0, 1, 2] * 3)
        signs = np.sign(_measure_terms(sub.elements, sub.slots)[1]).tolist()
        assert signs == [1.0] * 3 + [-1.0] * 3 + [0.0] * 3
        for free in [[x, y] for x in (-1.5, 0.3, 0.75, 2.0) for y in (-0.7, 0.55, 1.5)]:
            sub = fan_cavity(free, pairs, [0, 1, 2] * 3)
            assert repr(kernel(9)(sub.flat, sub.slots)) == repr(nested_reposition_2d(sub))

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
        sub = LocalSubmesh.from_arrays(elements, sub.free_slots)
        pos, val, start = maximin_reposition(sub)
        want_pos, want_val, want_start = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert_same_bits(val, want_val)
        assert_same_bits(start, want_start)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_box_stays(self):
        # a star cavity whose LP the dual certifies, and two triangles with
        # finite coordinates and measures that take the box diameter past
        # the largest float
        sub = star_cavity(3, 6, 0.5)
        x, y = sub.position.tolist()
        far = [[[1e308, y], [1e308, y + 1.0]], [[-1e308, y], [-1e308, y - 1.0]]]
        outer = fan_cavity([x, y], far, [0, 0])
        sub = LocalSubmesh.from_arrays(
            np.concatenate([sub.elements, outer.elements]),
            np.concatenate([sub.free_slots, outer.free_slots]),
        )
        grads, meas, radius = array_terms(sub)
        grads, meas = grads.tolist(), meas.tolist()
        assert np.isfinite(sum(meas)) and radius == np.inf
        assert nested_dual_maximin_2d(grads, meas, 1e308) is not None
        pos, val, start = maximin_reposition(sub)
        want_pos, want_val, want_start = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert val == want_val == start == want_start == min(meas)


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
            cavities.append(sub)
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
            # repr tells -0.0 from 0.0 and keeps None
            n = len(sub.slots)
            if n <= KERNEL_MAX:
                assert repr(kernel(n)(sub.flat, sub.slots)) == repr(nested_reposition_2d(sub))
            assert repr(maximin_reposition(sub)) == repr(maximin_reposition_nested(sub))

    @pytest.mark.parametrize("n", [*range(3, 11), 25])
    def test_triples_in_combinations_order(self, n):
        # a fan around a free vertex at the origin whose gradients are
        # (1, 0) and (-1, 0) with measure 1, and (gx, b) with measure
        # 1 + 4|b|, all exact in floats: the LP's optimum 1 is reached on
        # u = (0, t), |t| <= 4, every triple (0, 1, k) holds the origin with
        # value exactly 1 and meets at u = (0, -4) for b > 0 and (0, 4) for
        # b < 0, and the first of them in combinations order must win
        tilts = [(1.0, 2.0), (-1.0, -0.5), (0.5, 1.0), (0.0, -2.0), (-1.0, 0.5), (1.0, -1.0)]
        grads = [(1.0, 0.0), (-1.0, 0.0), (0.5, 1.0)]
        grads += [tilts[k % len(tilts)] for k in range(n - 4)] + [(0.0, -1.0)] * (n > 3)
        meas = [1.0, 1.0] + [1.0 + 4.0 * abs(b) for _, b in grads[2:]]
        # the triangle (0, a, a + 2 (gy, -gx)) with slot 0 has gradient
        # (gx, gy) and measure -(gx, gy) @ a
        anchors = [(0.0, -m / gy) if gy else (-m / gx, 0.0) for (gx, gy), m in zip(grads, meas)]
        tris = [
            [[0.0, 0.0], [ax, ay], [ax + 2.0 * gy, ay - 2.0 * gx]]
            for (gx, gy), (ax, ay) in zip(grads, anchors)
        ]
        sub = LocalSubmesh.from_arrays(tris, [0] * n)
        terms = _measure_terms(sub.elements, sub.slots)
        assert terms[0].tolist() == [list(g) for g in grads] and terms[1].tolist() == meas

        # the holding triples and their values and steps, in exact arithmetic
        g = [(Fraction(gx), Fraction(gy)) for gx, gy in grads]
        m = [Fraction(x) for x in meas]

        def cross(a, b):
            return g[a][0] * g[b][1] - g[a][1] * g[b][0]

        steps = []
        for i, j, l in combinations(range(n), 3):
            w = (cross(j, l), cross(l, i), cross(i, j))
            area = sum(w)
            if area and all(x * area >= 0 for x in w):
                ax, ay = g[i][0] - g[l][0], g[i][1] - g[l][1]
                bx, by = g[j][0] - g[l][0], g[j][1] - g[l][1]
                ra, rb, det = m[l] - m[i], m[l] - m[j], ax * by - ay * bx
                u = ((ra * by - rb * ay) / det, (ax * rb - bx * ra) / det)
                steps.append(((w[0] * m[i] + w[1] * m[j] + w[2] * m[l]) / area, u))
        best = min(value for value, _ in steps)
        tied = [u for value, u in steps if value == best]
        assert best == 1
        if n > 3:
            # at least two tied triples with different steps
            assert len(set(tied)) == 2 and tied[0] != tied[-1]
        if n <= KERNEL_MAX:
            want = ((float(tied[0][0]), float(tied[0][1])), 1.0, 1.0)
            got = kernel(n)(sub.flat, sub.slots)
            assert got == want and repr(got) == repr(nested_reposition_2d(sub))
        else:
            # the simplex takes the cavity: the optimum 1 at a point of the
            # optimal face, the free vertex being at the origin
            (ux, uy), val, _ = maximin_reposition(sub)
            tol = 1e-9 * max(meas)
            assert abs(val - 1.0) <= tol
            assert abs(ux) <= tol and abs(uy) <= 4.0 + tol

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
        # untangle_nested measures each cavity again from arrays for
        # min_before: the independent reference for the minimum that the
        # reposition returns with its move
        warped = hybrid_seed_warp(1)
        calls = {}
        for run in (untangle, untangle_nested):
            calls[run] = []
            run(warped, max_sweeps=3, on_move=lambda *args: calls[run].append(args))
        got, want = calls[untangle], calls[untangle_nested]
        assert len(got) == 3 * 360
        assert all(type(vid) is int for vid, _, _ in got)

        def as_floats(calls):
            # repr tells -0.0 from 0.0
            return repr([(vid, float(before), float(after)) for vid, before, after in calls])

        assert as_floats(got) == as_floats(want)


def assert_python_floats(pos, d):
    assert type(pos) is tuple and len(pos) == d
    assert all(type(x) is float for x in pos)


class TestSweepContract:
    """``untangle`` looks ``maximin_reposition`` up through the module once
    per vertex per sweep, on a cavity whose arrays are those of the mesh at
    that moment, and every route of the reposition returns its position as
    a tuple of d Python floats."""

    @pytest.mark.parametrize(
        "make",
        [lambda: hybrid_seed_warp(1), lambda: flipped_rectangle(0)],
        ids=["hybrid_seed_1", "flipped_rectangle_0"],
    )
    def test_on_move_measures_no_cavity_again(self, monkeypatch, make):
        # every cavity of these meshes takes its kernel, which returns the
        # minimum before the move with the move
        mesh = make()
        calls, moves = [], []

        def counting(*args):
            calls.append(args)
            return _measure_terms(*args)

        monkeypatch.setattr(untangle_module, "_measure_terms", counting)
        untangle(mesh, max_sweeps=3, on_move=lambda *args: moves.append(args))
        assert moves and not calls

    @pytest.mark.parametrize("make", [lambda: hybrid_seed_warp(1), tangled_box])
    def test_one_call_per_vertex_per_sweep(self, monkeypatch, make):
        mesh = make()
        eids = mesh.topology.incidence[0]
        order = [vid for vid in mesh.interior_ids if len(eids[vid])]
        coords = np.array(mesh.coords)
        calls = []

        def recording(sub):
            vid = order[len(calls) % len(order)]
            want = cavity_arrays(coords, mesh.elements, vid, eids[vid])
            for got, array in zip((sub.position, sub.elements, sub.free_slots), want):
                assert got.dtype == array.dtype and got.shape == array.shape
                assert got.tobytes() == array.tobytes()
            assert all(type(x) is float for x in sub.flat)
            out = maximin_reposition(sub)
            assert_python_floats(out[0], mesh.dim)
            calls.append(vid)
            coords[vid] = out[0]
            return out

        monkeypatch.setattr(untangle_module, "maximin_reposition", recording)
        out, sweeps, outcome = untangle(mesh)
        assert outcome == "SUCCESS" and len(calls) == sweeps * len(order)
        if mesh.dim == 2:
            assert (sweeps, len(calls)) == (13, 4680)
        assert_same_bits(out.coords, coords)

    @pytest.mark.parametrize("make", [lambda: hybrid_seed_warp(1), tangled_box])
    def test_one_submesh_per_cavity(self, monkeypatch, make):
        mesh = make()
        built = []

        class Counting(LocalSubmesh):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(untangle_module, "LocalSubmesh", Counting)
        _, sweeps, outcome = untangle(mesh)
        assert outcome == "SUCCESS" and sweeps > 1
        assert 0 < len(built) <= len(mesh.interior_ids)

    def test_each_call_sees_its_sweeps_coordinates(self, monkeypatch):
        # the cavity object is kept across sweeps, so a copy of its flat
        # coordinates is taken inside each call and compared with the
        # cavities that untangle_nested builds afresh from its arrays
        warped = hybrid_seed_warp(1)
        seen = {}

        def recording(name, solve):
            seen[name] = []

            def wrapper(sub):
                seen[name].append((tuple(sub.flat), tuple(sub.slots)))
                return solve(sub)

            return wrapper

        monkeypatch.setattr(
            untangle_module, "maximin_reposition", recording("sweep", maximin_reposition)
        )
        monkeypatch.setattr(
            oracles, "maximin_reposition_nested", recording("nested", maximin_reposition_nested)
        )
        untangle(warped)
        untangle_nested(warped)
        assert len(seen["sweep"]) == 13 * 360
        # repr tells -0.0 from 0.0
        assert repr(seen["sweep"]) == repr(seen["nested"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_route_returns_python_floats(self):
        # the kernel cavities take every 2D route: a step, the stays and each
        # way the dual declines to the simplex; fans above the cap take the
        # simplex, and the 3D cavities the simplex or the non-finite stay
        subs = [
            LocalSubmesh(flat, slots, 2)
            for n in range(3, KERNEL_MAX + 1)
            for flat, slots in kernel_cavities(n)
        ]
        subs += [star_cavity(seed, n, 0.5) for seed in range(3) for n in (12, 25)]
        box = shifted_box()
        box_sub = local_submesh(box, 13, box.topology.incidence[0][13])
        elements = np.array(box_sub.elements)
        elements[0, (box_sub.free_slots[0] + 1) % 4] = np.inf
        subs += [box_sub, LocalSubmesh.from_arrays(elements, box_sub.free_slots)]
        for sub in subs:
            pos, _, _ = maximin_reposition(sub)
            assert_python_floats(pos, sub.dim)


def box_cavity():
    """The cavity of the one interior node of :func:`shifted_box`."""
    box = shifted_box()
    return local_submesh(box, 13, box.topology.incidence[0][13])


def with_nan(sub):
    """``sub`` with the first coordinate of a ring corner of its first
    element replaced by nan."""
    elements = np.array(sub.elements)
    elements[0, (sub.free_slots[0] + 1) % (sub.dim + 1), 0] = np.nan
    return LocalSubmesh.from_arrays(elements, sub.free_slots)


# name -> the cavities of one route that is not a kernel's, all taking the
# simplex but the nan ones, which stay
START_CAVITIES = {
    "above_the_cap": lambda: [star_cavity(seed, n, 0.5) for seed in range(3) for n in (12, 25)],
    "3d": lambda: [box_cavity()],
    "nan_2d": lambda: [with_nan(star_cavity(3, 6, 0.5))],
    "nan_3d": lambda: [with_nan(box_cavity())],
}


class TestStartValue:
    """The third value of :func:`maximin_reposition`, the cavity's minimum
    measure at the current position, equals the minimum of
    :func:`oracles.array_terms` on every route, and is nan where that is."""

    @staticmethod
    def start(sub):
        got = maximin_reposition(sub)[2]
        want = array_terms(sub)[1].min()
        # equal floats are the same bits but for zero: the kernels take
        # Python's min, which keeps the first of 0.0 and -0.0, and numpy's
        # min may pick the other
        assert got == want or math.isnan(got) and math.isnan(want)
        return got

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_routes(self):
        # a step, a stay, each way the dual declines to the simplex, and a
        # cavity that is not finite
        starts = {}
        for n in range(3, KERNEL_MAX + 1):
            for flat, slots in kernel_cavities(n):
                start = self.start(LocalSubmesh(flat, slots, 2))
                starts.setdefault(route_kind(flat, slots), []).append(start)
        assert set(starts) == {
            "step",
            "stay",
            "non-finite",
            "no triple",
            "zero det",
            "box",
            "certificate",
        }
        assert any(math.isnan(x) for x in starts["non-finite"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", START_CAVITIES)
    def test_other_routes(self, name):
        for sub in START_CAVITIES[name]():
            start = self.start(sub)
            assert math.isnan(start) == name.startswith("nan")


# coordinates on a small grid make repeated points, collinear edges, zero and
# -0.0 differences common; the rest are uniform
GRID = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0]
# the values that replace one coordinate of a cavity now and then
NON_FINITE_OR_HUGE = [math.inf, -math.inf, math.nan, 1e308, -1e308]


def kernel_cavity(rng, n):
    """A 2D cavity of ``n`` triangles (free, a, b), each rotated so that the
    free vertex sits in a random slot, as its raveled coordinates and its
    slots, both lists.

    ``b`` is ``a`` (a degenerate triangle), a random point (either
    orientation), or the origin-based ``t * (dx, dy)`` with ``a`` at the
    origin, so that gradients of several triangles lie on one line through
    the origin and a triple's ``det`` can be zero.  Some cavities are
    scaled and shifted, so that rounding at large measures can fail the
    certificate or the no-worse rule, and some have one coordinate replaced
    by a non-finite or huge value."""

    def point():
        if rng.random() < 0.5:
            return [GRID[rng.integers(len(GRID))] for _ in range(2)]
        return rng.uniform(-2.0, 2.0, size=2).tolist()

    d = rng.integers(1, 9, size=2) * rng.choice([-1, 1], size=2)
    pairs = []
    for _ in range(n):
        r = rng.random()
        if r < 0.1:
            a = point()
            pairs.append((a, a))
        elif r < 0.3:
            t = float(rng.uniform(-3.0, 3.0))
            pairs.append(([0.0, 0.0], [t * float(d[0]), t * float(d[1])]))
        else:
            pairs.append((point(), point()))
    slots = rng.integers(0, 3, size=n).tolist()
    sub = fan_cavity(point(), pairs, slots)
    elements = sub.elements
    if rng.random() < 0.3:
        elements = elements * float(rng.choice([1e-3, 1e3, 1e5])) + float(rng.choice([0.0, 1e6]))
    if rng.random() < 0.05:
        elements = np.array(elements)
        elements[rng.integers(n), rng.integers(3), rng.integers(2)] = NON_FINITE_OR_HUGE[
            rng.integers(len(NON_FINITE_OR_HUGE))
        ]
    return elements.ravel().tolist(), slots


def route_kind(flat, slots):
    """Which way the 2D route takes a cavity, read from the oracle's terms:
    a step, a stay (no-worse or non-finite), or the reason the dual
    declines it."""
    grads, meas, radius = array_terms(LocalSubmesh(flat, slots, 2))
    grads, meas = grads.tolist(), meas.tolist()
    if not (math.isfinite(radius) and math.isfinite(sum(meas))):
        return "non-finite"
    exact = nested_dual_maximin_2d(grads, meas, radius)
    if exact is not None:
        return "stay" if exact[1] < min(meas) - 1e-12 else "step"
    best = nested_best_triple(grads, meas)
    if best is None:
        return "no triple"
    if nested_dual_maximin_2d(grads, meas, math.inf) is not None:
        return "box"
    (gx, gy), (hx, hy), (kx, ky) = (grads[t] for t in best[1:])
    return "zero det" if (gx - kx) * (hy - ky) - (gy - ky) * (hx - kx) == 0.0 else "certificate"


def kernel_cavities(n):
    """The flat coordinates and slots of 400 seeded :func:`kernel_cavity`
    draws of ``n`` triangles."""
    rng = np.random.default_rng(3000 + n)
    for _ in range(400):
        yield kernel_cavity(rng, n)


def kernel(n):
    return untangle_module._KERNELS.get(n) or untangle_module._build_kernel(n)


class TestTripleKernels:
    """The per-size kernels of :func:`untangle._build_kernel` return what
    :func:`oracles.nested_reposition_2d` returns, they are built lazily, and
    cavities above ``KERNEL_MAX`` take the simplex."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", range(3, KERNEL_MAX + 1))
    def test_matches_loop_and_nested_dual(self, n):
        for flat, slots in kernel_cavities(n):
            sub = LocalSubmesh(flat, slots, 2)
            # repr tells -0.0 from 0.0, nan from None and a numpy float
            want = repr(nested_reposition_2d(sub))
            assert repr(kernel(n)(flat, slots)) == want
            assert repr(maximin_reposition(sub)) == repr(maximin_reposition_nested(sub))

    def test_every_route_is_taken(self):
        # the cavities of test_matches_loop_and_nested_dual take each way
        # through the kernels: a step, both stays, each way the dual declines
        kinds = {
            route_kind(flat, slots)
            for n in range(3, KERNEL_MAX + 1)
            for flat, slots in kernel_cavities(n)
        }
        assert kinds == {
            "step",
            "stay",
            "non-finite",
            "no triple",
            "zero det",
            "box",
            "certificate",
        }

    def test_every_slot_and_orientation(self):
        # the cavity of TestFloatTerms2d: each slot with a positive, a
        # reversed and a degenerate triangle
        a, b = [1.1, 0.2], [0.4, 0.9]
        kinds = {"positive": (a, b), "reversed": (b, a), "degenerate": (a, a)}
        pairs = [pair for pair in kinds.values() for _ in range(3)]
        for free in ([0.3, -0.7], [0.7, 0.6]):
            sub = fan_cavity(free, pairs, [0, 1, 2] * 3)
            want = repr(nested_reposition_2d(sub))
            assert repr(kernel(9)(sub.flat, sub.slots)) == want
            assert repr(maximin_reposition(sub)) == repr(maximin_reposition_nested(sub))

    def test_first_minimum_among_ties(self):
        # the four axis gradients with measures 1, 1, 5, 5: the triples
        # (0, 1, 2) and (0, 1, 3) both reach the optimum 1.0, at the corners
        # u = (0, -4) and (0, 4) of its optimal face; the first one wins
        grads = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        flat = []
        for (gx, gy), m in zip(grads, [1.0, 1.0, 5.0, 5.0]):
            # (free, origin, (2*gy, -2*gx)) with slot 0 has gradient (gx, gy),
            # and its measure is free @ (gx, gy)
            flat += [m * gx, m * gy, 0.0, 0.0, 2.0 * gy, -2.0 * gx]
        want = kernel(4)(flat, [0] * 4)
        assert repr(nested_reposition_2d(LocalSubmesh(flat, [0] * 4, 2))) == repr(want)
        # the first triple's corner; the second's is (1.0, 4.0)
        assert want == ((1.0, -4.0), 1.0, 1.0)

    @pytest.mark.parametrize("n", [12, 25])
    def test_fans_above_the_cap_match_nested(self, n):
        # the simplex reaches the optimum that the nested dual certifies
        assert n > KERNEL_MAX
        cavities = [star_cavity(seed, n, spread) for seed in range(6) for spread in (0.3, 2.0)]
        TestSweepMatchesNested.assert_same_cavities(cavities)
        assert any(route_kind(sub.flat, sub.slots) == "step" for sub in cavities)
        for sub in cavities:
            grads, meas, radius = array_terms(sub)
            _, want = nested_dual_maximin_2d(grads.tolist(), meas.tolist(), radius)
            _, got, _ = maximin_reposition(sub)
            assert abs(got - want) <= 1e-9 * max(abs(want), np.abs(meas).max())
        assert n not in untangle_module._KERNELS

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(KERNEL_MAX + 1, 16),
        spread=st.floats(0.0, 2.0),
    )
    @example(seed=7, n=200, spread=0.5)
    def test_fans_above_the_cap_take_the_simplex(self, seed, n, spread):
        sub = star_cavity(seed, n, spread)
        grads, meas, radius = array_terms(sub)

        def refuse(size):
            raise AssertionError(f"a kernel built for {size} elements")

        built = set(untangle_module._KERNELS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(untangle_module, "_build_kernel", refuse)
            _, got, _ = maximin_reposition(sub)
        assert set(untangle_module._KERNELS) == built
        assert got >= meas.min()
        exact = nested_dual_maximin_2d(grads.tolist(), meas.tolist(), radius)
        if exact is not None:
            assert abs(got - exact[1]) <= 1e-9 * np.abs(meas).max()

    def test_import_builds_no_kernel(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, femwarp; print(sys.modules['femwarp.untangle']._KERNELS)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "{}\n"

    def test_built_once_per_size_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(untangle_module, "_KERNELS", {})
        build = untangle_module._build_kernel
        built = []

        def counting(n):
            built.append(n)
            return build(n)

        monkeypatch.setattr(untangle_module, "_build_kernel", counting)
        for n in [*range(1, KERNEL_MAX + 3)] * 2:
            maximin_reposition(star_cavity(n, n, 0.5))
        # a 3D cavity builds none
        box = shifted_box()
        maximin_reposition(local_submesh(box, 13, box.topology.incidence[0][13]))
        assert built == list(range(1, KERNEL_MAX + 1))
        assert sorted(untangle_module._KERNELS) == built


def gradient_fan(grads, meas, slots):
    """The cavity around a free vertex at the origin whose triangle k, with
    the free vertex in slot ``slots[k]``, has the measure gradient
    ``grads[k]`` and the measure ``meas[k]``: the triangle (0, a, a + 2 (gy,
    -gx)) with ``a`` on an axis, exact for these small or power-of-ten
    values."""
    pairs = []
    for (gx, gy), m in zip(grads, meas):
        ax, ay = (0.0, -m / gy) if gy else (-m / gx, 0.0)
        pairs.append(([ax, ay], [ax + 2.0 * gy, ay - 2.0 * gx]))
    return fan_cavity([0.0, 0.0], pairs, slots)


def zero_weight_cavity(n, side):
    """A cavity of ``n`` triangles whose first triple (0, 1, 2) holds the
    origin on its edge from G_0 = (1, 0) to G_1 = (-1, 0): its weight
    G_0 x G_1 is exactly 0.0 and the other two are -1 (``side`` -1, G_2 =
    (0, 1)) or 1 (``side`` 1, G_2 = (0, -1)).  The triple's value 2 is the
    optimum, reached at u = (1, 0); each further triangle's gradient (0,
    2 side) makes another such triple, tied and later."""
    grads = [(1.0, 0.0), (-1.0, 0.0), (0.0, -side)] + [(0.0, -2.0 * side)] * (n - 3)
    meas = [1.0, 3.0, 2.0] + [5.0 + k for k in range(n - 3)]
    return gradient_fan(grads, meas, [k % 3 for k in range(n)])


def all_zero_weight_cavity(n):
    """A cavity of ``n`` triangles whose first triple has the gradients (1,
    0), (-1, 0) and (2, 0) on one line through the origin, so all three of
    its weights are 0.0; the further triangles' gradients (0, 1), (0, -1),
    ... make triples that hold the origin."""
    grads = [(1.0, 0.0), (-1.0, 0.0), (2.0, 0.0)]
    grads += [(0.0, (1.0 + k // 2) * (-1.0) ** k) for k in range(n - 3)]
    meas = [1.0, 3.0, 2.0] + [4.0 + k for k in range(n - 3)]
    return gradient_fan(grads, meas, [(2 * k) % 3 for k in range(n)])


def nan_cross_cavity(n):
    """A cavity of ``n`` triangles with finite coordinates and measures whose
    first two gradients (5e199, -5e199) and (5e199, -1e200) have the cross
    product -inf + inf = nan, so every triple holding both has a nan weight
    and comes first; with G_2 = (1, -1.5) the first one's other two weights
    are positive.  From six triangles on, the optimum 2 is at the free
    vertex, where (1, 0), (-1, 3) and (-1, -1) hold the origin with measure
    2 each; no two gradients are parallel, and every other triple's value
    is above 2.  The long triangles keep the free vertex in slot 0, where
    their measures are finite."""
    grads = [(0.5e200, -0.5e200), (0.5e200, -1e200), (1.0, -1.5)]
    grads += [(1.0, 0.0), (-1.0, 3.0), (-1.0, -1.0), (0.0, 1.0), (2.0, 1.0), (-2.0, 1.0)]
    meas = [1e200, 1e200, 3.0, 2.0, 2.0, 2.0, 4.0, 5.0, 6.0]
    return gradient_fan(grads[:n], meas[:n], [0, 0] + [k % 3 for k in range(n - 2)])


class TestSignFirstTriples:
    """The kernels test each triple's weights' signs before its area: a zero
    weight is accepted beside two of one sign, three zero weights are not,
    and a nan weight never is; pinned against
    :func:`oracles.nested_reposition_2d` for every size up to the cap, and
    ``maximin_reposition`` against :func:`oracles.maximin_reposition_nested`
    on the nan-weight cavity."""

    @staticmethod
    def pinned(sub):
        n = len(sub.slots)
        got = kernel(n)(sub.flat, sub.slots)
        assert repr(got) == repr(nested_reposition_2d(sub))
        grads, meas, _ = array_terms(sub)
        return got, nested_best_triple(grads.tolist(), meas.tolist())

    @pytest.mark.parametrize("side", [-1, 1], ids=["negative", "positive"])
    @pytest.mark.parametrize("n", range(3, KERNEL_MAX + 1))
    def test_zero_weight_accepted(self, n, side):
        sub = zero_weight_cavity(n, side)
        grads = array_terms(sub)[0].tolist()
        (gx, gy), (hx, hy), (kx, ky) = grads[:3]
        weights = (hx * ky - hy * kx, kx * gy - ky * gx, gx * hy - gy * hx)
        assert weights == (side, side, 0.0)
        got, best = self.pinned(sub)
        assert best == (2.0, 0, 1, 2)
        assert got == ((1.0, 0.0), 2.0, 1.0) == maximin_reposition(sub)

    @pytest.mark.parametrize("n", range(3, KERNEL_MAX + 1))
    def test_all_zero_weights_rejected(self, n):
        got, best = self.pinned(all_zero_weight_cavity(n))
        if n == 3:
            assert got is None and best is None
        else:
            assert best is not None and best[1:] != (0, 1, 2)

    @pytest.mark.parametrize("n", range(3, KERNEL_MAX + 1))
    def test_nan_weight_rejected(self, n):
        sub = nan_cross_cavity(n)
        grads, meas, _ = array_terms(sub)
        assert np.isfinite(sub.elements).all() and np.isfinite(meas).all()
        (gx, gy), (hx, hy), (kx, ky) = grads[:3].tolist()
        assert math.isnan(gx * hy - gy * hx)
        assert hx * ky - hy * kx > 0.0 and kx * gy - ky * gx > 0.0
        got, best = self.pinned(sub)
        if n < 6:
            assert got is None and best is None
        else:
            assert best == (2.0, 3, 4, 5) and got[1:] == (2.0, 2.0)

    @pytest.mark.parametrize("n", range(3, KERNEL_MAX + 1))
    def test_nan_weight_cavity_matches_nested(self, n):
        # below six triangles the kernel declines and the simplex on terms
        # near 1e200 overflows, so the library and the oracle keep the
        # vertex in place without a numpy warning; from six on it is the
        # optimum
        sub = nan_cross_cavity(n)
        got = maximin_reposition(sub)
        assert repr(got) == repr(maximin_reposition_nested(sub))
        assert got[0] == sub.point


def opposed_cavity(top, delta):
    """Three triangles around a free vertex at the origin with the nearly
    opposed gradients (1, 0), (-1, 1e-6) and (-1, -1e-6) and measures 0, 1
    and 1 + ``delta``: the unboxed optimum is u = (0.5 + delta/4,
    delta/2e-6).  The first triangle's opposite edge runs from (0, top) to
    (0, top - 2), so the kernel's lower bound on the box radius is 20."""
    tris = [
        [[0.0, 0.0], [0.0, top], [0.0, top - 2.0]],
        [[0.0, 0.0], [1.0, 0.0], [1.0 + 2e-6, 2.0]],
        [[0.0, 0.0], [1.0 + delta, 0.0], [1.0 + delta - 2e-6, 2.0]],
    ]
    return LocalSubmesh.from_arrays(tris, [0, 0, 0])


def far_reflected_cavity():
    """The cavity of :func:`reflected_cavity` with x scaled by 2**968 and
    translated by 2**1020 and y scaled by 2**-960, all exact: its
    coordinates reach past 8e306, its box radius (20 * 2**968) and its
    dual's terms stay finite."""
    mesh = reflected_cavity()
    elements = np.array(mesh.coords[mesh.elements])
    elements[..., 0] = elements[..., 0] * 2.0**968 + 2.0**1020
    elements[..., 1] *= 2.0**-960
    return LocalSubmesh.from_arrays(elements, [2] * 4)


def overflowing_extent_cavity():
    """A star cavity and two triangles with finite coordinates and measures
    at x = 1e308 and -1e308, which take the box diameter past the largest
    float."""
    sub = star_cavity(3, 6, 0.5)
    x, y = sub.point
    far = [[[1e308, y], [1e308, y + 1.0]], [[-1e308, y], [-1e308, y - 1.0]]]
    outer = fan_cavity([x, y], far, [0, 0])
    return LocalSubmesh.from_arrays(
        np.concatenate([sub.elements, outer.elements]),
        np.concatenate([sub.free_slots, outer.free_slots]),
    )


def box_lower_bound(sub):
    """``BOX_FACTOR`` times the larger component of the first element's
    edge opposite the free vertex, or 1e-12: the kernels' lower bound on the
    box radius."""
    a, b = np.delete(sub.elements[0], sub.free_slots[0], axis=0)
    return BOX_FACTOR * max(np.abs(b - a).max(), 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBoxBound:
    """The kernels test the step against a lower bound on the box radius and
    bound the radius through ``hypot``, and scan the cavity for the radius
    only when those cannot decide.  Each way returns what the array route
    returns, by ``repr``."""

    @staticmethod
    def assert_same_as_arrays(sub):
        got = kernel(len(sub.slots))(sub.flat, sub.slots)
        assert repr(got) == repr(nested_reposition_2d(sub))
        assert repr(maximin_reposition(sub)) == repr(maximin_reposition_nested(sub))
        return got

    @staticmethod
    def unboxed_step(sub):
        grads, meas, _ = array_terms(sub)
        u, _ = nested_dual_maximin_2d(grads.tolist(), meas.tolist(), math.inf)
        return max(map(abs, u))

    def test_step_beyond_the_bound_inside_the_box(self):
        sub = opposed_cavity(3.0, 4.2e-5)
        radius = array_terms(sub)[2]
        assert box_lower_bound(sub) == 20.0 < self.unboxed_step(sub) <= radius == 30.0
        (x, y), _, _ = self.assert_same_as_arrays(sub)
        assert x == pytest.approx(0.5000105) and y == pytest.approx(21.0)

    def test_step_beyond_the_box(self):
        # the bound equals the radius here, and the step passes both by 5 %
        sub = opposed_cavity(2.0, 4.2e-5)
        radius = array_terms(sub)[2]
        assert box_lower_bound(sub) == radius == 20.0 < self.unboxed_step(sub)
        assert self.assert_same_as_arrays(sub) is None
        (_, y), _, _ = maximin_reposition(sub)
        assert y == 20.0

    def test_far_cavity_with_a_finite_box(self):
        sub = far_reflected_cavity()
        radius = array_terms(sub)[2]
        assert math.hypot(*sub.flat) > 8e306 and radius == 20.0 * 2.0**968
        got = self.assert_same_as_arrays(sub)
        assert got[1] > 0.0 > got[2]

    def test_overflowing_extent_stays(self):
        sub = overflowing_extent_cavity()
        _, meas, radius = array_terms(sub)
        assert math.isfinite(meas.sum()) and radius == math.inf
        assert math.hypot(*sub.flat) > 8e306
        assert self.assert_same_as_arrays(sub) == (sub.point, min(meas), min(meas))


class TestMaximinReposition:
    def test_square_cavity_optimum(self):
        mesh = square_cavity([0.3, -0.2])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val, _ = maximin_reposition(sub)
        assert np.allclose(pos, [0.0, 0.0], atol=1e-9)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_matches_grid_oracle(self):
        mesh = square_cavity([0.3, -0.2])
        others = mesh.coords[mesh.elements]
        slots = np.full(4, 2)
        _, oracle_val = grid_maximin(others, slots, [0.0, 0.0], 2.5)
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        _, val, _ = maximin_reposition(sub)
        assert val == pytest.approx(oracle_val, abs=1e-4)

    def test_idempotent_at_optimum(self):
        mesh = square_cavity([0.0, 0.0])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val, _ = maximin_reposition(sub)
        assert np.allclose(pos, [0.0, 0.0], atol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_recovers_reflected_vertex(self):
        mesh = reflected_cavity()
        assert count_reversals(mesh)[0] == 1
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val, _ = maximin_reposition(sub)
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
            _, after, _ = maximin_reposition(sub)
            assert after >= before - 1e-12

    def test_first_order_optimality(self):
        mesh = square_cavity([0.4, 0.1])
        sub = local_submesh(mesh, 4, [0, 1, 2, 3])
        pos, val, _ = maximin_reposition(sub)
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
        sub = LocalSubmesh.from_arrays(elements, sub.free_slots)
        pos, val, start = maximin_reposition(sub)
        want_pos, want_val, want_start = quiet_oracle(sub)
        assert np.array_equal(pos, sub.position) and np.array_equal(want_pos, pos)
        assert_same_bits(val, want_val)
        assert_same_bits(start, want_start)


class TestDualMaximin:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        spread=st.floats(0.0, 2.0),
    )
    def test_matches_simplex(self, seed, n, spread):
        # the exact dual and the simplex agree; up to the cap the library
        # takes the dual's kernel, above it the simplex
        sub = star_cavity(seed, n, spread)
        grads, meas, radius = array_terms(sub)
        want_x, want = _simplex_reposition(grads, meas, sub.position, radius)
        exact = nested_reposition_2d(sub)
        assert exact is not None
        ruled = no_worse(sub.position, *exact)
        pos, got, _ = ruled
        scale = max(abs(want), np.abs(meas).max())
        assert abs(got - want) <= 1e-9 * scale
        assert np.abs(np.subtract(pos, want_x)).max() <= 1e-9 * 2 * radius
        if n <= KERNEL_MAX:
            assert repr(kernel(n)(sub.flat, sub.slots)) == repr(exact)
            assert maximin_reposition(sub) == ruled
        else:
            assert maximin_reposition(sub) == (tuple(want_x.tolist()), want, meas.min())

    def test_rejects_a_step_outside_the_box(self):
        # the unboxed optimum is u = (0.50025, 500); the first triangle's
        # far corner sets the box radius, 10 times the cavity's diameter
        near, far = opposed_cavity(1.0, 1e-3), opposed_cavity(60.0, 1e-3)
        grads, meas, radius = array_terms(near)
        assert radius == 30.0
        (ux, uy), val = nested_dual_maximin_2d(grads.tolist(), meas.tolist(), math.inf)
        assert ux == pytest.approx(0.50025) and uy == pytest.approx(500.0)
        assert kernel(3)(near.flat, near.slots) is None
        assert array_terms(far)[2] == 600.0
        got = kernel(3)(far.flat, far.slots)
        (x, y), val, _ = got
        assert x == pytest.approx(0.50025) and y == pytest.approx(500.0)
        assert val == pytest.approx(0.50025)
        assert repr(nested_reposition_2d(far)) == repr(got)

    @pytest.mark.parametrize("name", SIMPLEX_CAVITIES)
    def test_simplex_cases_unchanged(self, name, monkeypatch):
        make, vid, want_pos, want_val = SIMPLEX_CAVITIES[name]
        mesh = make()
        sub = local_submesh(mesh, vid, mesh.topology.incidence[0][vid])
        if mesh.dim == 2:
            assert kernel(len(sub.slots))(sub.flat, sub.slots) is None
        calls = []

        def counting(*args):
            calls.append(1)
            return _simplex_reposition(*args)

        monkeypatch.setattr(untangle_module, "_simplex_reposition", counting)
        pos, val, _ = maximin_reposition(sub)
        assert len(calls) == 1
        assert pos == tuple(want_pos) and val == want_val


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
        assert (rep.untangle_outcome, rep.untangle_sweeps) == ("SUCCESS", 1)


class TestHybrid:
    def test_equals_femwarp_when_untangled(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(annulus_coarse, 0.3)
        target = motion.evaluate(1.0)
        direct, drep = femwarp_step(annulus_coarse, w, target)
        hybrid, hrep = hybrid_warp(annulus_coarse, w, target)
        assert drep.success and hrep.success
        assert np.array_equal(direct.coords, hybrid.coords)
        # no untangle ran
        assert hrep.untangle_outcome is None and hrep.untangle_sweeps is None

    def test_reports_the_untangle_run(self):
        mesh = jittered(gen_annulus(0.5, 8, 60), np.random.default_rng(1), frac=1e-10)
        target = annulus_rotation_motion(mesh, 0.75 * np.pi, 0.25 * np.pi).evaluate(1.0)
        _, hrep = hybrid_warp(mesh, build_weights(mesh, "FEM"), target)
        assert hrep.success and (hrep.untangle_outcome, hrep.untangle_sweeps) == ("SUCCESS", 13)

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
        # the one-shot mesh and report, naming the untangle run
        assert np.array_equal(out.coords, warped.coords)
        assert hrep == replace(drep, untangle_outcome="MAX_SWEEPS", untangle_sweeps=50)

    def test_reports_failure_honestly(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(
            annulus_coarse, np.deg2rad(0.0), np.deg2rad(180.0)
        )
        _, hrep = hybrid_warp(annulus_coarse, w, motion.evaluate(1.0))
        assert hrep.outcome == "REVERSED"
        assert hrep.reversals > 0


def far_point_reflection(k):
    """The 6x36 annulus with outer boundary node 183 pushed out by 10**k and
    the boundary point-reflected: the cavities next to that node have
    finite measures and a finite box, but their simplex terms overflow
    from k = 155 on."""
    mesh = gen_annulus(0.5, 6, 36)
    coords = np.array(mesh.coords)
    coords[183] *= 10.0**k
    coords[mesh.boundary_ids] *= -1.0
    return mesh.with_coords(coords)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingSimplex:
    """A cavity whose simplex tableau overflows stays in place, as a cavity
    that is not finite does, without a numpy warning."""

    @pytest.mark.parametrize("k", [155, 160, 200, 300])
    def test_untangle_stays_finite(self, k):
        mesh = far_point_reflection(k)
        out, sweeps, outcome = untangle(mesh, max_sweeps=5)
        assert np.isfinite(out.coords).all()
        assert (sweeps, outcome) == (5, "MAX_SWEEPS")

    def test_overflowing_cavity_stays(self):
        mesh = far_point_reflection(300)
        eids, _ = mesh.topology.incidence
        vid = next(v for v in mesh.interior_ids.tolist() if 183 in mesh.elements[eids[v]])
        sub = local_submesh(mesh, vid, eids[vid])
        _, meas, radius = array_terms(sub)
        assert math.isfinite(radius) and math.isfinite(meas.sum())
        assert maximin_reposition(sub) == (sub.point, meas.min(), meas.min())


class TestBlasKernels:
    def test_bits_under_each_openblas_kernel(self):
        # each child prints one line per item: the sha1 of the untangler's
        # coordinates on the point-reflection fixture (which needs no
        # SuperLU solve) with its outcome and sweeps, of two motions'
        # targets on a jittered 8x60 annulus and two on a jittered 6^3 box,
        # of the FEM and UNIFORM weights on both meshes, and the counts of
        # smoke-size copies of the three benchmark workloads: a 12x64
        # small-step, a 6x36 hybrid and a 5^3 LOG_BARRIER box (their
        # coordinates go through SuperLU, whose bits may differ)
        code = (
            "import hashlib, numpy as np\n"
            "from conftest import jittered\n"
            "from femwarp import gen_annulus, gen_box_tets\n"
            "from femwarp.analytic import nonlinear3d_map\n"
            "from femwarp.assembly import build_weights\n"
            "from femwarp.untangle import hybrid_warp, untangle\n"
            "from femwarp.warp import AffineMotion, annulus_rotation_motion, femwarp_step\n"
            "from femwarp.warp import nonlinear3d_motion, small_step_femwarp\n"
            "def sha(a):\n"
            "    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()\n"
            "def counts(name, report):\n"
            "    accepted = sum(step.accepted for step in report.steps)\n"
            "    print(name, report.outcome, report.reversals, report.n_factorizations,\n"
            "          len(report.steps), accepted, report.untangle_sweeps)\n"
            "mesh = gen_annulus(0.5, 14, 64)\n"
            "coords = np.array(mesh.coords)\n"
            "coords[mesh.boundary_ids] *= -1.0\n"
            "out, sweeps, outcome = untangle(mesh.with_coords(coords))\n"
            "print('untangle', sha(out.coords), outcome, sweeps)\n"
            "ann = jittered(gen_annulus(0.5, 8, 60), 29)\n"
            "box = jittered(gen_box_tets(6, 6, 6), 29)\n"
            "rotation = annulus_rotation_motion(ann, 0.9, -0.3, s=0.6)\n"
            "print('annulus_motion', sha(rotation.evaluate(0.7)))\n"
            "affine = AffineMotion(ann, [[1.1, 0.3], [-0.2, 0.9]], [0.05, -0.1])\n"
            "print('affine_motion', sha(affine.evaluate(0.7)))\n"
            "print('nonlinear3d_motion', sha(nonlinear3d_motion(box, 1.3).evaluate(0.7)))\n"
            "print('nonlinear3d_map', sha(nonlinear3d_map(1.3, box.coords)))\n"
            "for name, m in (('annulus', ann), ('box', box)):\n"
            "    for scheme in ('FEM', 'UNIFORM'):\n"
            "        w = build_weights(m, scheme)\n"
            "        print(f'{scheme}_{name}', sha(w.a_ii.data), sha(w.a_ib.data))\n"
            "small = jittered(gen_annulus(0.5, 12, 64), 1, 1e-2)\n"
            "motion = annulus_rotation_motion(small, 2.0)\n"
            "counts('smallstep_workload', small_step_femwarp(small, 'FEM', motion)[1])\n"
            "hyb = jittered(gen_annulus(0.5, 6, 36), 1, 1e-10)\n"
            "target = annulus_rotation_motion(hyb, 0.75 * np.pi, 0.25 * np.pi).evaluate(1.0)\n"
            "counts('hybrid_workload', hybrid_warp(hyb, build_weights(hyb, 'FEM'), target)[1])\n"
            "cube = jittered(gen_box_tets(5, 5, 5, size=3.0), 1, 1e-2)\n"
            "target = nonlinear3d_motion(cube, 4.0).evaluate(1.0)\n"
            "weights = build_weights(cube, 'LOG_BARRIER')\n"
            "counts('box_workload', femwarp_step(cube, weights, target)[1])\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join(
            filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])
        )
        children = []
        for core in (None, "Haswell", "Sandybridge", "Prescott"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
            env.pop("OPENBLAS_CORETYPE", None)
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            children.append(
                subprocess.Popen(
                    [sys.executable, "-c", code],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        items = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            items.append(dict(line.split(" ", 1) for line in out.splitlines()))
        assert len(items[0]) == 12
        assert len(items[0]["untangle"].split()) == 3
        assert items[0]["hybrid_workload"].split()[0] == "SUCCESS"
        for workload in ("smallstep", "hybrid", "box"):
            assert len(items[0][f"{workload}_workload"].split()) == 6
        for item, value in items[0].items():
            assert [kernel[item] for kernel in items] == [value] * 4, item
