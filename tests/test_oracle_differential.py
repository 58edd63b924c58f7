"""The geometric oracle's block evaluation against a per-pairing reference.

``brute_force_geometric`` scores a block of pairings per chunk of
representative choices in one fold.  The reference below scores one
pairing at a time, re-gathering its pairs' distances and reducing them
with ``sum``/``max``/``min`` over the stacked rows, and keeps the first
optimum in (chunk, pairing, choice) order.  Both must return the same
matching, not just the same value, so the inputs are heavy on exact ties:
integer and decimal lattices with coincident points (also with blocks
shrunk so one chunk's pairings span several blocks), generated instances
at k = 2, 3 and 4, and a lattice instance with more than one chunk of
choices, so the tie-break is exercised across chunk boundaries.
"""

import math
import tracemalloc

import numpy as np
import pytest

from colorspan import (
    ColoredPointSet,
    Objective,
    brute_force_geometric,
    color_spanning_matching,
)
from colorspan.generate import generate_matching_instance
from colorspan import oracles
from colorspan.oracles import _BLOCK, _CHUNK

from conftest import perfect_pairings


def per_pairing_geometric(point_set, objective):
    """Reference enumeration: one gather and one reduce per pairing."""
    t = point_set.num_colors
    classes = [point_set.color_indices(c) for c in range(t)]
    sizes = tuple(len(c) for c in classes)
    combos = math.prod(sizes)
    xs, ys = point_set.xs, point_set.ys
    dmat = {}
    for a in range(t):
        for b in range(a + 1, t):
            ia, ib = classes[a], classes[b]
            dmat[(a, b)] = np.hypot(
                xs[ia][:, None] - xs[ib][None, :], ys[ia][:, None] - ys[ib][None, :]
            )
    pairings = list(perfect_pairings(range(t)))
    maximize = objective in (Objective.MAXSUM, Objective.MAXMIN)
    summed = objective in (Objective.MINSUM, Objective.MAXSUM)
    best = None
    for lo in range(0, combos, _CHUNK):
        hi = min(lo + _CHUNK, combos)
        pos = np.unravel_index(np.arange(lo, hi), sizes)
        for pairing in pairings:
            rows = np.stack([dmat[(a, b)][pos[a], pos[b]] for a, b in pairing])
            if summed:
                vals = rows.sum(axis=0)
            elif objective is Objective.MINMAX:
                vals = rows.max(axis=0)
            else:
                vals = rows.min(axis=0)
            at = int(vals.argmax() if maximize else vals.argmin())
            v = float(vals[at])
            if best is None or (v > best[0] if maximize else v < best[0]):
                best = (v, lo + at, pairing)
    _, flat, pairing = best
    pos = np.unravel_index(flat, sizes)
    pairs = [(int(classes[a][pos[a]]), int(classes[b][pos[b]])) for a, b in pairing]
    return color_spanning_matching(point_set, pairs)


def lattice_instance(k, class_sizes, step, width, seed):
    """2k classes of the given sizes on a ``width`` x ``width`` lattice of
    spacing ``step``: many equal distances and coincident points."""
    rng = np.random.default_rng(seed)
    colors = np.repeat(np.arange(2 * k), class_sizes)
    rng.shuffle(colors)
    xs = rng.integers(0, width, len(colors)) * step
    ys = rng.integers(0, width, len(colors)) * step
    return ColoredPointSet(xs, ys, colors, 2 * k)


def assert_same_as_reference(ps):
    for objective in Objective:
        got = brute_force_geometric(ps, objective)
        want = per_pairing_geometric(ps, objective)
        # Dataclass equality: the edges and all three statistics.
        assert got == want, objective


@pytest.mark.parametrize("block", [1, 50, _BLOCK], ids=["block1", "block50", "default"])
@pytest.mark.parametrize("step", [1.0, 0.1, 1 / 3], ids=["1", "0.1", "1/3"])
@pytest.mark.parametrize("seed", range(8))
def test_lattice_ties(monkeypatch, block, step, seed):
    # Smaller blocks split one chunk's pairings over several blocks, which
    # at the default size only instances of more than _BLOCK choices do.
    monkeypatch.setattr(oracles, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    sizes = rng.integers(1, {2: 6, 3: 4, 4: 3}[k], 2 * k)
    assert_same_as_reference(lattice_instance(k, sizes, step, 3, 100 + seed))


@pytest.mark.parametrize("k, cap", [(2, 5), (3, 5), (4, 3)])
@pytest.mark.parametrize("seed", range(5))
def test_generated_instances(k, cap, seed):
    assert_same_as_reference(generate_matching_instance(k, 4400 + seed, max_class_size=cap))


def test_every_class_a_singleton_at_k4():
    ps = generate_matching_instance(4, 9, max_class_size=1)
    assert_same_as_reference(ps)


def test_ties_across_chunk_boundaries():
    # 20^4 = 160000 choices: three chunks, the last one partial.
    ps = lattice_instance(2, [20] * 4, 1.0, 4, 7)
    combos = math.prod(len(ps.color_indices(c)) for c in range(4))
    assert combos > 2 * _CHUNK
    assert_same_as_reference(ps)


def full_instance(k, class_size, seed):
    rng = np.random.default_rng(seed)
    colors = np.repeat(np.arange(2 * k), class_size)
    xy = rng.random((len(colors), 2))
    return ColoredPointSet(xy[:, 0], xy[:, 1], colors, 2 * k)


@pytest.mark.parametrize("k, class_size", [(4, 3), (3, 5)])
def test_peak_memory_is_bounded(k, class_size):
    # Every class at the cap: 3^8 = 6561 and 5^6 = 15625 choices.
    ps = full_instance(k, class_size, 11)
    for objective in Objective:
        tracemalloc.start()
        try:
            brute_force_geometric(ps, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (objective, peak)
