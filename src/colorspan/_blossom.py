"""Maximum-weight matching in general graphs (Edmonds' blossom method).

This is the classic primal-dual blossom algorithm (Galil, 1986, for its
O(n^3) structure) in the edge-indexed layout of van Rantwijk's
``mwmatching`` (Kolmogorov, 2009, for array layouts).  It follows
networkx's ``max_weight_matching(G, maxcardinality=True)`` step for step,
so on the same graph both return the same matching, tie-breaks included.

Layout.  Edge ``k`` joins ``endpoint[2k]`` and ``endpoint[2k + 1]``.  The
directed edge ``d`` runs from ``endpoint[d]`` to ``endpoint[d ^ 1]``, so
``d ^ 1`` is its reverse and ``d >> 1`` its edge id; ``neighbend[v]``
lists the directed edges leaving vertex ``v`` in insertion order, and
``neighbours[v]`` their far ends in the same order.  Vertices have the ids
``0 .. n - 1``, and blossoms get the ids ``n, n + 1, ...`` in order of
creation, never reused.  Labels, label edges, parents, bases and best
edges are flat lists indexed by vertex or blossom id, ``inblossom`` and
``mate`` (the directed edge to the mate, or -1) by vertex, and
``allowedge`` by edge id.  The live blossoms' duals are a dict kept in
creation order.

Exact arithmetic.  Edge weights must be Python ints, and all dual
arithmetic stays in ints.  Vertex duals are stored doubled (blossom duals
are not; they are doubled on export), so every slack is an int, and the
half-slack of an edge between two S-blossoms (the type-3 dual change) is
exact: with integer weights that slack is always even, the parity invariant of Galil's integer-weight
formulation (also asserted by van Rantwijk's ``mwmatching``).  Callers
holding floats scale them first: every finite float is an integer times
a power of two, so multiplying all weights by one common power of two
yields ints without rounding.  A positive common factor scales every
slack and every dual change alike, so all comparisons, tie-breaks and
hence the returned matching are the same as for the unscaled weights.

Tie-breaks.  These orders decide which of several optima is returned,
and all of them are networkx's: each vertex scans its neighbours in edge
insertion order; the scan queue is popped last in, first out; a
blossom's leaves come from a stack that pops its last child first; and
the dual-change scans visit vertices in id order, then live blossoms in
creation order, keeping the first least value.

The search is restricted to maximum-cardinality matchings (maximum
weight among those); perfect-matching queries are answered by checking
that every vertex got a mate.  The running time is cubic in the vertex
count with small constants, which is plenty for the matching instances
produced by the solvers.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

# The final duals: one doubled dual per vertex, and one (sorted leaves,
# doubled dual) pair per blossom left at the end, in creation order.
Duals = tuple[list[int], list[tuple[tuple[int, ...], int]]]


def maximum_weight_matching(
    num_vertices: int,
    edge_weights: Mapping[tuple[int, int], int],
) -> tuple[dict[int, int], Duals]:
    """Compute a maximum-weight maximum-cardinality matching; return its
    mate map and the final duals.

    ``edge_weights`` maps vertex pairs ``(u, v)`` with ``u != v`` to int
    weights (see the module docstring for scaling floats).  The mate map
    sends every matched vertex to its mate, in both directions.

    The duals are ``(vertex, blossoms)``: ``vertex[v]`` is twice the dual
    of vertex ``v``, and ``blossoms`` lists a ``(leaves, z)`` pair for
    every blossom left at the end, where ``z`` is twice that blossom's
    dual.  In these doubled units the reduced cost of an edge ``(u, v)``
    of weight ``w`` is ``vertex[u] + vertex[v] - 2 * w`` plus the ``z`` of
    every blossom holding both ends.  When the matching is perfect, the
    duals certify it (Edmonds' conditions): every reduced cost is
    non-negative and those of matched edges are zero, every ``z`` is
    non-negative, and a blossom with a positive ``z`` holds
    ``(len(leaves) - 1) / 2`` matched edges.
    """
    n = num_vertices
    if not edge_weights or n == 0:
        return {}, ([0] * n, [])

    endpoint: list[int] = []
    wt2: list[int] = []  # doubled edge weights, by edge id
    neighbend: list[list[int]] = [[] for _ in range(n)]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    edge_id: dict[tuple[int, int], int] = {}
    for (u, v), w in edge_weights.items():
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if not isinstance(w, int):
            raise TypeError(f"edge weights must be ints, got {type(w).__name__}")
        k = edge_id.setdefault((u, v) if u < v else (v, u), len(wt2))
        if k == len(wt2):
            endpoint += (u, v)
            neighbend[u].append(2 * k)
            neighbend[v].append(2 * k + 1)
            neighbours[u].append(v)
            neighbours[v].append(u)
            wt2.append(2 * w)
        else:
            wt2[k] = 2 * w

    # label: 0 = none, 1 = S (even), 2 = T (odd), on top-level blossoms
    # and vertices; 5 marks a blossom on scan_blossom's path.
    # labelend[b]: the directed edge through which b got its label, or -1.
    # bestedge[b]: least-slack directed edge out of b (see the scan), or -1.
    # dualvar: the vertex duals, doubled; blossomdual: each live
    # blossom's dual, not doubled, in creation order.
    mate = [-1] * n
    label = [0] * n
    labelend = [-1] * n
    inblossom = list(range(n))
    blossomparent = [-1] * n
    blossombase = list(range(n))
    blossomchilds: list[list[int] | None] = [None] * n
    blossomendps: list[list[int] | None] = [None] * n
    mybestedges: list[list[int] | None] = [None] * n
    bestedge = [-1] * n
    dualvar = [max(max(wt2) // 2, 0)] * n
    blossomdual: dict[int, int] = {}
    allowedge = [False] * len(wt2)
    queue: list[int] = []

    def slack(d):
        # Twice the actual slack; an int, like every dual.
        return dualvar[endpoint[d]] + dualvar[endpoint[d ^ 1]] - wt2[d >> 1]

    def leaves(b):
        if b < n:
            return [b]
        stack = blossomchilds[b][:]
        out = []
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack += blossomchilds[t]
        return out

    def assign_label(w, t, d):
        # Label the top-level blossom of w with t, reached through d.
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = d
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            # S-blossom: its vertices feed the scan queue.
            if b < n:
                queue.append(b)
            else:
                queue.extend(leaves(b))
        else:
            # T-blossom: its base's mate becomes an S-vertex.
            m = mate[blossombase[b]]
            assign_label(endpoint[m ^ 1], 1, m)

    def scan_blossom(v, w):
        # Trace back from v and w; return the base of a new blossom, or
        # -1 if the paths reach distinct roots (augmenting path).
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                assert mate[blossombase[b]] == -1
                v = -1
            else:
                assert labelend[b] == mate[blossombase[b]] ^ 1
                b = inblossom[endpoint[labelend[b]]]
                assert label[b] == 2
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, d):
        # Wrap the cycle closed by the edge d between S-vertices (meeting
        # at base) into a new S-blossom with dual zero.
        bb = inblossom[base]
        bv = inblossom[endpoint[d]]
        bw = inblossom[endpoint[d ^ 1]]
        b = len(label)
        label.append(1)
        labelend.append(labelend[bb])
        bestedge.append(-1)
        blossomparent.append(-1)
        blossombase.append(base)
        blossomparent[bb] = b
        path = []
        endps = [d]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labelend[bv] == mate[blossombase[bv]] ^ 1
            )
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        endps.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == 2 or (
                label[bw] == 1 and labelend[bw] == mate[blossombase[bw]] ^ 1
            )
            bw = inblossom[endpoint[labelend[bw]]]
        assert label[bb] == 1
        blossomchilds.append(path)
        blossomendps.append(endps)
        mybestedges.append(None)
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Collect least-slack edges toward other S-blossoms; every edge
        # listed leaves from a vertex of b.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            nblist = mybestedges[bv]
            if nblist is None:
                nblist = [e for v in leaves(bv) for e in neighbend[v]]
            else:
                mybestedges[bv] = None
            for e in nblist:
                bj = inblossom[endpoint[e ^ 1]]
                if bj != b and label[bj] == 1:
                    s = slack(e)
                    if bj not in bestedgeto or s < bestedgeto[bj][0]:
                        bestedgeto[bj] = (s, e)
            bestedge[bv] = -1
        mybestedges[b] = [e for _, e in bestedgeto.values()]
        if bestedgeto:
            bestedge[b] = min(bestedgeto.values(), key=lambda se: se[0])[1]

    def step_edge(endps, j, jstep):
        # The cycle edge leaving child j in the direction of jstep.
        return endps[j] if jstep == 1 else endps[j - 1] ^ 1

    def expand_blossom(b, endstage):
        # Dissolve the top-level blossom b; trampolined to keep the Python
        # call stack flat on deeply nested blossoms.

        def _recurse(b, endstage):
            childs = blossomchilds[b]
            for s in childs:
                blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and blossomdual[s] == 0:
                    yield s
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            if (not endstage) and label[b] == 2:
                # Mid-stage expansion of a T-blossom: relabel along the
                # cycle from the entry child to the base.
                endps = blossomendps[b]
                entrychild = inblossom[endpoint[labelend[b] ^ 1]]
                j = childs.index(entrychild)
                if j & 1:
                    j -= len(childs)
                    jstep = 1
                else:
                    jstep = -1
                d = labelend[b]
                while j != 0:
                    e = step_edge(endps, j, jstep)
                    label[endpoint[d ^ 1]] = 0
                    label[endpoint[e ^ 1]] = 0
                    assign_label(endpoint[d ^ 1], 2, d)
                    allowedge[e >> 1] = True
                    j += jstep
                    d = step_edge(endps, j, jstep)
                    allowedge[d >> 1] = True
                    j += jstep
                bw = childs[j]
                label[endpoint[d ^ 1]] = label[bw] = 2
                labelend[endpoint[d ^ 1]] = labelend[bw] = d
                bestedge[bw] = -1
                j += jstep
                while childs[j] != entrychild:
                    bv = childs[j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    for v in leaves(bv):
                        if label[v]:
                            break
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = 0
                        label[endpoint[mate[blossombase[bv]] ^ 1]] = 0
                        assign_label(v, 2, labelend[v])
                    j += jstep
            del blossomdual[b]
            blossomchilds[b] = blossomendps[b] = mybestedges[b] = None

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b, v):
        # Swap matched and unmatched edges along the path inside b from
        # vertex v to the base; trampolined like expand_blossom.

        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            childs = blossomchilds[b]
            endps = blossomendps[b]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                e = step_edge(endps, j, jstep)
                if childs[j] >= n:
                    yield (childs[j], endpoint[e])
                j += jstep
                if childs[j] >= n:
                    yield (childs[j], endpoint[e ^ 1])
                mate[endpoint[e]] = e
                mate[endpoint[e ^ 1]] = e ^ 1
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomendps[b] = endps[i:] + endps[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(d):
        # Found an augmenting path through the edge d between the trees
        # of two S-vertices.
        for e in (d, d ^ 1):
            s = endpoint[e]
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                m = mate[blossombase[bs]]
                assert labelend[bs] == (-1 if m == -1 else m ^ 1)
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = e
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                e = labelend[bt]
                s = endpoint[e]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, endpoint[e ^ 1])
                mate[endpoint[e ^ 1]] = e ^ 1

    # Each stage either augments the matching by one edge or proves that
    # no further augmentation is possible.
    while 1:
        label[:] = [0] * len(label)
        labelend[:] = [-1] * len(labelend)
        bestedge[:] = [-1] * len(bestedge)
        for b in blossomdual:
            mybestedges[b] = None
        allowedge[:] = [False] * len(allowedge)
        queue.clear()

        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                assert label[bv] == 1
                dv = dualvar[v]
                # The duals hold still during the scan, so the slack of
                # bv's best edge is read once, and again after a change.
                bvbest = bestedge[bv]
                bvslack = 0 if bvbest == -1 else slack(bvbest)
                for w, d in zip(neighbours[v], neighbend[v]):
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    k = d >> 1
                    if not allowedge[k]:
                        kslack = dv + dualvar[w] - wt2[k]
                        if kslack > 0:
                            # Not allowed: keep the least-slack edge to
                            # another S-blossom, and to each vertex w
                            # not reached yet.
                            if label[bw] == 1:
                                if bvbest == -1 or kslack < bvslack:
                                    bestedge[bv] = bvbest = d
                                    bvslack = kslack
                            elif label[w] == 0:
                                e = bestedge[w]
                                if e == -1 or kslack < (
                                    dualvar[endpoint[e]] + dualvar[endpoint[e ^ 1]] - wt2[e >> 1]
                                ):
                                    bestedge[w] = d
                            continue
                        allowedge[k] = True
                    if label[bw] == 0:
                        assign_label(w, 2, d)
                    elif label[bw] == 1:
                        base = scan_blossom(v, w)
                        if base == -1:
                            augment_matching(d)
                            augmented = 1
                            break
                        add_blossom(base, d)
                        bv = inblossom[v]
                        bvbest = bestedge[bv]
                        bvslack = 0 if bvbest == -1 else slack(bvbest)
                    elif label[w] == 0:
                        assert label[bw] == 2
                        label[w] = 2
                        labelend[w] = d

            if augmented:
                break

            # No augmenting path under the current duals; compute the
            # largest dual change that keeps everything feasible.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            for b in chain(range(n), blossomdual):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    kslack = slack(bestedge[b])
                    assert kslack % 2 == 0
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            for b in blossomdual:
                if (
                    blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # The matching is already of maximum cardinality.  Make a
                # final update so the duals certify optimality, then stop.
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                if label[inblossom[v]] == 1:
                    dualvar[v] -= delta
                elif label[inblossom[v]] == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                # Types 2 and 3: the least-slack edge leaves an S-vertex.
                allowedge[deltaedge >> 1] = True
                assert label[inblossom[endpoint[deltaedge]]] == 1
                queue.append(endpoint[deltaedge])

        if not augmented:
            break

        for b in list(blossomdual):
            if b not in blossomdual:
                continue
            if blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    for v in range(n):
        assert mate[v] == -1 or mate[endpoint[mate[v] ^ 1]] == mate[v] ^ 1
    blossoms = [(tuple(sorted(leaves(b))), 2 * z) for b, z in blossomdual.items()]
    return {v: endpoint[d ^ 1] for v, d in enumerate(mate) if d != -1}, (dualvar, blossoms)
