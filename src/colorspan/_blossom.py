"""Maximum-weight matching in general graphs (Edmonds' blossom method).

This is the classic primal-dual blossom algorithm in its well-known
dictionary-based form.  Two implementation choices matter here:

* Edge weights must be Python ints, and all dual arithmetic stays in
  ints.  The dual variables are stored pre-multiplied by two, so every
  slack is an int as well, and the half-slack of an edge between two
  S-blossoms (the type-3 dual change) is exact: with integer weights that
  slack is always even, the parity invariant of Galil's integer-weight
  formulation (also asserted by van Rantwijk's ``mwmatching``).  Callers
  holding floats scale them first: every finite float is an integer times
  a power of two, so multiplying all weights by one common power of two
  yields ints without rounding.  A positive common factor scales every
  slack and every dual change alike, so all comparisons, tie-breaks and
  hence the returned matching are the same as for the unscaled weights.
* The search is restricted to maximum-cardinality matchings (maximum
  weight among those).  Perfect-matching queries are answered by
  checking that every vertex got a mate.

The running time is cubic in the vertex count with small constants, which
is plenty for the matching instances produced by the solvers.
"""

from __future__ import annotations

from typing import Mapping


class _NoNode:
    """Sentinel distinct from every vertex and every blossom."""


class _Blossom:
    """A non-trivial (odd-cycle) blossom in the blossom forest."""

    __slots__ = ("childs", "edges", "mybestedges")

    def leaves(self):
        stack = list(self.childs)
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def maximum_weight_matching(
    num_vertices: int,
    edge_weights: Mapping[tuple[int, int], int],
) -> dict[int, int]:
    """Compute a maximum-weight maximum-cardinality matching and return
    its mate map.

    ``edge_weights`` maps vertex pairs ``(u, v)`` with ``u != v`` to int
    weights (see the module docstring for scaling floats).  The result
    maps every matched vertex to its mate, in both directions.
    """
    if not edge_weights or num_vertices == 0:
        return {}

    wt: dict[tuple[int, int], int] = {}
    nbrs: dict[int, list[int]] = {v: [] for v in range(num_vertices)}
    for (u, v), w in edge_weights.items():
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not isinstance(w, int):
            raise TypeError(f"edge weights must be ints, got {type(w).__name__}")
        if (u, v) not in wt:
            nbrs[u].append(v)
            nbrs[v].append(u)
        wt[(u, v)] = wt[(v, u)] = w

    gnodes = list(range(num_vertices))
    maxweight = max(max(wt.values()), 0)

    # mate[v]: the vertex matched to v, tracked in both directions.
    # label: 1 = S (even), 2 = T (odd), on top-level blossoms and vertices.
    # labeledge[b]: the edge through which b obtained its label.
    # inblossom[v]: the top-level blossom (or the vertex itself) holding v.
    # dualvar / blossomdual: the dual variables, pre-multiplied by two.
    mate: dict[int, int] = {}
    label: dict[object, int] = {}
    labeledge: dict[object, tuple[int, int] | None] = {}
    inblossom: dict[int, object] = dict(zip(gnodes, gnodes))
    blossomparent: dict[object, object] = dict.fromkeys(gnodes, None)
    blossombase: dict[object, int] = dict(zip(gnodes, gnodes))
    bestedge: dict[object, tuple[int, int] | None] = {}
    dualvar: dict[int, int] = dict.fromkeys(gnodes, maxweight)
    blossomdual: dict[_Blossom, int] = {}
    allowedge: dict[tuple[int, int], bool] = {}
    queue: list[int] = []

    def slack(v, w):
        # Twice the actual slack; an int, like every dual.
        return dualvar[v] + dualvar[w] - 2 * wt[(v, w)]

    def assign_label(w, t, v):
        # Label the top-level blossom of w with t, reached through (v, w).
        b = inblossom[w]
        assert label.get(w) is None and label.get(b) is None
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # S-blossom: its vertices feed the scan queue.
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex.
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        # Trace back from v and w; return the base of a new blossom, or
        # the sentinel if the paths reach distinct roots (augmenting path).
        path = []
        base = _NoNode
        while v is not _NoNode:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                assert blossombase[b] not in mate
                v = _NoNode
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            if w is not _NoNode:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        # Wrap the cycle through S-vertices v and w (meeting at base) into
        # a new S-blossom with dual zero.
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Collect least-slack edges toward other S-blossoms.
        bestedgeto = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [(v, w) for v in bv.leaves() for w in nbrs[v]]
            else:
                nblist = [(bv, w) for w in nbrs[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and ((bj not in bestedgeto) or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        bestedge[b] = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b, endstage):
        # Dissolve the top-level blossom b; trampolined to keep the Python
        # call stack flat on deeply nested blossoms.

        def _recurse(b, endstage):
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in s.leaves():
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label.get(b) == 2:
                # Mid-stage expansion of a T-blossom: relabel along the
                # cycle from the entry child to the base.
                entrychild = inblossom[labeledge[b][1]]
                j = b.childs.index(entrychild)
                if j & 1:
                    j -= len(b.childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v)
                    allowedge[(p, q)] = allowedge[(q, p)] = True
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    allowedge[(v, w)] = allowedge[(w, v)] = True
                    j += jstep
                bw = b.childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while b.childs[j] != entrychild:
                    bv = b.childs[j]
                    if label.get(bv) == 1:
                        j += jstep
                        continue
                    if isinstance(bv, _Blossom):
                        for v in bv.leaves():
                            if label.get(v):
                                break
                    else:
                        v = bv
                    if label.get(v):
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            label.pop(b, None)
            labeledge.pop(b, None)
            bestedge.pop(b, None)
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

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
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v, w):
        # Found an augmenting path between the trees of S-vertices v and w.
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    # Each stage either augments the matching by one edge or proves that
    # no further augmentation is possible.
    while 1:
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue[:] = []

        for v in gnodes:
            if (v not in mate) and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1

                for w in nbrs[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge[(v, w)] = allowedge[(w, v)] = True
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not _NoNode:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label.get(w) is None:
                            assert label[bw] == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under the current duals; compute the
            # largest dual change that keeps everything feasible.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            for v in gnodes:
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and bestedge.get(b) is not None
                ):
                    kslack = slack(*bestedge[b])
                    assert kslack % 2 == 0
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # The matching is already of maximum cardinality.  Make a
                # final update so the duals certify optimality, then stop.
                deltatype = 1
                delta = max(0, min(dualvar.values()))

            for v in gnodes:
                if label.get(inblossom[v]) == 1:
                    dualvar[v] -= delta
                elif label.get(inblossom[v]) == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                (v, w) = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            elif deltatype == 3:
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)

        for v in mate:
            assert mate[mate[v]] == v

        if not augmented:
            break

        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    return mate
