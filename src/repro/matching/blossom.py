"""Array-native maximum-weight matching (Galil's O(n^3) blossom algorithm).

This is the ``"array"`` solver-backend kernel behind
:func:`repro.matching.static_solver.iterated_max_weight_b_matching`: a port
of the Galil (1986) primal-dual blossom method — the same algorithm NetworkX
ships as ``max_weight_matching`` — onto flat, int-indexed lists:

* edges live in parallel lists (``endpoint_u``, ``endpoint_v``, ``weight2``
  = twice the weight, which is exact) addressed by an edge id, with
  per-vertex adjacency lists of ``(edge id, neighbour)`` — no ``nx.Graph``,
  no AtlasView, no per-edge attribute dicts on the hot slack path;
* vertices are ``0..n-1`` and non-trivial blossoms get ids ``n, n+1, ...``
  in creation order.  Every per-vertex-or-blossom field (``label``,
  ``labeledge``, ``bestedge``, ``blossomparent``, ``blossombase``,
  ``childs``, ``bedges``, ``mybestedges``) is one list indexed by that id,
  with ``None`` where NetworkX has no key; ``add_blossom`` appends a slot
  to each and expanding a blossom clears its slots.  ``mate``/``matek``
  are per-vertex lists with ``-1`` for "single".  Ids are never reused.
* the per-stage ``allowedge`` set is a flat per-edge flag list, and the
  per-stage resets of ``label``, ``labeledge``, ``bestedge`` and
  ``allowedge`` are one slice assignment each.

Output fidelity
---------------
The port is deliberately *behaviour-identical* to NetworkX 3.x
``max_weight_matching`` (itself derived from Joris van Rantwijk's
``mwmatching.py``): every loop — the LIFO queue, neighbour scans in edge
insertion order, the delta2/delta3/delta4 scans in vertex-then-creation
order, blossom leaf enumeration — iterates in the exact order the NetworkX
implementation does, and all dual-variable arithmetic performs the same
operations on the same values.  The scan orders matter because the delta
minima and the least-slack ``bestedge`` candidates break ties by "first
seen wins": any other order can pick a different, equal-weight matching.
The live blossoms are the keys of the creation-ordered ``blossomdual`` dict,
so "vertices, then blossoms" is ``range(n)`` followed by that dict.  Given
the same vertex count and the same edge list *in the same order*, the two
implementations therefore return the same matching, not merely one of equal
weight.  ``tests/test_blossom_kernel.py`` and ``tests/test_solver_backends.py``
certify this, and it is what makes SO-BMA figure costs bit-identical across
solver backends.

Like the NetworkX implementation, integer edge weights are processed in
exact integer arithmetic and float weights in IEEE double arithmetic, so
ties resolve identically.

Why not numpy
-------------
The algorithm's work is many short neighbour scans (on a 100-rack figure
panel, tens of thousands of scans of about 40 edges), each followed by
per-edge Python branching on labels and least-slack candidates.  A numpy
slack vector per scan costs more in call overhead than the Python
arithmetic it replaces, and the branching would still run in Python.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..types import NodePair

__all__ = ["max_weight_matching_arrays"]

#: Sentinel for "no vertex" (all real vertex/blossom ids are >= 0).
_NO_NODE = -1


def max_weight_matching_arrays(
    n_nodes: int,
    edges: Sequence[Tuple[int, int, float]],
    maxcardinality: bool = False,
) -> Set[NodePair]:
    """Maximum-weight matching over vertices ``0..n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Number of vertices; isolated vertices are allowed (and, as in the
        NetworkX implementation, participate in the dual problem).
    edges:
        ``(u, v, weight)`` triples with ``u != v``; *order matters* — it is
        the tie-breaking order, chosen to mirror a NetworkX graph built by
        inserting the same edges in the same order.
    maxcardinality:
        If true, restrict to maximum-cardinality matchings (kept for parity
        with NetworkX; the solver tier always uses ``False``).

    Returns
    -------
    The matching as a set of canonical ``(min, max)`` vertex pairs.
    """
    n = int(n_nodes)
    if n == 0:
        return set()

    nedge = len(edges)
    endpoint_u: List[int] = [0] * nedge
    endpoint_v: List[int] = [0] * nedge
    # weight2[k] = 2 * weight of edge k.  Doubling is exact in both integer
    # and IEEE arithmetic, so ``du + dv - weight2[k]`` is bit-identical to
    # NetworkX's ``du + dv - 2 * weight``.
    weight2: List[float] = [0] * nedge
    # adjacency[v] holds (edge id, neighbour) pairs in edge insertion order —
    # the same neighbour order a NetworkX adjacency dict would iterate in.
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    # Mirrors the NetworkX preamble: find the maximum edge weight and decide
    # whether all weights are integers (exact integer arithmetic mode).
    maxweight = 0
    allinteger = True
    seen_pairs: set = set()
    for k, (i, j, wt) in enumerate(edges):
        i = int(i)
        j = int(j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"invalid edge ({i}, {j}) for n={n}")
        # A NetworkX graph would silently overwrite a re-added edge, which
        # flat parallel arrays cannot mirror — reject duplicates so the
        # behaviour-identity contract in the module docstring stays honest.
        pair_key = i * n + j if i < j else j * n + i
        if pair_key in seen_pairs:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen_pairs.add(pair_key)
        endpoint_u[k] = i
        endpoint_v[k] = j
        weight2[k] = 2 * wt
        adjacency[i].append((k, j))
        adjacency[j].append((k, i))
        if wt > maxweight:
            maxweight = wt
        allinteger = allinteger and type(wt).__name__ in ("int", "long")

    # dualvar[v] = 2 * u(v); starting at maxweight keeps integer weights
    # in integer arithmetic throughout, exactly as NetworkX does.
    dualvar = [maxweight] * n

    # mate[v] = partner vertex of a matched vertex (_NO_NODE when single);
    # matek[v] = the id of the matching edge at v (the port's substitute for
    # recovering edge data from vertex pairs).
    mate: List[int] = [_NO_NODE] * n
    matek: List[int] = [_NO_NODE] * n

    # Per-vertex-or-blossom fields, indexed by id: slots 0..n-1 are the
    # vertices, and add_blossom appends one slot per list for each new
    # blossom (ids n, n+1, ... in creation order, never reused).  ``None``
    # stands where the NetworkX dicts have no key.
    label: List[Optional[int]] = [None] * n
    labeledge: List[Optional[Tuple[int, int, int]]] = [None] * n
    bestedge: List[Optional[Tuple[int, int, int]]] = [None] * n
    blossomparent: List[Optional[int]] = [None] * n
    blossombase: List[int] = list(range(n))
    childs: List[Optional[List[int]]] = [None] * n
    bedges: List[Optional[List[Tuple[int, int, int]]]] = [None] * n
    mybestedges: List[Optional[list]] = [None] * n
    inblossom: List[int] = list(range(n))
    # The live blossoms' duals, keyed in creation order: its keys are the
    # blossom half of every "vertices, then blossoms" scan.
    blossomdual: Dict[int, float] = {}
    allowedge: List[bool] = [False] * nedge
    queue: List[int] = []

    def slack(k: int):
        """2 * slack of edge ``k`` (does not work inside blossoms)."""
        return dualvar[endpoint_u[k]] + dualvar[endpoint_v[k]] - weight2[k]

    def leaves(b: int):
        """The blossom's leaf vertices, in NetworkX's stack order."""
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                yield t

    def assign_label(w: int, t: int, v: int, k: int) -> None:
        """Label the top-level blossom of ``w`` with ``t`` via edge (v, w, k)."""
        b = inblossom[w]
        assert label[w] is None and label[b] is None
        label[w] = label[b] = t
        if v != _NO_NODE:
            labeledge[w] = labeledge[b] = (v, w, k)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            base = blossombase[b]
            assign_label(mate[base], 1, base, matek[base])

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return a new blossom's base or _NO_NODE."""
        path = []
        base = _NO_NODE
        while v != _NO_NODE:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                assert mate[blossombase[b]] == _NO_NODE
                v = _NO_NODE
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w != _NO_NODE:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int, k: int) -> None:
        """Construct a new S-blossom with the given base through edge (v, w, k)."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = len(blossombase)
        path: List[int] = []
        edgs = [(v, w, k)]
        blossombase.append(base)
        blossomparent.append(None)
        childs.append(path)
        bedges.append(edgs)
        mybestedges.append(None)
        label.append(None)
        labeledge.append(None)
        bestedge.append(None)
        blossomparent[bb] = b
        # Trace back from v to base.
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
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0], labeledge[bw][2]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Compute the blossom's least-slack edges to neighbouring S-blossoms.
        bestedgeto: Dict[int, Tuple[int, int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [
                        (lv, lw, lk)
                        for lv in leaves(bv)
                        for lk, lw in adjacency[lv]
                    ]
            else:
                nblist = [(bv, lw, lk) for lk, lw in adjacency[bv]]
            for edge in nblist:
                i, j, kk = edge
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and ((bj not in bestedgeto) or slack(kk) < slack(bestedgeto[bj][2]))
                ):
                    bestedgeto[bj] = edge
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        for edge in mybestedges[b]:
            kslack = slack(edge[2])
            if mybestedge is None or kslack < mybestslack:
                mybestedge = edge
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: int, endstage: bool) -> None:
        """Expand the given top-level blossom (trampolined recursion)."""

        def _recurse(b: int, endstage: bool):
            for s in childs[b]:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # Relabel sub-blossoms when expanding a T-blossom mid-stage.
            if (not endstage) and label[b] == 2:
                entrychild = inblossom[labeledge[b][1]]
                j = childs[b].index(entrychild)
                if j & 1:
                    j -= len(childs[b])
                    jstep = 1
                else:
                    jstep = -1
                v, w, lk = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q, pk = bedges[b][j]
                    else:
                        q, p, pk = bedges[b][j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v, lk)
                    allowedge[pk] = True
                    j += jstep
                    if jstep == 1:
                        v, w, lk = bedges[b][j]
                    else:
                        w, v, lk = bedges[b][j - 1]
                    allowedge[lk] = True
                    j += jstep
                # Relabel the base T-sub-blossom without stepping to its mate.
                bw = childs[b][j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w, lk)
                bestedge[bw] = None
                j += jstep
                while childs[b][j] != entrychild:
                    bv = childs[b][j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0], labeledge[v][2])
                    j += jstep
            # Retire the expanded blossom: clear its slots (ids are never
            # reused, and nothing points at b any more).
            label[b] = labeledge[b] = bestedge[b] = None
            blossomparent[b] = childs[b] = bedges[b] = mybestedges[b] = None
            blossombase[b] = _NO_NODE
            del blossomdual[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges from v to the base of blossom b."""

        def _recurse(b: int, v: int):
            # Bubble up through the blossom tree to an immediate child of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            i = j = childs[b].index(t)
            if i & 1:
                j -= len(childs[b])
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[b][j]
                if jstep == 1:
                    w, x, kk = bedges[b][j]
                else:
                    x, w, kk = bedges[b][j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = childs[b][j]
                if t >= n:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
                matek[w] = matek[x] = kk
            # Rotate the child list to put the new base at the front.
            childs[b] = childs[b][i:] + childs[b][:i]
            bedges[b] = bedges[b][i:] + bedges[b][:i]
            blossombase[b] = blossombase[childs[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int, k: int) -> None:
        """Augment over the path through S-vertices v and w (edge k)."""
        for s, j, kk in ((v, w, k), (w, v, k)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (
                    labeledge[bs] is None and mate[blossombase[bs]] == _NO_NODE
                ) or (labeledge[bs][0] == mate[blossombase[bs]])
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                matek[s] = kk
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j, kk = labeledge[bt]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s
                matek[j] = kk

    def verify_optimum() -> None:
        """Assert the dual certificate (only used for integer weights)."""
        if maxcardinality:
            vdualoffset = max(0, -min(dualvar))
        else:
            vdualoffset = 0
        assert min(dualvar) + vdualoffset >= 0
        assert len(blossomdual) == 0 or min(blossomdual.values()) >= 0
        for k in range(nedge):
            i = endpoint_u[k]
            j = endpoint_v[k]
            s = dualvar[i] + dualvar[j] - weight2[k]
            iblossoms = [i]
            jblossoms = [j]
            while blossomparent[iblossoms[-1]] is not None:
                iblossoms.append(blossomparent[iblossoms[-1]])
            while blossomparent[jblossoms[-1]] is not None:
                jblossoms.append(blossomparent[jblossoms[-1]])
            iblossoms.reverse()
            jblossoms.reverse()
            for bi, bj in zip(iblossoms, jblossoms):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
            assert s >= 0
            if mate[i] == j or mate[j] == i:
                assert mate[i] == j and mate[j] == i
                assert s == 0
        for v in range(n):
            assert mate[v] != _NO_NODE or dualvar[v] + vdualoffset == 0
        for b in blossomdual:
            if blossomdual[b] > 0:
                assert len(bedges[b]) % 2 == 1
                for i, j, _kk in bedges[b][1::2]:
                    assert mate[i] == j and mate[j] == i

    # Main loop: one stage per augmentation.
    while 1:
        unlabelled = [None] * len(label)
        label[:] = unlabelled
        labeledge[:] = unlabelled
        bestedge[:] = unlabelled
        for b in blossomdual:
            mybestedges[b] = None
        allowedge[:] = [False] * nedge
        queue[:] = []

        # Label single blossoms/vertices with S and put them in the queue.
        for v in range(n):
            if mate[v] == _NO_NODE and label[inblossom[v]] is None:
                assign_label(v, 1, _NO_NODE, -1)

        augmented = 0
        while 1:
            # Substage: grow the structure until augmentation or a dual update.
            while queue and not augmented:
                v = queue.pop()
                # v's dual is fixed within a substage; its top-level blossom
                # changes only in add_blossom, after which it is re-read.
                bv = inblossom[v]
                assert label[bv] == 1
                dv = dualvar[v]

                for k, w in adjacency[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    if not allowedge[k]:
                        # Inlined slack(k): addition is commutative, so
                        # summing from v's side is bit-identical.
                        kslack = dv + dualvar[w] - weight2[k]
                        if kslack > 0:
                            if label[bw] == 1:
                                # Track the least-slack edge to a different
                                # S-blossom.
                                best = bestedge[bv]
                                if best is None or kslack < (
                                    dualvar[endpoint_u[best[2]]]
                                    + dualvar[endpoint_v[best[2]]]
                                    - weight2[best[2]]
                                ):
                                    bestedge[bv] = (v, w, k)
                            elif label[w] is None:
                                # Track the least-slack edge reaching the
                                # free vertex w.
                                best = bestedge[w]
                                if best is None or kslack < (
                                    dualvar[endpoint_u[best[2]]]
                                    + dualvar[endpoint_v[best[2]]]
                                    - weight2[best[2]]
                                ):
                                    bestedge[w] = (v, w, k)
                            continue
                        allowedge[k] = True
                    lbw = label[bw]
                    if lbw is None:
                        # w is free; label w with T and its mate with S.
                        assign_label(w, 2, v, k)
                    elif lbw == 1:
                        # w is an S-vertex: new blossom or augmenting path.
                        base = scan_blossom(v, w)
                        if base != _NO_NODE:
                            add_blossom(base, v, w, k)
                            bv = inblossom[v]
                        else:
                            augment_matching(v, w, k)
                            augmented = 1
                            break
                    elif label[w] is None:
                        assert lbw == 2
                        label[w] = 2
                        labeledge[w] = (v, w, k)

            if augmented:
                break

            # No augmenting path; compute delta and update the duals.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # delta1: the minimum value of any vertex dual.
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar)

            # delta2: minimum slack on any edge from an S-vertex to a
            # free one.
            for v in range(n):
                if label[inblossom[v]] is None and bestedge[v] is not None:
                    kk = bestedge[v][2]
                    d = dualvar[endpoint_u[kk]] + dualvar[endpoint_v[kk]] - weight2[kk]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # delta3: half the minimum slack between a pair of S-blossoms.
            for b in chain(range(n), blossomdual):
                if (
                    blossomparent[b] is None
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    kslack = slack(bestedge[b][2])
                    if allinteger:
                        assert (kslack % 2) == 0
                        d = kslack // 2
                    else:
                        d = kslack / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: minimum dual of any T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Max-cardinality optimum reached; make the optimum verifiable.
                assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar))

            # Update dual variables according to delta.
            for v in range(n):
                vlabel = label[inblossom[v]]
                if vlabel == 1:
                    dualvar[v] -= delta
                elif vlabel == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            # Take action at the point where the minimum delta occurred.
            if deltatype == 1:
                break
            elif deltatype == 2:
                v, w, k = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[k] = True
                queue.append(v)
            elif deltatype == 3:
                v, w, k = deltaedge
                allowedge[k] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)

        # Paranoia check that the matching is symmetric.
        for v in range(n):
            if mate[v] != _NO_NODE:
                assert mate[mate[v]] == v

        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    if allinteger:
        verify_optimum()

    return {(v, w) for v, w in enumerate(mate) if v < w}
