"""Slow reference implementations used to cross-check the library.

Everything here recomputes from the raw arc list: distances by
enumerating simple directed paths, neighborhoods and weights from those
distances, antimagic verdicts by trying every bijection.  None of it
touches the library's BFS, caching or search code, so agreement between
the two routes is evidence rather than tautology.  Keep instances small;
the point is independence, not speed.
"""

from itertools import permutations, product
from math import comb, factorial


def path_distance(arcs, u, v):
    """Shortest directed path length from u to v, None when unreachable."""
    if u == v:
        return 0
    out = {}
    for tail, head in arcs:
        out.setdefault(tail, []).append(head)
    best = None
    stack = [(u, 0, frozenset([u]))]
    while stack:
        node, length, seen = stack.pop()
        if best is not None and length + 1 >= best:
            continue
        for nxt in out.get(node, ()):
            if nxt in seen:
                continue
            if nxt == v:
                best = length + 1
            else:
                stack.append((nxt, length + 1, seen | {nxt}))
    return best


def finite_diameter(vertices, arcs):
    best = 0
    for u in vertices:
        for v in vertices:
            d = path_distance(arcs, u, v)
            if d is not None and d > best:
                best = d
    return best


def neighborhood(vertices, arcs, u, distances):
    return {v for v in vertices if path_distance(arcs, u, v) in set(distances)}


def has_equal_neighborhoods(vertices, arcs, distances):
    """Do two vertices have the same D-neighborhood?  They then weigh
    the same under every labeling."""
    nbs = [frozenset(neighborhood(vertices, arcs, u, distances)) for u in vertices]
    return len(set(nbs)) < len(nbs)


def weights(vertices, arcs, labels, distances):
    return {
        u: sum(labels[v] for v in neighborhood(vertices, arcs, u, distances))
        for u in vertices
    }


def is_weight_distinct(vertices, arcs, labels, distances):
    seen = weights(vertices, arcs, labels, distances)
    return len(set(seen.values())) == len(vertices)


def _index_neighborhoods(vertices, arcs, distances):
    # Neighborhoods do not depend on labels, so compute them once per
    # instance (still by path enumeration) before sweeping permutations.
    verts = list(vertices)
    position = {v: i for i, v in enumerate(verts)}
    return [
        tuple(position[w] for w in neighborhood(verts, arcs, u, distances))
        for u in verts
    ]


def _separates(perm, nbs):
    seen = set()
    for nb in nbs:
        w = sum(perm[i] for i in nb)
        if w in seen:
            return False
        seen.add(w)
    return True


def antimagic_labelings(vertices, arcs, distances):
    """Every weight-separating bijection, by brute force over |V|!."""
    verts = list(vertices)
    nbs = _index_neighborhoods(verts, arcs, distances)
    found = []
    for perm in permutations(range(1, len(verts) + 1)):
        if _separates(perm, nbs):
            found.append(dict(zip(verts, perm)))
    return found


def count_antimagic(vertices, arcs, distances):
    nbs = _index_neighborhoods(vertices, arcs, distances)
    n = len(nbs)
    return sum(
        1 for perm in permutations(range(1, n + 1)) if _separates(perm, nbs)
    )


def exists_antimagic(vertices, arcs, distances):
    nbs = _index_neighborhoods(vertices, arcs, distances)
    n = len(nbs)
    return any(
        _separates(perm, nbs) for perm in permutations(range(1, n + 1))
    )


def decides_antimagic(vertices, arcs, distances):
    """Decision-level verdict: the set must fit the finite diameter and
    some bijection must separate all weights."""
    if max(distances) > finite_diameter(vertices, arcs):
        return False
    return exists_antimagic(vertices, arcs, distances)


def count_joint_antimagic(vertices, arcs, distance_sets):
    """Bijections that separate weights under every given set at once."""
    sets_nbs = [
        _index_neighborhoods(vertices, arcs, D) for D in distance_sets
    ]
    n = len(list(vertices))
    return sum(
        1
        for perm in permutations(range(1, n + 1))
        if all(_separates(perm, nbs) for nbs in sets_nbs)
    )


def symmetry_orbits(vertices, arcs, distance_sets):
    """Orbit chain and group order of the search's symmetry reduction.

    The reference rule, checked pair by pair: two vertices are
    interchangeable when swapping them maps every D-neighborhood onto
    the swapped vertex's D-neighborhood, for every set at once.  Classes
    are the union-find closure of that relation.  Returns, per vertex
    index, the previous member of its class in index order (-1 for the
    first), and the product of the class sizes' factorials.
    """
    verts = list(vertices)
    n = len(verts)
    dist = [[path_distance(arcs, u, v) for v in verts] for u in verts]
    nbs_per_set = [
        [{w for w in range(n) if dist[u][w] in set(D)} for u in range(n)]
        for D in distance_sets
    ]

    def interchangeable(u, v):
        def swap(x):
            return v if x == u else u if x == v else x

        return all(
            {swap(x) for x in nbs[w]} == nbs[swap(w)]
            for nbs in nbs_per_set
            for w in range(n)
        )

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if find(u) != find(v) and interchangeable(u, v):
                parent[find(v)] = find(u)
    orbit_prev = [-1] * n
    order = 1
    last_in_class = {}
    class_size = {}
    for v in range(n):
        root = find(v)
        orbit_prev[v] = last_in_class.get(root, -1)
        last_in_class[root] = v
        class_size[root] = class_size.get(root, 0) + 1
        order *= class_size[root]
    return orbit_prev, order


def symmetry_chains(vertices, arcs, distance_sets):
    """Orbit chain and group order once whole components may be swapped.

    Starts from :func:`symmetry_orbits`.  Two weakly connected
    components are swappable when exchanging them, vertex for vertex in
    index order, maps the arc set onto itself.  For each family of m
    mutually swappable components, the first position whose vertex is
    alone in its twin class links those vertices in index order, and
    the group order gains a factor m!; a family with no such position
    is left alone.
    """
    orbit_prev, order = symmetry_orbits(vertices, arcs, distance_sets)
    verts = list(vertices)
    n = len(verts)
    position = {v: i for i, v in enumerate(verts)}
    arc_set = {(position[a], position[b]) for a, b in arcs}
    undirected = {}
    for a, b in arc_set:
        undirected.setdefault(a, set()).add(b)
        undirected.setdefault(b, set()).add(a)
    components, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        reach, frontier = {start}, [start]
        while frontier:
            for w in undirected.get(frontier.pop(), ()):
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        seen |= reach
        components.append(sorted(reach))

    def swappable(first, second):
        if len(first) != len(second):
            return False
        swap = dict(zip(first, second))
        swap.update(zip(second, first))
        moved = {(swap.get(a, a), swap.get(b, b)) for a, b in arc_set}
        return moved == arc_set

    families = []
    for component in components:
        for family in families:
            if swappable(family[0], component):
                family.append(component)
                break
        else:
            families.append([component])
    alone = [
        orbit_prev[v] < 0 and v not in orbit_prev for v in range(n)
    ]
    for family in families:
        if len(family) < 2:
            continue
        fixed = [i for i, v in enumerate(family[0]) if alone[v]]
        if not fixed:
            continue
        chain = sorted(component[fixed[0]] for component in family)
        for prev, nxt in zip(chain, chain[1:]):
            orbit_prev[nxt] = prev
        order *= factorial(len(family))
    return orbit_prev, order


def orientation_classes_from_arcs(spec):
    """Orientation classes of a star forest from all 2^(#edges) arc directions.

    Flips every leaf arc independently and quotients by the leaf and
    copy permutations, returning the surviving canonical classes.  Only
    for small instances; the canonical enumerator must agree with it.
    """
    sizes = spec.star_sizes()
    group_slices = []
    start = 0
    for group in spec.groups:
        group_slices.append((start, start + group.count))
        start += group.count
    classes = set()
    for bits in product((0, 1), repeat=sum(sizes)):
        ts = []
        offset = 0
        for n in sizes:
            ts.append(sum(bits[offset : offset + n]))
            offset += n
        classes.add(tuple(tuple(sorted(ts[a:b])) for a, b in group_slices))
    return classes


def orientation_class_count(spec):
    """Closed-form count of a forest's orientation classes.

    Each group of m copies of K_{1,n} contributes the multisets of size
    m over the n+1 values of t: comb(n + m, m) of them.
    """
    total = 1
    for group in spec.groups:
        total *= comb(group.leaves + group.count, group.count)
    return total
