"""Graph references for the tests: d-separation, CPDAG conversion and
structural Hamming distance.

``d_separated`` is the general Bayes-ball test, any conditioning set; the
library needs only the empty set, where the ancestral-closure rule decides
it. dag -> CPDAG: orient v-structures on the skeleton, then close under the
Meek rules; everything else stays undirected. SHD between two patterns counts
the unordered pairs whose edge type (absent / undirected / either direction)
differs.
"""

import itertools

from beliefnet.errors import UnknownVariable


def d_separated(dag, x: str, y: str, given=()) -> bool:
    """Decide whether ``given`` blocks every path between ``x`` and ``y``.

    Standard d-separation, computed by active-trail reachability (Bayes-ball):
    a collider admits the trail only if it or one of its descendants is
    observed; chains and forks are blocked by observed nodes.
    """
    node_set = set(dag.nodes)
    given = set(given)
    for name in {x, y} | given:
        if name not in node_set:
            raise UnknownVariable(name)
    if x == y or x in given or y in given:
        raise ValueError("x and y must be distinct and not part of the conditioning set")

    children = {n: [] for n in dag.nodes}
    for c in dag.nodes:
        for p in dag.parents[c]:
            children[p].append(c)
    # the set from which a collider can be opened: ``given`` and its
    # ancestors, found here rather than by ``Dag.ancestral_closure``, so the
    # reference shares no code with the rule it judges
    anc_given, stack = set(), list(given)
    while stack:
        node = stack.pop()
        if node not in anc_given:
            anc_given.add(node)
            stack.extend(dag.parents[node])

    visited = set()
    frontier = [(x, "up")]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False
        if direction == "up" and node not in given:
            frontier.extend((p, "up") for p in dag.parents[node])
            frontier.extend((c, "down") for c in children[node])
        elif direction == "down":
            if node not in given:
                frontier.extend((c, "down") for c in children[node])
            if node in anc_given:
                frontier.extend((p, "up") for p in dag.parents[node])
    return True


def _adjacent(skeleton, a, b):
    return frozenset((a, b)) in skeleton


def cpdag(dag):
    """Return (directed arcs set, undirected edges set of frozensets)."""
    skeleton = {frozenset((p, c)) for p, c in dag.arcs()}
    directed = set()
    # v-structures: a -> y <- b with a, b non-adjacent
    for y in dag.nodes:
        for a, b in itertools.combinations(dag.parents[y], 2):
            if not _adjacent(skeleton, a, b):
                directed.add((a, y))
                directed.add((b, y))

    def undirected_pairs():
        return [
            tuple(sorted(e))
            for e in skeleton
            if not any((a, b) in directed for a, b in itertools.permutations(e))
        ]

    changed = True
    nodes = list(dag.nodes)
    while changed:
        changed = False
        for a, b in [p for e in undirected_pairs() for p in (e, e[::-1])]:
            # R1: c -> a, a - b, c and b non-adjacent  =>  a -> b
            if any(
                (c, a) in directed and not _adjacent(skeleton, c, b)
                for c in nodes
                if c not in (a, b)
            ):
                directed.add((a, b))
                changed = True
                continue
            # R2: a -> c -> b and a - b  =>  a -> b
            if any(
                (a, c) in directed and (c, b) in directed
                for c in nodes
                if c not in (a, b)
            ):
                directed.add((a, b))
                changed = True
                continue
            # R3: a - c, a - d, c -> b, d -> b, c and d non-adjacent  =>  a -> b
            found = False
            for c, d in itertools.combinations(nodes, 2):
                if c in (a, b) or d in (a, b):
                    continue
                if (
                    _adjacent(skeleton, a, c)
                    and _adjacent(skeleton, a, d)
                    and (c, b) in directed
                    and (d, b) in directed
                    and not _adjacent(skeleton, c, d)
                    and (a, c) not in directed
                    and (c, a) not in directed
                    and (a, d) not in directed
                    and (d, a) not in directed
                ):
                    found = True
                    break
            if found:
                directed.add((a, b))
                changed = True
    undirected = {
        e
        for e in skeleton
        if not any(tuple(p) in directed for p in itertools.permutations(e))
    }
    return directed, undirected


def _edge_type(pattern, a, b):
    directed, undirected = pattern
    if (a, b) in directed:
        return ">"
    if (b, a) in directed:
        return "<"
    if frozenset((a, b)) in undirected:
        return "-"
    return None


def shd(pattern_a, pattern_b, nodes):
    """Edge edits between two patterns over the same node set."""
    dist = 0
    for a, b in itertools.combinations(sorted(nodes), 2):
        if _edge_type(pattern_a, a, b) != _edge_type(pattern_b, a, b):
            dist += 1
    return dist


def skeleton_of(pattern):
    directed, undirected = pattern
    return {frozenset(e) for e in directed} | set(undirected)
