"""Exact variable elimination on validated factors, kept as an oracle.

``ReferenceFactor`` validates every table it builds and aligns both operands
of a product by transposing; ``reference_min_fill_order`` counts fill over
re-sorted neighbour sets; ``reference_posterior`` is the elimination loop,
renormalization included, built from the two. ``beliefnet.inference`` must
give bit-identical results: the same products and sums in the same order.
"""

import math

import numpy as np

from beliefnet.errors import InvalidQuery, ZeroProbabilityEvidence


class ReferenceFactor:
    def __init__(self, scope, cards, values):
        self.scope = tuple(scope)
        self.cards = tuple(int(c) for c in cards)
        values = np.asarray(values, dtype=float)
        if values.shape != self.cards:
            raise ValueError(f"values shape {values.shape} != cards {self.cards}")
        self.values = values

    @staticmethod
    def from_cpt(net, name):
        cpt = net.cpts[name]
        cards = net.parent_cards(name) + (net.variable(name).r,)
        return ReferenceFactor(cpt.parent_order + (name,), cards, cpt.table.reshape(cards))

    def reduce(self, evidence_levels):
        index = tuple(evidence_levels.get(v, slice(None)) for v in self.scope)
        keep = [i for i, v in enumerate(self.scope) if v not in evidence_levels]
        return ReferenceFactor(
            tuple(self.scope[i] for i in keep),
            tuple(self.cards[i] for i in keep),
            self.values[index],
        )

    def aligned(self, scope, cards):
        order = [v for v in scope if v in self.scope]
        perm = [self.scope.index(v) for v in order]
        vals = self.values.transpose(perm)
        shape = tuple(c if v in self.scope else 1 for v, c in zip(scope, cards))
        return vals.reshape(shape)

    def multiply(self, other):
        scope = self.scope + tuple(v for v in other.scope if v not in self.scope)
        lookup = dict(zip(self.scope, self.cards)) | dict(zip(other.scope, other.cards))
        cards = tuple(lookup[v] for v in scope)
        return ReferenceFactor(
            scope, cards, self.aligned(scope, cards) * other.aligned(scope, cards)
        )

    def sum_out(self, name):
        axis = self.scope.index(name)
        return ReferenceFactor(
            self.scope[:axis] + self.scope[axis + 1:],
            self.cards[:axis] + self.cards[axis + 1:],
            self.values.sum(axis=axis),
        )


def reference_min_fill_order(scopes, hidden):
    """The min-fill ordering as first written: re-sorted pairwise fill count."""
    adjacency = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set())
        for i, a in enumerate(scope):
            for b in scope[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    order = []
    pending = set(hidden)
    while pending:
        best, best_fill = None, None
        for v in sorted(pending):
            nbrs = adjacency[v] & set(adjacency)
            fill = sum(
                1
                for i, a in enumerate(sorted(nbrs))
                for b in sorted(nbrs)[i + 1:]
                if b not in adjacency[a]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nbrs = adjacency[best]
        for a in nbrs:
            adjacency[a] |= nbrs - {a}
            adjacency[a].discard(best)
        del adjacency[best]
        pending.discard(best)
        order.append(best)
    return order


def reference_posterior(net, target, evidence=None):
    """(distribution, log P(evidence), elimination order) of P(target | evidence)."""
    evidence = dict(evidence or {})
    ev_levels = {
        name: net.variable(name).level_index(lvl) for name, lvl in evidence.items()
    }
    if target in ev_levels:
        raise InvalidQuery(f"target {target!r} appears in the evidence")
    relevant = set()
    stack = [target, *ev_levels]
    while stack:
        cur = stack.pop()
        if cur not in relevant:
            relevant.add(cur)
            stack.extend(net.dag.parent_tuple(cur))
    factors = [
        ReferenceFactor.from_cpt(net, name).reduce(ev_levels)
        for name in net.dag.nodes
        if name in relevant
    ]
    hidden = relevant - {target} - set(ev_levels)
    order = reference_min_fill_order([f.scope for f in factors], hidden)

    log_scale = 0.0
    for name in order:
        related = [f for f in factors if name in f.scope]
        prod = related[0]
        for f in related[1:]:
            prod = prod.multiply(f)
        summed = prod.sum_out(name)
        total = float(summed.values.sum())
        if total > 0.0:
            summed = ReferenceFactor(summed.scope, summed.cards, summed.values / total)
            log_scale += math.log(total)
        factors = [f for f in factors if name not in f.scope] + [summed]

    final = factors[0]
    for f in factors[1:]:
        final = final.multiply(f)
        total = float(final.values.sum())
        if total > 0.0:
            final.values /= total
            log_scale += math.log(total)
    r = net.variable(target).r
    final = final.aligned((target,), (r,)).reshape(r)
    z = float(final.sum())
    if z == 0.0:
        raise ZeroProbabilityEvidence(evidence, 0.0)
    return final / z, log_scale + math.log(z), tuple(order)
