"""Parameter fitting and exact queries via factor-based variable elimination.

Fitting refuses missing cells and tallies each family with one ``bincount``
over the rows' mixed-radix cell codes (parents in CPT order, first most
significant, the child last), so N_ijk and N_ij are exact int64 counts.

Posterior queries prune barren nodes (everything outside the ancestral
closure of the target and the evidence), reduce the remaining CPT factors by
the evidence, and eliminate hidden variables along a min-fill ordering. The
same elimination, ``_eliminate``, can keep several variables (a joint
marginal) and leave one CPT out of the product (a CPT gradient); the
analysis module builds Sobol indices and sensitivity slopes on it.
Factors are renormalized as they are produced, and so is the running product
of the factors left at the end, accumulating the log scale, so the evidence
probability survives underflow: QueryResult carries log P(evidence) exactly,
and evidence is rejected only when its probability is a structural zero.

A query's cost is mostly Python overhead per step, so the min-fill ordering
works on int bitmasks, and ``Factor`` has one unchecked constructor: the
shape checks live in the reference factor of the tests, which validates
every table it builds. Neither changes the arithmetic: every product and sum
happens in the same order as in that reference elimination loop, so results
are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataTable
from .errors import InvalidQuery, ZeroProbabilityEvidence
from .model import (
    Cpt,
    Dag,
    FittedNetwork,
    topological_order,
)

class Factor:
    """A nonnegative table over an ordered variable scope: ``scope`` and
    ``cards`` are tuples and ``values`` a float array of shape ``cards``,
    all taken unchecked."""

    __slots__ = ("scope", "cards", "values")

    def __init__(self, scope, cards, values):
        self.scope, self.cards, self.values = scope, cards, values

    @staticmethod
    def from_cpt(net: FittedNetwork, name: str) -> "Factor":
        cpt = net.cpts[name]
        cards = net.family_cards[name]
        return Factor(cpt.parent_order + (name,), cards, cpt.table.reshape(cards))

    def reduce(self, evidence_levels: dict) -> "Factor":
        """Select the observed level on every evidence axis in scope."""
        keep = [i for i, v in enumerate(self.scope) if v not in evidence_levels]
        if len(keep) == len(self.scope):
            return self
        # the trailing Ellipsis keeps a fully indexed table a 0-d array
        index = tuple(evidence_levels.get(v, slice(None)) for v in self.scope)
        return Factor(
            tuple(self.scope[i] for i in keep),
            tuple(self.cards[i] for i in keep),
            self.values[index + (...,)],
        )

    def _aligned(self, scope, cards):
        order = [v for v in scope if v in self.scope]
        perm = [self.scope.index(v) for v in order]
        vals = self.values.transpose(perm)
        shape = tuple(c if v in self.scope else 1 for v, c in zip(scope, cards))
        return vals.reshape(shape)

    def multiply(self, other: "Factor") -> "Factor":
        extra = [i for i, v in enumerate(other.scope) if v not in self.scope]
        scope = self.scope + tuple(other.scope[i] for i in extra)
        cards = self.cards + tuple(other.cards[i] for i in extra)
        # self's axes already lead the product's scope, in order
        left = self.values.reshape(self.cards + (1,) * len(extra))
        return Factor(scope, cards, left * other._aligned(scope, cards))

    def sum_out(self, name: str) -> "Factor":
        axis = self.scope.index(name)
        return Factor(
            self.scope[:axis] + self.scope[axis + 1:],
            self.cards[:axis] + self.cards[axis + 1:],
            self.values.sum(axis=axis)[...],  # 0-d array, not a numpy scalar
        )


def _min_fill_order(scopes, hidden):
    """Greedy min-fill elimination order over the factor interaction graph;
    ties go to the smallest name. Neighbour sets are bitmasks over the
    variables numbered in sorted-name order."""
    names = sorted({v for scope in scopes for v in scope})
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for scope in scopes:
        ids = [index[v] for v in scope]
        clique = sum(1 << i for i in ids)
        for i in ids:
            adj[i] |= clique & ~(1 << i)
    order = []
    pending = sorted(index[v] for v in hidden)
    while pending:
        best, best_fill = None, None
        for v in pending:
            # nbrs & ~adj[a] is a plus the neighbours a lacks, so every
            # missing pair is counted from both ends
            nbrs = m = adj[v]
            fill = 0
            while m:
                low = m & -m
                m ^= low
                fill += (nbrs & ~adj[low.bit_length() - 1]).bit_count() - 1
            fill //= 2
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
                if fill == 0:  # no later vertex can beat it
                    break
        nbrs = m = adj[best]
        while m:
            low = m & -m
            m ^= low
            a = low.bit_length() - 1
            adj[a] = (adj[a] | nbrs) & ~(low | 1 << best)
        pending.remove(best)
        order.append(names[best])
    return order


@dataclass(frozen=True)
class QueryResult:
    """Posterior of one target plus the probability of the conditioning evidence.

    ``evidence_probability`` underflows to 0.0 below about 1e-308;
    ``log_evidence_probability`` keeps its natural log at any magnitude.
    """

    target: str
    levels: tuple
    distribution: np.ndarray
    evidence: dict
    evidence_probability: float
    log_evidence_probability: float
    elimination_order: tuple = ()

    def __getitem__(self, level):
        return float(self.distribution[self.levels.index(level)])


def _eliminate(net, keep, ev_levels, order=None, without=None):
    """Variable elimination down to the variables ``keep``.

    Prunes barren nodes (everything outside the ancestral closure of ``keep``
    and the evidence), reduces the CPT factors by ``ev_levels`` (name to
    level index), leaves out the CPT of ``without``, and eliminates the other
    variables along ``order`` (min-fill by default). Returns the product of
    the remaining factors as an array with one axis per variable of ``keep``
    (of length 1 for a kept variable no factor holds), the log of the scale
    divided out of it, and the elimination order.
    """
    relevant = net.dag.ancestral_closure([*keep, *ev_levels])
    factors = [
        Factor.from_cpt(net, name).reduce(ev_levels)
        for name in net.dag.nodes
        if name in relevant and name != without
    ]
    hidden = relevant - set(keep) - set(ev_levels)
    if order is None:
        order = _min_fill_order([f.scope for f in factors], hidden)
    else:
        order = [v for v in order if v in hidden]  # barren nodes are pruned
        if set(order) != hidden or len(order) != len(hidden):
            raise InvalidQuery(
                "elimination order must cover the hidden variables exactly once"
            )

    log_scale = 0.0
    for name in order:
        related = [f for f in factors if name in f.scope]
        prod = related[0]
        for f in related[1:]:
            prod = prod.multiply(f)
        summed = prod.sum_out(name)
        total = float(summed.values.sum())
        if total > 0.0:
            summed.values /= total  # a fresh array, not a CPT view
            log_scale += math.log(total)
        factors = [f for f in factors if name not in f.scope] + [summed]

    # left: factors over kept variables and the scalar factors of reduced
    # evidence roots; renormalize their running product as it grows, and keep
    # multiplying past a structural zero so every kept axis is present
    final = factors[0] if factors else Factor((), (), np.ones(()))
    for f in factors[1:]:
        final = final.multiply(f)
        total = float(final.values.sum())
        if total > 0.0:
            final.values /= total  # a fresh array, not a CPT view
            log_scale += math.log(total)
    cards = tuple(net.variable(v).r for v in keep)
    return final._aligned(keep, cards), log_scale, tuple(order)


def _evidence_levels(net, evidence, target=None) -> dict:
    """``{name: level index}`` of the ``{variable: level}`` map ``evidence``
    (None for none); an unknown variable or level raises, and so does
    evidence on ``target``."""
    levels = {name: net.variable(name).level_index(v) for name, v in (evidence or {}).items()}
    if target in levels:
        raise InvalidQuery(f"target {target!r} appears in the evidence")
    return levels


def posterior(net: FittedNetwork, target: str, evidence=None, order=None) -> QueryResult:
    """Exact P(target | evidence) by variable elimination.

    ``order`` overrides the min-fill elimination order; it must be a
    permutation of the hidden variables that the default would eliminate.
    """
    evidence = dict(evidence or {})
    ev_levels = _evidence_levels(net, evidence, target)
    var = net.variable(target)
    final, log_scale, order = _eliminate(net, (target,), ev_levels, order)
    z = float(final.sum())
    if z == 0.0:
        raise ZeroProbabilityEvidence(evidence, 0.0)
    dist = final / z
    dist.flags.writeable = False
    return QueryResult(
        target, var.levels, dist, evidence, z * math.exp(log_scale),
        log_scale + math.log(z), order,
    )


def _family_tables(dag: Dag, data: DataTable):
    """Yield (node, N_ijk as a (q, r) int64 table) for every node; a parent
    configuration never observed keeps a zero row."""
    sub = data.select(dag.nodes)
    if sub.missing_mask().any():
        raise ValueError("parameter fitting requires complete-case data")
    for node in dag.nodes:
        cell, size = np.zeros(data.n_rows, dtype=np.int64), 1
        for name in dag.parent_tuple(node) + (node,):
            r = data.variable(name).r
            cell, size = cell * r + data.column(name), size * r
        yield node, np.bincount(cell, minlength=size).reshape(-1, data.variable(node).r)


def fit_bayes(dag: Dag, data: DataTable, alpha: float = 1.0) -> FittedNetwork:
    """Dirichlet-smoothed estimates (N_ijk + alpha) / (N_ij + r_i * alpha).

    N_ijk comes from one ``bincount`` per family over every row, and N_ij is
    its row sum; a table with a missing cell in the DAG's columns is refused.
    alpha = 1 is the uniform prior; every entry is strictly positive, and a
    never-observed parent configuration falls back to the uniform row.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    cpts = {}
    for node, n in _family_tables(dag, data):
        table = (n + alpha) / (n.sum(axis=1)[:, None] + n.shape[1] * alpha)
        cpts[node] = Cpt(node, dag.parent_tuple(node), table)
    variables = tuple(data.variable(n) for n in dag.nodes)
    metadata = {
        "method": "bayes",
        "alpha": float(alpha),
        "n_rows": int(data.n_rows),
        "data_fingerprint": data.source,
    }
    return FittedNetwork(variables, dag, cpts, metadata)


def sample(net: FittedNetwork, n: int, seed: int = 0) -> DataTable:
    """Ancestral sampling in topological order; deterministic given the seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = topological_order(net.dag)
    col = {v.name: i for i, v in enumerate(net.variables)}
    codes = np.zeros((n, len(net.variables)), dtype=np.int32)
    for name in order:
        cpt = net.cpts[name]
        cards = net.parent_cards(name)
        j = np.zeros(n, dtype=np.int64)
        for parent, card in zip(cpt.parent_order, cards):
            j = j * card + codes[:, col[parent]]
        cum = np.cumsum(cpt.table, axis=1)[j]
        u = rng.random(n)
        codes[:, col[name]] = np.minimum(
            (u[:, None] > cum).sum(axis=1), cpt.r - 1
        )
    return DataTable(net.variables, codes, source=f"sampled(seed={seed}, n={n})")
