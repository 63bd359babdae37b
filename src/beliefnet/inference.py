"""Parameter fitting and exact queries via factor-based variable elimination.

Posterior queries prune barren nodes (everything outside the ancestral
closure of the target and the evidence), reduce the remaining CPT factors by
the evidence, and eliminate hidden variables along a min-fill ordering.
Factors are renormalized as they are produced, and so is the running product
of the factors left at the end, accumulating the log scale, so the evidence
probability survives underflow: QueryResult carries log P(evidence) exactly,
and evidence is rejected only when its probability is a structural zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataTable, counts
from .errors import InvalidQuery, UnknownVariable, ZeroProbabilityEvidence
from .model import (
    Cpt,
    Dag,
    Evidence,
    FittedNetwork,
    topological_order,
)

class Factor:
    """A nonnegative table over an ordered variable scope."""

    __slots__ = ("scope", "cards", "values")

    def __init__(self, scope, cards, values):
        self.scope = tuple(scope)
        self.cards = tuple(int(c) for c in cards)
        values = np.asarray(values, dtype=float)
        if values.shape != self.cards:
            raise ValueError(f"values shape {values.shape} != cards {self.cards}")
        self.values = values

    @staticmethod
    def from_cpt(net: FittedNetwork, name: str) -> "Factor":
        cpt = net.cpts[name]
        cards = net.parent_cards(name) + (net.variable(name).r,)
        return Factor(cpt.parent_order + (name,), cards, cpt.table.reshape(cards))

    def reduce(self, evidence_levels: dict) -> "Factor":
        """Select the observed level on every evidence axis in scope."""
        index = tuple(
            evidence_levels.get(v, slice(None)) for v in self.scope
        )
        keep = [i for i, v in enumerate(self.scope) if v not in evidence_levels]
        return Factor(
            tuple(self.scope[i] for i in keep),
            tuple(self.cards[i] for i in keep),
            self.values[index],
        )

    def _aligned(self, scope, cards):
        order = [v for v in scope if v in self.scope]
        perm = [self.scope.index(v) for v in order]
        vals = self.values.transpose(perm)
        shape = tuple(c if v in self.scope else 1 for v, c in zip(scope, cards))
        return vals.reshape(shape)

    def multiply(self, other: "Factor") -> "Factor":
        scope = self.scope + tuple(v for v in other.scope if v not in self.scope)
        lookup = dict(zip(self.scope, self.cards)) | dict(zip(other.scope, other.cards))
        cards = tuple(lookup[v] for v in scope)
        return Factor(
            scope, cards, self._aligned(scope, cards) * other._aligned(scope, cards)
        )

    def sum_out(self, name: str) -> "Factor":
        axis = self.scope.index(name)
        return Factor(
            self.scope[:axis] + self.scope[axis + 1:],
            self.cards[:axis] + self.cards[axis + 1:],
            self.values.sum(axis=axis),
        )


def _min_fill_order(scopes, hidden):
    """Greedy min-fill elimination order over the factor interaction graph."""
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
            # nbrs - adjacency[a] is a plus the neighbours a lacks, so every
            # missing pair is seen from both ends (eliminated vertices are
            # already gone from every neighbour set)
            nbrs = adjacency[v]
            fill = sum(len(nbrs - adjacency[a]) - 1 for a in nbrs) // 2
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


@dataclass(frozen=True)
class QueryResult:
    """Posterior of one target plus the probability of the conditioning evidence.

    ``evidence_probability`` underflows to 0.0 below about 1e-308;
    ``log_evidence_probability`` keeps its natural log at any magnitude.
    """

    target: str
    levels: tuple
    distribution: np.ndarray
    evidence: Evidence
    evidence_probability: float
    log_evidence_probability: float
    elimination_order: tuple = ()

    def __getitem__(self, level):
        return float(self.distribution[self.levels.index(level)])


def posterior(net: FittedNetwork, target: str, evidence=None, order=None) -> QueryResult:
    """Exact P(target | evidence) by variable elimination.

    ``order`` overrides the min-fill elimination order; it must be a
    permutation of the hidden variables that the default would eliminate.
    """
    evidence = Evidence(evidence).validate(net)
    net.variable(target)
    if target in evidence:
        raise InvalidQuery(f"target {target!r} appears in the evidence")

    ev_levels = {
        name: net.variable(name).level_index(lvl) for name, lvl in evidence.items()
    }

    # barren-node pruning: only ancestors of target/evidence can matter
    relevant = set()
    stack = [target, *ev_levels]
    while stack:
        cur = stack.pop()
        if cur not in relevant:
            relevant.add(cur)
            stack.extend(net.dag.parent_tuple(cur))

    factors = [
        Factor.from_cpt(net, name).reduce(ev_levels)
        for name in net.dag.nodes
        if name in relevant
    ]
    hidden = relevant - {target} - set(ev_levels)
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
            summed = Factor(summed.scope, summed.cards, summed.values / total)
            log_scale += math.log(total)
        factors = [f for f in factors if name not in f.scope] + [summed]

    # left: factors over the target alone and the scalar factors of reduced
    # evidence roots; renormalize their running product as it grows, and keep
    # multiplying past a structural zero so the target axis is always present
    final = factors[0]
    for f in factors[1:]:
        final = final.multiply(f)
        total = float(final.values.sum())
        if total > 0.0:
            final.values /= total  # a fresh array, not a CPT view
            log_scale += math.log(total)
    var = net.variable(target)
    final = final._aligned((target,), (var.r,)).reshape(var.r)
    z = float(final.sum())
    if z == 0.0:
        raise ZeroProbabilityEvidence(evidence, 0.0)
    dist = final / z
    dist.flags.writeable = False
    return QueryResult(
        target, var.levels, dist, evidence, z * math.exp(log_scale),
        log_scale + math.log(z), tuple(order),
    )


def conditional_table(net: FittedNetwork, target: str, sweep: str) -> list:
    """Baseline marginal followed by one posterior per level of ``sweep``."""
    if target == sweep:
        raise InvalidQuery("sweep variable must differ from the target")
    rows = [posterior(net, target)]
    for level in net.variable(sweep).levels:
        rows.append(posterior(net, target, {sweep: level}))
    return rows


def _family_tables(dag: Dag, data: DataTable):
    names = {v.name for v in data.variables}
    for node in dag.nodes:
        if node not in names:
            raise UnknownVariable(node)
    sub = data.select(dag.nodes)
    if sub.missing_mask().any():
        raise ValueError("parameter fitting requires complete-case data")
    for node in dag.nodes:
        yield node, counts(data, node, dag.parent_tuple(node))


def fit_bayes(dag: Dag, data: DataTable, alpha: float = 1.0) -> FittedNetwork:
    """Dirichlet-smoothed estimates (N_ijk + alpha) / (N_ij + r_i * alpha).

    alpha = 1 is the uniform prior; every entry is strictly positive, and a
    never-observed parent configuration falls back to the uniform row.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    cpts = {}
    for node, ct in _family_tables(dag, data):
        table = (ct.counts + alpha) / (
            ct.n_ij[:, None] + ct.variable.r * alpha
        )
        cpts[node] = Cpt(node, dag.parent_tuple(node), table)
    variables = tuple(data.variable(n) for n in dag.nodes)
    metadata = {
        "method": "bayes",
        "alpha": float(alpha),
        "n_rows": int(data.n_rows),
        "data_fingerprint": data.source,
    }
    return FittedNetwork(variables, dag, cpts, metadata)


def fit_mle(dag: Dag, data: DataTable) -> FittedNetwork:
    """Maximum-likelihood estimates N_ijk / N_ij.

    Parent configurations never observed get a uniform row and a warning;
    they carry no data either way. Kept for diagnostics; fitted pipelines use
    fit_bayes.
    """
    cpts = {}
    for node, ct in _family_tables(dag, data):
        n_ij = ct.n_ij[:, None].astype(float)
        empty = ct.n_ij == 0
        if empty.any():
            warnings.warn(
                f"{node!r}: {int(empty.sum())} unseen parent configuration(s) "
                "set to uniform",
                stacklevel=2,
            )
        with np.errstate(invalid="ignore"):
            table = np.where(n_ij > 0, ct.counts / np.maximum(n_ij, 1), 1.0 / ct.variable.r)
        cpts[node] = Cpt(node, dag.parent_tuple(node), table)
    variables = tuple(data.variable(n) for n in dag.nodes)
    metadata = {"method": "mle", "n_rows": int(data.n_rows), "data_fingerprint": data.source}
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
