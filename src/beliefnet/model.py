"""Network representation: categorical variables, DAG, CPTs, structural queries.

A fitted network couples a DAG over named categorical variables with one
conditional probability table per node; the joint distribution is the product
of the per-node conditionals P(X_i | parents(X_i)).

Parent configurations are indexed mixed-radix over ``parent_order`` with the
first parent most significant: configuration j of parents with cardinalities
(c_1, ..., c_m) decodes to levels (l_1, ..., l_m) via
``j = ((l_1 * c_2 + l_2) * c_3 + ...) + l_m``. Row j of a CPT is the
distribution of the variable given that configuration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, UnknownLevel, UnknownVariable

# Row sums within EXACT_TOL are accepted as-is; within REPAIR_TOL they are
# renormalized with a warning; anything worse is rejected.
ROW_SUM_EXACT_TOL = 1e-12
ROW_SUM_REPAIR_TOL = 1e-9


@dataclass(frozen=True)
class CategoricalVariable:
    """A named variable with an ordered, finite set of level labels.

    ``ordinal`` is metadata only: ordinal scales are modeled as plain
    categorical variables, so no order-aware parameterization exists anywhere
    in the toolkit.
    """

    name: str
    levels: tuple[str, ...]
    ordinal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise ValueError(f"variable {self.name!r} needs at least 2 levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"variable {self.name!r} has duplicate levels")

    @property
    def r(self) -> int:
        return len(self.levels)

    def level_index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except ValueError:
            raise UnknownLevel(self.name, label) from None


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph over named nodes.

    ``parents`` maps each node to an ordered tuple of parent names; nodes
    absent from the mapping have no parents. Acyclicity is verified at
    construction.
    """

    nodes: tuple[str, ...]
    parents: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        node_set = set(self.nodes)
        full = {}
        for node, pa in dict(self.parents).items():
            if node not in node_set:
                raise UnknownVariable(node)
            pa = tuple(pa)
            for p in pa:
                if p not in node_set:
                    raise UnknownVariable(p)
                if p == node:
                    raise ValueError(f"self-loop on {node!r}")
            if len(set(pa)) != len(pa):
                raise ValueError(f"duplicate parent for {node!r}")
            full[node] = pa
        for node in self.nodes:
            full.setdefault(node, ())
        object.__setattr__(self, "parents", full)
        topological_order(self)  # raises CycleDetected

    def parent_tuple(self, node: str) -> tuple:
        try:
            return self.parents[node]
        except KeyError:
            raise UnknownVariable(node) from None

    def arcs(self):
        """All (parent, child) pairs, children in node order."""
        return [(p, c) for c in self.nodes for p in self.parents[c]]

    def ancestors(self, node: str) -> set:
        """Strict ancestors of ``node``."""
        return self.ancestral_closure(self.parent_tuple(node))

    def ancestral_closure(self, nodes) -> set:
        """``nodes`` plus all their ancestors."""
        seen = set()
        stack = list(nodes)
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(self.parents[cur])
        return seen


def topological_order(dag: Dag) -> list:
    """Order nodes so every parent precedes its children.

    Raises CycleDetected (naming one offending cycle) instead of returning a
    partial order. Deterministic: among ready nodes, the one listed first in
    ``dag.nodes`` is emitted first.
    """
    parents = {n: set(dag.parents.get(n, ())) for n in dag.nodes}
    order = []
    remaining = list(dag.nodes)
    while remaining:
        ready = [n for n in remaining if not parents[n]]
        if not ready:
            raise CycleDetected(_find_cycle(dag, remaining))
        for n in ready:
            order.append(n)
        done = set(ready)
        remaining = [n for n in remaining if n not in done]
        for n in remaining:
            parents[n] -= done
    return order


def _find_cycle(dag, candidates):
    # every remaining node has a parent among the remaining nodes, so walking
    # parent links must revisit a node
    remaining = set(candidates)
    start = candidates[0]
    trail, seen = [], {}
    cur = start
    while cur not in seen:
        seen[cur] = len(trail)
        trail.append(cur)
        cur = next(p for p in dag.parents[cur] if p in remaining)
    cycle = trail[seen[cur]:]
    cycle.reverse()  # parent links walk backwards; report in arc direction
    return cycle


@dataclass(frozen=True)
class TierSpec:
    """Ordered variable groups used to blacklist arcs into earlier tiers;
    arcs within a tier stay allowed."""

    tiers: tuple

    def __post_init__(self):
        tiers = tuple(tuple(t) for t in self.tiers)
        if not tiers or any(not t for t in tiers):
            raise ValueError("tiers must be non-empty")
        flat = [v for t in tiers for v in t]
        if len(set(flat)) != len(flat):
            raise ValueError("a variable appears in more than one tier")
        object.__setattr__(self, "tiers", tiers)

    def members(self) -> set:
        return {v for t in self.tiers for v in t}


def check_rows(variable, table):
    """``Cpt``'s rule on the rows of a (q, r) ``table``: their sums and the
    mask of rows to renormalize, or ValueError for a row it refuses."""
    if np.any(table < 0) or np.any(table > 1 + ROW_SUM_REPAIR_TOL):
        raise ValueError(f"CPT for {variable!r} has entries outside [0, 1]")
    sums = table.sum(axis=1)
    off = np.abs(sums - 1.0)
    bad = ~(off <= ROW_SUM_REPAIR_TOL)  # a NaN entry makes its row bad
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(f"CPT for {variable!r}: row {j} sums to {float(sums[j])!r}, not 1")
    return sums, off > ROW_SUM_EXACT_TOL


class Cpt:
    """Conditional probability table of one variable.

    ``table`` has shape (q, r): one row per parent configuration (mixed-radix
    over ``parent_order``), one column per variable state. Rows summing to 1
    within 1e-12 are taken as-is; discrepancies up to 1e-9 are renormalized
    with a warning; larger ones, and rows holding a NaN, are rejected.
    """

    __slots__ = ("variable", "parent_order", "table")

    def __init__(self, variable, parent_order, table):
        self.variable = str(variable)
        self.parent_order = tuple(parent_order)
        table = np.array(table, dtype=float)
        if table.ndim != 2:
            raise ValueError(f"CPT for {variable!r} must be 2-D (q, r)")
        if table.shape[1] < 2:
            raise ValueError(f"CPT for {variable!r} needs at least 2 states")
        sums, repair = check_rows(variable, table)
        if np.any(repair):
            warnings.warn(
                f"CPT for {variable!r}: renormalizing {int(repair.sum())} row(s) "
                "within 1e-9 of 1",
                stacklevel=2,
            )
            table = table / sums[:, None]
        table.flags.writeable = False
        self.table = table

    @property
    def q(self) -> int:
        return self.table.shape[0]

    @property
    def r(self) -> int:
        return self.table.shape[1]

    def __repr__(self):
        return f"Cpt({self.variable!r}, parents={list(self.parent_order)}, q={self.q}, r={self.r})"


class FittedNetwork:
    """A DAG plus one CPT per node. The constructor, the one way to build one, checks each CPT."""

    __slots__ = ("variables", "dag", "cpts", "metadata", "family_cards", "_index")

    def __init__(self, variables, dag, cpts, metadata=None):
        self.variables = tuple(variables)
        self._index = {v.name: v for v in self.variables}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable names")
        if set(dag.nodes) != set(self._index):
            raise ValueError("DAG nodes and variable names differ")
        self.dag = dag
        cpts = dict(cpts)
        if set(cpts) != set(self._index):
            raise ValueError("need exactly one CPT per node")
        # name -> (parent cards in CPT order..., own card): each CPT's shape as a factor
        self.family_cards = {}
        for name, cpt in cpts.items():
            if cpt.variable != name:
                raise ValueError(f"CPT under key {name!r} is for {cpt.variable!r}")
            if cpt.parent_order != dag.parents[name]:
                raise ValueError(f"CPT parent order for {name!r} does not match the DAG")
            cards = tuple(self._index[v].r for v in cpt.parent_order + (name,))
            expected = (math.prod(cards[:-1]), cards[-1])
            if cpt.table.shape != expected:
                raise ValueError(f"CPT for {name!r} has shape {cpt.table.shape}, expected {expected}")
            self.family_cards[name] = cards
        self.cpts = cpts
        self.metadata = dict(metadata or {})

    def variable(self, name: str) -> CategoricalVariable:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def parent_cards(self, name: str) -> tuple:
        return self.family_cards[name][:-1]
