"""Decomposable network scores over complete-case categorical data.

The log-likelihood of a graph decomposes into per-node terms
sum_j sum_k N_ijk * log(N_ijk / N_ij), with 0*log(0) = 0 and empty parent
configurations (N_ij = 0) contributing nothing. Scores penalize that fit by
the number of free parameters: AIC subtracts d, BIC subtracts (d/2)*log(N).
Changing one node's parents changes only that node's local term. Rows may
carry multiplicities, so a bootstrap replicate reweights rather than copies.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

from .data import MISSING, CountTable, DataTable, _tally

SCORE_KINDS = ("AIC", "BIC", "LOGLIK")


def _loglik(n) -> float:
    n_ij = n.sum(axis=1)
    return float(xlogy(n, n).sum() - xlogy(n_ij, n_ij).sum())


def local_loglik(count_table: CountTable) -> float:
    """Maximized multinomial log-likelihood contribution of one family."""
    return _loglik(count_table.counts)


class ScoreCache:
    """Memo of local scores keyed by (child column, parent-column bitmask).

    Values are plain function results, so a cached score equals an uncached
    recomputation bit for bit.
    """

    __slots__ = ("store", "hits", "misses")

    def __init__(self):
        self.store = {}
        self.hits = 0
        self.misses = 0


class DecomposableScore:
    """Local-score evaluator bound to one data table and score kind.

    ``weights`` are nonnegative row multiplicities: with
    ``np.bincount(idx, minlength=n_rows)`` every score equals the one on
    ``data.take(idx)`` exactly. Zero-weight rows are dropped, N is the
    weight total, and a cache miss tallies the cached int64 code columns
    with one ``bincount``, in the cell order of ``counts``.
    """

    def __init__(self, data: DataTable, kind: str = "AIC", cache: ScoreCache | None = None,
                 weights=None):
        kind = kind.upper()
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
        codes, n = data.codes, data.n_rows
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,) or not np.all(weights >= 0):
                raise ValueError(f"weights must be {n} nonnegative row multiplicities")
            codes, weights = codes[weights > 0], weights[weights > 0]
            n = float(weights.sum())
        if (codes == MISSING).any():
            raise ValueError("scores require complete-case data")
        self.data = data
        self.kind = kind
        self.cache = cache
        self._log_n = math.log(n) if n else 0.0
        self._r = tuple(v.r for v in data.variables)
        self._cols = np.array(codes.T, dtype=np.int64)
        self._weights = weights

    def local(self, variable, parents) -> float:
        """Penalized local score of one family.

        ``variable`` is a name or a column index; ``parents`` is an iterable
        of names or an int bitmask of column indices. Parents are counted in
        data column order, so the value does not depend on the order the
        caller lists them in.
        """
        child = variable if isinstance(variable, int) else self.data.var_index(variable)
        if not isinstance(parents, int):
            parents = sum({1 << self.data.var_index(p) for p in parents})
        key = (child, parents)
        if self.cache is not None:
            cached = self.cache.store.get(key)
            if cached is not None:
                self.cache.hits += 1
                return cached
            self.cache.misses += 1
        cols, r = self._cols, self._r
        family = [(cols[i], r[i]) for i in range(len(r)) if parents >> i & 1]
        n = _tally(cols[child], family, r[child], self._weights)
        value = _loglik(n)
        if self.kind != "LOGLIK":
            d = n.shape[0] * (r[child] - 1)
            value -= d if self.kind == "AIC" else 0.5 * d * self._log_n
        if self.cache is not None:
            self.cache.store[key] = value
        return value

    def total(self, parents_map) -> float:
        return sum(self.local(v.name, parents_map.get(v.name, ())) for v in self.data.variables)


def local_score(data: DataTable, variable: str, parents=(), kind: str = "AIC",
                cache: ScoreCache | None = None) -> float:
    return DecomposableScore(data, kind, cache).local(variable, parents)


def score(dag, data: DataTable, kind: str = "AIC", cache: ScoreCache | None = None) -> float:
    """Network score: sum of penalized local terms over the DAG's families."""
    evaluator = DecomposableScore(data, kind, cache)
    return sum(evaluator.local(node, dag.parent_tuple(node)) for node in dag.nodes)
