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

from .data import MISSING, DataTable

SCORE_KINDS = ("AIC", "BIC", "LOGLIK")
_sum = np.add.reduce  # what ndarray.sum runs, without its Python frame
_CELL_MAX = int(np.iinfo(np.int32).max)  # largest family cell code
_PARENT_CODE_BYTES = 4 << 20  # bound on one scorer's memo of parent codes
_xlogx = np.zeros(1)  # k*log(k) for k = 0..len-1, shared read-only by every scorer
_xlogx.flags.writeable = False


def _xlogx_upto(n: int) -> np.ndarray:
    """k*log(k) for k = 0..n, read from the process-wide table and grown on demand;
    each entry is libm's ``k * log(k)`` (numpy's vectorized ``log`` differs in
    the last bit for some k)."""
    global _xlogx
    if n >= len(_xlogx):
        grown = np.concatenate([_xlogx, [k * math.log(k) for k in range(len(_xlogx), n + 1)]])
        grown.flags.writeable = False
        _xlogx = grown
    return _xlogx[:n + 1]


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

    ``weights`` are nonnegative integer row multiplicities: with
    ``np.bincount(idx, minlength=n_rows)`` every score equals the one on the
    table of rows ``data.codes[idx]`` exactly. Zero-weight rows are dropped
    and N is the weight total. Every local score is kept in the scorer's own
    ``cache``, which counts its hits and misses. A miss tallies the family
    with one ``bincount`` over int32 cell codes: the parents' mixed-radix
    code, first parent most significant, times the child's arity, plus the
    child's level. A parent mask's code is built once per scorer, from its
    longest already built prefix, and kept for every child that shares the
    mask, up to ``_PARENT_CODE_BYTES``. Counts are exact integers, so the
    log-likelihood reads each k*log(k) from the shared table over k = 0..N.
    """

    def __init__(self, data: DataTable, kind: str = "AIC", weights=None):
        kind = kind.upper()
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
        codes, n = data.codes, data.n_rows
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,) or not np.all(
                np.isfinite(weights) & (weights >= 0) & (np.floor(weights) == weights)
            ):
                raise ValueError(f"weights must be {n} nonnegative integer row multiplicities")
            codes, weights = codes[weights > 0], weights[weights > 0]
            n = int(weights.sum())
        if (codes == MISSING).any():
            raise ValueError("scores require complete-case data")
        self.data = data
        self.kind = kind
        self.cache = ScoreCache()
        self._log_n = math.log(n) if n else 0.0
        self._r = tuple(v.r for v in data.variables)
        self._cols = tuple(np.array(codes.T, dtype=np.int32))
        self._weights = weights
        self._xlogx = _xlogx_upto(n)
        self._ones = tuple(np.ones(r, dtype=np.intp) for r in self._r)
        self._parent_codes = {0: (1, None)}  # parent mask -> (q, code; None for no parents)
        self._parent_code_bytes = 0

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
        cached = self.cache.store.get(key)
        if cached is not None:
            self.cache.hits += 1
            return cached
        self.cache.misses += 1
        rc = self._r[child]
        memo = self._parent_codes.get(parents)
        if memo is None:
            bits, rest = [], parents
            while rest:
                low = rest & -rest
                bits.append(low.bit_length() - 1)
                rest ^= low
            q = math.prod([self._r[i] for i in bits])
        else:
            q, code = memo
        if q * rc > _CELL_MAX:
            names = [v.name for i, v in enumerate(self.data.variables) if parents >> i & 1]
            raise ValueError(f"the family of {self.data.variables[child].name!r} with parents "
                             f"{names} has {q * rc} cells, more than int32 codes hold")
        if memo is None:
            code = self._parent_code(parents, bits, q)
        cell = self._cols[child] if code is None else code * rc + self._cols[child]
        n = np.bincount(cell, weights=self._weights, minlength=q * rc)
        if self._weights is not None:
            n = n.astype(np.intp)
        n = n.reshape(q, rc)
        table = self._xlogx
        # N_ij as a dot product: integer sums are exact in any order
        value = float(_sum(table[n], None) - _sum(table[n.dot(self._ones[child])], None))
        if self.kind != "LOGLIK":
            d = q * (rc - 1)
            value -= d if self.kind == "AIC" else 0.5 * d * self._log_n
        self.cache.store[key] = value
        return value

    def _parent_code(self, parents, bits, q):
        """Configuration code of a parent mask over the kept rows (``bits``
        ascending, first most significant), extended from the longest prefix
        already built and kept while the memo stays within its bound."""
        j, prefix = len(bits), parents
        while prefix not in self._parent_codes:
            j -= 1
            prefix ^= 1 << bits[j]
        code = self._parent_codes[prefix][1]
        for i in bits[j:]:
            code = self._cols[i] if code is None else code * self._r[i] + self._cols[i]
        if self._parent_code_bytes + code.nbytes <= _PARENT_CODE_BYTES:
            self._parent_codes[parents] = (q, code)
            self._parent_code_bytes += code.nbytes
        return code

