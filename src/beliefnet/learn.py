"""Structure learning: tabu search, bootstrap arc strengths, consensus network.

The search is one tabu walk over the space of DAGs with add/delete/reverse
moves under a decomposable score, keeping a tabu list of the inverses of
recent moves so it can cross score plateaus and shallow optima. As in
bnlearn's ``tabu()`` (Scutari 2010), the walk starts once, from the empty
graph, and returns the best DAG it saw. The search works on column indices:
parent sets and ancestor sets are int bitmasks, so a cycle test is one bit
test, and a per-pair table of move deltas is kept across iterations, so a move
rescores only the candidates that read the one or two families it changed.
Robustness comes from a nonparametric bootstrap: each replicate resamples the
rows with replacement, learns a DAG, and the per-edge inclusion frequencies
("strengths") are averaged into a consensus network at a threshold estimated
from the strength distribution itself.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import DataTable
from .errors import BootstrapError, EmptyStrengths, UnassignedVariable, UnknownVariable
from .model import Dag, TierSpec
from .scores import DecomposableScore

# score deltas below this are treated as ties, not improvements
SCORE_EPS = 1e-9
# a bootstrap starts a worker pool only when each worker gets at least this
# many replicates: below it, forking the workers saves a few tens of ms at
# best and often costs as much (serial vs 2-worker `learn` at B = 4..64,
# measured in CHANGES.md)
POOL_MIN_REPLICATES = 4


@dataclass(frozen=True)
class TabuConfig:
    """Tabu search settings. ``seed`` is kept for callers that set it; the
    search is deterministic and no longer reads it."""

    tenure: int = 10
    max_iterations: int = 1000
    stall_limit: int = 100
    seed: int = 1

    def __post_init__(self):
        for name in ("tenure", "max_iterations", "stall_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class TabuLog:
    """Filled in by tabu_search when passed as ``log=``."""

    def __init__(self):
        self.best_scores = []  # best-seen score after each accepted move
        self.iterations = 0
        self.cache_hits = 0
        self.cache_misses = 0


def tiers_to_blacklist(tiers: TierSpec, variables) -> frozenset:
    """The (from, to) arcs the search may not add: later tiers into earlier ones.

    Every variable must belong to exactly one tier.
    """
    variables = list(variables)
    members = tiers.members()
    for v in variables:
        if v not in members:
            raise UnassignedVariable(v)
    known = set(variables)
    for v in members:
        if v not in known:
            raise UnknownVariable(v)
    forbidden = set()
    for i, tier in enumerate(tiers.tiers):
        for earlier in tiers.tiers[:i]:
            forbidden.update((a, b) for a in tier for b in earlier)
    return frozenset(forbidden)


# move kinds of the search, in the order the scan tries them for a pair
_ADD, _DELETE, _REVERSE = 0, 1, 2


def _bits(mask):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ancestry(pmask):
    """(anc, via) bitmasks of an acyclic graph given by parent bitmasks.

    anc[x] holds the proper ancestors of x. via[x] holds the ancestors of x's
    parents, i.e. the nodes with a path of two or more arcs into x, so an
    existing arc a->x is the only path from a to x exactly when a is not in
    via[x].
    """
    anc = [-1] * len(pmask)
    via = [0] * len(pmask)

    def visit(x):
        up = through = 0
        ps = pmask[x]
        while ps:
            low = ps & -ps
            p = low.bit_length() - 1
            above = anc[p] if anc[p] >= 0 else visit(p)
            up |= above | low
            through |= above
            ps ^= low
        anc[x], via[x] = up, through
        return up

    for x in range(len(pmask)):
        if anc[x] < 0:
            visit(x)
    return anc, via


def _arc_masks(arcs, col):
    """Bitmasks of ``arcs`` by tail: out[a] holds b per arc a->b."""
    out = [0] * len(col)
    for a, b in arcs:
        out[col[a]] |= 1 << col[b]
    return out


class _SearchState:
    """DAG over column indices with a lazily refilled table of move deltas.

    pmask[x] is the bitmask of x's parents and cur[x] its local score;
    ancestor masks (see ``_ancestry``) make every cycle test one bit test.
    For the ordered pair i = a*n + b, single[i] is the score change of adding
    or deleting a->b (whichever the graph allows) and reverse[i] that of
    reversing an existing a->b. single[i] reads only b's family and
    reverse[i] only those of a and b, so a change to x's parents clears
    column x of both tables and row x of ``reverse``; ``_best_move`` refills
    an entry when its scan next reaches it as a legal candidate.
    """

    def __init__(self, scorer, forbidden):
        self.forbidden = forbidden
        n = len(forbidden)
        self.n = n
        self.scorer = scorer
        self.pmask = [0] * n
        self.children = [0] * n
        self.cur = [scorer.local(x, m) for x, m in enumerate(self.pmask)]
        self.single = [None] * (n * n)
        self.reverse = [None] * (n * n)
        self.anc, self.via = _ancestry(self.pmask)

    def apply(self, kind, a, b):
        pm = self.pmask
        if kind == _ADD:
            self._set_families([(b, pm[b] | 1 << a)])
        elif kind == _DELETE:
            self._set_families([(b, pm[b] & ~(1 << a))])
        else:
            self._set_families([(b, pm[b] & ~(1 << a)), (a, pm[a] | 1 << b)])

    def _set_families(self, changes):
        n = self.n
        stale = [None] * n
        for x, mask in changes:
            for p in _bits(self.pmask[x] ^ mask):
                self.children[p] ^= 1 << x
            self.pmask[x] = mask
            self.cur[x] = self.scorer.local(x, mask)
            self.single[x::n] = stale
            self.reverse[x::n] = stale
            self.reverse[x * n:(x + 1) * n] = stale
        self.anc, self.via = _ancestry(self.pmask)


def tabu_search(
    data: DataTable,
    score: str = "AIC",
    constraints=None,
    config: TabuConfig | None = None,
    log: TabuLog | None = None,
    weights=None,
) -> Dag:
    """Learn a DAG by tabu search over add/delete/reverse moves.

    One tabu walk runs from the empty graph and the result is the best DAG it
    saw. That DAG is locally optimal, because at it aspiration admits every
    improving move, tabu or not, and the walk would have taken one to a
    better DAG; the exception is a walk that ``max_iterations`` stops on it.
    The search is deterministic: it draws no random numbers. ``constraints`` is
    an iterable of forbidden (from, to) arcs, as ``tiers_to_blacklist``
    returns; no move adds one.

    Each iteration scans the ordered node pairs in column order. Parent sets
    are bitmasks, ancestor bitmasks make each cycle test O(1), and a per-pair
    delta table keeps the score change of every candidate move: a move clears
    only the entries that read the one or two families it changed, and an
    entry is rescored when the scan next reaches it as a legal candidate. So
    an iteration costs O(1) per pair plus a cached local-score lookup per
    cleared entry, and the search scores exactly the families, and makes
    exactly the moves, of a full rescan that rescores every candidate.

    ``weights`` are row multiplicities: ``np.bincount(idx, minlength=n_rows)``
    learns exactly the DAG of the table of rows ``data.codes[idx]`` (see
    ``DecomposableScore``).
    """
    config = config or TabuConfig()
    constraints = frozenset(constraints or ())
    nodes = [v.name for v in data.variables]
    col = {n: i for i, n in enumerate(nodes)}
    for a, b in constraints:
        if a not in col or b not in col:
            raise UnknownVariable(a if a not in col else b)

    scorer = DecomposableScore(data, score, weights=weights)
    state = _SearchState(scorer, _arc_masks(constraints, col))
    n = state.n
    # tabu[kind*n*n + a*n + b]: last iteration at which that move is tabu
    tabu = [-1] * (3 * n * n)
    total = best_total = sum(state.cur)
    best_masks = tuple(state.pmask)
    stall = 0
    for it in range(config.max_iterations):
        move, delta = _best_move(state, tabu, it, aspiration=best_total)
        if move is None:
            break
        state.apply(*move)
        total += delta
        kind, a, b = move
        if kind == _ADD:
            inverse = _DELETE * n * n + a * n + b
        elif kind == _DELETE:
            inverse = a * n + b
        else:
            inverse = _REVERSE * n * n + b * n + a
        tabu[inverse] = it + config.tenure
        if total > best_total + SCORE_EPS:
            best_total = total
            best_masks = tuple(state.pmask)
            stall = 0
        else:
            stall += 1
        if log is not None:
            log.iterations += 1
            log.best_scores.append(best_total)
        if stall > config.stall_limit:
            break

    if log is not None:
        log.cache_hits = scorer.cache.hits
        log.cache_misses = scorer.cache.misses

    parents = {
        nodes[x]: tuple(nodes[p] for p in _bits(mask)) for x, mask in enumerate(best_masks)
    }
    return Dag(tuple(nodes), parents)


def _best_move(state, tabu, it, aspiration):
    """Highest-delta legal move as ((kind, a, b), delta).

    Candidates are taken pair by pair (a-major, then b; delete before
    reverse), and a later one wins only if it beats the best so far by more
    than SCORE_EPS. Tabu moves are skipped unless they would beat the
    best-seen score ``aspiration``, judged on the current total summed afresh.
    """
    n = state.n
    nn = n * n
    pmask, anc, via, cur = state.pmask, state.anc, state.via, state.cur
    forbidden, children = state.forbidden, state.children
    full = (1 << n) - 1
    single, reverse = state.single, state.reverse
    local = state.scorer.local
    total = sum(cur)
    limit = aspiration + SCORE_EPS
    best = None
    best_delta = bar = -math.inf  # bar: best delta so far + SCORE_EPS
    for a in range(n):
        abit = 1 << a
        kids = children[a]
        row = a * n
        # every arc out of a to delete or add: no self-loop, no forbidden arc
        # (the graph holds none), no arc into an ancestor of a (so no child
        # of a is excluded)
        cand = full & ~(abit | forbidden[a] | anc[a])
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            i = row + b
            if kids & low:
                d = single[i]
                if d is None:
                    d = single[i] = local(b, pmask[b] & ~abit) - cur[b]
                if d > bar and (tabu[nn + i] <= it or total + d > limit):
                    best, bar = (_DELETE, a, b), d + SCORE_EPS
                    best_delta = d
                # no reversal when b->a is forbidden or a reaches b another way
                if (forbidden[b] | via[b]) & abit:
                    continue
                d = reverse[i]
                if d is None:
                    d = reverse[i] = single[i] + local(a, pmask[a] | low) - cur[a]
                kind, key = _REVERSE, 2 * nn + i
            else:
                d = single[i]
                if d is None:
                    d = single[i] = local(b, pmask[b] | abit) - cur[b]
                kind, key = _ADD, i
            if d > bar and (tabu[key] <= it or total + d > limit):
                best, bar = (kind, a, b), d + SCORE_EPS
                best_delta = d
    return best, best_delta


class ArcStrengthTable:
    """Bootstrap edge frequencies and direction probabilities.

    strength(a, b): fraction of replicate DAGs containing a-b in either
    direction (symmetric). direction(a, b): among those, the fraction
    oriented a->b, so direction(a, b) + direction(b, a) = 1 whenever the
    strength is positive. arc_frequency(a, b): fraction of all replicates
    containing the directed arc a->b.
    """

    __slots__ = ("variables", "b", "dir_counts")

    def __init__(self, variables, b, dir_counts):
        self.variables = tuple(variables)
        self.b = int(b)
        if self.b < 1:
            raise ValueError("need at least one replicate")
        self.dir_counts = {k: int(v) for k, v in dir_counts.items() if v}
        known = set(self.variables)
        for a, c in self.dir_counts:
            if a not in known or c not in known:
                raise UnknownVariable(a if a not in known else c)

    def _pair_count(self, a, b):
        return self.dir_counts.get((a, b), 0) + self.dir_counts.get((b, a), 0)

    def strength(self, a, b) -> float:
        return self._pair_count(a, b) / self.b

    def direction(self, a, b) -> float:
        pair = self._pair_count(a, b)
        if pair == 0:
            return 0.0
        return self.dir_counts.get((a, b), 0) / pair

    def arc_frequency(self, a, b) -> float:
        return self.dir_counts.get((a, b), 0) / self.b

    def pairs(self):
        """Unordered pairs with positive strength, lexicographically sorted."""
        seen = {tuple(sorted(k)) for k in self.dir_counts}
        return sorted(seen)

    def all_pair_strengths(self):
        """Strengths of every unordered variable pair, zeros included."""
        names = self.variables
        return [
            self.strength(names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]


def _boot_one(data, score, constraints, config, seed, replicate):
    """Arcs of one replicate, searched on row multiplicities, not a copied table."""
    try:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))
        idx = rng.integers(0, data.n_rows, data.n_rows)
        dag = tabu_search(data, score=score, constraints=constraints, config=config,
                          weights=np.bincount(idx, minlength=data.n_rows))
    except Exception as exc:  # noqa: BLE001 - annotate with replicate index
        raise BootstrapError(replicate, exc) from exc
    return tuple(dag.arcs())


def bootstrap_workers(b: int, n_jobs: int) -> int:
    """Processes a bootstrap of ``b`` replicates runs in when allowed ``n_jobs``:
    ``n_jobs`` if each worker gets at least POOL_MIN_REPLICATES, else 1."""
    return n_jobs if b >= POOL_MIN_REPLICATES * n_jobs else 1


def bootstrap_strengths(
    data: DataTable,
    b: int = 2000,
    score: str = "AIC",
    constraints=None,
    config: TabuConfig | None = None,
    seed: int = 0,
    n_jobs: int = 1,
) -> ArcStrengthTable:
    """Nonparametric bootstrap of the structure search.

    Each replicate resamples n_rows rows with replacement using a sub-seed
    derived from (seed, replicate index), learns a DAG, and the arc tallies
    are merged; a replicate reweights the rows by their draw counts instead
    of copying them. Replicates are independent, so the result is identical
    for any n_jobs and any execution order. n_jobs is an upper bound: the
    replicates run in this process unless ``bootstrap_workers`` gives more
    than one. A failing replicate raises BootstrapError naming its index; a
    worker process that dies instead names the first replicate without a
    result.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    constraints = frozenset(constraints or ())
    config = config or TabuConfig()
    one = functools.partial(_boot_one, data, score, constraints, config, seed)
    workers = bootstrap_workers(b, n_jobs)
    pool = None if workers == 1 else concurrent.futures.ProcessPoolExecutor(workers)
    tally = {}
    received = 0
    with pool or contextlib.nullcontext():
        if pool is None:
            results = map(one, range(b))
        else:
            results = pool.map(one, range(b), chunksize=max(1, b // (4 * workers)))
        try:
            for arcs in results:
                received += 1
                for arc in arcs:
                    tally[arc] = tally.get(arc, 0) + 1
        except concurrent.futures.BrokenExecutor as exc:
            # a worker died without raising; the first replicate with no result
            # is the earliest one it can have been running
            raise BootstrapError(received, exc) from exc
    return ArcStrengthTable([v.name for v in data.variables], b, tally)


def l1_threshold(strengths) -> float:
    """Significance threshold minimizing the L1 gap to an ideal 0/1 strength law.

    For a candidate t, arcs with strength >= t are declared significant; the
    ideal distribution then puts mass pi(t) at 1 and the rest at 0. The
    returned t minimizes the L1 distance between the empirical strength CDF
    and that two-point CDF, evaluated at midpoints between consecutive
    distinct strengths; ties break toward the smaller t (inclusive).
    """
    values = sorted(float(s) for s in strengths)
    m = len(values)
    if m == 0 or values[-1] <= 0.0:
        raise EmptyStrengths()
    distinct = sorted(set(values))
    # each positive strength against its lower neighbour (0.0 below the first)
    candidates = [((distinct[i - 1] if i else 0.0) + v) / 2.0
                  for i, v in enumerate(distinct) if v > 0.0]
    if distinct[-1] < 1.0:
        candidates.append((distinct[-1] + 1.0) / 2.0)

    # segment decomposition of the empirical CDF on [0, 1]
    cuts = [0.0] + [v for v in distinct if 0.0 < v < 1.0] + [1.0]
    heights = []
    for left in cuts[:-1]:
        heights.append(sum(1 for v in values if v <= left) / m)

    best_t, best_obj = None, math.inf
    for t in candidates:
        pi = sum(1 for v in values if v >= t) / m
        c = 1.0 - pi
        obj = sum(
            abs(h - c) * (right - left)
            for left, right, h in zip(cuts[:-1], cuts[1:], heights)
        )
        if obj < best_obj - 1e-12 or (abs(obj - best_obj) <= 1e-12 and t < best_t):
            best_t, best_obj = t, obj
    return best_t


def optimal_threshold(strengths: ArcStrengthTable) -> float:
    """L1-optimal inclusion threshold over all pair strengths (zeros included)."""
    return l1_threshold(strengths.all_pair_strengths())


def averaged_network(
    strengths: ArcStrengthTable,
    threshold: float,
    variables=None,
    constraints=None,
    skipped: list | None = None,
) -> Dag:
    """Consensus DAG: edges with strength >= threshold, majority orientation.

    Edges are inserted in decreasing strength order (ties lexicographic);
    an insertion that would create a cycle or hit a forbidden arc is skipped
    and recorded in ``skipped`` as (from, to, strength, reason). The result
    is always acyclic and constraint-valid.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    constraints = frozenset(constraints or ())
    variables = tuple(variables if variables is not None else strengths.variables)

    edges = []
    for a, b in strengths.pairs():
        s = strengths.strength(a, b)
        if s >= threshold:
            edges.append((s, a, b))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    col = {n: i for i, n in enumerate(variables)}
    pmask = [0] * len(variables)
    anc, _ = _ancestry(pmask)
    for s, a, b in edges:
        d_ab = strengths.direction(a, b)
        if d_ab > 0.5 or (d_ab == 0.5 and a < b):
            frm, to = a, b
        else:
            frm, to = b, a
        if (frm, to) in constraints:
            if skipped is not None:
                skipped.append((frm, to, s, "forbidden"))
            continue
        if anc[col[frm]] >> col[to] & 1:
            if skipped is not None:
                skipped.append((frm, to, s, "cycle"))
            continue
        pmask[col[to]] |= 1 << col[frm]
        anc, _ = _ancestry(pmask)
    parents = {
        n: tuple(variables[p] for p in _bits(pmask[col[n]])) for n in variables
    }
    return Dag(variables, parents)
