"""Slow reference tabu search: the full-rescan search the library replaced.

Every iteration rescans all ordered node pairs by name, looks each candidate
family up in the score cache, and tests acyclicity with a depth-first search.
The library's incremental search must make exactly the same moves, so tests
compare the two on DAG, TabuLog.best_scores, iterations and cache misses.
"""

import math
from dataclasses import dataclass

import numpy as np

from beliefnet.learn import SCORE_EPS, Constraints, TabuConfig
from beliefnet.model import Dag
from beliefnet.scores import DecomposableScore, ScoreCache


@dataclass(frozen=True)
class Move:
    ADD = "add"
    DELETE = "delete"
    REVERSE = "reverse"

    kind: str
    arc: tuple

    def inverse(self) -> "Move":
        if self.kind == Move.ADD:
            return Move(Move.DELETE, self.arc)
        if self.kind == Move.DELETE:
            return Move(Move.ADD, self.arc)
        return Move(Move.REVERSE, (self.arc[1], self.arc[0]))


class SearchState:
    """Mutable DAG state with DFS ancestry queries for move legality."""

    def __init__(self, nodes, required_arcs=()):
        self.nodes = list(nodes)
        self.parents = {n: set() for n in self.nodes}
        self.children = {n: set() for n in self.nodes}
        for a, b in required_arcs:
            self.parents[b].add(a)
            self.children[a].add(b)

    def has_arc(self, a, b):
        return a in self.parents[b]

    def reaches(self, start, goal, skip_arc=None):
        """True when a directed path start -> ... -> goal exists."""
        if start == goal:
            return True
        stack = [start]
        seen = {start}
        while stack:
            cur = stack.pop()
            for nxt in self.children[cur]:
                if skip_arc is not None and (cur, nxt) == skip_arc:
                    continue
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def apply(self, move):
        a, b = move.arc
        if move.kind == Move.ADD:
            self.parents[b].add(a)
            self.children[a].add(b)
        elif move.kind == Move.DELETE:
            self.parents[b].discard(a)
            self.children[a].discard(b)
        else:
            self.parents[b].discard(a)
            self.children[a].discard(b)
            self.parents[a].add(b)
            self.children[b].add(a)

    def snapshot(self):
        return {n: frozenset(ps) for n, ps in self.parents.items()}

    def restore(self, snap):
        self.parents = {n: set(ps) for n, ps in snap.items()}
        self.children = {n: set() for n in self.nodes}
        for n, ps in self.parents.items():
            for p in ps:
                self.children[p].add(n)


def tabu_search(data, score="AIC", constraints=None, config=None, log=None):
    """Same contract as beliefnet.learn.tabu_search, by full rescans."""
    config = config or TabuConfig()
    constraints = constraints or Constraints()
    nodes = [v.name for v in data.variables]
    scorer = DecomposableScore(data, score, cache=ScoreCache())
    state = SearchState(nodes, constraints.required)
    local = {n: scorer.local(n, state.parents[n]) for n in nodes}
    total = sum(local.values())

    best_snap = state.snapshot()
    best_total = total
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    for restart in range(config.restarts):
        if restart > 0:
            state.restore(best_snap)
            perturb(state, constraints, rng, len(nodes))
            local = {n: scorer.local(n, state.parents[n]) for n in nodes}
            total = sum(local.values())
        snap, s_total = tabu_phase(state, scorer, constraints, config, local, total, log)
        if s_total > best_total + SCORE_EPS:
            best_total, best_snap = s_total, snap
        if log is not None:
            log.restarts += 1

    state.restore(best_snap)
    local = {n: scorer.local(n, state.parents[n]) for n in nodes}
    total = sum(local.values())
    while True:
        move, delta = best_move(state, scorer, constraints, tabu=None, it=0,
                                aspiration=None)
        if move is None or delta <= SCORE_EPS:
            break
        apply_scored(state, move, scorer, local)
        total += delta
        if log is not None:
            log.best_scores.append(total)
    best_snap = state.snapshot()

    if log is not None:
        log.cache_hits = scorer.cache.hits
        log.cache_misses = scorer.cache.misses

    col = {n: i for i, n in enumerate(nodes)}
    parents = {n: tuple(sorted(best_snap[n], key=col.__getitem__)) for n in nodes}
    return Dag(tuple(nodes), parents)


def tabu_phase(state, scorer, constraints, config, local, total, log):
    tabu = {}
    best_total = total
    best_snap = state.snapshot()
    stall = 0
    for it in range(config.max_iterations):
        move, delta = best_move(
            state, scorer, constraints, tabu, it, aspiration=best_total
        )
        if move is None:
            break
        apply_scored(state, move, scorer, local)
        total += delta
        tabu[move.inverse()] = it + config.tenure
        if total > best_total + SCORE_EPS:
            best_total = total
            best_snap = state.snapshot()
            stall = 0
        else:
            stall += 1
        if log is not None:
            log.iterations += 1
            log.best_scores.append(best_total)
        if stall > config.stall_limit:
            break
    return best_snap, best_total


def apply_scored(state, move, scorer, local):
    state.apply(move)
    a, b = move.arc
    local[b] = scorer.local(b, state.parents[b])
    if move.kind == Move.REVERSE:
        local[a] = scorer.local(a, state.parents[a])


def best_move(state, scorer, constraints, tabu, it, aspiration):
    """Highest-delta legal move; ties go to the first in enumeration order."""
    best = None
    best_delta = -math.inf
    nodes = state.nodes
    cur_local = {n: scorer.local(n, state.parents[n]) for n in nodes}
    total = sum(cur_local.values())
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            has = state.has_arc(a, b)
            candidates = []
            if not has:
                if (a, b) not in constraints.forbidden and not state.reaches(b, a):
                    delta = (
                        scorer.local(b, state.parents[b] | {a}) - cur_local[b]
                    )
                    candidates.append((Move(Move.ADD, (a, b)), delta))
            else:
                if (a, b) not in constraints.required:
                    delta = (
                        scorer.local(b, state.parents[b] - {a}) - cur_local[b]
                    )
                    candidates.append((Move(Move.DELETE, (a, b)), delta))
                    if (b, a) not in constraints.forbidden and not state.reaches(
                        a, b, skip_arc=(a, b)
                    ):
                        d = (
                            scorer.local(b, state.parents[b] - {a})
                            - cur_local[b]
                            + scorer.local(a, state.parents[a] | {b})
                            - cur_local[a]
                        )
                        candidates.append((Move(Move.REVERSE, (a, b)), d))
            for move, delta in candidates:
                if tabu is not None and tabu.get(move, -1) > it:
                    if aspiration is None or total + delta <= aspiration + SCORE_EPS:
                        continue
                if delta > best_delta + SCORE_EPS:
                    best, best_delta = move, delta
    return best, best_delta


def perturb(state, constraints, rng, n_moves):
    """Random legal add/delete moves used to diversify restarts."""
    nodes = state.nodes
    for _ in range(n_moves):
        a, b = (nodes[i] for i in rng.integers(0, len(nodes), 2))
        if a == b:
            continue
        if state.has_arc(a, b):
            if (a, b) not in constraints.required:
                state.apply(Move(Move.DELETE, (a, b)))
        elif (a, b) not in constraints.forbidden and not state.reaches(b, a):
            state.apply(Move(Move.ADD, (a, b)))
