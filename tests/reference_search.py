"""Slow reference tabu search: the full-rescan search the library replaced.

Every iteration rescans all ordered node pairs by name, looks each candidate
family up in the score cache, and tests acyclicity with a depth-first search.
The library's incremental search must make exactly the same moves, so tests
compare the two on DAG, TabuLog.best_scores, iterations and cache misses.
"""

import math
from dataclasses import dataclass

from beliefnet.learn import SCORE_EPS, TabuConfig
from beliefnet.model import Dag
from beliefnet.scores import DecomposableScore


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

    def __init__(self, nodes):
        self.nodes = list(nodes)
        self.parents = {n: set() for n in self.nodes}
        self.children = {n: set() for n in self.nodes}

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


def tabu_search(data, score="AIC", constraints=None, config=None, log=None):
    """Same contract as beliefnet.learn.tabu_search, by full rescans."""
    config = config or TabuConfig()
    constraints = frozenset(constraints or ())
    nodes = [v.name for v in data.variables]
    scorer = DecomposableScore(data, score)
    state = SearchState(nodes)
    total = best_total = sum(scorer.local(n, state.parents[n]) for n in nodes)
    best_snap = state.snapshot()
    tabu = {}
    stall = 0
    for it in range(config.max_iterations):
        move, delta = best_move(
            state, scorer, constraints, tabu, it, aspiration=best_total
        )
        if move is None:
            break
        state.apply(move)
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

    if log is not None:
        log.cache_hits = scorer.cache.hits
        log.cache_misses = scorer.cache.misses

    col = {n: i for i, n in enumerate(nodes)}
    parents = {n: tuple(sorted(best_snap[n], key=col.__getitem__)) for n in nodes}
    return Dag(tuple(nodes), parents)


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
                if (a, b) not in constraints and not state.reaches(b, a):
                    delta = (
                        scorer.local(b, state.parents[b] | {a}) - cur_local[b]
                    )
                    candidates.append((Move(Move.ADD, (a, b)), delta))
            else:
                delta = scorer.local(b, state.parents[b] - {a}) - cur_local[b]
                candidates.append((Move(Move.DELETE, (a, b)), delta))
                if (b, a) not in constraints and not state.reaches(
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
