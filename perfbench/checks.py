"""Correctness oracles for the benchmark's outputs.

Each checker returns a list of error strings (empty when the output is
right). None of them reuses the code path being timed: graphs are checked
by a separate topological sort and tier table, tornado shifts by explicit
perturbation, posteriors by a different elimination order, and CLI runs by
their exit codes and the artifacts on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import yaml

TOL = 1e-9


# -- learn-bootstrap ---------------------------------------------------------
def tier_table(path):
    """{variable: (tier rank, within-tier arcs allowed)} read from a tiers YAML."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    table = {}
    for rank, tier in enumerate(doc["tiers"]):
        within = bool(tier.get("within_tier_edges", True))
        for name in tier["variables"]:
            table[str(name)] = (rank, within)
    return table


def dag_errors(arcs, variables, tiers, what):
    """Arcs must join known variables, form no cycle, and respect the tiers."""
    errors = []
    names = set(variables)
    children = {v: [] for v in variables}
    indegree = {v: 0 for v in variables}
    for a, b in arcs:
        if a not in names or b not in names or a == b:
            errors.append(f"{what}: bad arc {a}->{b}")
            continue
        (ra, within), (rb, _) = tiers[a], tiers[b]
        if ra > rb or (ra == rb and not within):
            errors.append(f"{what}: arc {a}->{b} breaks the tier order")
        children[a].append(b)
        indegree[b] += 1
    ready = [v for v in variables if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if seen != len(variables):
        errors.append(f"{what}: arcs contain a cycle")
    return errors


def tally_digest(replicates):
    """SHA-256 of every replicate's sorted arc list, in replicate order."""
    doc = [[name, k, sorted(list(a) for a in arcs)] for name, k, arcs in replicates]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# -- sensitivity -------------------------------------------------------------
def ancestors(net, node):
    """Strict ancestors by walking the parent lists."""
    seen, stack = set(), list(net.dag.parents[node])
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack.extend(net.dag.parents[cur])
    return seen


def tornado_errors(net, event, delta, bars, influence, params, posterior, perturb):
    """Check tornado bars and node influence against explicit perturbation.

    ``params`` lists the parameter ids whose shifts are recomputed as
    P(event | theta +/- clipped delta) - P(event) with ``perturb`` and
    ``posterior``; every bar's clipped deltas, the bar count, the sort order
    and the zeros of ``influence`` off the ancestry are checked in full.
    """
    variable, level = event
    errors = []
    anc = ancestors(net, variable)
    expected = sum(net.cpts[n].table.size for n in anc)
    if len(bars) != expected:
        errors.append(f"tornado: {len(bars)} bars, expected {expected}")
    by_param = {}
    for bar in bars:
        theta = float(net.cpts[bar.param.variable].table[bar.param.config, bar.param.state])
        if bar.param.variable not in anc:
            errors.append(f"tornado: bar for non-ancestor {bar.param}")
        if theta < 1.0 and (
            bar.increase.delta != min(delta, 1.0 - theta)
            or bar.decrease.delta != min(delta, theta)
        ):
            errors.append(f"tornado: wrong clipped delta for {bar.param}")
        by_param[bar.param] = bar
    mags = [b.magnitude for b in bars]
    if any(x < y for x, y in zip(mags, mags[1:])):
        errors.append("tornado: bars are not sorted by magnitude")

    p0 = posterior(net, variable)[level]
    for param in params:
        bar = by_param.get(param)
        if bar is None:
            errors.append(f"tornado: no bar for {param}")
            continue
        theta = float(net.cpts[param.variable].table[param.config, param.state])
        if theta >= 1.0:
            continue
        for side, sign in ((bar.increase, 1.0), (bar.decrease, -1.0)):
            if side.delta == 0.0:
                want = 0.0
            else:
                moved = perturb(net, param, theta + sign * side.delta)
                want = posterior(moved, variable)[level] - p0
            if not abs(side.shift - want) <= TOL:
                errors.append(
                    f"tornado: {param} {side.direction} shift {side.shift!r} != {want!r}"
                )

    if set(influence) != set(net.dag.nodes):
        errors.append("node_influence: keys differ from the network's nodes")
    for name, value in influence.items():
        if (name == variable or name not in anc) and value != 0.0:
            errors.append(f"node_influence: {name} is off the ancestry but reads {value!r}")
        if not value >= 0.0:
            errors.append(f"node_influence: {name} reads {value!r} < 0")
    return errors


# -- query-mix ---------------------------------------------------------------
def _scopes(net, target, evidence):
    """Family scopes of the target's and evidence's ancestral closure, evidence removed."""
    relevant, stack = set(), [target, *evidence]
    while stack:
        cur = stack.pop()
        if cur not in relevant:
            relevant.add(cur)
            stack.extend(net.dag.parents[cur])
    return [(set(net.dag.parents[n]) | {n}) - set(evidence) for n in relevant]


def elimination_cells(net, target, evidence, order):
    """Largest factor (in cells) that eliminating along ``order`` produces."""
    cards = {v.name: v.r for v in net.variables}
    scopes = _scopes(net, target, evidence)
    largest = 0
    for v in order:
        related = [s for s in scopes if v in s]
        union = set().union(*related) if related else {v}
        largest = max(largest, math.prod(cards[x] for x in union))
        scopes = [s for s in scopes if v not in s] + [union - {v}]
    return largest


def oracle_order(net, target, evidence, default_order, cap=1_000_000):
    """An elimination order other than the default one, for re-running a query.

    The reverse of the default order is used unless it would build a factor
    above ``cap`` cells; then a greedy smallest-factor order, ties broken by
    reverse name, replaces it.
    """
    reverse = list(reversed(default_order))
    if elimination_cells(net, target, evidence, reverse) <= cap:
        return reverse
    cards = {v.name: v.r for v in net.variables}
    scopes = _scopes(net, target, evidence)
    pending, order = set(default_order), []
    while pending:
        def cost(v):
            union = set().union(*[s for s in scopes if v in s] or [{v}])
            return math.prod(cards[x] for x in union)

        best = min(sorted(pending, reverse=True), key=cost)
        related = [s for s in scopes if best in s]
        union = set().union(*related) if related else {best}
        scopes = [s for s in scopes if best not in s] + [union - {best}]
        pending.discard(best)
        order.append(best)
    return order


def posterior_errors(what, distribution, reference):
    """A posterior must sum to 1 and agree with the re-run ``reference``."""
    errors = []
    total = float(sum(distribution))
    if not abs(total - 1.0) <= TOL:
        errors.append(f"{what}: posterior sums to {total!r}")
    if reference is not None:
        if len(reference) != len(distribution):
            errors.append(f"{what}: {len(distribution)} levels, reference has {len(reference)}")
        else:
            gap = max(abs(float(a) - float(b)) for a, b in zip(distribution, reference))
            if not gap <= TOL:
                errors.append(f"{what}: differs from the reordered run by {gap!r}")
    return errors


# -- cli-pipeline ------------------------------------------------------------
def pipeline_errors(what, codes, present, expected):
    """Every stage exits 0 and every expected artifact exists and is non-empty."""
    errors = [f"{what}: stage {stage} exited {rc}" for stage, rc in codes.items() if rc != 0]
    errors += [f"{what}: missing artifact {path}" for path in expected if path not in present]
    return errors


def artifacts(root):
    """Relative paths of the non-empty files under ``root``."""
    found = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            if os.path.getsize(path) > 0:
                found.add(os.path.relpath(path, root).replace(os.sep, "/"))
    return found
