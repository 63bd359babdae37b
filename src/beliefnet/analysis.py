"""Variable-influence analysis on a fitted network.

Three instruments:

* First-order Sobol decomposition: the share of a target's variance explained
  by one input, S = Var_X(E[Y|X]) / Var(Y). Categorical targets are encoded
  per state as indicators Y_k = 1[Y = k]; the aggregate index is the
  variance-weighted combination sum_k Var_X(E[Y_k|X]) / sum_k Var(Y_k).
  Expectations condition observationally (evidence propagation), so the index
  captures both direct and mediated influence. Each index needs one joint
  P(X, Y). With nothing observed only collider-free trails are active, so
  an input whose ancestral closure shares no node with the target's has
  S = 0 exactly, reported as 0.0 rather than float noise.
* Scenario reasoning: posteriors of target variables under named
  multi-variable evidence profiles.
* One-way CPT sensitivity under proportional co-variation: perturbing one
  CPT entry theta scales the rest of its row by (1 - theta') / (1 - theta).
  P(e) is linear in every CPT entry, and one elimination that leaves a
  node's CPT out gives the gradient by all its entries (Darwiche 2003), so
  slopes are exact; with evidence, the quotient rule combines the gradients
  of P(event, evidence) and P(evidence). Parameters outside the ancestral
  closure of the event and the evidence give exact zeros. Tornado bars
  record the P-shift at theta +/- delta from perturbed copies of the
  network, computing the unperturbed P(event) once; every copy has the
  same DAG, so all of them share its min-fill elimination order.

Every instrument runs serially in the calling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTarget,
    InvalidQuery,
    SaturatedParameter,
    ZeroProbabilityEvidence,
)
from .model import Cpt, FittedNetwork
from .inference import _eliminate, _evidence_levels, posterior


def _distinct_variables(net, names, role):
    """Check that each of ``names`` is a variable of ``net``, listed once."""
    seen = set()
    for name in names:
        net.variable(name)
        if name in seen:
            raise InvalidQuery(f"{role} {name!r} is listed twice")
        seen.add(name)


@dataclass(frozen=True)
class SobolResult:
    target: str
    input: str
    target_levels: tuple
    per_state: np.ndarray  # S_i^(k), one per target state
    aggregate: float


def sobol_first_order(net: FittedNetwork, target: str, input_var: str) -> SobolResult:
    """First-order Sobol index of ``input_var`` on ``target``.

    Target states with zero marginal variance contribute to neither the
    numerator nor the denominator; input levels with zero marginal
    probability carry no weight. An input that shares no ancestor with the
    target yields exactly zero.
    """
    if target == input_var:
        raise InvalidQuery("input must differ from the target")
    t_var = net.variable(target)
    net.variable(input_var)

    joint = _eliminate(net, (input_var, target), {})[0]
    joint = joint / joint.sum()  # rows: input levels, columns: target levels
    p = joint.sum(axis=0)
    var_k = p * (1.0 - p)
    if not np.any(var_k > 0.0):
        raise DegenerateTarget(target)

    # no common ancestor leaves no active trail given nothing: S is exactly 0
    if not net.dag.ancestral_closure([input_var]) & net.dag.ancestral_closure([target]):
        zeros = np.zeros(t_var.r)
        return SobolResult(target, input_var, t_var.levels, zeros, 0.0)

    weights = joint.sum(axis=1)
    seen = weights > 0.0
    expectations = np.zeros_like(joint)
    expectations[seen] = joint[seen] / weights[seen, None]

    mean_k = weights @ expectations
    cond_var_k = weights @ (expectations - mean_k) ** 2

    per_state = np.where(var_k > 0.0, cond_var_k / np.where(var_k > 0.0, var_k, 1.0), 0.0)
    active = var_k > 0.0
    aggregate = float(cond_var_k[active].sum() / var_k[active].sum())
    return SobolResult(target, input_var, t_var.levels, per_state, aggregate)


@dataclass(frozen=True)
class SobolMatrix:
    """Aggregate indices in percent; None marks an input excluded as the target."""

    inputs: tuple
    targets: tuple
    cells: dict

    def value(self, input_var, target):
        return self.cells[(input_var, target)]


def sobol_matrix(net: FittedNetwork, targets, inputs) -> SobolMatrix:
    """Aggregate Sobol indices for every input/target pair, in percent.

    Inputs are sorted by the first target's column, descending, with each
    target excluded from its own inputs (None cell). A name repeated among
    the targets or among the inputs raises InvalidQuery.
    """
    targets = tuple(targets)
    inputs = tuple(inputs)
    if not targets:
        raise InvalidQuery("a Sobol matrix needs at least one target")
    _distinct_variables(net, targets, "target")
    _distinct_variables(net, inputs, "input")
    cells = {
        (i, t): None if i == t else sobol_first_order(net, t, i).aggregate * 100.0
        for i in inputs
        for t in targets
    }

    def sort_key(name):
        v = cells[(name, targets[0])]
        return -(v if v is not None else -np.inf), name

    ordered = tuple(sorted(inputs, key=sort_key))
    return SobolMatrix(ordered, targets, cells)


@dataclass(frozen=True)
class ScenarioDef:
    """A named multi-variable evidence profile, ``{variable: level}``."""

    name: str
    evidence: dict


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    evidence: dict
    evidence_probability: float
    posteriors: dict  # target -> QueryResult


def scenario_posteriors(net: FittedNetwork, scenarios, targets) -> list:
    """One posterior per (scenario, target), preserving scenario order.

    No targets, or a scenario name used twice, raises InvalidQuery.
    """
    targets = tuple(targets)
    if not targets:
        raise InvalidQuery("scenario posteriors need at least one target")
    results, seen = [], set()
    for scen in scenarios:
        if scen.name in seen:
            raise InvalidQuery(f"scenario {scen.name!r} is listed twice")
        seen.add(scen.name)
        evidence = dict(scen.evidence)
        _evidence_levels(net, evidence)
        for t in targets:
            if t in evidence:
                raise InvalidQuery(
                    f"scenario {scen.name!r} fixes the target {t!r}"
                )
        queries = {}
        for t in targets:
            try:
                queries[t] = posterior(net, t, evidence)
            except ZeroProbabilityEvidence as exc:
                raise ZeroProbabilityEvidence(
                    evidence, exc.probability, scenario=scen.name
                ) from exc
        p_ev = queries[targets[0]].evidence_probability
        results.append(ScenarioResult(scen.name, evidence, p_ev, queries))
    return results


@dataclass(frozen=True, order=True, slots=True)
class CptParameterId:
    """One CPT entry: (variable, parent configuration j, state k), 0-based."""

    variable: str
    config: int
    state: int


def _check_param(net, param: CptParameterId) -> Cpt:
    cpt = net.cpts.get(param.variable)
    if cpt is None:
        raise InvalidQuery(f"no CPT for {param.variable!r}")
    if not (0 <= param.config < cpt.q and 0 <= param.state < cpt.r):
        raise InvalidQuery(f"parameter {param} out of bounds for {cpt!r}")
    return cpt


def perturb_parameter(net: FittedNetwork, param: CptParameterId, value: float) -> FittedNetwork:
    """Set one CPT entry to ``value``, co-varying the rest of its row.

    The remaining entries scale by (1 - value) / (1 - theta), preserving the
    row sum exactly up to float rounding.
    """
    cpt = _check_param(net, param)
    theta = float(cpt.table[param.config, param.state])
    if 1.0 - theta == 0.0:
        raise SaturatedParameter(param)
    if not 0.0 <= value <= 1.0:
        raise ValueError("perturbed value must lie in [0, 1]")
    table = np.array(cpt.table)
    row = table[param.config] * ((1.0 - value) / (1.0 - theta))
    row[param.state] = value
    table[param.config] = row
    return net.with_cpt(Cpt(param.variable, cpt.parent_order, table))


def _gradient(net, name, ev_levels):
    """G[u, x] = dP(ev) / dtheta_{x|u} for every entry of ``name``'s CPT,
    divided by e^L, and L. G is the product of every other factor summed
    down to the family; P(ev) = sum(theta * G).
    """
    cpt = net.cpts[name]
    family = cpt.parent_order + (name,)
    keep = tuple(v for v in family if v not in ev_levels)
    values, log_scale, _ = _eliminate(net, keep, ev_levels, without=name)
    grad = np.zeros(net.family_cards[name])
    # a length-1 axis (a kept variable no factor holds) broadcasts
    grad[tuple(ev_levels.get(v, slice(None)) for v in family)] = values
    return grad.reshape(cpt.table.shape), log_scale


def _slopes(table, grad):
    """Co-varied slope of every entry from the gradient G:
    G[u, x] - (sum_x' theta_{x'|u} G[u, x'] - theta_{x|u} G[u, x]) / (1 - theta_{x|u}),
    also at theta = 0. Cells of saturated entries (theta = 1) are meaningless.
    """
    weighted = table * grad
    rest = weighted.sum(axis=1, keepdims=True) - weighted
    room = 1.0 - table
    return grad - rest / np.where(room == 0.0, 1.0, room)


def sensitivity_slope(
    net: FittedNetwork, event, param: CptParameterId, evidence=None
) -> float:
    """d P(event | evidence) / d theta under proportional co-variation.

    Exact for theta in [0, 1): from the CPT gradient of P(event), which is
    linear in theta, or with evidence by the quotient rule from the
    gradients of P(event, evidence) and P(evidence). Parameters outside the
    ancestral closure of the event and the evidence give exactly 0.0.
    """
    cpt = _check_param(net, param)
    variable, level = event
    target = net.variable(variable).level_index(level)
    theta = float(cpt.table[param.config, param.state])
    if 1.0 - theta == 0.0:
        raise SaturatedParameter(param)
    ev = _evidence_levels(net, evidence, variable)
    both = {**ev, variable: target}
    if param.variable not in net.dag.ancestral_closure(both):
        return 0.0

    def derivative(ev_levels):
        """P(ev_levels) and its slope along the parameter, over e^L; and L."""
        grad, scale = _gradient(net, param.variable, ev_levels)
        at = (param.config, param.state)
        return float((cpt.table * grad).sum()), float(_slopes(cpt.table, grad)[at]), scale

    p, slope, scale = derivative(both)
    if not ev:
        return slope * math.exp(scale)
    p_ev, ev_slope, ev_scale = derivative(ev)
    if p_ev == 0.0:
        raise ZeroProbabilityEvidence(evidence, 0.0)
    # d(A/B) = (dA - (A/B) dB) / B for A = P(event, evidence), B = P(evidence)
    return math.exp(scale - ev_scale) * (slope - p * ev_slope / p_ev) / p_ev


@dataclass(frozen=True, slots=True)
class DirectedShift:
    """Effect of moving one parameter in one direction."""

    direction: str  # "increase" or "decrease"
    delta: float  # magnitude actually applied after clipping to [0, 1]
    shift: float  # signed change in P(event)


@dataclass(frozen=True, slots=True)
class TornadoBar:
    param: CptParameterId
    label: str
    increase: DirectedShift
    decrease: DirectedShift

    @property
    def magnitude(self) -> float:
        return max(abs(self.increase.shift), abs(self.decrease.shift))


def _param_label(net, param: CptParameterId) -> str:
    var = net.variable(param.variable)
    cpt = net.cpts[param.variable]
    cards = net.parent_cards(param.variable)
    state = var.levels[param.state]
    if not cpt.parent_order:
        return f"P({param.variable}={state})"
    levels = np.unravel_index(param.config, cards)  # the first parent most significant
    given = ", ".join(
        f"{p}={net.variable(p).levels[l]}" for p, l in zip(cpt.parent_order, levels)
    )
    return f"P({param.variable}={state} | {given})"


def _node_params(net, name):
    cpt = net.cpts[name]
    for j in range(cpt.q):
        for k in range(cpt.r):
            yield CptParameterId(name, j, k)


def _make_bar(net, event, param, delta, p0, order):
    variable, level = event
    cpt = net.cpts[param.variable]
    theta = float(cpt.table[param.config, param.state])
    if 1.0 - theta == 0.0:
        # saturated row: co-variation undefined, recorded as a zero bar
        up = DirectedShift("increase", 0.0, 0.0)
        down = DirectedShift("decrease", 0.0, 0.0)
        return TornadoBar(param, _param_label(net, param), up, down)
    d_up = min(delta, 1.0 - theta)
    d_down = min(delta, theta)

    def shift(value):  # a perturbed copy has the same DAG, so the same min-fill order
        return posterior(perturb_parameter(net, param, value), variable, order=order)[level] - p0

    shift_up = shift(theta + d_up)
    shift_down = shift(theta - d_down) if d_down > 0.0 else 0.0
    return TornadoBar(
        param,
        _param_label(net, param),
        DirectedShift("increase", d_up, shift_up),
        DirectedShift("decrease", d_down, shift_down),
    )


def tornado(net: FittedNetwork, event, nodes=None, delta: float = 0.1) -> list:
    """One-way perturbation bars for every CPT parameter of ``nodes``.

    ``nodes`` defaults to the ancestors of the event variable. Each bar holds
    the P(event) shift at theta + delta and theta - delta (deltas clipped so
    the entry stays in [0, 1]); bars sort by max absolute shift, descending,
    ties by parameter id. A node listed twice raises InvalidQuery.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    variable, level = event
    net.variable(variable).level_index(level)
    if nodes is None:
        ancestors = net.dag.ancestors(variable)
        nodes = [n for n in net.dag.nodes if n in ancestors]
    _distinct_variables(net, nodes, "node")
    base = posterior(net, variable)
    p0, order = base[level], base.elimination_order
    bars = [
        _make_bar(net, event, p, delta, p0, order)
        for name in nodes
        for p in _node_params(net, name)
    ]
    bars.sort(key=lambda bar: (-bar.magnitude, bar.param))
    return bars


def node_influence(net: FittedNetwork, event) -> dict:
    """Max |slope| over each node's parameters; exact zeros off the ancestry.

    One gradient elimination per ancestor gives the exact slope of every
    unsaturated entry. The event's own variable and every non-ancestor
    report exactly 0; the map feeds the DOT exporter's fill-color scale.
    """
    variable, level = event
    ev = {variable: net.variable(variable).level_index(level)}
    ancestors = net.dag.ancestors(variable)
    influence = {}
    for name in net.dag.nodes:
        if name == variable or name not in ancestors:
            influence[name] = 0.0
            continue
        table = net.cpts[name].table
        grad, scale = _gradient(net, name, ev)
        free = 1.0 - table != 0.0
        top = np.abs(_slopes(table, grad)[free]).max(initial=0.0)
        influence[name] = float(top) * math.exp(scale)
    return influence


def influence_colors(influence: dict) -> dict:
    """Linear white-to-red shade per node, scaled by the maximum influence."""
    top = max(influence.values(), default=0.0)
    colors = {}
    for name, value in influence.items():
        frac = 0.0 if top == 0.0 else value / top
        channel = int(round(255 * (1.0 - frac)))
        colors[name] = f"#ff{channel:02x}{channel:02x}"
    return colors
