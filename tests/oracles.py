"""Independent brute-force oracles used to check the library's fast paths.

The probability oracles work on the full joint tensor built by plain
broadcasting of CPT tables: no factor algebra, no elimination, no shared code
with beliefnet.inference. The tally and parameter-count oracles read the table
and the DAG directly. ``score`` is no oracle: it sums the library's local
scores over a DAG, for the tests that compare whole networks.
"""

import numpy as np

from beliefnet.scores import DecomposableScore


def full_joint(net, without=None):
    """Joint probability tensor with one axis per variable, in net.variables order.

    ``without`` names a CPT left out of the product.
    """
    names = [v.name for v in net.variables]
    axis = {n: i for i, n in enumerate(names)}
    cards = [v.r for v in net.variables]
    joint = np.ones(cards)
    for v in net.variables:
        if v.name == without:
            continue
        cpt = net.cpts[v.name]
        dims = [axis[p] for p in cpt.parent_order] + [axis[v.name]]
        shape = [net.variable(p).r for p in cpt.parent_order] + [v.r]
        table = np.asarray(cpt.table).reshape(shape)
        order = sorted(range(len(dims)), key=lambda i: dims[i])
        table = np.transpose(table, order)
        full_shape = [1] * len(cards)
        for d in dims:
            full_shape[d] = cards[d]
        joint = joint * table.reshape(full_shape)
    return joint


def _axis(net, name):
    return [v.name for v in net.variables].index(name)


_last_joint = [None, None]  # the last net joint_prob read, and its joint tensor


def joint_prob(net, assignment):
    """P(one complete assignment), read straight off the joint tensor, which
    is kept while the same net is asked about (criterion 2 reads every cell)."""
    if _last_joint[0] is not net:
        _last_joint[:] = net, full_joint(net)
    joint = _last_joint[1]
    idx = tuple(
        net.variable(v.name).level_index(assignment[v.name]) for v in net.variables
    )
    return float(joint[idx])


def probability(net, assignment):
    """P(a partial assignment), summed off the joint tensor."""
    joint = full_joint(net)
    index = [slice(None)] * joint.ndim
    for name, level in assignment.items():
        index[_axis(net, name)] = net.variable(name).level_index(level)
    return float(joint[tuple(index)].sum())


def posterior(net, target, evidence=None):
    """(distribution over target levels, P(evidence)) by summing the joint."""
    evidence = evidence or {}
    joint = full_joint(net)
    index = [slice(None)] * joint.ndim
    for name, level in evidence.items():
        index[_axis(net, name)] = net.variable(name).level_index(level)
    reduced = joint[tuple(index)]
    # axes retained after indexing, in original order
    kept = [v.name for v in net.variables if v.name not in evidence]
    t_pos = kept.index(target)
    dist = reduced.sum(axis=tuple(i for i in range(reduced.ndim) if i != t_pos))
    p_evidence = float(dist.sum())
    return dist / p_evidence, p_evidence


def cpt_gradient(net, name, assignment):
    """d P(assignment) / d theta for every entry of ``name``'s CPT, as a (q, r) table.

    P(assignment) is a sum over the joint of products that hold each CPT
    exactly once, so the derivative by one entry is the same sum over the
    product of the other CPTs, restricted to that entry's family values.
    """
    joint = full_joint(net, without=name)
    for other, level in assignment.items():
        mask = np.zeros(net.variable(other).r)
        mask[net.variable(other).level_index(level)] = 1.0
        shape = [1] * joint.ndim
        shape[_axis(net, other)] = mask.size
        joint = joint * mask.reshape(shape)
    family = list(net.cpts[name].parent_order) + [name]
    axes = [_axis(net, v) for v in family]
    table = joint.sum(axis=tuple(i for i in range(joint.ndim) if i not in axes))
    # summed axes keep their original order; put them in family order
    table = np.transpose(table, [sorted(axes).index(a) for a in axes])
    return table.reshape(-1, net.variable(name).r)


def conditionally_independent(net, x, y, given, tol=1e-9):
    """Check P(x, y | z) = P(x | z) P(y | z) for every configuration."""
    joint = full_joint(net)
    names = [v.name for v in net.variables]
    ax = {n: i for i, n in enumerate(names)}
    keep = [ax[x], ax[y]] + [ax[g] for g in given]
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    table = joint.sum(axis=drop)
    # reorder to (x, y, given...)
    current = sorted(keep)
    table = np.transpose(table, [current.index(k) for k in keep])
    table = table.reshape(table.shape[0], table.shape[1], -1)
    for z in range(table.shape[2]):
        block = table[:, :, z]
        pz = block.sum()
        if pz <= 0:
            continue
        block = block / pz
        outer = block.sum(axis=1, keepdims=True) * block.sum(axis=0, keepdims=True)
        if np.abs(block - outer).max() > tol:
            return False
    return True


def sobol_first_order(net, target, input_var):
    """First-order index from the joint tensor.

    Per-state indicator variances with a variance-weighted aggregate, exactly
    the definition the library claims to implement.
    """
    joint = full_joint(net)
    t_ax, x_ax = _axis(net, target), _axis(net, input_var)
    other = tuple(i for i in range(joint.ndim) if i not in (t_ax, x_ax))
    table = joint.sum(axis=other)
    if t_ax < x_ax:
        table = table.T  # rows = input levels, cols = target levels
    weights = table.sum(axis=1)
    p_k = table.sum(axis=0)
    var_k = p_k * (1 - p_k)
    cond = np.zeros_like(table)
    for i in range(table.shape[0]):
        if weights[i] > 0:
            cond[i] = table[i] / weights[i]
    mean_k = weights @ cond
    cond_var_k = weights @ (cond - mean_k) ** 2
    per_state = np.array(
        [cv / v if v > 0 else 0.0 for cv, v in zip(cond_var_k, var_k)]
    )
    active = var_k > 0
    aggregate = float(cond_var_k[active].sum() / var_k[active].sum())
    return per_state, aggregate


def counts(table, variable, parents=()):
    """N_ijk as a (q, r) table over the rows complete in the family, j
    mixed-radix over ``parents`` (first most significant)."""
    var = table.variable(variable)
    parent_vars = tuple(table.variable(p) for p in parents)
    child = table.column(variable)
    complete = child >= 0
    j = np.zeros(table.n_rows, dtype=np.int64)
    for p in parent_vars:
        col = table.column(p.name)
        complete &= col >= 0
        j = j * p.r + col
    q = 1
    for p in parent_vars:
        q *= p.r
    flat = (j[complete] * var.r + child[complete]).astype(np.int64)
    return np.bincount(flat, minlength=q * var.r).reshape(q, var.r)


def parameter_count(dag, variables):
    """Number of free parameters d = sum over nodes of q_i * (r_i - 1)."""
    cards = {v.name: v.r for v in variables}
    d = 0
    for node in dag.nodes:
        q = 1
        for p in dag.parent_tuple(node):
            q *= cards[p]
        d += q * (cards[node] - 1)
    return d


def score(dag, data, kind="AIC"):
    """Network score: one scorer's local terms summed over the DAG's families."""
    scorer = DecomposableScore(data, kind)
    return sum(scorer.local(node, dag.parent_tuple(node)) for node in dag.nodes)
