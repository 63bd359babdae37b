"""Seeded random networks and data tables for tests."""

from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork


def random_dag(rng, n_nodes, p_arc=0.35, max_parents=3):
    names = [f"V{i}" for i in range(n_nodes)]
    order = rng.permutation(n_nodes)
    rank = {names[n]: i for i, n in enumerate(order)}
    parents = {n: [] for n in names}
    for a in names:
        for b in names:
            if rank[a] < rank[b] and len(parents[b]) < max_parents:
                if rng.random() < p_arc:
                    parents[b].append(a)
    return Dag(tuple(names), {n: tuple(ps) for n, ps in parents.items()})


def window_dag(rng, n_nodes, window=8, max_parents=4):
    """Nodes in a chain order, each with up to ``max_parents`` parents among
    the ``window`` nodes before it (the shape of the benchmark's random nets)."""
    names = [f"V{i:02d}" for i in range(n_nodes)]
    parents = {}
    for i, name in enumerate(names):
        pool = range(max(0, i - window), i)
        m = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        chosen = sorted(int(c) for c in rng.choice(pool, size=m, replace=False)) if m else []
        parents[name] = tuple(names[c] for c in chosen)
    return Dag(tuple(names), parents)


def random_net(rng, n_nodes, min_levels=2, max_levels=4, p_arc=0.35, max_parents=3,
               concentration=1.0, dag=None):
    """Random DAG (or the given one) with Dirichlet(concentration) CPT rows."""
    if dag is None:
        dag = random_dag(rng, n_nodes, p_arc, max_parents)
    variables = []
    for name in dag.nodes:
        r = int(rng.integers(min_levels, max_levels + 1))
        variables.append(
            CategoricalVariable(name, tuple(f"{name.lower()}{k}" for k in range(r)))
        )
    cards = {v.name: v.r for v in variables}
    cpts = {}
    for v in variables:
        q = 1
        for p in dag.parent_tuple(v.name):
            q *= cards[p]
        table = rng.dirichlet([concentration] * v.r, size=q)
        cpts[v.name] = Cpt(v.name, dag.parent_tuple(v.name), table)
    return FittedNetwork(variables, dag, cpts)


def random_evidence(rng, net, max_vars=3, exclude=()):
    pool = [v for v in net.variables if v.name not in exclude]
    k = int(rng.integers(0, min(max_vars, len(pool)) + 1))
    chosen = rng.choice(len(pool), size=k, replace=False) if k else []
    out = {}
    for idx in chosen:
        var = pool[int(idx)]
        out[var.name] = var.levels[int(rng.integers(0, var.r))]
    return out
