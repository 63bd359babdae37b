"""The paper's configs (configs/gesis/): the prep and learn command lines that
acceptance criterion 10 and the tier-1 dry run share, and a synthetic raw
survey built from the prep config's own token maps."""

import csv
import os

import numpy as np

from beliefnet.configio import load_prep_config

CONFIGS = "configs/gesis"
PREP = f"{CONFIGS}/prep.yaml"
# a token no map of the prep config lists; `unmapped: missing` reads it as
# missing. One cell in a hundred holds it.
UNMAPPED, UNMAPPED_SHARE = "-9", 0.01
# how often a row keeps the previous column's latent quantile
LEAN = 0.7


def prep_learn_argv(raw, root, bootstrap, prep=PREP):
    """The ``prep`` and ``learn`` argv that recode ``raw`` into the workspace
    ``root`` as ``gesis_full`` and learn the model ``full`` from it, with the
    paper's tiers, learn config and seed."""
    data = os.path.join(root, "data", "gesis_full")
    return (
        ["prep", "--raw", str(raw), "--recode", str(prep),
         "--workspace", str(root), "--name", "gesis"],
        ["learn", "--data", data + ".csv", "--dict", data + ".dict.yaml",
         "--tiers", f"{CONFIGS}/tiers.yaml", "--config", f"{CONFIGS}/learn.yaml",
         "--bootstrap", str(bootstrap), "--seed", "20230626", "--workers", "2",
         "--workspace", str(root), "--name", "full"],
    )


def write_raw_survey(path, n_rows, seed):
    """Write a raw CSV with one column per variable of the paper's prep config.

    Each row walks the columns in config order with a latent u in [0, 1),
    kept from the previous column with probability ``LEAN`` and drawn afresh
    otherwise; a cell is the map key at u's quantile. Every key so stays
    about equally likely, and neighbouring columns depend on each other, so
    the search has arcs to find.
    """
    rng = np.random.default_rng(seed)
    spec = load_prep_config(PREP)[0]
    columns = [(v.source, list(v.mapping)) for v in spec.variables]
    rows = []
    for _ in range(n_rows):
        u, row = rng.random(), []
        for _, tokens in columns:
            if rng.random() >= LEAN:
                u = rng.random()
            row.append(UNMAPPED if rng.random() < UNMAPPED_SHARE
                       else tokens[int(u * len(tokens))])
        rows.append(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([source for source, _ in columns])
        writer.writerows(rows)
