"""Seeded synthetic instances shaped like the paper's two domains.

Each generator writes the command-line tool's own input formats into a
directory and nothing else, so the program under test sees only files.

Container domain: 192 objects drawn around 12 cluster centres that sit in
4 super-groups, similarity = -(Euclidean distance), and two naming-count
files whose vocabularies cut the clusters differently (they feed the
least-informative prior, eval, baseline, gnid and mixture).

Animal domain: 113 classes x 757 features following the recipe of
``tests/regen_fixtures.py``: planted groups raise their characteristic
features, and every cell keeps a small non-zero floor. A familiarity score
per class gives the need. Two naming-count files name the planted groups at
two granularities.

The numbers of an instance, and their order, are drawn once from a fixed
stream. The workload seed renames the objects (and the animal features) and
shuffles the rows of the naming-count files, so every seed writes its own
files while every floating-point operation of the pipeline stays the same.
Two facts force this. Near a cluster transition the solver needs about
1/|beta - beta_c| iterations, so moving the geometry moves the cost of a
sweep by any amount. And the sweep's refinement passes keep any gain above
1e-15 bits, so even permuting the rows or features (same mathematics,
different summation order) changes how many passes run: two permutations
of the animal instance gave 253 and 316 solves on a 64-beta grid, at the
same recorded iteration count.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

ANIMAL_CLASSES = 113
ANIMAL_FEATURES = 757
_INSTANCE_STREAM = 1905_04562

# 4 super-groups x 3 clusters x 16 objects, in a 2-D latent plane.
_SUPER_CENTRES = np.array([[0.0, 0.0], [14.0, 0.0], [0.0, 14.0], [14.0, 14.0]])
_CLUSTER_OFFSETS = np.array([[3.0, 0.0], [-1.5, 2.6], [-1.5, -2.6]])
_CLUSTER_SIZE = 16
_POINT_SD = 1.0
# Cluster -> word in the two naming conditions; the vocabularies cut the
# clusters differently, as two languages do.
_LANG_A = ["kop", "kop", "beker", "pot", "pot", "pot", "fles", "fles", "kan",
           "bak", "bak", "bak"]
_LANG_B = ["tasse", "bol", "bol", "pot", "pot", "bocal", "bouteille", "carafe",
           "carafe", "bac", "bac", "boite"]

# Animal groups: (realm, super-group, group, classes). Each level owns a
# block of characteristic features; water/land splits first, then insects
# leave the land animals, then birds and mammals part, then the groups, so
# the hierarchy has its k = 2, 3 and 4 layers.
_ANIMAL_GROUPS = [
    ("water", "fish", "fish_a", 10),
    ("water", "fish", "fish_b", 9),
    ("land", "insect", "insect_a", 12),
    ("land", "insect", "insect_b", 11),
    ("land", "bird", "bird_a", 12),
    ("land", "bird", "bird_b", 12),
    ("land", "mammal", "mammal_a", 16),
    ("land", "mammal", "mammal_b", 16),
    ("land", "mammal", "mammal_c", 15),
]
_FEATURES_PER_LEVEL = {"water": 100, "land": 100, "fish": 60, "insect": 130,
                       "bird": 30, "mammal": 20}
_FEATURES_PER_GROUP = 25
_ANIMAL_WORDS = {"fish": "vis", "insect": "insect", "bird": "vogel", "mammal": "dier"}


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _write_counts(path: Path, rows, order, condition: str) -> None:
    """Naming-count TSV with the rows of each object kept together, in ``order``."""
    lines = ["meaning_label\tword_label\tcount\tcondition"]
    for i in order:
        lines += [f"{m}\t{w}\t{c}\t{condition}" for m, w, c in rows[i]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _suffix(names: np.random.Generator) -> str:
    return "_" + "".join(names.choice(list("abcdefghijklmnopqrstuvwxyz"), 4))


def _naming_rows(rng, labels, word_of, neighbour_of) -> list[list[tuple[str, str, int]]]:
    """Per object: its dominant word, plus some answers for a neighbour word."""
    rows = []
    for lab, word, alt in zip(labels, word_of, neighbour_of):
        total = int(rng.integers(8, 25))
        stray = int(rng.binomial(total, 0.15)) if alt != word else 0
        rows.append([(lab, word, total - stray)] + ([(lab, alt, stray)] if stray else []))
    return rows


def container_instance(out_dir, seed: int, small: bool = False) -> dict[str, Path]:
    """similarity.csv plus naming_a.tsv / naming_b.tsv for 192 objects
    (36 when ``small``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(_INSTANCE_STREAM)
    centres = (_SUPER_CENTRES[:, None, :] + _CLUSTER_OFFSETS[None, :, :]).reshape(-1, 2)
    cluster = np.repeat(np.arange(len(centres)), 3 if small else _CLUSTER_SIZE)
    points = centres[cluster] + _POINT_SD * rng.standard_normal((cluster.size, 2))
    names = np.random.default_rng(seed)
    labels = [f"obj{i:03d}{_suffix(names)}" for i in range(cluster.size)]
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    sim = -np.round(dist, 6) + 0.0  # + 0.0 turns -0.0 on the diagonal into 0.0

    rows = [["label", *labels]]
    rows += [[lab, *(repr(float(x)) for x in row)] for lab, row in zip(labels, sim)]
    _write_csv(out / "similarity.csv", rows)

    paths = {"similarity": out / "similarity.csv"}
    nearest = np.argsort(((centres[:, None] - centres[None]) ** 2).sum(-1), axis=1)[:, 1]
    for name, vocab in (("naming_a", _LANG_A), ("naming_b", _LANG_B)):
        word_of = [vocab[c] for c in cluster]
        alt_of = [vocab[nearest[c]] for c in cluster]
        paths[name] = out / f"{name}.tsv"
        _write_counts(paths[name], _naming_rows(rng, labels, word_of, alt_of),
                      names.permutation(cluster.size), f"{name}_monolingual")
    return paths


def animal_instance(out_dir, seed: int, small: bool = False) -> dict[str, Path]:
    """features.csv, familiarity.csv and two naming-count files, 113 x 757
    (18 x 151 when ``small``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(_INSTANCE_STREAM)
    shrink = 5 if small else 1
    n_classes = 2 * len(_ANIMAL_GROUPS) if small else ANIMAL_CLASSES
    n_features = ANIMAL_FEATURES // shrink
    feature_pool = rng.permutation(n_features)
    values = 0.02 + rng.uniform(-0.015, 0.015, (n_classes, n_features))
    blocks: dict[str, np.ndarray] = {}
    used = 0

    def block(name: str, size: int) -> np.ndarray:
        nonlocal used
        if name not in blocks:
            blocks[name] = feature_pool[used:used + size]
            used += size
        return blocks[name]

    labels, supers, groups = [], [], []
    for realm, sup, grp, size in _ANIMAL_GROUPS:
        realm_f = block(realm, _FEATURES_PER_LEVEL[realm] // shrink)
        super_f = block(sup, _FEATURES_PER_LEVEL[sup] // shrink)
        own_f = block(grp, _FEATURES_PER_GROUP // shrink)
        for j in range(2 if small else size):
            row = len(labels)
            values[row, realm_f] = rng.uniform(0.55, 0.95, realm_f.size)
            values[row, super_f] = rng.uniform(0.5, 0.9, super_f.size)
            values[row, own_f] = rng.uniform(0.45, 0.9, own_f.size)
            labels.append(f"{grp}_{j:02d}")
            supers.append(sup)
            groups.append(grp)
    values = np.round(values, 3)
    familiarity = np.round(rng.uniform(2.0, 9.0, n_classes), 2)
    names = np.random.default_rng(seed)
    labels = [lab + _suffix(names) for lab in labels]
    feature_labels = [f"f{i:03d}{_suffix(names)}" for i in range(n_features)]
    rows = [["class", *feature_labels]]
    rows += [[lab, *(repr(float(x)) for x in vals)] for lab, vals in zip(labels, values)]
    _write_csv(out / "features.csv", rows)
    _write_csv(out / "familiarity.csv",
               [["class_label", "score"], *([lab, repr(float(f))]
                                            for lab, f in zip(labels, familiarity))])

    paths = {"features": out / "features.csv", "familiarity": out / "familiarity.csv"}
    coarse = [_ANIMAL_WORDS[s] for s in supers]
    for name, word_of in (("naming_a", coarse), ("naming_b", groups)):
        paths[name] = out / f"{name}.tsv"
        _write_counts(paths[name], _naming_rows(rng, labels, word_of, word_of),
                      names.permutation(n_classes), f"{name}_monolingual")
    return paths
