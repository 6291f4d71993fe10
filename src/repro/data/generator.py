"""Synthetic data generators for the paper's experiments (Appendix D.2).

The paper evaluates rewritings over Erdős–Rényi random graphs with
parameters ``V`` (number of vertices), ``p`` (probability of an
``R``-edge) and ``q`` (probability of unary marks at a vertex); no
``S``-edges are generated, so matches of the ``S``-atoms of the query
sequences must come from the ontology (via the surrogate ``A_P``/``A_P-``
marks).  ``paper_datasets`` reproduces Table 2's four parameter settings,
optionally scaled down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .abox import ABox


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 2."""

    name: str
    vertices: int
    edge_probability: float
    mark_probability: float

    @property
    def average_degree(self) -> float:
        return self.vertices * self.edge_probability


#: The four datasets of Table 2 (1.ttl .. 4.ttl).
TABLE2_SPECS: Tuple[DatasetSpec, ...] = (
    DatasetSpec("1.ttl", 1000, 0.050, 0.050),
    DatasetSpec("2.ttl", 5000, 0.002, 0.004),
    DatasetSpec("3.ttl", 10000, 0.002, 0.004),
    DatasetSpec("4.ttl", 20000, 0.002, 0.010),
)


def erdos_renyi_abox(vertices: int, edge_probability: float,
                     mark_probability: float,
                     edge_predicates: Sequence[str] = ("R",),
                     mark_predicates: Sequence[str] = ("A_P", "A_P-"),
                     seed: int = 0) -> ABox:
    """An Erdős–Rényi data instance as in Appendix D.2.

    Directed edges ``P(v_i, v_j)`` are drawn independently with
    probability ``edge_probability`` for each ordered pair with
    ``i != j``; each unary mark is drawn per vertex with probability
    ``mark_probability``.  For large sparse graphs the edge set is
    sampled by skipping geometrically many pairs, so generation is
    ``O(#edges)`` rather than ``O(V^2)``.
    """
    rng = random.Random(seed)
    abox = ABox()
    names = [f"v{i}" for i in range(vertices)]
    for name in names:
        for predicate in mark_predicates:
            if rng.random() < mark_probability:
                abox.add(predicate, name)
    total_pairs = vertices * (vertices - 1)
    for predicate in edge_predicates:
        for i, j in _sample_pairs(rng, vertices, total_pairs,
                                  edge_probability):
            abox.add(predicate, names[i], names[j])
    return abox


def _sample_pairs(rng: random.Random, vertices: int, total_pairs: int,
                  probability: float):
    """Geometric skipping over the ordered pairs (i, j), i != j."""
    if probability <= 0:
        return
    if probability >= 1:
        for i in range(vertices):
            for j in range(vertices):
                if i != j:
                    yield i, j
        return
    import math

    log_q = math.log(1.0 - probability)
    position = -1
    while True:
        gap = int(math.log(max(rng.random(), 1e-300)) / log_q)
        position += gap + 1
        if position >= total_pairs:
            return
        i, remainder = divmod(position, vertices - 1)
        j = remainder if remainder < i else remainder + 1
        yield i, j


def paper_datasets(scale: float = 1.0, seed: int = 0) -> Dict[str, ABox]:
    """The four Table 2 datasets; ``scale`` shrinks the vertex counts
    (keeping average degrees) so the suite runs on a laptop."""
    datasets = {}
    for index, spec in enumerate(TABLE2_SPECS):
        vertices = max(10, int(spec.vertices * scale))
        # keep the average degree of the paper by rescaling p
        probability = min(1.0, spec.average_degree / max(vertices - 1, 1))
        datasets[spec.name] = erdos_renyi_abox(
            vertices, probability, spec.mark_probability, seed=seed + index)
    return datasets


def chain_abox(labels: Sequence[str], prefix: str = "c") -> ABox:
    """A single labelled chain ``label_i(c_i, c_{i+1})`` — handy in tests."""
    abox = ABox()
    for i, label in enumerate(labels):
        abox.add(label, f"{prefix}{i}", f"{prefix}{i + 1}")
    return abox


#: The component shapes :func:`multi_component_abox` can generate.
COMPONENT_SHAPES = ("chain", "star", "random", "mixed")


def multi_component_abox(components: int, component_size: int,
                         shape: str = "mixed",
                         edge_predicates: Sequence[str] = ("R", "S"),
                         mark_predicates: Sequence[str] = ("A_P", "A_P-"),
                         mark_probability: float = 0.25,
                         seed: int = 0) -> ABox:
    """A seedable instance of ``components`` disjoint Gaifman components.

    A workload of many small disconnected pieces: every component has
    ``component_size`` vertices (named ``g<i>_<j>``, so components
    never share constants) wired as a *chain*, a *star*, a *random*
    connected graph (a random spanning tree plus a few chords), or a
    round-robin *mixed* of the three; unary marks are drawn per vertex
    with ``mark_probability``.  Deterministic in ``seed``.
    """
    if shape not in COMPONENT_SHAPES:
        raise ValueError(f"unknown shape {shape!r}; "
                         f"expected one of {COMPONENT_SHAPES}")
    rng = random.Random(seed)
    abox = ABox()
    rotation = ("chain", "star", "random")
    for index in range(components):
        kind = rotation[index % len(rotation)] if shape == "mixed" else shape
        names = [f"g{index}_{j}" for j in range(component_size)]
        edge = 0
        if kind == "chain":
            for j in range(len(names) - 1):
                abox.add(edge_predicates[edge % len(edge_predicates)],
                         names[j], names[j + 1])
                edge += 1
        elif kind == "star":
            for j in range(1, len(names)):
                abox.add(edge_predicates[edge % len(edge_predicates)],
                         names[0], names[j])
                edge += 1
        else:  # random: spanning tree + ~25% chords, always connected
            for j in range(1, len(names)):
                abox.add(rng.choice(list(edge_predicates)),
                         names[rng.randrange(j)], names[j])
            for _ in range(max(1, len(names) // 4)):
                first, second = rng.choice(names), rng.choice(names)
                if first != second:
                    abox.add(rng.choice(list(edge_predicates)),
                             first, second)
        for name in names:
            for predicate in mark_predicates:
                if rng.random() < mark_probability:
                    abox.add(predicate, name)
    return abox


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, scalable multi-component workload preset."""

    name: str
    components: int
    component_size: int
    shape: str
    mark_probability: float = 0.25

    def generate(self, scale: float = 1.0, seed: int = 0) -> ABox:
        return multi_component_abox(
            max(1, int(self.components * scale)), self.component_size,
            shape=self.shape, mark_probability=self.mark_probability,
            seed=seed)


#: Reproducible multi-component workloads (the ledger's ``eval-tables``
#: reads ``random-large``): ``scale`` multiplies the component count
#: (keeping component sizes), so bigger scales mean more components,
#: not bigger ones.
WORKLOAD_PRESETS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec("chain-small", components=24, component_size=8,
                     shape="chain"),
        WorkloadSpec("chain-large", components=200, component_size=25,
                     shape="chain"),
        WorkloadSpec("star-small", components=24, component_size=8,
                     shape="star"),
        WorkloadSpec("star-large", components=200, component_size=25,
                     shape="star"),
        WorkloadSpec("random-small", components=24, component_size=8,
                     shape="random"),
        WorkloadSpec("random-large", components=160, component_size=30,
                     shape="random"),
        WorkloadSpec("mixed-small", components=30, component_size=8,
                     shape="mixed"),
        WorkloadSpec("mixed-large", components=240, component_size=20,
                     shape="mixed"),
    )
}


def workload_abox(preset: str, scale: float = 1.0, seed: int = 0) -> ABox:
    """Generate a :data:`WORKLOAD_PRESETS` entry at the given scale."""
    try:
        spec = WORKLOAD_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown workload preset {preset!r}; expected one of "
            f"{sorted(WORKLOAD_PRESETS)}") from None
    return spec.generate(scale=scale, seed=seed)


def random_abox(individuals: int, atoms: int,
                unary_predicates: Sequence[str],
                binary_predicates: Sequence[str], seed: int = 0) -> ABox:
    """A uniformly random small ABox, used by the property-based tests."""
    rng = random.Random(seed)
    abox = ABox()
    names = [f"a{i}" for i in range(individuals)]
    for _ in range(atoms):
        if unary_predicates and (not binary_predicates or rng.random() < 0.4):
            abox.add(rng.choice(unary_predicates), rng.choice(names))
        elif binary_predicates:
            abox.add(rng.choice(binary_predicates), rng.choice(names),
                     rng.choice(names))
    return abox
