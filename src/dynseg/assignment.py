"""Blob-to-segment assignment energy and its two minimizers.

Each previous-frame segment receives one current-blob label or NONE.  A blob
is its node positions in the frame graph, whose centroid and colour rows the
energy reads.  The energy combines appearance change, displacement to the
nearest supervoxel of the chosen blob, a penalty per uncovered blob, and the
variance of displacement vectors within each previous component.

The pipeline enumerates the (B + 1)^M labelings of M segments and B blobs
when they are at most ``exact_limit``, and runs the genetic search otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .graph import AdjacencyGraph
from .supervoxel import nearest

NONE_LABEL = -1

_MAX_EXHAUSTIVE = 10_000_000


@dataclass
class EnergyParams:
    """Term weights; any term can be switched off by zeroing its weight."""

    alpha: float = 0.01  # appearance, per Lab unit
    beta: float | None = None  # displacement, default 1 / seed_resolution
    gamma: float = 2.0  # per blob left uncovered
    delta: float = 1.0  # displacement variance within a previous component
    rho: float = 1.5  # cost of assigning NONE to a segment

    def resolve(self, seed_resolution: float) -> "EnergyParams":
        return replace(self, beta=1.0 / seed_resolution if self.beta is None else self.beta)


@dataclass
class GAConfig:
    population: int = 50
    generations: int = 150
    tournament_size: int = 3
    crossover_rate: float = 0.7
    mutation_rate: float | None = None  # default 1 / num_segments
    elitism: int = 2
    stagnation_stop: int = 25


def exact_limit(config: GAConfig) -> int:
    """Most labelings the pipeline enumerates: the GA's shortest run, capped at 10^7."""
    return min(config.population * (config.stagnation_stop + 1), _MAX_EXHAUSTIVE)


@dataclass(frozen=True)
class Segments:
    """Previous-frame segments as four aligned columns; row s is segment s."""

    centroids: np.ndarray  # (M, 3) point-weighted centroid
    colors_lab: np.ndarray  # (M, 3) point-weighted mean Lab colour
    component_ids: np.ndarray  # (M,) parent component id
    object_ids: np.ndarray  # (M,) parent object id

    def __len__(self) -> int:
        return len(self.centroids)

    @classmethod
    def empty(cls) -> "Segments":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def take(self, rows) -> "Segments":
        """The rows at ``rows``, in that order."""
        return Segments(*(column[rows] for column in vars(self).values()))

    def concat(self, other: "Segments") -> "Segments":
        """These rows, then ``other``'s."""
        return Segments(*map(np.concatenate, zip(vars(self).values(), vars(other).values())))


@dataclass
class AssignmentProblem:
    segments: Segments
    graph: AdjacencyGraph  # the current frame's graph
    blobs: list[np.ndarray]  # each blob's node positions in graph
    params: EnergyParams  # resolved

    def __post_init__(self) -> None:
        if not all(map(len, self.blobs)):
            raise ValueError("blob must contain at least one supervoxel")

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_blobs(self) -> int:
        return len(self.blobs)

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(M_s, M_b + 1) data cost per segment and label, NONE last; (M_s, M_b, 3) displacement to each
        blob's nearest supervoxel; each previous component's segment positions, by ascending component id."""
        ms, mb = self.num_segments, self.num_blobs
        p = self.params
        cost = np.full((ms, mb + 1), p.rho)
        disp = np.zeros((ms, mb, 3))
        seg_c, seg_l, comp = self.segments.centroids, self.segments.colors_lab, self.segments.component_ids
        for b, at in enumerate(self.blobs):
            dist, near = nearest(seg_c, self.graph.centroids[at], min(3, len(at)))
            near_color = self.graph.colors_lab[at[near]].mean(axis=1)
            appearance = np.linalg.norm(near_color - seg_l, axis=1)
            cost[:, b] = p.alpha * appearance + p.beta * dist[:, 0]
            disp[:, b] = self.graph.centroids[at[near[:, 0]]] - seg_c
        return cost, disp, [np.flatnonzero(comp == cid) for cid in np.unique(comp)]


@dataclass
class Assignment:
    labels: np.ndarray  # (M_s,) blob index per segment, NONE_LABEL for none
    energy: float


def _energy_batch(problem: AssignmentProblem, labels: np.ndarray) -> np.ndarray:
    """Energies for a (P, M_s) batch of label vectors."""
    cost, disp, groups = problem.tables
    labels = np.asarray(labels, dtype=np.int64)
    ms, mb = problem.num_segments, problem.num_blobs
    p = problem.params
    # NONE_LABEL = -1 indexes the trailing rho column
    data = cost[np.arange(ms), labels].sum(axis=1)
    covered = (labels[:, :, None] == np.arange(mb)).any(axis=1).sum(axis=1)
    coverage = p.gamma * (mb - covered)
    motion = np.zeros(len(labels))
    if p.delta != 0.0 and mb:
        for idx in groups:
            sub = labels[:, idx]
            mask = sub >= 0
            counts = mask.sum(axis=1)
            vecs = disp[idx, np.clip(sub, 0, mb - 1)]  # (P, k, 3); masked rows ignored
            vecs = vecs * mask[:, :, None]
            safe = np.maximum(counts, 1)
            mean = vecs.sum(axis=1) / safe[:, None]
            dev = ((vecs - mean[:, None, :]) ** 2).sum(axis=2) * mask
            motion += p.delta * np.where(counts > 0, dev.sum(axis=1) / safe, 0.0)
    return data + coverage + motion


def energy_of(problem: AssignmentProblem, labels) -> float:
    """Energy of one label vector; entries must lie in [-1, num_blobs)."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if len(labels) != problem.num_segments:
        raise ValueError(f"label vector length {len(labels)} != {problem.num_segments} segments")
    if problem.num_segments and (labels.min() < NONE_LABEL or labels.max() >= problem.num_blobs):
        raise ValueError("invalid label index")
    return float(_energy_batch(problem, labels[None, :])[0])


def greedy_labels(problem: AssignmentProblem) -> np.ndarray:
    """Per-segment argmin of the data term (NONE when rho is cheapest)."""
    best = np.argmin(problem.tables[0], axis=1)
    best[best == problem.num_blobs] = NONE_LABEL
    return best.astype(np.int64)


def solve_exhaustive(problem: AssignmentProblem) -> Assignment:
    """Exact minimum by enumeration; ties go to the lexicographically smallest vector."""
    ms, mb = problem.num_segments, problem.num_blobs
    total = (mb + 1) ** ms
    if total > _MAX_EXHAUSTIVE:
        raise ValueError(f"instance too large for exhaustive search: {(mb + 1)}^{ms} labelings")
    # row k of the enumeration is k written in base mb + 1, most significant
    # digit first, minus one: lexicographic order with NONE first
    place = (mb + 1) ** np.arange(ms - 1, -1, -1, dtype=np.int64)
    best_e, best_v = np.inf, None
    for start in range(0, total, 8192):
        batch = np.arange(start, min(start + 8192, total), dtype=np.int64)[:, None] // place % (mb + 1) - 1
        e = _energy_batch(problem, batch)
        i = int(np.argmin(e))
        if e[i] < best_e:
            best_e, best_v = float(e[i]), batch[i]
    return Assignment(labels=best_v, energy=best_e)


def _canonical_blob_order(problem: AssignmentProblem) -> np.ndarray:
    """Content-derived blob order so the search is invariant to input indexing."""

    def key(b: int):
        at = problem.blobs[b]
        rows = np.concatenate([problem.graph.centroids[at], problem.graph.colors_lab[at]], axis=1)
        return tuple(sorted(tuple(r) for r in rows))

    return np.asarray(sorted(range(problem.num_blobs), key=lambda b: (key(b), b)), dtype=np.int64)


def _ga_core(problem: AssignmentProblem, config: GAConfig, rng_seed: int) -> np.ndarray:
    """Best vector found; a generation keeps its elite and breeds the rest from one batch of draws."""
    ms, mb = problem.num_segments, problem.num_blobs
    rng = np.random.Generator(np.random.Philox(key=np.uint64(rng_seed)))
    pop_size = config.population
    mut = config.mutation_rate if config.mutation_rate is not None else 1.0 / ms

    pop = np.empty((pop_size, ms), dtype=np.int64)
    pop[0] = greedy_labels(problem)
    if pop_size > 1:
        pop[1:] = rng.integers(NONE_LABEL, mb, size=(pop_size - 1, ms), endpoint=False)

    best_e = np.inf
    best_v = pop[0].copy()
    stagnation = 0
    for gen in range(config.generations):
        energies = _energy_batch(problem, pop)
        i = int(np.argmin(energies))
        if energies[i] < best_e:
            best_e = float(energies[i])
            best_v = pop[i].copy()
            stagnation = 0
        else:
            stagnation += 1
        if stagnation >= config.stagnation_stop or gen == config.generations - 1:
            break

        elite = np.argsort(energies, kind="stable")[: config.elitism]
        n_child = pop_size - len(elite)
        picks = rng.integers(0, pop_size, size=(n_child, 2, config.tournament_size))
        wins = np.take_along_axis(picks, np.argmin(energies[picks], axis=2)[:, :, None], axis=2)[:, :, 0]
        crossed = rng.random(n_child) < config.crossover_rate
        first = ~crossed[:, None] | (rng.random((n_child, ms)) < 0.5)
        children = np.where(first, pop[wins[:, 0]], pop[wins[:, 1]])
        flips = rng.random((n_child, ms)) < mut
        children[flips] = rng.integers(NONE_LABEL, mb, size=int(flips.sum()), endpoint=False)
        pop = np.concatenate([pop[elite], children])
    return best_v


def solve_ga(problem: AssignmentProblem, config: GAConfig, rng_seed: int = 0) -> Assignment:
    """Genetic search in a content-derived blob order, scored in that order; deterministic per rng_seed."""
    ms, mb = problem.num_segments, problem.num_blobs
    if ms == 0:
        return Assignment(labels=np.empty(0, dtype=np.int64), energy=float(problem.params.gamma * mb))
    order = _canonical_blob_order(problem)
    canonical = replace(problem, blobs=[problem.blobs[b] for b in order])
    labels_canon = _ga_core(canonical, config, rng_seed)
    # NONE_LABEL = -1 indexes the appended NONE_LABEL
    return Assignment(labels=np.append(order, NONE_LABEL)[labels_canon], energy=energy_of(canonical, labels_canon))
