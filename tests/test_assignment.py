"""Assignment energy and its exhaustive / genetic minimizers."""

import itertools

import numpy as np
import pytest

from dynseg.assignment import (
    NONE_LABEL,
    AssignmentProblem,
    BlobFeature,
    EnergyParams,
    GAConfig,
    Segments,
    _energy_batch,
    energy_of,
    greedy_labels,
    solve_exhaustive,
    solve_ga,
)

from helpers import segment_table


def _params(**kw):
    return EnergyParams(**kw).resolve(0.08)


def _seg(centroid, color=(50.0, 0.0, 0.0), comp=0, obj=0):
    """One row for segment_table."""
    return centroid, color, comp, obj


def _energy_oracle(problem, labels):
    """Straight-line reimplementation of the energy, no vectorization."""
    p = problem.params
    total = 0.0
    covered = set()
    disp_by_comp = {}
    segs = problem.segments
    for s, lab in enumerate(labels):
        if lab == NONE_LABEL:
            total += p.rho
            continue
        blob = problem.blobs[lab]
        d = np.linalg.norm(blob.sv_centroids - segs.centroids[s], axis=1)
        j = int(np.argmin(d))
        k = min(3, len(blob.sv_centroids))
        near = np.argsort(d, kind="stable")[:k]
        near_color = blob.sv_colors_lab[near].mean(axis=0)
        appearance = float(np.linalg.norm(near_color - segs.colors_lab[s]))
        total += p.alpha * appearance + p.beta * float(d[j])
        covered.add(int(lab))
        disp_by_comp.setdefault(int(segs.component_ids[s]), []).append(
            blob.sv_centroids[j] - segs.centroids[s]
        )
    total += p.gamma * (problem.num_blobs - len(covered))
    if p.delta != 0.0:
        for vecs in disp_by_comp.values():
            arr = np.asarray(vecs)
            mean = arr.mean(axis=0)
            total += p.delta * float(((arr - mean) ** 2).sum(axis=1).mean())
    return total


def _random_problem(rng, ms, mb, delta=1.0):
    segments = segment_table(
        _seg(
            rng.uniform(0.0, 0.5, 3),
            color=(rng.uniform(20, 80), rng.uniform(-30, 30), rng.uniform(-30, 30)),
            comp=int(rng.integers(0, ms // 2 + 1)),
        )
        for _ in range(ms)
    )
    blobs = []
    for _ in range(mb):
        k = int(rng.integers(1, 5))
        blobs.append(
            BlobFeature(
                sv_centroids=rng.uniform(0.0, 0.5, (k, 3)),
                sv_colors_lab=np.column_stack(
                    [rng.uniform(20, 80, k), rng.uniform(-30, 30, k), rng.uniform(-30, 30, k)]
                ),
            )
        )
    return AssignmentProblem(segments=segments, blobs=blobs, params=_params(delta=delta))


class TestEnergy:
    def test_single_segment_hand_value(self):
        # data = 0.01 * 5 + 12.5 * 0.04 = 0.55, everything else zero
        prob = AssignmentProblem(
            segments=segment_table([_seg((0.0, 0.0, 0.0))]),
            blobs=[BlobFeature(sv_centroids=[[0.04, 0.0, 0.0]], sv_colors_lab=[[55.0, 0.0, 0.0]])],
            params=_params(),
        )
        assert energy_of(prob, [0]) == pytest.approx(0.55, rel=1e-9)
        # NONE: rho for the segment plus gamma for the uncovered blob
        assert energy_of(prob, [NONE_LABEL]) == pytest.approx(1.5 + 2.0, rel=1e-12)

    def test_variance_term_hand_value(self):
        # displacements (0,0,0) and (0.04,0,0) in one component:
        # mean (0.02,0,0), per-vector dev 4e-4, term = 4e-4
        prob = AssignmentProblem(
            segments=segment_table([_seg((0.0, 0.0, 0.0), comp=0), _seg((0.1, 0.0, 0.0), comp=0)]),
            blobs=[
                BlobFeature(
                    sv_centroids=[[0.0, 0.0, 0.0], [0.14, 0.0, 0.0]],
                    sv_colors_lab=[[50.0, 0.0, 0.0], [50.0, 0.0, 0.0]],
                )
            ],
            params=_params(),
        )
        assert energy_of(prob, [0, 0]) == pytest.approx(12.5 * 0.04 + 4e-4, rel=1e-9)

    def test_variance_term_off(self):
        prob = AssignmentProblem(
            segments=segment_table([_seg((0.0, 0.0, 0.0), comp=0), _seg((0.1, 0.0, 0.0), comp=0)]),
            blobs=[
                BlobFeature(
                    sv_centroids=[[0.0, 0.0, 0.0], [0.14, 0.0, 0.0]],
                    sv_colors_lab=[[50.0, 0.0, 0.0], [50.0, 0.0, 0.0]],
                )
            ],
            params=_params(delta=0.0),
        )
        assert energy_of(prob, [0, 0]) == pytest.approx(12.5 * 0.04, rel=1e-9)

    def test_all_none(self):
        rng = np.random.default_rng(0)
        prob = _random_problem(rng, ms=3, mb=2)
        got = energy_of(prob, [NONE_LABEL] * 3)
        assert got == pytest.approx(3 * 1.5 + 2 * 2.0, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            ms = int(rng.integers(1, 6))
            mb = int(rng.integers(1, 4))
            prob = _random_problem(rng, ms, mb)
            labels = rng.integers(NONE_LABEL, mb, size=ms, endpoint=False)
            assert energy_of(prob, labels) == pytest.approx(
                _energy_oracle(prob, labels), rel=1e-10
            )

    def test_validation(self):
        prob = _random_problem(np.random.default_rng(1), ms=2, mb=2)
        with pytest.raises(ValueError):
            energy_of(prob, [0])  # wrong length
        with pytest.raises(ValueError):
            energy_of(prob, [0, 2])  # blob index out of range
        with pytest.raises(ValueError):
            energy_of(prob, [0, -2])  # below NONE

    def test_blob_feature_validation(self):
        with pytest.raises(ValueError):
            BlobFeature(sv_centroids=np.empty((0, 3)), sv_colors_lab=np.empty((0, 3)))
        with pytest.raises(ValueError):
            BlobFeature(sv_centroids=np.zeros((2, 3)), sv_colors_lab=np.zeros((1, 3)))


class TestGreedy:
    def test_prefers_none_when_rho_cheaper(self):
        # far segment: beta * 1.0 = 12.5 > rho = 1.5
        prob = AssignmentProblem(
            segments=segment_table([_seg((0.0, 0.0, 0.0)), _seg((0.99, 0.0, 0.0))]),
            blobs=[BlobFeature(sv_centroids=[[1.0, 0.0, 0.0]], sv_colors_lab=[[50.0, 0.0, 0.0]])],
            params=_params(),
        )
        labels = greedy_labels(prob)
        assert labels.tolist() == [NONE_LABEL, 0]

    def test_empty(self):
        prob = AssignmentProblem(segments=Segments.empty(), blobs=[], params=_params())
        assert greedy_labels(prob).shape == (0,)


class TestExhaustive:
    def test_matches_brute_force_over_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ms = int(rng.integers(1, 5))
            mb = int(rng.integers(1, 3))
            prob = _random_problem(rng, ms, mb)
            best = min(
                _energy_oracle(prob, labels)
                for labels in itertools.product(range(-1, mb), repeat=ms)
            )
            sol = solve_exhaustive(prob)
            assert sol.energy == pytest.approx(best, rel=1e-10)
            assert energy_of(prob, sol.labels) == pytest.approx(sol.energy, rel=1e-12)

    @pytest.mark.parametrize("ms, mb", [(1, 1), (3, 2), (4, 3), (9, 2)])
    def test_matches_itertools_reference_with_ties(self, ms, mb):
        # (9, 2) has 19,683 labelings, three 8,192-row chunks
        prob = _random_problem(np.random.default_rng(10 * ms + mb), ms, mb)
        twins = AssignmentProblem(segments=prob.segments, blobs=[prob.blobs[0]] * mb, params=prob.params)
        # every labeling ties, across chunk boundaries too
        zero = EnergyParams(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, rho=0.0)
        flat = AssignmentProblem(segments=prob.segments, blobs=prob.blobs, params=zero)
        vectors = np.asarray(list(itertools.product(range(-1, mb), repeat=ms)), dtype=np.int64)
        for p in (prob, twins, flat):
            energies = _energy_batch(p, vectors)
            sol = solve_exhaustive(p)
            # first minimum in itertools order: the lexicographically smallest, NONE first
            assert sol.labels.tolist() == vectors[int(np.argmin(energies))].tolist()
            assert sol.energy == energies.min()
            if p is twins and mb > 1:  # identical blobs tie exactly at the optimum
                assert (energies == energies.min()).sum() >= 2

    def test_empty_segments(self):
        prob = AssignmentProblem(segments=Segments.empty(), blobs=[], params=_params())
        sol = solve_exhaustive(prob)
        assert sol.labels.shape == (0,)
        assert sol.energy == 0.0

    def test_too_large_rejected(self):
        rng = np.random.default_rng(2)
        prob = _random_problem(rng, ms=30, mb=3)
        with pytest.raises(ValueError):
            solve_exhaustive(prob)


class TestGA:
    def test_finds_exhaustive_optimum(self):
        rng = np.random.default_rng(31)
        hits = 0
        for i in range(10):
            ms = int(rng.integers(2, 6))
            mb = int(rng.integers(1, 4))
            prob = _random_problem(rng, ms, mb)
            ex = solve_exhaustive(prob)
            ga = solve_ga(prob, GAConfig(), rng_seed=i)
            assert ga.energy >= ex.energy - 1e-9
            if ga.energy <= ex.energy + 1e-9:
                hits += 1
        assert hits >= 9

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(8)
        for i in range(5):
            prob = _random_problem(rng, ms=6, mb=3)
            ga = solve_ga(prob, GAConfig(generations=20), rng_seed=i)
            assert ga.energy <= energy_of(prob, greedy_labels(prob)) + 1e-12

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(13)
        prob = _random_problem(rng, ms=5, mb=3)
        a = solve_ga(prob, GAConfig(), rng_seed=42)
        b = solve_ga(prob, GAConfig(), rng_seed=42)
        assert a.labels.tolist() == b.labels.tolist()
        assert a.energy == b.energy

    def test_blob_order_equivariance(self):
        rng = np.random.default_rng(21)
        prob = _random_problem(rng, ms=5, mb=3)
        perm = [2, 0, 1]
        inv = {old: new for new, old in enumerate(perm)}
        shuffled = AssignmentProblem(
            segments=prob.segments,
            blobs=[prob.blobs[b] for b in perm],
            params=prob.params,
        )
        a = solve_ga(prob, GAConfig(), rng_seed=9)
        b = solve_ga(shuffled, GAConfig(), rng_seed=9)
        assert b.energy == pytest.approx(a.energy, rel=1e-12)
        mapped = [inv[v] if v >= 0 else NONE_LABEL for v in a.labels]
        assert b.labels.tolist() == mapped

    def test_trace_best_is_non_increasing(self):
        rng = np.random.default_rng(3)
        prob = _random_problem(rng, ms=6, mb=3)
        trace = []
        solve_ga(prob, GAConfig(), rng_seed=0, trace=trace)
        assert trace
        bests = [t[1] for t in trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_empty_segments(self):
        prob = AssignmentProblem(segments=Segments.empty(), blobs=[], params=_params())
        sol = solve_ga(prob, GAConfig(), rng_seed=0)
        assert sol.labels.shape == (0,)
        assert sol.energy == 0.0
