import math
import tracemalloc

import numpy as np
import pytest

from profforce.diagnostics import (
    centroid_distance,
    collect_state_clouds,
    mean_cross_distance,
    project_2d,
    write_cloud_csv,
    write_projection_csv,
)
from profforce.engine import GeneratorParams, unroll_free_running, unroll_teacher_forced

from extra_ops import free_running_node, teacher_forced_node


def cloud(points):
    return np.asarray(points, dtype=np.float64)


class TestDistances:
    def test_identical_single_points(self):
        a = cloud([[0.0, 0.0]])
        assert centroid_distance(a, a) == 0.0
        assert mean_cross_distance(a, a) == 0.0

    def test_three_four_five(self):
        a = cloud([[0.0, 0.0]])
        b = cloud([[3.0, 4.0]])
        assert abs(centroid_distance(a, b) - 5.0) < 1e-12
        assert abs(mean_cross_distance(a, b) - 5.0) < 1e-12

    def test_centroid_cancels_symmetric_spread(self):
        a = cloud([[1.0, 0.0], [-1.0, 0.0]])
        b = cloud([[0.0, 2.0], [0.0, -2.0]])
        assert centroid_distance(a, b) == 0.0
        # cross pairs all have length sqrt(1 + 4)
        assert abs(mean_cross_distance(a, b) - math.sqrt(5.0)) < 1e-12

    def test_mean_cross_never_below_centroid(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            a = cloud(rng.normal(0, 1, (7, 5)))
            b = cloud(rng.normal(0.5, 2, (9, 5)))
            assert mean_cross_distance(a, b) >= centroid_distance(a, b) - 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(91)
        pa = rng.normal(0, 1, (6, 4))
        pb = rng.normal(1, 1, (8, 4))
        shift = rng.normal(0, 10, 4)
        d1 = mean_cross_distance(cloud(pa), cloud(pb))
        d2 = mean_cross_distance(cloud(pa + shift), cloud(pb + shift))
        assert abs(d1 - d2) < 1e-9
        c1 = centroid_distance(cloud(pa), cloud(pb))
        c2 = centroid_distance(cloud(pa + shift), cloud(pb + shift))
        assert abs(c1 - c2) < 1e-9

    def test_clouds_of_different_sizes(self):
        a, b = cloud([[0.0, 0.0], [1.0, 1.0]]), cloud([[3.0, 4.0]])
        assert len(a) == 2 and len(b) == 1
        assert mean_cross_distance(a, b) >= centroid_distance(a, b)


class TestProject2d:
    def test_recovers_planted_two_dim_structure(self):
        rng = np.random.default_rng(92)
        n, d = 200, 12
        basis = np.linalg.qr(rng.normal(0, 1, (d, 2)))[0]
        latent = rng.normal(0, 1, (n, 2)) * np.array([5.0, 2.0])
        x = latent @ basis.T
        _, variance = project_2d(x)
        # the planted plane carries all variance; the projection must keep it
        total = x.var(axis=0, ddof=1).sum()
        assert variance.sum() == pytest.approx(total, rel=1e-6)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(93)
        x = rng.normal(0, 1, (60, 7)) @ np.diag([4.0, 3.0, 1.0, 0.5, 0.2, 0.1, 0.05])
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
        evals, evecs = np.linalg.eigh(cov)
        top = evecs[:, ::-1][:, :2]
        want = np.abs(centered @ top)
        coords, variance = project_2d(x)
        np.testing.assert_allclose(np.abs(coords), want, atol=1e-6)
        np.testing.assert_allclose(variance, evals[::-1][:2], rtol=1e-8)

    def test_variance_sorted_descending(self):
        rng = np.random.default_rng(94)
        x = rng.normal(0, 1, (50, 5))
        _, variance = project_2d(x)
        assert variance[0] >= variance[1]

    def test_rank_one_cloud_second_component_vanishes(self):
        rng = np.random.default_rng(95)
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        x = np.outer(rng.normal(0, 3, 40), direction)
        _, variance = project_2d(x)
        assert variance[1] < 1e-9
        assert variance[0] > 1.0

    def test_constant_cloud_reports_zero(self):
        x = np.ones((5, 3)) * 2.5
        coords, variance = project_2d(x)
        np.testing.assert_array_equal(coords, np.zeros((5, 2)))
        np.testing.assert_array_equal(variance, np.zeros(2))

    def test_deterministic(self):
        rng = np.random.default_rng(96)
        x = rng.normal(0, 1, (30, 6))
        a, _ = project_2d(x)
        b, _ = project_2d(x)
        np.testing.assert_array_equal(a, b)


class TestCollectClouds:
    def _gen(self):
        return GeneratorParams.create(4, 3, 5, 1, np.random.default_rng(97))

    def test_shapes_and_modes(self):
        g = self._gen()
        y = np.random.default_rng(98).integers(0, 4, (6, 7))
        tf, fr = collect_state_clouds(g, y, timestep=3, rng=np.random.default_rng(99))
        assert tf.shape == (6, 5) and fr.shape == (6, 5)
        # teacher forced first: its states are those of the given sequences
        want = unroll_teacher_forced(g, y[:, :3]).hidden[-1]
        np.testing.assert_array_equal(tf, want)

    def test_default_timestep_is_last(self):
        g = self._gen()
        y = np.random.default_rng(100).integers(0, 4, (4, 5))
        a_tf, _ = collect_state_clouds(g, y, None, np.random.default_rng(101))
        b_tf, _ = collect_state_clouds(g, y, 5, np.random.default_rng(101))
        np.testing.assert_array_equal(a_tf, b_tf)

    def test_deterministic_given_rng(self):
        g = self._gen()
        y = np.random.default_rng(102).integers(0, 4, (4, 5))
        _, fr1 = collect_state_clouds(g, y, 2, np.random.default_rng(103))
        _, fr2 = collect_state_clouds(g, y, 2, np.random.default_rng(103))
        np.testing.assert_array_equal(fr1, fr2)


class TestLeanClouds:
    """``collect_state_clouds`` unrolls only to its timestep and keeps no
    per-step outputs, reading the last state a lean unroll exposes; the
    free-running uniforms are drawn up front in step order, so the clouds
    keep the full unroll's bits."""

    @staticmethod
    def _gen(layers, hidden=32):
        g = GeneratorParams.create(8, 16, hidden, layers, np.random.default_rng(105 + layers))
        brng = np.random.default_rng(106)
        for t in [c.b for c in g.cells] + [g.b_o]:
            t[:] = brng.uniform(-1, 1, t.shape)
        return g

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("temperature", [1.0, 0.8])
    def test_clouds_are_the_full_unrolls_states(self, layers, temperature):
        g, t_len, n = self._gen(layers), 50, 16
        y = np.random.default_rng(107).integers(0, 8, (n, t_len))
        full_tf = teacher_forced_node(g, y).hidden
        full_fr = free_running_node(g, t_len, np.random.default_rng(108), batch=n,
                                    temperature=temperature).hidden
        lean = unroll_free_running(g, t_len, np.random.default_rng(108), batch=n,
                                   temperature=temperature)
        assert lean.logits is lean.behavior is None
        np.testing.assert_array_equal(lean.hidden, full_fr[-1:])
        for timestep in (None, 1, 7, 50):
            tf, fr = collect_state_clouds(g, y, timestep, np.random.default_rng(108),
                                          temperature=temperature)
            t = t_len if timestep is None else timestep
            np.testing.assert_array_equal(tf, full_tf[t - 1])
            np.testing.assert_array_equal(fr, full_fr[t - 1])

    def test_peak_does_not_grow_with_the_length_as_a_full_unroll_does(self):
        # a full unroll is a taped one, the only kind that keeps every step
        g = self._gen(1, hidden=64)   # desk size

        def peak(f):
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def full(y):
            teacher_forced_node(g, y)
            free_running_node(g, y.shape[1], np.random.default_rng(109), batch=len(y))

        peaks = {}
        for t_len in (50, 400):
            y = np.random.default_rng(110).integers(0, 8, (32, t_len))
            peaks[t_len] = [peak(lambda: collect_state_clouds(g, y, timestep,
                                                              np.random.default_rng(109)))
                            for timestep in (10, None)] + [peak(lambda: full(y))]
        (at_10, last, whole), (at_10_long, last_long, whole_long) = peaks[50], peaks[400]
        # a fixed timestep costs the same at any length (measured within 128 B);
        # the last one grows with the ids and targeted logits alone (0.08x measured)
        assert abs(at_10_long - at_10) <= 4096, peaks
        assert last_long - last <= 0.1 * (whole_long - whole), peaks


class TestCsvOutput:
    def test_cloud_csv_layout(self, tmp_path):
        a = cloud([[1.0, 2.0], [3.0, 4.0]])
        b = cloud([[5.0, 6.0]])
        path = tmp_path / "clouds.csv"
        write_cloud_csv((a, b), timestep=7, path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mode,t,index,h0,h1"
        assert lines[1] == "teacher_forced,7,0,1.0,2.0"
        assert lines[3] == "free_running,7,0,5.0,6.0"

    def test_projection_csv(self, tmp_path):
        rng = np.random.default_rng(105)
        a = rng.normal(0, 1, (10, 4))
        b = rng.normal(3, 1, (10, 4))
        path = tmp_path / "proj.csv"
        coords, _ = write_projection_csv((a, b), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mode,x,y"
        assert len(lines) == 21
        assert sum(l.startswith("teacher_forced") for l in lines[1:]) == 10
        assert sum(l.startswith("free_running") for l in lines[1:]) == 10
        # rows carry the same coordinates the projection reported
        first = lines[1].split(",")
        assert float(first[1]) == coords[0, 0]
        assert float(first[2]) == coords[0, 1]
