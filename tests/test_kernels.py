import numpy as np
import pytest

from vlprep.errors import NumericDomainError, ShapeError
from vlprep.kernels import (
    FeatureGrid,
    HiddenStateStack,
    distill_loss,
    pixel_shuffle,
    pixel_unshuffle,
    self_check,
)


def unshuffle_oracle(data: np.ndarray, factor: int) -> np.ndarray:
    """Element-by-element index-formula oracle, no vectorized shortcuts."""
    h, w, c = data.shape
    out = np.zeros((h // factor, w // factor, factor * factor * c))
    for r in range(h // factor):
        for col in range(w // factor):
            for dy in range(factor):
                for dx in range(factor):
                    for ch in range(c):
                        out[r, col, (dy * factor + dx) * c + ch] = data[
                            r * factor + dy, col * factor + dx, ch
                        ]
    return out


class TestPixelUnshuffle:
    def test_single_block(self):
        grid = FeatureGrid(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
        out = pixel_unshuffle(grid, 2)
        assert out.shape == (1, 1, 4)
        assert out.data.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_token_reduction_quarter(self):
        rng = np.random.default_rng(0)
        grid = FeatureGrid(rng.standard_normal((32, 32, 16)))
        out = pixel_unshuffle(grid, 2)
        assert out.shape == (16, 16, 64)
        assert 32 * 32 == 1024 and 16 * 16 == 256

    def test_matches_index_formula_oracle(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 4, 2))
        out = pixel_unshuffle(FeatureGrid(data), 2)
        assert np.array_equal(out.data, unshuffle_oracle(data, 2))

    def test_matches_oracle_factor_three(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((6, 9, 3))
        out = pixel_unshuffle(FeatureGrid(data), 3)
        assert np.array_equal(out.data, unshuffle_oracle(data, 3))

    def test_bijection_multiset(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((8, 8, 5))
        out = pixel_unshuffle(FeatureGrid(data), 2)
        assert np.array_equal(np.sort(out.data, axis=None), np.sort(data, axis=None))

    def test_shuffle_inverts_unshuffle(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((10, 6, 7))
        back = pixel_shuffle(pixel_unshuffle(FeatureGrid(data), 2), 2)
        assert np.array_equal(back.data, data)

    def test_indivisible_dims_error(self):
        with pytest.raises(ShapeError):
            pixel_unshuffle(FeatureGrid(np.zeros((3, 4, 1))), 2)
        with pytest.raises(ShapeError):
            pixel_shuffle(FeatureGrid(np.zeros((2, 2, 3))), 2)

    def test_factor_one_identity(self):
        data = np.arange(12.0).reshape(2, 2, 3)
        assert np.array_equal(pixel_unshuffle(FeatureGrid(data), 1).data, data)

    def test_grid_must_be_3d(self):
        with pytest.raises(ShapeError):
            FeatureGrid(np.zeros((4, 4)))


class TestDistillLoss:
    def test_identical_stacks_exact_minus_one(self):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((3, 5, 7))
        loss, grad = distill_loss(HiddenStateStack(states), HiddenStateStack(states.copy()))
        assert loss == -1.0
        assert not grad.any()

    def test_orthogonal_vectors_zero_loss(self):
        student = np.zeros((1, 2, 2))
        teacher = np.zeros((1, 2, 2))
        student[0, :, 0] = 1.0
        teacher[0, :, 1] = 1.0
        loss, _ = distill_loss(HiddenStateStack(student), HiddenStateStack(teacher))
        assert loss == 0.0

    def test_opposite_vectors_plus_one(self):
        rng = np.random.default_rng(6)
        states = rng.standard_normal((2, 3, 4))
        loss, _ = distill_loss(HiddenStateStack(-states), HiddenStateStack(states))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_value_symmetry(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((2, 4, 3))
        t = rng.standard_normal((2, 4, 3))
        loss_st, _ = distill_loss(HiddenStateStack(s), HiddenStateStack(t))
        loss_ts, _ = distill_loss(HiddenStateStack(t), HiddenStateStack(s))
        assert loss_st == pytest.approx(loss_ts, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((2, 3, 5))
        t = rng.standard_normal((2, 3, 5))
        base, _ = distill_loss(HiddenStateStack(s), HiddenStateStack(t))
        scaled = s.copy()
        scaled[1, 2] *= 37.5  # scale one vector
        value, _ = distill_loss(HiddenStateStack(scaled), HiddenStateStack(t))
        assert value == pytest.approx(base, abs=1e-12)

    def test_loss_within_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.standard_normal((2, 3, 4))
            t = rng.standard_normal((2, 3, 4))
            loss, _ = distill_loss(HiddenStateStack(s), HiddenStateStack(t))
            assert -1.0 <= loss <= 1.0

    def test_gradient_matches_central_differences(self):
        # Unit-scaled random stacks, step 1e-4, relative tolerance 1e-5.
        rng = np.random.default_rng(10)
        step = 1e-4
        for _ in range(100):
            s = rng.standard_normal((2, 3, 4))
            t = rng.standard_normal((2, 3, 4))
            _, analytic = distill_loss(HiddenStateStack(s), HiddenStateStack(t))
            numeric = np.zeros_like(s)
            it = np.nditer(s, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                bumped = s.copy()
                bumped[idx] += step
                hi, _ = distill_loss(HiddenStateStack(bumped), HiddenStateStack(t))
                bumped[idx] -= 2 * step
                lo, _ = distill_loss(HiddenStateStack(bumped), HiddenStateStack(t))
                numeric[idx] = (hi - lo) / (2 * step)
                it.iternext()
            scale = max(float(np.abs(numeric).max()), 1e-12)
            assert float(np.abs(analytic - numeric).max()) / scale < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distill_loss(HiddenStateStack(np.ones((1, 2, 3))), HiddenStateStack(np.ones((1, 2, 4))))

    def test_zero_norm_names_layer_and_token(self):
        s = np.ones((2, 3, 4))
        s[1, 2] = 0.0
        with pytest.raises(NumericDomainError) as err:
            distill_loss(HiddenStateStack(s), HiddenStateStack(np.ones((2, 3, 4))))
        assert "layer 1" in str(err.value) and "token 2" in str(err.value)

    def test_zero_norm_teacher(self):
        t = np.ones((1, 2, 2))
        t[0, 0] = 0.0
        with pytest.raises(NumericDomainError):
            distill_loss(HiddenStateStack(np.ones((1, 2, 2))), HiddenStateStack(t))

    def test_stack_must_be_3d_nonempty(self):
        with pytest.raises(ShapeError):
            HiddenStateStack(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            HiddenStateStack(np.ones((0, 3, 4)))


def test_self_check_all_green():
    results = self_check(seed=123, gradient_trials=2)
    assert results and all(r.passed for r in results)
    names = [r.name for r in results]
    assert "self_distillation_exact" in names
