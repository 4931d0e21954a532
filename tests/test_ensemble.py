import numpy as np
import pytest

from reidkit.errors import DataError, FormatError
from reidkit.ensemble import (
    EmaState,
    consistency_loss_grad,
    ema_update,
    load_ema_state,
    save_ema_state,
)


class TestEmaUpdate:
    def test_single_element(self):
        state = EmaState({"w": np.array([1.0])}, alpha=0.9)
        new = ema_update(state, {"w": np.array([0.0])})
        assert new.tensors["w"][0] == pytest.approx(0.9)
        assert new.step == 1

    def test_geometric_closed_form(self, rng):
        t0 = rng.standard_normal((3, 4))
        s = rng.standard_normal((3, 4))
        alpha = 0.5
        state = EmaState({"w": t0}, alpha=alpha)
        for _ in range(10):
            state = ema_update(state, {"w": s})
        expected = s + alpha**10 * (t0 - s)
        np.testing.assert_allclose(state.tensors["w"], expected, atol=1e-12)

    def test_error_halves_each_step(self):
        # dyadic alpha keeps this exact
        state = EmaState({"w": np.array([1.0])}, alpha=0.5)
        s = {"w": np.array([0.0])}
        err = 1.0
        for _ in range(20):
            state = ema_update(state, s)
            err /= 2
            assert abs(state.tensors["w"][0] - err) <= 1e-12

    def test_missing_tensor_name(self):
        state = EmaState({"w": np.zeros(2), "b": np.zeros(1)})
        with pytest.raises(DataError, match="name"):
            ema_update(state, {"w": np.zeros(2)})

    def test_shape_mismatch_names_tensor(self):
        state = EmaState({"w": np.zeros((2, 2))})
        with pytest.raises(DataError, match="'w'"):
            ema_update(state, {"w": np.zeros(3)})

    def test_fixed_point(self, rng):
        t = rng.standard_normal(5)
        state = EmaState({"w": t}, alpha=0.9)
        new = ema_update(state, {"w": t})
        np.testing.assert_allclose(new.tensors["w"], t, atol=1e-15)

    def test_warmup_first_step_copies_student(self, rng):
        t0 = rng.standard_normal(4)
        s = rng.standard_normal(4)
        state = EmaState({"w": t0}, alpha=0.999, warmup=True)
        new = ema_update(state, {"w": s})
        # effective alpha at step 0 is min(0.999, 0) = 0
        np.testing.assert_allclose(new.tensors["w"], s, atol=1e-15)

    def test_bad_alpha(self):
        with pytest.raises(DataError):
            EmaState({"w": np.zeros(1)}, alpha=1.0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"step": -1}, "step"),
            ({"step": 2.5}, "step"),
            ({"step": True}, "step"),
            ({"warmup": "yes"}, "warmup"),
            ({"warmup": 1}, "warmup"),
            ({"tensors": {"../../escaped": np.zeros(1)}}, "tensor name"),
            ({"tensors": {"a/b": np.zeros(1)}}, "tensor name"),
            ({"tensors": {"..": np.zeros(1)}}, "tensor name"),
            ({"tensors": {"": np.zeros(1)}}, "tensor name"),
        ],
        ids=["negative_step", "fractional_step", "bool_step", "string_warmup", "int_warmup",
             "escaping_name", "nested_name", "parent_name", "empty_name"],
    )
    def test_bad_state_fields_rejected(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            EmaState(**{"tensors": {"w": np.zeros(1)}, **kwargs})


class TestConsistencyLoss:
    def test_identical_zero(self, rng):
        x = rng.standard_normal((3, 4))
        loss, grad = consistency_loss_grad(x, x)
        assert loss == 0.0
        assert (grad == 0).all()

    def test_forced_arithmetic(self):
        loss, grad = consistency_loss_grad(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [[-1.0, -1.0]])

    def test_gradient_matches_finite_differences(self, rng):
        t = rng.standard_normal((4, 3))
        s = rng.standard_normal((4, 3))
        loss, grad = consistency_loss_grad(t, s)
        h = 1e-6
        fd = np.zeros_like(s)
        for i in range(4):
            for j in range(3):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += h
                sm[i, j] -= h
                fd[i, j] = (consistency_loss_grad(t, sp)[0] - consistency_loss_grad(t, sm)[0]) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-6

    def test_value_symmetric_gradient_one_sided(self, rng):
        t = rng.standard_normal((2, 2))
        s = rng.standard_normal((2, 2))
        l1, g1 = consistency_loss_grad(t, s)
        l2, g2 = consistency_loss_grad(s, t)
        assert l1 == pytest.approx(l2)
        np.testing.assert_allclose(g1, -g2)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            consistency_loss_grad(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        state = EmaState(
            {"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3)},
            alpha=0.75,
            step=5,
            warmup=True,
        )
        save_ema_state(state, tmp_path / "state")
        back = load_ema_state(tmp_path / "state")
        assert back.alpha == state.alpha
        assert back.step == 5
        assert back.warmup is True
        assert set(back.tensors) == {"w", "b"}
        assert back.tensors["w"].shape == (2, 3)
        np.testing.assert_allclose(
            back.tensors["w"], state.tensors["w"].astype(np.float32), atol=1e-7
        )

    def test_tensor_file_must_be_named_after_the_tensor(self, tmp_path):
        save_ema_state(EmaState({"w": np.ones(2)}), tmp_path / "state")
        manifest = tmp_path / "state" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"w.remb"', '"../w.remb"'))
        (tmp_path / "w.remb").write_bytes((tmp_path / "state" / "w.remb").read_bytes())
        with pytest.raises(FormatError, match=r"stored in '\.\./w\.remb', not w\.remb"):
            load_ema_state(tmp_path / "state")

    @pytest.mark.filterwarnings("error")
    def test_tensor_beyond_float32_named_without_a_numpy_warning(self, tmp_path):
        with pytest.raises(DataError, match=r"^non-finite value at \(0, 0\)$"):
            save_ema_state(EmaState({"w": np.array([1e300])}), tmp_path / "state")
