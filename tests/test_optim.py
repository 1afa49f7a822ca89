import numpy as np
import pytest

from vqlab.optim import Adam, Loss, MAE, MSE, Sgd, loss_and_grad, make_optimizer


class TestSgd:
    def test_zero_gradient_is_identity(self):
        out = Sgd(0.3).step(np.array([1.0, 2.0]), np.zeros(2))
        assert np.array_equal(out, [1.0, 2.0])

    def test_arithmetic(self):
        out = Sgd(0.5).step(np.array([1.0]), np.array([2.0]))
        assert np.array_equal(out, [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Sgd(0.1).step(np.zeros(2), np.zeros(3))

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Sgd(0.0)

    def test_descends_a_quadratic(self):
        params = np.array([3.0, -2.0])
        loss = lambda p: float(np.sum(p ** 2))
        out = Sgd(0.01).step(params, 2 * params)
        assert loss(out) < loss(params)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) at t=1
        params = np.array([0.0, 0.0])
        grads = np.array([0.5, -2.0])
        opt = Adam(0.01)
        out = opt.step(params, grads)
        assert opt.t == 1
        assert np.allclose(out, -0.01 * np.sign(grads), rtol=1e-6)

    def test_zero_gradients_forever(self):
        params = np.array([1.0, -1.0])
        opt = Adam(0.1)
        for _ in range(5):
            params = opt.step(params, np.zeros(2))
        assert np.array_equal(params, [1.0, -1.0])

    def test_state_length_checked(self):
        opt = Adam(0.1)
        opt.step(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            opt.step(np.zeros(2), np.zeros(2))

    def test_wrapper_carries_state(self):
        opt = Adam(lr=0.01)
        params = np.zeros(1)
        for _ in range(3):
            params = opt.step(params, np.ones(1))
        assert opt.t == 3


class TestLosses:
    def test_mse_value(self):
        value, _ = loss_and_grad(MSE, np.array([1.0, 2.0]),
                                 np.array([1.0, 0.0]))
        assert value == 2.0

    def test_perfect_prediction(self):
        pred = np.array([0.5, -0.5])
        for loss in (MSE, MAE, Loss("huber", 1.0)):
            value, grad = loss_and_grad(loss, pred, pred)
            assert value == 0.0
            assert np.array_equal(grad, np.zeros(2))

    def test_huber_quadratic_zone(self):
        value, _ = loss_and_grad(Loss("huber", 1.0), np.array([0.5]),
                                 np.array([0.0]))
        assert value == pytest.approx(0.125)

    def test_huber_linear_zone(self):
        value, grad = loss_and_grad(Loss("huber", 1.0), np.array([3.0]),
                                    np.array([0.0]))
        assert value == pytest.approx(1.0 * (3.0 - 0.5))
        assert grad[0] == pytest.approx(1.0)

    def test_losses_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.normal(size=4)
            target = rng.normal(size=4)
            for loss in (MSE, MAE, Loss("huber", 0.7)):
                value, _ = loss_and_grad(loss, pred, target)
                assert value >= 0.0

    @pytest.mark.parametrize("loss", [MSE, MAE, Loss("huber", 0.5)])
    def test_gradients_match_finite_differences(self, loss):
        rng = np.random.default_rng(1)
        h = 1e-7
        for _ in range(20):
            pred = rng.normal(size=5)
            target = rng.normal(size=5)
            # stay away from MAE/Huber kinks
            if loss.kind != "mse":
                near = np.abs(np.abs(pred - target) - (loss.delta
                              if loss.kind == "huber" else 0.0)) < 1e-3
                if loss.kind == "huber" and np.any(near):
                    continue
                if loss.kind == "mae" and np.any(np.abs(pred - target) < 1e-3):
                    continue
            _, grad = loss_and_grad(loss, pred, target)
            for k in range(5):
                bumped = pred.copy()
                bumped[k] += h
                up, _ = loss_and_grad(loss, bumped, target)
                bumped[k] -= 2 * h
                down, _ = loss_and_grad(loss, bumped, target)
                assert abs((up - down) / (2 * h) - grad[k]) <= 1e-6

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_and_grad(MSE, np.array([]), np.array([]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Loss("logcosh")
        with pytest.raises(ValueError):
            Loss("huber", 0.0)


def test_make_optimizer():
    assert isinstance(make_optimizer("adam", 0.01), Adam)
    assert isinstance(make_optimizer("sgd", 0.1), Sgd)
    with pytest.raises(ValueError):
        make_optimizer("lbfgs", 0.1)
