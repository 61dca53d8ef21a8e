"""Reverse-mode autodiff tests: worked examples, gradient checks, invariants."""

import gc
import math

import numpy as np
import pytest

from kgt5lab.autodiff import (DetachedRootError, NotScalarRootError,
                              ShapeMismatchError, Tape, TargetOutOfRangeError,
                              Tensor, add, attention_core, backward,
                              concat_rows, cosine_similarity,
                              cross_entropy_mean, dropout, gather_rows, gelu,
                              grad_check, matmul, mul, reduce_mean, reduce_sum,
                              reshape, rms_norm, scalar_mul, softmax_lastdim,
                              sub, transpose)
from kgt5lab.embeddings import ZeroVectorError


def triple_loop_matmul(a, b):
    """Independent matmul oracle."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_example_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got, triple_loop_matmul(a, b))
        assert np.array_equal(got, [[17.0], [39.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward_formulas(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(matmul(a, b))
        backward(tape, y)
        g = np.ones((3, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestSoftmax:
    def test_symmetry(self):
        y = softmax_lastdim(Tensor([0.0, 0.0])).data
        assert np.allclose(y, [0.5, 0.5], atol=1e-12)

    def test_no_overflow_on_large_inputs(self):
        y = softmax_lastdim(Tensor([1000.0, 1000.0])).data
        assert np.allclose(y, [0.5, 0.5], atol=1e-12)
        assert np.all(np.isfinite(y))

    def test_closed_form_quarter(self):
        y = softmax_lastdim(Tensor([0.0, math.log(3.0)])).data
        assert np.allclose(y, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(scale=5.0, size=(6, 9)))
        y = softmax_lastdim(x).data
        assert np.all(y > 0)
        assert np.all(np.abs(np.sum(y, axis=-1) - 1.0) < 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 7))
        a = softmax_lastdim(Tensor(x)).data
        b = softmax_lastdim(Tensor(x + 123.456)).data
        assert np.all(np.abs(a - b) < 1e-12)


class TestCrossEntropyMean:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 8)))
        loss = cross_entropy_mean(logits, [0, 3, 7])
        assert loss.item() == pytest.approx(math.log(8.0), abs=1e-12)

    def test_near_delta(self):
        row = np.zeros((1, 5))
        row[0, 2] = 30.0
        loss = cross_entropy_mean(Tensor(row), [2])
        assert loss.item() < 1e-12

    def test_closed_form_two_class(self):
        loss = cross_entropy_mean(Tensor([[1.0, 2.0]]), [1])
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.31326169, abs=1e-8)

    def test_ignored_positions_contribute_nothing(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 6))
        full = cross_entropy_mean(Tensor(logits), [1, 2, 3, 0])
        partial = cross_entropy_mean(Tensor(logits[:3]), [1, 2, 3])
        masked = cross_entropy_mean(Tensor(logits), [1, 2, 3, -1], ignore_id=-1)
        assert masked.item() == pytest.approx(partial.item(), rel=1e-15)
        assert masked.item() != pytest.approx(full.item())

    def test_all_ignored_returns_zero_without_grad(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy_mean(x, [-1, -1], ignore_id=-1)
        assert loss.item() == 0.0
        assert loss.node is None

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRangeError):
            cross_entropy_mean(Tensor(np.zeros((1, 4))), [4])


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(x)
        backward(tape, y)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_mean_of_square_gradient(self):
        # d/dx mean(x*x) = 2x/n, checked against hand values
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = reduce_mean(mul(x, x))
        backward(tape, y)
        assert np.allclose(x.grad, [2.0 / 3.0, 4.0 / 3.0, 2.0], atol=1e-15)
        err = grad_check(lambda t: reduce_mean(mul(t, t)),
                         Tensor([1.0, 2.0, 3.0]))
        assert err < 1e-9

    def test_non_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
        with pytest.raises(NotScalarRootError):
            backward(tape, y)

    def test_detached_root(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            _ = reduce_sum(x)
        other = Tensor(0.0)
        with pytest.raises(DetachedRootError):
            backward(tape, other)
        with Tape() as t2:
            y2 = reduce_sum(x)
        with pytest.raises(DetachedRootError):
            backward(tape, y2)

    def test_recorded_graph_has_no_reference_cycles(self):
        # a dropped step graph is freed by reference counting alone
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

        def step():
            with Tape() as tape:
                h = gelu(matmul(Tensor(np.ones((4, 2))), w))
                y = reduce_mean(mul(h, h))
            backward(tape, y)

        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert w.grad is not None

    def test_fanout_accumulates_by_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(add(x, x))
        backward(tape, y)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_nonparticipating_leaf_gets_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor([5.0, 5.0], requires_grad=True)
        with Tape() as tape:
            _dead = reduce_sum(z)
            y = reduce_sum(x)
        backward(tape, y)
        assert np.array_equal(z.grad, [0.0, 0.0])

    def test_bit_identical_across_rebuilds(self):
        def build():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            with Tape() as tape:
                y = reduce_mean(gelu(matmul(x, w)))
            backward(tape, y)
            return x.grad.copy(), w.grad.copy()
        gx1, gw1 = build()
        gx2, gw2 = build()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.5, np.random.default_rng(0), train=False) is x

    def test_train_mode_expectation_monte_carlo(self):
        # inverted scaling: E[output] == input within 1%, over 1e5 mask rows
        rng = np.random.default_rng(11)
        n, width = 100_000, 8
        x = Tensor(np.full((n, width), 2.0))
        out = dropout(x, 0.3, rng, train=True).data
        mean = out.mean(axis=0)
        assert np.all(np.abs(mean - 2.0) / 2.0 < 0.01)

    def test_zero_rate_identity(self):
        x = Tensor([3.0])
        assert dropout(x, 0.0, np.random.default_rng(0), train=True) is x


class TestRmsNorm:
    def test_unit_rms_before_gain(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 8)))
        gain = Tensor(np.ones(8))
        y = rms_norm(x, gain).data
        rms = np.sqrt(np.mean(y * y, axis=-1))
        assert np.all(np.abs(rms - 1.0) < 1e-9)

    def test_gain_scales_output(self):
        x = Tensor(np.ones((1, 4)))
        gain = Tensor([2.0, 2.0, 2.0, 2.0])
        y = rms_norm(x, gain).data
        assert np.allclose(y, 2.0)


class TestCosineSimilarityOp:
    def test_forward_delegates_to_primitive(self):
        from kgt5lab.embeddings import cosine_sim
        v = np.array([1.0, 2.0, 3.0])
        e = np.array([4.0, 5.0, 6.0])
        assert cosine_similarity(Tensor(v), Tensor(e)).item() == cosine_sim(v, e)

    def test_zero_vector_propagates(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def seeded_points(shape, n=10, scale=1.0, offset=0.0, seed=100):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) * scale + offset for _ in range(n)]


class TestGradChecksAllPrimitives:
    """Every differentiable primitive at 10 seeded random points, h=1e-5,
    max relative error < 1e-5 (the spec's primitive-level gate)."""

    THRESH = 1e-5

    def check(self, f, points):
        for p in points:
            err = grad_check(f, Tensor(np.asarray(p)))
            assert err < self.THRESH, err

    def test_add(self):
        other = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        self.check(lambda x: reduce_mean(add(x, other)), seeded_points((3, 4)))

    def test_sub(self):
        other = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        self.check(lambda x: reduce_mean(sub(x, other)), seeded_points((3, 4)))
        self.check(lambda x: reduce_mean(sub(other, x)), seeded_points((3, 4)))

    def test_mul(self):
        other = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
        self.check(lambda x: reduce_mean(mul(x, other)), seeded_points((3, 4)))

    def test_scalar_mul(self):
        self.check(lambda x: reduce_mean(scalar_mul(x, -2.5)), seeded_points((3, 4)))

    def test_matmul_both_sides(self):
        other = Tensor(np.linspace(-1, 1, 8).reshape(4, 2))
        self.check(lambda x: reduce_mean(matmul(x, other)), seeded_points((3, 4)))
        other_l = Tensor(np.linspace(-1, 1, 8).reshape(2, 4))
        self.check(lambda x: reduce_mean(matmul(other_l, x)), seeded_points((4, 3)))

    def test_transpose(self):
        self.check(lambda x: reduce_mean(mul(transpose(x), transpose(x))),
                   seeded_points((3, 5)))

    def test_reshape(self):
        self.check(lambda x: reduce_mean(mul(reshape(x, (2, 6)), reshape(x, (2, 6)))),
                   seeded_points((3, 4)))

    def test_gather_rows(self):
        ids = [0, 2, 2, 1]
        self.check(lambda x: reduce_mean(mul(gather_rows(x, ids), gather_rows(x, ids))),
                   seeded_points((4, 3)))

    def test_concat_rows(self):
        other = Tensor(np.linspace(-1, 1, 6).reshape(2, 3))
        self.check(lambda x: reduce_mean(mul(concat_rows([x, other]),
                                             concat_rows([x, other]))),
                   seeded_points((3, 3)))

    def test_softmax(self):
        self.check(lambda x: reduce_mean(mul(softmax_lastdim(x), softmax_lastdim(x))),
                   seeded_points((3, 6)))

    def test_rms_norm_x_and_gain(self):
        gain = Tensor(np.linspace(0.5, 1.5, 6))
        self.check(lambda x: reduce_mean(rms_norm(x, gain)),
                   seeded_points((4, 6), offset=0.5))
        x0 = Tensor(np.linspace(-1.0, 1.3, 24).reshape(4, 6))
        self.check(lambda g: reduce_mean(rms_norm(x0, g)), seeded_points((6,)))

    def test_gelu(self):
        self.check(lambda x: reduce_mean(gelu(x)), seeded_points((3, 4), scale=2.0))

    def test_gelu_at_zero_is_smooth(self):
        err = grad_check(lambda x: reduce_mean(gelu(x)), Tensor(np.zeros((2, 2))))
        assert err < 1e-4

    def test_cross_entropy(self):
        self.check(lambda x: cross_entropy_mean(x, [1, 0, 3]),
                   seeded_points((3, 4), scale=2.0))

    def test_cosine_similarity(self):
        other = Tensor(np.array([0.3, -1.2, 0.8, 2.0]))
        self.check(lambda x: cosine_similarity(x, other), seeded_points((4,)))
        self.check(lambda x: cosine_similarity(other, x), seeded_points((4,), seed=101))

    def test_reduce_mean(self):
        self.check(lambda x: reduce_mean(x), seeded_points((3, 4)))

    def test_reduce_sum(self):
        self.check(lambda x: reduce_sum(x), seeded_points((3, 4)))

    def test_dropout_fixed_mask(self):
        # a fixed seed gives the same mask on every call, so the op is
        # differentiable; dropout stays off in every other gradient check
        def f(x):
            return reduce_mean(dropout(x, 0.4, np.random.default_rng(5), train=True))
        self.check(f, seeded_points((4, 4)))

    def test_attention_core(self):
        rng = np.random.default_rng(55)
        kv = Tensor(rng.normal(size=(5, 8)))
        idx = np.full((5, 5), -1, dtype=np.int64)
        idx[:3, :3] = rng.integers(0, 9, size=(3, 3))
        mask = np.triu(np.full((5, 5), -1e30), k=1)
        table = Tensor(rng.normal(size=(2, 9)))

        def f_q(x):
            out = attention_core(x, kv, kv, 2, table, idx, mask)
            return reduce_mean(mul(out, out))
        self.check(f_q, seeded_points((5, 8)))

        q0 = Tensor(rng.normal(size=(5, 8)))

        def f_kv(x):
            out = attention_core(q0, x, x, 2, table, idx, mask)
            return reduce_mean(mul(out, out))
        self.check(f_kv, seeded_points((5, 8), seed=102))

        kv0 = Tensor(rng.normal(size=(5, 8)))

        def f_table(x):
            out = attention_core(q0, kv0, kv0, 2, x, idx, mask)
            return reduce_mean(mul(out, out))
        self.check(f_table, seeded_points((2, 9), seed=103))


class TestGradCheckItself:
    def test_linear_function_near_exact(self):
        err = grad_check(lambda x: reduce_sum(x), Tensor(np.ones((3, 3))))
        assert err < 1e-10
