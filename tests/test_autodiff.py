"""Reverse-mode autodiff tests: worked examples, gradient checks, invariants."""

import gc
import math

import numpy as np
import pytest

from kgt5lab import autodiff
from kgt5lab.autodiff import (DetachedRootError, NotScalarRootError,
                              ShapeMismatchError, Tape,
                              TargetOutOfRangeError, Tensor, add,
                              attention_core, backward,
                              concat_rows, cosine_similarity,
                              cross_entropy_mean, dropout, gather_rows, gelu,
                              grad_check, matmul, mul, reduce_mean, reduce_sum,
                              reshape, rms_norm, scalar_mul, softmax_lastdim,
                              sub, transpose)
from kgt5lab.embeddings import ZeroVectorError, cosine_sim


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

    def test_weights_give_mean_of_example_means(self):
        # rows 0-1 are one example, rows 2-4 another (row 4 ignored)
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 6))
        tgt = [1, 2, 3, 0, -1]
        first = cross_entropy_mean(Tensor(logits[:2]), tgt[:2]).item()
        second = cross_entropy_mean(Tensor(logits[2:]), tgt[2:], ignore_id=-1).item()
        w = [0.25, 0.25, 0.25, 0.25, 0.25]
        got = cross_entropy_mean(Tensor(logits), tgt, ignore_id=-1, weights=w).item()
        assert got == pytest.approx((first + second) / 2, rel=1e-15)

    def test_weights_one_per_row(self):
        with pytest.raises(ShapeMismatchError):
            cross_entropy_mean(Tensor(np.zeros((2, 4))), [1, 2], weights=[1.0])


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

    def test_mask_is_one_draw_at_the_operand_shape(self):
        x = np.arange(1.0, 19.0).reshape(6, 3)
        want = x * ((np.random.default_rng(0).random((6, 3)) < 0.6) / 0.6)
        out = dropout(Tensor(x), 0.4, np.random.default_rng(0), True).data
        assert out.tobytes() == want.tobytes()

    def test_sites_draw_in_call_order(self):
        # a [3, 2] row site, then [1, 3, 3] attention probabilities, from one Generator
        rng = np.random.default_rng(5)
        rows = dropout(Tensor(np.ones((3, 2))), 0.5, rng, True).data
        q = Tensor(np.ones((3, 4)))
        probs_kept = attention_core(q, q, Tensor(np.eye(3, 4)), 1, p_drop=0.5, rng=rng,
                                    train=True).data[:, :3]
        u = np.random.default_rng(5).random(15)
        assert rows.tobytes() == ((u[:6] < 0.5) / 0.5).reshape(3, 2).tobytes()
        # equal scores: every probability is 1/3, and row i of the output holds
        # row i of the kept probabilities (v is the identity)
        assert np.array_equal(probs_kept, ((u[6:] < 0.5) / 0.5).reshape(3, 3) / 3)

    def test_rejects_rate_outside_unit_interval(self):
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError):
                dropout(Tensor(np.ones((2, 2))), p, np.random.default_rng(0), True)

    def test_draws_between_packed_examples_reach_nothing(self):
        # two examples of 2 and 3 rows under a block-diagonal causal mask:
        # keeping or dropping every off-block entry leaves output and
        # gradients byte-identical, since those probabilities are +0.0
        rows = [0, 2, 5]
        mask = np.full((5, 5), -1e30)
        for lo, hi in zip(rows, rows[1:]):
            mask[lo:hi, lo:hi] = np.triu(np.full((hi - lo, hi - lo), -1e30), k=1)
        u = np.random.default_rng(3).random((2, 5, 5))

        class Draws:
            def __init__(self, off_block):
                self.u = np.where(mask == 0, u, off_block)

            def random(self, shape):
                assert shape == self.u.shape
                return self.u.copy()

        g = np.random.default_rng(4).normal(size=(5, 8))
        results = []
        for off_block in (0.0, 0.99):  # keep, drop
            q, k, v = (Tensor(a, requires_grad=True)
                       for a in np.random.default_rng(5).normal(size=(3, 5, 8)))
            with Tape() as tape:
                out = attention_core(q, k, v, 2, None, None, mask, 0.5, Draws(off_block), True)
                root = reduce_sum(mul(out, Tensor(g)))
            backward(tape, root)
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v)])
        assert results[0] == results[1]


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

    def test_row_wise_matches_one_pair_at_a_time(self):
        rng = np.random.default_rng(9)
        v, e = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        rows = cosine_similarity(Tensor(v), Tensor(e)).data
        assert rows.shape == (5,)
        for i in range(5):
            assert rows[i] == pytest.approx(cosine_sim(v[i], e[i]), rel=1e-15, abs=1e-15)

    def test_row_wise_zero_row_raises(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            cosine_similarity(Tensor(v), Tensor(np.ones((2, 2))))


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

    def test_row_wise_cosine_similarity(self):
        other = Tensor(np.linspace(-1.0, 1.5, 12).reshape(3, 4))
        w = Tensor(np.array([0.5, -2.0, 1.0]))
        self.check(lambda x: reduce_sum(mul(cosine_similarity(x, other), w)),
                   seeded_points((3, 4)))
        self.check(lambda x: reduce_sum(mul(cosine_similarity(other, x), w)),
                   seeded_points((3, 4), seed=102))

    def test_weighted_cross_entropy(self):
        self.check(lambda x: cross_entropy_mean(x, [1, 0, 3], weights=[0.5, 0.2, 0.3]),
                   seeded_points((3, 4), scale=2.0))

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


def reference_attention_core(q, k, v, n_heads, table, idx, mask, p_drop, rng,
                             train, g):
    """The earlier attention_core in plain numpy (np.max/np.sum wrappers, a
    validity mask and clipped index rebuilt per call, contiguous head
    merges): its output and, for upstream gradient ``g``, the gradients of
    q, k, v and the bias table."""
    lq, d = q.shape
    lk = k.shape[0]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    qh = np.ascontiguousarray(q.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    vh = np.ascontiguousarray(v.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= scale
    valid = idx >= 0
    gathered = table[:, np.maximum(idx, 0)]
    if not valid.all():
        gathered *= valid
    scores += gathered
    if mask is not None:
        scores += mask
    scores -= np.max(scores, axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    dmask = (rng.random(probs.shape) < 1.0 - p_drop) / (1.0 - p_drop) if train else None
    probs_kept = probs if dmask is None else probs * dmask
    out = np.ascontiguousarray((probs_kept @ vh).transpose(1, 0, 2)).reshape(lq, d)

    g_h = np.ascontiguousarray(g.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    d_probs = g_h @ vh.transpose(0, 2, 1)
    dv = np.ascontiguousarray((probs_kept.transpose(0, 2, 1) @ g_h).transpose(1, 0, 2))
    if dmask is not None:
        d_probs *= dmask
    d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
    d_table = np.zeros_like(table)
    for h in range(n_heads):
        np.add.at(d_table[h], idx[valid], d_scores[h][valid])
    dq = np.ascontiguousarray(((d_scores @ kh) * scale).transpose(1, 0, 2))
    dk = np.ascontiguousarray(((d_scores.transpose(0, 2, 1) @ qh) * scale).transpose(1, 0, 2))
    return out, (dq.reshape(lq, d), dk.reshape(lk, d), dv.reshape(lk, d), d_table)


class TestAttentionCoreParity:
    """attention_core equals the earlier implementation byte for byte, in
    its output and every gradient."""

    def check(self, lq, lk, idx, mask, ref_mask=None, train=False):
        rng = np.random.default_rng(lq * 100 + lk)
        q, k, v = (rng.normal(size=(n, 8)) for n in (lq, lk, lk))
        table = rng.normal(size=(2, 9))
        g = rng.normal(size=(lq, 8))
        ref_out, ref_grads = reference_attention_core(
            q, k, v, 2, table, idx, mask if ref_mask is None else ref_mask,
            0.3, np.random.default_rng(7), train, g)
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v, table)]
        with Tape() as tape:
            out = attention_core(*leaves[:3], 2, leaves[3], idx, mask, 0.3,
                                 np.random.default_rng(7), train)
            root = reduce_sum(mul(out, Tensor(g)))
        backward(tape, root)
        assert out.data.tobytes() == ref_out.tobytes()
        for leaf, ref in zip(leaves, ref_grads):
            assert leaf.grad.tobytes() == ref.tobytes()

    def test_one_example_with_non_text_rows_and_causal_mask(self):
        idx = np.full((6, 6), -1, dtype=np.int64)
        pos = np.arange(4)
        idx[:4, :4] = pos[None, :] - pos[:, None] + 4
        self.check(6, 6, idx, np.triu(np.full((6, 6), -1e30), k=1))

    def test_masked_key_row_equals_the_full_mask(self):
        # a one-row additive mask broadcasts to what the [Lq, Lk] copy gave
        idx = np.arange(3 * 5).reshape(3, 5) % 9
        row = np.where(np.arange(5) == 3, -1e30, 0.0)
        self.check(3, 5, idx, row, ref_mask=np.broadcast_to(row, (3, 5)).copy())

    def test_packed_batch_with_stream_dropout(self):
        # three examples of 2, 3 and 2 query rows over 3, 1 and 4 key rows
        rows, cols = [0, 2, 5, 7], [0, 3, 4, 8]
        idx = np.full((7, 8), -1, dtype=np.int64)
        mask = np.full((7, 8), -1e30)
        for lo, hi, c0, c1 in zip(rows, rows[1:], cols, cols[1:]):
            idx[lo:hi, c0:c1] = np.arange((hi - lo) * (c1 - c0)).reshape(hi - lo, -1) % 9
            mask[lo:hi, c0:c1] = 0.0
        idx[6, 7] = -1
        self.check(7, 8, idx, mask, train=True)

    def test_packed_train_step_with_causal_blocks(self):
        # train mode exponentiates only attendable scores: off-block and
        # causal entries of three square blocks of 3, 1 and 4 rows are -1e30
        rows = [0, 3, 4, 8]
        idx = np.full((8, 8), -1, dtype=np.int64)
        mask = np.full((8, 8), -1e30)
        for lo, hi in zip(rows, rows[1:]):
            pos = np.arange(hi - lo)
            idx[lo:hi, lo:hi] = pos[None, :] - pos[:, None] + 4
            mask[lo:hi, lo:hi] = np.triu(np.full((hi - lo, hi - lo), -1e30), k=1)
        self.check(8, 8, idx, mask, train=True)


def primitive_calls():
    """(name, call) for every primitive, each call building fresh inputs
    that require gradients and fresh random sources.  A call takes an
    optional input factory ``t`` (array -> Tensor)."""
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    sq, vec = rng.normal(size=(4, 4)), rng.normal(size=4)
    table, idx = rng.normal(size=(2, 9)), np.arange(9).reshape(3, 3) - 1

    def fresh(x):
        return Tensor(x.copy(), requires_grad=True)

    return [
        ("add", lambda t=fresh: add(t(a), t(b))),
        ("sub", lambda t=fresh: sub(t(a), t(b))),
        ("mul", lambda t=fresh: mul(t(a), t(b))),
        ("scalar_mul", lambda t=fresh: scalar_mul(t(a), -1.5)),
        ("matmul", lambda t=fresh: matmul(t(a), t(sq))),
        ("transpose", lambda t=fresh: transpose(t(a))),
        ("reshape", lambda t=fresh: reshape(t(a), (2, 6))),
        ("gather_rows", lambda t=fresh: gather_rows(t(a), [2, 0, 2])),
        ("concat_rows", lambda t=fresh: concat_rows([t(a), t(b)])),
        ("softmax_lastdim", lambda t=fresh: softmax_lastdim(t(a))),
        ("rms_norm", lambda t=fresh: rms_norm(t(a), t(vec))),
        ("gelu", lambda t=fresh: gelu(t(a))),
        ("dropout", lambda t=fresh: dropout(t(a), 0.4, np.random.default_rng(3), True)),
        ("cross_entropy_mean", lambda t=fresh: cross_entropy_mean(t(a), [1, -1, 3])),
        ("cosine_similarity", lambda t=fresh: cosine_similarity(t(vec), t(sq[0]))),
        ("row_cosine_similarity", lambda t=fresh: cosine_similarity(t(a), t(b))),
        ("reduce_mean", lambda t=fresh: reduce_mean(t(a))),
        ("reduce_sum", lambda t=fresh: reduce_sum(t(a))),
        ("attention_core", lambda t=fresh: attention_core(
            t(a[:, :4]), t(b), t(b[::-1]), 2, t(table), idx, None, 0.3,
            np.random.default_rng(4), True)),
    ]


class TestTapeOff:
    @pytest.mark.parametrize("name, call", primitive_calls())
    def test_same_bytes_with_and_without_a_tape(self, name, call):
        off = call()
        with Tape() as tape:
            on = call()
        assert on.node is tape.nodes[-1] and off.node is None
        assert off.data.dtype == on.data.dtype and off.data.shape == on.data.shape
        assert off.data.tobytes() == on.data.tobytes()

    @pytest.mark.parametrize("name, call", primitive_calls())
    def test_no_tape_returns_before_recording(self, name, call, monkeypatch):
        def fail(*args):
            raise AssertionError(f"{name} reached _record with no tape active")
        monkeypatch.setattr(autodiff, "_record", fail)
        assert not call().requires_grad


class TestInputsUnchanged:
    """Callers reuse Tensors across calls (weights across examples, the
    decoder's cross-attention keys and values across steps), so no
    primitive may write into its inputs' data, forward or backward."""

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("name, call", primitive_calls())
    def test_input_bytes_unchanged(self, name, call, taped):
        inputs = []

        def t(x):
            inputs.append((Tensor(x.copy(), requires_grad=True), x.tobytes()))
            return inputs[-1][0]

        if taped:
            with Tape() as tape:
                out = call(t)
                root = out if out.data.ndim == 0 else reduce_sum(out)
            backward(tape, root)
        else:
            call(t)
        assert inputs
        for tensor, before in inputs:
            assert tensor.data.tobytes() == before


def stacked_calls(seed):
    """(name, stacked call, per-slice call) for the primitives that take
    leading batch axes, on random shapes; every third seed has t = 1."""
    rng = np.random.default_rng(seed)
    b, n = (int(x) for x in rng.integers(1, 7, size=2))
    t = 1 if seed % 3 == 0 else int(rng.integers(2, 7))
    e = int(rng.choice([16, 64, 340]))
    x, w = rng.normal(size=(b, t, 16)), rng.normal(size=(16, e))
    src, ids = rng.normal(size=(20, 16)), rng.integers(0, 20, size=(b, t))
    q, k, v = rng.normal(size=(b, t, 16)), rng.normal(size=(b, n, 16)), rng.normal(size=(b, n, 16))
    table = rng.normal(size=(4, 9))
    pos = np.arange(t)
    idx = np.clip(pos[None, :] - pos[:, None] + 4, -1, 8)  # -1: a zero bias column
    causal = np.triu(np.full((t, t), -1e30), k=1)
    key_rows = np.where(rng.random((b, n)) < 0.3, -1e30, 0.0)
    key_rows[:, 0] = 0.0  # every query row keeps an attendable key
    return [
        ("matmul", lambda: matmul(Tensor(x), Tensor(w)),
         lambda i: matmul(Tensor(x[i]), Tensor(w))),
        ("gather_rows", lambda: gather_rows(Tensor(src), ids),
         lambda i: gather_rows(Tensor(src), ids[i])),
        ("self_attention", lambda: attention_core(
            Tensor(q), Tensor(q), Tensor(q), 4, Tensor(table), idx, causal),
         lambda i: attention_core(Tensor(q[i]), Tensor(q[i]), Tensor(q[i]), 4,
                                  Tensor(table), idx, causal)),
        ("cross_attention", lambda: attention_core(
            Tensor(q), Tensor(k), Tensor(v), 4, None, None, key_rows[:, None, None]),
         lambda i: attention_core(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]), 4, None, None,
                                  key_rows[i])),
    ], b


class TestStackedOperands:
    """With no tape, an op over a stack of examples gives each slice the
    bytes of the 2-D call on that example alone; under a tape it raises."""

    @pytest.mark.parametrize("seed", range(12))
    def test_each_slice_equals_its_2d_call(self, seed):
        calls, b = stacked_calls(seed)
        for name, stacked, alone in calls:
            out = stacked().data
            assert out.shape[0] == b, name
            for i in range(b):
                assert out[i].tobytes() == alone(i).data.tobytes(), (name, i)

    @pytest.mark.parametrize("seed", range(3))
    def test_stacks_raise_under_a_tape(self, seed):
        calls, _ = stacked_calls(seed)
        for name, stacked, alone in calls:
            with Tape():
                with pytest.raises(ShapeMismatchError):
                    stacked()
                alone(0)  # the 2-D call runs under the tape
