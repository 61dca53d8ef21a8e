"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every differentiable operation whose inputs require
gradients; ``backward`` walks the node list in strict reverse order once,
accumulating gradients by sum into each participating tensor's ``.grad``.
With no active tape, ops run as plain numpy (the evaluation fast path).

The primitive set is exactly what the encoder-decoder model and both loss
terms need: elementwise add/sub/mul, scalar multiply, 2-D matmul, transpose,
row gather, row concat, reshape, last-axis softmax, RMS norm, gelu, dropout,
mean cross entropy, differentiable cosine similarity and mean/sum reductions.
No broadcasting beyond what those shapes require, no fast-math anywhere.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .embeddings import cosine_sim

RMS_EPS = 1e-12
GELU_C = float(np.sqrt(2.0 / np.pi))
GELU_A = 0.044715


class ShapeMismatchError(ValueError):
    pass


class TargetOutOfRangeError(ValueError):
    pass


class NotScalarRootError(ValueError):
    pass


class DetachedRootError(ValueError):
    pass


class Tensor:
    """A shaped float64 array, optionally participating in a recorded graph."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional["Node"] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op: str, inputs: tuple[Tensor, ...],
                 backward_fn: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Append-only operation record; one forward+backward per instance.

    ``outs[i]`` is the output of ``nodes[i]``.  Nothing points back from a
    node to its output or to the tape, so the recorded graph holds no
    reference cycles and is freed by reference counting once the step drops
    it, without work for Python's cyclic garbage collector.
    """

    __slots__ = ("nodes", "outs")

    def __init__(self):
        self.nodes: list[Node] = []
        self.outs: list[Tensor] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already active")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False


_ACTIVE: Optional[Tape] = None


def _record(op: str, out: Tensor, inputs: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                node = Node(op, inputs, backward_fn)
                out.node = node
                tape.nodes.append(node)
                tape.outs.append(out)
                break
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a shared/view gradient (copied on first contribution)."""
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _acc_new(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a freshly allocated gradient (claimed on first contribution)."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def backward(tape: Tape, root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every tensor on the tape.

    Participating tensors that do not influence the root end with zero
    gradients.  Raises for non-scalar or detached roots.
    """
    if root.data.ndim != 0:
        raise NotScalarRootError(f"root has shape {root.data.shape}")
    if root.node is None or root.node not in tape.nodes:
        raise DetachedRootError("root was not recorded on this tape")
    for node, out in zip(tape.nodes, tape.outs):
        out.grad = None
        for t in node.inputs:
            t.grad = None
    root.grad = np.ones_like(root.data)
    for node, out in zip(reversed(tape.nodes), reversed(tape.outs)):
        if out.grad is not None:  # None: no path to the root, gradient 0
            node.backward_fn(out.grad)
    for node in tape.nodes:
        for t in node.inputs:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"{op}: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc(b, g)

    return _record("add", out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc_new(b, -g)

    return _record("sub", out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            _acc_new(a, g * b.data)
        if b.requires_grad:
            _acc_new(b, g * a.data)

    return _record("mul", out, (a, b), bwd)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bwd(g):
        if a.requires_grad:
            _acc_new(a, g * c)

    return _record("scalar_mul", out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        if a.requires_grad:
            _acc_new(a, g @ b.data.T)
        if b.requires_grad:
            _acc_new(b, a.data.T @ g)

    return _record("matmul", out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatchError(f"transpose: need 2-D, got {a.data.shape}")
    out = Tensor(a.data.T.copy())

    def bwd(g):
        if a.requires_grad:
            _acc(a, g.T)

    return _record("transpose", out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())

    def bwd(g):
        if a.requires_grad:
            _acc(a, g.reshape(a.data.shape))

    return _record("reshape", out, (a,), bwd)


def gather_rows(m: Tensor, ids) -> Tensor:
    """Rows ``m[ids]``; backward scatter-adds into the source's gradient."""
    if m.data.ndim != 2:
        raise ShapeMismatchError(f"gather_rows: need 2-D source, got {m.data.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError("gather_rows: ids must be 1-D")
    out = Tensor(m.data[idx])

    def bwd(g):
        if m.requires_grad:
            if m.grad is None:
                m.grad = np.zeros_like(m.data)
            np.add.at(m.grad, idx, g)

    return _record("gather_rows", out, (m,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeMismatchError("concat_rows: need at least one part")
    cols = parts[0].data.shape[-1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeMismatchError("concat_rows: all parts must be 2-D with equal columns")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _acc(p, g[lo:hi])

    return _record("concat_rows", out, tuple(parts), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Max-shifted softmax along the last axis."""
    if x.data.ndim == 0 or x.data.shape[-1] < 1:
        raise ShapeMismatchError(f"softmax_lastdim: bad shape {x.data.shape}")
    z = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, y * (g - np.sum(g * y, axis=-1, keepdims=True)))

    return _record("softmax", out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """x / rms(x) * gain over the last axis (no mean-centering, no bias)."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeMismatchError(f"rms_norm: gain {gain.data.shape} vs last dim {d}")
    inv = 1.0 / np.sqrt(np.mean(x.data * x.data, axis=-1, keepdims=True) + RMS_EPS)
    u = x.data * inv
    out = Tensor(u * gain.data)

    def bwd(g):
        gg = g * gain.data
        if x.requires_grad:
            _acc_new(x, inv * (gg - u * np.mean(gg * u, axis=-1, keepdims=True)))
        if gain.requires_grad:
            _acc_new(gain, np.sum(g * u, axis=tuple(range(g.ndim - 1))))

    return _record("rms_norm", out, (x, gain), bwd)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form); smooth everywhere."""
    xd = x.data
    inner = GELU_C * (xd + GELU_A * (xd * xd * xd))
    th = np.tanh(inner)
    out = Tensor(0.5 * xd * (1.0 + th))

    def bwd(g):
        if x.requires_grad:
            sech2 = 1.0 - th * th
            d_inner = GELU_C * (1.0 + 3.0 * GELU_A * (xd * xd))
            _acc_new(x, g * (0.5 * (1.0 + th) + 0.5 * xd * sech2 * d_inner))

    return _record("gelu", out, (x,), bwd)


def dropout(x: Tensor, p_drop: float, rng: np.random.Generator,
            train: bool) -> Tensor:
    """Inverted dropout: train-mode output has the input as its expectation."""
    if not (0.0 <= p_drop < 1.0):
        raise ValueError(f"p_drop must be in [0, 1), got {p_drop}")
    if not train or p_drop == 0.0:
        return x
    keep = 1.0 - p_drop
    mask = (rng.random(x.data.shape) < keep) / keep
    out = Tensor(x.data * mask)

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, g * mask)

    return _record("dropout", out, (x,), bwd)


def cross_entropy_mean(logits: Tensor, targets, ignore_id: int = -1) -> Tensor:
    """Mean -log softmax(logits)[target] over positions not equal to ignore_id."""
    if logits.data.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy_mean: need [t, V], got {logits.data.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (logits.data.shape[0],):
        raise ShapeMismatchError("cross_entropy_mean: one target per row required")
    vocab = logits.data.shape[1]
    kept = tgt != ignore_id
    if np.any((tgt[kept] < 0) | (tgt[kept] >= vocab)):
        raise TargetOutOfRangeError(f"targets must be in [0, {vocab})")
    n_kept = int(np.sum(kept))
    if n_kept == 0:
        return Tensor(0.0)
    m = np.max(logits.data, axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True)) + m
    rows = np.arange(tgt.shape[0])
    per_pos = (lse[:, 0] - logits.data[rows, tgt * kept]) * kept
    out = Tensor(np.sum(per_pos) / n_kept)

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(logits.data - lse)
            p[rows, tgt * kept] -= 1.0
            p[~kept] = 0.0
            p *= float(g) / n_kept
            _acc_new(logits, p)

    return _record("cross_entropy_mean", out, (logits,), bwd)


def cosine_similarity(v: Tensor, e: Tensor) -> Tensor:
    """Differentiable cosine similarity of two 1-D tensors."""
    if v.data.ndim != 1 or e.data.ndim != 1:
        raise ShapeMismatchError("cosine_similarity: need 1-D tensors")
    _same_shape("cosine_similarity", v, e)
    c = cosine_sim(v.data, e.data)  # raises ZeroVectorError on zero norms
    nv = float(np.linalg.norm(v.data))
    ne = float(np.linalg.norm(e.data))
    out = Tensor(c)

    def bwd(g):
        gf = float(g)
        if v.requires_grad:
            _acc_new(v, gf * (e.data / (nv * ne) - c * v.data / (nv * nv)))
        if e.requires_grad:
            _acc_new(e, gf * (v.data / (nv * ne) - c * e.data / (ne * ne)))

    return _record("cosine_similarity", out, (v, e), bwd)


def reduce_mean(x: Tensor) -> Tensor:
    size = x.data.size
    out = Tensor(np.mean(x.data))

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, np.full_like(x.data, float(g) / size))

    return _record("reduce_mean", out, (x,), bwd)


def reduce_sum(x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, np.full_like(x.data, float(g)))

    return _record("reduce_sum", out, (x,), bwd)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |a - n| / max(1, |a|, |n|).  ``f`` must
    be deterministic and run with dropout disabled.
    """
    x.requires_grad = True
    with Tape() as tape:
        y = f(x)
    backward(tape, y)
    analytic = x.grad.copy()
    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        y_hi = float(f(x).data)
        flat[i] = orig - h
        y_lo = float(f(x).data)
        flat[i] = orig
        numeric[i] = (y_hi - y_lo) / (2.0 * h)
    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    return float(np.max(np.abs(a - numeric) / denom))


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                   bias_table: Optional[Tensor] = None,
                   bias_idx: Optional[np.ndarray] = None,
                   mask: Optional[np.ndarray] = None,
                   p_drop: float = 0.0,
                   rng: Optional[np.random.Generator] = None,
                   train: bool = False) -> Tensor:
    """Fused multi-head scaled-dot-product attention over projected q/k/v.

    Heads are contiguous column blocks of the [L, d] inputs.  ``bias_table``
    [H, W] is gathered per head through ``bias_idx`` [Lq, Lk] (entries < 0
    mean zero bias, used for non-text rows); ``mask`` is an additive constant.
    Dropout applies to the attention probabilities.  One tape node replaces
    the matmul/softmax composition for speed; the backward pass is the exact
    analytic gradient of that composition.
    """
    lq, d = q.data.shape
    lk = k.data.shape[0]
    if d % n_heads != 0 or k.data.shape != v.data.shape or k.data.shape[1] != d:
        raise ShapeMismatchError(
            f"attention_core: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}, "
            f"n_heads {n_heads}")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    qh = np.ascontiguousarray(q.data.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.data.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    vh = np.ascontiguousarray(v.data.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    valid = None
    if bias_table is not None:
        valid = bias_idx >= 0
        gathered = bias_table.data[:, np.maximum(bias_idx, 0)]
        if not valid.all():
            gathered *= valid
        scores += gathered
    if mask is not None:
        scores += mask
    scores -= np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / np.sum(e, axis=-1, keepdims=True)
    if train and p_drop > 0.0:
        keep = 1.0 - p_drop
        dmask = (rng.random(probs.shape) < keep) / keep
        probs_kept = probs * dmask
    else:
        dmask = None
        probs_kept = probs
    out_h = probs_kept @ vh
    out = Tensor(np.ascontiguousarray(out_h.transpose(1, 0, 2)).reshape(lq, d))

    def bwd(g):
        g_h = np.ascontiguousarray(g.reshape(lq, n_heads, dh).transpose(1, 0, 2))
        d_probs = g_h @ vh.transpose(0, 2, 1)
        if v.requires_grad:
            dv_h = probs_kept.transpose(0, 2, 1) @ g_h
            _acc_new(v, np.ascontiguousarray(dv_h.transpose(1, 0, 2)).reshape(lk, d))
        if dmask is not None:
            d_probs *= dmask
        d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
        if bias_table is not None and bias_table.requires_grad:
            if bias_table.grad is None:
                bias_table.grad = np.zeros_like(bias_table.data)
            if valid.all():
                for h in range(n_heads):
                    np.add.at(bias_table.grad[h], bias_idx.reshape(-1),
                              d_scores[h].reshape(-1))
            else:
                flat_idx = bias_idx[valid]
                for h in range(n_heads):
                    np.add.at(bias_table.grad[h], flat_idx, d_scores[h][valid])
        if q.requires_grad:
            dq_h = (d_scores @ kh) * scale
            _acc_new(q, np.ascontiguousarray(dq_h.transpose(1, 0, 2)).reshape(lq, d))
        if k.requires_grad:
            dk_h = (d_scores.transpose(0, 2, 1) @ qh) * scale
            _acc_new(k, np.ascontiguousarray(dk_h.transpose(1, 0, 2)).reshape(lk, d))

    inputs = (q, k, v) if bias_table is None else (q, k, v, bias_table)
    return _record("attention_core", out, inputs, bwd)
