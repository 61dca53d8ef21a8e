"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every differentiable operation whose inputs require
gradients; ``backward`` walks the node list in strict reverse order once,
accumulating gradients by sum into each participating tensor's ``.grad``.
With no active tape, every op computes its output and returns it before it
builds a backward closure (the evaluation path).

The primitive set is exactly what the encoder-decoder model and both loss
terms need: elementwise add/sub/mul, scalar multiply, matmul by a 2-D
weight, transpose, row gather, row concat, reshape, last-axis softmax, RMS
norm, gelu, dropout, mean cross entropy, differentiable cosine similarity
and mean/sum reductions.  No broadcasting beyond what those shapes require,
no fast-math anywhere.

With no tape active, ``matmul``, ``gather_rows`` and ``attention_core``
also take operands with leading batch axes (a stack of same-shape
examples, as greedy decoding runs them).  numpy runs a stacked matmul as
one 2-D call per slice and reduces each last-axis row on its own, so every
slice equals, bit for bit, the 2-D call on that example alone; flattening
the stack into more rows would not (a [1, d] product takes another BLAS
routine than a [B, d] one).  Under a tape a leading axis raises
``ShapeMismatchError``: training runs only 2-D operands.

A packed batch (several examples' rows back to back in one tensor) draws
its dropout masks through ``Streams``: each example draws every uniform of
its step from its own Generator with one call, and each dropout site slices
its blocks from those draws, so each example sees the masks it would draw
alone.  In train mode ``attention_core`` exponentiates only the attendable
scores: a masked score's ``exp`` is +0.0, which the output buffer already
holds, so the probabilities keep their bytes.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .embeddings import ZeroVectorError, cosine_sim

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


class DropoutPlanError(ValueError):
    """A dropout site asked an example for more draws than its step planned."""


class Streams:
    """Every dropout mask of one packed step, drawn up front.

    Example ``i`` draws all ``counts[i]`` uniforms of its step from
    ``gens[i]`` with one ``random`` call, and all examples' draws are
    thresholded and scaled (0 or 1/keep) in one operation.  Each
    ``keep_mask`` call then takes every example's next block, with the
    shape that example draws alone: rows ``rows[i]:rows[i+1]``, and for
    [H, Lq, Lk] attention probabilities key columns ``cols[i]:cols[i+1]``
    too; entries outside every block are 0.  PCG64's ``random(a + b)``
    equals ``random(a)`` followed by ``random(b)``, so each block equals
    the per-site draw bit for bit.  ``over`` gives the rows and columns
    of one kind of site; every view shares the examples' positions, and a
    block past an example's count raises ``DropoutPlanError``.
    """

    __slots__ = ("scales", "keep", "pos", "ends", "rows", "cols")

    def __init__(self, gens: Sequence[np.random.Generator], counts: Sequence[int],
                 keep: float):
        ends = [0, *accumulate(counts)]
        u = np.empty(ends[-1])
        for gen, lo, hi in zip(gens, ends, ends[1:]):
            gen.random(out=u[lo:hi])
        self.scales = np.divide(u < keep, keep, out=u)
        self.keep = keep
        self.pos = ends[:-1]
        self.ends = ends[1:]
        self.rows = self.cols = None

    def over(self, rows: Sequence[int], cols: Optional[Sequence[int]] = None) -> "Streams":
        """A view over packed ``rows`` (and key ``cols``, default ``rows``)."""
        view = Streams.__new__(Streams)
        view.scales, view.keep, view.pos, view.ends = self.scales, self.keep, self.pos, self.ends
        view.rows = rows
        view.cols = rows if cols is None else cols
        return view

    def _take(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        lo = self.pos[i]
        hi = lo + math.prod(shape)
        if hi > self.ends[i]:
            raise DropoutPlanError(f"example {i}: a {shape} mask block passes its "
                                   f"planned draws")
        self.pos[i] = hi
        return self.scales[lo:hi].reshape(shape)

    def keep_mask(self, shape: tuple[int, ...], keep: float) -> np.ndarray:
        """Inverted-dropout scale mask (0 or 1/keep) of one site."""
        if keep != self.keep:
            raise ValueError(f"keep {keep} differs from the drawn keep {self.keep}")
        r, c = self.rows, self.cols
        if len(shape) == 2:  # example blocks are consecutive row ranges
            return np.concatenate([self._take(i, (r[i + 1] - r[i], shape[1]))
                                   for i in range(len(self.pos))])
        mask = np.zeros(shape)
        for i in range(len(self.pos)):
            mask[..., r[i]:r[i + 1], c[i]:c[i + 1]] = self._take(
                i, (shape[0], r[i + 1] - r[i], c[i + 1] - c[i]))
        return mask


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
    """Record ``out``'s node on the active tape if an input requires grad.

    Every primitive returns before it builds ``backward_fn`` when no tape is
    active, so evaluation pays for neither the closure nor this call."""
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            node = Node(op, inputs, backward_fn)
            out.node = node
            _ACTIVE.nodes.append(node)
            _ACTIVE.outs.append(out)
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
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc(b, g)

    return _record("add", out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data)
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc_new(b, -g)

    return _record("sub", out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc_new(a, g * b.data)
        if b.requires_grad:
            _acc_new(b, g * a.data)

    return _record("mul", out, (a, b), bwd)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc_new(a, g * c)

    return _record("scalar_mul", out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for ``a`` [..., m, k] and ``b`` [k, n]."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ShapeMismatchError(f"matmul: {ad.shape} x {bd.shape}")
    if ad.ndim > 2 and _ACTIVE is not None:
        raise ShapeMismatchError(f"matmul: stacked {ad.shape} operand under a tape")
    out = Tensor(ad @ bd)
    if _ACTIVE is None:
        return out

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
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc(a, g.T)

    return _record("transpose", out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())
    if _ACTIVE is None:
        return out

    def bwd(g):
        if a.requires_grad:
            _acc(a, g.reshape(a.data.shape))

    return _record("reshape", out, (a,), bwd)


def gather_rows(m: Tensor, ids) -> Tensor:
    """Rows ``m[ids]``; backward scatter-adds into the source's gradient.

    ``ids`` is 1-D, or with no tape active [..., t] (rows [..., t, d])."""
    if m.data.ndim != 2:
        raise ShapeMismatchError(f"gather_rows: need 2-D source, got {m.data.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim < 1:
        raise ShapeMismatchError("gather_rows: ids must be 1-D")
    if idx.ndim > 1 and _ACTIVE is not None:
        raise ShapeMismatchError(f"gather_rows: stacked {idx.shape} ids under a tape")
    out = Tensor(m.data.take(idx, axis=0))
    if _ACTIVE is None:
        return out

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
    if _ACTIVE is None:
        return out
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
    if _ACTIVE is None:
        return out

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, y * (g - np.sum(g * y, axis=-1, keepdims=True)))

    return _record("softmax", out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """x / rms(x) * gain over the last axis (no mean-centering, no bias)."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeMismatchError(f"rms_norm: gain {gain.data.shape} vs last dim {d}")
    inv = 1.0 / np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / d + RMS_EPS)
    u = x.data * inv
    out = Tensor(u * gain.data)
    if _ACTIVE is None:
        return out

    def bwd(g):
        gg = g * gain.data
        if x.requires_grad:
            _acc_new(x, inv * (gg - u * (np.add.reduce(gg * u, axis=-1, keepdims=True) / d)))
        if gain.requires_grad:
            _acc_new(gain, np.sum(g * u, axis=tuple(range(g.ndim - 1))))

    return _record("rms_norm", out, (x, gain), bwd)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form); smooth everywhere."""
    xd = x.data
    inner = GELU_C * (xd + GELU_A * (xd * xd * xd))
    th = np.tanh(inner)
    out = Tensor(0.5 * xd * (1.0 + th))
    if _ACTIVE is None:
        return out

    def bwd(g):
        if x.requires_grad:
            sech2 = 1.0 - th * th
            d_inner = GELU_C * (1.0 + 3.0 * GELU_A * (xd * xd))
            _acc_new(x, g * (0.5 * (1.0 + th) + 0.5 * xd * sech2 * d_inner))

    return _record("gelu", out, (x,), bwd)


def dropout(x: Tensor, p_drop: float, rng: Optional[Streams], train: bool) -> Tensor:
    """Inverted dropout: train-mode output has the input as its expectation.

    ``rng`` is ``Streams`` over the rows of a packed batch (unused, and may
    be None, in eval mode or at rate 0).
    """
    if not (0.0 <= p_drop < 1.0):
        raise ValueError(f"p_drop must be in [0, 1), got {p_drop}")
    if not train or p_drop == 0.0:
        return x
    mask = rng.keep_mask(x.data.shape, 1.0 - p_drop)
    out = Tensor(x.data * mask)
    if _ACTIVE is None:
        return out

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, g * mask)

    return _record("dropout", out, (x,), bwd)


def cross_entropy_mean(logits: Tensor, targets, ignore_id: int = -1,
                       weights=None) -> Tensor:
    """Mean -log softmax(logits)[target] over positions not equal to ignore_id.

    With ``weights`` (one per row) the result is instead the weighted sum
    over those positions.  A packed batch weights each row by
    1 / (examples x kept positions of its example), which gives the mean
    over examples of each example's mean.
    """
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
    if weights is None:
        out = Tensor(np.sum(per_pos) / n_kept)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != tgt.shape:
            raise ShapeMismatchError("cross_entropy_mean: one weight per row required")
        out = Tensor(np.sum(per_pos * w))
    if _ACTIVE is None:
        return out

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(logits.data - lse)
            p[rows, tgt * kept] -= 1.0
            p[~kept] = 0.0
            if weights is None:
                p *= float(g) / n_kept
            else:
                p *= float(g) * w[:, None]
            _acc_new(logits, p)

    return _record("cross_entropy_mean", out, (logits,), bwd)


def cosine_similarity(v: Tensor, e: Tensor) -> Tensor:
    """Differentiable cosine similarity of two 1-D tensors, or row by row of
    two [n, d] tensors (an [n] result).  Raises ZeroVectorError on a zero norm.
    """
    _same_shape("cosine_similarity", v, e)
    if v.data.ndim == 1:
        c = cosine_sim(v.data, e.data)
        nv = float(np.linalg.norm(v.data))
        ne = float(np.linalg.norm(e.data))
        out = Tensor(c)
    elif v.data.ndim == 2:
        nv = np.sqrt(np.sum(v.data * v.data, axis=1, keepdims=True))
        ne = np.sqrt(np.sum(e.data * e.data, axis=1, keepdims=True))
        if np.any(nv == 0.0) or np.any(ne == 0.0):
            raise ZeroVectorError("cosine similarity of a zero vector")
        c = np.sum(v.data * e.data, axis=1, keepdims=True) / (nv * ne)
        out = Tensor(c[:, 0])
    else:
        raise ShapeMismatchError("cosine_similarity: need 1-D or 2-D tensors")
    if _ACTIVE is None:
        return out

    def bwd(g):
        gf = float(g) if g.ndim == 0 else g[:, None]
        if v.requires_grad:
            _acc_new(v, gf * (e.data / (nv * ne) - c * v.data / (nv * nv)))
        if e.requires_grad:
            _acc_new(e, gf * (v.data / (nv * ne) - c * e.data / (ne * ne)))

    return _record("cosine_similarity", out, (v, e), bwd)


def reduce_mean(x: Tensor) -> Tensor:
    size = x.data.size
    out = Tensor(np.mean(x.data))
    if _ACTIVE is None:
        return out

    def bwd(g):
        if x.requires_grad:
            _acc_new(x, np.full_like(x.data, float(g) / size))

    return _record("reduce_mean", out, (x,), bwd)


def reduce_sum(x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))
    if _ACTIVE is None:
        return out

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
                   rng: Optional[Streams] = None, train: bool = False) -> Tensor:
    """Fused multi-head scaled-dot-product attention over projected q/k/v.

    Heads are contiguous column blocks of the [L, d] inputs.  ``bias_table``
    [H, W] is gathered per head through ``bias_idx`` [Lq, Lk]: entries in
    [0, W) pick a column, and -1 (used for non-text rows) picks a zero column
    appended to the table, so a fixed index needs no per-call validity mask
    or clipped copy.  ``mask`` is an additive constant that broadcasts
    against the [H, Lq, Lk] scores, such as one row over the key columns.
    With no tape active, q/k/v may be stacks [B, L, d] of same-shape
    examples; the scores are then [B, H, Lq, Lk], the bias index and a
    2-D mask apply to every slice, and a [B, 1, 1, Lk] mask gives each
    slice its own key row.  Each slice equals the call on its example alone,
    bit for bit: every matmul and last-axis reduction runs per slice.
    Dropout applies to the attention probabilities; ``rng`` is ``Streams``
    over the query rows and key columns of a packed batch.
    In train mode only scores where ``mask`` is 0 are exponentiated; the
    rest stay +0.0, which is what ``exp`` gives them, so every query row
    needs an attendable key.  Decoding keeps the plain ``exp``: its masks
    are a few rows, where the extra compare costs more than it saves.
    One tape node replaces the matmul/softmax composition for speed; the
    backward pass is the exact analytic gradient of that composition.

    Nothing is cached inside: every call splits the heads, scores, adds the
    bias and mask, normalizes and merges the heads back with one reshape.
    What is fixed the caller builds once and passes in: greedy decoding
    builds each stack's cross-attention keys, values and encoder mask
    once for all its steps, and takes the bias index and causal mask from
    per-length caches.  With no tape active the call returns before it
    builds the backward closure.
    """
    *lead, lq, d = q.data.shape
    lk = k.data.shape[-2]
    if (d % n_heads != 0 or k.data.shape != v.data.shape or k.data.shape[-1] != d
            or k.data.shape[:-2] != q.data.shape[:-2]):
        raise ShapeMismatchError(
            f"attention_core: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}, "
            f"n_heads {n_heads}")
    if lead and _ACTIVE is not None:
        raise ShapeMismatchError(f"attention_core: stacked {q.data.shape} q under a tape")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)  # the same double as np.sqrt, without its dispatch
    qh = np.ascontiguousarray(q.data.reshape(*lead, lq, n_heads, dh).swapaxes(-3, -2))
    kh = np.ascontiguousarray(k.data.reshape(*lead, lk, n_heads, dh).swapaxes(-3, -2))
    vh = np.ascontiguousarray(v.data.reshape(*lead, lk, n_heads, dh).swapaxes(-3, -2))
    # [H, Lq, Lk] buffers are reused in place: a packed batch makes them large
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if bias_table is not None:
        table = bias_table.data
        scores += np.concatenate((table, np.zeros((len(table), 1))), axis=1).take(
            bias_idx, axis=1)
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    if train and mask is not None:
        # a masked score's exp is +0.0: skip numpy's slow path for -1e30
        probs = np.exp(scores, out=np.zeros(scores.shape), where=mask == 0)
    else:
        probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    dmask = rng.keep_mask(probs.shape, 1.0 - p_drop) if train and p_drop > 0.0 else None
    out_h = (probs if dmask is None else probs * dmask) @ vh
    out = Tensor(out_h.swapaxes(-3, -2).reshape(*lead, lq, d))
    if _ACTIVE is None:
        return out

    def bwd(g):
        g_h = np.ascontiguousarray(g.reshape(lq, n_heads, dh).transpose(1, 0, 2))
        d_probs = g_h @ vh.transpose(0, 2, 1)
        if v.requires_grad:
            probs_kept = probs if dmask is None else probs * dmask
            dv_h = probs_kept.transpose(0, 2, 1) @ g_h
            _acc_new(v, dv_h.transpose(1, 0, 2).reshape(lk, d))
        if dmask is not None:
            d_probs *= dmask
        d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
        if bias_table is not None and bias_table.requires_grad:
            if bias_table.grad is None:
                bias_table.grad = np.zeros_like(bias_table.data)
            valid = bias_idx >= 0
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
            _acc_new(q, dq_h.transpose(1, 0, 2).reshape(lq, d))
        if k.requires_grad:
            dk_h = (d_scores.transpose(0, 2, 1) @ qh) * scale
            _acc_new(k, dk_h.transpose(1, 0, 2).reshape(lk, d))

    inputs = (q, k, v) if bias_table is None else (q, k, v, bias_table)
    return _record("attention_core", out, inputs, bwd)
