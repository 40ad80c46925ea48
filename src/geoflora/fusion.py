"""Serial three-way cross-attention, forward pass only.

Three modality vectors are projected to a shared hidden width D. Each
modality owns its query projection while keys and values share one
projection pair, so all modalities score attention in the same semantic
space. Updates run serially, one modality after another: each attends over
the latest states of the other two, so the second already sees the updated
first and the third sees both updated ones. Attention is multi-head, all
heads in one batched product. A position-wise feed-forward block
(4x expansion, GELU) follows, with layer normalisation after the attention
and feed-forward residuals (post-norm). Finally each hidden state is
projected back to its original width and added to the raw input, which makes
the block stackable: output dimensions always equal input dimensions.

One token per modality; weights carry no biases and layer normalisation has
no learned affine part, so the block is a pure function of (inputs, weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

FFN_EXPANSION = 4
_LN_EPS = 1e-5


@dataclass(frozen=True)
class ModalityTriple:
    """One feature vector per modality."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.ndim != 1:
                raise ValueError(f"modality {name} must be a 1-D vector")
            object.__setattr__(self, name, v)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.a.size, self.b.size, self.c.size)


@dataclass(frozen=True)
class FusionWeights:
    """All parameters of one fusion block.

    in_proj[i]: (d_i, D), q_proj[i]: (D, D), shared k_proj/v_proj: (D, D),
    ff1[i]: (D, 4D), ff2[i]: (4D, D), out_proj[i]: (D, d_i); heads divides D.
    """

    in_proj: tuple[np.ndarray, np.ndarray, np.ndarray]
    q_proj: tuple[np.ndarray, np.ndarray, np.ndarray]
    k_proj: np.ndarray
    v_proj: np.ndarray
    ff1: tuple[np.ndarray, np.ndarray, np.ndarray]
    ff2: tuple[np.ndarray, np.ndarray, np.ndarray]
    out_proj: tuple[np.ndarray, np.ndarray, np.ndarray]
    heads: int

    def __post_init__(self) -> None:
        d_hidden = self.k_proj.shape[0]
        if self.heads < 1 or d_hidden % self.heads != 0:
            raise ValueError("hidden dimension must be divisible by the head count")
        shapes_ok = (
            self.k_proj.shape == self.v_proj.shape == (d_hidden, d_hidden)
            and all(q.shape == (d_hidden, d_hidden) for q in self.q_proj)
            and all(w1.shape == (d_hidden, FFN_EXPANSION * d_hidden) for w1 in self.ff1)
            and all(w2.shape == (FFN_EXPANSION * d_hidden, d_hidden) for w2 in self.ff2)
            and all(
                wi.shape == (wo.shape[1], d_hidden) and wo.shape[0] == d_hidden
                for wi, wo in zip(self.in_proj, self.out_proj)
            )
        )
        if not shapes_ok:
            raise ValueError("inconsistent weight shapes")
        for group in (self.in_proj, self.q_proj, (self.k_proj, self.v_proj), self.ff1, self.ff2, self.out_proj):
            for w in group:
                if not np.all(np.isfinite(w)):
                    raise ValueError("weights must be finite")

    @property
    def hidden_dim(self) -> int:
        return int(self.k_proj.shape[0])

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(w.shape[0] for w in self.in_proj)


def init_weights(dims: tuple[int, int, int], hidden_dim: int, heads: int, seed: int) -> FusionWeights:
    """Seeded uniform init, each matrix in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Matrices are drawn in a fixed order (input projections, query
    projections, shared key/value, feed-forwards, output projections), so a
    seed fully determines the weights.
    """
    if hidden_dim < 1 or heads < 1 or hidden_dim % heads != 0:
        raise ValueError("hidden_dim must be a positive multiple of heads")
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError("three positive modality dimensions required")
    rng = np.random.default_rng(seed)

    def draw(fan_in: int, shape: tuple[int, int]) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    d = hidden_dim
    in_proj = tuple(draw(dx, (dx, d)) for dx in dims)
    q_proj = tuple(draw(d, (d, d)) for _ in range(3))
    k_proj = draw(d, (d, d))
    v_proj = draw(d, (d, d))
    ff1 = tuple(draw(d, (d, FFN_EXPANSION * d)) for _ in range(3))
    ff2 = tuple(draw(FFN_EXPANSION * d, (FFN_EXPANSION * d, d)) for _ in range(3))
    out_proj = tuple(draw(d, (d, dx)) for dx in dims)
    return FusionWeights(in_proj, q_proj, k_proj, v_proj, ff1, ff2, out_proj, heads)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(v: np.ndarray) -> np.ndarray:
    return 0.5 * v * (1.0 + erf(v / math.sqrt(2.0)))


def _layer_norm(v: np.ndarray) -> np.ndarray:
    mu = v.mean()
    var = v.var()
    return (v - mu) / math.sqrt(var + _LN_EPS)


def multi_head_cross_attention(
    query_state: np.ndarray,
    q_proj: np.ndarray,
    context: np.ndarray,
    k_proj: np.ndarray,
    v_proj: np.ndarray,
    heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Attend one query token over context tokens; returns (output, weights).

    ``context`` has shape (n_ctx, D); weights come back as (heads, n_ctx),
    each row a softmax distribution. All heads run in one batched product.
    """
    d = query_state.size
    dh = d // heads
    q = (query_state @ q_proj).reshape(heads, 1, dh)
    k = (context @ k_proj).reshape(-1, heads, dh).transpose(1, 2, 0)  # (heads, dh, n_ctx)
    v = (context @ v_proj).reshape(-1, heads, dh).transpose(1, 0, 2)  # (heads, n_ctx, dh)
    weights = softmax((q @ k)[:, 0] * (1.0 / math.sqrt(dh)))
    return (weights[:, None] @ v).reshape(d), weights


def tri_serial_forward(x: ModalityTriple, w: FusionWeights, trace: dict | None = None) -> ModalityTriple:
    """One fusion block; output dims equal input dims.

    ``trace``, when a dict, receives the attention weight matrices under
    keys "attn_a", "attn_b", "attn_c" for inspection.
    """
    if x.dims != w.dims:
        raise ValueError(f"modality dims {x.dims} do not match weights {w.dims}")
    h = [v @ p for v, p in zip((x.a, x.b, x.c), w.in_proj)]
    for i, key in enumerate(("attn_a", "attn_b", "attn_c")):
        attn, wts = multi_head_cross_attention(h[i], w.q_proj[i], np.stack(h[:i] + h[i + 1 :]), w.k_proj, w.v_proj, w.heads)
        if trace is not None:
            trace[key] = wts
        h[i] = _layer_norm(h[i] + attn)

    outs = []
    for orig, hid, w1, w2, wo in zip((x.a, x.b, x.c), h, w.ff1, w.ff2, w.out_proj):
        hid = _layer_norm(hid + _gelu(hid @ w1) @ w2)
        outs.append(orig + hid @ wo)
    return ModalityTriple(*outs)


def stack_forward(x: ModalityTriple, layers: list[FusionWeights]) -> ModalityTriple:
    """Left-fold of ``tri_serial_forward``; an empty stack is the identity."""
    for w in layers:
        x = tri_serial_forward(x, w)
    return x
