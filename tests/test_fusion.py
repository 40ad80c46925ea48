import math

import numpy as np
import pytest

from geoflora.fusion import (
    FFN_EXPANSION,
    FusionWeights,
    ModalityTriple,
    init_weights,
    multi_head_cross_attention,
    softmax,
    stack_forward,
    tri_serial_forward,
)

DIMS = (8, 12, 16)


def triple(rng, dims=DIMS, scale=1.0):
    return ModalityTriple(*(rng.normal(0.0, scale, d) for d in dims))


def zero_backprojection(w: FusionWeights) -> FusionWeights:
    return FusionWeights(
        w.in_proj, w.q_proj, w.k_proj, w.v_proj, w.ff1, w.ff2,
        tuple(np.zeros_like(o) for o in w.out_proj), w.heads,
    )


# ---------------------------------------------------------------------------
# straight-line scalar reimplementation (plain Python floats, explicit loops)
# ---------------------------------------------------------------------------

def vecmat(x, m):
    rows = len(m)
    cols = len(m[0])
    return [sum(x[i] * m[i][j] for i in range(rows)) for j in range(cols)]


def layer_norm_scalar(v):
    n = len(v)
    mu = sum(v) / n
    var = sum((x - mu) ** 2 for x in v) / n
    denom = math.sqrt(var + 1e-5)
    return [(x - mu) / denom for x in v]


def gelu_scalar(v):
    return [0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in v]


def softmax_scalar(z):
    m = max(z)
    e = [math.exp(x - m) for x in z]
    s = sum(e)
    return [x / s for x in e]


def attention_scalar(state, q_proj, context, k_proj, v_proj, heads):
    d = len(state)
    dh = d // heads
    q = vecmat(state, q_proj)
    k = [vecmat(c, k_proj) for c in context]
    v = [vecmat(c, v_proj) for c in context]
    out = [0.0] * d
    for h in range(heads):
        lo = h * dh
        logits = [sum(k[t][lo + j] * q[lo + j] for j in range(dh)) / math.sqrt(dh) for t in range(len(context))]
        wts = softmax_scalar(logits)
        for j in range(dh):
            out[lo + j] = sum(wts[t] * v[t][lo + j] for t in range(len(context)))
    return out


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def scalar_forward(x: ModalityTriple, w: FusionWeights):
    W = lambda m: m.tolist()
    h = [vecmat(x.a.tolist(), W(w.in_proj[0])), vecmat(x.b.tolist(), W(w.in_proj[1])), vecmat(x.c.tolist(), W(w.in_proj[2]))]

    attn = attention_scalar(h[0], W(w.q_proj[0]), [h[1], h[2]], W(w.k_proj), W(w.v_proj), w.heads)
    h[0] = layer_norm_scalar(add(h[0], attn))
    attn = attention_scalar(h[1], W(w.q_proj[1]), [h[0], h[2]], W(w.k_proj), W(w.v_proj), w.heads)
    h[1] = layer_norm_scalar(add(h[1], attn))
    attn = attention_scalar(h[2], W(w.q_proj[2]), [h[0], h[1]], W(w.k_proj), W(w.v_proj), w.heads)
    h[2] = layer_norm_scalar(add(h[2], attn))

    outs = []
    for i, orig in enumerate((x.a, x.b, x.c)):
        ff = vecmat(gelu_scalar(vecmat(h[i], W(w.ff1[i]))), W(w.ff2[i]))
        hid = layer_norm_scalar(add(h[i], ff))
        outs.append(add(orig.tolist(), vecmat(hid, W(w.out_proj[i]))))
    return outs


# ---------------------------------------------------------------------------


class TestInit:
    def test_same_seed_identical(self):
        a = init_weights(DIMS, 16, 4, seed=7)
        b = init_weights(DIMS, 16, 4, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.in_proj + a.ff1 + a.out_proj, b.in_proj + b.ff1 + b.out_proj))
        assert np.array_equal(a.k_proj, b.k_proj) and np.array_equal(a.v_proj, b.v_proj)

    def test_different_seeds_differ(self):
        a = init_weights(DIMS, 16, 4, seed=0)
        b = init_weights(DIMS, 16, 4, seed=1)
        assert not np.array_equal(a.k_proj, b.k_proj)

    def test_fan_in_bound_respected(self):
        w = init_weights(DIMS, 16, 4, seed=3)
        for i, m in enumerate(w.in_proj):
            assert np.abs(m).max() <= 1.0 / math.sqrt(DIMS[i])
        assert np.abs(w.k_proj).max() <= 1.0 / 4.0
        for m in w.ff2:
            assert np.abs(m).max() <= 1.0 / math.sqrt(FFN_EXPANSION * 16)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            init_weights(DIMS, 15, 4, seed=0)
        with pytest.raises(ValueError):
            init_weights(DIMS, 16, 0, seed=0)


class TestForward:
    def test_residual_identity_with_zero_backprojection(self, rng):
        w = zero_backprojection(init_weights(DIMS, 16, 4, seed=11))
        x = triple(rng)
        out = tri_serial_forward(x, w)
        assert np.array_equal(out.a, x.a)
        assert np.array_equal(out.b, x.b)
        assert np.array_equal(out.c, x.c)

    def test_singleton_attention_weight_is_one(self):
        w = init_weights(DIMS, 16, 4, seed=5)
        state = np.linspace(-1, 1, 16)
        context = np.arange(16.0).reshape(1, 16)
        out, weights = multi_head_cross_attention(state, w.q_proj[0], context, w.k_proj, w.v_proj, 4)
        assert weights.shape == (4, 1)
        assert np.all(weights == 1.0)
        assert np.allclose(out, (context @ w.v_proj)[0])

    @pytest.mark.parametrize("hidden,heads", [(8, 2), (8, 4), (16, 2), (16, 4)])
    def test_attention_rows_sum_to_one(self, rng, hidden, heads):
        w = init_weights(DIMS, hidden, heads, seed=2)
        trace = {}
        tri_serial_forward(triple(rng), w, trace=trace)
        for key in ("attn_a", "attn_b", "attn_c"):
            assert trace[key].shape == (heads, 2)
            assert np.allclose(trace[key].sum(axis=1), 1.0, atol=1e-6)

    def test_output_dims_equal_input_dims(self, rng):
        w = init_weights(DIMS, 16, 4, seed=9)
        out = tri_serial_forward(triple(rng), w)
        assert out.dims == DIMS

    def test_deterministic(self, rng):
        w = init_weights(DIMS, 16, 4, seed=1)
        x = triple(rng)
        a = tri_serial_forward(x, w)
        b = tri_serial_forward(x, w)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)

    def test_finite_for_large_inputs(self, rng):
        w = init_weights(DIMS, 16, 4, seed=4)
        x = ModalityTriple(*(rng.uniform(-1e3, 1e3, d) for d in DIMS))
        out = tri_serial_forward(x, w)
        for v in (out.a, out.b, out.c):
            assert np.all(np.isfinite(v))

    def test_dim_mismatch_rejected(self, rng):
        w = init_weights(DIMS, 16, 4, seed=4)
        bad = ModalityTriple(np.zeros(9), np.zeros(12), np.zeros(16))
        with pytest.raises(ValueError, match="dims"):
            tri_serial_forward(bad, w)

    @pytest.mark.parametrize(
        "dims,hidden,heads",
        [(DIMS, 8, 2), (DIMS, 16, 4), (DIMS, 4, 4), (DIMS, 8, 1), (DIMS, 6, 3), ((1, 1, 1), 4, 4), ((1, 1, 1), 6, 3)],
    )
    def test_matches_straight_line_scalar_oracle(self, rng, dims, hidden, heads):
        w = init_weights(dims, hidden, heads, seed=21)
        x = triple(rng, dims)
        got = tri_serial_forward(x, w)
        expected = scalar_forward(x, w)
        for g, e in zip((got.a, got.b, got.c), expected):
            assert np.max(np.abs(g - np.array(e))) <= 1e-10


class TestStack:
    def test_empty_stack_is_identity(self, rng):
        x = triple(rng)
        out = stack_forward(x, [])
        assert np.array_equal(out.a, x.a) and np.array_equal(out.b, x.b) and np.array_equal(out.c, x.c)

    def test_single_layer_equals_forward(self, rng):
        w = init_weights(DIMS, 16, 4, seed=13)
        x = triple(rng)
        a = stack_forward(x, [w])
        b = tri_serial_forward(x, w)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)

    def test_two_zero_backprojection_layers_compose_to_identity(self, rng):
        w1 = zero_backprojection(init_weights(DIMS, 16, 4, seed=14))
        w2 = zero_backprojection(init_weights(DIMS, 8, 2, seed=15))
        x = triple(rng)
        out = stack_forward(x, [w1, w2])
        assert np.array_equal(out.a, x.a) and np.array_equal(out.b, x.b) and np.array_equal(out.c, x.c)

    def test_stacked_layers_preserve_dims(self, rng):
        layers = [init_weights(DIMS, 16, 4, seed=s) for s in range(3)]
        out = stack_forward(triple(rng), layers)
        assert out.dims == DIMS


def test_softmax_normalises():
    w = softmax(np.array([1.0, 2.0, 3.0]))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(w) > 0)
