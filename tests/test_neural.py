import numpy as np
import pytest

from dpdplab.neural import Adam, AttentionBlock, Linear, Mlp, load_tensors, save_tensors

from oracles import attention_reference, mlp_reference, relative_error


def test_zero_weights_zero_output():
    rng = np.random.default_rng(0)
    mlp = Mlp([4, 6, 2], rng)
    for _, p, _ in mlp.parameters():
        p[...] = 0.0
    x = np.random.default_rng(1).normal(size=(3, 4))
    assert np.all(mlp.forward(x)[0] == 0.0)


def test_identity_single_layer():
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 3], rng)
    mlp.layers[0].params["W"][...] = np.eye(3)
    mlp.layers[0].params["b"][...] = 0.0
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(mlp.forward(x)[0], x)


def test_mlp_matches_loop_reference():
    rng = np.random.default_rng(42)
    mlp = Mlp([5, 8, 1], rng)
    x = np.random.default_rng(7).normal(size=5)
    got = mlp.forward(x.reshape(1, 5))[0][0]
    layers = [(l.params["W"].tolist(), l.params["b"].tolist()) for l in mlp.layers]
    want = mlp_reference(layers, x.tolist())
    assert got == pytest.approx(want, rel=1e-12)


def _full_mask(groups, rows):
    return np.ones((groups, rows, rows), dtype=bool)


def _random_mask(groups, rows, seed):
    """Random groups with the diagonal set, so every row admits itself."""
    mask = np.random.default_rng(seed).random((groups, rows, rows)) < 0.5
    mask[:, np.arange(rows), np.arange(rows)] = True
    return mask


def test_attention_uniform_weights_for_equal_scores():
    rng = np.random.default_rng(3)
    attn = AttentionBlock(d_in=4, n_heads=2, d_head=3, d_out=4, rng=rng)
    attn.params["WQ"][...] = 0.0  # all scores zero -> uniform softmax
    x = np.random.default_rng(5).normal(size=(5, 4))
    _, tape = attn.forward(x, _full_mask(1, 5))
    weights = tape["weights"]
    assert np.allclose(weights, 1.0 / 5.0)


def test_attention_single_row_attends_to_self():
    rng = np.random.default_rng(4)
    attn = AttentionBlock(d_in=3, n_heads=2, d_head=2, d_out=3, rng=rng)
    x = np.random.default_rng(6).normal(size=(4, 3))
    # Four groups of one row, and one group of four rows that see only themselves.
    for mask in (_full_mask(4, 1), np.eye(4, dtype=bool)[None]):
        out, tape = attn.forward(x, mask)
        for i in range(4):
            v = (x[i] @ attn.params["WV"]).reshape(-1)
            cat = np.concatenate([x[i], v])
            expected = np.maximum(cat @ attn.params["W"] + attn.params["b"], 0.0)
            assert out[i] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(tape["weights"].sum(axis=-1), 1.0)
        assert np.allclose(tape["weights"], mask[:, None].astype(float))


def test_attention_weights_form_a_distribution():
    rng = np.random.default_rng(13)
    attn = AttentionBlock(d_in=4, n_heads=3, d_head=2, d_out=4, rng=rng)
    x = np.random.default_rng(14).normal(size=(4 * 5, 4))
    mask = _random_mask(4, 5, 15)
    _, tape = attn.forward(x, mask)
    weights = tape["weights"]
    assert weights.shape == (4, 3, 5, 5)
    assert np.all(weights >= 0.0)
    assert np.all(weights[~np.broadcast_to(mask[:, None], weights.shape)] == 0.0)
    assert np.allclose(weights.sum(axis=-1), 1.0)


def test_attention_matches_loop_reference():
    rng = np.random.default_rng(11)
    attn = AttentionBlock(d_in=4, n_heads=2, d_head=3, d_out=5, rng=rng)
    x = np.random.default_rng(12).normal(size=(2 * 3, 4))
    mask = _random_mask(2, 3, 16)
    got, _ = attn.forward(x, mask)
    for s in range(2):
        for i in range(3):
            # The reference's query is its first row; the rest are the others the mask admits.
            group = [i] + [j for j in range(3) if j != i and mask[s, i, j]]
            want = attention_reference(
                [x[3 * s + j].tolist() for j in group],
                attn.params["WQ"].tolist(),
                attn.params["WK"].tolist(),
                attn.params["WV"].tolist(),
                attn.params["W"].tolist(),
                attn.params["b"].tolist(),
                heads=2,
                d_head=3,
            )
            assert got[3 * s + i] == pytest.approx(want, rel=1e-10)


def test_linear_layer_closed_form_gradient():
    rng = np.random.default_rng(9)
    lin = Linear(3, 1, rng)
    x = np.array([[0.5, -1.0, 2.0]])
    y = np.array([[0.7]])
    pred, tape = lin.forward(x)
    lin.zero_grad()
    lin.backward(tape, 2.0 * (pred - y))
    expected = 2.0 * (pred - y)[0, 0] * x[0]
    assert lin.grads["W"][:, 0] == pytest.approx(expected)
    assert lin.grads["b"][0] == pytest.approx(2.0 * (pred - y)[0, 0])


def test_constant_head_stops_gradient():
    rng = np.random.default_rng(10)
    mlp = Mlp([3, 4, 2], rng)
    mlp.layers[-1].params["W"][...] = 0.0  # output is constant in upstream params
    x = np.random.default_rng(2).normal(size=(2, 3))
    _, tape = mlp.forward(x)
    mlp.zero_grad()
    mlp.backward(tape, np.ones((2, 2)))
    assert np.all(mlp.layers[0].grads["W"] == 0.0)
    assert np.all(mlp.layers[0].grads["b"] == 0.0)


def _central_difference_check(block, *inputs, h=1e-4, tol=1e-4):
    def loss():
        out, _ = block.forward(*inputs)
        return float(np.sum(out * weights_out))

    rng = np.random.default_rng(123)
    out, tape = block.forward(*inputs)
    weights_out = rng.normal(size=out.shape)
    block.zero_grad()
    block.backward(tape, weights_out.copy())
    for name, p, g in block.parameters():
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up = loss()
            flat_p[idx] = keep - h
            down = loss()
            flat_p[idx] = keep
            numeric = (up - down) / (2 * h)
            assert relative_error(flat_g[idx], numeric) < tol, (name, idx)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    mlp = Mlp([4, 6, 3], rng)
    x = np.random.default_rng(22).normal(size=(5, 4))
    _central_difference_check(mlp, x)


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    attn = AttentionBlock(d_in=4, n_heads=2, d_head=3, d_out=4, rng=rng)
    x = np.random.default_rng(24).normal(size=(3 * 4, 4))
    _central_difference_check(attn, x, _random_mask(3, 4, 28))


def test_attention_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    attn = AttentionBlock(d_in=3, n_heads=2, d_head=2, d_out=3, rng=rng)
    x = np.random.default_rng(26).normal(size=(2 * 3, 3))
    mask = _random_mask(2, 3, 29)
    out_w = np.random.default_rng(27).normal(size=(2 * 3, 3))
    _, tape = attn.forward(x, mask)
    dx = attn.backward(tape, out_w.copy())
    h = 1e-5
    flat = x.reshape(-1)
    dflat = dx.reshape(-1)
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + h
        up = float(np.sum(attn.forward(x, mask)[0] * out_w))
        flat[idx] = keep - h
        down = float(np.sum(attn.forward(x, mask)[0] * out_w))
        flat[idx] = keep
        numeric = (up - down) / (2 * h)
        assert relative_error(dflat[idx], numeric) < 1e-4


def test_backward_uses_its_own_tape():
    """A forward on other input between forward and backward changes nothing."""
    rng = np.random.default_rng(1)
    blocks = [
        (AttentionBlock(3, 2, 2, 3, rng), (8, 3), ((_random_mask(2, 4, 3),), (_full_mask(2, 4),))),
        (Mlp([3, 5, 2], rng), (4, 3), ((), ())),
    ]
    data = np.random.default_rng(2)
    for block, shape, (mask, other_mask) in blocks:
        x, other = data.normal(size=shape), data.normal(size=shape)
        out, tape = block.forward(x, *mask)
        grad = data.normal(size=out.shape)
        block.zero_grad()
        dx = block.backward(tape, grad)
        want = [g.copy() for _, _, g in block.parameters()]
        _, tape = block.forward(x, *mask)
        block.forward(other, *other_mask)
        block.zero_grad()
        assert np.array_equal(block.backward(tape, grad), dx)
        for w, (name, _, g) in zip(want, block.parameters()):
            assert np.array_equal(w, g), name


def test_adam_descends_quadratic():
    rng = np.random.default_rng(14)
    lin = Linear(1, 1, rng)
    opt = Adam(lin.parameters(), lr=0.05)
    target = 3.0
    for _ in range(400):
        lin.zero_grad()
        pred, tape = lin.forward(np.array([[1.0]]))
        lin.backward(tape, 2.0 * (pred - target))
        opt.step()
    final = lin.forward(np.array([[1.0]]))[0][0, 0]
    assert final == pytest.approx(target, abs=1e-2)


def test_tensor_archive_round_trip(tmp_path):
    tensors = {
        "a.W": np.arange(6, dtype=float).reshape(2, 3),
        "b": np.array([1.5]),
    }
    path = save_tensors(tmp_path / "t.ckpt", tensors, {"note": 7})
    loaded, meta = load_tensors(path)
    assert meta == {"note": 7}
    assert set(loaded) == {"a.W", "b"}
    assert np.array_equal(loaded["a.W"], tensors["a.W"])


def test_tensor_archive_deterministic_bytes(tmp_path):
    tensors = {"x": np.linspace(0, 1, 7)}
    p1 = save_tensors(tmp_path / "one.ckpt", tensors, {"k": 1})
    p2 = save_tensors(tmp_path / "two.ckpt", tensors, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_tensor_archive_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not an archive")
    with pytest.raises(ValueError, match="not a tensor archive"):
        load_tensors(path)
