"""Minimal fully-connected network with exact backprop and Adam updates.

Everything is float64 and plain numpy. A network's parameters are one
flat vector, `Mlp.params`; each layer's weights (fan_in, fan_out) and
biases (fan_out,) are views of it, so Adam and the target sync each act
on the whole vector at once. Hidden layers are ReLU, the output layer is
affine. A batch is (n, d); a single row (d,) is promoted to (1, d), so
both go through the same matmuls. The train step hands forward and
backward a `Workspace` of preallocated buffers; writing into them gives
the same bits as allocating afresh, and the ops keep the per-element
order of the plain formulas, so checkpoints do not depend on the buffers.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ShapeError


def _n_params(layer_dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _layer_views(flat: np.ndarray, layer_dims):
    """Per-layer (weights, biases) views of a flat vector: each layer's W, then its b."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


class Mlp:
    """Affine-ReLU chain; weights are (fan_in, fan_out), biases (fan_out,).

    `weights` and `biases` are tuples of views of `params`: write into a
    layer (``net.weights[0][...] = w``); a layer cannot be rebound, which
    would detach it from the vector Adam updates.
    """

    def __init__(self, layer_dims, seed: int | None = None, rng: np.random.Generator | None = None):
        if len(layer_dims) < 2:
            raise ShapeError("need at least input and output dims")
        self.layer_dims = tuple(int(d) for d in layer_dims)
        if rng is None:
            rng = np.random.default_rng(seed)
        self.params = np.zeros(_n_params(self.layer_dims))
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)
        for w in self.weights:
            fan_in, fan_out = w.shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-a, a, size=w.shape)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


class Workspace:
    """Forward and backward buffers for batches of exactly `rows` rows.

    `acts[i]` is layer i's output, ReLU applied on hidden layers; `grads`
    is laid out like `Mlp.params`, with `grad_w`/`grad_b` views. Each
    forward or backward through the workspace overwrites them.
    """

    def __init__(self, layer_dims, rows: int):
        dims = tuple(layer_dims)
        self.rows = rows
        self.x = None  # the input of the last forward, read by backward
        self.acts = tuple(np.empty((rows, d)) for d in dims[1:])
        self.upstream = tuple(np.empty((rows, d)) for d in dims[1:-1])
        self.gates = tuple(np.empty((rows, d), dtype=bool) for d in dims[1:-1])
        self.grads = np.empty(_n_params(dims))
        self.grad_w, self.grad_b = _layer_views(self.grads, dims)


def _as_batch(x, dim):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"expected input dim {dim}, got shape {x.shape}")
    return x, squeeze


def forward(net: Mlp, x, work: Workspace | None = None) -> np.ndarray:
    """Outputs for a batch (n, d_in), or (d_out,) for one row (d_in,).

    With `work`, every layer's output is written into `work.acts` and the
    input kept for `backward`; without, each layer allocates its output.
    """
    h, squeeze = _as_batch(x, net.layer_dims[0])
    if work is not None:
        if len(h) != work.rows:
            raise ShapeError(f"batch of {len(h)} rows, workspace of {work.rows}")
        work.x = h
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(h, w, out=None if work is None else work.acts[i])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h[0] if squeeze else h


def forward_cached(net: Mlp, x, work: Workspace | None = None):
    """(output, workspace): a forward whose activations `backward` reads."""
    if work is None:
        h, _ = _as_batch(x, net.layer_dims[0])
        work = Workspace(net.layer_dims, len(h))
    return forward(net, x, work), work


def backward(net: Mlp, work: Workspace, grad_out):
    """Gradients of sum(output * grad_out) w.r.t. every weight and bias.

    Reads the activations of the last forward through `work` and returns
    `work.grads`, laid out like `net.params`; `work.grad_w`/`work.grad_b`
    are its per-layer views.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != work.acts[-1].shape:
        raise ShapeError(f"grad_out shape {g.shape} != output shape {work.acts[-1].shape}")
    for i in range(net.n_layers - 1, -1, -1):
        inputs = work.x if i == 0 else work.acts[i - 1]
        np.matmul(inputs.T, g, out=work.grad_w[i])
        np.sum(g, axis=0, out=work.grad_b[i])
        if i > 0:
            g = np.matmul(g, net.weights[i].T, out=work.upstream[i - 1])
            # ReLU gate as a float multiply, so a negative g at a dead unit stays -0.0
            np.greater(inputs, 0.0, out=work.gates[i - 1])
            np.multiply(g, work.gates[i - 1], out=g)
    return work.grads


class AdamState:
    """Bias-corrected first/second moments for one Mlp, flat like its params.

    `m_w`/`m_b` and `v_w`/`v_b` are per-layer views of `m` and `v`.
    """

    def __init__(self, layer_dims, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, step: int = 0):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = step
        n = _n_params(layer_dims)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.m_w, self.m_b = _layer_views(self.m, layer_dims)
        self.v_w, self.v_b = _layer_views(self.v, layer_dims)
        self._scratch = (np.empty(n), np.empty(n))

    @classmethod
    def for_net(cls, net: Mlp, learning_rate: float = 1e-4) -> "AdamState":
        return cls(net.layer_dims, learning_rate=learning_rate)


def adam_update(net: Mlp, grads: np.ndarray, opt: AdamState) -> None:
    """One in-place adaptive-moment step on all parameters.

    `grads` is a vector laid out like `net.params`. Elementwise, in the
    order of m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= lr * (m/c1) / (sqrt(v/c2) + eps).
    """
    if grads.shape != net.params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {net.params.shape}")
    opt.step += 1
    c1 = 1.0 - opt.beta1**opt.step
    c2 = 1.0 - opt.beta2**opt.step
    m, v = opt.m, opt.v
    t, u = opt._scratch
    np.multiply(grads, 1 - opt.beta1, out=t)
    m *= opt.beta1
    m += t
    np.square(grads, out=t)
    t *= 1 - opt.beta2
    v *= opt.beta2
    v += t
    np.divide(v, c2, out=t)
    np.sqrt(t, out=t)
    t += opt.eps
    np.divide(m, c1, out=u)
    u *= opt.learning_rate
    u /= t
    net.params -= u


def copy_parameters(src: Mlp, dst: Mlp) -> None:
    """Copy src parameters into dst's own vector (layer dims must match)."""
    if src.layer_dims != dst.layer_dims:
        raise ShapeError(f"layer dims differ: {src.layer_dims} vs {dst.layer_dims}")
    np.copyto(dst.params, src.params)


def clone(net: Mlp) -> Mlp:
    twin = Mlp(net.layer_dims, seed=0)
    copy_parameters(net, twin)
    return twin


def save_checkpoint(path, net: Mlp, metadata: dict | None = None, opt: AdamState | None = None) -> None:
    doc = {
        "layer_dims": list(net.layer_dims),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "metadata": metadata or {},
    }
    if opt is not None:
        doc["optimizer"] = {
            "learning_rate": opt.learning_rate,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
            "step": opt.step,
            "m_w": [a.tolist() for a in opt.m_w],
            "v_w": [a.tolist() for a in opt.v_w],
            "m_b": [a.tolist() for a in opt.m_b],
            "v_b": [a.tolist() for a in opt.v_b],
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _load_into(views, values) -> None:
    """Write nested lists into same-shaped views; float round-trip is exact."""
    arrays = [np.array(a, dtype=np.float64) for a in values]
    if len(arrays) != len(views) or any(a.shape != v.shape for a, v in zip(arrays, views)):
        raise ShapeError("checkpoint parameter shapes do not match layer_dims")
    for view, a in zip(views, arrays):
        view[...] = a


def load_checkpoint(path):
    """Returns (net, metadata, opt-or-None); float round-trip is exact."""
    with open(path) as fh:
        doc = json.load(fh)
    net = Mlp(doc["layer_dims"], seed=0)
    _load_into(net.weights, doc["weights"])
    _load_into(net.biases, doc["biases"])
    opt = None
    if "optimizer" in doc and doc["optimizer"] is not None:
        o = doc["optimizer"]
        opt = AdamState(
            net.layer_dims, learning_rate=o["learning_rate"], beta1=o["beta1"], beta2=o["beta2"],
            eps=o["eps"], step=o["step"],
        )
        for name in ("m_w", "v_w", "m_b", "v_b"):
            _load_into(getattr(opt, name), o[name])
    return net, doc.get("metadata", {}), opt
