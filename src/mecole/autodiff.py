"""Minimal reverse-mode autodiff over dense 2-D arrays.

An op records its parents and its backward closure only when one of its
inputs has ``requires_grad``; its result then has ``requires_grad`` too,
so the flag means "a gradient flows here". Ops on constants return plain
constants, and a backward closure returns (and computes) gradients only
for the parents that have the flag. ``backward`` topologically sorts the
implicit tape and accumulates gradients exactly once per node. Sparse
adjacency matrices enter only as constants via ``spmm``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericError

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "matmul",
    "spmm",
    "add",
    "sub",
    "mul",
    "div",
    "sigmoid",
    "sigmoid_array",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "clip",
    "take_rows",
    "take_cols",
    "pair_dot",
    "concat",
    "softmax_rows",
    "softmax_array",
    "tsum",
    "tmean",
    "row_max",
    "row_norm2",
    "Adam",
    "normalize_adjacency",
    "glorot",
    "gcn",
]


def _check_finite(values, op):
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite values produced by '{op}'")


class Tensor:
    """Dense array node on the computation tape."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None,
                 _op="leaf"):
        self.values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        _check_finite(self.values, _op)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.values.size != 1:
            raise ValueError("backward() requires a scalar output")
        # iterative post-order walk of the tape (parents first, in parent
        # order); a recursive closure would form a reference cycle that
        # keeps the whole tape alive until the cyclic GC runs
        order = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                order.append(t)
        grads = {id(self): np.ones_like(self.values)}
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t._backward is None:  # leaf
                if t.requires_grad:
                    t.grad = g if t.grad is None else t.grad + g
                continue
            for parent, pg in t._backward(g):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values):
    return Tensor(values, requires_grad=False)


def parameter(values):
    return Tensor(values, requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _make(values, parents, backward, op):
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=parents,
                      _backward=backward, _op=op)
    return Tensor(values, _op=op)


# binary ------------------------------------------------------------

def _grads(*pairs):
    """(parent, gradient) for each parent a gradient flows to; each
    gradient is a thunk, computed only for those parents."""
    return tuple((t, f()) for t, f in pairs if t.requires_grad)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def bwd(g):
        return _grads((a, lambda: _unbroadcast(g, a.shape)),
                      (b, lambda: _unbroadcast(g, b.shape)))
    return _make(a.values + b.values, (a, b), bwd, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def bwd(g):
        return _grads((a, lambda: _unbroadcast(g, a.shape)),
                      (b, lambda: _unbroadcast(-g, b.shape)))
    return _make(a.values - b.values, (a, b), bwd, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def bwd(g):
        return _grads((a, lambda: _unbroadcast(g * b.values, a.shape)),
                      (b, lambda: _unbroadcast(g * a.values, b.shape)))
    return _make(a.values * b.values, (a, b), bwd, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def bwd(g):
        return _grads(
            (a, lambda: _unbroadcast(g / b.values, a.shape)),
            (b, lambda: _unbroadcast(-g * a.values / b.values ** 2, b.shape)))
    return _make(a.values / b.values, (a, b), bwd, "div")


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def bwd(g):
        return _grads((a, lambda: g @ b.values.T), (b, lambda: a.values.T @ g))
    return _make(a.values @ b.values, (a, b), bwd, "matmul")


def spmm(a_sparse, x):
    """Sparse-constant @ dense-tensor product."""
    x = _as_tensor(x)
    a = a_sparse if sp.issparse(a_sparse) and a_sparse.format == "csr" \
        else sp.csr_matrix(a_sparse)
    def bwd(g):
        return ((x, a.T @ g),)
    return _make(a @ x.values, (x,), bwd, "spmm")


# elementwise -------------------------------------------------------

def sigmoid_array(x):
    """Logistic function of a plain array, stable at both tails:
    `exp(min(x, 0)) / (1 + exp(-|x|))`, whose `exp`s never overflow."""
    x = np.clip(x, -500, 500)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(x):
    x = _as_tensor(x)
    out_vals = sigmoid_array(x.values)

    def bwd(g):
        return ((x, g * out_vals * (1.0 - out_vals)),)
    return _make(out_vals, (x,), bwd, "sigmoid")


def tanh(x):
    x = _as_tensor(x)
    out_vals = np.tanh(x.values)
    def bwd(g):
        return ((x, g * (1.0 - out_vals ** 2)),)
    return _make(out_vals, (x,), bwd, "tanh")


def exp(x):
    x = _as_tensor(x)
    out_vals = np.exp(x.values)
    def bwd(g):
        return ((x, g * out_vals),)
    return _make(out_vals, (x,), bwd, "exp")


def log(x):
    x = _as_tensor(x)
    def bwd(g):
        return ((x, g / x.values),)
    return _make(np.log(x.values), (x,), bwd, "log")


def sqrt(x):
    x = _as_tensor(x)
    out_vals = np.sqrt(x.values)
    def bwd(g):
        return ((x, g * 0.5 / out_vals),)
    return _make(out_vals, (x,), bwd, "sqrt")


def absolute(x):
    x = _as_tensor(x)
    def bwd(g):
        return ((x, g * np.sign(x.values)),)
    return _make(np.abs(x.values), (x,), bwd, "abs")


def clip(x, lo, hi):
    """Clamp values; gradient passes only through the interior."""
    x = _as_tensor(x)
    mask = (x.values > lo) & (x.values < hi)
    def bwd(g):
        return ((x, g * mask),)
    return _make(np.clip(x.values, lo, hi), (x,), bwd, "clip")


# structural --------------------------------------------------------

def _incidence(idx, w, rows):
    """`rows x len(idx)` matrix whose column j holds `w[j]` at row `idx[j]`.
    Its product with a dense `m` adds `w[j] * m[j]` into row `idx[j]` in
    ascending j, the order in which `np.add.at` adds them."""
    return sp.csc_matrix((w, idx, np.arange(idx.size + 1)),
                         shape=(rows, idx.size))


def _scatter_rows(idx, g, rows):
    """Row i of the result sums the rows j of `g` with `idx[j] == i`, in
    ascending j: one product with a 0/1 incidence matrix."""
    return _incidence(idx, np.ones(idx.size), rows) @ g


def take_rows(x, idx):
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    def bwd(g):
        return ((x, _scatter_rows(idx, g, x.shape[0])),)
    return _make(x.values[idx], (x,), bwd, "take_rows")


def take_cols(x, idx):
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    def bwd(g):
        return ((x, np.ascontiguousarray(
            _scatter_rows(idx, g.T, x.shape[1]).T)),)
    return _make(x.values[:, idx], (x,), bwd, "take_cols")


def pair_dot(x, u, v):
    """Row dots `x[u[j]] . x[v[j]]` as a column: one tape node with the
    values and gradient bits of `tsum(mul(take_rows(x, u), take_rows(x,
    v)), axis=1)`. Each side's gradient is one weighted incidence product,
    the v side first as the composite adds them; no P x d gradient is
    built."""
    x = _as_tensor(x)
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    xu, xv = x.values[u], x.values[v]
    def bwd(g):
        w, rows = g.ravel(), x.shape[0]
        return ((x, _incidence(v, w, rows) @ xu),
                (x, _incidence(u, w, rows) @ xv))
    return _make((xu * xv).sum(axis=1, keepdims=True), (x,), bwd, "pair_dot")


def concat(parts):
    """Column-wise concatenation."""
    parts = tuple(_as_tensor(p) for p in parts)
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]
    def bwd(g):
        grads = zip(parts, np.split(g, splits, axis=1))
        return tuple((p, pg) for p, pg in grads if p.requires_grad)
    return _make(np.concatenate([p.values for p in parts], axis=1), parts,
                 bwd, "concat")


def softmax_array(x):
    """Row softmax of a plain 2-D array, shifted by each row's maximum."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(x):
    x = _as_tensor(x)
    out_vals = softmax_array(x.values)
    def bwd(g):
        dot = (g * out_vals).sum(axis=1, keepdims=True)
        return ((x, out_vals * (g - dot)),)
    return _make(out_vals, (x,), bwd, "softmax_rows")


# reductions --------------------------------------------------------

def tsum(x, axis=None):
    x = _as_tensor(x)
    out_vals = x.values.sum(axis=axis, keepdims=True)
    def bwd(g):
        return ((x, np.broadcast_to(g, x.shape).copy()),)
    return _make(out_vals, (x,), bwd, "sum")


def tmean(x):
    x = _as_tensor(x)
    out_vals = x.values.mean(keepdims=True)
    def bwd(g):
        return ((x, np.broadcast_to(g / x.values.size, x.shape).copy()),)
    return _make(out_vals, (x,), bwd, "mean")


def row_max(x):
    """Max over each row; ties route gradient to the first maximizer."""
    x = _as_tensor(x)
    arg = x.values.argmax(axis=1)
    out_vals = x.values[np.arange(x.shape[0]), arg][:, None]
    def bwd(g):
        gx = np.zeros_like(x.values)
        gx[np.arange(x.shape[0]), arg] = g[:, 0]
        return ((x, gx),)
    return _make(out_vals, (x,), bwd, "row_max")


def row_norm2(x):
    """Euclidean norm of each row, with a zero-safe gradient at 0."""
    x = _as_tensor(x)
    out_vals = np.sqrt((x.values ** 2).sum(axis=1, keepdims=True))
    def bwd(g):
        denom = np.where(out_vals > 0, out_vals, 1.0)
        return ((x, g * x.values / denom),)
    return _make(out_vals, (x,), bwd, "row_norm2")


# GCN building blocks -----------------------------------------------

def normalize_adjacency(graph_or_adj):
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    adj = graph_or_adj if sp.issparse(graph_or_adj) else graph_or_adj.adjacency
    n = adj.shape[0]
    a_hat = sp.csr_matrix(adj, dtype=np.float64) + sp.identity(n, format="csr")
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    d_mat = sp.diags(d_inv_sqrt)
    return sp.csr_matrix(d_mat @ a_hat @ d_mat)


def glorot(rng, rows, cols):
    """Glorot & Bengio (AISTATS 2010) uniform initialization, drawn from
    `rng`, as a parameter."""
    scale = np.sqrt(6.0 / (rows + cols))
    return parameter(rng.uniform(-scale, scale, size=(rows, cols)))


def gcn(a_hats, X, w1, w2, mix=None):
    """Two-layer GCN (Kipf & Welling, ICLR 2017): A tanh(A X W1) W2.

    With several adjacency channels, A is their sum weighted by
    softmax(mix), recomputed at each layer. With X=None the first layer
    acts on implicit identity features, so `w1` is a free per-node
    embedding. `X` is an array or a constant tensor.
    """
    def propagate(h):
        if len(a_hats) == 1:
            return spmm(a_hats[0], h)
        weights = softmax_rows(mix)
        out = None
        for c, a_hat in enumerate(a_hats):
            term = mul(spmm(a_hat, h), take_cols(weights, [c]))
            out = term if out is None else add(out, term)
        return out

    if X is None:
        h1 = tanh(propagate(w1))
    else:
        h1 = tanh(matmul(propagate(_as_tensor(X)), w1))
    return matmul(propagate(h1), w2)


# optimizer ---------------------------------------------------------

class Adam:
    """Adam with bias correction and a global gradient-norm clip."""

    def __init__(self, params, lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                 clip_norm=5.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise NumericError("parameter registered with Adam has no gradient")
        grads = [p.grad for p in self.params]
        if self.clip_norm is not None:
            total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = [g * scale for g in grads]
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g ** 2
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            _check_finite(p.values, "adam_step")

