"""Minimal reverse-mode autodiff over dense 2-D arrays.

An op records its parents and its backward closure only when one of its
inputs has ``requires_grad``; its result then has ``requires_grad`` too,
so the flag means "a gradient flows here". Ops on constants return plain
constants, and a backward closure returns (and computes) gradients only
for the parents that have the flag. ``backward`` topologically sorts the
implicit tape and accumulates gradients once per node: the first
contribution is kept as given, the second makes a fresh `a + b` and later
ones add into that sum in place, so no array a backward returns is ever
written. ``backward`` consumes the tape: a node drops its parents and its
backward closure once it has passed its gradient on, so each forward array
is freed when the last node that reads it is done, and a later
``backward`` whose tape reaches such a node raises ``RuntimeError``
(leaves stay reusable). Sparse adjacency matrices enter only as constants,
via ``spmm`` and ``gcn``. ``gcn_arrays`` is the one two-layer GCN, whose
output layer applies W2 before Â, on plain arrays in their dtype: the
encoders run it as the ``gcn`` tape node, and the modularity init in
float32. Its backward is written out by hand with the operations of the
composite it replaced, in the order the tape ran them, so its gradients
keep their bits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericError

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
    "gcn_arrays",
    "gcn",
]


PAIR_BUDGET = 2 ** 16  # gathered entries per block in `pair_dot`: 512 KiB


def _check_finite(values, op):
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite values produced by '{op}'")


class Tensor:
    """Dense array node on the computation tape."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward",
                 "_consumed")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None,
                 _op="leaf"):
        self.values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        _check_finite(self.values, _op)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._consumed = False  # a backward has walked this node

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add this scalar's gradient into each `requires_grad` leaf's
        `grad`; only a sum made here is added into in place. A node that
        has passed its gradient on drops its parents and backward, so a
        tape that reaches a node an earlier walk consumed is an error."""
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
                if t._consumed:
                    raise RuntimeError(
                        "backward() through a tape that an earlier "
                        "backward() consumed; build the loss again")
                order.append(t)
        grads = {id(self): np.ones_like(self.values)}
        owned = set()  # nodes whose entry in `grads` was allocated here
        while order:
            t = order.pop()
            if id(t) not in grads:
                continue
            if t._backward is None:  # leaf
                g = grads.pop(id(t))
                if t.requires_grad:
                    t.grad = g if t.grad is None else t.grad + g
                continue
            # popped straight into the call, the gradient is referenced only
            # by the node's backward, which may free it part-way through
            for parent, pg in t._backward(grads.pop(id(t))):
                key = id(parent)
                if key in owned:
                    grads[key] += pg
                elif key in grads:
                    grads[key] = grads[key] + pg
                    owned.add(key)
                else:
                    grads[key] = pg
                del pg  # `grads` holds it now, until its node is reached
            t._parents, t._backward, t._consumed = (), None, True


def constant(values):
    return Tensor(values, requires_grad=False)


def parameter(values):
    return Tensor(values, requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum 2-D `grad` down to 2-D `shape` (reverse of numpy broadcasting)."""
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


def _csr(a):
    return a if sp.issparse(a) and a.format == "csr" else sp.csr_matrix(a)


def spmm(a_sparse, x):
    """Sparse-constant @ dense-tensor product."""
    x = _as_tensor(x)
    a = _csr(a_sparse)
    def bwd(g):
        return ((x, a.T @ g),)
    return _make(a @ x.values, (x,), bwd, "spmm")


# elementwise -------------------------------------------------------

def sigmoid_array(x, out=None):
    """Logistic function of a plain array, stable at both tails:
    `exp(min(x, 0)) / (1 + exp(-|x|))`, whose `exp`s never overflow. Given
    `out`, another array of x's shape, the result goes there and `x` ends
    as the denominator, so no temporary is made; else `x` is kept."""
    tmp = None if out is None else x
    x = np.clip(x, -500, 500, out=tmp)
    num = np.exp(np.minimum(x, 0.0, out=out), out=out)
    den = np.add(1.0, np.exp(np.negative(np.abs(x, out=tmp), out=tmp),
                             out=tmp), out=tmp)
    return np.divide(num, den, out=out)


def sigmoid(x):
    x = _as_tensor(x)
    out_vals = sigmoid_array(x.values)

    def bwd(g):
        return ((x, g * out_vals * (1.0 - out_vals)),)
    return _make(out_vals, (x,), bwd, "sigmoid")


def _tanh_back(y, g, out=None):
    """tanh's input gradient `(1 - y*y) * g` from its output `y`, in one
    buffer: `out` if given (`y`'s or any spent one, never `g`'s)."""
    dx = np.multiply(y, y, out=out)
    np.subtract(1.0, dx, out=dx)
    dx *= g
    return dx


def tanh(x):
    x = _as_tensor(x)
    out_vals = np.tanh(x.values)
    def bwd(g):
        return ((x, _tanh_back(out_vals, g)),)
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

def _scatter(rows, cols, w, x, n):
    """The product of `x` with the `n x len(x)` COO matrix of entries `w[j]`
    at `(rows[j], cols[j])`: it adds `w[j] * x[cols[j]]` into row
    `rows[j]` in ascending j, repeats and zeros included, the order in
    which `np.add.at` adds them."""
    return sp.coo_matrix((w, (rows, cols)), shape=(n, x.shape[0])) @ x


def take_rows(x, idx):
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    def bwd(g):
        return ((x, _scatter(idx, np.arange(idx.size), np.ones(idx.size), g,
                             x.shape[0])),)
    return _make(x.values[idx], (x,), bwd, "take_rows")


def pair_dot(x, u, v):
    """Row dots `x[u[j]] . x[v[j]]` as a column: one tape node with the
    values and gradient bits of `tsum(mul(take_rows(x, u), take_rows(x,
    v)), axis=1)`, and no P x d array in either direction.

    The forward takes `PAIR_BUDGET // d` pairs (at least one) at a time:
    both gathers of a block, their product in place, and its row sums
    written into the output. Every row gets the composite's product and
    pairwise row sum, so the values are bit-equal. The backward returns the
    v side, then the u side, as the composite adds them; each is one sparse
    product with `x` (`_scatter`), bit-equal to scattering the gathered
    rows."""
    x = _as_tensor(x)
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    xs = x.values
    out = np.empty((u.size, 1))
    step = max(PAIR_BUDGET // max(xs.shape[1], 1), 1)
    for lo in range(0, u.size, step):
        block = np.take(xs, u[lo:lo + step], axis=0)
        block *= np.take(xs, v[lo:lo + step], axis=0)
        block.sum(axis=1, out=out[lo:lo + step, 0])
    def bwd(g):
        w, n = g.ravel(), xs.shape[0]
        return ((x, _scatter(v, u, w, xs, n)), (x, _scatter(u, v, w, xs, n)))
    return _make(out, (x,), bwd, "pair_dot")


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
    """Row softmax of a plain 2-D array, shifted by each row's maximum,
    taken down a transposed copy (`max(axis=1)` is slow on short rows)."""
    e = np.exp(x - np.ascontiguousarray(x.T).max(axis=0)[:, None])
    return e / e.sum(axis=1, keepdims=True)


def _softmax_back(s, g):
    """Gradient of a row softmax's input, given its output `s` and the
    output's gradient `g`."""
    dot = (g * s).sum(axis=1, keepdims=True)
    return s * (g - dot)


def softmax_rows(x):
    x = _as_tensor(x)
    out_vals = softmax_array(x.values)
    def bwd(g):
        return ((x, _softmax_back(out_vals, g)),)
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

def normalize_adjacency(graph):
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2, the
    data of A + I scaled by d = diag(D^-1/2) as `(d_i a_ij) d_j`. A + I
    takes its structure from the graph's pattern, and each of its rows
    holds the diagonal, so each row sum is one segment's `reduceat`, as in
    `a_hat.sum(axis=1)`. A degree that is not positive, as negative edge
    weights can make, is a `DataError` that names its node."""
    a_hat = graph.plus_identity()
    degree = np.add.reduceat(a_hat.data, a_hat.indptr[:-1])
    bad = np.flatnonzero(degree <= 0)
    if bad.size:
        raise DataError(f"node {bad[0]} has degree {degree[bad[0]]:g} in "
                        "A + I, which must be positive to normalize")
    d = 1.0 / np.sqrt(degree)
    a_hat.data *= np.repeat(d, np.diff(a_hat.indptr))
    a_hat.data *= d[a_hat.indices]
    return a_hat


def glorot(rng, rows, cols):
    """Glorot & Bengio (AISTATS 2010) uniform initialization, drawn from
    `rng`, as a parameter."""
    scale = np.sqrt(6.0 / (rows + cols))
    return parameter(rng.uniform(-scale, scale, size=(rows, cols)))


def _mix(parts, s):
    """`sum_c s[c] parts[c]`; one channel's sum is its part. The terms are
    scaled and added in channel order, as the tape's `mul` and `add` nodes
    did."""
    if len(parts) == 1:
        return parts[0]
    out = parts[0] * s[:, :1]
    for c in range(1, len(parts)):
        out += parts[c] * s[:, c:c + 1]
    return out


def _propagate(a_hats, h, s):
    """`sum_c s[c] Â_c h` and the products `Â_c h`."""
    parts = [a @ h for a in a_hats]
    return _mix(parts, s), parts


def _propagate_back(a_hats, g, s, parts, need_h, need_s):
    """Gradients of `_propagate`'s `h` and of its 1 x C weights `s`, given
    the sum's gradient `g` (None where not needed). Â is symmetric only up
    to rounding on weighted graphs, so this takes Âᵀ. The tape reached the
    channels last first: it added each `Âᵀ_c (g s[c])` into the sum of the
    ones before, and put each `sum(g * Â_c h)` into `s`'s gradient, whose
    other entries it left zero."""
    if len(a_hats) == 1:
        return (a_hats[0].T @ g if need_h else None), None
    g_h, g_s = None, np.zeros_like(s) if need_s else None
    for c in reversed(range(len(a_hats))):
        if need_s:
            g_s[0, c] += _unbroadcast(g * parts[c], (1, 1))[0, 0]
        if need_h:
            term = a_hats[c].T @ (g * s[:, c:c + 1])
            if g_h is None:
                g_h = term
            else:
                g_h += term
    return g_h, g_s


def gcn_arrays(a_hats, xs, w1, w2, mix, error):
    """Two-layer GCN (Kipf & Welling, ICLR 2017) A tanh(A X W1) W2 on plain
    arrays, in the dtype of the CSR matrices `a_hats`, to which W1's and
    W2's values and the mix weights are cast; W2 acts before A, so the
    output layer's sparse products are output-wide. With several channels
    A is their sum weighted by softmax(mix), else `mix` is None. `xs`
    holds each channel's A_c X, or is None for identity features, which
    make `w1` a free per-node embedding. A non-finite first-layer
    pre-activation, which tanh would hide, raises `NumericError(error)`.

    Returns the output and its backward, which maps the output's gradient
    to `(parameter, gradient)` pairs for those of `w1`, `w2` and `mix` that
    require one. Both run the NumPy and SciPy operations of the `spmm`,
    `mul`, `add`, `matmul` and `tanh` nodes this replaced, in the tape's
    order, so float64 values and gradients keep their bits. The backward
    keeps H1 = tanh(...), written over its pre-activation, with X also A X,
    and for the mix's gradient each A_c (H1 W2) and A_c X or A_c W1.
    """
    dt = a_hats[0].dtype
    w1_v, w2_v = (w.values.astype(dt, copy=False) for w in (w1, w2))
    s = None if mix is None else softmax_array(mix.values).astype(
        dt, copy=False)
    if xs is None:
        z1, parts1 = _propagate(a_hats, w1_v, s)
    else:
        x1, parts1 = _mix(xs, s), xs
        z1 = x1 @ w1_v
    if not np.isfinite(z1).all():
        raise NumericError(error)
    h1 = np.tanh(z1, out=z1)
    out, parts2 = _propagate(a_hats, h1 @ w2_v, s)
    need_s = mix is not None and mix.requires_grad

    def bwd(g):
        g_y, g_s2 = _propagate_back(a_hats, g, s, parts2, True, need_s)
        del g
        g_w2 = h1.T @ g_y if w2.requires_grad else None
        g_h1 = g_y @ w2_v.T
        del g_y
        g_z1 = _tanh_back(h1, g_h1, out=h1)  # h1 is spent
        del g_h1
        if xs is None:
            g_w1, g_s1 = _propagate_back(a_hats, g_z1, s, parts1,
                                         w1.requires_grad, need_s)
        else:
            g_w1 = x1.T @ g_z1 if w1.requires_grad else None
            g_s1 = _propagate_back(a_hats, g_z1 @ w1_v.T, s, parts1,
                                   False, True)[1] if need_s else None
        grads = ((w1, g_w1), (w2, g_w2))
        if need_s:
            grads += ((mix, _softmax_back(s, g_s2) + _softmax_back(s, g_s1)),)
        return tuple((t, pg) for t, pg in grads if t.requires_grad)

    return out, bwd


def gcn(a_hats, X, w1, w2, mix=None):
    """`gcn_arrays` as one tape node, in the adjacencies' dtype: X, an
    array or a constant tensor, is cast to it and propagated here, and the
    node's backward is the one `gcn_arrays` returns."""
    a_hats = [_csr(a) for a in a_hats]
    w1, w2 = _as_tensor(w1), _as_tensor(w2)
    mix = _as_tensor(mix) if len(a_hats) > 1 else None
    x = X.values if isinstance(X, Tensor) else X
    xs = None if X is None else [a @ np.asarray(x, dtype=a.dtype)
                                 for a in a_hats]
    out, bwd = gcn_arrays(a_hats, xs, w1, w2, mix,
                          "non-finite values produced by 'gcn'")
    params = (w1, w2) if mix is None else (w1, w2, mix)
    return _make(out, params, bwd, "gcn")


# optimizer ---------------------------------------------------------

class Adam:
    """Adam with bias correction (betas 0.9 and 0.999, eps 1e-8) and a
    global gradient-norm clip at 5."""

    beta1, beta2, eps, clip_norm = 0.9, 0.999, 1e-8, 5.0

    def __init__(self, params, lr=0.01):
        self.params = list(params)
        self.lr = lr
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

