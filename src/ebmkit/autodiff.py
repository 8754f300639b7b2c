"""Dense-tensor reverse-mode differentiation with a replayable tape.

Values are 64-bit numpy arrays. Every operation applied while a Tape is
active is recorded as a node (op kind, parent ids, cached value), and the
backward pass emits its vector-Jacobian products as *new tape nodes*, so
gradients are themselves differentiable: calling :func:`gradient` on the
output of a previous :func:`gradient` call yields exact second-order
derivatives. This is what lets a Langevin chain be differentiated
end-to-end (each chain step contains a gradient of the energy).

Broadcasting is deliberately restricted to row-wise bias addition and the
explicit ``bcast*`` ops; everything else requires exact shape agreement.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DimensionError, TapeLookupError

_state = threading.local()


def _tape_stack():
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def active_tape():
    """The innermost Tape currently entered on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Append-only record of operations.

    Nodes are stored in topological order by construction (an op can only
    consume ids that already exist). ``parameter_ids`` marks leaves created
    with ``param=True`` so optimizers can find them.
    """

    def __init__(self):
        self.kinds = []
        self.parents = []
        self.values = []
        self.attrs = []
        self.parameter_ids = []

    def __len__(self):
        return len(self.kinds)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def _record(self, kind, value, parent_ids, attrs=None):
        nid = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(parent_ids)
        self.values.append(value)
        self.attrs.append(attrs)
        return Tensor(value, self, nid)

    def leaf(self, value, param=False):
        """Create a tracked leaf holding ``value`` (not copied)."""
        value = _as_array(value)
        t = self._record("leaf", value, ())
        if param:
            self.parameter_ids.append(t.node)
        return t

    def value_of(self, nid):
        try:
            return self.values[nid]
        except IndexError:
            raise TapeLookupError(f"node {nid} not on tape") from None

    def replay(self):
        """Recompute every non-leaf node from its parents.

        Returns the list of recomputed values; used to verify the invariant
        that forward replay reproduces cached values bit-exactly.
        """
        out = []
        for nid, kind in enumerate(self.kinds):
            if kind == "leaf":
                out.append(self.values[nid])
            else:
                pv = [out[p] for p in self.parents[nid]]
                out.append(_FORWARD[kind](pv, self.attrs[nid]))
        return out


class Tensor:
    """A numpy value plus an optional handle into the tape that made it."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=None):
        self.data = data
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        tracked = f", node={self.node}" if self.node is not None else ""
        return f"Tensor(shape={self.data.shape}{tracked})"


def _as_array(value):
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return value
        return value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


def constant(value):
    """An untracked tensor (contributes zero gradient everywhere)."""
    return Tensor(_as_array(value))


def _operand(x, tape):
    """Return (value, node-id-or-None on ``tape``) for an op input."""
    if isinstance(x, Tensor):
        if tape is not None and x.tape is tape and x.node is not None:
            return x.data, x.node
        return x.data, None
    return _as_array(x), None


def _apply(kind, operands, attrs=None):
    tape = active_tape()
    vals = []
    nids = []
    tracked = False
    for x in operands:
        v, nid = _operand(x, tape)
        vals.append(v)
        nids.append(nid)
        tracked = tracked or nid is not None
    value = _FORWARD[kind](vals, attrs)
    if tape is None or not tracked:
        return Tensor(value)
    parent_ids = tuple(
        nid if nid is not None else tape.leaf(v).node
        for nid, v in zip(nids, vals)
    )
    return tape._record(kind, value, parent_ids, attrs)


# ---------------------------------------------------------------------------
# Forward rules. Each takes (parent_values, attrs) so the tape can replay.
# ---------------------------------------------------------------------------


def _check_matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")


_FORWARD = {
    "leaf": None,
    "matmul": lambda p, _: p[0] @ p[1],
    "transpose": lambda p, _: p[0].T.copy(),
    "add": lambda p, _: p[0] + p[1],
    "sub": lambda p, _: p[0] - p[1],
    "mul": lambda p, _: p[0] * p[1],
    "neg": lambda p, _: -p[0],
    "scale": lambda p, a: p[0] * a["c"],
    "add_row": lambda p, _: p[0] + p[1],
    "mul_scalar": lambda p, _: p[0] * p[1],
    "reciprocal": lambda p, _: 1.0 / p[0],
    "sigmoid": lambda p, _: stable_sigmoid(p[0]),
    "leaky_relu": lambda p, a: np.where(p[0] > 0, p[0], a["slope"] * p[0]),
    "clip": lambda p, a: np.clip(p[0], a["lo"], a["hi"]),
    "sum_all": lambda p, _: np.asarray(p[0].sum()),
    "sum0": lambda p, _: p[0].sum(axis=0),
    "sum1": lambda p, _: p[0].sum(axis=1, keepdims=True),
    "bcast": lambda p, a: np.broadcast_to(p[0], a["shape"]).copy(),
    "bcast0": lambda p, a: np.broadcast_to(p[0], (a["rows"],) + p[0].shape).copy(),
    "bcast1": lambda p, a: np.broadcast_to(p[0], (p[0].shape[0], a["cols"])).copy(),
    "take_rows": lambda p, a: p[0][a["indices"]],
    "scatter_rows": lambda p, a: _scatter_rows(p[0], a["indices"], a["rows"]),
    "reshape": lambda p, a: p[0].reshape(a["shape"]),
}


def stable_sigmoid(x):
    """Elementwise 1 / (1 + exp(-x)) on a plain array, overflow-safe and
    mask-free: exp is only ever taken of -|x|, in place in a buffer made
    explicitly (a ufunc on a 0-d array would return a read-only scalar)."""
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    # numerator 1 where x >= 0, else e: exact, as e lies in [0, 1]
    out = np.array(x >= 0, dtype=x.dtype)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def _scatter_rows(g, indices, rows):
    out = np.zeros((rows, g.shape[1]))
    np.add.at(out, indices, g)
    return out


# ---------------------------------------------------------------------------
# Public ops
# ---------------------------------------------------------------------------


def matmul(a, b):
    av = a.data if isinstance(a, Tensor) else _as_array(a)
    bv = b.data if isinstance(b, Tensor) else _as_array(b)
    _check_matmul(av, bv)
    return _apply("matmul", (a, b))


def transpose(a):
    return _apply("transpose", (a,))


def _check_same_shape(name, a, b):
    av = a.data if isinstance(a, Tensor) else _as_array(a)
    bv = b.data if isinstance(b, Tensor) else _as_array(b)
    if av.shape != bv.shape:
        raise DimensionError(f"{name} shapes {av.shape} vs {bv.shape}")


def add(a, b):
    _check_same_shape("add", a, b)
    return _apply("add", (a, b))


def sub(a, b):
    _check_same_shape("sub", a, b)
    return _apply("sub", (a, b))


def mul(a, b):
    _check_same_shape("mul", a, b)
    return _apply("mul", (a, b))


def neg(a):
    return _apply("neg", (a,))


def scale(a, c):
    return _apply("scale", (a,), {"c": float(c)})


def add_row(mat, row):
    mv = mat.data if isinstance(mat, Tensor) else _as_array(mat)
    rv = row.data if isinstance(row, Tensor) else _as_array(row)
    if mv.ndim != 2 or rv.shape != (mv.shape[1],):
        raise DimensionError(f"add_row shapes {mv.shape} + {rv.shape}")
    return _apply("add_row", (mat, row))


def mul_scalar(a, s):
    sv = s.data if isinstance(s, Tensor) else _as_array(s)
    if sv.shape != ():
        raise DimensionError(f"mul_scalar scalar has shape {sv.shape}")
    return _apply("mul_scalar", (a, s))


def reciprocal(a):
    return _apply("reciprocal", (a,))


def sigmoid(a):
    return _apply("sigmoid", (a,))


def leaky_relu(a, slope=0.2):
    return _apply("leaky_relu", (a,), {"slope": float(slope)})


def swish(a):
    """x * sigmoid(x); composite, so its adjoint comes from the primitives."""
    return mul(a, sigmoid(a))


def activation(a, kind):
    if kind == "swish":
        return swish(a)
    if kind == "leaky_relu":
        return leaky_relu(a)
    raise ContractError(f"unsupported activation {kind!r}")


def clip(a, lo, hi):
    return _apply("clip", (a,), {"lo": float(lo), "hi": float(hi)})


def sum_all(a):
    return _apply("sum_all", (a,))


def mean_all(a):
    av = a.data if isinstance(a, Tensor) else _as_array(a)
    return scale(sum_all(a), 1.0 / av.size)


def sum0(a):
    return _apply("sum0", (a,))


def sum1(a):
    return _apply("sum1", (a,))


def bcast(a, shape):
    av = a.data if isinstance(a, Tensor) else _as_array(a)
    if av.size != 1:
        raise DimensionError("bcast input must have a single element")
    return _apply("bcast", (a,), {"shape": tuple(shape)})


def bcast0(a, rows):
    return _apply("bcast0", (a,), {"rows": int(rows)})


def bcast1(a, cols):
    return _apply("bcast1", (a,), {"cols": int(cols)})


def take_rows(a, indices):
    av = a.data if isinstance(a, Tensor) else _as_array(a)
    indices = np.asarray(indices, dtype=np.intp)
    if av.ndim != 2:
        raise DimensionError("take_rows expects a matrix")
    if indices.size and (indices.min() < 0 or indices.max() >= av.shape[0]):
        raise DimensionError("take_rows index out of range")
    return _apply("take_rows", (a,), {"indices": indices})


def scatter_rows(a, indices, rows):
    indices = np.asarray(indices, dtype=np.intp)
    return _apply("scatter_rows", (a,), {"indices": indices, "rows": int(rows)})


def reshape(a, shape):
    return _apply("reshape", (a,), {"shape": tuple(shape)})


# ---------------------------------------------------------------------------
# Backward rules. Each returns one contribution per parent (or None); the
# contributions are built from public ops, so they land on the tape and are
# themselves differentiable.
# ---------------------------------------------------------------------------


def _vjp_matmul(g, parents, out, attrs):
    a, b = parents
    return matmul(g, transpose(b)), matmul(transpose(a), g)


def _vjp_clip(g, parents, out, attrs):
    (a,) = parents
    inside = ((a.data > attrs["lo"]) & (a.data < attrs["hi"])).astype(np.float64)
    return (mul(g, constant(inside)),)


def _vjp_leaky(g, parents, out, attrs):
    (a,) = parents
    slope_mask = np.where(a.data > 0, 1.0, attrs["slope"])
    return (mul(g, constant(slope_mask)),)


def _vjp_sigmoid(g, parents, out, attrs):
    ones = constant(np.ones_like(out.data))
    return (mul(g, mul(out, sub(ones, out))),)


_VJP = {
    "matmul": _vjp_matmul,
    "transpose": lambda g, p, o, a: (transpose(g),),
    "add": lambda g, p, o, a: (g, g),
    "sub": lambda g, p, o, a: (g, neg(g)),
    "mul": lambda g, p, o, a: (mul(g, p[1]), mul(g, p[0])),
    "neg": lambda g, p, o, a: (neg(g),),
    "scale": lambda g, p, o, a: (scale(g, a["c"]),),
    "add_row": lambda g, p, o, a: (g, sum0(g)),
    "mul_scalar": lambda g, p, o, a: (mul_scalar(g, p[1]), sum_all(mul(g, p[0]))),
    "reciprocal": lambda g, p, o, a: (neg(mul(g, mul(o, o))),),
    "sigmoid": _vjp_sigmoid,
    "leaky_relu": _vjp_leaky,
    "clip": _vjp_clip,
    "sum_all": lambda g, p, o, a: (bcast(g, p[0].data.shape),),
    "sum0": lambda g, p, o, a: (bcast0(g, p[0].data.shape[0]),),
    "sum1": lambda g, p, o, a: (bcast1(g, p[0].data.shape[1]),),
    "bcast": lambda g, p, o, a: (reshape(sum_all(g), p[0].data.shape),),
    "bcast0": lambda g, p, o, a: (sum0(g),),
    "bcast1": lambda g, p, o, a: (sum1(g),),
    "take_rows": lambda g, p, o, a: (
        scatter_rows(g, a["indices"], p[0].data.shape[0]),
    ),
    "scatter_rows": lambda g, p, o, a: (take_rows(g, a["indices"]),),
    "reshape": lambda g, p, o, a: (reshape(g, p[0].data.shape),),
}


def gradient(output, wrt):
    """Reverse-mode gradients of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    The returned tensors live on the same tape, so the result can be fed
    back into :func:`gradient` for higher-order derivatives. Tensors in
    ``wrt`` that the output does not depend on (or that are detached) get
    an untracked zero tensor.
    """
    if not isinstance(output, Tensor) or output.tape is None or output.node is None:
        raise TapeLookupError("gradient output is not on a tape")
    if output.data.size != 1:
        raise ContractError(f"gradient output must be scalar, got shape {output.data.shape}")
    tape = output.tape
    wrt = list(wrt)
    for w in wrt:
        if not isinstance(w, Tensor) or w.tape is None:
            continue
        if w.tape is not tape:
            raise TapeLookupError("wrt tensor lives on a different tape")
        if w.node is None or w.node >= len(tape):
            raise TapeLookupError(f"wrt node {w.node} not on tape")

    out_id = output.node
    wrt_ids = {w.node for w in wrt if isinstance(w, Tensor) and w.tape is tape}

    # Nodes that depend on some wrt (forward reachability)...
    n = out_id + 1
    from_wrt = np.zeros(n, dtype=bool)
    for wid in wrt_ids:
        if wid < n:
            from_wrt[wid] = True
    parents = tape.parents
    if wrt_ids:
        start = min(wrt_ids)
        for nid in range(start, n):
            if not from_wrt[nid]:
                for p in parents[nid]:
                    if from_wrt[p]:
                        from_wrt[nid] = True
                        break

    # ...intersected with ancestors of the output.
    to_out = np.zeros(n, dtype=bool)
    stack = [out_id]
    while stack:
        nid = stack.pop()
        if to_out[nid]:
            continue
        to_out[nid] = True
        for p in parents[nid]:
            if not to_out[p] and from_wrt[p]:
                stack.append(p)

    live = from_wrt & to_out
    adjoints = {}
    captured = {}
    with tape:
        if live[out_id]:
            adjoints[out_id] = tape.leaf(np.ones_like(output.data))
        for nid in range(out_id, -1, -1):
            g = adjoints.pop(nid, None)
            if g is None or not live[nid]:
                continue
            if nid in wrt_ids:
                captured[nid] = g
            kind = tape.kinds[nid]
            parent_ids = parents[nid]
            if kind == "leaf" or not any(live[p] for p in parent_ids):
                continue
            parent_tensors = tuple(
                Tensor(tape.values[p], tape, p) for p in parent_ids
            )
            out_tensor = Tensor(tape.values[nid], tape, nid)
            contribs = _VJP[kind](g, parent_tensors, out_tensor, tape.attrs[nid])
            for pid, contrib in zip(parent_ids, contribs):
                if contrib is None or not live[pid]:
                    continue
                prev = adjoints.get(pid)
                adjoints[pid] = contrib if prev is None else add(prev, contrib)

    results = []
    for w in wrt:
        g = captured.get(w.node) if isinstance(w, Tensor) and w.tape is tape else None
        if g is None:
            g = constant(np.zeros_like(w.data))
        results.append(g)
    return results
