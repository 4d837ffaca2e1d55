"""Forward-mode jets: values carried with their gradient and Hessian.

A :class:`Jet` at n points in m variables holds the value (n,), the
gradient and, at degree 2, the Hessian.  The derivatives are stored
components first, (m, n) and (m, m, n), so each rule's numpy loops run
over the points, not over m = 2 or 3 entries.  It implements
``__array_ufunc__`` for the ufuncs of the expression grammar (``add``,
``subtract``, ``multiply``, ``true_divide``, ``negative``, ``sin``,
``cos``, ``sinh``, ``cosh``, ``sqrt`` and ``float_power``), so numpy code
written for float arrays runs unchanged on jets: ``np.sin(u) * v`` of the
seeded jets u, v is the jet of sin(u) v (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Floats and arrays in the
arithmetic are constants.  Each rule is elementwise over the points, so a
point gets the same bits in a batch of any size, and each value is the
ufunc of the values, the bits a float evaluation gives.

    >>> u, v = seed(np.array([[0.5, 2.0]]), 2)
    >>> derivatives([np.sin(u) * v], 1, 1, 2)
    array([[[1.75516512, 0.47942554]]])
"""

from __future__ import annotations

import numpy as np


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """``value`` (n,), ``grad`` (m, n) and ``hess`` (m, m, n), which is
    None for a jet of degree 1."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value, self.grad, self.hess = value, grad, hess

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*inputs)


def seed(X, degree):
    """Jets of degree 1 or 2 of the m coordinates of the points X (n, m):
    coordinate a has gradient e_a and Hessian 0."""
    n, m = X.shape
    grads = np.zeros((m, m, n))
    for a in range(m):
        grads[a, a] = 1.0
    hess = np.zeros((m, m, n)) if degree == 2 else None
    return [Jet(x, grad, hess) for x, grad in zip(X.T, grads)]


def derivatives(values, degree, n, m):
    """The gradients (n, k, m) or, at degree 2, the Hessians (n, k, m, m)
    of k values at n points, each a jet or a constant, points first."""
    zero = np.zeros((m,) * degree + (n,))
    parts = [zero if not isinstance(x, Jet) else x.grad if degree == 1 else x.hess
             for x in values]
    return np.ascontiguousarray(np.moveaxis(np.stack(parts), -1, 0))


# -- the rules ----------------------------------------------------------------

def _sym_outer(a, b):
    """a b^T + b a^T per point, of gradients a, b (m, n)."""
    ab = a[:, None] * b
    return ab + ab.swapaxes(0, 1)


def _chain(x, value, d1, d2):
    """f(x) from f, f' and a callable giving f'' at x.value: the Hessian
    f' H_x + f'' g_x g_x^T, with f'' taken only at degree 2."""
    grad = d1 * x.grad
    if x.hess is None:
        return Jet(value, grad)
    return Jet(value, grad, d1 * x.hess + d2() * (x.grad[:, None] * x.grad))


def _add(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(a.value + b, a.grad, a.hess)
    return Jet(a.value + b.value, a.grad + b.grad,
               None if a.hess is None else a.hess + b.hess)


def _negative(x):
    return Jet(-x.value, -x.grad, None if x.hess is None else -x.hess)


def _subtract(a, b):
    return _add(a, np.negative(b))     # a - b is a + (-b), bit for bit


def _multiply(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(a.value * b, a.grad * b, None if a.hess is None else a.hess * b)
    grad = a.grad * b.value + b.grad * a.value
    if a.hess is None:
        return Jet(a.value * b.value, grad)
    return Jet(a.value * b.value, grad,
               a.hess * b.value + b.hess * a.value + _sym_outer(a.grad, b.grad))


def _divide(a, b):
    if not isinstance(b, Jet):
        return Jet(a.value / b, a.grad / b, None if a.hess is None else a.hess / b)
    # q = a/b solves a = q b: q' = (a' - q b')/b, q'' = (a'' - q b'' - q'b'^T - b'q'^T)/b
    a_value, a_grad, a_hess = (a.value, a.grad, a.hess) if isinstance(a, Jet) else (a, 0.0, 0.0)
    value = a_value / b.value
    grad = (a_grad - value * b.grad) / b.value
    if b.hess is None:
        return Jet(value, grad)
    return Jet(value, grad, (a_hess - value * b.hess - _sym_outer(grad, b.grad)) / b.value)


def _elementary(f, df, sign):
    """The rule of f among sin, cos, sinh and cosh, with f' = df and f'' = sign f."""
    def rule(x):
        value = f(x.value)
        return _chain(x, value, df(x.value), lambda: sign * value)
    return rule


def _sqrt(x):
    r = np.sqrt(x.value)
    d1 = 0.5 / r
    return _chain(x, r, d1, lambda: -0.5 * d1 / x.value)


def _float_power(x, y):
    """x^y: by the chain rule for a constant y, and as exp(y log x) otherwise.
    The terms of c and c (c - 1) are left out where they vanish, so u^0 and
    u^1 hold at u = 0."""
    if isinstance(y, Jet):
        value = np.float_power(x.value if isinstance(x, Jet) else x, y.value)
        if isinstance(x, Jet):
            inv = 1.0 / x.value
            log_x = _chain(x, np.log(x.value), inv, lambda: -inv * inv)
        else:
            log_x = np.log(x)
        return _chain(y * log_x, value, value, lambda: value)
    c = y
    value = np.float_power(x.value, c)
    zero = np.zeros_like(value)
    d1 = c * np.float_power(x.value, c - 1) if c != 0 else zero
    return _chain(x, value, d1,
                  lambda: c * (c - 1) * np.float_power(x.value, c - 2) if c not in (0, 1) else zero)


_RULES = {np.add: _add, np.subtract: _subtract, np.multiply: _multiply,
          np.true_divide: _divide, np.negative: _negative, np.sqrt: _sqrt,
          np.float_power: _float_power,
          np.sin: _elementary(np.sin, np.cos, -1.0),
          np.cos: _elementary(np.cos, lambda v: -np.sin(v), -1.0),
          np.sinh: _elementary(np.sinh, np.cosh, 1.0),
          np.cosh: _elementary(np.cosh, np.sinh, 1.0)}
