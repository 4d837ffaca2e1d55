"""Forward-mode jets and truncated Taylor series: values carried with their
derivatives through numpy code written for float arrays.

A :class:`Jet` holds a value (...) with its gradient (k, ...) and Hessian
(k, k, ...) in k variables, derivative axes first, so each rule's numpy
loops run over the points, not over k = 2 or 3 entries.  It acts over the
last axis as an array does (indexing, ``np.stack``, ``np.concatenate``,
``@`` a constant, ``np.asarray`` for the value), and the ufuncs of
arithmetic, powers, ``sqrt``, ``sin``, ``cos``, ``sinh`` and ``cosh``
carry it: a chart map written for float arrays, run on the jet of its
points (:meth:`Jet.variable`), returns the jet of its values (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Floats
and arrays in the arithmetic are constants.  Each rule is elementwise
over the points, so a point gets the same bits in a batch of any size,
and each value is the ufunc of the values, the float evaluation's bits.

    >>> x = Jet.variable(np.array([[0.5, 2.0]]))
    >>> (np.sin(x[..., 0]) * x[..., 1]).grad[:, 0]
    array([1.75516512, 0.47942554])

A :class:`Taylor` series in one variable, of degree 4 (``DEGREE``), holds
the normalized coefficients x^(k)(t)/k! of a value at each point,
coefficients first, (5, ...).  The same ufuncs, ``np.exp``, ``np.log`` and
``np.power`` (products for a small integer exponent, so that the value may
be 0) carry it, and ``np.stack``, ``np.concatenate`` and ``np.zeros_like``
through ``__array_function__``.  Products and quotients are the Cauchy
recurrences, ``sqrt`` and powers the recurrence of x y' = a x' y, log the
quotient x'/x integrated, and sin, cos, sinh, cosh and exp the coupled one
of f and f' (ch. 13 there).  Each result has the lower degree of its
operands, and d/dt (:meth:`Taylor.d`), the coefficient shift, lowers it by
one.  As for jets, each coefficient is elementwise over the points with
its terms summed in a fixed order, and each value is the float
evaluation's.  The arithmetic, ``sqrt`` and the powers allocate in their
operands' dtype, so a series may carry complex coefficients, as the
complex steps of :func:`variation.first_variation_check` do.

Any other numpy function raises TypeError on a jet or a series, and
:func:`carried` refuses a map that does not carry them: no derivative of a
map is taken by finite differences.

    >>> t = Taylor.variable(np.array([0.0]))
    >>> np.sinh(2.0 * t).c[:, 0]
    array([0.        , 2.        , 0.        , 1.33333333, 0.        ])
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """``value`` (...), ``grad`` (k, ...) and ``hess`` (k, k, ...), whose
    value axes broadcast to the value's.  ``shape`` is the value's, and
    ``np.asarray`` of a jet its value: one row per point."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    @classmethod
    def variable(cls, X):
        """The jet of the points X (n, m): coordinate a has gradient e_a, Hessian 0."""
        n, m = X.shape
        grad = np.zeros((m, n, m))
        grad[np.arange(m), :, np.arange(m)] = 1.0
        return cls(X, grad, np.zeros((m, m, n, m)))

    shape = property(lambda self: self.value.shape)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.value[key], self.grad[(slice(None),) + key],
                   self.hess[(slice(None), slice(None)) + key])

    def __array__(self, dtype=None, copy=None):
        return np.array(self.value, dtype=dtype) if copy else np.asarray(self.value, dtype=dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        rule = _JOINS.get(func)
        return NotImplemented if rule is None else rule(*args, **kwargs)

    def derivatives(self):
        """The gradient (..., k) and Hessian (..., k, k), points first."""
        grad, hess = (np.broadcast_to(d, d.shape[:k] + self.shape)
                      for d, k in ((self.grad, 1), (self.hess, 2)))
        return (np.ascontiguousarray(np.moveaxis(grad, 0, -1)),
                np.ascontiguousarray(np.moveaxis(hess, (0, 1), (-2, -1))))


# -- the rules ----------------------------------------------------------------

def _parts(x, ndim):
    """The gradient and Hessian of the jet x, widened to ndim value axes."""
    ones = (1,) * (ndim - x.value.ndim)
    return (x.grad.reshape(x.grad.shape[:1] + ones + x.grad.shape[1:]),
            x.hess.reshape(x.hess.shape[:2] + ones + x.hess.shape[2:]))


def _sym_outer(a, b):
    """a b^T + b a^T per point, of gradients a, b (k, ...)."""
    ab = a[:, None] * b
    return ab + ab.swapaxes(0, 1)


def _chain(x, value, d1, d2):
    """f(x) from f, f' and a callable giving f'' at x.value: the Hessian
    f' H_x + f'' g_x g_x^T."""
    return Jet(value, d1 * x.grad, d1 * x.hess + d2() * (x.grad[:, None] * x.grad))


def _add(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        value = a.value + b
        return Jet(value, *_parts(a, value.ndim))
    value = a.value + b.value
    (ag, ah), (bg, bh) = _parts(a, value.ndim), _parts(b, value.ndim)
    return Jet(value, ag + bg, ah + bh)


def _subtract(a, b):
    return _add(a, np.negative(b))     # a - b is a + (-b), bit for bit


def _multiply(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        value = a.value * b
        ag, ah = _parts(a, value.ndim)
        return Jet(value, ag * b, ah * b)
    value = a.value * b.value
    (ag, ah), (bg, bh) = _parts(a, value.ndim), _parts(b, value.ndim)
    return Jet(value, ag * b.value + bg * a.value,
               ah * b.value + bh * a.value + _sym_outer(ag, bg))


def _divide(a, b):
    if not isinstance(b, Jet):
        value = a.value / b
        ag, ah = _parts(a, value.ndim)
        return Jet(value, ag / b, ah / b)
    # q = a/b solves a = q b: q' = (a' - q b')/b, q'' = (a'' - q b'' - q'b'^T - b'q'^T)/b
    value = (a.value if isinstance(a, Jet) else a) / b.value
    ag, ah = _parts(a, value.ndim) if isinstance(a, Jet) else (0.0, 0.0)
    bg, bh = _parts(b, value.ndim)
    grad = (ag - value * bg) / b.value
    return Jet(value, grad, (ah - value * bh - _sym_outer(grad, bg)) / b.value)


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


def _power(ufunc):
    """x^c by ``ufunc``, np.power or np.float_power: by the chain rule for a
    constant c, and as exp(c log x) otherwise.  The terms of c and c (c - 1)
    are left out where they vanish, so u^0 and u^1 hold at u = 0."""
    def rule(x, c):
        if isinstance(c, Jet):
            value = ufunc(x.value if isinstance(x, Jet) else x, c.value)
            if isinstance(x, Jet):
                inv = 1.0 / x.value
                log_x = _chain(x, np.log(x.value), inv, lambda: -inv * inv)
            else:
                log_x = np.log(x)
            return _chain(c * log_x, value, value, lambda: value)
        if np.ndim(c) != 0:
            return NotImplemented
        value = ufunc(x.value, c)
        zero = np.zeros_like(value)
        d1 = c * ufunc(x.value, c - 1) if c != 0 else zero
        return _chain(x, value, d1,
                      lambda: c * (c - 1) * ufunc(x.value, c - 2) if c not in (0, 1) else zero)
    return rule


def _matmul(a, b):
    """a @ b of a jet and a constant on its right."""
    if isinstance(b, Jet):
        return NotImplemented
    return Jet(a.value @ b, a.grad @ b, a.hess @ b)


def _join(join):
    """np.stack or np.concatenate of jets and constants along a value axis; a
    constant in a stack takes the value shape of the first jet."""
    def rule(arrays, axis=0):
        arrays = list(arrays)
        first = next(x for x in arrays if isinstance(x, Jet))
        k = len(first.grad)
        for i, x in enumerate(arrays):
            if not isinstance(x, Jet):
                x = np.broadcast_to(x, first.shape) if join is np.stack else np.asarray(x, float)
                arrays[i] = Jet(x, np.zeros((k,) + x.shape), np.zeros((k, k) + x.shape))
        return Jet(join([x.value for x in arrays], axis=axis),
                   join([np.broadcast_to(x.grad, (k,) + x.shape) for x in arrays],
                        axis=axis + 1 if axis >= 0 else axis),
                   join([np.broadcast_to(x.hess, (k, k) + x.shape) for x in arrays],
                        axis=axis + 2 if axis >= 0 else axis))
    return rule


_RULES = {np.add: _add, np.subtract: _subtract, np.multiply: _multiply,
          np.true_divide: _divide, np.sqrt: _sqrt, np.power: _power(np.power),
          np.negative: lambda x: Jet(-x.value, -x.grad, -x.hess), np.float_power: _power(np.float_power),
          np.matmul: _matmul,
          np.sin: _elementary(np.sin, np.cos, -1.0),
          np.cos: _elementary(np.cos, lambda v: -np.sin(v), -1.0),
          np.sinh: _elementary(np.sinh, np.cosh, 1.0),
          np.cosh: _elementary(np.cosh, np.sinh, 1.0)}

_JOINS = {np.stack: _join(np.stack), np.concatenate: _join(np.concatenate)}


# -- truncated Taylor series ----------------------------------------------------

DEGREE = 4


@functools.lru_cache(maxsize=None)
def _orders(n, ndim):
    """1, 2, ..., n as an (n, 1, ..., 1) column over ndim value axes."""
    k = np.arange(1.0, n + 1).reshape((n,) + (1,) * ndim)
    k.flags.writeable = False
    return k


class Taylor:
    """A truncated Taylor series in one variable at each point.

    Coefficient k of ``c`` (d+1, ...) is x^(k)(t)/k!, so that x(t + s) is
    sum_k c[k] s^k up to degree d.  The value axes follow the coefficient
    axis, and indexing acts on them alone.  A series has no ``shape`` or
    ``len``: a map that sizes an array from its argument and writes into it
    fails on a series with AttributeError or TypeError, as it should, and
    not by writing coefficients as values.  ``linear`` marks a series that
    is a constant plus a multiple of the variable, by construction.
    """

    __slots__ = ("c", "linear")

    def __init__(self, c, linear=False):
        self.c, self.linear = c, linear

    @classmethod
    def variable(cls, t):
        """The series of the variable itself at the points t: t + s."""
        t = np.asarray(t, dtype=float)
        c = np.zeros((DEGREE + 1,) + t.shape)
        c[0], c[1] = t, 1.0
        return cls(c, linear=True)

    def __getitem__(self, key):
        return Taylor(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))],
                      self.linear)

    def __array__(self, dtype=None, copy=None):
        """The coefficients (d+1, ...): code that reads a series as an array,
        such as a counter of map rows, sees d+1 numbers per point."""
        return np.array(self.c, dtype=dtype) if copy else np.asarray(self.c, dtype=dtype)

    def truncated(self, degree):
        """The series to ``degree``: its first degree + 1 coefficients."""
        return Taylor(self.c[:degree + 1], self.linear)

    def d(self):
        """d/dt: the coefficient shift c_k -> (k+1) c_(k+1), one degree lower."""
        return Taylor(self.c[1:] * _orders(len(self.c) - 1, self.c.ndim - 1))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _SERIES_RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        rule = _SERIES_FUNCTIONS.get(func)
        return NotImplemented if rule is None else rule(*args, **kwargs)

    def __add__(self, other):
        return _series_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _series_subtract(self, other)

    def __rsub__(self, other):
        return _series_subtract(other, self)

    def __mul__(self, other):
        return _series_multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _series_divide(self, other)

    def __rtruediv__(self, other):
        return _series_divide(other, self)

    def __neg__(self):
        return Taylor(-self.c, self.linear)

    def __pow__(self, other):
        return _POWER(self, other)


def pair(X, Y, signs=None):
    """The series of sum_i signs_i X_i Y_i over the last axis of the series X
    and Y: the Cauchy products of the components, summed term by term, so
    that at degree 0 it has the bits of the same sum over the values."""
    C = _cauchy(*_lifted(X.c, Y.c if signs is None else Y.c * signs))
    out = C[..., 0]
    for i in range(1, C.shape[-1]):
        out = out + C[..., i]
    return Taylor(out)


# -- series rules -------------------------------------------------------------
#
# Each rule truncates to the lower degree of two series, and a float or an
# array is a constant.  The value c[0] of each result is the ufunc of the
# values, the bits a float evaluation gives, and every coefficient is
# elementwise over the points, summed in a fixed order.

def _lift(c, ndim):
    """Coefficients c with unit axes after the first, to ndim value axes."""
    extra = ndim + 1 - c.ndim
    return c.reshape(c.shape[:1] + (1,) * extra + c.shape[1:]) if extra > 0 else c


def _lifted(a, b):
    """Two coefficient arrays with as many value axes."""
    if a.ndim == b.ndim:
        return a, b
    ndim = max(a.ndim, b.ndim) - 1
    return _lift(a, ndim), _lift(b, ndim)


def _cauchy(a, b):
    """sum_(i+j=k) a_i b_j for k up to the lower degree, of two coefficient
    arrays with as many value axes."""
    n = min(len(a), len(b))
    P = a[:n, None] * b[None, :n]           # P[i, j] = a_i b_j
    out = P[0]
    for i in range(1, n):
        out[i:] += P[i, :n - i]
    return out


def _with_value(c, value):
    """Coefficients c with their value replaced, broadcast to its shape."""
    out = np.empty((len(c),) + np.shape(value), np.result_type(c, value))
    out[0], out[1:] = value, c[1:]
    return out


def _constant(value, n):
    """The n coefficients of a constant: the value, then zeros."""
    value = np.asarray(value)
    c = np.zeros((n,) + value.shape, np.result_type(value, float))
    c[0] = value
    return c


def _series_add(a, b):
    if not isinstance(a, Taylor):
        a, b = b, a
    if not isinstance(b, Taylor):
        return Taylor(_with_value(a.c, a.c[0] + b), a.linear)
    n = min(len(a.c), len(b.c))
    x, y = _lifted(a.c[:n], b.c[:n])
    return Taylor(x + y, a.linear and b.linear)


def _series_subtract(a, b):
    if not isinstance(b, Taylor):
        return Taylor(_with_value(a.c, a.c[0] - b), a.linear)
    if not isinstance(a, Taylor):
        return Taylor(_with_value(-b.c, a - b.c[0]), b.linear)
    n = min(len(a.c), len(b.c))
    x, y = _lifted(a.c[:n], b.c[:n])
    return Taylor(x - y, a.linear and b.linear)


def _series_multiply(a, b):
    if not isinstance(a, Taylor):
        a, b = b, a
    if isinstance(b, Taylor):
        return Taylor(_cauchy(*_lifted(a.c, b.c)))
    return Taylor(_lift(a.c, np.ndim(b)) * b, a.linear)


def _quotient(a, b):
    """a/b of two coefficient arrays with as many value axes: q_0 = a_0/b_0,
    then q_k = a_k/b_0 - sum_(j>0) (b_j/b_0) q_(k-j)."""
    n = min(len(a), len(b))
    q = a[:n] / b[0]
    if n > 1:
        beta = b[1:n] / b[0]
        for k in range(n - 1):
            q[k + 1:] -= beta[:n - 1 - k] * q[k]
    return q


def _series_divide(a, b):
    if not isinstance(b, Taylor):
        return Taylor(_lift(a.c, np.ndim(b)) / b, a.linear)
    if not isinstance(a, Taylor):
        return Taylor(_quotient(*_lifted(_constant(a, len(b.c)), b.c)))
    return Taylor(_quotient(*_lifted(a.c, b.c)))


@functools.lru_cache(maxsize=128)
def _power_weights(a, n, ndim):
    """W[j, i] = ((k - j) a - j)/k for k = i + j + 1 < n: the weight of
    xi_(k-j) y_j in y_k for y = x^a, as an (n-1, n-1, 1, ...) array."""
    W = np.zeros((n - 1, n - 1) + (1,) * ndim)
    for j in range(n - 1):
        for k in range(j + 1, n):
            W[j, k - j - 1] = ((k - j) * a - j) / k
    W.flags.writeable = False
    return W


def _power(c, a, value):
    """x^a from the coefficients c of x and the value x_0^a: with
    xi = x/x_0, y_k = sum_(j<k) ((k - j) a - j)/k xi_(k-j) y_j."""
    n = len(c)
    y = np.zeros(c.shape, np.result_type(c, value))
    y[0] = value
    if n > 1:
        terms = _power_weights(float(a), n, c.ndim - 1) * (c[1:] / c[0])
        for j in range(n - 1):
            y[j + 1:] += terms[j, :n - 1 - j] * y[j]
    return y


def _series_sqrt(x):
    return Taylor(_power(x.c, 0.5, np.sqrt(x.c[0])))


def _series_power(ufunc):
    """x^y for a constant y.  An integer 0 <= y <= 64 is a product of
    squares, so that x_0 may be 0 (a cusp); any other y takes :func:`_power`."""
    def rule(x, y):
        if not isinstance(x, Taylor) or isinstance(y, Taylor) or np.ndim(y) != 0:
            return NotImplemented
        y = float(y)
        value = ufunc(x.c[0], y)
        if not (y.is_integer() and 0 <= y <= 64):
            return Taylor(_power(x.c, y, value))
        c, square, e = np.zeros(x.c.shape, np.result_type(x.c, value)), x.c, int(y)
        c[0] = 1.0
        while e:
            if e & 1:
                c = _cauchy(c, square)
            e >>= 1
            if e:
                square = _cauchy(square, square)
        c[0] = value
        return Taylor(c)
    return rule


@functools.lru_cache(maxsize=None)
def _linear_factors(n, sign, ndim):
    """The factors g_k of f^(k)(x_0) x_1^k/k! = prod_(i<=k) (x_1 g_i) times
    f(x_0) (k even) or f'(x_0) (k odd), for f'' = sign f: 1/k, and sign/k for even k."""
    g = np.array([(sign if k % 2 == 0 else 1.0) / k for k in range(1, n)])
    g = g.reshape((n - 1,) + (1,) * ndim)
    g.flags.writeable = False
    return g


@functools.lru_cache(maxsize=None)
def _coupled_factors(n, sign, ndim):
    """Per k < n, the factors (1/k, sign/k) of the coupled recurrence, as a
    (n, 2, 1, ..., 1) array over ndim value axes."""
    w = np.array([[1.0, 1.0]] + [[1.0 / k, sign / k] for k in range(1, n)])
    w = w.reshape((n, 2) + (1,) * ndim)
    w.flags.writeable = False
    return w


def _series_elementary(f, df, sign):
    """The rule of f among sin, cos, sinh, cosh and exp, with f' = df and f'' = sign f:
    F_k = (1/k) sum_(j>0) j x_j G_(k-j) and G_k = (sign/k) sum_(j>0) j x_j F_(k-j)
    for F = f(x), G = f'(x), the pair carried together."""
    def rule(x):
        c = x.c
        n = len(c)
        if x.linear:        # F_k = f^(k)(x_0) x_1^k / k!
            F = np.empty(c.shape)
            F[0] = 1.0
            F[1:] = c[1] * _linear_factors(n, sign, c.ndim - 1)
            np.multiply.accumulate(F, axis=0, out=F)
            F[0::2] *= f(c[0])
            F[1::2] *= df(c[0])
            return Taylor(F)
        FG = np.empty((n, 2) + c.shape[1:])             # FG[k] = (F_k, G_k)
        FG[0, 0], FG[0, 1] = f(c[0]), df(c[0])
        jx = (c[1:] * _orders(n - 1, c.ndim - 1))[:, None]
        w = _coupled_factors(n, sign, c.ndim - 1)
        acc = jx * FG[0, ::-1]          # acc[k-1] = sum_(j>0) j x_j (G, F)_(k-j)
        for k in range(1, n):
            FG[k] = acc[k - 1] * w[k]
            if k + 1 < n:
                acc[k:] += jx[:n - 1 - k] * FG[k, ::-1]
        return Taylor(FG[:, 0])
    return rule


def _series_log(x):
    """log x: y_0 = log x_0, and y' = x'/x gives y_(k+1) = (x'/x)_k/(k + 1)."""
    c = x.c
    rest = _quotient(x.d().c, c) / _orders(len(c) - 1, c.ndim - 1)
    return Taylor(np.concatenate([np.log(c[:1]), rest]))


def _series_join(join):
    """np.stack or np.concatenate of series and constants, along a value
    axis; a constant takes the value shape of the first series."""
    def rule(arrays, axis=0):
        arrays = list(arrays)
        series = [x for x in arrays if isinstance(x, Taylor)]
        n, shape = min(len(x.c) for x in series), series[0].c.shape[1:]
        parts = [x.c[:n] if isinstance(x, Taylor) else _constant(np.broadcast_to(x, shape), n)
                 for x in arrays]
        return Taylor(join(parts, axis=axis + 1 if axis >= 0 else axis))
    return rule


_POWER = _series_power(np.power)

_SERIES_RULES = {np.add: _series_add, np.subtract: _series_subtract,
                 np.multiply: _series_multiply, np.true_divide: _series_divide,
                 np.negative: Taylor.__neg__, np.sqrt: _series_sqrt,
                 np.float_power: _series_power(np.float_power), np.power: _POWER,
                 np.sin: _series_elementary(np.sin, np.cos, -1.0),
                 np.cos: _series_elementary(np.cos, lambda v: -np.sin(v), -1.0),
                 np.sinh: _series_elementary(np.sinh, np.cosh, 1.0),
                 np.cosh: _series_elementary(np.cosh, np.sinh, 1.0),
                 np.exp: _series_elementary(np.exp, np.exp, 1.0), np.log: _series_log}

_SERIES_FUNCTIONS = {np.stack: _series_join(np.stack),
                     np.concatenate: _series_join(np.concatenate),
                     np.zeros_like: lambda x, *args, **kwargs: Taylor(np.zeros_like(x.c))}


# -- the refusal of a map that does not carry them ------------------------------

def carried(call, kind, what):
    """What ``call()`` returns, with numpy's warnings off, where it is a
    ``kind``, Jet or Taylor; otherwise, or where it raises TypeError or
    AttributeError, a DomainError that says what ``what`` must accept."""
    with np.errstate(all="ignore"):
        try:
            X = call()
        except (TypeError, AttributeError):
            X = None
    if not isinstance(X, kind):
        takes = ("a jet of its points (jets.Jet) and return their jet" if kind is Jet
                 else "a Taylor series of t (jets.Taylor) and return its series")
        raise DomainError(f"{what} must take {takes}: write it in numpy ufuncs and "
                          "np.stack, without np.asarray, np.where or in-place writes")
    return X
