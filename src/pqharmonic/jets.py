"""Forward-mode jets and truncated Taylor series: values carried with their
derivatives through numpy code written for float arrays.

One container holds both (:class:`Coefficients`): an array ``c`` whose
first axis is the value c[0] and then its derivative coefficients, with
the value axes after it.  It acts over the value axes as an array does
(indexing, ``np.stack``, ``np.concatenate``, ``np.zeros_like``, ``@`` a
constant), and the ufuncs of arithmetic, powers, ``sqrt``, ``exp``,
``log``, ``sin``, ``cos``, ``sinh`` and ``cosh`` carry it: a map written
for float arrays, run on the carrier of its argument, returns the carrier
of its values (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 13).  Floats and arrays in the arithmetic are constants.
The rules that are linear in the coefficients are the container's, one
copy for both: sums, differences, negation, products and quotients by
constants, ``@`` and the joins; so is x^y for a carried exponent y,
exp(y log x) valued at the power of the values.  Two algebras supply
products, quotients and the elementary functions:

* A :class:`Jet` of degree 2 in k variables holds the value, the gradient
  and the Hessian, (1 + k + k^2, ...).  Its products are Leibniz's rule
  and its functions the chain rule.  A chart map run on the jet of its
  points (:meth:`Jet.variable`) returns the jet of its values.

      >>> x = Jet.variable(np.array([[0.5, 2.0]]))
      >>> (np.sin(x[..., 0]) * x[..., 1]).grad[:, 0]
      array([1.75516512, 0.47942554])

* A :class:`Taylor` series in one variable, of degree 4 (``DEGREE``),
  holds the normalized coefficients x^(k)(t)/k!, (5, ...).  Products and
  quotients are the Cauchy recurrences, ``sqrt`` and constant powers the
  recurrence of x y' = a x' y (products for a small integer exponent, so
  that the value may be 0), log the quotient x'/x integrated, and sin,
  cos, sinh, cosh and exp the coupled one of f and f' (ch. 13 there).
  Each result has the lower degree of its operands, and d/dt
  (:meth:`Taylor.d`), the coefficient shift, lowers it by one.  The
  arithmetic, ``sqrt`` and the powers allocate in their operands' dtype,
  so a series may carry complex coefficients, as the complex steps of
  :func:`variation.first_variation_check` do.

      >>> t = Taylor.variable(np.array([0.0]))
      >>> np.sinh(2.0 * t).c[:, 0]
      array([0.        , 2.        , 0.        , 1.33333333, 0.        ])

Each rule is elementwise over the points, with each coefficient's terms
summed in a fixed order, so a point gets the same bits in a batch of any
size, and each value is the ufunc of the values, the float evaluation's
bits.  Any other numpy function raises TypeError on a jet or a series, and
:func:`carried` refuses a map that does not carry them: no derivative of a
map is taken by finite differences.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError


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


class Coefficients:
    """A value and its derivatives at each point in one array ``c``: the
    value c[0], then the derivative coefficients, and the value axes after
    the coefficient axis, on which indexing acts alone.  ``linear`` marks a
    carrier that is a constant plus a multiple of the variable, by
    construction; the rules linear in the coefficients keep it.

    The operators call the rules directly, and numpy reaches them through
    ``__array_ufunc__`` and ``__array_function__``.  A subclass supplies
    its algebra: ``_product`` and ``_quotient`` of two coefficient arrays
    with as many value axes, ``_function(sign, f0, g0)`` for the f with
    f(x_0) = f0, f'(x_0) = g0 and f'' = sign f, ``_sqrt``, ``_log``, and
    ``_power(ufunc, y)`` for a constant scalar y.
    """

    __slots__ = ("c", "linear")

    def __init__(self, c, linear=False):
        self.c, self.linear = c, linear

    def __getitem__(self, key):
        return type(self)(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))],
                          self.linear)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        rule = _FUNCTIONS.get(func)
        return NotImplemented if rule is None else rule(*args, **kwargs)

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _subtract(self, other)

    def __rsub__(self, other):
        return _subtract(other, self)

    def __mul__(self, other):
        return _multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _divide(self, other)

    def __rtruediv__(self, other):
        return _divide(other, self)

    def __neg__(self):
        return type(self)(-self.c, self.linear)

    def __pow__(self, other):
        return _POWER(self, other)

    def __rpow__(self, other):
        return _POWER(other, self)

    def __matmul__(self, other):
        return _matmul(self, other)


# -- the rules linear in the coefficients, one copy for both carriers ----------
#
# Each rule truncates to the lower degree of two carriers, and a float or an
# array is a constant.  The value c[0] of each result is the ufunc of the
# values, the bits a float evaluation gives.

def _add(a, b):
    if not isinstance(a, Coefficients):
        a, b = b, a
    if not isinstance(b, Coefficients):
        return type(a)(_with_value(a.c, a.c[0] + b), a.linear)
    n = min(len(a.c), len(b.c))
    x, y = _lifted(a.c[:n], b.c[:n])
    return type(a)(x + y, a.linear and b.linear)


def _subtract(a, b):
    if not isinstance(b, Coefficients):
        return type(a)(_with_value(a.c, a.c[0] - b), a.linear)
    if not isinstance(a, Coefficients):
        return type(b)(_with_value(-b.c, a - b.c[0]), b.linear)
    n = min(len(a.c), len(b.c))
    x, y = _lifted(a.c[:n], b.c[:n])
    return type(a)(x - y, a.linear and b.linear)


def _multiply(a, b):
    if not isinstance(a, Coefficients):
        a, b = b, a
    if isinstance(b, Coefficients):
        return type(a)(a._product(*_lifted(a.c, b.c)))
    return type(a)(_lift(a.c, np.ndim(b)) * b, a.linear)


def _divide(a, b):
    if not isinstance(b, Coefficients):
        return type(a)(_lift(a.c, np.ndim(b)) / b, a.linear)
    x = a.c if isinstance(a, Coefficients) else _constant(a, len(b.c))
    return type(b)(b._quotient(*_lifted(x, b.c)))


def _matmul(a, b):
    """a @ b of a carrier and a constant on its right."""
    if not isinstance(a, Coefficients) or isinstance(b, Coefficients):
        return NotImplemented
    return type(a)(a.c @ b, a.linear)


def _power_rule(ufunc):
    """x^y by ``ufunc``, np.power or np.float_power: the carrier's own rule
    for a constant y, and exp(y log x) for a carried y, valued at the ufunc
    of the values."""
    def rule(x, y):
        if isinstance(y, Coefficients):
            value = ufunc(x.c[0] if isinstance(x, Coefficients) else x, y.c[0])
            return (y * np.log(x))._function(1.0, value, value)
        return NotImplemented if np.ndim(y) != 0 else x._power(ufunc, y)
    return rule


def _elementary(f, df, sign):
    """The rule of f among sin, cos, sinh, cosh and exp, with f' = df and f'' = sign f."""
    def rule(x):
        return x._function(sign, f(x.c[0]), df(x.c[0]))
    return rule


def _join(join):
    """np.stack or np.concatenate of carriers and constants along a value
    axis: a constant in a stack takes the value shape of the first carrier,
    and one in a concatenation keeps its own."""
    def rule(arrays, axis=0):
        arrays = list(arrays)
        carriers = [x for x in arrays if isinstance(x, Coefficients)]
        n, shape = min(len(x.c) for x in carriers), carriers[0].c.shape[1:]
        parts = [x.c[:n] if isinstance(x, Coefficients)
                 else _constant(np.broadcast_to(x, shape) if join is np.stack else x, n)
                 for x in arrays]
        return type(carriers[0])(join(parts, axis=axis + 1 if axis >= 0 else axis))
    return rule


_POWER = _power_rule(np.power)

_RULES = {np.add: _add, np.subtract: _subtract, np.multiply: _multiply,
          np.true_divide: _divide, np.negative: Coefficients.__neg__, np.matmul: _matmul,
          np.power: _POWER, np.float_power: _power_rule(np.float_power),
          np.sqrt: lambda x: x._sqrt(), np.log: lambda x: x._log(),
          np.sin: _elementary(np.sin, np.cos, -1.0),
          np.cos: _elementary(np.cos, lambda v: -np.sin(v), -1.0),
          np.sinh: _elementary(np.sinh, np.cosh, 1.0),
          np.cosh: _elementary(np.cosh, np.sinh, 1.0),
          np.exp: _elementary(np.exp, np.exp, 1.0)}

_FUNCTIONS = {np.stack: _join(np.stack), np.concatenate: _join(np.concatenate),
              np.zeros_like: lambda x, *args, **kwargs: type(x)(np.zeros_like(x.c))}


# -- jets: Leibniz's rule and the chain rule ----------------------------------

def _variables(n):
    """The k of a jet of n = 1 + k + k^2 coefficients."""
    return (math.isqrt(4 * n - 3) - 1) // 2


def _sym_outer(g, h):
    """g h^T + h g^T per point, of gradients g, h (k, ...), as (k^2, ...)."""
    gh = g[:, None] * h
    return (gh + gh.swapaxes(0, 1)).reshape((-1,) + gh.shape[2:])


def _chain(x, value, d1, d2):
    """f(x) from f, f' and f'' at the value of x: the gradient f' g and
    the Hessian f' H + f'' g g^T."""
    c, k = x.c, _variables(len(x.c))
    out = np.empty(c.shape)
    out[0] = value
    np.multiply(c[1:], d1, out=out[1:])
    g = c[1:k + 1]
    gg = g[:, None] * g
    gg *= d2
    out[k + 1:] += gg.reshape(out[k + 1:].shape)
    return Jet(out)


def _leibniz(a, b):
    """The product a b of jets: gradient a' b + b' a, and Hessian
    a'' b + b'' a + a' b'^T + b' a'^T."""
    k = _variables(len(a))
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.multiply(a[0], b[0], out=out[0])
    np.multiply(a[1:], b[0], out=out[1:])
    out[1:] += b[1:] * a[0]
    out[k + 1:] += _sym_outer(a[1:k + 1], b[1:k + 1])
    return out


def _jet_quotient(a, b):
    """q = a/b of jets solves a = q b: q' = (a' - q b')/b and
    q'' = (a'' - q b'' - q' b'^T - b' q'^T)/b."""
    k = _variables(len(b))
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    q = np.divide(a[0], b[0], out=out[0])
    np.subtract(a[1:], q * b[1:], out=out[1:])
    out[1:k + 1] /= b[0]
    out[k + 1:] -= _sym_outer(out[1:k + 1], b[1:k + 1])
    out[k + 1:] /= b[0]
    return out


def _jet_sqrt(x):
    r = np.sqrt(x.c[0])
    d1 = 0.5 / r
    return _chain(x, r, d1, -0.5 * d1 / x.c[0])


def _jet_log(x):
    inv = 1.0 / x.c[0]
    return _chain(x, np.log(x.c[0]), inv, -inv * inv)


def _jet_power(x, ufunc, c):
    """x^c for a constant c by the chain rule.  The terms of c and c (c - 1)
    are left out where they vanish, so u^0 and u^1 hold at u = 0."""
    x0 = x.c[0]
    value = ufunc(x0, c)
    zero = np.zeros_like(value)
    d1 = c * ufunc(x0, c - 1) if c != 0 else zero
    return _chain(x, value, d1, c * (c - 1) * ufunc(x0, c - 2) if c not in (0, 1) else zero)


class Jet(Coefficients):
    """A jet of degree 2 in k variables: ``c`` (1 + k + k^2, ...) holds the
    value, the gradient and the Hessian, whose views are ``value`` (...),
    ``grad`` (k, ...) and ``hess`` (k, k, ...).  ``shape`` is the value's,
    and ``np.asarray`` of a jet its value: one row per point."""

    __slots__ = ()

    _product, _quotient = staticmethod(_leibniz), staticmethod(_jet_quotient)
    _sqrt, _log, _power = _jet_sqrt, _jet_log, _jet_power

    def _function(self, sign, f0, g0):
        return _chain(self, f0, g0, sign * f0)

    @classmethod
    def variable(cls, X):
        """The jet of the points X (n, m): coordinate a has gradient e_a, Hessian 0."""
        n, m = X.shape
        c = np.zeros((1 + m + m * m, n, m))
        c[0] = X
        c[1 + np.arange(m), :, np.arange(m)] = 1.0
        return cls(c)

    shape = property(lambda self: self.c.shape[1:])
    value = property(lambda self: self.c[0])
    grad = property(lambda self: self.c[1:1 + _variables(len(self.c))])

    @property
    def hess(self):
        k = _variables(len(self.c))
        return self.c[1 + k:].reshape((k, k) + self.shape)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.value, dtype=dtype) if copy else np.asarray(self.value, dtype=dtype)

    def derivatives(self):
        """The gradient (..., k) and Hessian (..., k, k), points first."""
        return (np.ascontiguousarray(np.moveaxis(self.grad, 0, -1)),
                np.ascontiguousarray(np.moveaxis(self.hess, (0, 1), (-2, -1))))


# -- truncated Taylor series: the Cauchy product and the recurrences -----------

DEGREE = 4


@functools.lru_cache(maxsize=None)
def _orders(n, ndim):
    """1, 2, ..., n as an (n, 1, ..., 1) column over ndim value axes."""
    k = np.arange(1.0, n + 1).reshape((n,) + (1,) * ndim)
    k.flags.writeable = False
    return k


def _cauchy(a, b):
    """sum_(i+j=k) a_i b_j for k up to the lower degree, of two coefficient
    arrays with as many value axes."""
    n = min(len(a), len(b))
    P = a[:n, None] * b[None, :n]           # P[i, j] = a_i b_j
    out = P[0]
    for i in range(1, n):
        out[i:] += P[i, :n - i]
    return out


def _cauchy_quotient(a, b):
    """a/b of two coefficient arrays with as many value axes: q_0 = a_0/b_0,
    then q_k = a_k/b_0 - sum_(j>0) (b_j/b_0) q_(k-j)."""
    n = min(len(a), len(b))
    q = a[:n] / b[0]
    if n > 1:
        beta = b[1:n] / b[0]
        for k in range(n - 1):
            q[k + 1:] -= beta[:n - 1 - k] * q[k]
    return q


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


def _series_power(x, ufunc, y):
    """x^y for a constant y.  An integer 0 <= y <= 64 is a product of
    squares, so that x_0 may be 0 (a cusp); any other y takes :func:`_power`."""
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


def _series_function(x, sign, f0, g0):
    """f(x) with f(x_0) = f0, f'(x_0) = g0 and f'' = sign f:
    F_k = (1/k) sum_(j>0) j x_j G_(k-j) and G_k = (sign/k) sum_(j>0) j x_j F_(k-j)
    for F = f(x), G = f'(x), the pair carried together."""
    c = x.c
    n = len(c)
    if x.linear:        # F_k = f^(k)(x_0) x_1^k / k!
        F = np.empty(c.shape)
        F[0] = 1.0
        F[1:] = c[1] * _linear_factors(n, sign, c.ndim - 1)
        np.multiply.accumulate(F, axis=0, out=F)
        F[0::2] *= f0
        F[1::2] *= g0
        return Taylor(F)
    FG = np.empty((n, 2) + c.shape[1:])             # FG[k] = (F_k, G_k)
    FG[0, 0], FG[0, 1] = f0, g0
    jx = (c[1:] * _orders(n - 1, c.ndim - 1))[:, None]
    w = _coupled_factors(n, sign, c.ndim - 1)
    acc = jx * FG[0, ::-1]          # acc[k-1] = sum_(j>0) j x_j (G, F)_(k-j)
    for k in range(1, n):
        FG[k] = acc[k - 1] * w[k]
        if k + 1 < n:
            acc[k:] += jx[:n - 1 - k] * FG[k, ::-1]
    return Taylor(FG[:, 0])


def _series_log(x):
    """log x: y_0 = log x_0, and y' = x'/x gives y_(k+1) = (x'/x)_k/(k + 1)."""
    c = x.c
    rest = _cauchy_quotient(x.d().c, c) / _orders(len(c) - 1, c.ndim - 1)
    return Taylor(np.concatenate([np.log(c[:1]), rest]))


class Taylor(Coefficients):
    """A truncated Taylor series in one variable at each point.

    Coefficient k of ``c`` (d+1, ...) is x^(k)(t)/k!, so that x(t + s) is
    sum_k c[k] s^k up to degree d.  A series has no ``shape`` or ``len``: a
    map that sizes an array from its argument and writes into it fails on a
    series with AttributeError or TypeError, as it should, and not by
    writing coefficients as values.
    """

    __slots__ = ()

    _product, _quotient = staticmethod(_cauchy), staticmethod(_cauchy_quotient)
    _sqrt, _log, _power, _function = _series_sqrt, _series_log, _series_power, _series_function

    @classmethod
    def variable(cls, t):
        """The series of the variable itself at the points t: t + s."""
        t = np.asarray(t, dtype=float)
        c = np.zeros((DEGREE + 1,) + t.shape)
        c[0], c[1] = t, 1.0
        return cls(c, linear=True)

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


def pair(X, Y, signs=None):
    """The series of sum_i signs_i X_i Y_i over the last axis of the series X
    and Y: the Cauchy products of the components, summed term by term, so
    that at degree 0 it has the bits of the same sum over the values."""
    C = _cauchy(*_lifted(X.c, Y.c if signs is None else Y.c * signs))
    out = C[..., 0]
    for i in range(1, C.shape[-1]):
        out = out + C[..., i]
    return Taylor(out)


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
                          "np.stack or np.concatenate, without np.asarray, np.where "
                          "or in-place writes")
    return X
