"""Ornstein-Uhlenbeck semigroup, its potential operator, and discrete
second-order (Stein-type) integral representations.

The semigroup is P_t f(x) = E f(e^{-t} x + sqrt(1 - e^{-2t}) G) with G
standard Gaussian; its generator is L f = Laplacian f - <x, grad f>, and
the potential is PP f(x) = int_0^inf (P_t f(x) - E f(G)) dt, satisfying
f - E f(G) = -L PP f = -PP L f.

A test function f is anything with ``n``, ``value_rows(X)``,
``partial_rows(X, i, order)``, ``generator_rows(X)`` and
``lipschitz_bound(radius)``, each rows method mapping an (m, n) array to
(m,) values; a value at one point is the rows form at one row.
``Polynomial`` and ``SoftmaxFunction`` (the smoothed maximum) are the two.
Polynomials take closed forms, each operator behind its own
``isinstance(f, Polynomial)``: smoothing is a binomial expansion against
Gaussian moments, and P_{-log u} f(x) is a polynomial q(u) in u = e^{-t},
so each potential integral is the exact sum of q_m / (m + k).  Every
other test function goes through Monte-Carlo in the estimators' block
driver ``estimator._blocked``: each SAMPLE_BLOCK-replicate block draws
from its own keyed substream, memory is bounded by one block, and every
Monte-Carlo entry point needs at least MIN_REPLICATES samples.  The
semigroup, Gaussian mean and potentials share one quadrature reducer,
``_ou_quadrature``, with common random numbers across its nodes.  Points
are read by ``_point`` and times by ``_time``.  Every check returns one
``Agreement``, with ``_tolerance``'s rule as its tolerance, or for the
ergodic check its decay bound.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DEFAULT_STREAM, CoordinateDistribution, RandomStream
from .estimator import _blocked, mean_se
from .index_sets import (SAMPLE_BLOCK, TILE_BYTES, IndexSet, geometric_profile,
                         sign_patterns)
from . import softmax as sm

# Gauss-Legendre nodes of the potential integrals over u = e^{-t} in
# [0, 1], and of the Stein representation's integral over s in [0, 1]
POTENTIAL_NODES = 64
STEIN_NODES = 32
# least Monte-Carlo sample size of an estimated Gaussian mean E f(G)
GAUSSIAN_MEAN_SAMPLES = 4096


def _gauss_moment(k: int) -> float:
    """E G^k for standard Gaussian: (k-1)!! for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class Polynomial:
    """Multivariate polynomial as a dict {exponent tuple: coefficient}; a
    test function whose every operator has a closed form.

    The constructor takes a dict or an iterable of (exponent, coefficient)
    pairs; repeated exponents add up and zero sums are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1 or int(n) != n:
            raise ValueError(f"n must be an integer >= 1, got {n}")
        self.n = int(n)
        self.terms = {}
        if isinstance(terms, dict):
            terms = terms.items()
        if terms:
            for expo, coeff in terms:
                expo = tuple(expo)
                if len(expo) != n or any(e < 0 or int(e) != e for e in expo):
                    raise ValueError(f"bad exponent tuple {expo}")
                expo = tuple(int(e) for e in expo)
                c = self.terms.get(expo, 0.0) + float(coeff)
                if c == 0.0:
                    self.terms.pop(expo, None)
                else:
                    self.terms[expo] = c

    @classmethod
    def linear(cls, a) -> "Polynomial":
        a = np.asarray(a, dtype=np.float64)
        n = a.size
        terms = {}
        for i, c in enumerate(a):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = float(c)
        return cls(n, terms)

    @classmethod
    def coordinate_power(cls, n: int, i: int, k: int) -> "Polynomial":
        """The monomial x_i^k."""
        e = [0] * n
        e[sm._require_coordinate(i, n)] = k
        return cls(n, {tuple(e): 1.0})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        # the constructor merges repeated exponents and drops zero sums
        return Polynomial(self.n, itertools.chain(self.terms.items(),
                                                  other.terms.items()))

    def __mul__(self, c: float) -> "Polynomial":
        return Polynomial(self.n, {e: v * c for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        batched = x.ndim == 2
        acc = np.zeros(x.shape[0]) if batched else 0.0
        for expo, c in self.terms.items():
            term = c
            for i, e in enumerate(expo):
                if e:
                    term = term * (x[:, i] ** e if batched else x[i] ** e)
            acc = acc + term
        return acc

    value_rows = __call__

    def partial_rows(self, X, i: int, order: int) -> np.ndarray:
        return self.partial(i, order)(X)

    def generator_rows(self, X) -> np.ndarray:
        return self.generator()(X)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i: int, order: int = 1) -> "Polynomial":
        sm._require_coordinate(i, self.n)
        if order < 0:
            raise ValueError("order must be >= 0")
        p = self
        for _ in range(order):
            terms = {}
            for expo, c in p.terms.items():
                if expo[i] == 0:
                    continue
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = terms.get(tuple(e), 0.0) + c * expo[i]
            p = Polynomial(self.n, terms)
        return p

    def gaussian_mean(self) -> float:
        """E f(G) exactly: the constant term of P_inf f, where every x_i^k
        has smoothed to its Gaussian moment."""
        return self.ou_smoothed(math.inf).terms.get((0,) * self.n, 0.0)

    def ou_smoothed(self, t: float) -> "Polynomial":
        """P_t f, exactly: each x_i^k expands binomially against Gaussian
        moments of the sqrt(1 - e^{-2t}) component."""
        a = math.exp(-_time(t))
        b2 = max(0.0, 1.0 - a * a)
        out_terms = {}
        for expo, c in self.terms.items():
            active = [(i, k) for i, k in enumerate(expo) if k > 0]
            # per active coordinate: x_i^k -> sum_j C(k,j) a^{k-j} b2^{j/2} m_j x_i^{k-j}
            options = []
            for i, k in active:
                opts = []
                for j in range(0, k + 1, 2):
                    w = math.comb(k, j) * a ** (k - j) * b2 ** (j // 2) * _gauss_moment(j)
                    if w != 0.0:
                        opts.append((i, k - j, w))
                options.append(opts)
            for combo in itertools.product(*options):
                e = [0] * self.n
                w = c
                for i, rem, fac in combo:
                    e[i] = rem
                    w *= fac
                e = tuple(e)
                out_terms[e] = out_terms.get(e, 0.0) + w
        return Polynomial(self.n, out_terms)

    def generator(self) -> "Polynomial":
        """L f = Laplacian f - sum_i x_i d_i f, term by term: c x^e maps to
        sum_i c e_i (e_i - 1) x^{e - 2 e_i} - |e| c x^e."""
        terms = []
        for expo, c in self.terms.items():
            terms.append((expo, -sum(expo) * c))
            for i, e in enumerate(expo):
                if e >= 2:
                    terms.append((expo[:i] + (e - 2,) + expo[i + 1:],
                                  c * e * (e - 1)))
        return Polynomial(self.n, terms)

    def lipschitz_bound(self, radius: float) -> float:
        """Upper bound on |grad f| over the ball of the given radius."""
        r = max(1.0, float(radius))
        sq = 0.0
        for i in range(self.n):
            bi = sum(abs(c) * r ** sum(e) for e, c in self.partial(i).terms.items())
            sq += bi ** 2
        return math.sqrt(sq)


class SoftmaxFunction:
    """F_beta for an index set; globally Lipschitz with constant R2."""

    def __init__(self, T: IndexSet, beta: float):
        self.T = T
        self.beta = float(beta)
        self.n = T.dim
        self._r2 = geometric_profile(T).r2

    def value_rows(self, X) -> np.ndarray:
        return sm.log_partition_rows(self.T, self.beta, np.asarray(X, float))

    def partial_rows(self, X, i: int, order: int) -> np.ndarray:
        return sm.log_partition_partials_rows(
            self.T, self.beta, np.asarray(X, dtype=np.float64), i, order)

    def generator_rows(self, X) -> np.ndarray:
        return sm.log_partition_generator_rows(
            self.T, self.beta, np.asarray(X, dtype=np.float64))

    def lipschitz_bound(self, radius: float = 0.0) -> float:
        # grad F is a convex combination of the points
        return self._r2


@dataclass(frozen=True)
class OperatorEstimate:
    """A semigroup/potential evaluation with its error budget."""

    value: float
    std_error: float
    samples: int
    nodes: int
    method: str


def _ou_b(u: float) -> float:
    """sqrt(1 - u^2), the weight of G in the OU kernel u x + sqrt(1-u^2) G."""
    return math.sqrt(max(0.0, (1.0 - u) * (1.0 + u)))


def _node_groups(nodes: int, block: np.ndarray) -> list:
    """Runs of node indices, each of as many nodes as copies of block fit
    TILE_BYTES stacked (one at least): one test-function call per run."""
    per = max(1, TILE_BYTES // block.nbytes)
    return [range(lo, min(lo + per, nodes)) for lo in range(0, nodes, per)]


def _ou_quadrature(g, x: np.ndarray, u, w, samples: int,
                   stream: RandomStream, tag: str) -> np.ndarray:
    """sum_j w_j g(u_j x + sqrt(1 - u_j^2) G) per replicate, one Gaussian
    G per replicate shared by every node (common random numbers).  g gets
    each _node_groups run's blocks stacked, and the weighted values add up
    in node order."""
    def reduce(G):
        acc = 0.0
        for run in _node_groups(len(u), G):
            V = g(np.concatenate([u[j] * x + _ou_b(u[j]) * G for j in run]))
            for j, v in zip(run, V.reshape(len(run), -1)):
                acc = acc + w[j] * v
        return acc
    return _blocked(stream, tag, samples,
                    lambda rng: rng.standard_normal((SAMPLE_BLOCK, x.size)),
                    reduce)


def _point(f, x) -> np.ndarray:
    """x as a point of f's domain: a finite float vector of length f.n."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.n,) or not np.isfinite(x).all():
        raise ValueError(f"x must be a finite vector of length {f.n}: {x}")
    return x


def _time(t) -> float:
    """t as an OU time: a float >= 0 (inf allowed, NaN refused)."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return t


def ou_apply(f, t: float, x, samples: int = 4096,
             stream: RandomStream = DEFAULT_STREAM) -> OperatorEstimate:
    """Monte-Carlo P_t f(x); exact (zero-error) at t = 0."""
    t, x = _time(t), _point(f, x)
    if t == 0.0:
        return OperatorEstimate(float(f.value_rows(x[None, :])[0]), 0.0, 0, 0,
                                "exact-t0")
    vals = _ou_quadrature(f.value_rows, x, (math.exp(-t),), (1.0,), samples,
                          stream, "ou-apply")
    return OperatorEstimate(*mean_se(vals), samples, 0, "mc")


# (nodes, lo, hi) -> read-only Gauss-Legendre nodes and weights
_LEGENDRE = {}


def _gauss_legendre(nodes: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi], computed once per
    rule and kept read-only."""
    if (nodes, lo, hi) not in _LEGENDRE:
        u, w = np.polynomial.legendre.leggauss(nodes)
        half = 0.5 * (hi - lo)
        rule = lo + half * (u + 1.0), half * w
        for a in rule:
            a.setflags(write=False)
        _LEGENDRE[nodes, lo, hi] = rule
    return _LEGENDRE[nodes, lo, hi]


def _u_polynomial(poly: Polynomial, x: np.ndarray) -> np.ndarray:
    """Coefficients q of u -> P_{-log u} poly (x) as a polynomial in u.

    Each x_i^k smooths to sum_j C(k,j) m_j x_i^{k-j} u^{k-j} (1-u^2)^{j/2}
    with j even, a polynomial in u; products convolve.  q[0] is E poly(G).
    """
    total = np.zeros(1)
    for expo, c in poly.terms.items():
        acc = np.array([float(c)])
        for i, k in enumerate(expo):
            if k == 0:
                continue
            factor = np.zeros(k + 1)
            for j in range(0, k + 1, 2):
                base = math.comb(k, j) * _gauss_moment(j) * float(x[i]) ** (k - j)
                if base == 0.0:
                    continue
                # u^{k-j} (1-u^2)^{j/2} expanded
                for l in range(j // 2 + 1):
                    factor[k - j + 2 * l] += base * math.comb(j // 2, l) * (-1.0) ** l
            acc = np.convolve(acc, factor)
        if acc.size > total.size:
            total = np.concatenate([total, np.zeros(acc.size - total.size)])
        total[:acc.size] += acc
    return total


def _closed_form_potential(poly: Polynomial, x: np.ndarray,
                           k: int) -> OperatorEstimate:
    """int_0^1 u^{k-1} (q(u) - [k = 0] q(0)) du = sum_m q_m / (m + k), with
    q from _u_polynomial; at k = 0 the constant term E poly(G) drops out."""
    q = _u_polynomial(poly, x)
    value = sum(float(q[m]) / (m + k) for m in range(int(k == 0), q.size))
    return OperatorEstimate(value, 0.0, 0, 0, "closed-form")


def _gaussian_mean_estimate(f, n: int, samples: int, stream: RandomStream):
    """(E f(G), standard error) from at least GAUSSIAN_MEAN_SAMPLES draws."""
    if isinstance(f, Polynomial):
        return f.gaussian_mean(), 0.0
    # one node at u = 0 evaluates f at G itself
    return mean_se(_ou_quadrature(f.value_rows, np.zeros(n), (0.0,), (1.0,),
                                  max(samples, GAUSSIAN_MEAN_SAMPLES), stream,
                                  "gaussian-mean"))


def ou_potential(f, x, samples: int = 2048,
                 stream: RandomStream = DEFAULT_STREAM) -> OperatorEstimate:
    """PP f(x) = int_0^inf (P_t f(x) - E f(G)) dt, the k = 0 case of
    potential_partial."""
    return potential_partial(f, x, 0, 0, samples, stream)


def potential_partial(f, x, i: int, k: int, samples: int = 2048,
                      stream: RandomStream = DEFAULT_STREAM) -> OperatorEstimate:
    """d_i^{(k)} PP f(x) for k >= 0; k = 0 gives PP f(x), and i must
    still index a coordinate.

    d_i^{(k)} P_t = e^{-kt} P_t d_i^{(k)}, so u = e^{-t} makes the integral
    int_0^1 u^{k-1} (P_{-log u} d_i^{(k)} f(x) - [k = 0] E f(G)) du, with no
    truncation: at k = 0 the bracket decays like e^{-t} = u.  Every order
    runs the same POTENTIAL_NODES Gauss-Legendre nodes on [0, 1]; at k = 0
    the estimated E f(G) is subtracted with total weight sum_j w_j / u_j,
    and its standard error is charged at that weight.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sm._require_coordinate(i, f.n)
    x = _point(f, x)
    if isinstance(f, Polynomial):
        return _closed_form_potential(f.partial(i, k), x, k)
    u, w = _gauss_legendre(POTENTIAL_NODES, 0.0, 1.0)
    w = w * u ** (k - 1)
    if k == 0:
        mg, mg_se = _gaussian_mean_estimate(f, x.size, samples, stream)
        vals = _ou_quadrature(lambda Y: f.value_rows(Y) - mg, x, u, w,
                              samples, stream, "ou-potential")
    else:
        mg_se = 0.0
        vals = _ou_quadrature(lambda Y: f.partial_rows(Y, i, k), x, u, w,
                              samples, stream, f"potential-partial-{i}-{k}")
    value, se = mean_se(vals)
    return OperatorEstimate(value, math.hypot(se, float(w.sum()) * mg_se),
                            samples, POTENTIAL_NODES, "mc-quadrature")


def _tolerance(exact: bool, std_error: float) -> float:
    """The agreement rule: 1e-10 if exact, else 4 standard errors + 1e-9."""
    return 1e-10 if exact else 4.0 * std_error + 1e-9


@dataclass(frozen=True)
class Agreement:
    """Both sides of one OU/Stein identity: lhs, every right-hand side the
    check computed, and the tolerance the largest |lhs - r| must keep.
    samples counts Monte-Carlo draws or enumerated points, 0 if closed."""

    lhs: float
    rhs: tuple
    std_error: float
    tolerance: float
    exact: bool
    samples: int = 0

    @property
    def diff(self) -> float:
        # np.max propagates NaN, so a NaN side fails
        return float(np.max([abs(self.lhs - r) for r in self.rhs]))

    @property
    def ok(self) -> bool:
        return self.diff <= self.tolerance


def poisson_identity_check(f, x, samples: int = 2048,
                           stream: RandomStream = DEFAULT_STREAM) -> Agreement:
    """Check f(x) - E f(G) = -L PP f(x); polynomials also check -PP L f(x).

    -L PP f = sum_i x_i d_i PP f - sum_i d_i^2 PP f, each partial through
    potential_partial.  The tolerance is ``_tolerance``'s.
    """
    x = _point(f, x)
    mg, mg_se = _gaussian_mean_estimate(f, f.n, samples,
                                        stream.substream("poisson-mean"))
    lhs = float(f.value_rows(x[None, :])[0]) - mg
    rhs = 0.0
    var = mg_se ** 2
    exact = isinstance(f, Polynomial)
    for i in range(f.n):
        d1 = potential_partial(f, x, i, 1, samples,
                               stream.substream("poisson-d1", i))
        d2 = potential_partial(f, x, i, 2, samples,
                               stream.substream("poisson-d2", i))
        rhs += float(x[i]) * d1.value - d2.value
        var += (float(x[i]) * d1.std_error) ** 2 + d2.std_error ** 2
    rhs = (rhs, -ou_potential(f.generator(), x).value) if exact else (rhs,)
    se = math.sqrt(var)
    return Agreement(lhs, rhs, se, _tolerance(exact, se), exact,
                     0 if exact else samples)


class HypothesisViolation(ValueError):
    """A moment hypothesis of an integral representation fails; the message
    names the violated assumption."""

    def __init__(self, moment: str, detail: str):
        super().__init__(f"hypothesis violated ({moment}): {detail}")
        self.moment = moment


VARIANTS = ("third", "fourth")


def _stein_terms(f, X: np.ndarray, variant: str, s: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """Per-sample right-hand side of the representation, for sample rows X
    and Gauss-Legendre nodes s, weights w on [0, 1].

    With p = order - 3 (0 for 'third', 1 for 'fourth') and D(s) the
    order-th partial in x_i at x_i -> s x_i, coordinate i contributes
    x_i^{p+1} int (1-s)^p D - x_i^{p+3}/(p+1) int (1-s)^{p+1} D.
    """
    m, n = X.shape
    order = 3 if variant == "third" else 4
    p = order - 3
    rhs = np.zeros(m)
    for i in range(n):
        xi = X[:, i]
        lo = np.zeros(m)
        hi = np.zeros(m)
        # the rows of each _node_groups run, stacked node by node
        for run in _node_groups(len(s), X):
            base = np.tile(X, (len(run), 1))
            base.reshape(len(run), m, n)[:, :, i] = (
                s[run.start:run.stop, None] * xi)
            D = f.partial_rows(base, i, order).reshape(len(run), m)
            for j, dj in zip(run, D):
                d = w[j] * (1.0 - s[j]) ** p * dj
                lo += d
                hi += (1.0 - s[j]) * d
        rhs += xi ** (p + 1) * lo - xi ** (p + 3) / (p + 1) * hi
    return rhs


def stein_representation_check(f, dist: CoordinateDistribution,
                               variant: str = "fourth",
                               stream: RandomStream = DEFAULT_STREAM,
                               replicates: int = 2000) -> Agreement:
    """Check E L f(xi) (lhs) against its integral representation (rhs).

    variant 'third' uses third partials and needs E xi^2 = 1, E|xi|^3 < inf;
    variant 'fourth' uses fourth partials and additionally needs E xi^3 = 0.
    A violated hypothesis raises HypothesisViolation naming the moment.
    Rademacher coordinates with n <= 12 are enumerated exactly (samples is
    2^n); other laws go through Monte-Carlo with common random numbers
    (samples is the replicate count).  The tolerance is ``_tolerance``'s.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if abs(dist.variance - 1.0) > 1e-12:
        raise HypothesisViolation(
            "second moment", f"E xi^2 must equal 1, got {dist.variance}")
    if variant == "fourth" and dist.third_moment != 0.0:
        raise HypothesisViolation(
            "third moment", f"E xi^3 must vanish, got {dist.third_moment}")
    n = f.n
    s, w = _gauss_legendre(STEIN_NODES, 0.0, 1.0)

    def sides(X):
        # per row: the generator side E L f and the representation side
        return np.stack([f.generator_rows(X),
                         _stein_terms(f, X, variant, s, w)], axis=1)

    exact = dist.name == "rademacher" and n <= 12
    if exact:
        S, se = sides(sign_patterns(n)), 0.0
    else:
        S = _blocked(stream, "stein-xi", replicates,
                     lambda rng: dist.sample(rng, (SAMPLE_BLOCK, n)), sides)
        se = mean_se(S[:, 0] - S[:, 1])[1]
    lhs, rhs = (float(v) for v in S.mean(axis=0))
    return Agreement(lhs, (rhs,), se, _tolerance(exact, se), exact, S.shape[0])


def semigroup_check(f, t1: float, t2: float, x, samples: int = 4096,
                    stream: RandomStream = DEFAULT_STREAM) -> Agreement:
    """P_{t1} P_{t2} f(x) (lhs) vs P_{t1+t2} f(x) (rhs).

    Polynomials compare exactly; otherwise the nested average is compared
    to the direct one.  The tolerance is ``_tolerance``'s.
    """
    t1, t2, x = _time(t1), _time(t2), _point(f, x)
    if isinstance(f, Polynomial):
        lhs = float(f.ou_smoothed(t2).ou_smoothed(t1)(x))
        return Agreement(lhs, (float(f.ou_smoothed(t1 + t2)(x)),), 0.0,
                         _tolerance(True, 0.0), True)
    n, a1, a2 = f.n, math.exp(-t1), math.exp(-t2)
    b1, b2 = _ou_b(a1), _ou_b(a2)
    # both Gaussians of the nested kernel in one draw: G1 | G2
    nested = _blocked(
        stream, "semigroup", samples,
        lambda rng: rng.standard_normal((SAMPLE_BLOCK, 2 * n)),
        lambda G: f.value_rows(a2 * (a1 * x + b1 * G[:, :n]) + b2 * G[:, n:]))
    direct = ou_apply(f, t1 + t2, x, samples,
                      stream.substream("semigroup-direct"))
    lhs, nested_se = mean_se(nested)
    se = math.hypot(nested_se, direct.std_error)
    return Agreement(lhs, (direct.value,), se, _tolerance(False, se), False,
                     samples)


def ergodic_check(f, t: float, x, samples: int = 4096,
                  stream: RandomStream = DEFAULT_STREAM) -> Agreement:
    """P_t f(x) (lhs) against E f(G) (rhs), within the decay bound
    e^{-t} L r (+ MC noise) as the tolerance, with r = |x| + sqrt(n) and L
    the Lipschitz bound of f on the ball of radius r.
    """
    t, x = _time(t), _point(f, x)
    if isinstance(f, Polynomial):
        # P_t f(x) - E f(G) = sum_{m>=1} q_m u^m with u = e^{-t}, so the
        # deviation decays at least like e^{-t} sum |q_m|, judged with a
        # float slack
        q = _u_polynomial(f, x)
        bound = math.exp(-t) * float(np.abs(q[1:]).sum()) * (1 + 1e-9) + 1e-12
        return Agreement(float(f.ou_smoothed(t)(x)), (f.gaussian_mean(),),
                         0.0, bound, True)
    mg, mg_se = _gaussian_mean_estimate(f, f.n, samples,
                                        stream.substream("ergodic-mean"))
    est = ou_apply(f, t, x, samples, stream.substream("ergodic"))
    se = math.hypot(est.std_error, mg_se)
    radius = float(np.linalg.norm(x)) + math.sqrt(f.n)
    bound = math.exp(-t) * f.lipschitz_bound(radius) * radius + 4.0 * se
    return Agreement(est.value, (mg,), se, bound, False, samples)
