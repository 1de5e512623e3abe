"""Constitutive closure for a compressible, heat-conducting, resistive fluid.

The material model is split into a cold (elastic) pressure p_e(rho), a thermal
pressure theta * p_th(rho), temperature-dependent transport coefficients
mu, lambda, kappa, a constant specific heat c_v, and a constant magnetic
diffusivity nu.
From these the module derives the potentials that enter the energy and entropy
bookkeeping:

    P_e(rho)  = int_1^rho p_e(s)/s^2 ds        elastic potential
    P_th(rho) = int_1^rho p_th(s)/s^2 ds       thermal pressure potential
    Q(theta)  = c_v theta                      heat content
    K(theta)  = int_0^theta kappa(s) ds        conductivity potential

plus the renormalized variants Q_h, K_h obtained by weighting the integrand
with h(theta) = (1+theta)^-omega.

The specific heat c_v is a float, as the scheme assumes: Q and Q_h have
closed forms and Q inverts exactly.  Every other coefficient is either a
PowerSum, the monomials c x^e of a sum held in order as pairs (c, e), e = 0
being the constant c, which Const, Power and Sum build; or a
piecewise-linear table, which has no potential and may serve only as mu or
lambda.  A potential of a table, or of any other callable, raises
TypeError: there is no quadrature fallback, and the module imports no
scipy.  K_h has no elementary form and is read from a dense cumulative
Simpson table.  No other module looks inside a piece.

The value and the integral from zero of a PowerSum are step lists in the
idiom of fieldops.d1_steps: value_steps and integral_steps pass each numpy
call of the closed form to a builder b, as b.emit(fn, *args), on arrays
from b.buf(), with x**e read from b.power(x, e).  A PowerSum's __call__
and conductivity_potential make those steps as they are emitted;
solver.rhs binds them into its compiled program, whose builder takes each
power once.  A constant's value is its float, a monomial of x one
multiply, and several are added left to right from 0, as sum() adds
them, so both routes give the bits the plain numpy expressions give.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "PowerSum",
    "Const",
    "Power",
    "Sum",
    "Tabulated",
    "HypothesisBounds",
    "ConstitutiveLaw",
    "Renormalizer",
    "AdmissibilityReport",
    "HypothesisReport",
    "make_standard_law",
    "pressure",
    "elastic_potential",
    "thermal_pressure_potential",
    "heat_content",
    "conductivity_potential",
    "value_steps",
    "integral_steps",
    "power_terms",
    "renormalized_heat_content",
    "renormalized_conductivity_potential",
    "entropy",
    "temperature_from_heat",
    "check_admissible",
    "validate_hypotheses",
]

# range over which the hypothesis checks are sampled
_SAMPLE_SPAN = (1e-6, 1e3)
_SAMPLE_COUNT = 256


# ---------------------------------------------------------------------------
# primitive catalog
# ---------------------------------------------------------------------------


def _call(fn, *args, **kwargs) -> None:
    fn(*args, **kwargs)


# makes a step as it is emitted; operator.call (Python 3.11) does so without
# a Python frame
_now = getattr(operator, "call", _call)


class _Eager:
    """A builder that makes each step as it is emitted, on new arrays of
    one shape."""

    emit = staticmethod(_now)
    power = staticmethod(np.power)

    def __init__(self, shape):
        self.shape = shape

    def buf(self) -> np.ndarray:
        return np.empty(self.shape)


def _evaluate(form, x):
    """form(x, builder) made at once: an array shaped like x, a scalar for
    a scalar x."""
    x = np.asarray(x, dtype=float)
    v = form(x, _Eager(x.shape))
    if isinstance(v, float):
        return np.full(x.shape, v) if x.ndim else v
    return v if x.ndim else v[()]


def _call_into(fn, x, out) -> None:
    np.copyto(out, fn(x))


def value_steps(prim, x, b):
    """The steps of prim(x) on the builder b: a float for a constant, else
    an array of b's that the caller may overwrite.  A piece with no closed
    form, a table among them, is one call of its own function."""
    if isinstance(prim, PowerSum):
        return prim.steps(x, b)
    out = b.buf()
    b.emit(_call_into, prim, x, out)
    return out


def power_terms(prim) -> tuple:
    """The monomials ((c, e), ...) of a PowerSum; TypeError for any other
    piece."""
    if not isinstance(prim, PowerSum):
        raise TypeError(f"no closed form for {prim!r}")
    return prim.terms


def integral_steps(prim, x, b, out=None):
    """The steps of int_0^x prim(s) ds on the builder b, written into out,
    or into an array of b's when out is None."""
    power_terms(prim)  # refuses a piece with no closed form
    return prim.integral_steps(x, b, out)


def _fold(values, b):
    """A lone value as it is, else 0 + v_1 + v_2 + ..., added left to right
    as sum() adds them: the leading floats in Python, the rest into the
    first array, which turns its -0.0 into +0.0 with the 0 that sum()
    starts from."""
    if len(values) == 1:
        return values[0]
    acc, total = 0.0, None
    for v in values:
        if total is not None:
            b.emit(np.add, total, v, total)
        elif isinstance(v, float):
            acc += v
        else:
            total = v
            b.emit(np.add, total, acc, total)
    return acc if total is None else total


class PowerSum:
    """sum_i c_i x**e_i, held as its monomials (c_i, e_i) in order."""

    def __init__(self, terms):
        self.terms = tuple((float(c), float(e)) for c, e in terms)

    def __call__(self, x):
        return _evaluate(self.steps, x)

    def steps(self, x, b):
        values = []
        for c, e in self.terms:
            if e:
                values.append(b.buf())
                b.emit(np.multiply, b.power(x, e), c, values[-1])
            else:
                values.append(c)
        return _fold(values, b)

    def integral_steps(self, x, b, out=None):
        parts = []  # the first monomial's integral is written into out
        for c, e in self.terms:
            parts.append(b.buf() if out is None or parts else out)
            if not e:
                b.emit(np.multiply, x, c, parts[-1])
            elif e > -1.0:
                b.emit(np.multiply, b.power(x, e + 1.0), c, parts[-1])
                b.emit(np.true_divide, parts[-1], e + 1.0, parts[-1])
            else:
                raise ValueError(f"non-integrable power {e} at zero")
        return _fold(parts, b)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return sum(c * e * np.power(x, e - 1.0) if e else np.zeros_like(x) for c, e in self.terms)

    def __repr__(self):
        parts = [f"Power({c}, {e})" if e else f"Const({c})" for c, e in self.terms]
        return parts[0] if len(parts) == 1 else f"Sum({', '.join(parts)})"


def Const(c: float) -> PowerSum:
    """Constant coefficient c."""
    return PowerSum([(c, 0.0)])


def Power(coef: float, expo: float) -> PowerSum:
    """Monomial coef * x**expo."""
    return PowerSum([(coef, expo)])


def Sum(*pieces) -> PowerSum:
    """Sum of PowerSum pieces: their monomials, in order."""
    return PowerSum(term for p in pieces for term in power_terms(p))


class Tabulated:
    """Piecewise-linear table, extrapolated flat beyond the endpoints."""

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise ValueError("table abscissae and values must be equal-length 1d")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def __repr__(self):
        return f"Tabulated(n={len(self.xs)})"


# ---------------------------------------------------------------------------
# law container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisBounds:
    """Growth/bound constants used by the sampled hypothesis checks."""

    a1: float
    a2: float
    a3: float
    kappa_lo: float
    kappa_hi: float
    mu_lo: float
    mu_hi: float
    lam_hi: float
    cv_lo: float
    cv_hi: float


@dataclass(frozen=True)
class ConstitutiveLaw:
    """Full material closure.

    gamma is the cold-pressure growth exponent, alpha the conductivity growth
    exponent, nu the (constant) magnetic diffusivity.  The structural
    constraints gamma > 3/2, alpha > 2, nu > 0 are enforced here; everything
    sampled lives in validate_hypotheses.  c_v is the constant specific
    heat.
    """

    gamma: float
    alpha: float
    nu: float
    p_e: Callable
    p_th: Callable
    mu: Callable
    lam: Callable
    kappa: Callable
    c_v: float
    bounds: HypothesisBounds

    def __post_init__(self):
        if not self.gamma > 1.5:
            raise ValueError(
                f"gamma must exceed 3/2, got gamma={self.gamma}"
            )
        if not self.alpha > 2.0:
            raise ValueError(f"alpha must exceed 2, got alpha={self.alpha}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got nu={self.nu}")
        if not isinstance(self.c_v, float):
            raise TypeError(f"c_v must be a float, got {self.c_v!r}")


def _value_range(prim):
    """(min, max) over all theta of a constant or tabulated coefficient.

    Exact for a table too, since it is extrapolated flat beyond its ends.
    """
    if isinstance(prim, Tabulated):
        return float(np.min(prim.ys)), float(np.max(prim.ys))
    if isinstance(prim, PowerSum) and not any(e for _, e in prim.terms):
        return (sum(c for c, _ in prim.terms),) * 2
    raise TypeError(f"no closed-form range for {prim!r}")


def _is_zero_coeff(prim) -> bool:
    """Whether prim is the constant 0."""
    return isinstance(prim, PowerSum) and all(c == 0.0 and not e for c, e in prim.terms)


def make_standard_law(
    gamma: float = 5.0 / 3.0,
    alpha: float = 3.0,
    nu: float = 1.0,
    *,
    pe0: float = 1.0,
    pth0: float = 1.0,
    mu0: float = 1.0,
    lam0: float = 0.0,
    kappa0: float = 1.0,
    cv0: float = 1.0,
    p_th=None,
    mu=None,
    lam=None,
    kappa=None,
) -> ConstitutiveLaw:
    """Build the power-family law, optionally overriding individual pieces.

    p_e = pe0 rho^gamma and c_v = cv0 always; the defaults of the others are
    p_th = pth0 rho^(gamma/3), mu = mu0, lambda = lam0 and kappa = kappa0
    (1 + theta^alpha).  Bound constants carry a 1e-9 relative margin.  The
    viscosity bounds are the range of the mu and lambda pieces passed; a3
    is the coefficient of a power p_th, and the kappa bounds are min and max
    of a and b for kappa = a + b theta^alpha.  Any other shape gets the
    envelope of the declared family.
    """
    p_th = p_th if p_th is not None else Power(pth0, gamma / 3.0)
    mu = mu if mu is not None else Const(mu0)
    lam = lam if lam is not None else Const(lam0)
    kappa = kappa if kappa is not None else Sum(Const(kappa0), Power(kappa0, alpha))

    slack = 1e-9
    mu_min, mu_max = _value_range(mu)
    p_th_terms = p_th.terms if isinstance(p_th, PowerSum) else ()
    kappa_terms = kappa.terms if isinstance(kappa, PowerSum) else ()
    # p_th = c rho^e is bounded by c (1 + rho^(gamma/3)) for 0 <= e <= gamma/3
    a3 = p_th_terms[0][0] if len(p_th_terms) == 1 and p_th_terms[0][1] else pth0
    # kappa = a + b theta^alpha lies between min(a, b) and max(a, b) times
    # (1 + theta^alpha)
    a, b = [c for c, _ in kappa_terms] if [e for _, e in kappa_terms] == [0.0, alpha] else [kappa0] * 2
    bounds = HypothesisBounds(
        a1=pe0 * gamma * (1.0 - slack),
        a2=pe0 * (1.0 + slack),
        a3=a3 * (1.0 + slack),
        kappa_lo=min(a, b) * (1.0 - slack),
        kappa_hi=max(a, b) * (1.0 + slack),
        mu_lo=mu_min * (1.0 - slack),
        mu_hi=mu_max * (1.0 + slack),
        lam_hi=max(_value_range(lam)[1], 0.0) * (1.0 + slack),
        cv_lo=cv0 * (1.0 - slack),
        cv_hi=cv0 * (1.0 + slack),
    )

    return ConstitutiveLaw(
        gamma=float(gamma),
        alpha=float(alpha),
        nu=float(nu),
        p_e=Power(pe0, gamma),
        p_th=p_th,
        mu=mu,
        lam=lam,
        kappa=kappa,
        c_v=float(cv0),
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# potentials (closed forms per primitive)
# ---------------------------------------------------------------------------


def _antideriv_over_sq(prim, rho):
    """int_1^rho prim(s)/s^2 ds: the sum over the monomials c s^e of prim of
    c (1 - 1/rho) at e = 0, c log(rho) at e = 1, else c (rho^(e-1) - 1)/(e-1)."""
    rho = np.asarray(rho, dtype=float)
    return sum(
        c * (1.0 - 1.0 / rho) if not e
        else c * np.log(rho) if abs(e - 1.0) < 1e-14
        else c * (np.power(rho, e - 1.0) - 1.0) / (e - 1.0)
        for c, e in power_terms(prim)
    )


def elastic_potential(law: ConstitutiveLaw, rho):
    """P_e(rho) = int_1^rho p_e(s)/s^2 ds."""
    return _antideriv_over_sq(law.p_e, rho)


def thermal_pressure_potential(law: ConstitutiveLaw, rho):
    """P_th(rho) = int_1^rho p_th(s)/s^2 ds."""
    return _antideriv_over_sq(law.p_th, rho)


def heat_content(law: ConstitutiveLaw, theta):
    """Q(theta) = c_v theta."""
    return law.c_v * np.asarray(theta, dtype=float)


def conductivity_potential(law: ConstitutiveLaw, theta):
    """K(theta) = int_0^theta kappa(s) ds."""
    return _evaluate(partial(integral_steps, law.kappa), theta)


def pressure(law: ConstitutiveLaw, rho, theta):
    """p(rho,theta) = p_e(rho) + theta * p_th(rho)."""
    return law.p_e(rho) + np.asarray(theta, dtype=float) * law.p_th(rho)


def entropy(law: ConstitutiveLaw, rho, theta):
    """s(rho,theta) = c_v log(theta) - P_th(rho)."""
    return law.c_v * np.log(np.asarray(theta, dtype=float)) - thermal_pressure_potential(law, rho)


# ---------------------------------------------------------------------------
# renormalizing weight h(theta) = (1+theta)^-omega
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Renormalizer:
    """Decaying weight used to renormalize the thermal balance."""

    omega: float

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(
                f"omega must lie in (0, 1], got {self.omega}; "
                "omega <= 1 is required for h''h >= 2(h')^2"
            )

    def __call__(self, theta):
        return np.power(1.0 + np.asarray(theta, dtype=float), -self.omega)

    def deriv(self, theta):
        t = np.asarray(theta, dtype=float)
        return -self.omega * np.power(1.0 + t, -self.omega - 1.0)


def _simpson_first_intervals(y, dx):
    """Simpson integral over [x_i, x_i+1] of the parabola through nodes i,
    i+1 and i+2, for every i: eq. (8) of K. V. Cartwright, J. Math. Sci.
    Math. Educ. 12(2) 1-9, in the operation order scipy uses."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] - x21x21_x31x32 * y[2:])


def _cumulative_simpson(y, x):
    """scipy.integrate.cumulative_simpson(y, x=x, initial=0.0) for 1D y on
    strictly increasing x with at least 3 nodes, bit for bit.

    Even intervals integrate the parabola through their two nodes and the
    next one; odd intervals, and the last, the parabola through their two
    nodes and the previous one.
    """
    dx = np.diff(x)
    ahead = _simpson_first_intervals(y, dx)
    behind = _simpson_first_intervals(y[::-1], dx[::-1])[::-1]
    sub = np.empty(y.size - 1)
    sub[:-1:2] = ahead[::2]
    sub[1::2] = behind[::2]
    sub[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


# queries read per pass of _cumulative_weighted; each temporary stays at 64 kB
_TABLE_CHUNK = 8192


def _uniform_interval(nodes, x):
    """clip(searchsorted(nodes, x, side="right") - 1, 0, n - 2) for the n
    uniform nodes np.linspace(0, top, n), in O(1) per query: x (n-1)/top is
    off by at most one node next to a node, which one step each way mends.
    """
    n = nodes.size
    k = np.clip((x * ((n - 1) / nodes[-1])).astype(np.intp), 0, n - 2)
    k -= (nodes[k] > x) & (k > 0)
    k += (nodes[k + 1] <= x) & (k < n - 2)
    return k


def _cumulative_weighted(fn, queries, n=32769):
    """int_0^q fn(s) ds for each query, read from a dense cumulative Simpson
    table with the cubic Hermite interpolant whose node slopes are fn.

    The interpolant is fourth order, so the value at one query does not
    depend, beyond rounding, on the other queries that set the table range.
    Queries are read in chunks, which bounds the temporaries when a whole
    trajectory is passed at once.
    """
    q = np.asarray(queries, dtype=float)
    top = float(np.max(q)) if q.size else 1.0
    if top <= 0.0:
        return np.zeros_like(q) if q.ndim else 0.0
    grid = np.linspace(0.0, top, n)
    vals = fn(grid)
    table = _cumulative_simpson(vals, grid)
    out = np.empty(q.shape)
    flat_q, flat_out = q.reshape(-1), out.reshape(-1)
    for start in range(0, flat_q.size, _TABLE_CHUNK):
        x = flat_q[start : start + _TABLE_CHUNK]
        k = _uniform_interval(grid, x)
        h = grid[k + 1] - grid[k]
        s = np.clip((x - grid[k]) / h, 0.0, 1.0)
        r = 1.0 - s
        y = (1.0 + 2.0 * s) * r * r * table[k] + s * s * (3.0 - 2.0 * s) * table[k + 1]
        y += h * s * r * (r * vals[k] - s * vals[k + 1])
        flat_out[start : start + _TABLE_CHUNK] = y
    return out if q.ndim else float(out)


def renormalized_heat_content(law: ConstitutiveLaw, ren: Renormalizer, theta):
    """Q_h(theta) = int_0^theta c_v h(s) ds."""
    t = np.asarray(theta, dtype=float)
    w = ren.omega
    if abs(w - 1.0) < 1e-14:
        return law.c_v * np.log1p(t)
    return law.c_v * (np.power(1.0 + t, 1.0 - w) - 1.0) / (1.0 - w)


def renormalized_conductivity_potential(law: ConstitutiveLaw, ren: Renormalizer, theta):
    """K_h(theta) = int_0^theta kappa(s) h(s) ds."""
    return _cumulative_weighted(lambda s: law.kappa(s) * ren(s), theta)


# ---------------------------------------------------------------------------
# admissibility of a renormalizing weight
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    ok: bool
    reasons: list[str] = field(default_factory=list)


def check_admissible(candidate) -> AdmissibilityReport:
    """Decide whether a weight qualifies as a renormalizer.

    Required: h(0) > 0, h' <= 0, h(theta) -> 0 for large theta, and the
    convexity condition h''(theta) h(theta) >= 2 h'(theta)^2.  For the
    power family (passed as an omega value or a Renormalizer) the conditions
    reduce to 0 < omega <= 1 and are decided in closed form; a bare callable
    is checked on samples with finite-difference derivatives, using
    h(1e4) < 1e-2 as the decay proxy.
    """
    reasons: list[str] = []

    if isinstance(candidate, Renormalizer):
        candidate = candidate.omega
    if isinstance(candidate, (int, float)):
        omega = float(candidate)
        if not omega > 0.0:
            reasons.append(
                f"omega = {omega} <= 0: h does not decay and h' <= 0 fails"
            )
        if omega > 1.0:
            reasons.append(
                f"omega = {omega} > 1: h''h >= 2(h')^2 needs omega(omega+1) >= "
                "2 omega^2, i.e. omega <= 1"
            )
        return AdmissibilityReport(ok=not reasons, reasons=reasons)

    h = candidate
    thetas = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 200)))
    hv = np.asarray([float(h(t)) for t in thetas])
    step = np.maximum(1e-6, 1e-6 * thetas)
    hp = np.asarray([(h(t + s) - h(max(t - s, 0.0))) / (s + min(t, s)) for t, s in zip(thetas, step)])
    hpp = np.asarray(
        [
            (h(t + s) - 2.0 * h(t) + h(t - s)) / s**2
            if t >= s
            else (h(t) - 2.0 * h(t + s) + h(t + 2.0 * s)) / s**2
            for t, s in zip(thetas, step)
        ]
    )

    if not hv[0] > 0.0:
        reasons.append(f"h(0) = {hv[0]:.3g} is not positive")
    slack = 1e-8 * (np.abs(hv) + 1.0)
    if np.any(hp > slack):
        i = int(np.argmax(hp - slack))
        reasons.append(f"h'({thetas[i]:.3g}) = {hp[i]:.3g} > 0, weight must be nonincreasing")
    if not hv[-1] < 1e-2:
        reasons.append(
            f"h({thetas[-1]:.3g}) = {hv[-1]:.3g} >= 1e-2, weight does not decay"
        )
    convex = hpp * hv - 2.0 * hp**2
    tol = -1e-6 * (np.abs(hpp * hv) + hp**2 + 1e-30) - 1e-12
    if np.any(convex < tol):
        i = int(np.argmin(convex - tol))
        reasons.append(
            f"h''*h >= 2*(h')^2 violated at theta = {thetas[i]:.3g} "
            f"(convexity defect {convex[i]:.3g})"
        )
    return AdmissibilityReport(ok=not reasons, reasons=reasons)


# ---------------------------------------------------------------------------
# temperature recovery
# ---------------------------------------------------------------------------


def temperature_from_heat(law: ConstitutiveLaw, w):
    """Invert Q: theta = w / c_v for heat content w >= 0 entrywise."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError(
            f"heat content must be nonnegative, min = {float(np.min(w)):.6g}"
        )
    out = w / law.c_v
    return out if w.ndim else float(out)


# ---------------------------------------------------------------------------
# sampled hypothesis validation
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    description: str
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [
            f"{c.name}: {c.description}" + (f" -- {c.detail}" if c.detail else "")
            for c in self.checks
            if not c.passed
        ]


def _sampled_check(name, desc, xs, lhs, rhs, checks):
    """Record lhs <= rhs up to a tiny relative slack, with worst point."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    slack = 1e-9 * (np.abs(lhs) + np.abs(rhs)) + 1e-300
    bad = lhs > rhs + slack
    if np.any(bad):
        i = int(np.argmax(lhs - rhs))
        detail = f"violated at x={xs[i]:.6g}: lhs={lhs[i]:.6g} > rhs={rhs[i]:.6g}"
        checks.append(CheckResult(name, desc, False, detail))
    else:
        checks.append(CheckResult(name, desc, True))


def validate_hypotheses(law: ConstitutiveLaw) -> HypothesisReport:
    """Check the structural growth and bound hypotheses on sample grids.

    Scalar constraints (gamma > 3/2, alpha > 2, nu > 0, positivity of the
    bound constants) are re-checked here even though the constructor enforces
    the first three.  Pointwise inequalities are sampled on log-spaced grids
    over _SAMPLE_SPAN with a 1e-9 relative slack so exact saturation passes.
    """
    b = law.bounds
    checks: list[CheckResult] = []
    rho = np.geomspace(*_SAMPLE_SPAN, _SAMPLE_COUNT)
    theta = np.geomspace(*_SAMPLE_SPAN, _SAMPLE_COUNT)

    for name, desc, ok in [
        ("gamma", "gamma must exceed 3/2", law.gamma > 1.5),
        ("alpha", "alpha must exceed 2", law.alpha > 2.0),
        ("nu", "nu must be positive", law.nu > 0.0),
        ("a1", "a1 must be positive", b.a1 > 0.0),
        ("a2", "a2 must be positive", b.a2 > 0.0),
        ("a3", "a3 must be positive", b.a3 > 0.0),
        ("kappa_bounds", "0 < kappa_lo <= kappa_hi", 0.0 < b.kappa_lo <= b.kappa_hi),
        ("mu_bounds", "0 < mu_lo <= mu_hi", 0.0 < b.mu_lo <= b.mu_hi),
        ("cv_bounds", "0 < cv_lo <= cv_hi", 0.0 < b.cv_lo <= b.cv_hi),
    ]:
        checks.append(CheckResult(name, desc, bool(ok)))

    pe0 = float(law.p_e(0.0))
    checks.append(
        CheckResult(
            "p_e_zero", "p_e(0) = 0", abs(pe0) < 1e-12, f"p_e(0)={pe0:.3g}"
        )
    )
    pth0 = float(law.p_th(0.0))
    checks.append(
        CheckResult(
            "p_th_zero", "p_th(0) = 0", abs(pth0) < 1e-12, f"p_th(0)={pth0:.3g}"
        )
    )

    _sampled_check(
        "p_e_growth",
        "p_e'(rho) >= a1 * rho^(gamma-1)",
        rho,
        b.a1 * np.power(rho, law.gamma - 1.0),
        law.p_e.deriv(rho),
        checks,
    )
    _sampled_check(
        "p_e_upper",
        "p_e(rho) <= a2 * rho^gamma",
        rho,
        law.p_e(rho),
        b.a2 * np.power(rho, law.gamma),
        checks,
    )
    _sampled_check(
        "p_th_monotone",
        "p_th'(rho) >= 0",
        rho,
        np.zeros_like(rho),
        law.p_th.deriv(rho),
        checks,
    )
    _sampled_check(
        "p_th_growth",
        "p_th(rho) <= a3 * (1 + rho^(gamma/3))",
        rho,
        law.p_th(rho),
        b.a3 * (1.0 + np.power(rho, law.gamma / 3.0)),
        checks,
    )
    shape = 1.0 + np.power(theta, law.alpha)
    _sampled_check(
        "kappa_lower",
        "kappa_lo * (1 + theta^alpha) <= kappa(theta)",
        theta,
        b.kappa_lo * shape,
        law.kappa(theta),
        checks,
    )
    _sampled_check(
        "kappa_upper",
        "kappa(theta) <= kappa_hi * (1 + theta^alpha)",
        theta,
        law.kappa(theta),
        b.kappa_hi * shape,
        checks,
    )
    muv = np.asarray(law.mu(theta), dtype=float)
    _sampled_check("mu_lower", "mu_lo <= mu(theta)", theta, np.full_like(theta, b.mu_lo), muv, checks)
    _sampled_check("mu_upper", "mu(theta) <= mu_hi", theta, muv, np.full_like(theta, b.mu_hi), checks)
    lamv = np.asarray(law.lam(theta), dtype=float)
    _sampled_check(
        "lambda_lower", "0 <= lambda(theta)", theta, np.zeros_like(theta), lamv, checks
    )
    _sampled_check(
        "lambda_upper",
        "lambda(theta) <= lambda_hi",
        theta,
        lamv,
        np.full_like(theta, b.lam_hi),
        checks,
    )

    return HypothesisReport(checks=checks)
