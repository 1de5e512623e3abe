"""Closed-form oracles for the constitutive layer.

Expected values below are derived independently of the implementation:
antiderivatives are worked out by hand and frozen as literals, with the
defining integral noted next to each.
"""

import dataclasses
import math

import numpy as np
import pytest

from mhdlab import constitutive
from mhdlab.constitutive import (
    Const,
    Power,
    Renormalizer,
    Sum,
    Tabulated,
    check_admissible,
    elastic_potential,
    entropy,
    heat_content,
    conductivity_potential,
    make_standard_law,
    pressure,
    renormalized_conductivity_potential,
    renormalized_heat_content,
    temperature_from_heat,
    thermal_pressure_potential,
    validate_hypotheses,
)

GAMMA = 5.0 / 3.0


@pytest.fixture
def law():
    return make_standard_law(gamma=GAMMA, alpha=3.0, nu=1.0)


def internal_energy(law, rho, theta):
    """e(rho,theta) = P_e(rho) + Q(theta)."""
    return elastic_potential(law, rho) + heat_content(law, theta)


def maxwell_residual(law, rho: float, theta: float, step: float = 1e-5):
    """Finite-difference check of the thermodynamic compatibility relation.

    Returns d e/d rho (central difference) minus (p - theta dp/dtheta)/rho^2;
    for the additive closure the second factor reduces to p_e(rho)/rho^2, so
    the residual is pure discretization error, O(step^2).
    """
    de = (
        internal_energy(law, rho + step, theta)
        - internal_energy(law, rho - step, theta)
    ) / (2.0 * step)
    return float(de - law.p_e(rho) / rho**2)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_elastic_potential_closed_form(law):
    # P_e(rho) = int_1^rho xi^(gamma-2) dxi = (rho^(gamma-1) - 1)/(gamma - 1)
    # gamma = 5/3: P_e(8) = (8^(2/3) - 1) * (3/2) = (4 - 1) * 1.5 = 4.5
    assert elastic_potential(law, 8.0) == pytest.approx(4.5, rel=1e-12)
    assert elastic_potential(law, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_elastic_potential_vectorized(law):
    rho = np.array([0.5, 1.0, 2.0, 8.0])
    want = (rho ** (GAMMA - 1.0) - 1.0) / (GAMMA - 1.0)
    np.testing.assert_allclose(elastic_potential(law, rho), want, rtol=1e-12)


def test_thermal_pressure_potential_closed_form(law):
    # P_th(rho) = int_1^rho xi^(gamma/3 - 2) dxi, gamma/3 = 5/9:
    # = (rho^(-4/9) - 1)/(-4/9) = 2.25 * (1 - rho^(-4/9))
    want = 2.25 * (1.0 - 8.0 ** (-4.0 / 9.0))
    assert thermal_pressure_potential(law, 8.0) == pytest.approx(want, rel=1e-12)


def test_potentials_match_quadrature(law):
    # independent route: adaptive quadrature of the defining integrands
    from scipy.integrate import quad

    for rho in (0.3, 1.7, 5.0):
        ref, _ = quad(lambda s: law.p_e(s) / s**2, 1.0, rho, epsrel=1e-12)
        assert elastic_potential(law, rho) == pytest.approx(ref, rel=1e-9, abs=1e-12)
        ref, _ = quad(lambda s: law.p_th(s) / s**2, 1.0, rho, epsrel=1e-12)
        assert thermal_pressure_potential(law, rho) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_heat_content_and_conductivity_potential(law):
    # c_v = 1 so Q(theta) = theta; kappa = 1 + theta^3 so K(2) = 2 + 16/4 = 6
    assert heat_content(law, 2.5) == pytest.approx(2.5, rel=1e-12)
    assert conductivity_potential(law, 2.0) == pytest.approx(6.0, rel=1e-12)
    theta = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(
        conductivity_potential(law, theta), theta + theta**4 / 4.0, rtol=1e-12, atol=1e-14
    )


def test_specific_heat_is_a_float():
    # c_v is constant in the scheme: Q = c_v theta and the c_v part of the
    # entropy, c_v log(theta), take the float as it is
    law = make_standard_law(cv0=3)
    assert type(law.c_v) is float and law.c_v == 3.0
    theta = np.array([0.0, 0.3, 1.7, 40.0])
    assert heat_content(law, theta).tobytes() == np.multiply(theta, 3.0).tobytes()
    assert entropy(law, 1.0, theta[1:]).tobytes() == (3.0 * np.log(theta[1:])).tobytes()
    with pytest.raises(TypeError, match="c_v must be a float"):
        dataclasses.replace(law, c_v=Const(3.0))


def test_pressure_and_internal_energy(law):
    # p(2,3) = 2^(5/3) + 3 * 2^(5/9)
    want = 2.0 ** (5.0 / 3.0) + 3.0 * 2.0 ** (5.0 / 9.0)
    assert pressure(law, 2.0, 3.0) == pytest.approx(want, rel=1e-13)
    # e = P_e + Q, additive split
    assert internal_energy(law, 8.0, 2.5) == pytest.approx(4.5 + 2.5, rel=1e-12)


def test_maxwell_relation_finite_difference(law):
    # d e / d rho must equal (p - theta * dp/dtheta) / rho^2 = p_e(rho)/rho^2
    for rho, theta in ((2.0, 3.0), (0.7, 1.2), (5.0, 0.4)):
        assert abs(maxwell_residual(law, rho, theta, step=1e-4)) < 1e-8


def test_entropy_reference_values(law):
    # s(rho,theta) = int_1^theta c_v/xi dxi - P_th(rho); c_v = 1
    assert entropy(law, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert entropy(law, 1.0, math.e) == pytest.approx(1.0, rel=1e-12)
    assert entropy(law, 8.0, 1.0) == pytest.approx(
        -2.25 * (1.0 - 8.0 ** (-4.0 / 9.0)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# renormalizer weights
# ---------------------------------------------------------------------------


def test_renormalized_heat_content_closed_form(law):
    # omega = 1: Q_h(theta) = int_0^theta (1+xi)^-1 dxi = log(1+theta)
    ren = Renormalizer(omega=1.0)
    assert renormalized_heat_content(law, ren, math.e - 1.0) == pytest.approx(1.0, rel=1e-10)
    # omega = 0.5: ((1+theta)^0.5 - 1)/0.5
    ren = Renormalizer(omega=0.5)
    theta = np.array([0.0, 1.0, 3.0])
    want = 2.0 * (np.sqrt(1.0 + theta) - 1.0)
    np.testing.assert_allclose(renormalized_heat_content(law, ren, theta), want, rtol=1e-10)


def test_renormalized_conductivity_potential_quadrature(law):
    # no elementary antiderivative for theta^3 (1+theta)^-omega; compare with quad
    from scipy.integrate import quad

    ren = Renormalizer(omega=0.5)
    for theta in (0.5, 2.0, 7.0):
        ref, _ = quad(
            lambda s: law.kappa(s) * (1.0 + s) ** -0.5, 0.0, theta, epsrel=1e-12
        )
        got = float(renormalized_conductivity_potential(law, ren, theta))
        assert got == pytest.approx(ref, rel=1e-7)


def test_renormalized_conductivity_potential_independent_of_table_range(law):
    # the table spans [0, max query]; its cubic Hermite reading leaves each
    # value within rounding of quad, however small it is next to the top
    from scipy.integrate import quad

    ren = Renormalizer(omega=0.5)
    theta = np.array([1e-7, 0.3, 2.5, 10.0])
    got = renormalized_conductivity_potential(law, ren, theta)
    for th, g in zip(theta, got):
        ref, _ = quad(lambda s: law.kappa(s) * (1.0 + s) ** -0.5, 0.0, th, epsrel=1e-13)
        assert g == pytest.approx(ref, rel=1e-12)
        assert float(renormalized_conductivity_potential(law, ren, th)) == pytest.approx(
            g, rel=1e-13
        )


def _conductivity_potential_searchsorted(law, ren, theta, n=32769):
    """K_h as read before the O(1) interval lookup: the interval of each
    query found by binary search in the uniform table."""
    from mhdlab.constitutive import _cumulative_simpson

    fn = lambda s: law.kappa(s) * ren(s)  # noqa: E731
    x = np.asarray(theta, dtype=float)
    grid = np.linspace(0.0, float(np.max(x)), n)
    vals = fn(grid)
    table = _cumulative_simpson(vals, grid)
    k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, n - 2)
    h = grid[k + 1] - grid[k]
    s = np.clip((x - grid[k]) / h, 0.0, 1.0)
    r = 1.0 - s
    y = (1.0 + 2.0 * s) * r * r * table[k] + s * s * (3.0 - 2.0 * s) * table[k + 1]
    y += h * s * r * (r * vals[k] - s * vals[k + 1])
    return y


@pytest.mark.parametrize("top", [1.0, 2.7182818284590455, 13.37, 1234.5678])
def test_conductivity_potential_lookup_matches_binary_search(law, top):
    # every table node, both float neighbours of each node, 0, top and random
    # points: the interval computed from x (n-1)/top is the binary search's
    # (on a node the two neighbouring intervals give the same bytes, so the
    # intervals are compared as well as K_h)
    from mhdlab.constitutive import _uniform_interval

    ren = Renormalizer(omega=0.5)
    nodes = np.linspace(0.0, top, 32769)
    rng = np.random.default_rng(23)
    theta = np.concatenate(
        [
            nodes,
            np.nextafter(nodes[1:], 0.0),
            np.nextafter(nodes[:-1], np.inf),
            [0.0, top],
            top * rng.random(100_000),
        ]
    )
    want_k = np.clip(np.searchsorted(nodes, theta, side="right") - 1, 0, nodes.size - 2)
    assert np.array_equal(_uniform_interval(nodes, theta), want_k)
    got = renormalized_conductivity_potential(law, ren, theta)
    want = _conductivity_potential_searchsorted(law, ren, theta)
    assert got.tobytes() == want.tobytes()


def _simpson_tables():
    rng = np.random.default_rng(17)
    for n in (3, 4, 5, 8, 101, 32769):
        even = np.linspace(0.0, 2.5, n)
        uneven = np.cumsum(rng.uniform(0.05, 1.0, n))
        yield even, np.sin(even) * np.exp(-even)
        yield uneven, uneven**3 * (1.0 + uneven) ** -0.5
        yield uneven, rng.standard_normal(n)


def test_cumulative_simpson_is_scipys_bit_for_bit():
    from scipy.integrate import cumulative_simpson

    from mhdlab.constitutive import _cumulative_simpson

    for x, y in _simpson_tables():
        got = _cumulative_simpson(y, x)
        want = cumulative_simpson(y, x=x, initial=0.0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_renormalizer_evaluation():
    ren = Renormalizer(omega=0.5)
    assert ren(0.0) == pytest.approx(1.0)
    assert ren(3.0) == pytest.approx(0.5)
    assert ren.deriv(0.0) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        Renormalizer(omega=0.0)
    with pytest.raises(ValueError):
        Renormalizer(omega=1.5)


# ---------------------------------------------------------------------------
# admissibility of renormalizing weights
# ---------------------------------------------------------------------------


def test_admissible_omega_family_boundary():
    for omega in (0.25, 0.5, 1.0):
        rep = check_admissible(omega)
        assert rep.ok, rep.reasons
    rep = check_admissible(1.5)
    assert not rep.ok
    assert any("omega" in r for r in rep.reasons)


def test_exponential_weight_rejected():
    # h = exp(-theta) decays and is monotone, but h''h = e^(-2t) < 2(h')^2 = 2e^(-2t)
    rep = check_admissible(lambda t: np.exp(-t))
    assert not rep.ok
    assert any("convex" in r or "h''" in r for r in rep.reasons)


def test_callable_omega_weight_accepted():
    rep = check_admissible(lambda t: (1.0 + t) ** -0.5)
    assert rep.ok, rep.reasons


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------


def test_default_law_satisfies_hypotheses(law):
    rep = validate_hypotheses(law)
    assert rep.ok, rep.failures


def test_linear_thermal_pressure_rejected():
    # p_th(rho) = rho grows faster than a3 (1 + rho^(gamma/3)) for gamma = 5/3
    bad = make_standard_law(gamma=GAMMA, alpha=3.0, nu=1.0, p_th=Power(1.0, 1.0))
    rep = validate_hypotheses(bad)
    assert not rep.ok
    assert any("p_th" in f and "a3" in f for f in rep.failures)


def test_negative_shear_bulk_viscosity_rejected():
    bad = make_standard_law(gamma=GAMMA, alpha=3.0, nu=1.0, lam=Const(-0.1))
    rep = validate_hypotheses(bad)
    assert not rep.ok
    assert any("lambda" in f for f in rep.failures)


def test_conductivity_bounds_follow_the_kappa_passed():
    # kappa = 0.3 + 0.3 theta^3 lies below the default envelope kappa0 = 1;
    # its bounds are min and max of the two coefficients
    law = make_standard_law(kappa=Sum(Const(0.3), Power(0.3, 3.0)))
    assert (law.bounds.kappa_lo, law.bounds.kappa_hi) == (
        0.3 * (1.0 - 1e-9),
        0.3 * (1.0 + 1e-9),
    )
    rep = validate_hypotheses(law)
    assert rep.ok, rep.failures
    law = make_standard_law(kappa=Sum(Const(0.3), Power(2.0, 3.0)))
    assert (law.bounds.kappa_lo, law.bounds.kappa_hi) == (
        0.3 * (1.0 - 1e-9),
        2.0 * (1.0 + 1e-9),
    )
    rep = validate_hypotheses(law)
    assert rep.ok, rep.failures


def test_thermal_pressure_bound_follows_the_p_th_passed():
    law = make_standard_law(p_th=Power(2.0, 5.0 / 9.0))
    assert law.bounds.a3 == 2.0 * (1.0 + 1e-9)
    rep = validate_hypotheses(law)
    assert rep.ok, rep.failures


def test_default_conductivity_and_pressure_bounds_unchanged():
    b = make_standard_law(pth0=0.7, kappa0=0.1).bounds
    assert (b.a3, b.kappa_lo, b.kappa_hi) == (
        0.7 * (1.0 + 1e-9),
        0.1 * (1.0 - 1e-9),
        0.1 * (1.0 + 1e-9),
    )


def test_tabulated_viscosity_bounds_are_the_table_range():
    # mu from 0.5 to 5 and lambda from 0 to 2 over theta: the bounds are the
    # table extremes with the 1e-9 margin, so the law validates
    law = make_standard_law(
        mu=Tabulated([0.5, 3.0], [0.5, 5.0]), lam=Tabulated([0.5, 3.0], [0.0, 2.0])
    )
    assert law.bounds.mu_lo == 0.5 * (1.0 - 1e-9)
    assert law.bounds.mu_hi == 5.0 * (1.0 + 1e-9)
    assert law.bounds.lam_hi == 2.0 * (1.0 + 1e-9)
    rep = validate_hypotheses(law)
    assert rep.ok, rep.failures


def test_default_viscosity_bounds_unchanged():
    b = make_standard_law(mu0=0.1, lam0=0.3).bounds
    assert (b.mu_lo, b.mu_hi, b.lam_hi) == (
        0.1 * (1.0 - 1e-9),
        0.1 * (1.0 + 1e-9),
        0.3 * (1.0 + 1e-9),
    )
    assert make_standard_law(lam0=-0.2).bounds.lam_hi == 0.0


def test_low_conductivity_exponent_rejected_at_construction():
    with pytest.raises(ValueError, match="alpha"):
        make_standard_law(gamma=GAMMA, alpha=2.0, nu=1.0)


def test_small_gamma_rejected_at_construction():
    with pytest.raises(ValueError, match="3/2"):
        make_standard_law(gamma=1.4, alpha=3.0, nu=1.0)


def test_nonpositive_resistivity_rejected_at_construction():
    with pytest.raises(ValueError, match="nu"):
        make_standard_law(gamma=GAMMA, alpha=3.0, nu=0.0)


def test_validator_runs_fast(law):
    import time

    t0 = time.perf_counter()
    validate_hypotheses(law)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# temperature recovery
# ---------------------------------------------------------------------------


def test_temperature_from_heat_constant_cv(law):
    theta = np.array([0.0, 0.3, 1.7, 40.0])
    w = heat_content(law, theta)
    np.testing.assert_allclose(temperature_from_heat(law, w), theta, rtol=1e-12, atol=1e-12)


def test_temperature_from_heat_rejects_negative(law):
    with pytest.raises(ValueError):
        temperature_from_heat(law, np.array([-0.5]))


# ---------------------------------------------------------------------------
# primitive catalog
# ---------------------------------------------------------------------------


def test_primitive_forms_and_derivatives():
    p = Power(2.0, 3.0)
    assert p(2.0) == pytest.approx(16.0)
    assert p.deriv(2.0) == pytest.approx(24.0)
    s = Sum(Const(1.0), Power(1.0, 3.0))  # kappa-style 1 + theta^3
    assert s(2.0) == pytest.approx(9.0)
    assert s.deriv(2.0) == pytest.approx(12.0)
    t = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.5]))
    assert t(0.5) == pytest.approx(1.5)
    assert t(-1.0) == 1.0 and t(3.0) == 2.5  # flat beyond the ends


def test_viscosity_without_a_range_is_refused():
    # the viscosity bounds are the range of a constant or a table; the error
    # names the piece passed
    named = r"no closed-form range for Sum\(Const\(0.1\), Power\(0.1, 1.0\)\)"
    with pytest.raises(TypeError, match=named):
        make_standard_law(mu=Sum(Const(0.1), Power(0.1, 1.0)))


def test_python_3_10_fallback_makes_the_same_steps(monkeypatch):
    # Python 3.10 has no operator.call; the eager builder then makes each
    # step by constitutive._call, to the same bits
    law = make_standard_law()
    theta = np.linspace(0.1, 3.0, 7)

    def evaluated():
        return [law.kappa(theta).tobytes(), conductivity_potential(law, theta).tobytes()]

    want = evaluated()
    monkeypatch.setattr(constitutive._Eager, "emit", staticmethod(constitutive._call))
    assert evaluated() == want


def test_tabulated_potentials_have_no_closed_form():
    # a table may only be mu or lambda; a potential of one is refused, not
    # integrated numerically
    table = Tabulated([0.5, 3.0], [1.0, 2.0])
    with pytest.raises(TypeError, match="no closed form"):
        conductivity_potential(make_standard_law(kappa=table), 1.0)
    with pytest.raises(TypeError, match="no closed form"):
        thermal_pressure_potential(make_standard_law(p_th=table), 2.0)


def test_property_random_power_laws_validate():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        gamma=st.floats(1.6, 3.0),
        alpha=st.floats(2.1, 5.0),
        scale=st.floats(0.1, 10.0),
    )
    def inner(gamma, alpha, scale):
        law = make_standard_law(gamma=gamma, alpha=alpha, nu=1.0, pe0=scale, kappa0=scale)
        rep = validate_hypotheses(law)
        assert rep.ok, rep.failures

    inner()
