import dataclasses
import math

import numpy as np
import pytest

from psdfit import ProblemInstance, evaluate
from psdfit.linesearch import (
    DegenerateDirectionError,
    QuarticPolynomial,
    cubic_real_roots,
    exact_step,
    minimize_quartic,
    quartic_coeffs,
)
from psdfit.oracle import interpolate_quartic, reference_objective

import golden


def rand_instance_and_direction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, min(3, n) + 1))
    m = int(rng.integers(1, 4))
    pairs = []
    for _ in range(m):
        mi = int(rng.integers(2, 7))
        pairs.append((rng.standard_normal((mi, mi)), rng.standard_normal((mi, n))))
    inst = ProblemInstance(pairs=tuple(pairs), n=n, k=k)
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))
    return inst, Y, D


# ---------------------------------------------------------------------------
# quartic_coeffs


def test_coeffs_zero_direction():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    p = quartic_coeffs(inst, Y, np.zeros((4, 2)), evaluate(inst, Y))
    assert p.a1 == p.a2 == p.a3 == p.a4 == 0.0
    assert p.a0 == pytest.approx(evaluate(inst, golden.Y0_RANK2).f)


def test_coeffs_scalar_pure_quartic():
    # m=1, A=0, B=I, Y=0, D=I (everything 1x1): residual is -t^2, phi = t^4
    inst = ProblemInstance(pairs=((np.zeros((1, 1)), np.eye(1)),), n=1, k=1)
    Y = np.zeros((1, 1))
    p = quartic_coeffs(inst, Y, np.eye(1), evaluate(inst, Y))
    assert (p.a0, p.a1, p.a2, p.a3, p.a4) == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_coeffs_evaluate_to_the_objective_along_the_line():
    for seed in range(10):
        inst, Y, D = rand_instance_and_direction(seed)
        p = quartic_coeffs(inst, Y, D, evaluate(inst, Y))
        for t in (-1.3, -0.2, 0.0, 0.7, 2.9):
            f = evaluate(inst, Y + t * D).f
            assert p(t) == pytest.approx(f, rel=1e-10, abs=1e-10)


def test_coeffs_match_interpolation_oracle():
    for seed in range(20):
        inst, Y, D = rand_instance_and_direction(seed)
        p = quartic_coeffs(inst, Y, D, evaluate(inst, Y))
        q = interpolate_quartic(inst, Y, D)
        mine = np.array([p.a0, p.a1, p.a2, p.a3, p.a4])
        theirs = np.array([q.a0, q.a1, q.a2, q.a3, q.a4])
        rel = np.abs(mine - theirs) / np.maximum(1.0, np.abs(theirs))
        assert rel.max() < 1e-8


def test_coeffs_a0_and_a1_identities():
    for seed in range(20):
        inst, Y, D = rand_instance_and_direction(seed)
        p = quartic_coeffs(inst, Y, D, evaluate(inst, Y))
        assert p.a0 == pytest.approx(evaluate(inst, Y).f, rel=1e-12)
        slope = float(np.trace(evaluate(inst, Y).grad.T @ D))
        assert p.a1 == pytest.approx(slope, rel=1e-10, abs=1e-10)


def test_coeffs_check_the_gradients_shape():
    # an n x 1 or 1 x k gradient would broadcast against D into a wrong a1
    inst, Y, D = rand_instance_and_direction(4)  # n = 5, k = 3
    at = evaluate(inst, Y)
    g = at.grad
    for bad in (g[:, :1], g[:1], g.T, g.ravel()):
        with pytest.raises(ValueError, match="grad has shape"):
            quartic_coeffs(inst, Y, D, dataclasses.replace(at, grad=bad))
        with pytest.raises(ValueError, match="grad has shape"):
            exact_step(inst, Y, D, dataclasses.replace(at, grad=bad))


def test_coeffs_null_direction_collapses_lower_terms():
    # B_i D = 0 for all i forces P_i = 0, so a4 = 0 implies a3 = a2 = a1 = 0
    rng = np.random.default_rng(8)
    B = np.hstack([rng.standard_normal((3, 2)), np.zeros((3, 1))])  # null e_3
    A = rng.standard_normal((3, 3))
    inst = ProblemInstance(pairs=((A, B),), n=3, k=2)
    Y = rng.standard_normal((3, 2))
    D = np.zeros((3, 2))
    D[2] = rng.standard_normal(2)  # supported on the null space only
    p = quartic_coeffs(inst, Y, D, evaluate(inst, Y))
    assert p.a4 == 0.0
    assert p.a3 == p.a2 == p.a1 == 0.0


# ---------------------------------------------------------------------------
# cubic_real_roots


def test_cubic_three_simple_roots():
    roots = cubic_real_roots(1.0, -6.0, 11.0, -6.0)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_cubic_single_real_root():
    roots = cubic_real_roots(1.0, 0.0, 0.0, -1.0)
    assert np.allclose(roots, [1.0], atol=1e-12)


def test_cubic_repeated_roots():
    roots = cubic_real_roots(1.0, -9.0, 24.0, -20.0)  # (x-2)^2 (x-5)
    assert len(roots) == 3
    assert np.allclose(roots, [2.0, 2.0, 5.0], atol=1e-7)
    assert np.allclose(cubic_real_roots(1.0, -3.0, 3.0, -1.0), [1.0], atol=1e-7)


def test_cubic_degenerate_degrees():
    for coeffs in [
        (0.0, 1.0, -3.0, 2.0),
        (0.0, 0.0, 2.0, -4.0),
        (0.0, 1.0, 0.0, 1.0),  # x^2 + 1
        (0.0, 0.0, 0.0, 3.0),  # nonzero constant
        (0.0, 0.0, 0.0, 0.0),
    ]:
        with pytest.raises(ValueError):
            cubic_real_roots(*coeffs)
    with pytest.raises(ValueError):
        cubic_real_roots(np.nan, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1e-300, 1.0, -3.0, 2.0),  # finite ratios, b2 * b2 overflows
        (1e-300, 0.0, 0.0, 1.0),  # (q / 2) ** 2 overflows
        (1e-300, 1e10, 0.0, 0.0),  # c2 / c3 overflows
    ],
)
def test_cubic_overflowing_monic_form_raises(coeffs):
    with pytest.raises(ValueError):
        cubic_real_roots(*coeffs)


def test_cubic_matches_companion_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        c2, c1, c0 = rng.standard_normal(3) * float(rng.choice([0.1, 1.0, 10.0]))
        mine = cubic_real_roots(1.0, c2, c1, c0)
        companion = np.array([[-c2, -c1, -c0], [1, 0, 0], [0, 1, 0]])
        eig = np.linalg.eigvals(companion)
        real = sorted(float(z.real) for z in eig if abs(z.imag) < 1e-8)
        # near-multiple roots may be classified differently; compare when the
        # counts agree (the residual contract below covers the rest)
        if len(mine) == len(real):
            assert np.allclose(mine, real, atol=1e-9)


def test_cubic_residual_contract():
    rng = np.random.default_rng(2)
    for _ in range(300):
        c3, c2, c1, c0 = rng.standard_normal(4) * float(rng.choice([0.01, 1.0, 100.0]))
        if c3 == 0.0:
            continue
        scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
        for x in cubic_real_roots(c3, c2, c1, c0):
            p = ((c3 * x + c2) * x + c1) * x + c0
            assert abs(p) <= 1e-12 * scale * (1.0 + abs(x)) ** 3


def reference_cubic_real_roots(c3, c2, c1, c0):
    """The sorted real roots of c3 x^3 + c2 x^2 + c1 x + c0, as the one-pass
    `cubic_real_roots` must give them bit for bit: Cardano's method, every
    root polished by Newton steps with its own scale, sorted at the end.
    Where its discriminant underflows it divides by zero or takes the root
    of a negative number, and `cubic_real_roots` returns one root."""

    def cbrt(x):
        return math.copysign(abs(x) ** (1.0 / 3.0), x)

    def polish(x):
        scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
        for _ in range(8):
            p = ((c3 * x + c2) * x + c1) * x + c0
            if abs(p) <= 1e-14 * scale * (1.0 + abs(x)) ** 3:
                break
            dp = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if dp == 0.0:
                break
            step = p / dp
            x_new = x - step
            if x_new == x:
                break
            x = x_new
        return x

    for c in (c3, c2, c1, c0):
        if not math.isfinite(c):
            raise ValueError("cubic coefficients must be finite")
    if c3 == 0.0:
        raise ValueError("leading coefficient c3 is zero; not a cubic")
    b2 = c2 / c3
    b1 = c1 / c3
    b0 = c0 / c3
    shift = -b2 / 3.0
    p = b1 - b2 * b2 / 3.0
    q = (2.0 * b2 * b2 * b2 - 9.0 * b2 * b1) / 27.0 + b0
    try:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):
        raise ValueError("the cubic's monic or depressed form overflows")
    if p == 0.0 and q == 0.0:
        roots = [shift]
    elif disc > 0.0:
        s = math.sqrt(disc)
        if -q / 2.0 >= 0.0:
            u = cbrt(-q / 2.0 + s)
        else:
            u = cbrt(-q / 2.0 - s)
        y = u + (-p / 3.0) / u
        roots = [y + shift]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [
            m * math.cos(theta - 2.0 * math.pi * j / 3.0) + shift for j in (0, 1, 2)
        ]
    return sorted(polish(x) for x in roots)


def roots_or_error(solve, coeffs):
    """The roots as hex strings (so -0.0 and 0.0 differ), or the ValueError's text."""
    try:
        return [x.hex() for x in solve(*coeffs)]
    except ValueError as exc:
        return str(exc)


def test_cubic_is_bitwise_the_reference():
    rng = np.random.default_rng(38)
    # 10^4 cubics of coefficients +-10^[-10, 10], drawn per coefficient
    signs = rng.choice([-1.0, 1.0], (10_000, 4))
    cases = [tuple(c) for c in (signs * 10.0 ** rng.uniform(-10, 10, (10_000, 4))).tolist()]
    # p = q = 0 (a triple root), three real roots with a double one, exact zeros
    cases += [
        (c3, -3.0 * c3 * r, 3.0 * c3 * r * r, -c3 * r**3)
        for c3 in (1.0, -2.0, 1e-5)
        for r in (-3.0, 0.0, 1.0, 7.0)
    ]
    cases += [
        (1.0, -9.0, 24.0, -20.0),
        (1.0, 0.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0, -0.0),
        (1.0, 0.0, -1.0, 0.0),
        (1.0, 2.0, 1.0, 0.0),
    ]
    # c3 = 0, every non-finite coefficient in every place, monic forms that overflow
    cases += [(0.0, 1.0, -3.0, 2.0), (-0.0, 0.0, 0.0, 0.0)]
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            coeffs = [1.0, -6.0, 11.0, -6.0]
            coeffs[i] = bad
            cases.append(tuple(coeffs))
    cases += [
        (1e-300, 1.0, -3.0, 2.0),
        (1e-300, 0.0, 0.0, 1.0),
        (1e-300, 1e10, 0.0, 0.0),
        (1e-200, 1e150, 1e150, 1e150),
        (1.0, 1e200, 0.0, 0.0),
        (1.0, 0.0, 1e300, 0.0),
    ]
    kinds = set()
    for coeffs in cases:
        want = roots_or_error(reference_cubic_real_roots, coeffs)
        assert roots_or_error(cubic_real_roots, coeffs) == want, coeffs
        kinds.add(len(want) if isinstance(want, list) else want)
    # every branch and every refusal was reached
    assert kinds == {
        1,
        3,
        "cubic coefficients must be finite",
        "leading coefficient c3 is zero; not a cubic",
        "the cubic's monic or depressed form overflows",
    }


@pytest.mark.parametrize(
    "coeffs",
    [
        (4.0, 0.0, 0.0, -1e-300),  # p = 0 and (q / 2) ** 2 underflows
        (1.0, 0.0, -1e-220, 0.0),  # p < 0 and p m underflows
        (1.0, 0.0, 1e-120, 0.0),  # p > 0 and (p / 3) ** 3 underflows
    ],
)
def test_cubic_whose_discriminant_underflows_has_one_root(coeffs):
    # disc underflows to 0 while p is not 0 or q is not 0; the reference then
    # divided by p m = 0 or took the root of a negative number, and now the
    # shift is the one root, within the residual contract
    with pytest.raises((ZeroDivisionError, ValueError)):
        reference_cubic_real_roots(*coeffs)
    c3, c2, c1, c0 = coeffs
    (x,) = cubic_real_roots(*coeffs)
    scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
    assert abs(((c3 * x + c2) * x + c1) * x + c0) <= 1e-12 * scale * (1.0 + abs(x)) ** 3


# ---------------------------------------------------------------------------
# minimize_quartic


def test_minimize_perfect_well():
    # phi(t) = (t-1)^4
    step = minimize_quartic(QuarticPolynomial(a0=1.0, a1=-4.0, a2=6.0, a3=-4.0, a4=1.0))
    assert step.t_star == pytest.approx(1.0, abs=1e-6)
    assert step.phi_at_t == pytest.approx(0.0, abs=1e-12)


def test_minimize_even_quartic():
    # phi(t) = t^4 - 2 t^2 + 5: critical points -1, 0, 1
    p = QuarticPolynomial(a0=5.0, a1=0.0, a2=-2.0, a3=0.0, a4=1.0)
    step = minimize_quartic(p)
    roots = cubic_real_roots(4.0 * p.a4, 3.0 * p.a3, 2.0 * p.a2, p.a1)
    assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=1e-12)
    assert step.t_star == pytest.approx(1.0)
    assert step.phi_at_t == pytest.approx(4.0)


def test_minimize_degenerate_quartic_raises():
    # a4 = 0: phi' is not a true cubic
    with pytest.raises(DegenerateDirectionError):
        minimize_quartic(QuarticPolynomial(a0=2.0, a1=-1.0, a2=0.5, a3=0.0, a4=0.0))


def test_minimize_overflowing_monic_form_raises():
    # c1 / c3 = 2e300 / 4e-13 overflows
    with pytest.raises(DegenerateDirectionError):
        minimize_quartic(QuarticPolynomial(a0=0.0, a1=-1.0, a2=1e300, a3=0.0, a4=1e-13))


def test_minimize_small_quartic_term_still_steps():
    # a4 is tiny next to a0, yet phi' is a finite true cubic: the step is the
    # near-quadratic minimum t = 1, not a refusal
    p = QuarticPolynomial(a0=2.0, a1=-1.0, a2=0.5, a3=0.0, a4=1e-17)
    step = minimize_quartic(p)
    assert step.t_star == pytest.approx(1.0, rel=1e-12)
    assert step.phi_at_t == pytest.approx(1.5, rel=1e-15)


def test_minimize_non_descent_raises():
    # phi(t) = t^4 + t^2 + t + 1 is strictly increasing for t > 0
    with pytest.raises(DegenerateDirectionError):
        minimize_quartic(QuarticPolynomial(a0=1.0, a1=1.0, a2=1.0, a3=0.0, a4=1.0))


def test_minimize_tie_breaks_to_smallest_step():
    # phi(t) = (t-1)^2 (t-3)^2: equal minima at t = 1 and t = 3
    p = QuarticPolynomial(a0=9.0, a1=-24.0, a2=22.0, a3=-8.0, a4=1.0)
    step = minimize_quartic(p)
    roots = cubic_real_roots(4.0 * p.a4, 3.0 * p.a3, 2.0 * p.a2, p.a1)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)
    assert step.t_star == pytest.approx(1.0)
    assert step.phi_at_t == pytest.approx(0.0, abs=1e-12)


def test_minimize_zero_slope_no_improvement_raises():
    # phi(t) = t^2 (t-2)^2: phi(2) = phi(0), flat slope at zero -- stepping
    # cannot improve, so the direction is rejected as non-descent
    with pytest.raises(DegenerateDirectionError):
        minimize_quartic(QuarticPolynomial(a0=0.0, a1=0.0, a2=4.0, a3=-4.0, a4=1.0))


def test_minimize_never_steps_uphill():
    # the unit -grad polynomial at a rounding-floor iterate (n = 8, B x 100,
    # A x 1e4): phi' has roots near 3.7e-16, 2.82 and 5.35, and rounding can
    # put the smallest below 0, leaving t = 5.35 with phi 1e28 times phi(0)
    p = QuarticPolynomial(a0=3.9e-17, a1=-1.06e-3, a2=1.44e12, a3=-5.21e11, a4=4.78e10)
    try:
        found = minimize_quartic(p)
    except DegenerateDirectionError:
        return
    assert found.phi_at_t <= p.a0


def test_minimize_grid_search_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 20:
        a4 = float(rng.uniform(0.1, 5.0))
        a3 = float(rng.standard_normal())
        a2 = float(rng.standard_normal())
        a1 = -float(rng.uniform(0.1, 5.0))  # descent
        a0 = float(rng.uniform(0.0, 5.0))
        p = QuarticPolynomial(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4)
        step = minimize_quartic(p)
        grid = np.linspace(0.0, 10.0 * step.t_star, 100_001)[1:]
        vals = np.polyval([a4, a3, a2, a1, a0], grid)
        assert step.phi_at_t <= vals.min() + 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# exact_step


def test_exact_step_scale_invariant():
    inst, Y, _ = rand_instance_and_direction(4)
    at = evaluate(inst, Y)
    D = -at.grad
    s1 = exact_step(inst, Y, D, at)
    s2 = exact_step(inst, Y, 3.7 * D, at)
    assert 3.7 * s2.t_star == pytest.approx(s1.t_star, rel=1e-12)
    assert s2.phi_at_t == pytest.approx(s1.phi_at_t, rel=1e-12)


def test_exact_step_is_a_line_minimum():
    for seed in range(10):
        inst, Y, _ = rand_instance_and_direction(seed)
        at = evaluate(inst, Y)
        D = -at.grad
        step = exact_step(inst, Y, D, at)
        f_star = reference_objective(inst, Y + step.t_star * D)
        assert f_star == pytest.approx(step.phi_at_t, rel=1e-9, abs=1e-9)
        for t in np.linspace(0.0, 10.0 * step.t_star, 2001):
            assert f_star <= reference_objective(inst, Y + t * D) + 1e-8 * (
                1.0 + abs(f_star)
            )


def test_exact_step_stationarity():
    # phi'(t*) = 0 to tolerance 1e-9 * (1 + |a1|), on the normalized direction
    for seed in range(10):
        inst, Y, _ = rand_instance_and_direction(seed)
        at = evaluate(inst, Y)
        D = -at.grad
        Dn = D / np.linalg.norm(D)
        p = quartic_coeffs(inst, Y, Dn, at)
        step = minimize_quartic(p)
        t = step.t_star
        dphi = ((4.0 * p.a4 * t + 3.0 * p.a3) * t + 2.0 * p.a2) * t + p.a1
        assert abs(dphi) <= 1e-9 * (1.0 + abs(p.a1))


def test_exact_step_zero_direction_raises():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    with pytest.raises(DegenerateDirectionError):
        exact_step(inst, Y, np.zeros((4, 2)), evaluate(inst, Y))
