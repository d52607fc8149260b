import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootlift import _kernels
from rootlift.bundle import DEFAULT_TOL, _check_residuals


def _poly_from_roots(roots):
    """Ascending lower coefficients of the monic polynomial with given roots."""
    c = np.poly(roots)            # descending, leading 1
    return c[1:][::-1].astype(complex)


def test_numpy_backend_simple_quadratic():
    roots = _kernels.solve_fibers(np.array([[-1.0 + 0j, 0.0]]))
    assert np.allclose(roots, [[-1, 1]])


def test_numpy_backend_canonical_order():
    coeffs = _poly_from_roots([3, -2, 1j])[None, :]
    roots = _kernels.solve_fibers(coeffs)
    key = list(zip(roots[0].real, roots[0].imag))
    assert key == sorted(key)


def test_polish_reaches_residual_target():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((200, 5)) + 1j * rng.standard_normal((200, 5))
    roots = _kernels.solve_fibers(coeffs)
    res = _kernels.residuals(coeffs, roots)
    assert np.max(res) < 1e-9 * max(1.0, np.max(np.abs(coeffs)))


def test_multiple_root_handled():
    roots = _kernels.solve_fibers(np.array([[0.0 + 0j, 0.0]]))   # t^2
    assert np.max(np.abs(roots)) < 1e-7


def test_known_roots_recovered():
    wanted = np.array([1.5, -0.25 + 0.5j, 2j, -3.0])
    coeffs = _poly_from_roots(wanted)[None, :]
    got = _kernels.solve_fibers(coeffs)[0]
    assert np.allclose(sorted(got, key=lambda z: (z.real, z.imag)),
                       sorted(wanted, key=lambda z: (z.real, z.imag)),
                       atol=1e-9)


# -- closed form for degree 2 ------------------------------------------------

def _companion_roots(coeffs):
    """Eigenvalues of each row's companion matrix: the solve for degree >= 3."""
    comp = np.zeros((len(coeffs), 2, 2), dtype=complex)
    comp[:, 1, 0] = 1.0
    comp[:, :, 1] = -coeffs
    return np.linalg.eigvals(comp)


def _assert_canonical(roots):
    for row in roots:
        key = list(zip(row.real, row.imag))
        assert key == sorted(key)


def test_quadratic_closed_form_matches_companion_eigenvalues():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
    coeffs = scale * (rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2)))
    got = _kernels.solve_fibers(coeffs)
    want = _companion_roots(coeffs)
    # as multisets: the better of the two pairings per row
    err = np.minimum(np.abs(got - want).max(axis=1),
                     np.abs(got - want[:, ::-1]).max(axis=1))
    assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))
    _check_residuals(coeffs, got, DEFAULT_TOL)
    _assert_canonical(got)


def test_quadratic_closed_form_edge_rows():
    coeffs = np.array([
        [-3 - 4j, 2 - 4j],        # c0 = b^2/4: double root -b/2 = -1 + 2j
        [-2.25 + 0j, 0],          # b = 0: roots -1.5, 1.5
        [0, 1.5 - 2j],            # c0 = 0: roots 0 and -b
        [0, 0],                   # b = c0 = 0: roots 0, 0
    ], dtype=complex)
    roots = _kernels.solve_fibers(coeffs)
    _check_residuals(coeffs, roots, DEFAULT_TOL)
    _assert_canonical(roots)
    assert np.array_equal(roots[0], [-1 + 2j, -1 + 2j])
    assert np.array_equal(roots[1], [-1.5, 1.5])
    assert np.array_equal(roots[2], np.sort([0, -coeffs[2, 1]]))
    assert np.array_equal(roots[3], [0, 0])


@pytest.mark.parametrize("b_angle", [0.3, 2.5, -1.9])
def test_quadratic_closed_form_has_no_cancellation(b_angle):
    # |b| = 1e8, |c0| = 1: the textbook formula loses every digit of the small
    # root -c0/b - c0^2/b^3 - ...; the closed form keeps it to 1e-12, whichever
    # half-plane b lies in
    c0, b = np.exp(1.1j), 1e8 * np.exp(1j * b_angle)
    coeffs = np.array([[c0, b]])
    roots = _kernels.solve_fibers(coeffs)
    _assert_canonical(roots)
    small, large = sorted(roots[0], key=abs)
    exact = -c0 / b - c0 ** 2 / b ** 3
    assert abs(small - exact) <= 1e-12 * abs(exact)
    assert abs(large - (-b + c0 / b)) <= 1e-12 * abs(b)
    _check_residuals(coeffs, np.array([[small]]), DEFAULT_TOL)
    # the large root's residual is the rounding of z^2 ~ 1e16, above the guard's
    # 1e-9 * max|c_k| = 0.1 for any solver (companion eigenvalues give 0.70
    # too), so it is held to that rounding floor instead
    assert _kernels.residuals(coeffs, np.array([[large]]))[0, 0] <= 8e-16 * abs(large) ** 2


def test_quadratic_closed_form_gives_positive_zeros_for_real_roots():
    # t^2 - f^2 with real f, as example 1 builds it: the imaginary parts are
    # +0.0, as the companion eigenvalues give them, so CSVs never print -0.0
    f = np.linspace(-4.0, 4.0, 81)
    coeffs = np.stack([-(f ** 2) + 0j, np.zeros_like(f, dtype=complex)], axis=1)
    roots = _kernels.solve_fibers(coeffs)
    assert not np.any(np.signbit(roots.imag))
    assert np.array_equal(roots.real, np.stack([-np.abs(f), np.abs(f)], axis=1))


def test_residual_guard_scales_with_a_large_root():
    # t^2 + 1e8 e^{0.3i} t + e^{1.1i}: the large root's residual 0.70 is the
    # rounding of Horner's scheme at |z| ~ 1e8, inside 1e-9 times Horner's
    # error bound |z|^2 + |b||z| + |c0| ~ 2e16; the same root 1e-6 off is not
    from rootlift.bundle import BundleError, solve_fiber
    coeffs = np.array([np.exp(1.1j), 1e8 * np.exp(0.3j)])
    roots = solve_fiber(coeffs)
    large = roots[np.argmax(np.abs(roots))]
    assert abs(large + coeffs[1]) <= 1e-12 * abs(coeffs[1])
    assert _kernels.residuals(coeffs[None, :], large[None, None])[0, 0] > 1e-9 * 1e8
    with pytest.raises(BundleError, match="above tolerance at sample 0"):
        _check_residuals(coeffs[None, :], np.array([[large * (1 + 1e-6)]]), DEFAULT_TOL)


def test_residual_guard_rejects_nan_roots():
    # t^2 + 1e200 t + 1: b^2 overflows in the closed form, so the roots are NaN
    from rootlift.bundle import BundleError, solve_fiber
    message = "above tolerance at sample 0"
    with np.errstate(all="ignore"), pytest.raises(BundleError, match=message):
        solve_fiber([1, 1e200])
    with pytest.raises(BundleError, match=message):
        _check_residuals(np.array([[1.0, 0.0]]), np.array([[np.nan, 1j]]), DEFAULT_TOL)


@pytest.mark.parametrize("root", ["cos(theta1)", "exp(1i*theta1)", "0.5*exp(1i*theta1)",
                                  "cos(theta1)+0.3i"])
def test_polish_keeps_both_copies_of_a_double_root(root):
    # the eigenvalues split a double root by about 1e-8; a Newton step from
    # one copy can reach far past the other (0.704 for 0.741 at sample 1943
    # of the first polynomial), so steps stop at half the gap between them
    from rootlift import build_bundle, make_torus2, poly_from_roots
    p = poly_from_roots(make_torus2(128, 128), [root, root, "3+sin(theta2)"])
    fibers = build_bundle(p).fibers
    assert np.max(np.abs(fibers[:, 0] - fibers[:, 1])) < 1e-6


# -- tracked sample fibers ---------------------------------------------------------

def _circle_rows(m, roots_at):
    """Coefficient rows of the monic polynomials whose roots at theta are
    ``roots_at(theta)``, over m samples of the circle."""
    theta = 2 * np.pi * np.arange(m) / m
    return np.array([_poly_from_roots(roots_at(t)) for t in theta])


def _cycle_rows(d, m=1000, seed=0):
    # (t - c)^d - exp(i(theta + phase)): one d-cycle of roots around c
    rng = np.random.default_rng(seed)
    c, phase = complex(*rng.uniform(-0.3, 0.3, size=2)), rng.uniform(0, 2 * np.pi)
    k = np.arange(d)
    return _circle_rows(m, lambda t: c + np.exp(1j * (t + phase + 2 * np.pi * k) / d))


def _trivial_rows(d, m=64, seed=0):
    # d unit circles, centres about 3 apart on the real axis
    rng = np.random.default_rng(seed)
    centre = 3.0 * np.arange(d) + rng.uniform(-0.25, 0.25, d) + 1j * rng.uniform(-0.25, 0.25, d)
    phase = rng.uniform(0, 2 * np.pi, d)
    return _circle_rows(m, lambda t: centre + np.exp(1j * (t + phase)))


def _smooth_rows(seed, m=500):
    # random roots, each a centre plus two Fourier modes of the angle
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 10))
    a = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    a[0] *= 3.0
    return _circle_rows(m, lambda t: a[0] + 0.5 * a[1] * np.exp(1j * t)
                        + 0.3 * a[2] * np.exp(-2j * t))


def _quintic_rows(m):
    from rootlift import make_circle
    from rootlift.scenarios import crossing_quintic
    return crossing_quintic(make_circle(m)).coeff_values


def _tracked(monkeypatch, coeffs):
    """track_fibers(coeffs), solve_fibers(coeffs), and which rows
    track_fibers passed to solve_fibers: its anchors and its fallbacks."""
    solve, passed = _kernels.solve_fibers, set()

    def spy(rows):
        passed.update(row.tobytes() for row in rows)
        return solve(rows)

    monkeypatch.setattr(_kernels, "solve_fibers", spy)
    got = _kernels.track_fibers(coeffs)
    return got, solve(coeffs), np.array([row.tobytes() in passed for row in coeffs])


def _assert_same_roots(coeffs, got, want):
    """Rows of the same multisets, each root to within a few times the
    rounding floor of its row: eps times the root scale plus Horner's
    rounding bound over |p'|, the limit of any residual-driven solve."""
    dist = np.abs(got[:, :, None] - want[:, None, :])
    err = np.maximum(dist.min(axis=1).max(axis=1), dist.min(axis=2).max(axis=1))
    bound = _kernels.horner(np.abs(coeffs), np.abs(want))
    n = coeffs.shape[1]
    k = np.arange(1, n)            # p'(z) = n z^(n-1) + sum_k k c_k z^(k-1), term by term
    slope = n * want ** (n - 1) + np.sum(
        k * coeffs[:, None, 1:] * want[:, :, None] ** (k - 1), axis=2)
    floor = np.abs(want).max(axis=1) + (bound / np.abs(slope)).max(axis=1)
    assert np.all(err <= 8 * np.finfo(float).eps * np.maximum(1.0, floor))


# the largest roots of the trivial families from degree 7 on have rounding
# bounds above the radius bound, so most or all of their rows fall back
@pytest.mark.parametrize("rows, tracked", [
    *(pytest.param(lambda d=d: _cycle_rows(d), 0.9, id=f"cycle{d}") for d in range(3, 10)),
    *(pytest.param(lambda d=d: _trivial_rows(d), 0.9 if d < 7 else 0.0, id=f"trivial{d}")
      for d in range(3, 10)),
    *(pytest.param(lambda m=m: _quintic_rows(m), 0.9, id=f"quintic{m}")
      for m in (2000, 2001, 8000)),
    *(pytest.param(lambda s=s: _smooth_rows(s), 0.9, id=f"smooth{s}") for s in range(4)),
])
def test_track_fibers_agrees_with_solve_fibers(monkeypatch, rows, tracked):
    coeffs = rows()
    got, want, by_solve = _tracked(monkeypatch, coeffs)
    _check_residuals(coeffs, got, DEFAULT_TOL)
    _assert_canonical(got)
    # every 16th row, and every row the sweeps did not certify, keeps the
    # solve's bits
    assert by_solve[::16].all()
    assert np.array_equal(got[by_solve], want[by_solve])
    assert np.count_nonzero(~by_solve) >= tracked * len(coeffs)
    _assert_same_roots(coeffs[~by_solve], got[~by_solve], want[~by_solve])


def test_track_fibers_leaves_degree_two_to_the_closed_form(monkeypatch):
    coeffs = np.stack([-np.exp(1j * np.linspace(0, 6, 100)), np.zeros(100)], axis=1)
    got, want, by_solve = _tracked(monkeypatch, coeffs)
    assert by_solve.all() and np.array_equal(got, want)


def test_track_fibers_makes_no_empty_solve(monkeypatch):
    # every row between the anchors of a smooth family certifies, which
    # leaves no row for the fallback solve
    coeffs = _smooth_rows(0)
    sizes, solve = [], _kernels.solve_fibers
    monkeypatch.setattr(_kernels, "solve_fibers",
                        lambda rows: sizes.append(len(rows)) or solve(rows))
    got = _kernels.track_fibers(coeffs)
    assert sizes == [len(coeffs[::16])]
    _check_residuals(coeffs, got, DEFAULT_TOL)


def test_wide_disjoint_discs_are_never_accepted(monkeypatch):
    # the crossing quintic over 64 samples: a row starts up to 8 samples, an
    # eighth of a turn, from its nearest solved row, where several rows'
    # discs are disjoint but far wider than the radius bound.  With one
    # sweep a row can be accepted only on those seed discs, so each such row
    # must be left to solve_fibers
    coeffs = _quintic_rows(64)
    m, n = coeffs.shape
    rows = np.flatnonzero(np.arange(m) % 16)
    seed = _kernels.solve_fibers(coeffs)[np.minimum((rows + 8) // 16, (m - 1) // 16) * 16]
    p = _kernels.horner(coeffs[rows], seed)
    q = np.prod([np.where(np.arange(n) == j, 1.0, seed - seed[:, j, None]) for j in range(n)],
                axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):   # seeds with a double root
        radius = n * np.abs(p / q)
    disjoint = np.array([all(abs(z[i] - z[j]) > r[i] + r[j]
                             for i in range(n) for j in range(i + 1, n))
                         for z, r in zip(seed, radius)])
    wide = np.any(radius > 1e-10 * np.maximum(1.0, np.abs(seed)), axis=1)
    trap = rows[disjoint & wide]
    assert len(trap) >= 5
    monkeypatch.setattr(_kernels, "_SWEEPS", 1)
    got, want, by_solve = _tracked(monkeypatch, coeffs)
    assert by_solve[trap].all()
    assert np.array_equal(got, want)
    # with every sweep, the rows the sweeps certify hold the same roots
    monkeypatch.setattr(_kernels, "_SWEEPS", 8)
    got, want, by_solve = _tracked(monkeypatch, coeffs)
    _check_residuals(coeffs, got, DEFAULT_TOL)
    assert np.count_nonzero(~by_solve[trap]) >= 3
    _assert_same_roots(coeffs[~by_solve], got[~by_solve], want[~by_solve])


# -- a subset of rows, with the bits of the whole array's solve ----------------------


def _near_double_rows(m=160):
    # a pair of roots 1e-9 apart: the sweeps' discs overlap, so every
    # tracked row falls back to the eigenvalue solve
    return _circle_rows(m, lambda t: np.array([np.exp(1j * t), np.exp(1j * t) + 1e-9, 3.0, 3j]))


_SUBSET_FAMILIES = {
    **{f"cycle{d}": lambda d=d: _cycle_rows(d, m=300) for d in range(2, 10)},
    **{f"trivial{d}": lambda d=d: _trivial_rows(d, m=100) for d in range(2, 10)},
    "smooth0": lambda: _smooth_rows(0, m=300),
    "near-double": _near_double_rows,
    # the touch at pi sits on sample 1000, where the roots merge
    "quintic2000": lambda: _quintic_rows(2000),
}


@functools.cache
def _subset_family(name):
    coeffs = _SUBSET_FAMILIES[name]()
    return coeffs, _kernels.track_fibers(coeffs)


@st.composite
def _ascending_rows(draw, m):
    """Ascending rows of m: a random set, a run, or one row between anchors."""
    kind = draw(st.sampled_from(["set", "run", "between"]))
    if kind == "set":
        return np.array(sorted(draw(st.sets(st.integers(0, m - 1), max_size=80))), dtype=np.intp)
    if kind == "run":
        a = draw(st.integers(0, m - 1))
        return np.arange(a, draw(st.integers(a + 1, m)))
    # rows strictly between two anchors, whose nearest anchor is not among them
    k = draw(st.integers(0, (m - 1) // 16))
    lo = 16 * k + 1
    return np.arange(lo, min(lo + draw(st.integers(1, 15)), m))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SUBSET_FAMILIES)), st.data())
def test_track_fibers_of_a_row_subset_is_the_whole_solve_at_those_rows(name, data):
    coeffs, whole = _subset_family(name)
    rows = data.draw(_ascending_rows(len(coeffs)))
    got = _kernels.track_fibers(coeffs, rows)
    assert got.shape == (len(rows), coeffs.shape[1])
    assert got.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("name", ["trivial7", "near-double", "quintic2000"])
def test_row_subsets_cover_rows_that_fall_back(monkeypatch, name):
    # these families have rows the sweeps do not certify, which are solved
    # by eigenvalues in the whole solve and in a subset's alike
    coeffs, whole = _subset_family(name)
    _, _, by_solve = _tracked(monkeypatch, coeffs)
    fallback = np.flatnonzero(by_solve & (np.arange(len(coeffs)) % 16 != 0))
    assert fallback.size
    rows = fallback[::3]
    assert _kernels.track_fibers(coeffs, rows).tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("degree", [2, 5])
def test_an_empty_row_subset_makes_no_solve(monkeypatch, degree):
    calls = []
    monkeypatch.setattr(_kernels, "solve_fibers", lambda rows: calls.append(rows))
    got = _kernels.track_fibers(_cycle_rows(degree, m=40), np.array([], dtype=np.intp))
    assert got.shape == (0, degree) and got.dtype == complex
    assert calls == []


# -- slot reductions and the in-place polish against their references ----------------

@pytest.mark.parametrize("ufunc", [np.maximum, np.logical_or, np.logical_and])
@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("rows", [0, 1, 1000])
def test_reduce_slots_equals_numpy_reduce_bit_for_bit(ufunc, n, rows):
    # maximum reduces non-negative magnitudes, some NaN, as every caller does
    rng = np.random.default_rng(n * 1000 + rows)
    if ufunc is np.maximum:
        a = np.abs(rng.standard_normal((rows, n)))
        a[rng.random(a.shape) < 0.1] = np.nan
        a[rng.random(a.shape) < 0.1] = 0.0
    else:
        a = rng.random((rows, n)) < rng.random()
    want = ufunc.reduce(a, axis=1)
    got = _kernels._reduce_slots(ufunc, a)
    assert got.dtype == want.dtype and got.shape == (rows,)
    assert got.tobytes() == want.tobytes()
    # a strided view, as the slot axis of a transposed array
    assert _kernels._reduce_slots(ufunc, a.T.copy().T).tobytes() == want.tobytes()


def _ref_polish(coeffs, roots, sweeps=3):
    """The allocating form of the guarded Newton sweeps, kept as the reference."""
    z = roots.copy()
    half_gap = np.full(z.shape, np.inf)
    for i in range(z.shape[1]):
        for j in range(i + 1, z.shape[1]):
            gap = 0.5 * np.abs(z[:, i] - z[:, j])
            np.minimum(half_gap[:, i], gap, out=half_gap[:, i])
            np.minimum(half_gap[:, j], gap, out=half_gap[:, j])
    for _ in range(sweeps):
        p, dp = np.ones_like(z), np.zeros_like(z)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            dp = dp * z + p
            p = p * z + coeffs[:, k, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        bound = np.minimum(0.5 * (1.0 + np.abs(z)), half_gap)
        ok = (np.abs(dp) > 1e-300) & (np.abs(step) < bound)
        z = np.where(ok, z - step, z)
    return z


def _polish_rows(n, rng):
    """Coefficient rows of degree n, unpolished starting roots, and the
    roots that no step may move.  Random fibers, started near their roots
    and far from them, where the step bounds skip many steps; fibers with
    a near-double root; fibers that start on an exact double root, whose
    two copies the half-gap guard holds; tiny fibers, roots near
    10^(-310/(n-1)), where p' underflows to 0 or a subnormal; and
    t^n + 1e-301 t + 1e-303 from 1e-302, where p' is 1e-301 plus
    rounding and the step, 0.01 or so, would pass every other guard."""
    def expand(roots):
        return np.array([np.poly(r)[1:][::-1] for r in roots], dtype=complex)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rand = noise((300, n))
    near = noise((200, n))
    near[:, 1] = near[:, 0] + 10.0 ** rng.uniform(-12, -5, 200) * noise(200)
    double = noise((50, n))
    double[:, 0] = double[:, 1] = np.round(double[:, 0].real, 1)
    tiny = noise((50, n)) * 10.0 ** (-310 / (n - 1))
    flat = np.zeros((1, n), dtype=complex)
    flat[0, :2] = 1e-303, 1e-301
    flat_start = np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    flat_start[0, 0] = 1e-302
    coeffs = np.concatenate([expand(rand), expand(rand), expand(near), expand(double),
                             expand(tiny), flat])
    start = np.concatenate([rand + 1e-7 * noise(rand.shape), rand + 0.3 * noise(rand.shape),
                            near + 1e-9 * noise(near.shape), double, tiny, flat_start])
    frozen = np.zeros(start.shape, dtype=bool)
    frozen[800:850, :2] = frozen[850:900] = frozen[900, 0] = True
    return coeffs, start, frozen


@pytest.mark.parametrize("n", [2, 5, 9])
def test_polish_in_place_equals_the_allocating_reference(n):
    coeffs, start, frozen = _polish_rows(n, np.random.default_rng(n))
    with np.errstate(over="ignore"):        # p / p' where p' is subnormal
        want = _ref_polish(coeffs, start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.polish(coeffs, start)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(want[frozen], start[frozen])
    assert not np.array_equal(want[:800], start[:800])


def test_polish_in_place_equals_the_reference_on_quintic_fibers():
    coeffs = _quintic_rows(400)
    n = coeffs.shape[1]
    comp = np.zeros((len(coeffs), n, n), dtype=complex)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, :, n - 1] = -coeffs
    start = np.linalg.eigvals(comp)              # the touches at pi hold near-double roots
    got = _kernels.polish(coeffs, start)
    assert got.tobytes() == _ref_polish(coeffs, start).tobytes()
    assert not np.array_equal(got, start)
