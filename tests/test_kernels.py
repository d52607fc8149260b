import numpy as np

from rootlift import _kernels


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
