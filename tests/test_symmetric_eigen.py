"""The implicit QL kernel behind ``eig_symmetric`` against mpmath's dense
``eigsy``: eigenvalues, the residual |HQ - QE| and the orthogonality
|Q^T Q - I| on the position H of every finite system, and the typed
errors of an H wider than tridiagonal and of an eigenvalue that does not
converge.  Implicit QL is homogeneous in H, so the kept decomposition of
H serves 2**k H bit for bit."""

import numpy as np
import pytest

from krylov_exact import Context, SystemKind, make_system, numeric, position_pair
from krylov_exact.errors import BasisMismatch, EigenNotConverged, KrylovExactError
from krylov_exact.operators import eig_symmetric, max_abs

from helpers import FINITE_KINDS, eigsy_reference, param_samples, rotated_pair

BIG = Context("bigreal", 50)
REL_EPS = BIG.default_tolerance().rel_eps
#: Bound on the residual (relative to max |H_ab|) and on the orthogonality
#: defect: 10**-10 rel_eps, 10**-50 at 50 digits.  The kernel reaches
#: about 10**-55, the context's working precision, up to N = 128.
DEFECT = REL_EPS / 10**10


def _defects(h, energies, q):
    """(max |HQ - QE| / max |H|, max |Q^T Q - I|), each product rounded once."""
    residual = max_abs(BIG.matmul(h, q) - q * energies) / max_abs(h)
    return residual, max_abs(BIG.matmul(q.T, q) - np.eye(len(h), dtype=object))


def _position_h(kind, N, params):
    return position_pair(make_system(kind, N, params, BIG)).h


def _check_against_eigsy(h):
    energies, q = eig_symmetric(h, BIG)
    reference, _ = eigsy_reference(h, BIG)
    assert max_abs(energies - reference) <= 10 * REL_EPS * max_abs(h)
    residual, orthogonality = _defects(h, energies, q)
    assert residual <= DEFECT and orthogonality <= DEFECT
    return energies


@pytest.mark.parametrize("N", [1, 6])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_kernel_matches_eigsy_on_every_sample(kind, N):
    for params in param_samples(kind, N):
        _check_against_eigsy(_position_h(kind, N, params))


@pytest.mark.parametrize("kind", [SystemKind.HAHN, SystemKind.Q_RACAH], ids=lambda k: k.value)
def test_kernel_matches_eigsy_at_n32(kind):
    _check_against_eigsy(_position_h(kind, 32, param_samples(kind, 32)[0]))


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_wider_h_raises_naming_its_first_entry(kind):
    # a symmetric H with one pair of entries two places off the diagonal,
    # and the rotated H, dense and symmetric only up to rounding
    pair = position_pair(make_system(kind, 6, param_samples(kind, 6)[0], BIG))
    h = pair.h.copy()
    h[1, 3] = h[3, 1] = BIG.one
    dense = rotated_pair(pair).h
    first = next((a, b) for a, b in np.ndindex(dense.shape) if abs(a - b) > 1 and dense[a, b])
    for wide, (a, b) in ((h, (1, 3)), (dense, first)):
        with pytest.raises(BasisMismatch, match=rf"not tridiagonal: entry \({a}, {b}\) is ") as info:
            eig_symmetric(wide, BIG)
        assert isinstance(info.value, KrylovExactError)


def test_unconverged_eigenvalue_raises_a_typed_error(monkeypatch):
    # no off-diagonal entry ever passes the splitting test; on this H the
    # sweeps keep every e nonzero (an exactly zero e would always pass it)
    monkeypatch.setattr(numeric, "mpf_le", lambda a, b: False)
    numeric._implicit_ql.cache_clear()  # a kept decomposition would not iterate
    h = _position_h(SystemKind.HAHN, 6, {"a": "1", "b": "1"})
    with pytest.raises(EigenNotConverged, match=r"eigenvalue 0 still coupled after 110 sweeps") as info:
        eig_symmetric(h, BIG)
    assert isinstance(info.value, KrylovExactError)


def test_power_of_two_multiples_share_one_decomposition():
    h = _position_h(SystemKind.Q_RACAH, 6, param_samples(SystemKind.Q_RACAH, 6)[0])
    d, e = ([BIG.mp.convert(x)._mpf_ for x in v] for v in (h.diagonal(), [*h.diagonal(1), 0]))
    run = numeric._implicit_ql.__wrapped__  # one QL run, nothing kept
    energies, q = run(tuple(d), tuple(e), BIG.mp)
    for k in (-3, 1, 5):
        # QL on 2**k H itself gives 2**k E and the same Q, bit for bit
        scaled, q_k = run(*(tuple(numeric.mpf_shift(x, k) for x in v) for v in (d, e)), BIG.mp)
        assert scaled == [numeric.mpf_shift(x, k) for x in energies]
        assert [x._mpf_ for x in q_k.ravel()] == [x._mpf_ for x in q.ravel()]
    numeric._implicit_ql.cache_clear()
    (e1, q1), (e2, q2) = eig_symmetric(h, BIG), eig_symmetric(h * 2, BIG)
    info = numeric._implicit_ql.cache_info()
    assert (info.misses, info.hits) == (1, 1) and q2 is not q1
    assert [x._mpf_ for x in e2] == [(2 * x)._mpf_ for x in e1]
    assert [x._mpf_ for x in q2.ravel()] == [x._mpf_ for x in q1.ravel()]


@pytest.mark.slow
def test_kernel_residual_and_orthogonality_at_n128():
    h = _position_h(SystemKind.HAHN, 128, {"a": "1/2", "b": "2"})
    energies, q = eig_symmetric(h, BIG)
    assert all(a < b for a, b in zip(energies, energies[1:]))
    residual, orthogonality = _defects(h, energies, q)
    assert residual <= DEFECT and orthogonality <= DEFECT
