"""The implicit QL kernel behind ``eig_symmetric`` against mpmath's dense
``eigsy``: eigenvalues, the residual |HQ - QE| and the orthogonality
|Q^T Q - I| on the position H of every finite system, and the typed
errors of an H wider than tridiagonal and of an eigenvalue that does not
converge."""

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
    h = _position_h(SystemKind.HAHN, 6, {"a": "1", "b": "1"})
    with pytest.raises(EigenNotConverged, match=r"eigenvalue 0 still coupled after 110 sweeps") as info:
        eig_symmetric(h, BIG)
    assert isinstance(info.value, KrylovExactError)


@pytest.mark.slow
def test_kernel_residual_and_orthogonality_at_n128():
    h = _position_h(SystemKind.HAHN, 128, {"a": "1/2", "b": "2"})
    energies, q = eig_symmetric(h, BIG)
    assert all(a < b for a, b in zip(energies, energies[1:]))
    residual, orthogonality = _defects(h, energies, q)
    assert residual <= DEFECT and orthogonality <= DEFECT
