import pytest

from krylov_exact import (
    DEFAULT_PARAMS,
    SystemKind,
    default_system,
    make_system,
    spectrum_shift_relations,
)
from krylov_exact.catalog import REQUIRED_PARAMS
from krylov_exact.errors import (
    IndexOutOfRange,
    MissingParameter,
    ParameterOutOfRange,
)
from krylov_exact.numeric import exact_sqrt

from helpers import FINITE_KINDS, THERMAL_KINDS, param_samples


def test_krawtchouk_data_block(ctx):
    spec = make_system("krawtchouk", 5, {"p": "1/2"}, ctx)
    assert spec.B(0) == ctx.frac(5, 2)
    assert spec.D(5) == ctx.frac(5, 2)
    assert spec.A(3) == -1
    assert spec.C(3) == ctx.frac(-3, 2)


def test_krawtchouk_out_of_range(ctx):
    with pytest.raises(ParameterOutOfRange):
        make_system("krawtchouk", 5, {"p": "3/2"}, ctx)


#: Per system that takes parameters: the first parameter its ranges check,
#: a value out of that range, and the condition the message names.  The
#: q-families get q = 0, where their derived constants divide by q;
#: Meixner c = 1 and Gegenbauer g = 0 also make a data function divide
#: by zero.
FIRST_RANGE_BROKEN = [
    ("krawtchouk", "p", "0", "0 < p < 1"),
    ("hahn", "a", "0", "a, b > 0"),
    ("dual-hahn", "a", "0", "a, b > 0"),
    ("racah", "d", "0", "d > 0"),
    ("quantum-q-krawtchouk", "q", "0", "0 < q < 1"),
    ("q-krawtchouk", "q", "0", "0 < q < 1"),
    ("affine-q-krawtchouk", "q", "0", "0 < q < 1"),
    ("q-hahn", "q", "0", "0 < q < 1"),
    ("dual-q-hahn", "q", "0", "0 < q < 1"),
    ("q-racah", "q", "0", "0 < q < 1"),
    ("meixner", "c", "1", "0 < c < 1"),
    ("charlier", "a", "0", "a > 0"),
    ("laguerre", "g", "1", "g > 1"),
    ("gegenbauer", "g", "0", "g > 1"),
    ("jacobi", "g", "1", "g > 1 and h > 1"),
]


def test_range_table_covers_every_system_with_parameters():
    assert [row[0] for row in FIRST_RANGE_BROKEN] == [k.value for k in SystemKind if REQUIRED_PARAMS[k]]


@pytest.mark.parametrize("system,name,value,condition", FIRST_RANGE_BROKEN)
def test_range_check_names_the_condition(ctx, bctx, system, name, value, condition):
    N, params = DEFAULT_PARAMS[SystemKind(system)]
    for c in (ctx, bctx):
        with pytest.raises(ParameterOutOfRange) as info:
            make_system(system, N, {**params, name: value}, c)
        assert str(info.value) == f"{system}: requires {condition}"


def test_missing_and_unknown_parameters(ctx):
    with pytest.raises(MissingParameter):
        make_system("hahn", 4, {"a": "1"}, ctx)
    with pytest.raises(MissingParameter):
        make_system("krawtchouk", 4, {"p": "1/2", "bogus": "1"}, ctx)
    with pytest.raises(ParameterOutOfRange):
        make_system("krawtchouk", None, {"p": "1/2"}, ctx)
    with pytest.raises(ParameterOutOfRange):
        make_system("meixner", 5, {"c": "1/2", "b": "1"}, ctx)


def test_hermite_data_block(ctx):
    spec = make_system("hermite", None, {}, ctx)
    assert [spec.energy(n) for n in range(4)] == [0, 2, 4, 6]
    assert spec.alpha_plus(3) == 2 and spec.alpha_minus(3) == -2
    assert spec.A(7) == ctx.frac(1, 2)
    assert spec.eta_diag(7) == 0
    assert spec.C(7) == 7


def test_alpha_pm_examples(ctx):
    k = make_system("krawtchouk", 4, {"p": "1/3"}, ctx)
    assert (k.alpha_plus(2), k.alpha_minus(2)) == (1, -1)

    g = make_system("gegenbauer", None, {"g": "2"}, ctx)
    assert (g.alpha_plus(3), g.alpha_minus(3)) == (11, -9)

    qh = make_system("q-hahn", 3, {"a": "1/2", "b": "1/2", "q": "1/2"}, ctx)
    ap, am = qh.alpha_plus(0), qh.alpha_minus(0)
    assert ap == ctx.frac(3, 4)
    assert am == 0
    # cross-check the root relations against R_0, R_1
    e0 = qh.energy(0)
    assert ap + am == qh.r1_at(e0)
    assert ap * am == -qh.r0_at(e0)


def test_shift_relations_examples(ctx):
    k = make_system("krawtchouk", 5, {"p": "1/2"}, ctx)
    assert spectrum_shift_relations(k, 2)
    r = make_system("racah", 6, {"d": "1", "a": "8", "b": "3/2"}, ctx)
    assert spectrum_shift_relations(r, 3)
    qr = default_system("q-racah", ctx)
    assert spectrum_shift_relations(qr, 1)
    with pytest.raises(IndexOutOfRange):
        spectrum_shift_relations(k, 5)


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_finite_system_invariants(ctx, kind):
    for N in (2, 5):
        for params in param_samples(kind, N):
            spec = make_system(kind, N, params, ctx)
            assert spec.eta(0) == 0
            assert spec.energy(0) == 0
            assert spec.D(0) == 0 and spec.B(N) == 0
            assert spec.C(0) == 0 and spec.A(N) == 0
            for n in range(N):
                assert spec.ac_product(n) > 0
                # the frequency discriminant is a perfect rational square
                e = spec.energy(n)
                disc = spec.r1_at(e) ** 2 + 4 * spec.r0_at(e)
                root = exact_sqrt(disc)
                assert root is not None
                assert root == spec.alpha_plus(n) - spec.alpha_minus(n)
            for n in range(1, N):
                assert spectrum_shift_relations(spec, n)


@pytest.mark.parametrize("kind", THERMAL_KINDS)
def test_thermal_system_invariants(ctx, kind):
    spec = default_system(kind, ctx)
    assert spec.energy(0) == 0
    for n in range(12):
        assert spec.ac_product(n) > 0
        assert spec.energy(n + 1) > spec.energy(n)
    for n in range(1, 10):
        assert spectrum_shift_relations(spec, n)


def test_eta_values(ctx):
    k = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    assert [k.eta(x) for x in range(4)] == [0, 1, 2, 3]
    dh = make_system("dual-hahn", 3, {"a": "1", "b": "2"}, ctx)
    assert dh.eta(1) == 1 * (1 + 1 + 2 - 1)
    dqh = make_system("dual-q-hahn", 3, {"a": "1/2", "b": "1/2", "q": "1/2"}, ctx)
    q, ab = ctx.frac(1, 2), ctx.frac(1, 4)
    assert dqh.eta(2) == (q**-2 - 1) * (1 - ab * q)


def test_eta_diag_conventions(ctx):
    # finite systems and Meixner/Charlier: -(A_n + C_n)
    m = make_system("meixner", None, {"c": "1/2", "b": "1"}, ctx)
    assert m.eta_diag(3) == -(m.A(3) + m.C(3))
    c = make_system("charlier", None, {"a": "1"}, ctx)
    assert c.eta_diag(1) == 2  # a + n
    # symmetric Jacobi: diagonal vanishes through the (h - g) factor
    j = make_system("jacobi", None, {"g": "2", "h": "2"}, ctx)
    assert j.eta_diag(0) == 0 and j.eta_diag(5) == 0
    j2 = make_system("jacobi", None, {"g": "2", "h": "3"}, ctx)
    assert j2.eta_diag(0) != 0


def test_positivity_violation_reports_index(ctx):
    # q-Racah with b at the boundary makes C_n vanish inside the range
    with pytest.raises((ParameterOutOfRange, Exception)):
        make_system("q-racah", 3, {"q": "1/2", "d": "1/2", "a": "1/64", "b": "1/4"}, ctx)


def test_norm_eta_sq_closed_form_affine_qk(ctx):
    from krylov_exact.moments import affine_qk_norm_closed

    for N, q in [(3, "1/2"), (5, "1/3"), (8, "2/5")]:
        spec = make_system("affine-q-krawtchouk", N, {"q": q, "p": "1"}, ctx)
        assert spec.norm_eta_sq() == affine_qk_norm_closed(N, ctx.num(q), ctx)
