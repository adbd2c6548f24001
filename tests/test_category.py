import itertools

import pytest

from plumbtwist.category import (
    MAX_CHARACTERISTIC,
    MAX_N,
    Category,
    CategoryParams,
    ParameterError,
    category_for,
    make_params,
    validate_params,
)
from plumbtwist import linalg
from plumbtwist.linalg import Field, is_prime


@pytest.fixture(scope="module")
def cat3():
    return category_for(make_params(3))


@pytest.fixture(scope="module")
def cat4_cp2():
    # One interior class in middle degree, like a complex projective plane.
    return category_for(make_params(4, 32003, (1, 0, 1, 0, 1)))


def test_morphism_spaces_spherical(cat3):
    names = lambda i, j: [(m.name, m.degree) for m in cat3.morphism_space(i, j)]
    assert names(0, 1) == [("p", 1)]
    assert names(0, 0) == [("e0", 0), ("f0", 3)]
    assert names(1, 0) == [("q", 2)]  # degree n-1
    assert names(1, 1) == [("e1", 0), ("f1", 3)]


def test_morphism_spaces_with_interior_classes(cat4_cp2):
    assert [(m.name, m.degree) for m in cat4_cp2.morphism_space(0, 0)] == [
        ("e0", 0), ("x2", 2), ("f0", 4)]


def test_units_are_strict(cat3):
    for name in ("p", "q", "f0", "f1", "e0", "e1"):
        m = cat3.by_name[name]
        post_unit = f"e{m.target}"
        pre_unit = f"e{m.source}"
        assert cat3.compose_names(post_unit, name) == name
        assert cat3.compose_names(name, pre_unit) == name


def test_duality_pairings(cat3):
    assert cat3.compose_names("q", "p") == "f0"
    assert cat3.compose_names("p", "q") == "f1"
    assert cat3.compose_names("f0", "f0") is None  # degree 2n > n


def test_interior_pairing_into_top(cat4_cp2):
    assert cat4_cp2.compose_names("x2", "x2") == "f0"
    assert cat4_cp2.compose_names("p", "x2") is None
    assert cat4_cp2.compose_names("x2", "q") is None


def test_interior_products_below_top_vanish():
    cat = category_for(make_params(6, 32003, (1, 0, 1, 0, 1, 0, 1)))
    # x2 . x2 lands in degree 4 < 6, hence vanishes; x4 . x2 pairs into the top.
    assert cat.compose_names("x2", "x2") is None
    assert cat.compose_names("x4", "x2") == "f0"


@pytest.mark.parametrize("n, betti0", [(3, None), (4, (1, 0, 1, 0, 1)), (4, (1, 0, 2, 0, 1))],
                         ids=["cat3", "cat4_cp2", "cat4_two_interior"])
def test_products_memo_matches_compose_names(n, betti0):
    # A fresh Category, not the cached one, so every pair meets an empty memo.
    cat = Category(make_params(n, 32003, betti0))
    names = sorted(cat.by_name)
    for g in names:
        for f in names:
            try:
                hit = cat.compose_names(g, f)
            except ValueError as exc:
                for _ in range(2):  # raised again, never memoized
                    with pytest.raises(ValueError) as raised:
                        cat.products[g, f]
                    assert str(raised.value) == str(exc)
                assert (g, f) not in cat.products
                continue
            assert cat.products[g, f] == hit and (g, f) in cat.products
            assert cat.products[g, f] == hit
    assert len(cat.products) == sum(cat.by_name[g].source == cat.by_name[f].target for g in names for f in names)


@pytest.mark.parametrize("catname", ["cat3", "cat4_cp2"])
def test_associativity_exhaustive(catname, request):
    cat = request.getfixturevalue(catname)
    field = cat.params.field
    basis = list(cat.by_name.values())
    for f in basis:
        for g in basis:
            if g.source != f.target:
                continue
            for h in basis:
                if h.source != g.target:
                    continue
                gf = cat.compose({g.name: field.one}, {f.name: field.one})
                hg = cat.compose({h.name: field.one}, {g.name: field.one})
                left = cat.compose({h.name: field.one}, gf)
                right = cat.compose(hg, {f.name: field.one})
                assert left == right, (h.name, g.name, f.name)


NONZERO = {2: ["1"], 32003: ["1", "2", "-1"], 0: ["1", "2", "-1", "1/2"]}


@pytest.mark.parametrize("characteristic", [2, 32003, 0])
def test_compose_sums_terms_and_drops_zeros(characteristic):
    # (a e0 + b x2) . (c f0 + d x2) = (ac + bd) f0 + ad x2, as x2 . f0 vanishes; a zero f0 is absent.
    cat = category_for(make_params(4, characteristic, (1, 0, 1, 0, 1)))
    field = cat.params.field
    values = [field.element(v) for v in NONZERO[characteristic]]
    cancelled = 0
    for a, b, c, d in itertools.product(values, repeat=4):
        top = (a * c + b * d) % characteristic if characteristic else a * c + b * d
        want = {"x2": a * d % characteristic if characteristic else a * d}
        if top:
            want["f0"] = top
        cancelled += not top
        assert cat.compose({"e0": a, "x2": b}, {"f0": c, "x2": d}) == want
    assert cancelled


def test_degree_additivity_and_range(cat4_cp2):
    cat = cat4_cp2
    n = cat.params.n
    for f in cat.by_name.values():
        assert 0 <= f.degree <= n
        for g in cat.by_name.values():
            if g.source != f.target:
                continue
            hit = cat.compose_names(g.name, f.name)
            if hit is not None:
                assert cat.by_name[hit].degree == f.degree + g.degree


def test_validate_params_accepts_and_rejects():
    assert validate_params(4, 2) == []
    assert validate_params(4, 32003, (1, 0, 2, 0, 1)) == []
    assert any("n must be" in p for p in validate_params(2, 32003))
    assert any("prime" in p for p in validate_params(3, 6))
    assert any("b^0" in p for p in validate_params(4, 0, (2, 0, 0, 0, 1)))
    assert any("palindromic" in p for p in validate_params(4, 0, (1, 1, 0, 0, 1)))
    assert validate_params(MAX_N, 2) == []
    assert any("at most" in p for p in validate_params(MAX_N + 1, 2))
    assert validate_params(3, MAX_CHARACTERISTIC) == []  # the bound is the Mersenne prime 2^31 - 1
    assert any("at most" in p for p in validate_params(3, 2**61 - 1))  # prime, but refused before trial division
    assert any("nonnegative integers" in p for p in validate_params(3, 32003, (1, True, True, 1)))
    assert any("prime" in p for p in validate_params(3, False))
    with pytest.raises(ParameterError):
        make_params(3, 32003, (1, True, True, 1))
    with pytest.raises(ParameterError):
        make_params(2)


def test_category_params_refuses_what_make_params_refuses():
    for n, betti0 in ((2, None), (3, (1, 7, 1)), (4, (1, 1, 0, 0, 1)), (3, (1, True, True, 1))):
        with pytest.raises(ParameterError) as direct:
            CategoryParams(n, Field(), betti0)
        with pytest.raises(ParameterError) as made:
            make_params(n, 32003, betti0)
        assert str(direct.value) == str(made.value)
    for n, characteristic, betti0 in ((3, 32003, None), (4, 0, [1, 0, 2, 0, 1]), (3, 2, (1, 0, 0, 1))):
        direct = CategoryParams(n, Field(characteristic), betti0)
        assert direct.betti0 == (None if betti0 is None else tuple(betti0))
        assert direct == make_params(n, characteristic, betti0)
        assert hash(direct) == hash(make_params(n, characteristic, betti0))
    assert CategoryParams(3) == make_params(3)
    assert make_params(3, 2, iter([1, 0, 0, 1])) == CategoryParams(3, Field(2), iter([1, 0, 0, 1]))


def test_make_params_trial_divides_the_characteristic_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return is_prime(m)

    monkeypatch.setattr(linalg, "is_prime", counted)
    assert make_params(3, MAX_CHARACTERISTIC).field.characteristic == MAX_CHARACTERISTIC
    assert calls == [MAX_CHARACTERISTIC]
    n_message = "n must be an integer >= 3 (got 2): below that, higher products are not guaranteed to vanish"
    for args, message in (
        ((2, 4), f"{n_message}; characteristic must be 0 or prime (got 4)"),
        ((3, 4), "characteristic must be 0 or prime (got 4)"),
        ((2, 4, (1, 0, 1)), f"{n_message}; characteristic must be 0 or prime (got 4)"),
        ((2, 4, (1, 0, 2)),
         f"{n_message}; characteristic must be 0 or prime (got 4); betti vector needs b^0 = b^n = 1 (got b^0=1, b^n=2)"),
    ):
        calls.clear()
        with pytest.raises(ParameterError) as err:
            make_params(*args)
        assert str(err.value) == message
        assert calls == [4]
