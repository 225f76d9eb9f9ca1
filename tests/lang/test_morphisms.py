"""Tests for the core combinators (Figure 1, shared fragment)."""

import pytest

from repro.errors import OrNRATypeError
from repro.types.kinds import (
    BOOL,
    INT,
    FuncType,
    ProdType,
    TypeVar,
    UnitType,
)
from repro.values.values import FALSE, TRUE, UNIT_VALUE, atom, vpair, vset

from repro.lang.morphisms import (
    Bang,
    Compose,
    Cond,
    Const,
    Eq,
    Id,
    PairOf,
    Primitive,
    Proj1,
    Proj2,
    always,
    compose,
    cond,
    infer_signature,
)
from repro.lang.primitives import int_le, plus


class TestCategoryFragment:
    def test_identity(self):
        assert Id()(vpair(1, 2)) == vpair(1, 2)

    def test_projections(self):
        assert Proj1()(vpair(1, 2)) == atom(1)
        assert Proj2()(vpair(1, 2)) == atom(2)

    def test_projection_type_error(self):
        with pytest.raises(OrNRATypeError):
            Proj1()(atom(1))

    def test_pair_formation(self):
        swap = PairOf(Proj2(), Proj1())
        assert swap(vpair(1, 2)) == vpair(2, 1)

    def test_compose_order(self):
        # f o g applies g first.
        first_then_second = Compose(Proj2(), PairOf(Proj2(), Proj1()))
        assert first_then_second(vpair(1, 2)) == atom(1)

    def test_matmul_operator(self):
        swap = PairOf(Proj2(), Proj1())
        assert (Proj1() @ swap)(vpair(1, 2)) == atom(2)

    def test_compose_helper_right_to_left(self):
        m = compose(Proj1(), PairOf(Proj2(), Proj1()))
        assert m(vpair(1, 2)) == atom(2)

    def test_compose_empty_is_identity(self):
        assert compose()(atom(5)) == atom(5)

    def test_bang(self):
        assert Bang()(vset(1, 2)) is UNIT_VALUE


class TestConstants:
    def test_const_from_unit(self):
        assert Const(5)(UNIT_VALUE) == atom(5)

    def test_always_from_anything(self):
        assert always(7)(vset(1)) == atom(7)

    def test_const_rejects_non_atoms(self):
        with pytest.raises(OrNRATypeError):
            Const(vset(1))  # type: ignore[arg-type]

    def test_const_custom_base(self):
        assert Const("B", base="module")(UNIT_VALUE).base == "module"


class TestEquality:
    def test_eq_atoms(self):
        assert Eq()(vpair(1, 1)) == TRUE
        assert Eq()(vpair(1, 2)) == FALSE

    def test_eq_is_structural_on_orsets(self):
        # <1,2> and <2,1> are the same object; <1> and <1,1> too.
        from repro.values.values import vorset

        assert Eq()(vpair(vorset(1, 2), vorset(2, 1))) == TRUE
        # but conceptually-equal different structures differ:
        assert Eq()(vpair(vorset(vorset(1)), vorset(vorset(vorset(1))))) == FALSE

    def test_eq_requires_pair(self):
        with pytest.raises(OrNRATypeError):
            Eq()(atom(1))


class TestCond:
    def test_branches(self):
        le = int_le()
        clamp = cond(le, Proj1(), Proj2())
        assert clamp(vpair(1, 5)) == atom(1)
        assert clamp(vpair(7, 5)) == atom(5)

    def test_predicate_must_be_boolean(self):
        bad = Cond(Proj1(), Proj1(), Proj2())
        with pytest.raises(OrNRATypeError):
            bad(vpair(1, 2))


class TestPrimitives:
    def test_plus(self):
        assert plus()(vpair(2, 3)) == atom(5)

    def test_primitive_type_enforced_at_runtime(self):
        with pytest.raises(OrNRATypeError):
            plus()(vpair(True, False))

    def test_primitive_result_coerced(self):
        p = Primitive("five", lambda v: 5, INT, INT)
        assert p(atom(1)) == atom(5)


class TestSignatures:
    def test_identity_signature(self):
        sig = infer_signature(Id())
        assert sig.dom == sig.cod
        assert isinstance(sig.dom, TypeVar)

    def test_projection_signature(self):
        sig = infer_signature(Proj1())
        assert isinstance(sig.dom, ProdType)
        assert sig.dom.left == sig.cod

    def test_eq_signature(self):
        sig = infer_signature(Eq())
        assert sig.cod == BOOL
        assert isinstance(sig.dom, ProdType)
        assert sig.dom.left == sig.dom.right

    def test_compose_signature_unifies(self):
        m = Compose(Proj1(), PairOf(Proj2(), Proj1()))
        sig = infer_signature(m)
        assert isinstance(sig.dom, ProdType)
        assert sig.cod == sig.dom.right

    def test_compose_type_clash_raises(self):
        with pytest.raises(OrNRATypeError):
            infer_signature(Compose(plus(), Bang()))

    def test_bang_signature(self):
        assert infer_signature(Bang()).cod == UnitType()

    def test_output_type_concrete(self):
        assert Proj1().output_type(ProdType(INT, BOOL)) == INT

    def test_output_type_mismatch_raises(self):
        with pytest.raises(OrNRATypeError):
            Proj1().output_type(INT)

    def test_cond_signature(self):
        sig = infer_signature(Cond(int_le(), Proj1(), Proj2()))
        assert sig == FuncType(ProdType(INT, INT), INT)


class TestDescriptions:
    def test_describe_composition(self):
        assert (Proj1() @ Id()).describe() == "pi_1 o id"

    def test_describe_cond(self):
        text = Cond(Eq(), Proj1(), Proj2()).describe()
        assert text == "cond(=, pi_1, pi_2)"

    def test_hash_and_eq(self):
        assert Proj1() == Proj1()
        assert hash(Id() @ Bang()) == hash(Id() @ Bang())
        assert (Id() @ Bang()) == (Id() @ Bang())

    def test_composition_hash_stays_out_of_pickles(self):
        # A composition caches its hash; str hashes are salted per
        # interpreter, so a pickle must carry the structure and no hash.
        import pickle

        chain = Id() @ Bang()
        for _ in range(50):
            chain = Id() @ chain
        expected = hash(chain)
        clone = pickle.loads(pickle.dumps(chain))
        assert "_hash" not in vars(clone)
        assert clone == chain and hash(clone) == expected
