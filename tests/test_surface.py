import pytest

from fdc.corpus import corpus_text
from fdc.elaborate import elaborate_program
from fdc.parser import ParseError
from fdc.surface import (
    SClassDecl, SInstanceDecl, parse_surface, validate_surface,
)
from fdc.syntax import (
    Annot, App, Con, Forall, Hole, KArr, Ref, STAR, TApp, TCon, TVar, arrow,
    un_arrow,
)
from fdc.typecheck import Diagnostic


def test_class_decl_shape():
    [decl] = parse_surface("class Eq a where { eq :: a -> a -> Bool; };")
    assert isinstance(decl, SClassDecl)
    assert decl.name == "Eq"
    assert decl.params == (("a", STAR),)
    assert decl.kind == KArr(STAR, STAR)
    assert decl.supers == ()
    [(name, ty)] = decl.methods
    assert name == "eq"
    # the class parameter is the one bound variable
    assert ty == arrow(TVar(0), arrow(TVar(0), TCon("Bool")))


def test_fundep_clauses_to_index_sets():
    [decl] = parse_surface("class F t u | t -> u, u -> t;")
    assert decl.fundeps == (((0,), 1), ((1,), 0))


def test_multi_determiner_fundep():
    [decl] = parse_surface("class G a b c | a b -> c;")
    assert decl.fundeps == (((0, 1), 2),)


def test_superclass_sugar():
    [decl] = parse_surface("class Eq a => Ord a where { lt :: a -> a -> Bool; };")
    assert decl.supers == (TApp(TCon("Eq"), TVar(0)),)


def test_instance_with_context():
    [decl] = parse_surface("instance F a b => F (Maybe a) (Maybe b);")
    assert isinstance(decl, SInstanceDecl)
    assert decl.class_name == "F"
    assert decl.ctor_name is None
    # the instance's variables, a then b, b innermost
    assert decl.ivars == ("a", "b")
    assert decl.context == (TApp(TApp(TCon("F"), TVar(1)), TVar(0)),)
    assert decl.head_args == (TApp(TCon("Maybe"), TVar(1)),
                              TApp(TCon("Maybe"), TVar(0)))


def test_instance_with_explicit_ctor_name():
    [decl] = parse_surface("instance FIB : F Int Bool;")
    assert decl.ctor_name == "FIB"
    assert decl.head_args == (TCon("Int"), TCon("Bool"))


def _let_body(term: str):
    """`term` read by `parse_surface` as the body of a `let`."""
    [decl] = parse_surface(f"let t :: Bool = {term};")
    return decl.body


def test_hole_and_annotation_terms():
    t = _let_body("eq [a] (_ :: Eq a) x y")
    # spine: (((eq [a]) hole) x) y, with every name free: a type variable
    # no binder binds is read as a type constant of its name
    assert isinstance(t, App)
    assert t.arg == Ref("y")
    hole = t.fun.fun.arg
    assert hole == Hole(TApp(TCon("Eq"), TCon("a")))
    annotated = _let_body("(True :: Bool)")
    assert annotated == Annot(Con("True"), TCon("Bool"))


def test_kind_annotated_class_params():
    [decl] = parse_surface("class MonadState s (m :: * -> *) | m -> s;")
    assert decl.params == (("s", STAR), ("m", KArr(STAR, STAR)))
    assert decl.kind == KArr(STAR, KArr(KArr(STAR, STAR), STAR))
    assert decl.fundeps == (((1,), 0),)


def test_context_arrow_sugar_in_types():
    [decl] = parse_surface("let f :: forall t. F Int t => t -> t "
                           "= /\\ t. \\ d :: F Int t. not;")
    ty = decl.type
    assert isinstance(ty, Forall)
    assert un_arrow(ty.body) is not None  # the dictionary arrow


def test_roundtrip_corpus_files():
    for name in ("superclasses.hsk", "fundeps.hsk", "fundeps_invalid.hsk"):
        program = parse_surface(corpus_text(name))
        assert validate_surface(program) == []


def test_validation_diagnostics_pass_through_elaboration():
    program = parse_surface("let f :: Bool -> Bool = \\ b. b;")
    [issue] = validate_surface(program)
    assert isinstance(issue, Diagnostic)
    assert str(issue) == ("annotation-required: let f: lambda binders must "
                          "carry a type")
    assert elaborate_program(program) == ([], [issue])


def test_validate_paterson_violation():
    program = parse_surface("class F t u; instance F a b => F a b;")
    issues = validate_surface(program)
    assert any(i.code == "paterson" for i in issues)


def test_validate_paterson_counts_each_variable_in_context_order():
    # each variable of the context is counted against all the head's
    # arguments; 'b' and 'a' each occur twice there and once in the head
    program = parse_surface(
        "class H t u v w; class G t; instance H b b a a => G (P a b c d e);")
    assert validate_surface(program) == [
        Diagnostic("paterson", f"instance G: {v!r} occurs more often in the "
                               f"context than in the head")
        for v in "ba"]


def test_validate_paterson_prints_a_context_in_core_syntax():
    # a context is a core type: a quantifier in it is printed with a
    # generated binder name, not the one the source wrote
    program = parse_surface(
        "class C a; instance C (forall b. b) => C (Maybe a);")
    assert validate_surface(program) == [Diagnostic(
        "paterson", "instance C: context C (forall t0:*. t0) is not smaller "
                    "than the instance head")]


def test_validate_prefix_arrow_is_an_arrow():
    # `(->) a b` parses to the same node as `a -> b`, so it has the arrow's
    # binder shape and size
    for ty in ("(->) Bool Bool", "Bool -> Bool"):
        program = parse_surface(f"let f :: {ty} = \\ x :: Bool. x;")
        assert validate_surface(program) == []
    assert validate_surface(parse_surface(
        "class F t; instance F ((->) a a) => F (Maybe a);")) == [Diagnostic(
            "paterson", "instance F: context F (a -> a) is not smaller than "
                        "the instance head"),
        Diagnostic("paterson", "instance F: 'a' occurs more often in the "
                               "context than in the head")]


@pytest.mark.parametrize("head", ["a -> b", "(->) a b", "(Maybe a -> b) c"])
def test_an_arrow_is_no_instance_head(head):
    with pytest.raises(ParseError, match="instance head must name a class"):
        parse_surface(f"class C a; instance ({head});")


def test_validate_paterson_accepts_structural_instance():
    program = parse_surface(
        "class F t u; instance F a b => F (Maybe a) (Maybe b);")
    assert validate_surface(program) == []


def test_validate_unannotated_lambda():
    program = parse_surface("let f :: Bool -> Bool = \\ b. b;")
    issues = validate_surface(program)
    assert any(i.code == "annotation-required" for i in issues)


def test_validate_unannotated_method_body():
    program = parse_surface(
        "class C a where { m :: a -> a; };"
        "instance C Bool where { m = \\ b :: Bool. b; };")
    issues = validate_surface(program)
    assert any(i.code == "annotation-required" for i in issues)


def test_validate_eta_shape():
    program = parse_surface("let f :: Bool = \\ b :: Bool. b;")
    issues = validate_surface(program)
    assert any(i.code == "eta-shape" for i in issues)


def test_validate_annotated_spine_head_ok():
    program = parse_surface(
        "let g :: Bool = ((\\ z :: Bool. z) :: Bool -> Bool) True;")
    assert validate_surface(program) == []


def test_validate_unannotated_spine_head():
    program = parse_surface(
        "let g :: Bool = (\\ z :: Bool. z) True;")
    issues = validate_surface(program)
    assert any(i.code == "annotation-required" for i in issues)


def test_fundep_index_of_unknown_param_fails():
    with pytest.raises(ParseError):
        parse_surface("class F t u | t -> w;")


def test_multiple_superclasses_parse():
    [decl] = parse_surface(
        "class (Eq a, Ord a) => Both a where { m :: a -> a; };")
    assert decl.supers == (TApp(TCon("Eq"), TVar(0)),
                           TApp(TCon("Ord"), TVar(0)))
