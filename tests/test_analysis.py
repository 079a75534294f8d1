import time

import pytest

from fdc.analysis import (
    AnalysisError, GuardPreamble, check_hssdi, check_no_zero_syntactic,
    extract_preamble, specialize,
)
from fdc.parser import parse_core, parse_term
from fdc.propcheck import GenConfig, gen_well_typed
from fdc.reduction import whnf
from fdc.syntax import Choice, Con, InstanceDecl, Ref, TCon, ZERO
from fdc.typecheck import check_program, check_term, infer_term, Exactly

BOOL = TCon("Bool")


def test_preamble_extraction(fundeps_core):
    bodies = [d.body for d in fundeps_core
              if isinstance(d, InstanceDecl) and d.name == "fdFwd"]
    preambles = [extract_preamble(b) for b in bodies]
    assert all(len(p.patterns) == 2 for p in preambles)
    assert preambles[0].heads == ("FIB", "FIB")


def test_preamble_stops_at_first_non_guard():
    body = parse_term("\\x:Bool. if x is True then False else True")
    assert extract_preamble(body) == GuardPreamble(())


def test_no_zero_syntactic_examples(superclasses_env):
    assert check_no_zero_syntactic(parse_term("\\x:Bool. x"))
    assert not check_no_zero_syntactic(
        parse_term("guard #0 is EqBool [Bool] then \\h:Bool ~ Bool. #0"))
    assert not check_no_zero_syntactic(ZERO)
    assert not check_no_zero_syntactic(Ref("eq"))   # open function
    assert not check_no_zero_syntactic(Ref("not"))  # let binding


def _missing(program, env):
    """Condition three's uncovered constructor tuples, per open function."""
    return {name: rep.condition3_missing
            for name, rep in check_hssdi(program, env).functions.items()}


def test_hssdi_passes_on_goldens(prelude, superclasses_core):
    report = check_hssdi(superclasses_core, prelude)
    assert report.ok
    assert set(report.functions) == {"eq", "lt", "ordEq"}


def test_hssdi_fundeps_conditions(prelude, fundeps_core):
    report = check_hssdi(fundeps_core, prelude)
    # the diverging coercion is deliberately non-well-founded; everything
    # else is clean
    assert report.functions["fdFwd"].ok
    assert report.functions["fdBwd"].ok
    assert report.functions["absurdCo"].condition1
    assert not report.functions["absurdCo"].condition2
    assert not report.functions["absurdCo"].condition3_missing


def test_condition3_missing_tuple_reported(prelude, fundeps_core):
    # delete one cross-pair fdFwd instance: its tuple must be reported
    pruned = []
    dropped = False
    for d in fundeps_core:
        if (isinstance(d, InstanceDecl) and d.name == "fdFwd"
                and not dropped
                and extract_preamble(d.body).heads == ("FIB", "FMM")):
            dropped = True
            continue
        pruned.append(d)
    assert dropped
    missing = _missing(pruned, prelude)
    assert ("FIB", "FMM") in missing["fdFwd"]
    assert missing["fdBwd"] == []


def test_condition3_guardless_instance(prelude):
    text = """
open C : * -> *;
instance K : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. True;
"""
    decls = parse_core(text)
    report = check_hssdi(decls, prelude)
    # the instance has no guard preamble, so the (K,) tuple is uncovered
    assert report.functions["m"].condition3_missing == [("K",)]


def test_condition3_vacuous_without_constructors(prelude):
    text = """
open C : * -> *;
method m : forall t:*. C t -> Bool;
"""
    decls = parse_core(text)
    missing = _missing(decls, prelude)
    assert missing["m"] == []


def test_condition2_flags_computed_evidence(prelude):
    text = """
open C : * -> *;
instance K : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:Bool ~ t. True;
let use : Bool = m [Bool] (if True is True then K [Bool] refl(Bool) else K [Bool] refl(Bool));
"""
    decls = parse_core(text)
    report = check_hssdi(decls, prelude)
    assert report.functions["m"].condition2


def test_condition1_flags_unshrinking_recursion(prelude):
    text = """
open C : * -> *;
instance K : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:Bool ~ t. m [t] (K [t] h);
"""
    decls = parse_core(text)
    report = check_hssdi(decls, prelude)
    assert report.functions["m"].condition1


def test_specialize_already_clean_term_unchanged(superclasses_env):
    term = parse_term("\\x:Bool. x")
    assert specialize(superclasses_env, term) is term


def test_specialize_lte_call(superclasses_env):
    call = parse_term("lte [Bool] (OrdBool [Bool] refl(Bool)) False True")
    out = specialize(superclasses_env, call)
    assert check_no_zero_syntactic(out)
    check_term(superclasses_env, out, BOOL)
    assert whnf(superclasses_env, out).node == whnf(superclasses_env,
                                                    call).node


def test_specialize_eq_call(superclasses_env):
    call = parse_term("eq [Bool] (EqBool [Bool] refl(Bool)) True False")
    out = specialize(superclasses_env, call)
    assert check_no_zero_syntactic(out)
    check_term(superclasses_env, out, BOOL)
    assert whnf(superclasses_env, out).node == Con("False")


def test_specialize_f_call(fundeps_env):
    call = parse_term(
        "f [Bool] (FIB [Int] [Bool] refl(Int) refl(Bool)) True")
    out = specialize(fundeps_env, call)
    assert check_no_zero_syntactic(out)
    check_term(fundeps_env, out, BOOL)
    assert whnf(fundeps_env, out).node == Con("False")


def test_specialize_unsaturated_call(prelude):
    text = """
open C : * -> *;
data D : *;
ctor MkD : D;
instance K : forall t:*. (D ~ t) -> C t;
instance K2 : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:D ~ t. True;
"""
    env, diags = check_program(prelude, parse_core(text))
    assert not diags
    call = parse_term("m [Bool] (K2 [Bool] refl(Bool))")
    with pytest.raises(AnalysisError) as exc:
        specialize(env, call)
    assert exc.value.diagnostic.code == "unsaturated"


def test_specialize_non_concrete_evidence(superclasses_env):
    # an open function under a lambda: its evidence is a bound variable
    term = parse_term("\\d:Ord Bool. lt [Bool] d True True")
    with pytest.raises(AnalysisError) as exc:
        specialize(superclasses_env, term)
    assert exc.value.diagnostic.code == "not-hssdi"


def test_specialize_budget_ends_an_unfolding_cycle():
    # acceptance-5 case 3 (seed 42) calls `absurdCo`, whose unfolding cycles
    # through the same term; each pass is charged for its walks of the term,
    # so the default budget runs out although few normalizer steps are taken
    env, term, _ = gen_well_typed(GenConfig(seed=42, size=30), 3)
    start = time.perf_counter()
    with pytest.raises(AnalysisError) as exc:
        specialize(env, term)
    assert exc.value.diagnostic.code == "specialize-budget"
    assert time.perf_counter() - start < 5


def test_specialize_keeps_choice_for_overlap(prelude):
    text = """
open C : * -> *;
instance K : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:Bool ~ t. True;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:Bool ~ t. False;
"""
    env, diags = check_program(prelude, parse_core(text))
    assert not diags
    out = specialize(env, parse_term("m [Bool] (K [Bool] refl(Bool))"))
    assert check_no_zero_syntactic(out)
    assert out == Choice(Con("True"), Con("False"))


def test_specialize_distributes_a_choice_of_dictionaries(superclasses_env):
    # the guard scrutinee is a choice of two values, so κ lifts the choice
    # over the guard and each side resolves on its own
    ord_bool = "(OrdBool [Bool] refl(Bool))"
    call = parse_term(f"lt [Bool] ({ord_bool} <+> {ord_bool}) True False")
    out = specialize(superclasses_env, call)
    assert out == Choice(Con("False"), Con("False"))
    check_term(superclasses_env, out, BOOL)


@pytest.mark.parametrize("file,call", [
    # κ lifts the choice of dictionaries over the first guard; the guard on
    # `d` then sticks inside each alternative, not at the result's head
    ("fundeps", "\\d:F Int Bool. fdFwd [Int] [Bool] [Bool] (dFIB <+> dFIB) d"),
    # a choice with a variable in it is not a value, so κ does not lift it
    ("superclasses",
     "\\d:Ord Bool. lt [Bool] ((OrdBool [Bool] refl(Bool)) <+> d) True False"),
])
def test_specialize_rejects_a_choice_with_open_evidence(request, file, call):
    env = request.getfixturevalue(f"{file}_env")
    with pytest.raises(AnalysisError) as exc:
        specialize(env, parse_term(call))
    assert exc.value.diagnostic.code == "not-hssdi"


def test_specialize_instance_reducing_to_zero_misses(prelude):
    text = """
open C : * -> *;
instance K : forall t:*. (Bool ~ t) -> C t;
method m : forall t:*. C t -> Bool;
instance m = /\\t:*. \\d:C t. guard d is K [t] then \\h:Bool ~ t. 0;
"""
    env, diags = check_program(prelude, parse_core(text))
    assert not diags
    with pytest.raises(AnalysisError) as exc:
        specialize(env, parse_term("m [Bool] (K [Bool] refl(Bool))"))
    assert exc.value.diagnostic.code == "unsaturated"


def test_specialized_type_preserved_on_partial_application(superclasses_env):
    call = parse_term("eq [Bool] (EqBool [Bool] refl(Bool))")
    out = specialize(superclasses_env, call)
    assert check_no_zero_syntactic(out)
    got = infer_term(superclasses_env, out)
    assert got == Exactly(parse_core("let t : Bool -> Bool -> Bool = 0;")[0].type)


def test_hssdi_condition3_monotone_under_new_instances(prelude, fundeps_core):
    # adding a constructor never uncovers a previously-covered tuple: the
    # missing set over the old constructors is unchanged
    before = _missing(fundeps_core, prelude)
    extra = parse_core(
        "instance FBB : forall a:*. forall b:*. "
        "(Bool ~ a) -> (Bool ~ b) -> F a b;")
    after = _missing(fundeps_core + extra, prelude)
    for fn, missing in before.items():
        new_missing = {t for t in after.get(fn, []) if "FBB" not in t}
        assert new_missing == set(missing)
