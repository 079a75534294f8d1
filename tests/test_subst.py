import random

from named_oracle import oracle_beta
from fdc.propcheck import gen_node, gen_subst
from fdc.subst import (
    IDENTITY, Rename, Replace, Subst, apply, compose, instantiate, lift,
    shift, shift_subst, singleton, try_unshift,
)
from fdc.syntax import (
    App, Con, EqTy, KArr, Lam, Refl, TCon, TVar, Var, arrow, node_eq, STAR,
    TyLam, Forall,
)


def test_identity_acts_as_identity():
    rng = random.Random(0)
    for _ in range(200):
        n = gen_node(rng, 10)
        assert apply(IDENTITY, n) == n


def test_tail_shift_example():
    # [0 -> Bool] on (#0 -> #1) gives Bool -> #0
    s = singleton(TCon("Bool"))
    t = arrow(TVar(0), TVar(1))
    assert apply(s, t) == arrow(TCon("Bool"), TVar(0))


def test_lift_identity_is_identity():
    rng = random.Random(1)
    lifted = lift(IDENTITY)
    for _ in range(100):
        n = gen_node(rng, 8)
        assert apply(lifted, n) == n


def test_lift_definition():
    s = singleton(TCon("T"))
    up = lift(s)
    assert up.action(0) == Rename(0)
    # index 1 maps to the shifted replacement
    assert up.action(1) == Replace(shift(TCon("T"), 1))


def test_lift_shift_commutation():
    rng = random.Random(2)
    for _ in range(500):
        n = gen_node(rng, 8)
        s = gen_subst(rng, 8)
        assert apply(lift(s), shift(n, 1)) == shift(apply(s, n), 1)


def test_compose_identity_laws():
    rng = random.Random(3)
    for _ in range(200):
        n = gen_node(rng, 8)
        s = gen_subst(rng, 8)
        assert apply(compose(IDENTITY, s), n) == apply(s, n)
        assert apply(compose(s, IDENTITY), n) == apply(s, n)


def test_compose_matches_sequential_application():
    rng = random.Random(4)
    for _ in range(1000):
        n = gen_node(rng, 8)
        s1 = gen_subst(rng, 8)
        s2 = gen_subst(rng, 8)
        assert apply(compose(s1, s2), n) == apply(s2, apply(s1, n))


def test_instantiate_basics():
    assert instantiate(TVar(0), TCon("Bool")) == TCon("Bool")
    # #0 -> #1 with 0 := Int leaves the tail shifted down
    body = arrow(TVar(0), TVar(1))
    assert instantiate(body, TCon("Int")) == arrow(TCon("Int"), TVar(0))


def test_beta_matches_named_oracle():
    rng = random.Random(5)
    for _ in range(1000):
        body = gen_node(rng, 10)
        arg = gen_node(rng, 6)
        assert instantiate(body, arg) == oracle_beta(body, arg)


def test_beta_oracle_capture_case():
    # (\f. \y. f) applied to a term mentioning a free variable must not
    # capture it under the inner binder
    body = Lam(TCon("Bool"), Var(1))  # \y. f  with f = index 1
    arg = Var(0)                      # free variable of the enclosing scope
    engine = instantiate(body, arg)
    assert engine == Lam(TCon("Bool"), Var(1))
    assert engine == oracle_beta(body, arg)


def test_shift_and_unshift():
    n = arrow(TVar(0), TVar(2))
    assert shift(n, 3) == arrow(TVar(3), TVar(5))
    assert try_unshift(shift(n, 3), 3) == n
    assert try_unshift(TVar(0), 1) is None
    assert try_unshift(Forall(STAR, TVar(0)), 1) == Forall(STAR, TVar(0))


def test_binders_lift_under_every_binding_form():
    rng = random.Random(6)
    s = singleton(Con("K"))
    karr = KArr(STAR, STAR)  # the substitution generators never build one
    for make in (lambda b: Lam(TCon("Bool"), b), lambda b: TyLam(STAR, b),
                 lambda b: Forall(STAR, b),
                 lambda b: TyLam(karr, Refl(EqTy(b, b, karr)))):
        n = make(Var(1))
        # index 1 under one binder is index 0 outside: replaced by K
        assert apply(s, n) == make(Con("K"))
        n0 = make(Var(0))
        assert apply(s, n0) == n0
