import random

import pytest

import subst_oracle as oracle
from named_oracle import oracle_beta
from fdc.propcheck import gen_node, gen_subst
from fdc.subst import (
    IDENTITY, Rename, Replace, ScopeEscape, Subst, apply, compose, instantiate,
    instantiate_all, is_closed, lift, shift, singleton, try_unshift,
)
from fdc.syntax import (
    App, Con, EqTy, If, KArr, Lam, Pattern, Refl, TCon, TVar, Var, ZERO, arrow,
    loose_range, STAR, TyLam, Forall,
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


# ------------------------------------------------- escape under a binder

def test_escape_under_a_binder_raises():
    # #1 under one binder is free index 0, which a shift by -1 strands
    for n in (Lam(TCon("Bool"), Var(1)), Forall(STAR, TVar(1))):
        with pytest.raises(ScopeEscape):
            shift(n, -1)
        assert try_unshift(n, 1) is None
    with pytest.raises(ScopeEscape):
        shift(Var(0), -1)
    assert shift(Lam(TCon("Bool"), Var(2)), -1) == Lam(TCon("Bool"), Var(1))
    assert try_unshift(Forall(STAR, TVar(2)), 1) == Forall(STAR, TVar(1))
    assert try_unshift(Forall(STAR, TVar(1)), 0) == Forall(STAR, TVar(1))


# ------------------------------------- against the lift-based reference

def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, gen_node(rng, 10), gen_subst(rng, 8)


def test_apply_matches_oracle():
    for _, n, s in _cases(10, 1000):
        assert apply(s, n) == oracle.apply(s, n)


def test_shift_and_unshift_match_oracle():
    for rng, n, _ in _cases(11, 1000):
        amount = rng.randrange(-3, 4)
        free = oracle.free_indices(n)
        if free and min(free) + amount < 0:
            with pytest.raises(ScopeEscape):
                shift(n, amount)
        else:
            assert shift(n, amount) == oracle.shift(n, amount)
        if amount >= 0:
            assert try_unshift(n, amount) == oracle.try_unshift(n, amount)


def test_instantiate_matches_oracle():
    for rng, n, _ in _cases(12, 1000):
        arg = gen_node(rng, 6)
        assert instantiate(n, arg) == oracle.instantiate(n, arg)


def test_instantiate_all_is_iterated_instantiate():
    for rng, n, _ in _cases(13, 1000):
        args = [gen_node(rng, 4) for _ in range(rng.randrange(4))]
        # `n` read as a body under len(args) binders: wrap it in them, then
        # close them one at a time, outermost first
        body = n
        for _ in args:
            body = Forall(STAR, body)
        iterated = oracle_iterated = body
        for a in args:
            iterated = instantiate(iterated.body, a)
            oracle_iterated = oracle.instantiate(oracle_iterated.body, a)
        assert instantiate_all(n, args) == iterated == oracle_iterated


def test_closed_subterms_come_back_as_the_same_object():
    ground = Subst(tuple(Replace(Con("K")) for _ in range(4)))
    for rng, n, s in _cases(14, 500):
        closed = apply(ground, n)  # gen_node's variables are #0-#3
        assert is_closed(closed)
        assert apply(s, closed) is closed
        assert shift(closed, rng.randrange(1, 4)) is closed
        assert try_unshift(closed, 2) is closed
        assert instantiate(closed, Var(0)) is closed
        assert instantiate_all(closed, [Var(0), Var(1)]) is closed
        # inside an open term and under a binder too
        open_term = Lam(TCon("Bool"), App(closed, Var(1)))
        assert apply(s, open_term).body.fun is closed
        assert shift(open_term, 1).body.fun is closed


def test_unshift_at_the_loose_range_boundary():
    # a node whose free indices all lie below `amount` cannot come down by
    # it; one with a free index at `amount` or above may; a closed node
    # comes back as it is, whatever the amount
    for rng, n, _ in _cases(16, 1000):
        r = loose_range(n)
        for amount in (r - 1, r, r + rng.randrange(1, 4)):
            if amount < 0:
                continue
            got = try_unshift(n, amount)
            assert got == oracle.try_unshift(n, amount)
            if r == 0:
                assert got is n and shift(n, -amount) is n
            elif amount >= r:
                assert got is None


def test_loose_range_is_the_largest_free_index_plus_one():
    for rng, n, s in _cases(15, 1000):
        for m in (n, apply(s, n), Lam(TCon("Bool"), n), Forall(STAR, n)):
            assert loose_range(m) == max(oracle.free_indices(m),
                                         default=-1) + 1
            assert is_closed(m) == (not oracle.free_indices(m))
    pattern_only = If(Con("K"), Pattern("K", (TVar(3),)), Con("K"), ZERO)
    assert loose_range(pattern_only) == 4
    assert loose_range(KArr(STAR, STAR)) == 0
