"""Core calculus with open data types, open functions, and first-class
coercions, plus the surface-language elaborator for type classes and
functional dependencies."""

from .syntax import (  # noqa: F401
    Node, Star, KArr, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam,
    App, TyLam, TyApp, Cast, Pattern, If, Guard, Zero, Choice, Refl, Sym,
    Trans, CApp, Fst, Snd, Univ, CInst, Sim, Env, arrow,
    STAR, ZERO,
)
from .parser import parse_core, parse_term, parse_type, ParseError  # noqa: F401
from .printer import print_core, print_term, print_type  # noqa: F401
