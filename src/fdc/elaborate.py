"""Translation of surface programs to the core language.

A class becomes an open type plus open functions for its methods,
superclass projections, and functional-dependency witnesses. An instance
becomes a Henry-Ford open constructor (equality premises instead of a
restricted index) plus guarded instances of each of those open functions.

Terms are typed by the core checker's own rules (`typecheck._check` with a
hook, `_Fixes`): it asks for a dictionary at each hole and a cast at each
mismatch, and the term is rebuilt with them. The types a declaration
states are kinded before anything built from them is emitted, and every
emitted declaration is checked again as it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .corpus import prelude_env
from .printer import print_type
from .surface import (
    SDecl, SDataDecl, SClassDecl, SInstanceDecl, SLetDecl, validate_surface,
)
from .synthesis import (
    ClassInfo, FundepInfo, InstanceInfo, Registry, Resolver, SynthError,
)
from .syntax import (
    Node, TVar, TCon, EqTy, Forall, Var, Ref, Lam, TyLam, TyApp, Cast,
    Pattern, Guard, Env, TyVarBind, TmVarBind, Decl, DataDecl, CtorDecl,
    OpenTypeDecl, OpenCtorDecl, MethodDecl, InstanceDecl, LetDecl, FIELDS,
    STAR, applied, arrow, spine_head, type_spine, un_arrow,
)
from .subst import shift
from .typecheck import (
    CheckError, Diagnostic, check_decl, kind_of, look_up_names, pattern_type,
    _check, _fail,
)


@dataclass
class ElabOptions:
    overlap: str = "reject"   # or "first"
    absurd: str = "diverge"   # or "omit"
    synth_depth: int = 64
    resolve_depth: int = 32


def _under(binder, anns: list[Node], body: Node) -> Node:
    """`body` under `binder(ann, ...)` for each of `anns`, the first
    outermost: `Forall`, `TyLam`, `Lam` or `arrow`."""
    for ann in reversed(anns):
        body = binder(ann, body)
    return body


def _class_dict(name: str, n: int) -> Node:
    """The class `name` applied to its `n` parameters, the innermost last."""
    return applied(name, [TVar(n - 1 - i) for i in range(n)])


def _witness_telescope(name: str, kinds: tuple[Node, ...], fd: FundepInfo):
    """A dependency witness's type binders: the class parameters, then a
    second copy of those `fd` does not determine from. Over them: the two
    dictionary types, which agree on the determiners, and the two copies of
    the determined parameter the witness equates."""
    n = len(kinds)
    nondets = [i for i in range(n) if i not in fd.dets]
    qkinds = list(kinds) + [kinds[i] for i in nondets]
    q = len(qkinds)
    second = [i if i in fd.dets else n + nondets.index(i) for i in range(n)]
    d1 = applied(name, [TVar(q - 1 - i) for i in range(n)])
    d2 = applied(name, [TVar(q - 1 - pos) for pos in second])
    return qkinds, d1, d2, TVar(q - 1 - fd.det), TVar(q - 1 - second[fd.det])


class _Fixes:
    """The checker's elaboration hook for one term: each hole's
    dictionary, each annotation's erasure and each cast, kept as a function
    of the subterm under the path the checker names it by, in the order the
    checker asks for them. That order has every fix at a path after those
    below it, so applying them one by one never needs a path a fix has
    rewritten."""

    def __init__(self, elab: Elaborator):
        self.elab = elab
        self.fixes: list = []  # (path, fix)

    def hole(self, env: Env, goal: Node, path) -> None:
        found = self.elab.resolver(env).resolve(goal)
        self.fixes.append((path, lambda _: found))

    def erase(self, path) -> None:
        self.fixes.append((path, lambda annotated: annotated.term))

    def cast(self, env: Env, found: Node, expected: Node, path) -> None:
        co = self.elab.resolver(env).synth(found, expected)
        self.fixes.append((path, lambda n: Cast(n, co)))

    def apply(self, term: Node) -> Node:
        """`term` with every fix applied where its path leads."""
        for path, fix in self.fixes:
            term = _fix_at(term, path, fix)
        return term


def _fix_at(n: Node, path, fix) -> Node:
    """`n` with `fix` applied to its subterm at `path`."""
    if not path:
        return fix(n)
    parent, segment = path
    return _fix_at(n, parent, lambda p: type(p)(*(
        fix(getattr(p, f)) if f == segment else getattr(p, f)
        for f, _ in FIELDS[type(p)])))


class Elaborator:
    def __init__(self, env: Optional[Env] = None,
                 options: Optional[ElabOptions] = None):
        self.env = env if env is not None else prelude_env()
        self.opts = options or ElabOptions()
        self.registry = Registry()
        self.output: list[Decl] = []
        self.diags: list[Diagnostic] = []
        self.absurd_names: dict[Node, str] = {}
        self.instance_count: dict[str, int] = {}

    # ------------------------------------------------------------ plumbing

    def emit(self, decl: Decl) -> None:
        """Append a declaration; the output must typecheck as we go."""
        try:
            self.env = check_decl(self.env, decl)
        except CheckError as e:
            _fail("internal", f"generated declaration does not typecheck: "
                              f"{e.diagnostic}")
        self.output.append(decl)

    def resolver(self, env: Env) -> Resolver:
        return Resolver(env, self.registry, self.opts.overlap,
                        self.opts.synth_depth, self.opts.resolve_depth)

    def fresh_term_name(self, base: str, alt: str = "") -> str:
        if not self.env.term_name_taken(base):
            return base
        if alt and not self.env.term_name_taken(base + alt):
            return base + alt
        k = 2
        while self.env.term_name_taken(f"{base}{alt}{k}"):
            k += 1
        return f"{base}{alt}{k}"

    def _kinded(self, env: Env, types: list[Node], names: bool = True
                ) -> None:
        """Kind types the user wrote, before anything built from them is
        emitted: their names first (unless already looked up), then each
        must have kind *."""
        if names:
            look_up_names(env, types)
        for t in types:
            k = kind_of(env, t)
            if k != STAR:
                _fail("kind-mismatch", "declared type must have kind *",
                      expected=STAR, found=k)

    def _elab_term(self, env: Env, term: Node, expected: Node) -> Node:
        """`term`, a parsed surface term, checked against `expected` by the
        core rules with holes resolved and mismatches cast."""
        fixes = _Fixes(self)
        _check(env, term, expected, (), fixes)
        return fixes.apply(term)

    # ---------------------------------------------------- declarations

    def run(self, program: list[SDecl]) -> list[Diagnostic]:
        """Elaborate a whole surface program into `output`, collecting one
        diagnostic per failing declaration. With none, `env` is then the
        environment of `output` checked over the starting one."""
        issues = validate_surface(program)
        if issues:
            return issues
        for d in program:
            try:
                self.do_decl(d)
            except CheckError as e:
                # the checker's path leads through the parsed term's
                # fields, not the source text, and is left out
                self.diags.append(replace(e.diagnostic, path=()))
        return self.diags

    def do_decl(self, d: SDecl) -> None:
        {SDataDecl: self.do_data, SClassDecl: self.do_class,
         SInstanceDecl: self.do_instance, SLetDecl: self.do_let}[type(d)](d)

    def do_data(self, d: SDataDecl) -> None:
        self.emit(DataDecl(d.name, d.kind))
        for cname, t in d.ctors:
            self._kinded(self.env, [t])
            self.emit(CtorDecl(cname, t))

    def do_let(self, d: SLetDecl) -> None:
        self._kinded(self.env, [d.type])
        body = self._elab_term(self.env, d.body, d.type)
        self.emit(LetDecl(d.name, d.type, body))

    def do_class(self, c: SClassDecl) -> None:
        if c.name in self.registry.classes:
            _fail("duplicate-name", f"class {c.name!r} is already declared")
        kinds = [k for _, k in c.params]
        c_applied = _class_dict(c.name, len(kinds))

        def close(body: Node) -> Node:
            return _under(Forall, kinds, body)

        self.emit(OpenTypeDecl(c.name, c.kind))
        scope = self.env.push(*map(TyVarBind, kinds))
        info = ClassInfo(c.name, tuple(kinds))
        for mname, sigma in c.methods:
            self._kinded(scope, [sigma])
            full = close(arrow(c_applied, sigma))
            self.emit(MethodDecl(mname, full))
            info.methods[mname] = full
        for pred in c.supers:
            look_up_names(scope, [pred])
            head = spine_head(pred)
            if not isinstance(head, TCon) or head.name not in self.registry.classes:
                _fail("unknown-superclass",
                      f"superclass of {c.name!r} must be a declared class",
                      found=print_type(pred, tuple(p for p, _ in c.params)))
            self._kinded(scope, [pred], names=False)
            proj = self.fresh_term_name(
                c.name[0].lower() + c.name[1:] + head.name)
            self.emit(MethodDecl(proj, close(arrow(c_applied, pred))))
            info.supers.append((proj, pred))
        for idx, (dets, det) in enumerate(c.fundeps):
            base = "fdFwd" if idx == 0 else "fdBwd" if idx == 1 else f"fd{idx}"
            fd = FundepInfo(self.fresh_term_name(base, c.name), tuple(dets),
                            det)
            qkinds, d1, d2, lhs, rhs = _witness_telescope(c.name, kinds, fd)
            self.emit(MethodDecl(fd.name, _under(Forall, qkinds, _under(
                arrow, [d1, d2], EqTy(lhs, rhs, kinds[det])))))
            info.fundeps.append(fd)
        self.registry.classes[c.name] = info

    def do_instance(self, ins: SInstanceDecl) -> None:
        info = self.registry.classes.get(ins.class_name)
        if info is None:
            _fail("unknown-class", f"instance of undeclared class "
                                   f"{ins.class_name!r}")
        n = len(info.param_kinds)
        if len(ins.head_args) != n:
            _fail("class-arity", f"class {ins.class_name!r} takes {n} "
                                 f"parameters, instance supplies "
                                 f"{len(ins.head_args)}")
        m = len(ins.ivars)
        count = self.instance_count.get(ins.class_name, 0)
        self.instance_count[ins.class_name] = count + 1
        ctor = ins.ctor_name or self.fresh_term_name(
            f"K_{ins.class_name}_{count}")
        if self.env.term_name_taken(ctor):
            _fail("duplicate-name", f"constructor {ctor!r} is already declared")
        head, context = ins.head_args, list(ins.context)
        self._kinded(self.env.push(*[TyVarBind(STAR)] * m),
                     [applied(ins.class_name, head), *context])

        def a_var(i: int) -> Node:
            return TVar(m + n - 1 - i)

        premises = [EqTy(head[i], a_var(i), info.param_kinds[i])
                    for i in range(n)]
        cod = applied(ins.class_name, [a_var(i) for i in range(n)])
        self.emit(OpenCtorDecl(ctor, _under(
            Forall, list(info.param_kinds) + [STAR] * m,
            _under(arrow, premises + context, cod))))
        inst_info = InstanceInfo(ins.class_name, ctor, (STAR,) * m,
                                 head, ins.context)
        given = dict(ins.methods)
        for mname in given:
            if mname not in info.methods:
                _fail("unknown-method",
                      f"{mname!r} is not a method of {ins.class_name!r}")
        guards = [(_class_dict(ins.class_name, n), inst_info)]
        for mname in info.methods:
            if mname in given:
                self._method_instance(info, guards, mname, given[mname])
        for proj, pred in info.supers:
            self._super_instance(info, guards, proj, pred)
        known = self.registry.instances.setdefault(ins.class_name, [])
        everything = known + [inst_info]
        for fd in info.fundeps:
            for a in everything:
                for b in everything:
                    if a is inst_info or b is inst_info:
                        self._fd_witness(info, fd, a, b)
        known.append(inst_info)

    # -- pieces of instance elaboration

    def _method_instance(self, info: ClassInfo, guards: list, mname: str,
                         body: Node) -> None:
        method_ty = info.methods[mname]
        for _ in range(len(info.param_kinds)):
            assert isinstance(method_ty, Forall)
            method_ty = method_ty.body
        sigma = un_arrow(method_ty)[1]  # drop the dictionary arrow
        # `body` is over the instance's variables; the guard's premise and
        # context binders come inside them
        inst = guards[0][1]
        body = shift(body, len(inst.head) + len(inst.context))
        self._instance_clause(
            mname, info.param_kinds, guards,
            lambda env, k: self._elab_term(env, body, shift(sigma, k)))

    def _super_instance(self, info: ClassInfo, guards: list, proj: str,
                        pred: Node) -> None:
        self._instance_clause(
            proj, info.param_kinds, guards,
            lambda env, k: self.resolver(env).resolve(shift(pred, k)))

    def _instance_clause(self, name: str, kinds, guards, body_of) -> None:
        """Emit an instance of open function `name`: under type binders of
        `kinds`, one dictionary binder per guard, then the guards, outermost
        first. A guard is (dictionary type over `kinds`, `InstanceInfo`);
        it matches its dictionary against the instance's constructor at the
        dictionary type's arguments and opens the pattern's telescope.
        `body_of(env, k)` gives the innermost consequent, `k` binders inside
        `kinds`; if it gives None, nothing is emitted."""
        env = self.env
        for k in kinds:
            env = env.push(TyVarBind(k))
        # each binder's type is shifted once, for the binder pushed here and
        # the lambda wrapped below
        dict_tys = [shift(dict_ty, i)
                    for i, (dict_ty, _) in enumerate(guards)]
        env = env.push(*map(TmVarBind, dict_tys))
        depth = len(guards)  # binders inside `kinds`
        opened = []
        for j, (dict_ty, inst) in enumerate(guards):
            scrut_ty = shift(dict_ty, depth)
            pat = Pattern(inst.ctor_name, tuple(type_spine(scrut_ty)[1]))
            res_kinds, arg_tys, _ = pattern_type(env, pat, scrut_ty)
            arg_tys = [shift(t, i) for i, t in enumerate(arg_tys)]
            opened.append((depth - 1 - j, pat, res_kinds, arg_tys))
            for k in res_kinds:
                env = env.push(TyVarBind(k))
            env = env.push(*map(TmVarBind, arg_tys))
            depth += len(res_kinds) + len(arg_tys)
        body = body_of(env, depth)
        if body is None:
            return
        for scrut, pat, res_kinds, arg_tys in reversed(opened):
            body = _under(Lam, arg_tys, body)
            body = Guard(Var(scrut), pat, _under(TyLam, res_kinds, body))
        body = _under(Lam, dict_tys, body)
        self.emit(InstanceDecl(name, _under(TyLam, kinds, body)))

    def _fd_witness(self, info: ClassInfo, fd: FundepInfo,
                    inst1: InstanceInfo, inst2: InstanceInfo) -> None:
        qkinds, d1, d2, lhs, rhs = _witness_telescope(
            info.name, info.param_kinds, fd)
        kappa = info.param_kinds[fd.det]

        def body_of(env: Env, k: int) -> Optional[Node]:
            # the two dictionaries are the outermost binders inside qkinds
            lhs_k, rhs_k = shift(lhs, k), shift(rhs, k)
            resolver = self.resolver(env)
            if resolver.inconsistent():
                if self.opts.absurd == "omit":
                    return None
                return TyApp(TyApp(Ref(self._absurd_name(kappa)), lhs_k),
                             rhs_k)
            try:
                return resolver.synth(lhs_k, rhs_k,
                                      exclude=frozenset({k - 1, k - 2}))
            except SynthError:
                _fail("fundep-violation",
                      f"cannot witness the dependency of {info.name!r} for "
                      f"the pair ({inst1.ctor_name}, {inst2.ctor_name}): the "
                      f"guards are consistent but the determined parameters "
                      f"cannot be equated")

        self._instance_clause(
            fd.name, qkinds,
            [(d1, inst1), (d2, inst2)], body_of)

    def _absurd_name(self, kind: Node) -> str:
        if kind in self.absurd_names:
            return self.absurd_names[kind]
        suffix = "" if kind == STAR else str(len(self.absurd_names))
        name = self.fresh_term_name(f"absurdCo{suffix}")
        ty = Forall(kind, Forall(kind, EqTy(TVar(1), TVar(0), kind)))
        self.emit(MethodDecl(name, ty))
        body = TyLam(kind, TyLam(kind,
                                 TyApp(TyApp(Ref(name), TVar(1)), TVar(0))))
        self.emit(InstanceDecl(name, body))
        self.absurd_names[kind] = name
        return name


def elaborate_program(program: list[SDecl], env: Optional[Env] = None,
                      options: Optional[ElabOptions] = None,
                      ) -> tuple[list[Decl], list[Diagnostic]]:
    """Elaborate a whole surface program; diagnostics suppress output."""
    elab = Elaborator(env, options)
    diags = elab.run(program)
    return ([] if diags else elab.output), diags
