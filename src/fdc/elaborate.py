"""Translation of surface programs to the core language.

A class becomes an open type plus open functions for its methods,
superclass projections, and functional-dependency witnesses. An instance
becomes a Henry-Ford open constructor (equality premises instead of a
restricted index) plus guarded instances of each of those open functions.
Holes become resolved instance dictionaries, and type mismatches become
casts by synthesized coercions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .corpus import prelude_env
from .surface import (
    SType, STVar, STCon, STApp, SArrow, SForall, STerm, SVar, SCon, SLam,
    STyLam, SApp, STyApp, SIf, SHole, SAnnot, SDecl, SDataDecl,
    SClassDecl, SInstanceDecl, SLetDecl, stype_vars, validate_surface,
)
from .synthesis import (
    ClassInfo, FundepInfo, InstanceInfo, Registry, Resolver, SynthError,
)
from .syntax import (
    Node, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam, App, TyLam,
    TyApp, Cast, Pattern, If, Guard, Env, TyVarBind, TmVarBind, Decl,
    DataDecl, CtorDecl, OpenTypeDecl, OpenCtorDecl, MethodDecl, InstanceDecl,
    LetDecl, STAR, applied, arrow, type_spine, un_arrow, node_eq,
)
from .subst import instantiate, shift, try_unshift
from .typecheck import (
    CheckError, Diagnostic, Exactly, check_decl, infer_term, kind_of,
    pattern_type, _fail, _match_consequent,
)


@dataclass
class ElabOptions:
    overlap: str = "reject"   # or "first"
    absurd: str = "diverge"   # or "omit"
    synth_depth: int = 64
    resolve_depth: int = 32


def _foralls(kinds: list[Node], body: Node) -> Node:
    for k in reversed(kinds):
        body = Forall(k, body)
    return body


def _arrows(doms: list[Node], cod: Node) -> Node:
    for d in reversed(doms):
        cod = arrow(d, cod)
    return cod


def _tylams(kinds: list[Node], body: Node) -> Node:
    for k in reversed(kinds):
        body = TyLam(k, body)
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

    def ty(self, st: SType, scope: list) -> Node:
        match st:
            case STVar(name):
                for i, bound in enumerate(reversed(scope)):
                    if bound == name:
                        return TVar(i)
                _fail("unbound-tyvar", f"type variable {name!r} is not in scope")
            case STCon(name):
                if self.env.type_sig(name) is None:
                    _fail("unbound-con",
                          f"type constant {name!r} is not declared")
                return TCon(name)
            case STApp(f, a):
                return TApp(self.ty(f, scope), self.ty(a, scope))
            case SArrow(d, c):
                return arrow(self.ty(d, scope), self.ty(c, scope))
            case SForall(var, kind, body):
                return Forall(kind, self.ty(body, scope + [var]))
        raise TypeError(f"not a surface type: {st!r}")

    # ---------------------------------------------------------- terms

    def infer(self, env: Env, names: list, s: STerm) -> tuple[Node, Node]:
        match s:
            case SVar(name):
                for i, bound in enumerate(reversed(names)):
                    if bound == name:
                        got = infer_term(env, Var(i))
                        assert isinstance(got, Exactly)
                        return Var(i), got.type
                if env.method_sig(name) is not None:
                    return Ref(name), env.method_sig(name).type
                if env.let_sig(name) is not None:
                    return Ref(name), env.let_sig(name).type
                _fail("unbound-var", f"{name!r} is not in scope")
            case SCon(name):
                sig = env.ctor_sig(name)
                if sig is None:
                    _fail("unbound-con", f"constructor {name!r} is not declared")
                return Con(name), sig.type
            case SLam(x, ann, body):
                if ann is None:
                    _fail("annotation-required",
                          f"lambda binder {x!r} needs a type annotation")
                core_ann = self.ty(ann, names)
                bcore, bty = self.infer(env.push(TmVarBind(core_ann)),
                                        names + [x], body)
                cod = try_unshift(bty, 1)
                if cod is None:
                    _fail("internal", "body type mentions the term binder")
                return Lam(core_ann, bcore), arrow(core_ann, cod)
            case STyLam(t, k, body):
                bcore, bty = self.infer(env.push(TyVarBind(k)),
                                        names + [t], body)
                return TyLam(k, bcore), Forall(k, bty)
            case SApp(f, a):
                fc, fty = self.infer(env, names, f)
                parts = un_arrow(fty)
                if parts is None:
                    _fail("not-arrow", "applied term is not a function",
                          found=fty)
                ac = self.check(env, names, a, parts[0])
                return App(fc, ac), parts[1]
            case STyApp(f, t):
                fc, fty = self.infer(env, names, f)
                tc = self.ty(t, names)
                match fty:
                    case Forall(k, body):
                        kt = kind_of(env, tc)
                        if not node_eq(kt, k):
                            _fail("kind-mismatch",
                                  "type argument kind mismatch",
                                  expected=k, found=kt)
                        return TyApp(fc, tc), instantiate(body, tc)
                _fail("not-forall",
                      "type application of an unquantified term",
                      found=fty)
            case SHole(t):
                goal = self.ty(t, names)
                term = self._resolve(env, goal)
                return term, goal
            case SAnnot(m, t):
                tc = self.ty(t, names)
                return self.check(env, names, m, tc), tc
            case SIf(scrut, pat, cons, alt):
                return self._elab_if(env, names, scrut, pat, cons, alt)
        raise TypeError(f"not a surface term: {s!r}")

    def check(self, env: Env, names: list, s: STerm, expected: Node) -> Node:
        match s:
            case SHole(t):
                declared = self.ty(t, names)
                term = self._resolve(env, declared)
                if not node_eq(declared, expected):
                    term = self._cast(env, term, declared, expected)
                return term
            case SLam(x, ann, body) if ann is not None:
                parts = un_arrow(expected)
                core_ann = self.ty(ann, names)
                if parts is not None and node_eq(core_ann, parts[0]):
                    inner = self.check(env.push(TmVarBind(core_ann)),
                                       names + [x], body, shift(parts[1], 1))
                    return Lam(core_ann, inner)
            case STyLam(t, k, body):
                match expected:
                    case Forall(kk, ety) if node_eq(k, kk):
                        inner = self.check(env.push(TyVarBind(k)),
                                           names + [t], body, ety)
                        return TyLam(k, inner)
            case SAnnot(m, t):
                tc = self.ty(t, names)
                inner = self.check(env, names, m, tc)
                if node_eq(tc, expected):
                    return inner
                return self._cast(env, inner, tc, expected)
        core, ty = self.infer(env, names, s)
        if node_eq(ty, expected):
            return core
        return self._cast(env, core, ty, expected)

    def _cast(self, env: Env, core: Node, frm: Node, to: Node) -> Node:
        return Cast(core, self.resolver(env).synth(frm, to))

    def _resolve(self, env: Env, goal: Node) -> Node:
        return self.resolver(env).resolve(goal)

    def _elab_if(self, env, names, scrut, pat, cons, alt):
        sc, sty = self.infer(env, names, scrut)
        core_pat = Pattern(pat.head,
                           tuple(self.ty(a, names) for a in pat.type_args))
        res_kinds, arg_tys, cod = pattern_type(env, core_pat, None)
        if not node_eq(sty, cod):
            sc = self._cast(env, sc, sty, cod)
        cc, cty = self.infer(env, names, cons)
        result = _match_consequent(res_kinds, arg_tys, cty, ())
        ac = self.check(env, names, alt, result)
        return If(sc, core_pat, cc, ac), result

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
                self.diags.append(e.diagnostic)
        return self.diags

    def do_decl(self, d: SDecl) -> None:
        match d:
            case SDataDecl(_, _, _):
                self.do_data(d)
            case SClassDecl(_, _, _, _, _):
                self.do_class(d)
            case SInstanceDecl(_, _, _, _, _):
                self.do_instance(d)
            case SLetDecl(_, _, _):
                self.do_let(d)
            case _:
                raise TypeError(f"not a surface declaration: {d!r}")

    def do_data(self, d: SDataDecl) -> None:
        self.emit(DataDecl(d.name, d.kind))
        for cname, st in d.ctors:
            self.emit(CtorDecl(cname, self.ty(st, [])))

    def do_let(self, d: SLetDecl) -> None:
        core_ty = self.ty(d.type, [])
        body = self.check(self.env, [], d.body, core_ty)
        self.emit(LetDecl(d.name, core_ty, body))

    def do_class(self, c: SClassDecl) -> None:
        if c.name in self.registry.classes:
            _fail("duplicate-name", f"class {c.name!r} is already declared")
        pnames = [p for p, _ in c.params]
        kinds = [k for _, k in c.params]
        c_applied = _class_dict(c.name, len(kinds))

        def close(body: Node) -> Node:
            return _foralls(kinds, body)

        self.emit(OpenTypeDecl(c.name, c.kind))
        info = ClassInfo(c.name, tuple(kinds))
        for mname, mtype in c.methods:
            sigma = self.ty(mtype, pnames)
            full = close(arrow(c_applied, sigma))
            self.emit(MethodDecl(mname, full))
            info.methods[mname] = full
        for stype in c.supers:
            pred = self.ty(stype, pnames)
            head = pred
            while isinstance(head, TApp):
                head = head.fun
            if not isinstance(head, TCon) or head.name not in self.registry.classes:
                _fail("unknown-superclass",
                      f"superclass of {c.name!r} must be a declared class",
                      found=pred)
            proj = self.fresh_term_name(
                c.name[0].lower() + c.name[1:] + head.name)
            self.emit(MethodDecl(proj, close(arrow(c_applied, pred))))
            info.supers.append((proj, pred))
        for idx, (dets, det) in enumerate(c.fundeps):
            base = "fdFwd" if idx == 0 else "fdBwd" if idx == 1 else f"fd{idx}"
            fd = FundepInfo(self.fresh_term_name(base, c.name), tuple(dets),
                            det)
            qkinds, d1, d2, lhs, rhs = _witness_telescope(c.name, kinds, fd)
            self.emit(MethodDecl(fd.name, _foralls(
                qkinds, _arrows([d1, d2], EqTy(lhs, rhs, kinds[det])))))
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
        ivars: list[str] = []
        for a in ins.head_args:
            stype_vars(a, ivars)
        for p in ins.context:
            stype_vars(p, ivars)
        m = len(ivars)
        count = self.instance_count.get(ins.class_name, 0)
        self.instance_count[ins.class_name] = count + 1
        ctor = ins.ctor_name or self.fresh_term_name(
            f"K_{ins.class_name}_{count}")
        if self.env.term_name_taken(ctor):
            _fail("duplicate-name", f"constructor {ctor!r} is already declared")
        head_core = [self.ty(a, ivars) for a in ins.head_args]
        ctx_core = [self.ty(p, ivars) for p in ins.context]

        def a_var(i: int) -> Node:
            return TVar(m + n - 1 - i)

        premises = [EqTy(head_core[i], a_var(i), info.param_kinds[i])
                    for i in range(n)]
        cod = applied(ins.class_name, [a_var(i) for i in range(n)])
        self.emit(OpenCtorDecl(ctor, _foralls(
            list(info.param_kinds) + [STAR] * m,
            _arrows(premises + ctx_core, cod))))
        inst_info = InstanceInfo(ins.class_name, ctor, (STAR,) * m,
                                 tuple(head_core), tuple(ctx_core))
        given = dict(ins.methods)
        for mname in given:
            if mname not in info.methods:
                _fail("unknown-method",
                      f"{mname!r} is not a method of {ins.class_name!r}")
        guards = [(_class_dict(ins.class_name, n), inst_info, ivars)]
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
                         surface_body) -> None:
        method_ty = info.methods[mname]
        for _ in range(len(info.param_kinds)):
            assert isinstance(method_ty, Forall)
            method_ty = method_ty.body
        sigma = un_arrow(method_ty)[1]  # drop the dictionary arrow
        self._instance_clause(
            mname, info.param_kinds, guards,
            lambda env, names, k: self.check(env, names, surface_body,
                                             shift(sigma, k)))

    def _super_instance(self, info: ClassInfo, guards: list, proj: str,
                        pred: Node) -> None:
        self._instance_clause(
            proj, info.param_kinds, guards,
            lambda env, names, k: self._resolve(env, shift(pred, k)))

    def _instance_clause(self, name: str, kinds, guards, body_of) -> None:
        """Emit an instance of open function `name`: under type binders of
        `kinds`, one dictionary binder per guard, then the guards, outermost
        first. A guard is (dictionary type over `kinds`, `InstanceInfo`,
        instance-variable names); it matches its dictionary against the
        instance's constructor at the dictionary type's arguments and opens
        the pattern's telescope. `body_of(env, names, k)` gives the innermost
        consequent, `k` binders inside `kinds`; if it gives None, nothing is
        emitted."""
        env = self.env
        for k in kinds:
            env = env.push(TyVarBind(k))
        # each binder's type is shifted once, for the binder pushed here and
        # the lambda wrapped below
        dict_tys = [shift(dict_ty, i)
                    for i, (dict_ty, _, _) in enumerate(guards)]
        env = env.push(*map(TmVarBind, dict_tys))
        names = [None] * (len(kinds) + len(guards))
        depth = len(guards)  # binders inside `kinds`
        opened = []
        for j, (dict_ty, inst, ivars) in enumerate(guards):
            scrut_ty = shift(dict_ty, depth)
            pat = Pattern(inst.ctor_name, tuple(type_spine(scrut_ty)[1]))
            res_kinds, arg_tys, _ = pattern_type(env, pat, scrut_ty)
            arg_tys = [shift(t, i) for i, t in enumerate(arg_tys)]
            opened.append((depth - 1 - j, pat, res_kinds, arg_tys))
            for k in res_kinds:
                env = env.push(TyVarBind(k))
            env = env.push(*map(TmVarBind, arg_tys))
            names += list(ivars) + [None] * len(arg_tys)
            depth += len(res_kinds) + len(arg_tys)
        body = body_of(env, names, depth)
        if body is None:
            return
        for scrut, pat, res_kinds, arg_tys in reversed(opened):
            for t in reversed(arg_tys):
                body = Lam(t, body)
            body = Guard(Var(scrut), pat, _tylams(res_kinds, body))
        for t in reversed(dict_tys):
            body = Lam(t, body)
        self.emit(InstanceDecl(name, _tylams(kinds, body)))

    def _fd_witness(self, info: ClassInfo, fd: FundepInfo,
                    inst1: InstanceInfo, inst2: InstanceInfo) -> None:
        qkinds, d1, d2, lhs, rhs = _witness_telescope(
            info.name, info.param_kinds, fd)
        kappa = info.param_kinds[fd.det]

        def body_of(env: Env, names: list, k: int) -> Optional[Node]:
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
            [(d1, inst1, [None] * len(inst1.var_kinds)),
             (d2, inst2, [None] * len(inst2.var_kinds))], body_of)

    def _absurd_name(self, kind: Node) -> str:
        if kind in self.absurd_names:
            return self.absurd_names[kind]
        suffix = "" if node_eq(kind, STAR) else str(len(self.absurd_names))
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
