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
from .printer import print_node
from .surface import (
    SType, STVar, STCon, STApp, SArrow, SForall, STerm, SVar, SCon, SLam,
    STyLam, SApp, STyApp, SIf, SHole, SAnnot, SDecl, SDataDecl,
    SClassDecl, SInstanceDecl, SLetDecl, stype_vars, validate_surface,
)
from .synthesis import (
    ClassInfo, FundepInfo, InstanceInfo, Registry, Resolver, SynthError,
    hyps_inconsistent,
)
from .syntax import (
    Node, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam, App, TyLam,
    TyApp, Cast, Pattern, If, Guard, Env, TyVarBind, TmVarBind, Decl,
    DataDecl, CtorDecl, OpenTypeDecl, OpenCtorDecl, MethodDecl, InstanceDecl,
    LetDecl, STAR, applied, arrow, un_arrow, node_eq,
)
from .subst import instantiate, shift, try_unshift
from .typecheck import (
    CheckError, Diagnostic, Exactly, check_decl, infer_term, kind_of,
    pattern_type, _match_consequent,
)


@dataclass
class ElabOptions:
    overlap: str = "reject"   # or "first"
    absurd: str = "diverge"   # or "omit"
    synth_depth: int = 64
    resolve_depth: int = 32


class ElabError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _err(code: str, message: str, **kw):
    raise ElabError(Diagnostic(code, message, **kw))


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
            raise ElabError(Diagnostic(
                "internal", f"generated declaration does not typecheck: "
                            f"{e.diagnostic}"))
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
                _err("unbound-tyvar", f"type variable {name!r} is not in scope")
            case STCon(name):
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
                _err("unbound-var", f"{name!r} is not in scope")
            case SCon(name):
                sig = env.ctor_sig(name)
                if sig is None:
                    _err("unbound-con", f"constructor {name!r} is not declared")
                return Con(name), sig.type
            case SLam(x, ann, body):
                if ann is None:
                    _err("annotation-required",
                         f"lambda binder {x!r} needs a type annotation")
                core_ann = self.ty(ann, names)
                bcore, bty = self.infer(env.push(TmVarBind(core_ann)),
                                        names + [x], body)
                cod = try_unshift(bty, 1)
                if cod is None:
                    _err("internal", "body type mentions the term binder")
                return Lam(core_ann, bcore), arrow(core_ann, cod)
            case STyLam(t, k, body):
                bcore, bty = self.infer(env.push(TyVarBind(k)),
                                        names + [t], body)
                return TyLam(k, bcore), Forall(k, bty)
            case SApp(f, a):
                fc, fty = self.infer(env, names, f)
                parts = un_arrow(fty)
                if parts is None:
                    _err("not-arrow", "applied term is not a function",
                         found=print_node(fty))
                ac = self.check(env, names, a, parts[0])
                return App(fc, ac), parts[1]
            case STyApp(f, t):
                fc, fty = self.infer(env, names, f)
                tc = self.ty(t, names)
                match fty:
                    case Forall(k, body):
                        kt = kind_of(env, tc)
                        if not node_eq(kt, k):
                            _err("kind-mismatch",
                                 "type argument kind mismatch",
                                 expected=print_node(k), found=print_node(kt))
                        return TyApp(fc, tc), instantiate(body, tc)
                _err("not-forall",
                     "type application of an unquantified term",
                     found=print_node(fty))
            case SHole(t):
                goal = self.ty(t, names)
                term = self._resolve(env, names, goal)
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
                term = self._resolve(env, names, declared)
                if not node_eq(declared, expected):
                    term = self._cast(env, names, term, declared, expected)
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
                return self._cast(env, names, inner, tc, expected)
        core, ty = self.infer(env, names, s)
        if node_eq(ty, expected):
            return core
        return self._cast(env, names, core, ty, expected)

    def _cast(self, env: Env, names: list, core: Node, frm: Node,
              to: Node) -> Node:
        try:
            eta = self.resolver(env).synth(frm, to)
        except SynthError as e:
            raise ElabError(e.diagnostic)
        return Cast(core, eta)

    def _resolve(self, env: Env, names: list, goal: Node) -> Node:
        try:
            return self.resolver(env).resolve(goal)
        except SynthError as e:
            raise ElabError(e.diagnostic)

    def _elab_if(self, env, names, scrut, pat, cons, alt):
        sc, sty = self.infer(env, names, scrut)
        core_pat = Pattern(pat.head,
                           tuple(self.ty(a, names) for a in pat.type_args))
        try:
            res_kinds, arg_tys, cod = pattern_type(env, core_pat, None)
        except CheckError as e:
            raise ElabError(e.diagnostic)
        if not node_eq(sty, cod):
            sc = self._cast(env, names, sc, sty, cod)
        cc, cty = self.infer(env, names, cons)
        try:
            result = _match_consequent(env, res_kinds, arg_tys, cty, ())
        except CheckError as e:
            raise ElabError(e.diagnostic)
        ac = self.check(env, names, alt, result)
        return If(sc, core_pat, cc, ac), result

    # ---------------------------------------------------- declarations

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
            _err("duplicate-name", f"class {c.name!r} is already declared")
        pnames = [p for p, _ in c.params]
        kinds = [k for _, k in c.params]
        n = len(c.params)
        c_applied = applied(c.name, [TVar(n - 1 - i) for i in range(n)])

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
                _err("unknown-superclass",
                     f"superclass of {c.name!r} must be a declared class",
                     found=print_node(pred))
            proj = self.fresh_term_name(
                c.name[0].lower() + c.name[1:] + head.name)
            self.emit(MethodDecl(proj, close(arrow(c_applied, pred))))
            info.supers.append((proj, pred))
        for idx, (dets, det) in enumerate(c.fundeps):
            base = "fdFwd" if idx == 0 else "fdBwd" if idx == 1 else f"fd{idx}"
            wname = self.fresh_term_name(base, c.name)
            nondets = [i for i in range(n) if i not in dets]
            q = n + len(nondets)
            qkinds = kinds + [kinds[i] for i in nondets]

            def qvar(pos: int) -> Node:
                return TVar(q - 1 - pos)

            d1 = applied(c.name, [qvar(i) for i in range(n)])
            d2 = applied(c.name, [
                qvar(i) if i in dets else qvar(n + nondets.index(i))
                for i in range(n)])
            eq = EqTy(qvar(det), qvar(n + nondets.index(det)), kinds[det])
            self.emit(MethodDecl(wname, _foralls(qkinds,
                                                 _arrows([d1, d2], eq))))
            info.fundeps.append(FundepInfo(wname, tuple(dets), det))
        self.registry.classes[c.name] = info

    def do_instance(self, ins: SInstanceDecl) -> None:
        info = self.registry.classes.get(ins.class_name)
        if info is None:
            _err("unknown-class", f"instance of undeclared class "
                                  f"{ins.class_name!r}")
        n = len(info.param_kinds)
        if len(ins.head_args) != n:
            _err("class-arity", f"class {ins.class_name!r} takes {n} "
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
            _err("duplicate-name", f"constructor {ctor!r} is already declared")
        head_core = [self.ty(a, ivars) for a in ins.head_args]
        ctx_core = [self.ty(p, ivars) for p in ins.context]

        def a_var(i: int) -> Node:
            return TVar(m + n - 1 - i)

        premises = [EqTy(head_core[i], a_var(i), info.param_kinds[i])
                    for i in range(n)]
        cod = applied(ins.class_name, [a_var(i) for i in range(n)])
        ctor_type = _foralls(list(info.param_kinds) + [STAR] * m,
                             _arrows(premises + ctx_core, cod))
        self.emit(OpenCtorDecl(ctor, ctor_type))
        inst_info = InstanceInfo(ins.class_name, ctor, (STAR,) * m,
                                 tuple(head_core), tuple(ctx_core), ctor_type)
        given = dict(ins.methods)
        for mname in given:
            if mname not in info.methods:
                _err("unknown-method",
                     f"{mname!r} is not a method of {ins.class_name!r}")
        for mname in info.methods:
            if mname in given:
                self._method_instance(info, inst_info, ivars, mname,
                                      given[mname])
        for proj, pred in info.supers:
            self._super_instance(info, inst_info, ivars, proj, pred)
        known = self.registry.instances.setdefault(ins.class_name, [])
        everything = known + [inst_info]
        for fd in info.fundeps:
            for a in everything:
                for b in everything:
                    if a is inst_info or b is inst_info:
                        self._fd_witness(info, fd, a, b)
        known.append(inst_info)

    # -- pieces of instance elaboration

    def _guard_skeleton(self, env: Env, scrut_index: int, ctor: str,
                        pat_args: list[Node]):
        """pattern_type bookkeeping for a guard on a dictionary binder."""
        pat = Pattern(ctor, tuple(pat_args))
        got = infer_term(env, Var(scrut_index))
        assert isinstance(got, Exactly)
        res_kinds, arg_tys, _ = pattern_type(env, pat, got.type)
        return pat, res_kinds, arg_tys

    def _extend_with_pattern(self, env: Env, res_kinds: list[Node],
                             arg_tys: list[Node]) -> Env:
        for k in res_kinds:
            env = env.push(TyVarBind(k))
        for i, t in enumerate(arg_tys):
            env = env.push(TmVarBind(shift(t, i)))
        return env

    def _wrap_consequent(self, res_kinds: list[Node], arg_tys: list[Node],
                         body: Node) -> Node:
        for i in reversed(range(len(arg_tys))):
            body = Lam(shift(arg_tys[i], i), body)
        return _tylams(res_kinds, body)

    def _method_instance(self, info: ClassInfo, inst: InstanceInfo,
                         ivars: list, mname: str, surface_body) -> None:
        method_ty = info.methods[mname]
        for _ in range(len(info.param_kinds)):
            assert isinstance(method_ty, Forall)
            method_ty = method_ty.body
        sigma = un_arrow(method_ty)[1]  # drop the dictionary arrow
        self._instance_clause(
            info, inst, ivars, mname,
            lambda env, names, k: self.check(env, names, surface_body,
                                             shift(sigma, k)))

    def _super_instance(self, info: ClassInfo, inst: InstanceInfo,
                        ivars: list, proj: str, pred: Node) -> None:
        self._instance_clause(
            info, inst, ivars, proj,
            lambda env, names, k: self._resolve(env, names, shift(pred, k)))

    def _instance_clause(self, info: ClassInfo, inst: InstanceInfo,
                         ivars: list, name: str, body_of) -> None:
        """Emit the instance of open function `name` for `inst`: under the
        class parameters and a dictionary binder, a guard on the dictionary
        for `inst`'s constructor. `body_of(env, names, k)` gives the guard's
        consequent in the scope the guard opens, `k` binders inside the
        class parameters."""
        n = len(info.param_kinds)
        env = self.env
        for k in info.param_kinds:
            env = env.push(TyVarBind(k))
        c_applied = applied(info.name, [TVar(n - 1 - i) for i in range(n)])
        env = env.push(TmVarBind(c_applied))
        pat_args = [TVar(n - 1 - i + 1) for i in range(n)]
        pat, res_kinds, arg_tys = self._guard_skeleton(env, 0, inst.ctor_name,
                                                       pat_args)
        env3 = self._extend_with_pattern(env, res_kinds, arg_tys)
        names3 = [None] * (n + 1) + list(ivars) + [None] * len(arg_tys)
        body = body_of(env3, names3, 1 + len(res_kinds) + len(arg_tys))
        cons = self._wrap_consequent(res_kinds, arg_tys, body)
        term = _tylams(list(info.param_kinds),
                       Lam(c_applied, Guard(Var(0), pat, cons)))
        self.emit(InstanceDecl(name, term))

    def _fd_witness(self, info: ClassInfo, fd: FundepInfo,
                    inst1: InstanceInfo, inst2: InstanceInfo) -> None:
        n = len(info.param_kinds)
        nondets = [i for i in range(n) if i not in fd.dets]
        q = n + len(nondets)
        qkinds = list(info.param_kinds) + [info.param_kinds[i]
                                           for i in nondets]

        def qvar(pos: int, extra: int) -> Node:
            return TVar(q - 1 - pos + extra)

        d1_ty = applied(info.name, [qvar(i, 0) for i in range(n)])
        d2_ty = applied(info.name, [
            qvar(i, 0) if i in fd.dets else qvar(n + nondets.index(i), 0)
            for i in range(n)])
        env = self.env
        for k in qkinds:
            env = env.push(TyVarBind(k))
        env = env.push(TmVarBind(d1_ty))
        env = env.push(TmVarBind(shift(d2_ty, 1)))
        pat1_args = [qvar(i, 2) for i in range(n)]
        pat1, res1, args1 = self._guard_skeleton(env, 1, inst1.ctor_name,
                                                 pat1_args)
        len1 = len(res1) + len(args1)
        env4 = self._extend_with_pattern(env, res1, args1)
        pat2_args = [
            qvar(i, 2 + len1) if i in fd.dets
            else qvar(n + nondets.index(i), 2 + len1)
            for i in range(n)]
        pat2, res2, args2 = self._guard_skeleton(env4, len1, inst2.ctor_name,
                                                 pat2_args)
        len2 = len(res2) + len(args2)
        env5 = self._extend_with_pattern(env4, res2, args2)
        offset = 2 + len1 + len2
        lhs = qvar(fd.det, offset)
        rhs = qvar(n + nondets.index(fd.det), offset)
        kappa = info.param_kinds[fd.det]
        resolver = self.resolver(env5)
        hyp_pairs = [(l, r) for l, r, _ in resolver.hypotheses(frozenset())]
        d1_index = 1 + len1 + len2
        d2_index = len1 + len2
        if hyps_inconsistent(hyp_pairs):
            if self.opts.absurd == "omit":
                return
            body: Node = TyApp(TyApp(Ref(self._absurd_name(kappa)), lhs), rhs)
        else:
            try:
                body = resolver.synth(lhs, rhs,
                                      exclude=frozenset({d1_index, d2_index}))
            except SynthError:
                _err("fundep-violation",
                     f"cannot witness the dependency of {info.name!r} for "
                     f"the pair ({inst1.ctor_name}, {inst2.ctor_name}): the "
                     f"guards are consistent but the determined parameters "
                     f"cannot be equated")
        cons2 = self._wrap_consequent(res2, args2, body)
        guard2 = Guard(Var(len1), pat2, cons2)
        cons1 = self._wrap_consequent(res1, args1, guard2)
        guard1 = Guard(Var(1), pat1, cons1)
        term = _tylams(qkinds, Lam(d1_ty, Lam(shift(d2_ty, 1), guard1)))
        self.emit(InstanceDecl(fd.name, term))

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
    issues = validate_surface(program)
    if issues:
        return [], [Diagnostic(i.code, i.message) for i in issues]
    elab = Elaborator(env, options)
    for d in program:
        try:
            elab.do_decl(d)
        except ElabError as e:
            elab.diags.append(e.diagnostic)
        except SynthError as e:
            elab.diags.append(e.diagnostic)
        except CheckError as e:
            elab.diags.append(e.diagnostic)
    if elab.diags:
        return [], elab.diags
    return elab.output, []
