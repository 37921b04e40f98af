#!/usr/bin/env python3
"""Fail on public surface that no product caller reaches or sets.

**Names.**  For every public ``def`` / ``class`` under ``src/repro``,
count identifier occurrences in ``src/``, ``benchmarks/``, ``examples/``
and ``tools/`` outside its own definition, import statements,
``__all__``, comments and docstrings (none of which is a ``Name`` /
``Attribute`` / keyword node of the ``ast``).  Name-based on purpose: a
name shared by a live and a dead definition is not caught.

**Parameters.**  Every defaulted parameter of a public function, method
or constructor (``__init__``) under ``src/repro`` needs a call in the
scanned trees that passes it.  A call is resolved by its callee's name
(``f(...)``, ``obj.f(...)``, ``Class(...)`` — which reaches the nearest
``__init__`` up the class's bases —, ``cls(...)`` and
``super().__init__(...)``), and a call through a registry (a module-level
dict literal of functions or classes, such as ``SYSTEMS[name](...)``,
also through a local alias ``fn = KERNELS[k]``) resolves to the value of
a constant key, else to every value it holds.  Such a call may sit under
a branch that picks the values it fits (``if k in SOURCE_KERNELS:
fn(view, source)``), which the gate cannot follow: it passes a position
or keyword only if every value it may select has that parameter, and
nothing when a value is not one of our definitions.  The call passes a
parameter by keyword, by position (a
``*args`` passes every position from its own on), or through ``**``: a
dict literal passes its keys; the enclosing function's own ``**kwargs``
passes whatever keywords that function's callers hand it beyond its named
parameters (followed through further ``**kwargs``); any other ``**``
expression (an argparse namespace) passes every parameter.  An argument
that hands on one of the caller's own parameters unchanged (a bare name
the caller never rebinds), whatever the callee, delegates: it passes the
callee's parameter only where the caller's own is set — by a call
that passes it, by a further delegation, or, for a required parameter
of a function no scanned call reaches (an entry point), by its user.  So
``def compact(self, t=0): shard.compact(t)`` sets neither ``t`` when
nothing passes the outer one.

**Fields.**  A field of a ``*Config`` / ``*Policy`` dataclass counts as
set only by a keyword or position at a call of its own class (followed
through ``**kwargs`` as above, but an opaque ``**`` sets no field), a
keyword of ``dataclasses.replace``, an ``obj.field = ...`` store or a
``"field": ...`` key of a dict literal.

``tests/`` is not a product caller.  A name, parameter or field nothing
in the scanned trees reaches must be deleted (a parameter nobody sets is
a constant) or listed in ``tools/reachability_allow.txt`` with a reason —
``name``, ``func(param)``, ``Class.method(param)``, ``Class(param)`` for
a constructor, ``Class.field`` — and a listed entry that gains a caller
or loses its definition fails too, so the list cannot rot.

Usage: python tools/check_reachability.py [ROOT]   (ROOT = a checkout)
"""

import ast
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCANNED = ("src", "benchmarks", "examples", "tools")
ALL = "*"  # a ``**`` whose keys cannot be read: every parameter


@dataclass
class Def:
    """One callable: its parameters (``self`` / ``cls`` stripped)."""

    key: str  #: report key: ``f``, ``Class.m``, ``Class`` (constructor)
    where: str
    params: list  #: positional names in order, then keyword-only
    n_pos: int
    defaulted: list
    kwargs: str | None  #: name of its ``**kwargs``, if any
    unbound_shift: bool  #: an instance method: ``Class.m(obj, ...)`` shifts by one
    config: bool = False
    checked: bool = False  #: public surface under src/repro
    calls: list = field(default_factory=list)


@dataclass
class Call:
    keywords: set
    n_pos: int
    star_from: int | None  #: index of the first ``*args``
    spread: list  #: ``**`` sources: a key set, ALL, or a Def (its ``**kwargs``)
    forwarded: dict  #: argument position / keyword -> (caller Def, its parameter) it hands on
    shift: int = 0


class Scanner(ast.NodeVisitor):
    """First pass: definitions, classes and registries of one file."""

    def __init__(self, path: Path, product: bool, index: "Index"):
        self.path, self.product, self.ix = path, product, index
        self.stack: list = []  # enclosing ClassDef / FunctionDef nodes

    def visit_ClassDef(self, node):
        ix = self.ix
        ix.bases.setdefault(node.name, [b.id if isinstance(b, ast.Name) else
                                        getattr(b, "attr", "") for b in node.bases])
        top = not self.stack
        public = self.product and top and not node.name.startswith("_")
        if self.product and not node.name.startswith("_"):
            ix.defined.setdefault(node.name, f"{self.path}:{node.lineno}")
        if node.name.endswith(("Config", "Policy")) and top:
            anns = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            names = [s.target.id for s in anns]
            d = Def(node.name, f"{self.path}:{node.lineno}", names, len(names), [],
                    None, False, config=True, checked=public)
            ix.ctor.setdefault(node.name, d)
            if public:
                ix.fields.update({f"{node.name}.{s.target.id}": (d, s.target.id,
                                                                 f"{self.path}:{s.lineno}")
                                  for s in anns})
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        ix = self.ix
        owner = self.stack[-1] if self.stack else None
        in_class = isinstance(owner, ast.ClassDef)
        if self.product and not node.name.startswith("_"):
            ix.defined.setdefault(node.name, f"{self.path}:{node.lineno}")
        deco = {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}
        a = node.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        defaults = pos[len(pos) - len(a.defaults):] if a.defaults else []
        defaults += [p.arg for p, dv in zip(a.kwonlyargs, a.kw_defaults) if dv is not None]
        method = in_class and "staticmethod" not in deco
        if method:
            pos = pos[1:]
        ctor = in_class and node.name == "__init__"
        key = owner.name if ctor else f"{owner.name}.{node.name}" if in_class else node.name
        public = self.product and (
            (not self.stack and not node.name.startswith("_"))
            or (in_class and len(self.stack) == 1 and not owner.name.startswith("_")
                and (ctor or not node.name.startswith("_"))))
        d = Def(key, f"{self.path}:{node.lineno}", pos + [p.arg for p in a.kwonlyargs],
                len(pos), defaults, a.kwarg.arg if a.kwarg else None,
                method and "classmethod" not in deco, checked=public)
        ix.defs[node] = d
        if ctor:
            ix.ctor.setdefault(owner.name, d)
        else:
            ix.by_name[node.name].append(d)
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        if not self.stack and isinstance(node.value, ast.Dict) and node.value.values and all(
                isinstance(v, (ast.Name, ast.Attribute)) for v in node.value.values):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.ix.registries[t.id] = {
                        getattr(k, "value", i): v.id if isinstance(v, ast.Name) else v.attr
                        for i, (k, v) in enumerate(zip(node.value.keys, node.value.values))}
        self.generic_visit(node)


class Index:
    def __init__(self):
        self.defined: dict = {}  # public name -> where
        self.defs: dict = {}  # FunctionDef node -> Def
        self.by_name = defaultdict(list)  # function / method name -> [Def]
        self.ctor: dict = {}  # class name -> its __init__ Def / config Def
        self.bases: dict = {}  # class name -> base names
        self.registries: dict = {}  # module-level dict of callables -> {key: value name}
        self.fields: dict = {}  # "Class.field" -> (config Def, field, where)
        self.traffic = Counter()
        self.stores = Counter()  # attribute stores and dict-literal keys, by name
        self.replaced = set()  # keywords of dataclasses.replace calls
        self.replace_spread: list = []

    def constructor(self, cls: str, seen=()):
        """The ``__init__`` a call of class ``cls`` runs, if it is ours."""
        if cls in self.ctor:
            return self.ctor[cls]
        for b in self.bases.get(cls, ()):
            if b not in seen:
                d = self.constructor(b, seen + (cls,))
                if d:
                    return d
        return None

    def resolve(self, name: str) -> list:
        if name in self.bases:
            d = self.constructor(name)
            return [d] if d else []
        return self.by_name.get(name, [])


class CallCollector(ast.NodeVisitor):
    """Second pass: every call, its callee resolved to our definitions."""

    def __init__(self, index: Index):
        self.ix = index
        self.classes: list = []
        self.funcs: list = []  # (Def, names its body rebinds) of the enclosing defs
        self.aliases: dict = {}  # local name bound to a registry lookup

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        rebound = {n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        self.funcs.append((self.ix.defs[node], rebound))
        self.generic_visit(node)
        self.funcs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def selected(self, v) -> list | None:
        """The value names a registry lookup ``v`` may select, if it is one."""
        if not (isinstance(v, ast.Subscript) and isinstance(v.value, ast.Name)
                and v.value.id in self.ix.registries):
            return None
        values = self.ix.registries[v.value.id]
        key = getattr(v.slice, "value", None)
        return [values[key]] if isinstance(v.slice, ast.Constant) and key in values else list(
            values.values())

    def visit_Assign(self, node):
        names = self.selected(node.value)
        if names is not None:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.aliases[t.id] = names
        self.generic_visit(node)

    def visit_Name(self, node):
        self.ix.traffic[node.id] += 1

    def visit_Attribute(self, node):
        self.ix.traffic[node.attr] += 1
        if isinstance(node.ctx, ast.Store):
            self.ix.stores[node.attr] += 1
        self.generic_visit(node)

    def visit_keyword(self, node):
        if node.arg:
            self.ix.traffic[node.arg] += 1
        self.generic_visit(node)

    def visit_Dict(self, node):
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.ix.stores[key.value] += 1
        self.generic_visit(node)

    def callees(self, f) -> tuple:
        """(names the callee may be spelled as, positional shift, whether
        they are a registry's selectable values)."""
        ix = self.ix
        if isinstance(f, ast.Name):
            if f.id == "cls" and self.classes:
                return [self.classes[-1]], 0, False
            if f.id in self.aliases:
                return self.aliases[f.id], 0, True
            return [f.id], 0, False
        if isinstance(f, ast.Attribute):
            v = f.value
            if (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                    and v.func.id == "super" and f.attr == "__init__" and self.classes):
                return ix.bases.get(self.classes[-1], []), 0, False
            if f.attr == "__init__":
                return [], 0, False
            shift = int(isinstance(v, ast.Name) and v.id in ix.bases)
            return [f.attr], shift, False
        names = self.selected(f)
        if names is not None:
            return names, 0, True
        if (isinstance(f, ast.Call) and isinstance(f.func, ast.Name)
                and f.func.id == "type" and self.classes):
            return [self.classes[-1]], 0, False
        return [], 0, False

    def visit_Call(self, node):
        pos = node.args
        star = next((i for i, a in enumerate(pos) if isinstance(a, ast.Starred)), None)
        spread = []
        for k in node.keywords:
            if k.arg is not None:
                continue
            v = k.value
            if isinstance(v, ast.Dict):
                spread.append({c.value for c in v.keys
                               if isinstance(c, ast.Constant) and isinstance(c.value, str)})
            elif (isinstance(v, ast.Name) and self.funcs
                  and v.id == self.funcs[-1][0].kwargs):
                spread.append(self.funcs[-1][0])
            else:
                spread.append(ALL)
        names, shift, registry = self.callees(node.func)
        # ``def compact(self, thread_id=0): sh.compact(thread_id)`` delegates:
        # an argument that is one of the caller's own parameters, unchanged,
        # is set only where the caller's parameter is
        forwarded = {}
        if self.funcs:
            caller, rebound = self.funcs[-1]
            own = set(caller.params) - rebound
            slots = list(enumerate(pos)) + [(k.arg, k.value) for k in node.keywords if k.arg]
            forwarded = {slot: (caller, a.id) for slot, a in slots
                         if isinstance(a, ast.Name) and a.id in own}
        call = Call({k.arg for k in node.keywords if k.arg}, len(pos), star, spread, forwarded)
        if names == ["replace"]:
            self.ix.replaced |= call.keywords
            self.ix.replace_spread += [s for s in spread if s is not ALL]
        targets = [self.ix.resolve(name) for name in names]
        if registry and len(names) > 1:
            # a branch may pick the values this call fits: pass only what
            # every selectable value takes, and nothing if one is not ours
            fits = [ds[0] for ds in targets] if all(len(ds) == 1 for ds in targets) else []
            n = min([len(pos) if star is None else star] + [d.n_pos for d in fits])
            kw = {k for k in call.keywords if all(k in d.params for d in fits)}
            call = Call(kw, n, None, spread, forwarded) if fits else Call(set(), 0, None, [], {})
        for ds in targets:
            for d in ds:
                d.calls.append(Call(call.keywords, call.n_pos, call.star_from, call.spread,
                                    forwarded, shift if d.unbound_shift else 0))
        self.generic_visit(node)


def through(d: Def, seen: set) -> set:
    """Keywords ``d``'s callers may hand its ``**kwargs`` (ALL = unknown)."""
    if id(d) in seen:
        return set()
    seen.add(id(d))
    out = set()
    for c in d.calls:
        out |= c.keywords - set(d.params)
        for s in c.spread:
            out |= spread_keys(s, seen)
    return out


def spread_keys(s, seen: set) -> set:
    if s is ALL:
        return {ALL}
    if isinstance(s, Def):
        return through(s, seen)
    return set(s)


def passed(d: Def, holds) -> set:
    """Parameters of ``d`` some call passes; ``holds((caller, param))``
    says whether a delegated argument is set."""
    out = set()
    for c in d.calls:
        def sets(slot) -> bool:
            src = c.forwarded.get(slot)
            return src is None or holds(src)

        out |= {k for k in c.keywords if sets(k)}
        n = c.n_pos - c.shift
        if c.star_from is not None:
            n = d.n_pos
        out |= {p for j, p in enumerate(d.params[:max(0, min(n, d.n_pos))])
                if sets(j + c.shift)}
        for s in c.spread:
            keys = spread_keys(s, set())
            if ALL in keys and not d.config:
                return set(d.params)
            out |= keys
    return out


def settle(defs: list) -> dict:
    """``id(Def)`` -> its parameters some call sets, delegations followed
    to a fixpoint (an entry point's required parameter holds its user's
    value)."""
    got = {id(d): set() for d in defs}

    def holds(src) -> bool:
        caller, p = src
        return (p not in caller.defaulted and not caller.calls) or p in got[id(caller)]

    changed = True
    while changed:
        changed = False
        for d in defs:
            new = passed(d, holds) - got[id(d)]
            if new:
                got[id(d)] |= new
                changed = True
    return got


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else HERE.parent
    allow = {}
    for line in (HERE / "reachability_allow.txt").read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            allow[name.strip()] = reason.strip()
    ix = Index()
    trees = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            Scanner(path, "src/repro" in path.as_posix(), ix).visit(tree)
            trees.append(tree)
    for tree in trees:
        CallCollector(ix).visit(tree)

    reached = {n: ix.traffic[n] for n in ix.defined}
    defined = dict(ix.defined)
    params = {}
    defs = list({id(d): d for d in [*ix.defs.values(), *ix.ctor.values()]}.values())
    set_by = settle(defs)
    for d in defs:
        if d.checked and d.defaulted:
            for p in d.defaulted:
                params[f"{d.key}({p})"] = d.where
                reached[f"{d.key}({p})"] = int(p in set_by[id(d)])
    replaced = set(ix.replaced)
    for s in ix.replace_spread:
        replaced |= spread_keys(s, set())
    for key, (d, f, where) in ix.fields.items():
        reached[key] = (f in set_by[id(d)]) + (f in replaced) + ix.stores[f]
        defined[key] = where
    defined.update(params)

    dead = sorted(n for n in defined if not reached[n] and n not in allow)
    stale = sorted(n for n in allow if n not in defined or reached[n])
    for n in dead:
        what = ("never set" if n in ix.fields else "never passed" if n in params
                else "unreached")
        print(f"{what}: {n}  ({defined[n]}) — delete it, or list it with a reason")
    for n in stale:
        why = "no longer defined" if n not in defined else "now reached"
        print(f"stale allow-list entry: {n} — {why}")
    for n in sorted(allow):
        if not allow[n]:
            print(f"allow-list entry without a reason: {n}")
    print(f"{len(ix.defined)} public names; {len(ix.fields) + len(params)} settable values "
          f"({len(ix.fields)} option fields, {len(params)} defaulted parameters); "
          f"{len(allow)} allowed, {len(dead)} unreached, {len(stale)} stale")
    return 1 if dead or stale or not all(allow.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
