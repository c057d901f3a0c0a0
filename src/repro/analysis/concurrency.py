"""Concurrency & process-safety rules (VH6xx) for the sharded fabric.

PR 9 moved serving across forked worker processes: sessions live behind
:class:`~repro.serve.fabric.ServingFabric`, CSI packets ride
:class:`~repro.serve.shm.SharedCsiRing` shared-memory segments, and
control traffic crosses pickle boundaries on duplex pipes.  Correctness
now depends on invariants no per-module rule can see — what a forked
worker inherits, which shared-memory segments get released on *every*
exit path (including ``kill_worker`` failover), what may legally cross
a pickle boundary, and whether any pre-fork RNG stream leaks into more
than one worker.  This pass checks them over the PR-5
:class:`~repro.analysis.callgraph.ProjectContext` call graph.

The pass first finds **worker entrypoints** — functions handed to a
``Process(target=...)`` call, plus anything named ``*worker_main`` —
and closes reachability over the call graph, extended with a light
class closure the plain graph cannot see: a constructor call reaches
the class's methods, ``self.m()`` reaches the same class, and
``self.attr.m()`` follows one level of ``self.attr = ClassName(...)``
attribute typing.  On top of that reachable set:

* **VH601** — code a forked worker can reach *mutates* module-level
  mutable state (dicts/lists/sets bound at module scope).  Each worker
  holds a private fork-time copy, so the mutation silently diverges
  between processes (and from the parent).  Reads are fine;
  re-initialising post-fork (``global X`` + a fresh assignment) is the
  sanctioned pattern and silences the rule for that function.
* **VH602** — a ``SharedMemory`` / ``SharedCsiRing`` acquisition whose
  handle never reaches a ``close()``/``unlink()``: neither released in
  the acquiring function, nor returned to the caller, nor handed to a
  project function/constructor that stores it under an attribute some
  code releases (``shard.ring.close(...)`` puts ``ring`` in the
  released-attribute set).  Escape analysis over the call graph, so
  ``kill_worker``/failover release paths count.
* **VH603** — an unpicklable value (lock, open file handle,
  ``np.random.Generator``, shm handle, lambda) flows into a
  ``Connection.send(...)`` or into the ``args=`` of a
  spawn/forkserver ``Process``: it will raise — or worse, pickle a
  stale snapshot — at the boundary.
* **VH604** — a seeded generator created pre-fork (module scope) is
  drawn from by worker-reachable code, or a generator is shipped into
  workers started in a loop: every worker inherits the *same* stream
  state, so "random" draws are identical across the fleet.
* **VH605** — fork-only API use that breaks the moment the start
  method changes: raw ``os.fork()``, module-level
  ``multiprocessing.Process/Lock/Queue/...`` factories that float with
  the global start method instead of pinning ``get_context(...)``,
  ``set_start_method(...)`` global mutation, lambda/bound-method
  targets under an unpinned or spawn context, and ``.daemon``
  assignment after ``.start()``.

Suppression is the standard machinery (``# vihot: noqa[VH6xx]`` /
the reviewed allowlist); the shipped tree lints clean with zero
suppressions — see ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.engine import Finding, ProjectRule, finding_at

if TYPE_CHECKING:
    from repro.analysis.callgraph import FunctionInfo, ProjectContext

__all__ = [
    "CrossProcessRngRule",
    "ForkInheritedStateRule",
    "ForkOnlyApiRule",
    "PickleBoundaryRule",
    "SharedMemoryLifecycleRule",
]

#: Container methods that mutate the receiver in place (VH601 sinks).
_MUTATING_CONTAINER_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Call names (last component) whose result is a mutable container when
#: bound at module scope.
_MUTABLE_CONSTRUCTOR_TAILS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: Canonical names that create a seeded/stateful RNG (VH603/VH604).
_GENERATOR_CALLS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Canonical names whose result cannot cross a pickle boundary.
_UNPICKLABLE_CALLS = frozenset(
    {
        "open",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
) | _GENERATOR_CALLS

#: Bare ``multiprocessing.X`` factories that float with the global
#: start method (VH605: pin a context instead).
_BARE_MP_FACTORIES = frozenset(
    {
        "Process",
        "Pipe",
        "Lock",
        "RLock",
        "Queue",
        "SimpleQueue",
        "JoinableQueue",
        "Pool",
        "Manager",
        "Value",
        "Array",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Barrier",
    }
)

_RELEASE_METHODS = frozenset({"close", "unlink"})

_SPAWNISH = frozenset({"spawn", "forkserver"})


@dataclass
class _ClassInfo:
    """One indexed class: the closure the plain call graph cannot see."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: method name -> function qualname (``mod.Class.method``)
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.A = ClassName(...)`` in any method -> class qualname
    attr_classes: dict[str, str] = field(default_factory=dict)
    #: ``__init__`` param name -> attribute it is stored under
    param_attrs: dict[str, str] = field(default_factory=dict)
    #: attributes assigned from a ``Pipe()`` unpack (Connection ends)
    conn_attrs: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class _ProcessCall:
    """One ``Process(...)`` construction site."""

    node: ast.Call
    #: pinned start method (``"fork"``/``"spawn"``/...), or None when
    #: the call floats with the global default.
    method: str | None
    target: ast.expr | None
    args: tuple[ast.expr, ...]
    in_loop: bool


@dataclass
class _Index:
    """Everything the five rules share, built once per project."""

    classes: dict[str, _ClassInfo] = field(default_factory=dict)
    #: canonical ``module.NAME`` -> (path, line) of a module-level mutable
    module_mutables: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: canonical ``module.NAME`` -> (path, line) of a module-level RNG
    module_generators: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: attribute names some code releases (``<x>.A.close()`` anywhere)
    release_attrs: set[str] = field(default_factory=set)
    #: worker entrypoint qualname -> how it was detected
    entrypoints: dict[str, str] = field(default_factory=dict)
    #: function qualname -> the caller it was reached from (BFS tree)
    reach_via: dict[str, str] = field(default_factory=dict)
    #: every function reachable from a worker entrypoint
    reachable: set[str] = field(default_factory=set)
    #: function qualname -> its Process construction sites
    process_calls: dict[str, list[_ProcessCall]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Shared name plumbing
# --------------------------------------------------------------------------


def _canonical_name(
    project: "ProjectContext", info: "FunctionInfo", node: ast.expr
) -> str | None:
    """Canonical dotted name of an expression, module-locals resolved."""
    module = project.module_of(info)
    dotted = module.qualified_name(node)
    if dotted is None:
        return None
    local = project.canonicalize(f"{info.module}.{dotted}")
    if local in project.functions or local in project.aliases:
        return local
    return project.canonicalize(dotted)


def _call_canonical(
    project: "ProjectContext", info: "FunctionInfo", node: ast.Call
) -> str | None:
    module = project.module_of(info)
    name = module.call_name(node)
    if name is None:
        return None
    return project.canonical_call(name, module=info.module)


def _resolve_class(
    index: _Index, project: "ProjectContext", info: "FunctionInfo", node: ast.Call
) -> _ClassInfo | None:
    module = project.module_of(info)
    name = module.call_name(node)
    if name is None:
        return None
    for candidate in (f"{info.module}.{name}", name):
        canonical = project.canonicalize(candidate)
        if canonical in index.classes:
            return index.classes[canonical]
    return None


def _is_shm_acquire(
    project: "ProjectContext", info: "FunctionInfo", node: ast.Call
) -> str | None:
    """The acquired resource kind (``SharedMemory``/``SharedCsiRing``), or None."""
    name = project.module_of(info).call_name(node)
    if name is None:
        return None
    canonical = project.canonical_call(name, module=info.module)
    tail = canonical.rpartition(".")[2]
    if canonical == "multiprocessing.shared_memory.SharedMemory" or tail in (
        "SharedMemory",
        "SharedCsiRing",
    ):
        return tail
    return None


def _is_generator_call(
    project: "ProjectContext", info: "FunctionInfo", node: ast.Call
) -> bool:
    canonical = _call_canonical(project, info, node)
    return canonical in _GENERATOR_CALLS if canonical is not None else False


def _is_unpicklable_call(
    project: "ProjectContext", info: "FunctionInfo", node: ast.Call
) -> str | None:
    """What kind of unpicklable value this call creates, or None."""
    canonical = _call_canonical(project, info, node)
    if canonical in _GENERATOR_CALLS:
        return "an RNG generator (its stream state snapshots at pickle time)"
    if canonical in _UNPICKLABLE_CALLS:
        tail = canonical.rpartition(".")[2]
        return (
            "an open file handle"
            if canonical == "open"
            else f"a `{tail}` synchronisation primitive"
        )
    if _is_shm_acquire(project, info, node) is not None:
        return "a shared-memory handle (the mapping is per-process)"
    return None


def _process_call_of(
    project: "ProjectContext",
    info: "FunctionInfo",
    node: ast.Call,
    local_contexts: dict[str, str],
) -> tuple[str | None, bool] | None:
    """``(start_method, True)`` when ``node`` constructs a Process."""
    func = node.func
    method: str | None = None
    is_process = False
    if isinstance(func, ast.Attribute) and func.attr == "Process":
        is_process = True
        value = func.value
        if isinstance(value, ast.Call):
            # get_context("fork").Process(...)
            inner = project.module_of(info).call_name(value)
            if inner is not None and inner.rpartition(".")[2] == "get_context":
                method = _const_str_arg(value)
        elif isinstance(value, ast.Name):
            method = local_contexts.get(value.id)
            if method is None and value.id not in local_contexts:
                canonical = _canonical_name(project, info, func)
                if canonical == "multiprocessing.Process":
                    method = None  # floats with the global default
    elif isinstance(func, ast.Name):
        canonical = _call_canonical(project, info, node)
        if canonical is not None and canonical.rpartition(".")[2] == "Process":
            is_process = True
    if not is_process:
        return None
    return (method, True)


def _const_str_arg(call: ast.Call) -> str | None:
    for arg in call.args[:1]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``A`` for an expression spelled ``self.A``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _store_names(node: ast.AST) -> set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
    }


def _global_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            names.update(child.names)
    return names


def _param_names(info: "FunctionInfo") -> set[str]:
    args = info.node.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


# --------------------------------------------------------------------------
# Index construction
# --------------------------------------------------------------------------


def _collect_classes(index: _Index, project: "ProjectContext") -> None:
    for mod_qual, module in project.modules.items():
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            qualname = f"{mod_qual}.{node.name}"
            cls = _ClassInfo(qualname=qualname, module=mod_qual, node=node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = f"{qualname}.{item.name}"
            index.classes[qualname] = cls


def _fill_class_details(index: _Index, project: "ProjectContext") -> None:
    """Second pass (needs the full class table): attribute typing,
    ``__init__`` param->attr bindings, Connection-typed attributes."""
    for cls in index.classes.values():
        for item in cls.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_info = project.functions.get(cls.methods.get(item.name, ""))
            init_params = (
                set(method_info.positional) | set(method_info.kwonly)
                if method_info is not None and item.name == "__init__"
                else set()
            )
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is None and isinstance(target, ast.Tuple):
                        # self.A, other = ctx.Pipe(...) — Connection ends.
                        if (
                            isinstance(stmt.value, ast.Call)
                            and isinstance(stmt.value.func, ast.Attribute)
                            and stmt.value.func.attr == "Pipe"
                        ) or (
                            isinstance(stmt.value, ast.Call)
                            and isinstance(stmt.value.func, ast.Name)
                            and stmt.value.func.id == "Pipe"
                        ):
                            for element in target.elts:
                                pipe_attr = _self_attr(element)
                                if pipe_attr is not None:
                                    cls.conn_attrs.add(pipe_attr)
                        continue
                    if attr is None:
                        continue
                    value = stmt.value
                    if isinstance(value, ast.Call) and method_info is not None:
                        target_cls = _resolve_class(
                            index, project, method_info, value
                        )
                        if target_cls is not None:
                            cls.attr_classes[attr] = target_cls.qualname
                    if (
                        isinstance(value, ast.Name)
                        and value.id in init_params
                        and item.name == "__init__"
                    ):
                        cls.param_attrs[value.id] = attr


def _collect_module_state(index: _Index, project: "ProjectContext") -> None:
    for mod_qual, module in project.modules.items():
        for node in module.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            )
            generator = False
            if isinstance(value, ast.Call):
                name = module.call_name(value)
                canonical = (
                    project.canonical_call(name, module=mod_qual)
                    if name is not None
                    else None
                )
                if canonical is not None:
                    if canonical.rpartition(".")[2] in _MUTABLE_CONSTRUCTOR_TAILS:
                        mutable = True
                    if canonical in _GENERATOR_CALLS:
                        generator = True
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                key = f"{mod_qual}.{target.id}"
                where = (module.rel_path, node.lineno)
                if mutable:
                    index.module_mutables[key] = where
                if generator:
                    index.module_generators[key] = where


def _collect_release_attrs(index: _Index, project: "ProjectContext") -> None:
    for info in project.functions.values():
        for node in ast.walk(info.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
            ):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Attribute):
                index.release_attrs.add(receiver.attr)


def _local_contexts(info: "FunctionInfo") -> dict[str, str]:
    """Locals assigned from ``get_context("<method>")`` in this function."""
    contexts: dict[str, str] = {}
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        tail = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if tail != "get_context":
            continue
        method = _const_str_arg(value)
        if method is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                contexts[target.id] = method
    return contexts


def _collect_process_calls(index: _Index, project: "ProjectContext") -> None:
    for info in project.functions.values():
        contexts = _local_contexts(info)
        calls: list[_ProcessCall] = []

        def visit(node: ast.AST, in_loop: bool, info: "FunctionInfo" = info) -> None:
            loop_here = in_loop or isinstance(
                node, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp)
            )
            if isinstance(node, ast.Call):
                found = _process_call_of(project, info, node, contexts)
                if found is not None:
                    method, _ = found
                    args_kw = _keyword(node, "args")
                    args = (
                        tuple(args_kw.elts)
                        if isinstance(args_kw, (ast.Tuple, ast.List))
                        else (args_kw,)
                        if args_kw is not None
                        else ()
                    )
                    calls.append(
                        _ProcessCall(
                            node=node,
                            method=method,
                            target=_keyword(node, "target"),
                            args=args,
                            in_loop=loop_here,
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, loop_here)

        visit(info.node, False)
        if calls:
            index.process_calls[info.qualname] = calls


def _collect_entrypoints(index: _Index, project: "ProjectContext") -> None:
    for qualname, calls in index.process_calls.items():
        info = project.functions[qualname]
        module = project.module_of(info)
        for call in calls:
            if call.target is None:
                continue
            dotted = module.qualified_name(call.target)
            if dotted is None:
                continue
            target = project.resolve_function(dotted, module=info.module)
            if target is not None:
                index.entrypoints.setdefault(
                    target.qualname,
                    f"{module.rel_path}:{call.node.lineno}: "
                    f"`Process(target={dotted})` in `{qualname}`",
                )
    for qualname in project.functions:
        tail = qualname.rpartition(".")[2]
        if tail.endswith("worker_main"):
            index.entrypoints.setdefault(
                qualname, f"`{qualname}` is a worker entrypoint by name"
            )


def _extended_callees(
    index: _Index, project: "ProjectContext", qualname: str
) -> set[str]:
    """Call-graph edges plus the class closure the graph cannot resolve."""
    callees = set(project.callees_of(qualname))
    info = project.functions.get(qualname)
    if info is None:
        return callees
    owner: _ClassInfo | None = None
    if info.is_method:
        cls_qual = qualname.rpartition(".")[0]
        owner = index.classes.get(cls_qual)
    local_classes: dict[str, str] = {}
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cls = _resolve_class(index, project, info, node.value)
            if cls is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_classes[target.id] = cls.qualname
        if not isinstance(node, ast.Call):
            continue
        cls = _resolve_class(index, project, info, node)
        if cls is not None:
            callees.update(cls.methods.values())
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and owner is not None:
                target_qual = owner.methods.get(func.attr)
                if target_qual is not None:
                    callees.add(target_qual)
            elif receiver.id in local_classes:
                cls_info = index.classes.get(local_classes[receiver.id])
                if cls_info is not None:
                    target_qual = cls_info.methods.get(func.attr)
                    if target_qual is not None:
                        callees.add(target_qual)
        elif isinstance(receiver, ast.Attribute) and owner is not None:
            attr = _self_attr(receiver)
            if attr is not None and attr in owner.attr_classes:
                cls_info = index.classes.get(owner.attr_classes[attr])
                if cls_info is not None:
                    target_qual = cls_info.methods.get(func.attr)
                    if target_qual is not None:
                        callees.add(target_qual)
    return callees


def _close_reachability(index: _Index, project: "ProjectContext") -> None:
    worklist = list(index.entrypoints)
    index.reachable.update(index.entrypoints)
    while worklist:
        current = worklist.pop()
        for callee in _extended_callees(index, project, current):
            if callee in index.reachable or callee not in project.functions:
                continue
            index.reachable.add(callee)
            index.reach_via[callee] = current
            worklist.append(callee)


def _reach_chain(index: _Index, qualname: str) -> list[str]:
    chain = [qualname]
    while chain[-1] not in index.entrypoints and len(chain) < 8:
        via = index.reach_via.get(chain[-1])
        if via is None or via in chain:
            break
        chain.append(via)
    return list(reversed(chain))


def _build_index(project: "ProjectContext") -> _Index:
    index = _Index()
    _collect_classes(index, project)
    _fill_class_details(index, project)
    _collect_module_state(index, project)
    _collect_release_attrs(index, project)
    _collect_process_calls(index, project)
    _collect_entrypoints(index, project)
    _close_reachability(index, project)
    return index


# --------------------------------------------------------------------------
# VH601 — fork-inherited mutable module state
# --------------------------------------------------------------------------


def _vh601_findings(index: _Index, project: "ProjectContext") -> Iterator[Finding]:
    for qualname in sorted(index.reachable):
        info = project.functions[qualname]
        module = project.module_of(info)
        stores = _store_names(info.node)
        globals_ = _global_names(info.node)
        params = _param_names(info)
        plain_assigned = {
            target.id
            for stmt in ast.walk(info.node)
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        reinitialised = globals_ & plain_assigned

        def mutable_of(
            node: ast.expr,
            info: "FunctionInfo" = info,
            stores: set[str] = stores,
            globals_: set[str] = globals_,
            params: set[str] = params,
            reinitialised: set[str] = reinitialised,
        ) -> str | None:
            """Canonical module-mutable this expression names, if flagged."""
            if isinstance(node, ast.Name):
                name = node.id
                if name in params or name in reinitialised:
                    return None
                if name in stores and name not in globals_:
                    return None  # local shadow
                key = project.canonicalize(f"{info.module}.{name}")
                return key if key in index.module_mutables else None
            if isinstance(node, ast.Attribute):
                dotted = project.module_of(info).qualified_name(node)
                if dotted is None:
                    return None
                key = project.canonicalize(dotted)
                return key if key in index.module_mutables else None
            return None

        def emit(
            node: ast.AST,
            key: str,
            sink: str,
            info: "FunctionInfo" = info,
            module_rel: str = module.rel_path,
        ) -> Finding:
            def_path, def_line = index.module_mutables[key]
            chain = _reach_chain(index, info.qualname)
            entry = chain[0]
            return finding_at(
                module_rel,
                node,
                "VH601",
                f"`{info.qualname}` is reachable from worker entrypoint "
                f"`{entry}` and mutates fork-inherited module state "
                f"`{key}` via {sink}; each forked worker holds a private "
                "copy, so the write silently diverges between processes "
                "— re-initialise post-fork (`global` + fresh assignment) "
                "or move the state onto the worker object",
                (
                    f"{def_path}:{def_line}: `{key}` bound at module scope "
                    "(copied into every fork child)",
                    index.entrypoints.get(entry, f"entrypoint `{entry}`"),
                    "reached via " + " -> ".join(chain),
                ),
            )

        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        key = mutable_of(target.value)
                        if key is not None:
                            yield emit(node, key, "a subscript store")
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Subscript):
                    key = mutable_of(target.value)
                    if key is not None:
                        yield emit(node, key, "an augmented subscript store")
                else:
                    key = mutable_of(target)
                    if key is not None:
                        yield emit(node, key, "augmented assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        key = mutable_of(target.value)
                        if key is not None:
                            yield emit(node, key, "`del` of an item")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_CONTAINER_METHODS
            ):
                key = mutable_of(node.func.value)
                if key is not None:
                    yield emit(node, key, f"`.{node.func.attr}()`")


# --------------------------------------------------------------------------
# VH602 — shared-memory lifecycle
# --------------------------------------------------------------------------


def _released_locals(info: "FunctionInfo") -> set[str]:
    names: set[str] = set()
    for node in ast.walk(info.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RELEASE_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            names.add(node.func.value.id)
    return names


def _returned_names(info: "FunctionInfo") -> set[str]:
    names: set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            names.add(node.value.id)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and isinstance(
            getattr(node, "value", None), ast.Name
        ):
            names.add(node.value.id)  # type: ignore[union-attr]
    return names


def _transfer_releases(
    index: _Index,
    project: "ProjectContext",
    info: "FunctionInfo",
    call: ast.Call,
    is_consumed: "ast.expr | None",
) -> bool:
    """True when handing the resource to ``call`` transfers it somewhere
    that releases it: a constructor storing it under a released
    attribute, or a project function that closes the parameter."""
    cls = _resolve_class(index, project, info, call)
    callee: "FunctionInfo | None" = None
    if cls is not None:
        callee = project.functions.get(cls.methods.get("__init__", ""))
    else:
        module = project.module_of(info)
        name = module.call_name(call)
        if name is not None:
            callee = project.resolve_function(name, module=info.module)
    if callee is None:
        return False
    # Which parameter receives the resource?
    param: str | None = None
    positional = callee.positional
    for pos, arg in enumerate(call.args):
        if arg is is_consumed:
            if pos < len(positional):
                param = positional[pos]
            break
    if param is None:
        for kw in call.keywords:
            if kw.value is is_consumed and kw.arg is not None:
                param = kw.arg
                break
    if param is None:
        return False
    if cls is not None and cls.param_attrs.get(param) in index.release_attrs:
        return True
    return param in _released_locals(callee)


def _vh602_findings(index: _Index, project: "ProjectContext") -> Iterator[Finding]:
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        module = project.module_of(info)
        released = _released_locals(info)
        returned = _returned_names(info)

        # Map each acquire call to its binding.
        acquired: dict[ast.Call, tuple[str, str | None]] = {}
        kinds: dict[ast.Call, str] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                kind = _is_shm_acquire(project, info, node)
                if kind is not None:
                    acquired[node] = ("loose", None)
                    kinds[node] = kind
        if not acquired:
            continue
        consumers: dict[str, list[ast.Call]] = {}
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if not isinstance(value, ast.Call) or value not in acquired:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if isinstance(target, ast.Name):
                        acquired[value] = ("local", target.id)
                    elif attr is not None:
                        acquired[value] = ("attr", attr)
            elif isinstance(node, ast.withitem):
                ctx_expr = node.context_expr
                if isinstance(ctx_expr, ast.Call) and ctx_expr in acquired:
                    if isinstance(node.optional_vars, ast.Name):
                        acquired[ctx_expr] = ("local", node.optional_vars.id)
            elif isinstance(node, ast.Call) and node not in acquired:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if isinstance(arg, ast.Call) and arg in acquired:
                        acquired[arg] = ("inline-transfer", None)
                        consumers.setdefault("<inline>", []).append(node)
                    if isinstance(arg, ast.Name):
                        consumers.setdefault(arg.id, []).append(node)

        for call, (binding, name) in acquired.items():
            kind = kinds[call]
            ok = False
            if binding == "local" and name is not None:
                ok = name in released or name in returned
                if not ok:
                    ok = any(
                        _transfer_releases(
                            index, project, info, consumer, _name_arg(consumer, name)
                        )
                        for consumer in consumers.get(name, [])
                    )
            elif binding == "attr" and name is not None:
                ok = name in index.release_attrs
            elif binding == "inline-transfer":
                ok = any(
                    _transfer_releases(index, project, info, consumer, call)
                    for consumer in consumers.get("<inline>", [])
                    if call in ast.walk(consumer)
                )
            if ok:
                continue
            subject = (
                f"`self.{name}`"
                if binding == "attr"
                else f"`{name}`"
                if name is not None
                else "an unbound handle"
            )
            yield finding_at(
                module.rel_path,
                call,
                "VH602",
                f"`{kind}` acquired into {subject} never reaches a "
                "`close()`/`unlink()` on any path visible to the call "
                "graph: the segment outlives the process and leaks "
                "(resource-tracker warnings at best, an orphaned "
                "mapping at worst); release it in a `finally`, or hand "
                "it to an owner whose shutdown/failover path closes it",
                (
                    f"{module.rel_path}:{call.lineno}: `{kind}` acquired in "
                    f"`{qualname}`",
                    "no release found in the acquiring function, its "
                    "callees, or a released attribute slot",
                ),
            )


def _name_arg(call: ast.Call, name: str) -> ast.expr | None:
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == name:
            return arg
    for kw in call.keywords:
        if isinstance(kw.value, ast.Name) and kw.value.id == name:
            return kw.value
    return None


# --------------------------------------------------------------------------
# VH603 — pickle boundaries
# --------------------------------------------------------------------------


def _annotation_is_connection(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "Connection":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Connection":
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "Connection" in node.value:
                return True
    return False


def _vh603_findings(index: _Index, project: "ProjectContext") -> Iterator[Finding]:
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        module = project.module_of(info)
        owner = (
            index.classes.get(qualname.rpartition(".")[0])
            if info.is_method
            else None
        )

        conn_names: set[str] = set()
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_connection(arg.annotation):
                conn_names.add(arg.arg)
        unpicklable: dict[str, str] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(value, ast.Call):
                func = value.func
                tail = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if tail == "Pipe":
                    conn_names.update(names)
                    if isinstance(node.targets[0], ast.Tuple):
                        conn_names.update(
                            e.id
                            for e in node.targets[0].elts
                            if isinstance(e, ast.Name)
                        )
                    continue
                what = _is_unpicklable_call(project, info, value)
                if what is not None:
                    for name in names:
                        unpicklable[name] = what
            elif isinstance(value, ast.Lambda):
                for name in names:
                    unpicklable[name] = "a lambda (not picklable at all)"

        def offending(
            expr: ast.expr,
            info: "FunctionInfo" = info,
            unpicklable: dict[str, str] = unpicklable,
        ) -> str | None:
            if isinstance(expr, ast.Name):
                return unpicklable.get(expr.id)
            if isinstance(expr, ast.Lambda):
                return "a lambda (not picklable at all)"
            if isinstance(expr, ast.Call):
                return _is_unpicklable_call(project, info, expr)
            if isinstance(expr, (ast.Tuple, ast.List)):
                for element in expr.elts:
                    found = offending(element)
                    if found is not None:
                        return found
            return None

        def emit(node: ast.AST, what: str, boundary: str) -> Finding:
            return finding_at(
                module.rel_path,
                node,
                "VH603",
                f"{what} flows into {boundary}: it cannot cross a "
                "pickle boundary (TypeError at best; at worst a stale "
                "state snapshot serialises and the processes silently "
                "diverge) — send plain data and rebuild the object on "
                "the far side",
                (f"{module.rel_path}:{getattr(node, 'lineno', 0)}: in `{qualname}`",),
            )

        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "send":
                receiver = func.value
                is_conn = (
                    isinstance(receiver, ast.Name) and receiver.id in conn_names
                )
                if not is_conn:
                    attr = _self_attr(receiver)
                    is_conn = (
                        attr is not None
                        and owner is not None
                        and attr in owner.conn_attrs
                    )
                if is_conn:
                    for arg in node.args:
                        what = offending(arg)
                        if what is not None:
                            yield emit(node, what, "`Connection.send(...)`")
        for call in index.process_calls.get(qualname, ()):
            if call.method in _SPAWNISH:
                for arg in call.args:
                    what = offending(arg)
                    if what is not None:
                        yield emit(
                            call.node,
                            what,
                            f"the `args=` of a `{call.method}`-context `Process`",
                        )


# --------------------------------------------------------------------------
# VH604 — cross-process RNG / seed leakage
# --------------------------------------------------------------------------


def _vh604_findings(index: _Index, project: "ProjectContext") -> Iterator[Finding]:
    # (a) module-level generator drawn from by worker-reachable code.
    for qualname in sorted(index.reachable):
        info = project.functions[qualname]
        module = project.module_of(info)
        stores = _store_names(info.node)
        globals_ = _global_names(info.node)
        params = _param_names(info)
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name in params or (name in stores and name not in globals_):
                continue
            key = project.canonicalize(f"{info.module}.{name}")
            if key not in index.module_generators:
                continue
            def_path, def_line = index.module_generators[key]
            chain = _reach_chain(index, qualname)
            entry = chain[0]
            yield finding_at(
                module.rel_path,
                node,
                "VH604",
                f"module-level generator `{key}` is used by "
                f"`{qualname}`, which is reachable from worker "
                f"entrypoint `{entry}`: every forked worker inherits "
                "the same pre-fork stream state, so 'random' draws are "
                "identical across the fleet — derive a per-worker seed "
                "post-fork (e.g. `default_rng(seed + worker_index)`)",
                (
                    f"{def_path}:{def_line}: `{key}` seeded at module scope "
                    "(pre-fork)",
                    index.entrypoints.get(entry, f"entrypoint `{entry}`"),
                    "reached via " + " -> ".join(chain),
                ),
            )
    # (b) one generator object shipped into workers started in a loop.
    for qualname, calls in sorted(index.process_calls.items()):
        info = project.functions[qualname]
        module = project.module_of(info)
        generator_locals: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _is_generator_call(project, info, node.value):
                    generator_locals.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
        for call in calls:
            if not call.in_loop:
                continue
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in generator_locals:
                    yield finding_at(
                        module.rel_path,
                        call.node,
                        "VH604",
                        f"generator `{arg.id}` is shipped into every "
                        "worker started by this loop: all workers "
                        "receive the same stream state and draw "
                        "identical sequences — seed each worker "
                        "independently instead",
                        (
                            f"{module.rel_path}:{call.node.lineno}: "
                            f"`Process` started in a loop in `{qualname}`",
                        ),
                    )


# --------------------------------------------------------------------------
# VH605 — fork-only API use (spawn readiness)
# --------------------------------------------------------------------------


def _vh605_findings(index: _Index, project: "ProjectContext") -> Iterator[Finding]:
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        module = project.module_of(info)

        def emit(node: ast.AST, message: str) -> Finding:
            return finding_at(
                module.rel_path,
                node,
                "VH605",
                message,
                (f"{module.rel_path}:{getattr(node, 'lineno', 0)}: in `{qualname}`",),
            )

        started: dict[str, int] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                canonical = _call_canonical(project, info, node)
                if canonical == "os.fork":
                    yield emit(
                        node,
                        "raw `os.fork()` assumes fork semantics (inherited "
                        "memory, fds, locks) and has no spawn equivalent; "
                        "use a `multiprocessing.get_context(...)` Process "
                        "so the start method is explicit and portable",
                    )
                elif canonical is not None and canonical.rpartition(".")[0] == (
                    "multiprocessing"
                ) and canonical.rpartition(".")[2] in _BARE_MP_FACTORIES:
                    tail = canonical.rpartition(".")[2]
                    yield emit(
                        node,
                        f"bare `multiprocessing.{tail}(...)` floats with "
                        "the global start method (fork on Linux, spawn on "
                        "macOS/Windows): the same code inherits state on "
                        "one platform and pickles on another — pin "
                        f"`get_context(...).{tail}(...)` explicitly",
                    )
                elif canonical is not None and canonical.rpartition(".")[2] == (
                    "set_start_method"
                ):
                    yield emit(
                        node,
                        "`set_start_method(...)` mutates interpreter-global "
                        "state and breaks any library holding a different "
                        "assumption; pin a local `get_context(...)` instead",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "start"
                    and isinstance(node.func.value, ast.Name)
                ):
                    started.setdefault(node.func.value.id, node.lineno)
        for call in index.process_calls.get(qualname, ()):
            if call.method == "fork":
                continue  # pinned fork: inheritance is the documented contract
            target = call.target
            if isinstance(target, ast.Lambda):
                yield emit(
                    call.node,
                    "a lambda `target=` cannot be pickled: this `Process` "
                    "works only under fork — pin `get_context(\"fork\")` "
                    "or use a module-level function",
                )
            elif isinstance(target, ast.Attribute) and _self_attr(target) is not None:
                yield emit(
                    call.node,
                    "a bound-method `target=` pickles the whole instance "
                    "under spawn (or fails): this `Process` works only "
                    "under fork — pin the context or use a module-level "
                    "function taking plain data",
                )
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "daemon"
                    and isinstance(target.value, ast.Name)
                    and target.value.id in started
                    and node.lineno > started[target.value.id]
                ):
                    yield emit(
                        node,
                        f"`.daemon` assigned after `{target.value.id}.start()`: "
                        "the flag must be set before start (raises "
                        "AssertionError on CPython) — pass `daemon=` to the "
                        "constructor",
                    )


# --------------------------------------------------------------------------
# The family pass + rule classes
# --------------------------------------------------------------------------


def _concurrency_findings(project: "ProjectContext") -> Iterator[Finding]:
    index = _build_index(project)
    for rule_findings in (
        _vh601_findings,
        _vh602_findings,
        _vh603_findings,
        _vh604_findings,
        _vh605_findings,
    ):
        yield from rule_findings(index, project)


class _ConcurrencyRuleBase(ProjectRule):
    @staticmethod
    def family(project: "ProjectContext") -> Iterator[Finding]:
        return _concurrency_findings(project)


class ForkInheritedStateRule(_ConcurrencyRuleBase):
    id = "VH601"
    name = "fork-inherited-state-mutation"
    description = (
        "worker-reachable code mutates module-level mutable state "
        "inherited by fork"
    )
    rationale = (
        "A forked worker gets a private copy-on-write snapshot of every "
        "module-level dict/list/set. Code reachable from a worker "
        "entrypoint that writes such state mutates the worker's copy "
        "only: the parent and the other workers never see it, and the "
        "same code run inline gives different answers than run sharded. "
        "Reads are fine; re-initialise post-fork (`global X` plus a "
        "fresh assignment) or keep the state on the worker object."
    )
    example = (
        "_CACHE: dict[str, int] = {}\n"
        "\n"
        "def _worker_main(conn):\n"
        "    _CACHE['hits'] = _CACHE.get('hits', 0) + 1   # VH601\n"
    )


class SharedMemoryLifecycleRule(_ConcurrencyRuleBase):
    id = "VH602"
    name = "shm-lifecycle-leak"
    description = (
        "a SharedMemory/SharedCsiRing acquisition never reaches "
        "close()/unlink() on any visible path"
    )
    rationale = (
        "Shared-memory segments are kernel objects that outlive the "
        "process: an acquisition whose handle is neither released in "
        "the acquiring function nor handed to an owner whose shutdown "
        "and failover paths release it leaks the segment (resource-"
        "tracker warnings, /dev/shm exhaustion on long soaks). The "
        "escape analysis follows the handle through constructor "
        "parameters into released attribute slots, so `fabric.close()` "
        "and `kill_worker()` releasing `shard.ring` both count."
    )
    example = (
        "def acquire(size):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=size)\n"
        "    return shm.name    # VH602: handle dropped, segment leaks\n"
    )


class PickleBoundaryRule(_ConcurrencyRuleBase):
    id = "VH603"
    name = "pickle-boundary-violation"
    description = (
        "an unpicklable value (lock, open file, RNG generator, shm "
        "handle, lambda) flows into Connection.send or spawn Process args"
    )
    rationale = (
        "`Connection.send` always pickles; spawn/forkserver `Process` "
        "args pickle at start. Locks, open files and shm handles raise "
        "at the boundary — and an `np.random.Generator` is worse: it "
        "pickles a *snapshot* of its stream state, so the two sides "
        "silently draw identical sequences from the moment it crosses. "
        "Send plain data and rebuild stateful objects on the far side."
    )
    example = (
        "def publish(conn: Connection):\n"
        "    rng = np.random.default_rng(0)\n"
        "    conn.send(rng)    # VH603: stream state snapshots\n"
    )


class CrossProcessRngRule(_ConcurrencyRuleBase):
    id = "VH604"
    name = "cross-process-rng-leak"
    description = (
        "a pre-fork seeded generator is used by more than one worker "
        "(module-level stream, or one object shipped to a worker loop)"
    )
    rationale = (
        "Fork copies RNG state byte for byte: a generator seeded at "
        "module scope (pre-fork) puts the *same* stream position in "
        "every worker, so per-worker 'random' draws are identical — "
        "the exact cross-process nondeterminism bug the reproduction's "
        "bit-identity contract exists to catch. Derive per-worker seeds "
        "post-fork (`default_rng(seed + worker_index)`) instead."
    )
    example = (
        "_RNG = np.random.default_rng(1234)\n"
        "\n"
        "def _worker_main(conn):\n"
        "    conn.send(float(_RNG.standard_normal()))   # VH604\n"
    )


class ForkOnlyApiRule(_ConcurrencyRuleBase):
    id = "VH605"
    name = "fork-only-api"
    description = (
        "fork-only multiprocessing use that breaks under spawn: raw "
        "os.fork, unpinned factories, set_start_method, lambda/bound "
        "targets, daemon-after-start"
    )
    rationale = (
        "The fabric pins `get_context('fork')` deliberately — that is "
        "allowed. What this rule flags is code whose start method is an "
        "*accident*: bare `multiprocessing.X(...)` factories that "
        "silently switch semantics across platforms, raw `os.fork()`, "
        "global `set_start_method`, lambda or bound-method targets that "
        "cannot pickle, and `.daemon` set after `.start()`. Each is a "
        "latent break for the roadmap's spawn/Windows port — pin the "
        "context and keep targets module-level."
    )
    example = (
        "def serve_forever():\n"
        "    pid = os.fork()                 # VH605\n"
        "    lock = multiprocessing.Lock()   # VH605: start method unpinned\n"
    )
