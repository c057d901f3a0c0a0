"""Project-wide call-graph and import-resolution layer.

Built once per ``vihot lint --dataflow`` run: every module is parsed
into a :class:`~repro.analysis.engine.ModuleContext`, every function and
method is indexed under its canonical qualname
(``repro.dsp.phase.wrap_phase``), import aliases and package re-exports
are flattened into one resolution table (so ``from repro.dsp import
wrap_phase`` resolves to the defining module even though it is spelled
through ``repro/dsp/__init__.py``), and a call graph is recorded for
every project-internal call site.

Every function's declared contracts — unit domains, array shapes and
dtypes — are read once, by :func:`declared_contracts`, from
``Annotated[..., Domain(...)/Shape(...)/DType(...)]`` markers and
``:domain``/``:shape``/``:dtype`` docstring lines.

On top of the index the build runs the inter-procedural summary pass:
functions whose return domain is not declared get one *inferred* from
their return expressions, iterated to a fixed point so domains
propagate through call chains.  The summary table is the expensive part
of the build, so it is cached keyed on a hash of every source file
(``cache_dir``); CI persists that directory between runs.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.analysis.domains import EXTERNAL_SIGNATURES, Signature, domain_from_annotation
from repro.analysis.dtypes import dtype_from_annotation
from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.shapes import _parse_shape_spec, shape_from_annotation
from repro.units import DOMAIN_NAMES, DTYPE_NAMES

__all__ = [
    "FunctionInfo",
    "ProjectContext",
    "RULESET_EPOCH",
    "build_project",
    "declared_contracts",
    "docstring_contracts",
]

#: Bump when the summary-cache layout changes.
_CACHE_VERSION = 1

#: Bump whenever the *inference rules* change — new domain signatures,
#: a different fixpoint, a propagation fix.  The summary cache is keyed
#: on this in addition to the source digest: a cached summary describes
#: (source, rules), and hashing only the source let stale summaries
#: survive rule edits (the bug this guard retires).  Epoch 2 marks the
#: VH5xx era; epoch 3 the VH6xx process-safety pass.
RULESET_EPOCH = 3

#: Fixed-point iteration bound for return-domain inference; domain
#: chains in practice are a handful of calls deep.
_MAX_INFERENCE_ROUNDS = 5


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_method: bool
    #: Positional parameter names (``self``/``cls`` already dropped).
    positional: tuple[str, ...]
    kwonly: tuple[str, ...]
    declared_params: dict[str, str]
    declared_return: str | None
    inferred_return: str | None = None
    #: Declared array contracts (VH5xx): param -> accepted shape
    #: alternatives, declared return alternatives, param -> dtype,
    #: declared return dtype.  Shapes/dtypes are declared-only — no
    #: fixpoint inference — so they never enter the summary cache.
    declared_shapes: dict[str, tuple[tuple[str | int, ...], ...]] = field(
        default_factory=dict
    )
    declared_shape_return: tuple[tuple[str | int, ...], ...] | None = None
    declared_dtypes: dict[str, str] = field(default_factory=dict)
    declared_dtype_return: str | None = None

    @property
    def return_domain(self) -> str | None:
        return self.declared_return if self.declared_return is not None else self.inferred_return

    def signature(self) -> Signature:
        names = self.positional + self.kwonly
        return Signature(
            params=tuple(self.declared_params.get(n) for n in names),
            returns=self.return_domain,
            param_names=names,
        )


#: ``:domain p: wrapped_rad``, ``:dtype return: float64`` and
#: ``:shape p: (S, m) | (S, B, L)`` docstring lines.
_CONTRACT_LINE_RE = re.compile(
    r"^\s*:(?P<kind>domain|dtype|shape)\s+(?P<param>\w+)\s*:\s*"
    r"(?P<spec>\w+|\([^)\n]*\)(?:\s*\|\s*\([^)\n]*\))*)\s*$",
    re.MULTILINE,
)


def docstring_contracts(docstring: str) -> dict[str, dict[str, Any]]:
    """``kind -> {param: declared value}`` from a docstring's contract lines.

    Kinds are ``domain`` and ``dtype`` (a name from :mod:`repro.units`)
    and ``shape`` (a tuple of accepted alternatives); ``return`` keys the
    declared return value.  The first valid line per parameter wins, and
    an unknown name or a malformed shape is ignored.
    """
    contracts: dict[str, dict[str, Any]] = {"domain": {}, "dtype": {}, "shape": {}}
    for match in _CONTRACT_LINE_RE.finditer(docstring):
        kind, spec = match.group("kind"), match.group("spec")
        if kind == "shape":
            value: Any = _parse_shape_spec(spec)  # () when malformed
        else:
            names = DOMAIN_NAMES if kind == "domain" else DTYPE_NAMES
            value = spec if spec in names else None
        if value:
            contracts[kind].setdefault(match.group("param"), value)
    return contracts


def _shape_alternatives(annotation: ast.expr | None) -> tuple[tuple[str | int, ...], ...] | None:
    shape = shape_from_annotation(annotation)
    return (shape,) if shape is not None else None


#: Kind -> reader of its ``Annotated[...]`` marker.
_ANNOTATION_READERS: dict[str, Callable[[ast.expr | None], Any]] = {
    "domain": domain_from_annotation,
    "dtype": dtype_from_annotation,
    "shape": _shape_alternatives,
}


def declared_contracts(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, tuple[dict[str, Any], Any]]:
    """Declared ``kind -> (param -> value, return value)`` for a function.

    ``Annotated[..., Domain(...)/DType(...)/Shape(...)]`` markers win;
    docstring lines (:func:`docstring_contracts`) fill in anything the
    signature leaves out — the convention for ``ArrayLike`` params and
    rank-polymorphic kernels, where ``Annotated`` is noisy.
    """
    lines = docstring_contracts(ast.get_docstring(fn, clean=False) or "")
    args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
    declared: dict[str, tuple[dict[str, Any], Any]] = {}
    for kind, read in _ANNOTATION_READERS.items():
        params = {
            arg.arg: value for arg in args if (value := read(arg.annotation)) is not None
        }
        returns = read(fn.returns)
        for param, value in lines[kind].items():
            if param != "return":
                params.setdefault(param, value)
            elif returns is None:
                returns = value
        declared[kind] = (params, returns)
    return declared


def _function_info(
    module_qualname: str,
    owner: str | None,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FunctionInfo:
    args = node.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]]
    is_method = owner is not None
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    declared = declared_contracts(node)
    local = f"{owner}.{node.name}" if owner else node.name
    return FunctionInfo(
        qualname=f"{module_qualname}.{local}",
        module=module_qualname,
        node=node,
        is_method=is_method,
        positional=tuple(positional),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        declared_params=declared["domain"][0],
        declared_return=declared["domain"][1],
        declared_shapes=declared["shape"][0],
        declared_shape_return=declared["shape"][1],
        declared_dtypes=declared["dtype"][0],
        declared_dtype_return=declared["dtype"][1],
    )


def module_qualname(module: ModuleContext) -> str:
    """Canonical dotted name of a module, derived from its path.

    Climbs the filesystem while ``__init__.py`` parents exist (so
    ``src/repro/dsp/phase.py`` -> ``repro.dsp.phase``); for synthetic
    paths (``check_source``) it falls back to the relative path with
    separators dotted.
    """
    path = module.path
    if path.name != "<string>" and path.exists():
        parts = [] if path.name == "__init__.py" else [path.stem]
        parent = path.parent
        while (parent / "__init__.py").exists():
            parts.insert(0, parent.name)
            parent = parent.parent
        if parts:
            return ".".join(parts)
    rel = module.rel_path.replace("\\", "/")
    rel = rel[:-3] if rel.endswith(".py") else rel
    rel = rel[: -len("/__init__")] if rel.endswith("/__init__") else rel
    return rel.replace("/", ".").lstrip(".") or "<string>"


class ProjectContext:
    """The whole-project view handed to :class:`~repro.analysis.engine.ProjectRule`."""

    def __init__(
        self,
        modules: dict[str, ModuleContext],
        functions: dict[str, FunctionInfo],
        aliases: dict[str, str],
        cache_hit: bool = False,
    ) -> None:
        self.modules = modules
        self.functions = functions
        self.aliases = aliases
        self.cache_hit = cache_hit
        self.call_graph: dict[str, frozenset[str]] = {}
        #: Scratch space rules share within one run; :meth:`findings`
        #: keeps each rule family's findings here.
        self.memo: dict[Any, Any] = {}

    # ---------------------------------------------------------------- build

    @classmethod
    def build(
        cls,
        modules: Sequence[ModuleContext],
        cache_dir: Path | str | None = None,
    ) -> "ProjectContext":
        by_qualname: dict[str, ModuleContext] = {}
        for module in modules:
            by_qualname[module_qualname(module)] = module

        functions: dict[str, FunctionInfo] = {}
        aliases: dict[str, str] = {}
        for qualname, module in by_qualname.items():
            for local, target in module.aliases.items():
                aliases[f"{qualname}.{local}"] = target
            for info in _iter_module_functions(qualname, module):
                functions[info.qualname] = info

        project = cls(by_qualname, functions, aliases)
        project._build_call_graph()
        project._infer_return_domains(cache_dir)
        return project

    def _build_call_graph(self) -> None:
        edges: dict[str, set[str]] = {}
        for info in self.functions.values():
            module = self.modules[info.module]
            callees: set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    name = module.call_name(node)
                    if name is None:
                        continue
                    target = self.resolve_function(name, module=info.module)
                    if target is not None:
                        callees.add(target.qualname)
            edges[info.qualname] = callees
        self.call_graph = {fn: frozenset(callees) for fn, callees in edges.items()}

    def _infer_return_domains(self, cache_dir: Path | str | None) -> None:
        digest = self._source_digest()
        cache_path = (
            Path(cache_dir)
            / f"summaries-v{_CACHE_VERSION}-e{RULESET_EPOCH}-{digest[:16]}.json"
            if cache_dir is not None
            else None
        )
        if cache_path is not None and cache_path.exists():
            try:
                payload = json.loads(cache_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            if (
                payload is not None
                and payload.get("digest") == digest
                and payload.get("epoch") == RULESET_EPOCH
            ):
                for qualname, domain in payload.get("returns", {}).items():
                    info = self.functions.get(qualname)
                    if info is not None and info.declared_return is None:
                        info.inferred_return = domain
                self.cache_hit = True
                return

        from repro.analysis.dataflow import infer_return_domain

        for _ in range(_MAX_INFERENCE_ROUNDS):
            changed = False
            for info in self.functions.values():
                if info.declared_return is not None:
                    continue
                inferred = infer_return_domain(info, self)
                if inferred != info.inferred_return:
                    info.inferred_return = inferred
                    changed = True
            if not changed:
                break

        if cache_path is not None:
            returns = {
                info.qualname: info.inferred_return
                for info in self.functions.values()
                if info.inferred_return is not None
            }
            try:
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                cache_path.write_text(
                    json.dumps(
                        {
                            "digest": digest,
                            "epoch": RULESET_EPOCH,
                            "returns": returns,
                        },
                        indent=0,
                    ),
                    encoding="utf-8",
                )
            except OSError:
                pass  # caching is best-effort; the analysis result is identical

    def _source_digest(self) -> str:
        hasher = hashlib.sha256()
        for qualname in sorted(self.modules):
            module = self.modules[qualname]
            hasher.update(qualname.encode())
            hasher.update(b"\x00")
            hasher.update(module.source.encode("utf-8", "replace"))
            hasher.update(b"\x01")
        return hasher.hexdigest()

    # ------------------------------------------------------------ findings

    def findings(
        self, family: "Callable[[ProjectContext], Iterable[Finding]]"
    ) -> list[Finding]:
        """Every finding of one rule family, computed once per project.

        The family's rules share the list (each reports its own ids).
        It is de-duplicated on location, rule and message, the first
        trace winning, and sorted by location and rule.
        """
        if family not in self.memo:
            unique: dict[tuple[str, int, int, str, str], Finding] = {}
            for finding in family(self):
                key = (finding.path, finding.line, finding.col, finding.rule, finding.message)
                unique.setdefault(key, finding)
            self.memo[family] = sorted(unique.values())
        return self.memo[family]

    # ------------------------------------------------------------- queries

    def canonicalize(self, dotted: str, _seen: frozenset[str] = frozenset()) -> str:
        """Follow import aliases and re-exports to a canonical dotted name."""
        if dotted in _seen or len(_seen) > 16:
            return dotted
        seen = _seen | {dotted}
        if dotted in self.aliases:
            return self.canonicalize(self.aliases[dotted], seen)
        head, _, tail = dotted.rpartition(".")
        if head:
            canonical_head = self.canonicalize(head, seen)
            if canonical_head != head:
                return self.canonicalize(f"{canonical_head}.{tail}", seen)
        return dotted

    def canonical_call(self, dotted: str, module: str | None = None) -> str:
        """Canonical name of a call spelled ``dotted`` inside ``module``.

        Module-local definitions win (``wrap_phase(...)`` inside
        ``repro.dsp.phase`` resolves to ``repro.dsp.phase.wrap_phase``);
        otherwise the global alias table decides.
        """
        if module is not None:
            local = self.canonicalize(f"{module}.{dotted}")
            if local in self.functions:
                return local
        return self.canonicalize(dotted)

    def resolve_function(
        self, dotted: str, module: str | None = None
    ) -> FunctionInfo | None:
        """FunctionInfo for a (possibly aliased) dotted call name, or None."""
        return self.functions.get(self.canonical_call(dotted, module))

    def signature_for(self, dotted: str) -> Signature | None:
        """Domain signature for a call name: project functions, then numpy."""
        info = self.resolve_function(dotted)
        if info is not None:
            return info.signature()
        return EXTERNAL_SIGNATURES.get(self.canonicalize(dotted))

    def module_of(self, info: FunctionInfo) -> ModuleContext:
        return self.modules[info.module]

    def callees_of(self, qualname: str) -> frozenset[str]:
        return self.call_graph.get(qualname, frozenset())

    def callers_of(self, qualname: str) -> frozenset[str]:
        return frozenset(
            caller for caller, callees in self.call_graph.items() if qualname in callees
        )


def _iter_module_functions(
    qualname: str, module: ModuleContext
) -> Iterator[FunctionInfo]:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _function_info(qualname, None, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield _function_info(qualname, node.name, item)


def build_project(
    paths: Sequence[Path], cache_dir: Path | str | None = None
) -> ProjectContext:
    """Convenience: parse ``paths`` and build a :class:`ProjectContext`."""
    from repro.analysis.engine import Analyzer

    modules: list[ModuleContext] = []
    for path in Analyzer._iter_files(paths):
        parsed = Analyzer([])._parse_file(path)
        if isinstance(parsed, ModuleContext):
            modules.append(parsed)
    return ProjectContext.build(modules, cache_dir=cache_dir)
