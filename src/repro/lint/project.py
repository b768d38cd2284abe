"""Project-wide analysis: symbol table, call resolution, fixpoints.

A :class:`ProjectContext` is built once per lint run from every file's
:class:`~repro.lint.symbols.ModuleFacts` (freshly extracted or loaded
from the incremental cache -- the AST is never needed here). It exposes:

* call resolution -- a call site maps to the set of candidate funcrefs
  (``"module:qualname"``). Same-module and ``self`` calls were pinned at
  extraction; import-resolved dotted names are matched against the
  module tree; bare method names fall back to a project-wide name index,
  and stay unresolved when too ambiguous. Rules treat multi-candidate
  sites conservatively: a property must hold for *every* candidate
  before it propagates, so ambiguity can cost recall but not precision.
* ``tainted_returns`` -- the least fixpoint of "returns a
  non-deterministic value" over the call graph (OST010).
* ``sink_params`` -- per function, the parameter indices that flow
  (transitively) into a determinism sink (OST010).
* ``writers`` -- the least fixpoint of OST005's resource-writer relation
  lifted through helpers: a function is a writer when it writes the
  resource arrays directly or calls an *unsanctioned* writer. Sanctioned
  writers (public functions of the resource-owner modules) terminate the
  propagation: calling the public API is the correct thing to do
  (OST011).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.rules.confinement import RESOURCE_WRITER_MODULES
from repro.lint.symbols import (
    CallSite,
    FunctionFacts,
    ModuleFacts,
    TaintValue,
)

#: A bare method name matching more callables than this is treated as
#: unresolvable (generic names like ``get``/``run`` would otherwise
#: smear facts across unrelated classes).
MAX_NAME_CANDIDATES = 4


class ProjectContext:
    """The cross-file view the project rules run against."""

    def __init__(self, modules: Iterable[ModuleFacts]):
        self.modules: Dict[str, ModuleFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        self._by_name: Dict[str, List[str]] = {}
        self._home: Dict[str, ModuleFacts] = {}
        for facts in modules:
            key = facts.module or facts.path
            self.modules[key] = facts
            for fn in facts.functions.values():
                self.functions[fn.funcref] = fn
                self._home[fn.funcref] = facts
                last = fn.qualname.split(".")[-1]
                self._by_name.setdefault(last, []).append(fn.funcref)
        for refs in self._by_name.values():
            refs.sort()
        self._module_names = sorted(self.modules, key=len, reverse=True)
        self._tainted_returns: Optional[FrozenSet[str]] = None
        self._tainted_elements: Optional[
            FrozenSet[Tuple[str, int]]
        ] = None
        self._sink_params: Optional[Dict[str, FrozenSet[int]]] = None
        self._writers: Optional[FrozenSet[str]] = None

    def path_of(self, ref: str) -> str:
        """Report path of the file defining a funcref."""
        return self._home[ref].path

    # -- call resolution ------------------------------------------------

    def resolve(self, site: CallSite) -> List[str]:
        """Candidate funcrefs of a call site (empty when unknown)."""
        if site.resolved is not None:
            return [site.resolved] if site.resolved in self.functions else []
        name = site.name
        if "." in name:
            # import-resolved dotted path: longest module prefix wins
            for module in self._module_names:
                prefix = module + "."
                if name.startswith(prefix):
                    qualname = name[len(prefix):]
                    fn = self.modules[module].functions.get(qualname)
                    if fn is not None:
                        return [fn.funcref]
                    return []
            # a dotted name outside the analyzed tree (time.time, np.zeros)
            if site.attr is None or name.split(".", 1)[0] != "self":
                return []
        last = site.attr if site.attr is not None else name
        candidates = self._by_name.get(last, [])
        if 0 < len(candidates) <= MAX_NAME_CANDIDATES:
            return list(candidates)
        return []

    def param_index(
        self, callee: FunctionFacts, site: CallSite, arg_key: str
    ) -> Optional[int]:
        """Map a call-site argument key to the callee's parameter index.

        Positional keys shift by one for attribute (bound-method) calls
        into a function whose first parameter is ``self``/``cls``.
        """
        if arg_key.isdigit():
            index = int(arg_key)
            if (
                site.kind == "attr"
                and callee.params
                and callee.params[0] in ("self", "cls")
            ):
                index += 1
            return index if index < len(callee.params) else None
        try:
            return callee.params.index(arg_key)
        except ValueError:
            return None

    # -- OST010: determinism taint --------------------------------------

    def tainted_returns(self) -> FrozenSet[str]:
        """Funcrefs whose return value is non-deterministic.

        Computed jointly with the per-*element* relation for functions
        whose returns are tuple literals (``return result, wall``), so a
        caller destructuring the result only inherits the taint of the
        element it keeps.
        """
        if self._tainted_returns is not None:
            return self._tainted_returns
        tainted: Set[str] = set()
        tainted_elems: Set[Tuple[str, int]] = set()
        changed = True
        while changed:
            changed = False
            for ref, fn in self.functions.items():
                if fn.ret_elements is not None:
                    for element, sub in enumerate(fn.ret_elements):
                        key = (ref, element)
                        if key in tainted_elems:
                            continue
                        if self._value_tainted(
                            fn, sub, tainted, tainted_elems
                        ):
                            tainted_elems.add(key)
                            changed = True
                if ref in tainted:
                    continue
                if self._value_tainted(
                    fn, fn.ret, tainted, tainted_elems
                ):
                    tainted.add(ref)
                    changed = True
        self._tainted_returns = frozenset(tainted)
        self._tainted_elements = frozenset(tainted_elems)
        return self._tainted_returns

    def tainted_elements(self) -> FrozenSet[Tuple[str, int]]:
        """(funcref, element) pairs with a non-deterministic element."""
        if self._tainted_elements is None:
            self.tainted_returns()
        return self._tainted_elements

    def _value_tainted(
        self,
        fn: FunctionFacts,
        value: TaintValue,
        tainted: Set[str],
        tainted_elems: Set[Tuple[str, int]],
    ) -> bool:
        if value.sources:
            return True
        for call_index in value.calls:
            site = fn.calls[call_index]
            candidates = self.resolve(site)
            if candidates and all(c in tainted for c in candidates):
                return True
        for call_index, element in value.elems:
            site = fn.calls[call_index]
            candidates = self.resolve(site)
            if candidates and all(
                self._elem_dep_tainted(c, element, tainted, tainted_elems)
                for c in candidates
            ):
                return True
        return False

    def _elem_dep_tainted(
        self,
        ref: str,
        element: int,
        tainted: Set[str],
        tainted_elems: Set[Tuple[str, int]],
    ) -> bool:
        callee = self.functions[ref]
        relts = callee.ret_elements
        if relts is None or element >= len(relts):
            # no element summary: degrade to the whole-return relation
            return ref in tainted
        return (ref, element) in tainted_elems

    def taint_sources(
        self,
        fn: FunctionFacts,
        taint: TaintValue,
        _seen: Optional[Set[Tuple]] = None,
    ) -> List[str]:
        """Resolve a symbolic taint to concrete source descriptions.

        Returns the non-deterministic sources reaching the value --
        directly, or through calls whose return is tainted (including
        param-to-return flows evaluated at the call site). Parameter
        taint is *not* a source here; it feeds :meth:`sink_params`.
        """
        tainted_rets = self.tainted_returns()
        seen = _seen if _seen is not None else set()
        sources: List[str] = list(taint.sources)
        for call_index in taint.calls:
            key = (fn.funcref, call_index)
            if key in seen:
                continue
            seen.add(key)
            site = fn.calls[call_index]
            candidates = self.resolve(site)
            if not candidates:
                continue
            per_candidate = [
                self._whole_call_entry(ref, site, fn, seen, tainted_rets)
                for ref in candidates
            ]
            # conservative: every candidate must contribute taint
            if per_candidate and all(per_candidate):
                for entry in per_candidate:
                    sources.extend(entry)
        for call_index, element in taint.elems:
            key = (fn.funcref, call_index, element)
            if key in seen:
                continue
            seen.add(key)
            site = fn.calls[call_index]
            candidates = self.resolve(site)
            if not candidates:
                continue
            per_candidate = []
            for ref in candidates:
                callee = self.functions[ref]
                relts = callee.ret_elements
                if relts is not None and element < len(relts):
                    sub = relts[element]
                    entry = list(sub.sources)
                    inner = TaintValue(
                        calls=sub.calls, elems=sub.elems
                    )
                    if not inner.is_empty():
                        entry.extend(
                            self.taint_sources(callee, inner, seen)
                        )
                    for pindex in sub.params:
                        for arg_key, arg_taint in site.arg_taints.items():
                            mapped = self.param_index(
                                callee, site, arg_key
                            )
                            if mapped == pindex:
                                entry.extend(
                                    self.taint_sources(
                                        fn, arg_taint, seen
                                    )
                                )
                    per_candidate.append(entry)
                else:
                    per_candidate.append(
                        self._whole_call_entry(
                            ref, site, fn, seen, tainted_rets
                        )
                    )
            if per_candidate and all(per_candidate):
                for entry in per_candidate:
                    sources.extend(entry)
        unique: List[str] = []
        for source in sources:
            if source not in unique:
                unique.append(source)
        return unique

    def _whole_call_entry(
        self,
        ref: str,
        site: CallSite,
        fn: FunctionFacts,
        seen: Set[Tuple],
        tainted_rets: FrozenSet[str],
    ) -> List[str]:
        """Sources one candidate callee contributes to a call result."""
        callee = self.functions[ref]
        if ref in tainted_rets:
            return self._ret_sources(callee, set()) or [
                f"{ref} (tainted return)"
            ]
        through: List[str] = []
        for pindex in callee.ret.params:
            for arg_key, arg_taint in site.arg_taints.items():
                mapped = self.param_index(callee, site, arg_key)
                if mapped == pindex:
                    through.extend(
                        self.taint_sources(fn, arg_taint, seen)
                    )
        return through

    def _ret_sources(
        self, fn: FunctionFacts, seen: Set[Tuple[str, int]]
    ) -> List[str]:
        """Concrete sources behind a tainted return, for messages."""
        return self.taint_sources(fn, fn.ret, seen)

    def sink_params(self) -> Dict[str, FrozenSet[int]]:
        """Per funcref: parameter indices flowing into determinism sinks."""
        if self._sink_params is not None:
            return self._sink_params
        flowing: Dict[str, Set[int]] = {
            ref: set() for ref in self.functions
        }
        changed = True
        while changed:
            changed = False
            for ref, fn in self.functions.items():
                current = flowing[ref]
                before = len(current)
                for sink in fn.sinks:
                    current.update(sink.taint.params)
                for site in fn.calls:
                    candidates = self.resolve(site)
                    if not candidates:
                        continue
                    for arg_key, arg_taint in site.arg_taints.items():
                        if not arg_taint.params:
                            continue
                        if all(
                            self._arg_reaches_sink(
                                flowing, candidate, site, arg_key
                            )
                            for candidate in candidates
                        ):
                            current.update(arg_taint.params)
                if len(current) != before:
                    changed = True
        self._sink_params = {
            ref: frozenset(indices) for ref, indices in flowing.items()
        }
        return self._sink_params

    def _arg_reaches_sink(
        self,
        flowing: Dict[str, Set[int]],
        candidate: str,
        site: CallSite,
        arg_key: str,
    ) -> bool:
        callee = self.functions[candidate]
        mapped = self.param_index(callee, site, arg_key)
        return mapped is not None and mapped in flowing[candidate]

    # -- OST011: resource-writer propagation ----------------------------

    def is_sanctioned_writer(self, ref: str) -> bool:
        """Public functions of the resource-owner module: the correct
        API for mutating the resource arrays, so calls to them are fine
        from anywhere and propagation stops there."""
        fn = self.functions[ref]
        if fn.module not in RESOURCE_WRITER_MODULES:
            return False
        return not fn.qualname.split(".")[-1].startswith("_")

    def writers(self) -> FrozenSet[str]:
        """Funcrefs that (transitively) write the resource arrays."""
        if self._writers is not None:
            return self._writers
        writers: Set[str] = {
            ref for ref, fn in self.functions.items() if fn.writes
        }
        changed = True
        while changed:
            changed = False
            for ref, fn in self.functions.items():
                if ref in writers:
                    continue
                for site in fn.calls:
                    candidates = self.resolve(site)
                    if not candidates:
                        continue
                    if all(
                        c in writers and not self.is_sanctioned_writer(c)
                        for c in candidates
                    ):
                        writers.add(ref)
                        changed = True
                        break
        self._writers = frozenset(writers)
        return self._writers
