#!/usr/bin/env python
"""Static audit of the package's public surface.

An export that no paper artifact reaches still has to be documented,
instrumented and fuzzed, and a function nothing calls still has to be
read.  The audit walks the source tree (it imports nothing, so it runs
on any checkout) and fails on:

* (a) a name in the ``__all__`` of a ``repro`` package that no file
  under ``src/``, ``benchmarks/``, ``examples/``, ``scripts/`` or
  ``perfbench/`` references outside its own definition and the
  package ``__init__``'s re-export — an export only tests reach — unless
  :data:`ALLOWLIST` names it with one of the :data:`REASONS`;
* (b) a function or method under ``src/`` that nothing references
  outside its own definition, in those directories or in ``tests/``;
* (c) an :data:`ALLOWLIST` entry whose name is reached after all, is
  no longer exported, or gives no known reason.

A *reference* is the name as a code token anywhere in a file: a
name, an attribute, a field of an f-string, or a string literal that is
the name exactly (``getattr(obj, "name")``, registry keys).  Comments,
docstrings and other prose are not code, so a name mentioned only there
reaches nothing.  Imports and ``__all__`` lists in a package
``__init__`` are re-exports, not references.  Dunder methods and
definitions under a registering decorator (``@register_pass``,
``@register_job_type``, a Table II ``@_demo`` cell, …) are reached
through their registry and are exempt.

Run directly (exit 1 on problems) or import :func:`audit` from a test.

Usage::

    python scripts/check_surface.py
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: This file: its allowlist names exports without reaching them.
SELF = Path("scripts", "check_surface.py")
#: Directories whose references reach an export.
REACH_DIRS = ("src", "benchmarks", "examples", "scripts", "perfbench")
#: Directories that only count for the dead-function check (b).
TEST_DIRS = ("tests",)

#: Why a test-only export may stay.
REASONS = {
    "reset-hook": "resets process-wide state so tests run in isolation",
    "reference": "a reference implementation a test compares a "
                 "production path against",
    "api-helper": "drives or reads an API that non-test code reaches",
}

#: ``"<package>.<name>" -> (reason, what it serves)`` for exports only
#: tests reach.
ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "repro.netlist.reset_engine_cache": (
        "reset-hook", "drops the process-local compiled-netlist cache"),
    "repro.netlist.simulate_reference": (
        "reference", "the interpreted semantics tests/test_engine.py "
        "property-tests the compiled engine against"),
    "repro.netlist.exhaustive_truth_table": (
        "reference", "the exhaustive function of a small netlist that "
        "tests and tests/key_oracle.py compare rewrites, mappings and "
        "recovered keys against"),
    "repro.formal.var_of": (
        "reference", "literal decoding in tests/reference_sat.py, the "
        "reference solver the CDCL solver is checked against"),
    "repro.netlist.decode_int": (
        "api-helper", "reads back what encode_int spreads over nets"),
    "repro.netlist.step_sequential": (
        "api-helper", "clocks a sequential netlist through simulate()'s "
        "state argument, as scan and sequential-leakage paths do"),
    "repro.dft.scan_load": (
        "api-helper", "shifts a state into insert_scan's chain, the "
        "inverse of scan_unload that netlist_scan_attack runs"),
    "repro.dft.grade_vectors": (
        "api-helper", "reads the fault coverage of run_atpg's vectors "
        "through detection_words"),
    "repro.sca.encode_shares": (
        "api-helper", "shares inputs for isw_and and decode_shares, "
        "which the Fig. 2 benchmark runs"),
    "repro.sca.mutual_information": (
        "api-helper", "one-column call of _mi_table, the kernel "
        "mia_attack runs"),
    "repro.hls.multi_byte_kernel": (
        "api-helper", "multi-lane DFGs for list_schedule and binding, "
        "which the HLS Table II cells run"),
    "repro.core.run_cell": (
        "api-helper", "runs one registered Table II cell demo, as "
        "run_all runs them all"),
}

#: Decorators that return the function they wrap unchanged and register
#: it nowhere; any other decorator is taken to register its target.
TRANSPARENT_DECORATORS = frozenset({
    "abstractmethod", "cache", "cached_property", "classmethod",
    "contextmanager", "dataclass", "deleter", "getter", "lru_cache",
    "property", "setter", "staticmethod", "total_ordering", "wraps",
})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Span = Tuple[int, int]


class _Index:
    """Word occurrences per file: ``word -> [(path, line), ...]``."""

    def __init__(self) -> None:
        self.hits: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)

    def add(self, path: Path, words: Iterable[Tuple[str, int]],
            skip: Iterable[Span]) -> None:
        skipped = {line for lo, hi in skip for line in range(lo, hi + 1)}
        for word, line in words:
            if line not in skipped:
                self.hits[word].append((path, line))

    def outside(self, word: str, path: Optional[Path],
                span: Span) -> List[Tuple[Path, int]]:
        """Occurrences of ``word``, less those inside ``span`` of
        ``path``."""
        return [(p, line) for p, line in self.hits.get(word, ())
                if not (p == path and span[0] <= line <= span[1])]


def _prose(tree: ast.Module, lines: List[str]) -> Dict[Tuple[int, int],
                                                  Tuple[int, int]]:
    """Start -> end token position of every string that is a statement
    of its own: docstrings and other strings nothing reads."""
    def position(line: int, byte_col: int) -> Tuple[int, int]:
        text = lines[line - 1].encode("utf-8")[:byte_col]
        return line, len(text.decode("utf-8"))

    return {position(node.lineno, node.col_offset):
            position(node.end_lineno, node.end_col_offset)
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _string_words(token: tokenize.TokenInfo) -> List[Tuple[str, int]]:
    """Code words of one string token: the fields of an f-string, or
    the literal itself when it is exactly an identifier."""
    line = token.start[0]
    prefix = token.string[:token.string.index(token.string[-1])].lower()
    if "f" in prefix:
        return [(node.id if isinstance(node, ast.Name) else node.attr,
                 line + node.lineno - 1)
                for node in ast.walk(ast.parse(token.string, mode="eval"))
                if isinstance(node, (ast.Name, ast.Attribute))]
    value = ast.literal_eval(token.string)
    if isinstance(value, str) and _IDENT.fullmatch(value):
        return [(value, line)]
    return []


def _words(source: str, tree: ast.Module) -> List[Tuple[str, int]]:
    """``(word, line)`` for every code token that names something."""
    prose = _prose(tree, source.splitlines())
    words: List[Tuple[str, int]] = []
    prose_end = (0, 0)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            words.append((token.string, token.start[0]))
        elif token.type == tokenize.STRING:
            prose_end = prose.get(token.start, prose_end)
            if token.end > prose_end:
                words.extend(_string_words(token))
    return words


def _span(node: ast.AST) -> Span:
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _registered(node: ast.AST) -> bool:
    """Whether a definition is put into a registry where it is made:
    under a registering decorator, or ``NAME = register(...)``."""
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
        return "register" in _decorator_name(node.value)
    return any(_decorator_name(d) not in TRANSPARENT_DECORATORS
               for d in getattr(node, "decorator_list", ()))


def _reexport_spans(tree: ast.Module) -> List[Span]:
    """Top-level imports and ``__all__`` of a package ``__init__``."""
    return [_span(node) for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            or _binds(node, "__all__")]


def _exports(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if _binds(node, "__all__"):
            return [e.value for e in node.value.elts]
    return []


class _Tree:
    """The ``.py`` files of one checkout; those under ``src/`` parsed."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.words: Dict[Path, List[Tuple[str, int]]] = {}
        self.trees: Dict[Path, ast.Module] = {}
        for top in REACH_DIRS + TEST_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                if path.relative_to(root) == SELF:
                    continue
                source = path.read_text()
                tree = ast.parse(source, str(path))
                self.words[path] = _words(source, tree)
                if top == "src":
                    self.trees[path] = tree

    def files(self, dirs: Iterable[str]) -> List[Path]:
        return [p for p in self.words
                if p.relative_to(self.root).parts[0] in dirs]

    def package_inits(self) -> List[Path]:
        return [p for p in self.files(("src",))
                if p.name == "__init__.py"]

    def definition(self, init: Path, name: str
                   ) -> Tuple[Optional[Path], Optional[ast.AST]]:
        """The file and top-level node that define ``name`` as
        re-exported by the package ``__init__`` at ``init``."""
        path, seen = init, set()
        while path in self.trees and path not in seen:
            seen.add(path)
            target = None
            for node in self.trees[path].body:
                if _binds(node, name):
                    return path, node
                if (isinstance(node, ast.ImportFrom) and node.level
                        and any((a.asname or a.name) == name
                                for a in node.names)):
                    base = path.parent
                    for _ in range(node.level - 1):
                        base = base.parent
                    mod = base.joinpath(*(node.module or "").split("."))
                    target = (mod / "__init__.py" if mod.is_dir()
                              else mod.with_suffix(".py"))
            if target is None:
                break
            path = target
        return None, None

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()


def _binds(node: ast.AST, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name
                   for t in node.targets)
    if isinstance(node, ast.AnnAssign):
        return isinstance(node.target, ast.Name) and node.target.id == name
    return False


def _index(tree: _Tree, dirs: Iterable[str]) -> _Index:
    index = _Index()
    for path in tree.files(dirs):
        skip = (_reexport_spans(tree.trees[path])
                if path.name == "__init__.py" and
                path.relative_to(tree.root).parts[0] == "src" else ())
        index.add(path, tree.words[path], skip)
    return index


def _package(tree: _Tree, init: Path) -> str:
    return ".".join(init.parent.relative_to(tree.root / "src").parts)


def audit(root: Path = REPO_ROOT,
          allowlist: Optional[Dict[str, Tuple[str, str]]] = None
          ) -> List[str]:
    """Return one problem string per surface violation (empty = clean)."""
    allowlist = ALLOWLIST if allowlist is None else allowlist
    tree = _Tree(Path(root))
    reach = _index(tree, REACH_DIRS)
    everywhere = _index(tree, REACH_DIRS + TEST_DIRS)
    problems: List[str] = []

    exported: Set[str] = set()
    for init in tree.package_inits():
        package = _package(tree, init)
        for name in _exports(tree.trees[init]):
            key = f"{package}.{name}"
            exported.add(key)
            path, node = tree.definition(init, name)
            if node is not None and _registered(node):
                continue
            span = _span(node) if node is not None else (0, -1)
            refs = reach.outside(name, path, span)
            if key in allowlist:
                if refs:
                    where, line = refs[0]
                    problems.append(
                        f"{key}: allowlisted, but {tree.rel(where)}:{line} "
                        f"references it — drop the allowlist entry")
            elif not refs:
                where = tree.rel(path) if path else tree.rel(init)
                problems.append(
                    f"{key}: exported, but no file under "
                    f"{', '.join(REACH_DIRS)} references it outside "
                    f"its definition ({where}) — delete it, or "
                    f"allowlist it with one of {sorted(REASONS)}")

    for key, entry in sorted(allowlist.items()):
        if key not in exported:
            problems.append(f"{key}: allowlisted, but no package "
                            f"exports it — drop the allowlist entry")
        reason = entry[0] if isinstance(entry, tuple) and entry else None
        if reason not in REASONS:
            problems.append(f"{key}: allowlist reason {reason!r} is not "
                            f"one of {sorted(REASONS)}")

    for path in tree.files(("src",)):
        for node in _functions(tree.trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _registered(node):
                continue
            if not everywhere.outside(name, path, _span(node)):
                problems.append(
                    f"{tree.rel(path)}:{node.lineno}: {name} is never "
                    f"called or named anywhere else — delete it")
    return problems


def _functions(node: ast.AST):
    """Every function or method definition, at any nesting depth
    (only statements are walked; expressions define no functions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        if isinstance(child, ast.stmt):
            yield from _functions(child)


def main() -> int:
    problems = audit()
    if problems:
        print(f"surface audit: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"surface audit: every export is reached "
          f"({len(ALLOWLIST)} test-only exports allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
