"""UQ01 sorted-distinct primitive.

On NumPy >= 2.3 a plain ``np.unique`` takes a hash path, many times
slower than a sort on the integer id arrays this repository dedups
(docs/ARCHITECTURE.md has the measurement).  The set routines built on
it (``np.union1d``, ``np.setdiff1d``, ``np.intersect1d``,
``np.setxor1d``) inherit the path.
:func:`repro.core.segsearch.sorted_unique` is the repository's one
sorted-distinct primitive, so UQ01 flags, anywhere under ``src/``:

- every call of those four set routines; and
- ``np.unique`` called without a ``return_*`` keyword (with one, NumPy
  sorts).

The declared referee definitions (RF01) and seeded generator
definitions (RF02) are exempt: their bodies may only change with a
fingerprint refresh or a ``GENERATOR_VERSION`` bump, so they keep their
own copies.  Anything else that needs the call carries an inline
``# repolint: allow(UQ01): <reason>``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..engine import Context, Finding
from ..fingerprint import locate
from ..registry import rule

_SCOPE = "src/"
_SET_ROUTINES = ("union1d", "setdiff1d", "intersect1d", "setxor1d")
_FLAGGED = ("unique",) + _SET_ROUTINES


def _numpy_names(tree: ast.Module) -> "Tuple[Set[str], Dict[str, str]]":
    """Local names bound to numpy, and to its flagged members."""
    modules: "Set[str]" = set()
    members: "Dict[str, str]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    modules.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in _FLAGGED:
                    members[alias.asname or alias.name] = alias.name
    return modules, members


def _callee(
    func: ast.AST, modules: "Set[str]", members: "Dict[str, str]"
) -> "Optional[str]":
    """The flagged numpy routine ``func`` names, if any."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in modules
        and func.attr in _FLAGGED
    ):
        return func.attr
    if isinstance(func, ast.Name):
        return members.get(func.id)
    return None


@rule("UQ01", "sorted-distinct-primitive")
def check_uq01(ctx: Context) -> "List[Finding]":
    """No hash-path np.unique or set routines under src/."""
    findings: "List[Finding]" = []
    for sf in ctx.python_files():
        tree = sf.tree
        if tree is None or not sf.rel.startswith(_SCOPE):
            continue
        modules, members = _numpy_names(tree)
        if not modules and not members:
            continue
        exempt: "Set[int]" = set()
        pinned = list(ctx.config.referees.get(sf.rel, ())) + list(
            ctx.config.generators.get(sf.rel, ())
        )
        for name in pinned:
            node = locate(tree, name)
            if node is not None:
                exempt.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            name = _callee(node.func, modules, members)
            if name is None:
                continue
            if name == "unique":
                if any(
                    kw.arg is not None and kw.arg.startswith("return_")
                    for kw in node.keywords
                ):
                    continue
                message = (
                    "`np.unique` without a return_* keyword takes NumPy's "
                    "hash path; use repro.core.segsearch.sorted_unique"
                )
            else:
                message = (
                    f"`np.{name}` dedups through np.unique's hash path; use "
                    "repro.core.segsearch.sorted_unique (or sorted_member)"
                )
            findings.append(Finding("UQ01", sf.rel, node.lineno, message))
    return findings
