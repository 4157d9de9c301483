"""EK01 env-knob registry.

Every ``MCSS_*`` environment knob read anywhere in the scanned trees
(``os.environ.get``/``os.environ[...]``/``os.getenv``, or the
validated helpers ``env_int``/``env_float`` from
``repro.resilience.knobs``) must be documented in docs/BENCHMARKS.md,
and every ``MCSS_*`` token the doc mentions must actually be read
somewhere -- the two-directional check ROADMAP.md asked for ("link
existence, not accuracy").  Reads are detected on string literals; a
knob name built dynamically cannot be checked and should not exist.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Tuple

from ..engine import Context, Finding
from ..registry import rule


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _literal_knob(node: ast.AST, prefix: str) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith(prefix):
            return node.value
    return None


#: The validated read helpers of repro.resilience.knobs: a literal
#: first argument at their call sites is an env-knob read.
_KNOB_HELPERS = ("env_int", "env_float")


def collect_env_reads(ctx: Context) -> "List[Tuple[str, int, str]]":
    """All (path, line, knob) env reads of prefixed knobs in scanned code."""
    prefix = ctx.config.env_knob_prefix
    reads: "List[Tuple[str, int, str]]" = []
    for sf in ctx.python_files():
        tree = sf.tree
        if tree is None:
            continue
        for node in ast.walk(tree):
            knob = None
            if isinstance(node, ast.Call) and node.args:
                fn = _dotted(node.func)
                if fn.endswith("os.environ.get") or fn == "os.getenv" or (
                    fn.endswith(".environ.get") or fn == "getenv"
                ):
                    knob = _literal_knob(node.args[0], prefix)
                elif fn in _KNOB_HELPERS or fn.endswith(
                    tuple("." + h for h in _KNOB_HELPERS)
                ):
                    knob = _literal_knob(node.args[0], prefix)
            elif isinstance(node, ast.Subscript):
                if _dotted(node.value).endswith("environ"):
                    sl = node.slice
                    # py3.8 ast.Index unwrap not needed on >=3.9
                    knob = _literal_knob(sl, prefix)
            if knob is not None:
                reads.append((sf.rel, node.lineno, knob))
    return reads


@rule("EK01", "env-knob-registry")
def check_ek01(ctx: Context) -> "List[Finding]":
    """MCSS_* env reads and docs/BENCHMARKS.md must agree both ways."""
    findings: "List[Finding]" = []
    prefix = ctx.config.env_knob_prefix
    doc_rel = ctx.config.env_knob_doc
    doc = ctx.file(doc_rel)
    if doc is None:
        return [Finding("EK01", doc_rel, 0, "env-knob registry doc missing")]

    token_re = re.compile(rf"\b{re.escape(prefix)}[A-Z0-9_]+\b")
    documented: "Dict[str, int]" = {}
    for lineno, line in enumerate(doc.lines, start=1):
        for tok in token_re.findall(line):
            documented.setdefault(tok, lineno)

    read_knobs: "Dict[str, Tuple[str, int]]" = {}
    for rel, lineno, knob in collect_env_reads(ctx):
        read_knobs.setdefault(knob, (rel, lineno))
        if knob not in documented:
            findings.append(Finding(
                "EK01", rel, lineno,
                f"env knob {knob} is read here but not documented in "
                f"{doc_rel}",
            ))
    for knob in sorted(documented):
        if knob not in read_knobs:
            findings.append(Finding(
                "EK01", doc_rel, documented[knob],
                f"env knob {knob} is documented but never read in the "
                "scanned trees (stale doc?)",
            ))
    return findings
