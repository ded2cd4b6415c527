#!/usr/bin/env python
"""Fail when a cache-key pin or fingerprint moved without the version
bump that makes the move legitimate.

    python scripts/pin_guard.py BASE_TREE HEAD_TREE

Reads, from both source trees and without importing either (``ast``):

* ``CACHE_SCHEMA``, ``TRACE_FINGERPRINTS`` and ``RESULT_FINGERPRINTS``
  from ``src/repro/core/exec/cachekey.py``;
* every pinned key (the ``*_KEYS`` dicts and ``SWEEP_KEY``) from
  ``tests/core/test_cachekey.py``;
* the field names of ``MachineConfig`` and ``ProgramSpec``, and the
  ``KERNEL_SCHEMA`` and ``COLUMNAR_SCHEMA`` the kernel and plan keys
  hash.

The rules, those ``tests/core/test_cachekey.py`` documents:

* a fingerprint that changed requires a changed ``CACHE_SCHEMA``;
* a key pin that changed requires a changed ``CACHE_SCHEMA`` or a
  changed set of config or spec field names; a kernel key may also move
  with ``KERNEL_SCHEMA``, a plan key with ``COLUMNAR_SCHEMA``.

Pins present in only one tree are not compared. Exits 1 and names every
broken rule, or prints one ``ok`` line.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

CACHEKEY = "src/repro/core/exec/cachekey.py"
PINS = "tests/core/test_cachekey.py"
FIELDS = {
    "MachineConfig": "src/repro/core/config.py",
    "ProgramSpec": "src/repro/trace/cfg.py",
}
FINGERPRINTS = ("TRACE_FINGERPRINTS", "RESULT_FINGERPRINTS")

#: Besides ``CACHE_SCHEMA``, the version constant a pin may move with,
#: and the module that defines it.
OWN_SCHEMA = {
    "KERNEL_KEYS": ("KERNEL_SCHEMA", "src/repro/core/passes/kernel.py"),
    "PLAN_KEYS": ("COLUMNAR_SCHEMA", "src/repro/trace/columnar.py"),
}


def _module(tree: Path, path: str) -> ast.Module:
    return ast.parse((tree / path).read_text(encoding="utf-8"), path)


def constants(tree: Path, path: str, wanted) -> dict:
    """Values of the module-level names *wanted* accepts that are
    literals (``DICT_KEYS = st.integers() | ...`` is no pin)."""
    found = {}
    for node in _module(tree, path).body:
        if isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and wanted(target.id):
                try:
                    found[target.id] = ast.literal_eval(value)
                except ValueError:
                    pass
    return found


def field_names(tree: Path, cls: str, path: str) -> tuple:
    """Annotated attribute names in the body of class *cls*."""
    for node in _module(tree, path).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return tuple(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            )
    raise SystemExit(f"{tree / path}: no class {cls}")


def read(tree: Path) -> dict:
    """Everything the rules compare, from one source tree."""
    state = constants(
        tree, CACHEKEY, lambda name: name == "CACHE_SCHEMA" or name in FINGERPRINTS
    )
    state["pins"] = constants(
        tree, PINS, lambda name: name.endswith("_KEYS") or name == "SWEEP_KEY"
    )
    state["fields"] = {cls: field_names(tree, cls, path) for cls, path in FIELDS.items()}
    for name, path in OWN_SCHEMA.values():
        state.update(constants(tree, path, lambda found, name=name: found == name))
    return state


def broken_rules(base: dict, head: dict) -> list:
    """One message per rule the move from *base* to *head* breaks."""
    if base["CACHE_SCHEMA"] != head["CACHE_SCHEMA"]:
        return []
    problems = [
        f"{name} changed without a CACHE_SCHEMA bump"
        for name in FINGERPRINTS
        if base.get(name) != head.get(name)
    ]
    if base["fields"] != head["fields"]:
        return problems
    for name in sorted(base["pins"].keys() & head["pins"].keys()):
        if base["pins"][name] == head["pins"][name]:
            continue
        schema = OWN_SCHEMA.get(name, (None,))[0]
        if schema is not None and base.get(schema) != head.get(schema):
            continue
        also = f", {schema}" if schema else ""
        problems.append(
            f"{name} in {PINS} changed without a CACHE_SCHEMA{also} bump or a "
            "changed set of MachineConfig/ProgramSpec fields"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the base commit")
    parser.add_argument("head", type=Path, help="source tree of the head commit")
    args = parser.parse_args(argv)
    base, head = read(args.base), read(args.head)
    problems = broken_rules(base, head)
    for problem in problems:
        print(f"pin guard: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"ok: CACHE_SCHEMA {base['CACHE_SCHEMA']} -> {head['CACHE_SCHEMA']}, "
        f"{len(head['pins'])} key pins and {len(FINGERPRINTS)} fingerprint "
        "tables moved only as the rules allow"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
