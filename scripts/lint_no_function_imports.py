#!/usr/bin/env python3
"""Structural lints for the ``repro`` package.

Two checks, both run by ``main`` (and by
``tests/hmc/test_lint_clean.py`` in tier-1 CI):

1. **No function-level imports** in ``src/repro/hmc/``.  Imports inside
   functions on the per-cycle path (``hmcsim_process_rqst`` and friends
   ran one per packet before the active-set engine hoisted them) cost a
   dict lookup and a call per execution and hide the module's real
   dependency graph.  Two idioms are exempt: imports inside a
   module-level ``__getattr__`` (PEP 562 lazy attribute access), the
   standard way to break an import cycle — never on the simulation hot
   path — and the composition root's registered optional-dependency
   factories (``ALLOWED_LAZY_FACTORIES``), which import once per
   constructed component.

2. **Containment**: one table-driven check of the shape "only these
   paths may import those names" (:data:`RULES`).  A banned target is a
   dotted module (any import spelling of it or below it) or a dotted
   ``module.Name``; a module may always import what it defines itself.

   * ``seam`` — the core modules (``device.py``, ``sim.py``) build every
     pipeline stage through :mod:`repro.hmc.composition`, never by
     importing a registered component implementation.
   * ``oracle`` — the differential oracle shares no code with the
     machinery it checks: it may use the wire format, command tables,
     address map, AMO reference semantics and the public
     :class:`~repro.hmc.sim.HMCSim` facade, but never the cycle-engine
     internals (``device``, ``vault``, ``xbar``, ``link``, ``vector``).
   * ``vector`` — the numpy batch engine (``repro.hmc.vector``) is named
     only by the composition root's registry factory and by itself;
     everything else selects it with ``xbar="vector"``.
   * ``workload`` — concrete workload frontends are named only by the
     modules that define (and register) them; everything else resolves
     them by string through ``WORKLOADS``.

   The ``seam`` and ``workload`` targets are what the live registries
   hold (:meth:`repro.registry.Registry.classes`), so a newly registered
   built-in is covered automatically.

Usage:  python scripts/lint_no_function_imports.py
Exit status 0 when clean, 1 with one ``path:line`` diagnostic per
violation otherwise.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SRC_ROOT = SRC / "repro"
LINTED = SRC_ROOT / "hmc"

#: Function names whose body may import (lazy-import idioms).
ALLOWED_FUNCTIONS = frozenset({"__getattr__"})

#: Per-file exemptions: (file name, function name) pairs whose body may
#: import.  The composition root's optional-dependency factories import
#: lazily by design — the import runs once per constructed component,
#: never on the cycle path, and converting the ImportError into a
#: ComponentError is the whole point.
ALLOWED_LAZY_FACTORIES = frozenset({("composition.py", "_vector_xbar")})


def _shown(path: Path) -> Path:
    return path.relative_to(REPO) if path.is_relative_to(REPO) else path


def violations_in(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, enclosing function)`` for each bad import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = ALLOWED_FUNCTIONS | {
        func for name, func in ALLOWED_LAZY_FACTORIES if name == path.name
    }

    def visit(node: ast.AST, func: str) -> Iterator[Tuple[int, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in allowed:
                    yield from visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if func:
                    yield child.lineno, func
            else:
                yield from visit(child, func)

    yield from visit(tree, "")


def run(root: Path = LINTED) -> List[str]:
    """Return one diagnostic line per function-level import under ``root``."""
    return [
        f"{_shown(path)}:{lineno}: import inside "
        f"{func}() — hoist it to module level"
        for path in sorted(root.rglob("*.py"))
        for lineno, func in violations_in(path)
    ]


# -- containment ---------------------------------------------------------------


def registered(*registries: str) -> Set[str]:
    """``module.Name`` of every implementation in the named registries.

    Each argument is ``"module:attribute"`` of a registry, or of a dict
    of them (the per-seam component registries).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    targets: Set[str] = set()
    for spec in registries:
        module, _, attr = spec.partition(":")
        found = getattr(importlib.import_module(module), attr)
        for registry in found.values() if isinstance(found, dict) else [found]:
            for impl in registry.classes().values():
                name = getattr(impl, "__qualname__", "").split(".")[0]
                if name:
                    targets.add(f"{impl.__module__}.{name}")
    return targets


class Rule(NamedTuple):
    """Files under ``scope`` (minus ``allowed``) may not import ``banned``."""

    scope: Tuple[Path, ...]
    banned: Callable[[], Set[str]]
    allowed: Tuple[Path, ...]
    hint: str


#: The engine internals the oracle must never import.
ORACLE_BANNED = frozenset(
    f"repro.hmc.{mod}" for mod in ("device", "vault", "xbar", "link", "vector")
)

RULES = {
    "seam": Rule(
        (LINTED / "device.py", LINTED / "sim.py"),
        lambda: registered("repro.hmc.components:COMPONENTS"),
        (),
        "core modules construct seams through repro.hmc.composition",
    ),
    "oracle": Rule(
        (SRC_ROOT / "oracle",),
        lambda: set(ORACLE_BANNED),
        (),
        "the functional reference must stay independent of the datapath "
        "it checks",
    ),
    "vector": Rule(
        (SRC_ROOT,),
        lambda: {"repro.hmc.vector"},
        (LINTED / "composition.py",),
        "only repro.hmc.composition (the registry factory) may name the "
        "vector engine; select it with xbar='vector' instead",
    ),
    "workload": Rule(
        (SRC_ROOT,),
        lambda: registered("repro.workloads.registry:WORKLOADS"),
        (),
        "frontend classes are registered, not imported; resolve it with "
        "WORKLOADS.get(name) instead",
    ),
}


def _imported(node: ast.AST) -> List[str]:
    """Dotted names an import statement binds (``M`` and ``M.name``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _within(name: str, target: str) -> bool:
    return name == target or name.startswith(target + ".")


def _module_of(path: Path) -> Optional[str]:
    if not path.is_relative_to(SRC):
        return None
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _files(scope: Iterable[Path]) -> Iterator[Path]:
    for root in scope:
        yield from sorted(root.rglob("*.py")) if root.is_dir() else [root]


def contain(
    rule: str,
    scope: Optional[Sequence[Path]] = None,
    allowed: Optional[Sequence[Path]] = None,
) -> List[str]:
    """One diagnostic per banned target an import under the rule's scope
    names (``scope``/``allowed`` override the table's, for tests)."""
    spec = RULES[rule]
    exempt = tuple(spec.allowed if allowed is None else allowed)
    banned = spec.banned()
    out: List[str] = []
    for path in _files(spec.scope if scope is None else scope):
        if any(path == a or path.is_relative_to(a) for a in exempt):
            continue
        own = _module_of(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = _imported(node)
            hits = sorted(
                target
                for target in banned
                if any(_within(name, target) for name in names)
                and not (own and (_within(own, target) or _within(target, own)))
            )
            out.extend(
                f"{_shown(path)}:{node.lineno}: [{rule}] imports "
                f"{target!r} — {spec.hint}"
                for target in hits
            )
    return out


def main() -> int:
    diags = run() + [d for rule in RULES for d in contain(rule)]
    for diag in diags:
        print(diag)
    if diags:
        print(
            f"\n{len(diags)} lint violation(s) — see "
            f"scripts/lint_no_function_imports.py"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
