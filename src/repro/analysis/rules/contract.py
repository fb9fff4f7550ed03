"""R3 — the compiled-objective shared-state contract.

``CompiledObjective`` subclasses that can be shared across jobs and worker
processes promise that a worker can rebuild them from what the parent
exports: a class defining ``export_state`` (producer) must also define
``from_state`` (worker-side consumer).  Without it, the compiled state a
process-pool worker is handed cannot be turned back into an objective.

The same pairing check also runs at class-definition time via
``CompiledObjective.__init_subclass__``; this rule catches classes that are
never imported by the test suite.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, LintModule, Rule

__all__ = ["CompiledContractRule"]


class CompiledContractRule(Rule):
    """Audit export_state/from_state pairing."""

    id = "R3"
    title = "compiled-objective contract: export_state pairs with from_state"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                statement.name
                for statement in node.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "export_state" in methods and "from_state" not in methods:
                yield self.finding(
                    module,
                    node,
                    f"class {node.name} defines export_state() without "
                    "from_state(); workers cannot rebuild the compiled state",
                )
