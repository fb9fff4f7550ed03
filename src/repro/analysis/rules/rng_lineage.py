"""R5 — rng-lineage: every draw reachable from a fit traces to a seeded root.

R1 audits one function at a time inside the hot directories.  R5 closes the
gap that leaves open, using the project call graph
(:mod:`repro.analysis.callgraph`): **reachability beats directory layout.**
Any function reachable from an entry point — ``DCA.fit``, ``fit_many``,
``deferred_acceptance``, ``fit_bonus_points``, or the process-pool worker
``_plane_worker_fit`` — is audited for the R1 violation set
(global-singleton draws, *unseeded* ``default_rng()``, the stdlib
``random`` module, wall clocks) no matter which directory it lives in.  A
helper in ``tabular/`` that quietly pulls OS entropy is invisible to R1 and
flagged here, with the full call chain in the message.

Findings anchor at the draw/mint site, so the same-line
``# repro-lint: disable=R5`` escape hatch works exactly like R1's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, LintProject, ProjectRule
from .determinism import _GENERATOR_FACTORIES, _WALL_CLOCK

__all__ = ["RngLineageRule"]

#: Bare function names treated as audit entry points.  Matching on the
#: terminal name keeps the rule equally effective on the real tree
#: (``repro.core.dca.DCA.fit``) and on single-file fixtures (``fit``).
ENTRY_TERMINALS = (
    "fit",
    "fit_many",
    "fit_bonus_points",
    "deferred_acceptance",
    "_plane_worker_fit",
)


def _short(qualname: str) -> str:
    """Trim a qualname for chain display: last two dotted components."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(_short(part) for part in chain)


class RngLineageRule(ProjectRule):
    """Interprocedural determinism audit over the fit-reachable call graph."""

    id = "R5"
    title = "rng-lineage: fits reach only seeded, parent-owned randomness"

    def check_project(self, project: LintProject) -> Iterator[Finding]:
        graph = project.callgraph
        entries = [
            info.qualname
            for terminal in ENTRY_TERMINALS
            for info in graph.functions_named(terminal)
        ]
        for qualname, chain in sorted(graph.reachable_from(entries).items()):
            yield from self._check_function(graph.functions[qualname], chain)

    def _check_function(self, info, chain) -> Iterator[Finding]:
        module = info.module
        suffix = f" [reached via {_chain_text(chain)}]"
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call(node.func)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                terminal = name.rsplit(".", 1)[1]
                if terminal in _GENERATOR_FACTORIES:
                    if terminal == "default_rng" and not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node,
                            "unseeded np.random.default_rng() on a fit-reachable "
                            "path pulls OS entropy; derive the stream from a "
                            "seeded Generator parameter or DCAConfig.rng()"
                            + suffix,
                        )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"np.random.{terminal}() draws from the process-global "
                        "RNG singleton on a fit-reachable path; thread a "
                        "seeded Generator instead" + suffix,
                    )
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib {name}() draws from hidden global state on a "
                    "fit-reachable path; use a seeded np.random.Generator"
                    + suffix,
                )
            elif name in _WALL_CLOCK:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock call {name}() on a fit-reachable path makes "
                    "results depend on when they ran" + suffix,
                )
