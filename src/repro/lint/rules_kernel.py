"""Kernel-parity rules (K4xx).

Every vectorised batch kernel in this repo is pinned bit-identical to a
slow per-item oracle (``_reference_*``) by the equivalence test suites —
that pairing *is* the determinism contract of PRs 1–2.  K401 makes the
pairing structural: a ``*_batch`` kernel with no named reference in its
module is a kernel nobody can pin.

Non-obvious pairings are declared, not suppressed: a ``# reprolint:
reference=<name>`` pragma on (or directly above) the kernel's ``def``
names the oracle, and the rule verifies the named function exists in
the module — so the pragma documents a real pairing rather than waving
the rule away.  Pytest ``test_*`` functions are never kernels
(``test_rejects_bad_delta`` tests one); other genuinely non-kernel
``*_batch`` names (a metrics counter) use an ordinary ``disable=K401``
suppression.

K402 guards the sparse backend's memory model: modules marked
``# reprolint: sparse-safe`` promise O(E + chunk) peak memory, so any
NumPy allocation whose shape multiplies two instance-scaled dimensions
(``(n, max_degree)``, ``(num_voters, num_voters)``, …) breaks the
promise at million-voter sizes even when it is numerically correct.
Legitimate budgeted grids — ``(rows, n)`` uniforms whose row count the
chunker bounds — have only one instance-scaled axis and pass untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, register_rule


def _is_kernel_name(name: str) -> bool:
    if name.startswith("_reference"):
        return False
    return name.endswith("_batch") or name.startswith("_batch_")


def _is_delta_kernel_name(name: str) -> bool:
    if name.startswith("_reference"):
        return False
    return (
        name.endswith("_delta")
        or name.startswith("_delta_")
        or name.endswith("_incremental")
        or name.startswith("_incremental_")
    )


def _reference_candidates(name: str) -> Iterator[str]:
    yield f"_reference_{name}"
    stripped = name.lstrip("_")
    if stripped != name:
        yield f"_reference_{stripped}"


class _ReferencePairingRule(Rule):
    """Shared machinery: kernels matching a name predicate must pair
    with a ``_reference_*`` oracle or a verified reference pragma."""

    kernel_kind = "kernel"

    @staticmethod
    def matches(name: str) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        names = ctx.function_names()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("test_") or not self.matches(node.name):
                continue
            pragma = ctx.reference_pragma(node.lineno)
            if pragma is not None:
                for ref in pragma:
                    if ref not in names:
                        yield self.finding(
                            ctx,
                            node,
                            f"kernel {node.name!r} declares reference "
                            f"{ref!r}, but no such function exists in "
                            "this module",
                        )
                continue
            if any(c in names for c in _reference_candidates(node.name)):
                continue
            expected = " or ".join(_reference_candidates(node.name))
            yield self.finding(
                ctx,
                node,
                f"{self.kernel_kind} {node.name!r} has no reference oracle; "
                f"define {expected}, or name the oracle with "
                "'# reprolint: reference=<fn>'",
            )


@register_rule
class KernelReferenceRule(_ReferencePairingRule):
    """K401: batch kernel without a ``_reference`` oracle."""

    id = "K401"
    name = "kernel-missing-reference"
    description = (
        "Every *_batch / _batch_* kernel must have a _reference_<name> "
        "oracle in the same module, or a '# reprolint: reference=<fn>' "
        "pragma naming its oracle explicitly; unpinned kernels cannot "
        "be equivalence-tested against a per-item ground truth."
    )
    kernel_kind = "batch kernel"
    matches = staticmethod(_is_kernel_name)


@register_rule
class DeltaReferenceRule(_ReferencePairingRule):
    """K403: incremental/delta kernel without a from-scratch oracle.

    An incremental kernel's whole correctness claim is "patching equals
    recomputing"; without a named from-scratch oracle that claim cannot
    be pinned by the bit-identity suites.  Same contract shape as K401,
    applied to the ``*_delta`` / ``*_incremental`` naming family.
    """

    id = "K403"
    name = "delta-missing-reference"
    description = (
        "Every *_delta / _delta_* / *_incremental / _incremental_* "
        "kernel must have a _reference_<name> from-scratch oracle in "
        "the same module, or a '# reprolint: reference=<fn>' pragma "
        "naming its oracle explicitly; an unpinned incremental kernel's "
        "patch-equals-recompute claim cannot be equivalence-tested."
    )
    kernel_kind = "incremental kernel"
    matches = staticmethod(_is_delta_kernel_name)


_DENSE_ALLOCATORS = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
}

_VOTER_DIM_NAMES = {"n", "num_voters", "num_vertices", "n_voters", "nnz"}
"""Identifiers that denote an instance-scaled count of voters/vertices/
edges when they appear inside a shape element."""

_SCALED_SUBSTRING = "degree"
"""Any identifier mentioning degrees (``max_degree``, ``degrees``…) is
instance-scaled: degree bounds grow with the graph, not the chunker."""


def _is_instance_scaled(element: ast.AST) -> bool:
    """Whether one shape element scales with the instance size.

    Walks the element expression (so ``2 * n`` and ``self.num_voters``
    both count) collecting plain names and attribute tails; anything
    matching a voter/vertex count or mentioning degrees marks the whole
    element as instance-scaled.
    """
    for sub in ast.walk(element):
        if isinstance(sub, ast.Name):
            candidates = (sub.id,)
        elif isinstance(sub, ast.Attribute):
            candidates = (sub.attr,)
        else:
            continue
        for name in candidates:
            low = name.lower()
            if low in _VOTER_DIM_NAMES or _SCALED_SUBSTRING in low:
                return True
    return False


@register_rule
class DensePerVoterAllocRule(Rule):
    """K402: dense per-voter × per-voter allocation in a sparse-safe module."""

    id = "K402"
    name = "dense-per-voter-alloc"
    description = (
        "Modules marked '# reprolint: sparse-safe' must keep peak memory "
        "O(E + chunk); a NumPy allocation whose shape has two or more "
        "instance-scaled dimensions (n, num_voters, num_vertices, "
        "*degree*) materialises a dense per-voter grid that defeats the "
        "sparse backend at scale."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.sparse_safe:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted not in _DENSE_ALLOCATORS:
                continue
            shape = None
            if node.args:
                shape = node.args[0]
            else:
                for kw in node.keywords:
                    if kw.arg == "shape":
                        shape = kw.value
                        break
            if not isinstance(shape, (ast.Tuple, ast.List)):
                continue
            scaled = [e for e in shape.elts if _is_instance_scaled(e)]
            if len(scaled) < 2:
                continue
            yield self.finding(
                ctx,
                node,
                f"{dotted} allocates a shape with {len(scaled)} "
                "instance-scaled dimensions in a sparse-safe module; "
                "dense per-voter grids are O(n·Δ) memory — use the CSR "
                "arrays or a chunked (rows, n) layout instead",
            )
