"""The detlint rule set: the determinism contract, statically enforced.

Each rule encodes one invariant from ROADMAP.md's "Guarded invariants"
section.  Rules are ordered by code; ``python -m repro.analysis --list-rules``
prints the same table the README documents, and ``tests/test_tooling.py``
keeps the two in sync.

Scoping conventions (see :class:`~repro.analysis.framework.FileContext`):

* *test code* (``test_*.py`` / ``conftest.py``) owns its seeds, so the
  entropy rules DET001/DET003 do not apply there;
* *benchmark code* (anything under ``benchmarks/`` or named ``bench*``)
  legitimately reads wall clocks, so DET002 does not apply there;
* the ordering rules DET004/DET005 only fire on the ordering-sensitive
  subsystems they protect (``core``/``ml`` trees, tie-break-sensitive
  modules);
* DET006 fires everywhere except ``core/eventlog.py`` itself, the only
  module allowed to mint the log envelope.
* DET007 only fires on the failure-handling subsystems (``core``/``faults``
  trees): a swallowed exception there turns an injected fault into silent
  trajectory divergence.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import (
    FileContext,
    Finding,
    Rule,
    register,
    registered_rules,
)

#: Legacy ``numpy.random.*`` module-level functions driven by the hidden
#: global ``RandomState`` — entropy that no seed in our code controls.
_NUMPY_GLOBAL_STATE_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "gamma",
        "poisson",
        "exponential",
        "lognormal",
        "weibull",
    }
)

#: ``random`` stdlib module-level entropy functions (same hidden-state issue).
_STDLIB_RANDOM_FNS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "getrandbits",
        "randbytes",
    }
)

#: Wall-clock reads forbidden outside benchmark code (DET002).
_WALL_CLOCK_FNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: RNG/stream constructors whose seed derivation DET003 audits.
_STREAM_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.RandomState",
    }
)

#: Modules whose trajectories hang on sort tie-breaks (DET005).  The flat
#: treebuilder's shared argsorts, the scheduler's placement ranking and the
#: optimizers' incumbent selection all feed seeded draw sequences, so an
#: unstable tie-break silently reshuffles trajectories across numpy versions
#: and platforms.
_TIEBREAK_SENSITIVE_BASENAMES = frozenset(
    {
        "treebuilder.py",
        "tree.py",
        "forest.py",
        "scheduler.py",
        "async_engine.py",
        "worker_index.py",
        "loop_oracle.py",
        "gp.py",
        "smac.py",
        "base.py",
        "acquisition.py",
    }
)

#: Stable sort kinds accepted by DET005 (numpy spells stable both ways).
_STABLE_KINDS = frozenset({"stable", "mergesort"})


def _call_name(node: ast.Call, ctx: FileContext) -> str:
    return ctx.imports.resolve(node.func) or ""


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class UnseededEntropy(Rule):
    """DET001: entropy nobody seeded — the trajectory is unreproducible."""

    code = "DET001"
    title = "unseeded entropy source"
    rationale = (
        "`np.random.default_rng()` without a seed, `np.random.seed`, or "
        "module-level `random.*` draws from ambient entropy / hidden global "
        "state; every stream must derive from an explicit master seed."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test_code

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_name(node, ctx)
        if not name:
            return
        if name == "numpy.random.default_rng":
            if not node.args or _is_none(node.args[0]):
                yield self.finding(
                    node,
                    ctx,
                    "np.random.default_rng() without a seed draws ambient "
                    "entropy — thread an explicit seed or Generator through "
                    "instead (see ROADMAP 'Guarded invariants')",
                )
            return
        if name.startswith("numpy.random."):
            fn = name.rsplit(".", 1)[1]
            if fn in _NUMPY_GLOBAL_STATE_FNS:
                yield self.finding(
                    node,
                    ctx,
                    f"legacy global-state entropy np.random.{fn}(...) — use a "
                    "seeded np.random.Generator owned by the caller",
                )
            return
        if name == "random.Random" and not node.args:
            yield self.finding(
                node, ctx, "random.Random() without a seed draws ambient entropy"
            )
            return
        if name.startswith("random."):
            fn = name.rsplit(".", 1)[1]
            if fn in _STDLIB_RANDOM_FNS:
                yield self.finding(
                    node,
                    ctx,
                    f"module-level random.{fn}(...) uses the hidden global "
                    "Mersenne state — use a seeded np.random.Generator",
                )


@register
class WallClockInCorePath(Rule):
    """DET002: wall-clock reads poison simulated time and resume equivalence."""

    code = "DET002"
    title = "wall-clock read outside benchmarks"
    rationale = (
        "`time.time`/`time.perf_counter`/`datetime.now` in core paths make "
        "trajectories depend on the host; simulated hours are the only clock. "
        "Provenance stamps need an allow-pragma with justification."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_benchmark_code

    def allows_pragma(self, ctx: FileContext) -> bool:
        """Scope the exemption surface inside the observability package.

        ``repro/obs`` may read host time in exactly one place — the
        injectable ``clock.py`` shim.  Everywhere else in ``obs/`` a
        wall-clock read stays a finding even behind a justified pragma, so
        instrumentation code cannot quietly grow its own timers."""
        if ctx.has_part("obs"):
            return ctx.basename == "clock.py"
        return True

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_name(node, ctx)
        if name in _WALL_CLOCK_FNS:
            yield self.finding(
                node,
                ctx,
                f"wall-clock read {name}(...) — core paths must use the "
                "simulated clock; real timestamps belong in benchmarks/ or "
                "in provenance records behind a justified allow-pragma",
            )


@register
class UntaggedRngStream(Rule):
    """DET003: streams derived by seed arithmetic instead of SeedSequence."""

    code = "DET003"
    title = "RNG stream without a SeedSequence domain tag"
    rationale = (
        "`default_rng(seed + k)` style derivation risks stream collisions "
        "(two domains landing on the same seed); derive streams from "
        "`np.random.SeedSequence([master, domain_tag, ...])` or `.spawn()` — "
        "`Perturbation.stream_for` in `faults/base.py` is the reference."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test_code

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_name(node, ctx)
        if name not in _STREAM_CONSTRUCTORS:
            return
        for arg in node.args:
            if isinstance(arg, ast.BinOp):
                yield self.finding(
                    arg,
                    ctx,
                    f"{name.rsplit('.', 1)[1]}(...) seeded by arithmetic on "
                    "another seed — collision-prone; build the stream from "
                    "np.random.SeedSequence([master, domain_tag, ...]) or "
                    "spawn() (see Perturbation.stream_for in faults/base.py)",
                )


@register
class UnorderedIteration(Rule):
    """DET004: hash-ordered iteration feeding ordering-sensitive consumers."""

    code = "DET004"
    title = "set/dict-keys iteration in ordering-sensitive code"
    rationale = (
        "Iterating a set (hash-ordered, randomised for str) or bare "
        "`.keys()` in `core/` or `ml/` feeds consumers whose draw order, "
        "placement or tell order defines the trajectory; iterate a sorted "
        "or insertion-ordered sequence instead."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.has_part("core", "ml")

    def _iter_findings(
        self, iter_node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            yield self.finding(
                iter_node,
                ctx,
                "iteration over a set literal/comprehension is hash-ordered "
                "— sort it (sorted(...)) or keep an ordered sequence",
            )
            return
        if isinstance(iter_node, ast.Call):
            name = _call_name(iter_node, ctx)
            if name in ("set", "frozenset"):
                yield self.finding(
                    iter_node,
                    ctx,
                    f"iteration over {name}(...) is hash-ordered — sort it "
                    "(sorted(...)) or deduplicate with dict.fromkeys to keep "
                    "first-seen order",
                )
                return
            if (
                isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr == "keys"
                and not iter_node.args
            ):
                yield self.finding(
                    iter_node,
                    ctx,
                    "iteration over .keys() hides the ordering contract — "
                    "iterate the mapping itself (insertion order) or "
                    "sorted(...) to make the order explicit",
                )
                return
        if isinstance(iter_node, ast.BinOp) and isinstance(
            iter_node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            operands = (iter_node.left, iter_node.right)
            for operand in operands:
                set_like = isinstance(operand, (ast.Set, ast.SetComp)) or (
                    isinstance(operand, ast.Call)
                    and _call_name(operand, ctx) in ("set", "frozenset")
                )
                if set_like:
                    yield self.finding(
                        iter_node,
                        ctx,
                        "iteration over a set expression is hash-ordered — "
                        "sort the result before iterating",
                    )
                    return

    def visit_For(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        yield from self._iter_findings(node.iter, ctx)  # type: ignore[attr-defined]

    def visit_comprehension(
        self, node: ast.comprehension, ctx: FileContext
    ) -> Iterator[Finding]:
        yield from self._iter_findings(node.iter, ctx)


@register
class UnstableSort(Rule):
    """DET005: unstable argsort/sort on tie-break-sensitive paths."""

    code = "DET005"
    title = "unstable sort on a tie-break-sensitive path"
    rationale = (
        "numpy's default introsort reorders equal keys differently across "
        "versions/platforms; on modules whose tie-breaks feed seeded draws "
        "(treebuilder, scheduler, optimizer incumbent selection) every "
        "argsort/np.sort must pass kind='stable'.  Python's sorted()/list"
        ".sort() are always stable and exempt."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.basename in _TIEBREAK_SENSITIVE_BASENAMES

    def _has_stable_kind(self, node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "kind":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value in _STABLE_KINDS
                )
        return False

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_name(node, ctx)
        is_np_sort = name in ("numpy.sort", "numpy.argsort")
        is_method_argsort = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "argsort"
        )
        if not (is_np_sort or is_method_argsort):
            return
        if self._has_stable_kind(node):
            return
        yield self.finding(
            node,
            ctx,
            "argsort/sort without kind='stable' on a tie-break-sensitive "
            "path — equal keys reorder across numpy versions and platforms, "
            "silently reshuffling seeded trajectories",
        )


@register
class EventLogEnvelopeMisuse(Rule):
    """DET006: only core/eventlog.py may mint the seq/kind log envelope."""

    code = "DET006"
    title = "event-log envelope minted outside core/eventlog.py"
    rationale = (
        "`append(..., seq=...)`/`append(..., kind=...)` or a hand-built "
        "{'seq': ..., 'kind': ...} record forges the write-ahead log "
        "envelope; sequence numbers and kinds are assigned only by "
        "EventLog.append, or replay's gap detection is meaningless."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.basename != "eventlog.py"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "append"):
            return
        reserved = [
            keyword.arg
            for keyword in node.keywords
            if keyword.arg in ("seq", "kind")
        ]
        if reserved:
            yield self.finding(
                node,
                ctx,
                f"reserved envelope key(s) {reserved} passed to append() — "
                "EventLog.append assigns seq/kind itself and rejects these "
                "at runtime",
            )

    def visit_Dict(self, node: ast.Dict, ctx: FileContext) -> Iterator[Finding]:
        keys = {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        if {"seq", "kind"} <= keys:
            yield self.finding(
                node,
                ctx,
                "hand-built event-log envelope record ({'seq': ..., 'kind': "
                "...}) — only core/eventlog.py mints the envelope; go "
                "through EventLog.append",
            )


@register
class SwallowedException(Rule):
    """DET007: bare/blanket exception swallowing in failure-handling code."""

    code = "DET007"
    title = "swallowed exception in failure-handling code"
    rationale = (
        "A bare `except:` (or an `except Exception:` whose body is only "
        "`pass`) in `core/` or `faults/` silently eats the very faults the "
        "subsystem exists to surface: an injected crash or a bookkeeping "
        "bug becomes invisible trajectory divergence instead of a loud "
        "failure.  Catch the specific exception, or handle and re-raise."
    )

    #: Handler types broad enough to swallow injected faults wholesale.
    _BLANKET_NAMES = frozenset({"Exception", "BaseException"})

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.has_part("core", "faults") and not ctx.is_test_code

    def _is_blanket(self, type_node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_blanket(elt, ctx) for elt in type_node.elts)
        name = ctx.imports.resolve(type_node)
        return name in self._BLANKET_NAMES

    @staticmethod
    def _body_is_noop(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare `...`
            return False
        return True

    def visit_ExceptHandler(
        self, node: ast.ExceptHandler, ctx: FileContext
    ) -> Iterator[Finding]:
        if node.type is None:
            yield self.finding(
                node,
                ctx,
                "bare `except:` catches everything (KeyboardInterrupt "
                "included) — name the exception(s) this handler is for",
            )
            return
        if self._is_blanket(node.type, ctx) and self._body_is_noop(node.body):
            yield self.finding(
                node,
                ctx,
                "`except Exception: pass` swallows injected faults and "
                "bookkeeping bugs without a trace — handle the specific "
                "exception, or log and re-raise",
            )


#: Ordered rule classes (public registry; the README table mirrors this).
RULES = registered_rules()


def build_rules() -> List[Rule]:
    """Fresh rule instances for one checker run."""
    return [rule_cls() for rule_cls in RULES]
