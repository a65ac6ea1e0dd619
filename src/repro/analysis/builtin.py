"""The built-in REP rules.

Each rule enforces one invariant the reproduction's determinism or
architecture depends on:

========  ==============================================================
REP001    all wall-clock time flows through ``repro.clock``
REP002    all randomness flows through the seeded ``repro.rand`` streams
REP003    raised exceptions derive from ``ReproError``
REP004    no bare/broad ``except`` that can swallow ``ReproError``
REP005    import layering (substrates never import core; nobody imports cli)
REP006    no mutable default arguments
REP007    no unordered set/dict iteration feeding report output
REP008    public functions carry a docstring or a return annotation
REP009    no builtin ``hash()`` outside ``__hash__`` (salted per process)
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, register


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    """The attribute chain of an expression, e.g. ``np.random.seed``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _inside_sorted_call(node: ast.AST, ctx) -> bool:
    for ancestor in ctx.ancestors(node):
        if (
            isinstance(ancestor, ast.Call)
            and isinstance(ancestor.func, ast.Name)
            and ancestor.func.id in ("sorted", "min", "max")
        ):
            return True
    return False


def _inside_type_checking_block(node: ast.AST, ctx) -> bool:
    """Whether ``node`` sits under an ``if TYPE_CHECKING:`` guard.

    Such imports never execute at runtime, so they are type-only edges
    and must not count as layering violations.
    """
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.If):
            test = ancestor.test
            if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
                return True
            if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
                return True
    return False


#: Substrate packages (layer 1): independent simulated systems.
SUBSTRATES = (
    "dns", "whois", "passivedns", "honeypot", "blocklist",
    "dga", "squatting",
)
#: Foundation packages (layer 0): importable from anywhere.
FOUNDATION = (
    "errors", "clock", "rand", "version", "analysis",
    # The fault harness and resilience primitives are deliberately
    # content-agnostic (they never import a substrate), so any
    # layer may depend on them.
    "faults", "resilience",
)

#: Fully-qualified wall-clock reads banned outside ``repro.clock``.
#: Shared between the per-file REP001 ban and the REP101 call-graph
#: taint propagation.
WALL_CLOCK_QUALNAMES = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


def layer_of(module: str) -> Optional[int]:
    """The architectural layer of a dotted module name (None: external)."""
    if module == "repro" or module in ("repro.cli", "repro.__main__"):
        return 4
    if not module.startswith("repro."):
        return None
    head = module.split(".")[1]
    if head == "core":
        return 3
    if head == "workloads":
        return 2
    if head in SUBSTRATES:
        return 1
    if head in FOUNDATION:
        return 0
    return None


def layer_name(layer: int) -> str:
    """Human name for a layer index."""
    return ("foundation", "substrate", "workloads", "core", "cli")[layer]


@register
class NoWallClock(Rule):
    """REP001 — simulated time only; no wall-clock reads outside clock.py.

    Invariant:
        Every timestamp in the pipeline comes from a
        ``repro.clock.SimClock`` advanced by the workload, never from
        the host's wall clock.

    Why:
        The paper's NXDomain measurements are time-bucketed; a run
        whose timestamps depend on when the code executed can never
        be reproduced bit-for-bit.

    Good::

        def ingest(records, clock):
            stamp = clock.now()

    Bad::

        import time

        def ingest(records):
            stamp = time.time()
    """

    rule_id = "REP001"
    severity = Severity.ERROR
    description = (
        "wall-clock reads (datetime.now/today, time.time) are banned "
        "outside repro.clock; use SimClock"
    )
    node_types = (ast.Call, ast.ImportFrom)

    _BANNED_CALLS = {
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("time", "time"),
        ("time", "time_ns"),
    }
    _BANNED_FROM_TIME = {"time", "time_ns"}
    _EXEMPT_MODULES = ("repro.clock",)

    def applies_to(self, ctx) -> bool:
        return ctx.module not in self._EXEMPT_MODULES

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in self._BANNED_FROM_TIME:
                        yield self.finding(
                            ctx,
                            node,
                            f"wall-clock import 'from time import "
                            f"{alias.name}'; simulated time must come "
                            "from repro.clock.SimClock",
                        )
            return
        dotted = _dotted(node.func)
        if len(dotted) >= 2 and dotted[-2:] in self._BANNED_CALLS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock call {'.'.join(dotted)}(); simulated time "
                "must come from repro.clock.SimClock",
            )


@register
class NoUnseededRandomness(Rule):
    """REP002 — every stream derives from the seeded repro.rand factory.

    Invariant:
        All randomness flows through ``repro.rand`` — either
        ``make_rng(seed)`` or a ``SeedSequenceFactory`` child — never
        the stdlib ``random`` module or numpy's global state.

    Why:
        Global RNG state is shared mutable state: any import-order or
        call-order change silently reshuffles every downstream draw,
        which makes the synthetic query traces unreproducible.

    Good::

        from repro import rand

        def sample(records, rng):
            return rng.choice(len(records))

    Bad::

        import random

        def sample(records):
            return random.randrange(len(records))
    """

    rule_id = "REP002"
    severity = Severity.ERROR
    description = (
        "stdlib random / numpy global randomness / unseeded default_rng "
        "are banned outside repro.rand; use rand.make_rng or "
        "SeedSequenceFactory"
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    _LEGACY_GLOBAL = {
        "seed", "rand", "randn", "randint", "random", "choice",
        "shuffle", "permutation", "normal", "uniform", "bytes",
    }
    _EXEMPT_MODULES = ("repro.rand",)

    def applies_to(self, ctx) -> bool:
        return ctx.module not in self._EXEMPT_MODULES

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        advice = "; use repro.rand.make_rng or a SeedSequenceFactory child"
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.finding(
                        ctx, node, "stdlib 'random' module imported" + advice
                    )
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" or (
                node.module or ""
            ).startswith("random."):
                yield self.finding(
                    ctx, node, "stdlib 'random' module imported" + advice
                )
            elif node.module in ("numpy.random", "np.random"):
                yield self.finding(
                    ctx, node, "direct numpy.random import" + advice
                )
            return
        dotted = _dotted(node.func)
        if len(dotted) >= 2 and dotted[-2] == "random":
            attr = dotted[-1]
            if attr == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, "unseeded default_rng() call" + advice
                )
            elif attr in self._LEGACY_GLOBAL:
                yield self.finding(
                    ctx,
                    node,
                    f"global numpy.random.{attr}() draws from shared "
                    "state" + advice,
                )
            elif attr in ("RandomState", "Generator", "PCG64"):
                yield self.finding(
                    ctx,
                    node,
                    f"direct numpy.random.{attr}(...) construction" + advice,
                )
        elif dotted and dotted[-1] == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node, "unseeded default_rng() call" + advice
            )


@register
class RaisesDeriveFromReproError(Rule):
    """REP003 — library raises use the ReproError hierarchy.

    Invariant:
        Every exception raised by library code derives from
        ``repro.errors.ReproError``; builtin classes like
        ``ValueError`` are reserved for Python itself.

    Why:
        Callers distinguish "the pipeline rejected this input" from
        "the interpreter broke" by catching ``ReproError``; a builtin
        raise punches a hole in that contract.

    Good::

        from repro.errors import ConfigError

        def parse(text):
            raise ConfigError(f"bad zone file: {text!r}")

    Bad::

        def parse(text):
            raise ValueError(f"bad zone file: {text!r}")
    """

    rule_id = "REP003"
    severity = Severity.ERROR
    description = (
        "raised exceptions must derive from repro.errors.ReproError "
        "(builtin classes like ValueError are banned)"
    )
    node_types = (ast.Raise,)

    _BANNED = frozenset({
        "ValueError", "TypeError", "KeyError", "IndexError",
        "RuntimeError", "Exception", "BaseException", "OSError",
        "IOError", "ArithmeticError", "ZeroDivisionError",
        "AttributeError", "LookupError", "StopIteration",
        "StopAsyncIteration", "EOFError", "BufferError", "MemoryError",
        "SystemError", "OverflowError", "RecursionError",
        "FileNotFoundError", "PermissionError", "FileExistsError",
        "NotADirectoryError", "IsADirectoryError", "UnicodeError",
        "UnicodeDecodeError", "UnicodeEncodeError",
    })

    def visit(self, node: ast.Raise, ctx) -> Iterable[Finding]:
        exc = node.exc
        if exc is None:
            return
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in self._BANNED:
            yield self.finding(
                ctx,
                node,
                f"raise of builtin {target.id}; raise a "
                "repro.errors.ReproError subclass (e.g. ConfigError) "
                "instead",
            )


@register
class NoBroadExcept(Rule):
    """REP004 — no handler broad enough to swallow ReproError silently.

    Invariant:
        No ``except:`` or ``except Exception:`` block that does not
        re-raise; handlers name the specific error classes they can
        actually recover from.

    Why:
        A broad handler swallows ``ReproError`` — including the
        determinism violations the rest of this linter exists to
        surface — and converts a loud failure into silent bad data.

    Good::

        try:
            record = parse(line)
        except ParseError:
            skipped += 1

    Bad::

        try:
            record = parse(line)
        except Exception:
            pass
    """

    rule_id = "REP004"
    severity = Severity.ERROR
    description = (
        "bare 'except:' and 'except Exception:' without re-raise swallow "
        "ReproError; catch specific classes"
    )
    node_types = (ast.ExceptHandler,)

    _BROAD = ("Exception", "BaseException")

    def visit(self, node: ast.ExceptHandler, ctx) -> Iterable[Finding]:
        broad = self._broad_name(node.type)
        if broad is None:
            return
        if any(isinstance(inner, ast.Raise) for stmt in node.body
               for inner in ast.walk(stmt)):
            return
        yield self.finding(
            ctx,
            node,
            f"{broad} swallows ReproError; catch the specific error "
            "classes or re-raise",
        )

    def _broad_name(self, expr: Optional[ast.AST]) -> Optional[str]:
        if expr is None:
            return "bare 'except:'"
        candidates = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for candidate in candidates:
            dotted = _dotted(candidate)
            if dotted and dotted[-1] in self._BROAD:
                return f"'except {dotted[-1]}:' without re-raise"
        return None


@register
class ImportLayering(Rule):
    """REP005 — the dependency DAG flows one way.

    Invariant:
        Imports point toward the foundation: foundation < substrates
        < workloads < core < cli, and nothing imports ``repro.cli``.
        ``if TYPE_CHECKING:`` imports are type-only edges and are
        exempt.

    Why:
        Substrates (dns, whois, honeypot, ...) stay independently
        testable only while they cannot reach upward; one upward
        import couples every layer above it into the import cycle.

    Good::

        # in repro/core/pipeline.py
        from repro.dns import cache

    Bad::

        # in repro/dns/cache.py
        from repro.core import pipeline
    """

    rule_id = "REP005"
    severity = Severity.ERROR
    description = (
        "layering: foundation < substrates < workloads < core < cli; "
        "imports may only point downward and nothing imports repro.cli"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        source_layer = self._layer(ctx.module)
        if source_layer is None:
            return
        if _inside_type_checking_block(node, ctx):
            # Type-only imports never execute; they are not layering
            # edges (satellite fix: REP005 used to flag these).
            return
        for target in self._targets(node, ctx.module):
            if target in ("repro.cli", "repro.__main__"):
                if ctx.module not in ("repro.__main__",):
                    yield self.finding(
                        ctx,
                        node,
                        f"{ctx.module} imports {target}; the CLI is the "
                        "top of the stack and nothing may depend on it",
                    )
                continue
            target_layer = self._layer(target)
            if target_layer is None:
                continue
            if target_layer > source_layer:
                yield self.finding(
                    ctx,
                    node,
                    f"{ctx.module} (layer {self._layer_name(source_layer)}) "
                    f"imports {target} (layer "
                    f"{self._layer_name(target_layer)}); imports must "
                    "point toward the foundation",
                )

    def _targets(self, node: ast.AST, source: str) -> Iterable[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
            return
        module = node.module or ""
        if node.level:
            base = source.split(".")
            # level 1 from repro.dns.cache -> repro.dns
            base = base[: len(base) - node.level] or base[:1]
            module = ".".join(base + ([module] if module else []))
        yield module

    @staticmethod
    def _layer(module: str) -> Optional[int]:
        return layer_of(module)

    @staticmethod
    def _layer_name(layer: int) -> str:
        return layer_name(layer)


@register
class NoMutableDefaults(Rule):
    """REP006 — default argument values must be immutable.

    Invariant:
        No function parameter defaults to ``[]``, ``{}``, ``set()``,
        or any other mutable constructed once at definition time.

    Why:
        A mutable default is evaluated once and shared across calls;
        state leaks between invocations and results depend on call
        history — the opposite of a reproducible pipeline stage.

    Good::

        def collect(records, sink=None):
            sink = [] if sink is None else sink

    Bad::

        def collect(records, sink=[]):
            sink.extend(records)
    """

    rule_id = "REP006"
    severity = Severity.ERROR
    description = "mutable default arguments ([], {}, set()) are banned"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
        "deque", "bytearray",
    })

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                name = getattr(node, "name", "<lambda>")
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default argument in {name}(); use None "
                    "and construct inside the body",
                )

    def _is_mutable(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            return bool(dotted) and dotted[-1] in self._MUTABLE_CALLS
        return False


@register
class OrderedReportIteration(Rule):
    """REP007 — report code orders its iteration explicitly.

    Invariant:
        In report/figure code, every set or dict-view iteration that
        can feed output passes through ``sorted(...)``.

    Why:
        Set and dict iteration order is hash- and insertion-dependent;
        two identical runs would emit tables and figures with rows in
        different orders, breaking diff-based verification.

    Good::

        for domain in sorted(counts.keys()):
            emit(domain, counts[domain])

    Bad::

        for domain in counts.keys():
            emit(domain, counts[domain])
    """

    rule_id = "REP007"
    severity = Severity.ERROR
    description = (
        "set/dict iteration feeding report output must pass through "
        "sorted(...) in report/figure code"
    )
    node_types = (ast.Call, ast.Set, ast.SetComp)

    def applies_to(self, ctx) -> bool:
        return ctx.config.is_report_code(ctx.relpath)

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            if not _inside_sorted_call(node, ctx):
                yield self.finding(
                    ctx,
                    node,
                    "set construction in report code; iteration order is "
                    "hash-dependent — sort before emitting output",
                )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items")
            and not node.args
            and not node.keywords
        ):
            if not _inside_sorted_call(node, ctx):
                yield self.finding(
                    ctx,
                    node,
                    f".{node.func.attr}() iteration feeding report output "
                    "without an explicit sorted(...)",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "set":
            if not _inside_sorted_call(node, ctx):
                yield self.finding(
                    ctx,
                    node,
                    "set(...) in report code; iteration order is "
                    "hash-dependent — sort before emitting output",
                )


@register
class PublicApiDocumented(Rule):
    """REP008 — public functions are documented or typed.

    Invariant:
        Every module-level public function (and public method of a
        public top-level class) carries a docstring or a return
        annotation.

    Why:
        The reproduction is grown across many sessions by different
        authors; an undocumented public surface forces each one to
        reverse-engineer intent from call sites.

    Good::

        def bucket(stamp) -> int:
            return int(stamp) // 3600

    Bad::

        def bucket(stamp):
            return int(stamp) // 3600
    """

    rule_id = "REP008"
    severity = Severity.WARNING
    description = (
        "public functions need a docstring or a return annotation"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        if node.name.startswith("_"):
            return
        parent = ctx.parent(node)
        while isinstance(parent, (ast.If, ast.Try)):
            parent = ctx.parent(parent)
        if isinstance(parent, ast.ClassDef):
            if parent.name.startswith("_"):
                return
            grandparent = ctx.parent(parent)
            if not isinstance(grandparent, ast.Module):
                return
        elif not isinstance(parent, ast.Module):
            return  # nested helper; its enclosing function is the API
        if ast.get_docstring(node) is None and node.returns is None:
            yield self.finding(
                ctx,
                node,
                f"public function {node.name}() has neither a docstring "
                "nor a return annotation",
            )


@register
class NoBuiltinHash(Rule):
    """REP009 — builtin ``hash()`` never feeds a result.

    Invariant:
        The builtin ``hash()`` is called only inside a ``__hash__``
        method, where it combines field hashes for in-process dict and
        set lookups.

    Why:
        Python salts ``hash()`` of ``str`` and ``bytes`` per process
        (``PYTHONHASHSEED``), so a value derived from it differs
        between two runs of the same seed.  Stable identifiers come
        from a digest such as ``repro.rand.derive_seed``.

    Good::

        handle = f"h-{derive_seed(0, name) % 10_000_000}"

    Bad::

        handle = f"h-{abs(hash(name)) % 10_000_000}"
    """

    rule_id = "REP009"
    severity = Severity.ERROR
    description = (
        "builtin hash() is salted per process; outside __hash__ use a "
        "stable digest (repro.rand.derive_seed)"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        if _dotted(node.func) not in (("hash",), ("builtins", "hash")):
            return
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if ancestor.name == "__hash__":
                    return
                break
        yield self.finding(
            ctx,
            node,
            "builtin hash() is salted per process; derive stable values "
            "from a digest (repro.rand.derive_seed)",
        )
