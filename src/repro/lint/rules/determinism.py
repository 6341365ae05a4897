"""DET001/DET002: the bit-identical-replay contract, as rules.

The repo's core guarantee is serial == 1-worker == N-worker == TCP with
bit-identical verdicts and budgets.  Two things break it in practice:
ambient nondeterminism (unseeded RNGs, wall clocks, per-process string-hash
salt) sneaking into a deterministic module, and set iteration order leaking
into emitted output.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.context import ModuleContext, Project
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: ``random.<fn>()`` calls that consume the shared, ambiently seeded module
#: RNG.  Any of them inside the deterministic closure couples verdicts to
#: whatever else touched the module RNG first.
_AMBIENT_RNG = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "lognormvariate",
        "vonmisesvariate",
        "seed",
    }
)

#: Wall-clock reads.  ``time.monotonic``/``perf_counter`` stay legal — they
#: feed telemetry, which by contract never feeds back into verdicts.
_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: Modules whose ``__init__`` may default-construct ``random.Random()`` —
#: the sanctioned default-seed constructors the issue carves out.
_SANCTIONED_PREFIXES = ("repro/dsg/", "repro/kqe/")


def _contains_hash_call(expression: ast.AST) -> bool:
    for node in ast.walk(expression):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            return True
    return False


@register_rule
class UnseededRandomness(Rule):
    rule_id = "DET001"
    title = "ambient randomness or wall clock in a deterministic module"
    rationale = (
        "Modules reachable from core/, kqe/, dsg/, engine/ or plan/ are under "
        "the bit-identical replay contract.  random.random() and friends read "
        "the process-global RNG, random.Random() with no seed draws from the "
        "OS, hash(str) inside a seed expression varies with PYTHONHASHSEED "
        "across processes, and time.time()/datetime.now() differ per run — "
        "any of them makes serial, pooled and TCP campaigns diverge.  Use "
        "random.Random(<literal or derived seed>); derive per-name seeds "
        "with hashlib (stable across processes), never hash()."
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        if module.logical not in project.deterministic_closure():
            return
        imported = module.imported_modules()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            finding = None
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "random" and "random" in imported:
                    finding = self._check_random(module, node, func.attr)
                elif base == "time" and "time" in imported:
                    if func.attr in _WALL_CLOCK_TIME:
                        finding = self._finding(
                            module,
                            node,
                            f"wall-clock read time.{func.attr}()",
                            "use time.monotonic()/perf_counter() for "
                            "durations; never let wall time reach a verdict",
                        )
            # datetime.datetime.now() / datetime.date.today()
            if (
                finding is None
                and func.attr in _WALL_CLOCK_DATETIME
                and "datetime" in imported
                and self._is_datetime_base(func.value)
            ):
                finding = self._finding(
                    module,
                    node,
                    f"wall-clock read datetime {func.attr}()",
                    "deterministic modules must not read calendar time",
                )
            if finding is not None:
                yield finding

    def _check_random(
        self, module: ModuleContext, node: ast.Call, attr: str
    ) -> Optional[Finding]:
        if attr == "Random":
            if not node.args and not node.keywords:
                if self._sanctioned_default(module, node):
                    return None
                return self._finding(
                    module,
                    node,
                    "random.Random() constructed without a seed",
                    "pass a literal or derived seed (repo convention: "
                    "small literal primes)",
                )
            if any(_contains_hash_call(arg) for arg in node.args):
                return self._finding(
                    module,
                    node,
                    "hash() inside a random.Random seed expression",
                    "hash(str) is salted per process (PYTHONHASHSEED); "
                    "derive the seed from hashlib.sha256 instead",
                )
            return None
        if attr in _AMBIENT_RNG:
            return self._finding(
                module,
                node,
                f"ambient module-level RNG call random.{attr}()",
                "route randomness through a seeded random.Random instance",
            )
        return None

    def _sanctioned_default(self, module: ModuleContext, node: ast.Call) -> bool:
        if not module.logical.startswith(_SANCTIONED_PREFIXES):
            return False
        function = module.enclosing_function(node)
        return function is not None and function.name == "__init__"

    @staticmethod
    def _is_datetime_base(value: ast.expr) -> bool:
        if isinstance(value, ast.Name):
            return value.id == "datetime"
        return (
            isinstance(value, ast.Attribute)
            and value.attr in ("datetime", "date")
            and isinstance(value.value, ast.Name)
            and value.value.id == "datetime"
        )

    def _finding(
        self, module: ModuleContext, node: ast.AST, message: str, hint: str
    ) -> Finding:
        line, col = module.finding_location(node)
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=line,
            col=col,
            message=message,
            hint=hint,
        )


@register_rule
class UnsortedSetIteration(Rule):
    rule_id = "DET002"
    title = "set iteration order leaking into ordered output"
    rationale = (
        "Sets iterate in salted-hash order, different per process.  Inside "
        "the deterministic subsystems, materializing a set into an ordered "
        "container — list(s), tuple(s), sep.join(s), a list comprehension "
        "or a yielding loop over s — bakes that order into emitted output, "
        "hashes or snapshots.  Wrap the set in sorted(...) first (the repo "
        "does this everywhere order can escape)."
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        if not module.is_deterministic:
            return
        functions: List[Optional[ast.AST]] = [None]
        functions.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for function in functions:
            scope = function if function is not None else module.tree
            set_names = self._set_typed_names(scope)
            for finding in self._check_scope(module, scope, function, set_names):
                yield finding

    # ------------------------------------------------------- type inference

    def _is_set_expr(self, node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    def _set_typed_names(self, scope: ast.AST) -> Set[str]:
        """Names assigned a set-typed value anywhere in this scope (fixpoint)."""
        names: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in names
                        and self._is_set_expr(node.value, names)
                    ):
                        names.add(target.id)
                        changed = True
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if node.target.id not in names and self._is_set_annotation(
                        node.annotation
                    ):
                        names.add(node.target.id)
                        changed = True
        return names

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Name) and target.id in (
            "set",
            "frozenset",
            "Set",
            "FrozenSet",
        )

    # --------------------------------------------------------------- sinks

    def _check_scope(
        self,
        module: ModuleContext,
        scope: ast.AST,
        function: Optional[ast.AST],
        set_names: Set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            # Nested functions get their own scope pass.
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if module.enclosing_function(node) is not function:
                continue
            ordered_sink = self._ordered_sink(node, set_names)
            if ordered_sink is None:
                continue
            if self._inside_sorted(module, node):
                continue
            line, col = module.finding_location(node)
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=line,
                col=col,
                message=ordered_sink,
                hint="wrap the set in sorted(...) before it becomes ordered "
                "output",
            )

    def _ordered_sink(
        self, node: ast.AST, set_names: Set[str]
    ) -> Optional[str]:
        if isinstance(node, ast.Call) and len(node.args) == 1:
            argument = node.args[0]
            if isinstance(node.func, ast.Name) and node.func.id in (
                "list",
                "tuple",
            ):
                if self._is_set_expr(argument, set_names):
                    return (
                        f"{node.func.id}() over a set materializes "
                        "hash-salted iteration order"
                    )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and self._is_set_expr(argument, set_names)
            ):
                return "str.join over a set emits hash-salted order"
        if isinstance(node, ast.ListComp) and self._is_set_expr(
            node.generators[0].iter, set_names
        ):
            return "list comprehension over a set materializes hash-salted order"
        if isinstance(node, ast.For) and self._is_set_expr(
            node.iter, set_names
        ):
            if any(
                isinstance(child, (ast.Yield, ast.YieldFrom))
                for statement in node.body
                for child in ast.walk(statement)
            ):
                return "yielding loop over a set emits hash-salted order"
        return None

    @staticmethod
    def _inside_sorted(module: ModuleContext, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == "sorted"
            ):
                return True
        return False

