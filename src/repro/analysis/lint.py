"""The repo lint gate: AST rules the engine's conventions depend on.

Run as ``python -m repro.analysis.lint src benchmarks examples`` (exit
status 1 on any finding), via ``make lint``, or programmatically through
:func:`lint_paths`. Rules (see ``docs/ANALYSIS.md``):

* **unknown-event** — every ``<expr>.emit("name", ...)`` literal in
  engine code must be registered in ``repro.obs.events.EVENT_TYPES``.
* **dead-event** — every catalogue entry must be emitted somewhere
  (checked only when the scan covers ``repro/obs/events.py``).
* **event-flow** — an ``.emit(name, ...)`` whose first argument is a
  *variable* is resolved by constant propagation through the enclosing
  scopes; the resolved string must be registered in ``EVENT_TYPES``,
  and a name no propagation can resolve is itself a finding — an
  event the catalogue test cannot see is an event the doc contract
  cannot pin.
* **determinism** — no ``random`` imports, ``time.time``/``time_ns``,
  or ``datetime.now/utcnow/today`` outside ``repro/common/rng.py`` and
  ``repro/faults/``; the engine draws randomness from
  ``DeterministicRng`` and time from the logical clock.
* **error-hierarchy** — engine code raises only the
  ``repro.common.errors`` classes (plus ``NotImplementedError`` stubs
  and data-model exceptions inside dunder methods).
* **bare-except** — no ``except:`` anywhere.
* **swallowed-exception** — a handler that catches a *builtin*
  exception class and whose body is only ``pass``/``continue``
  swallows a failure the engine's error hierarchy never saw; return
  or record the failure, or catch a ``repro.common.errors`` class
  (whose swallows are deliberate protocol decisions). The hierarchy's
  home, ``repro/common/errors.py``, is exempt.
* **import-surface** — ``examples/`` and ``benchmarks/`` import only
  the ``repro.api`` facade, never engine internals — with one carve-
  out: ``benchmarks/`` may import ``repro.analysis`` submodules (the
  lint/sanitizer/static tooling is itself a measurement surface).
* **page-discipline** — only ``repro/storage/`` packs an entry or makes,
  writes or drops an image (``pack_entry`` / ``SlottedPage(`` /
  ``write_page`` / ``drop_page``): a leaf's bytes come from a buffer-pool
  write-back alone, so WAL-before-write and the write-back order cannot
  be bypassed.
* **dist-isolation** — the partition engine list (``._engines``) is
  touched only inside ``repro/dist/``; everything else goes through the
  ``ShardedDatabase`` facade (or its ``partition()`` accessor), so no
  code path can reach across partitions behind the coordinator's back.
* **transport-discipline** — *inside* ``repro/dist/``, the 2PC/DML
  protocol methods (``insert``/``commit``/``prepare``/``decide``/
  ``resolve``/``recover_*``/...) never touch ``._engines`` directly:
  all coordinator → partition traffic rides the ``repro.dist.net``
  transport, so the ``net.*`` fault sites see every protocol message.
  Construction, schema fan-out, folded reads, and operator accessors
  may still hold the engine list.
* **logged-write** — the row-change log records (``InsertRecord`` /
  ``GhostRecord`` / ``ReviveRecord`` / ``UpdateRecord`` /
  ``CleanupRecord``) are constructed only under ``repro/wal/`` and in
  ``repro/txn/write.py``, and an index's one mutator ``.set_entry(`` is
  called only there, by the recovery target (``repro/core/indexes.py``)
  and under ``repro/storage/``; everything else changes rows through the
  write module's ``put`` / ``ghost`` / ``patch`` / ``erase``, so no
  write can skip the log, the version stamp or the ghost cleaner's work
  list.
* **one-codec** — a log record and a page entry have one byte layout,
  ``repro/wal/codec.py``: ``json`` is not imported anywhere under
  ``repro/storage/`` nor in ``repro/wal/{records,log,analysis,
  recovery}.py`` (a second encoder would size, stamp or store a record
  differently from the log), and ``struct`` is imported by engine code
  only in ``repro/wal/codec.py`` and ``repro/storage/pages.py`` (the
  page header and slot directory).
* **one-settle** — a transaction has one finish path and one rollback
  walker. In engine code no ``except BaseException`` / ``except
  Exception`` handler calls ``.abort(``: "abort unless it was a crash"
  is ``Database.settle``'s job (it does so in its ``finally``), and a
  hand-written copy is how work got logged on a crashed engine. And
  ``CompensationRecord`` is constructed only under ``repro/wal/`` — by
  ``repro.wal.recovery.undo``, which online rollback, savepoints and
  in-doubt resolution all call.
* **lazy-envelope** — the log carries only what recovery reads. In
  engine code ``CommitRecord`` / ``AbortRecord`` are constructed only in
  ``repro/txn/manager.py`` and ``Participant.resolve_in_doubt``
  (``repro/core/participant.py``), and
  ``EndRecord`` only in ``repro/wal/recovery.py`` (``undo`` writes it
  after a rollback's last CLR).
"""

import ast
import builtins
import pathlib

RULES = (
    "unknown-event",
    "dead-event",
    "event-flow",
    "determinism",
    "error-hierarchy",
    "bare-except",
    "swallowed-exception",
    "import-surface",
    "page-discipline",
    "dist-isolation",
    "transport-discipline",
    "logged-write",
    "one-codec",
    "one-settle",
    "lazy-envelope",
)

#: a constant-propagation cell bound more than once with different
#: values (or to a non-string): resolution gives up rather than guess.
_AMBIGUOUS = object()

#: the error hierarchy's own module — exempt from swallowed-exception
#: (it defines what a deliberate swallow even is).
_ERRORS_MODULE = ("common", "errors.py")

#: benchmarks/ may import the analysis tooling directly; the lint gate,
#: sanitizers and static analyzer are measurement surfaces, not engine
#: internals.
_BENCH_EXTRA_SURFACE = "repro.analysis"

#: names with homes: ``name -> (rule, homes, message)``. Calling one —
#: constructing a record, or ``x.set_entry(`` — anywhere but under a
#: home (a path prefix below ``repro/``) is a finding: anywhere at all
#: for ``logged-write``, in engine code for the other two rules.
_WRITE_HOMES = (("wal",), ("txn", "write.py"))
_LOGGED_WRITE = (
    "logged-write", _WRITE_HOMES,
    "{name} constructed outside repro/wal/ and repro/txn/write.py; change "
    "rows through repro.txn.write.put / ghost / patch / erase so the log, "
    "the version stamp and the ghost cleaner all hear of it",
)
_ENVELOPE = (
    "{name} constructed outside repro/{home} and Participant.resolve_in_doubt; "
    "end transactions through TransactionManager.commit / abort"
)
_HOMED = {
    **dict.fromkeys(
        ("InsertRecord", "GhostRecord", "ReviveRecord", "UpdateRecord",
         "CleanupRecord"),
        _LOGGED_WRITE,
    ),
    "set_entry": (
        "logged-write", _WRITE_HOMES + (("core", "indexes.py"), ("storage",)),
        ".{name}() called outside repro/txn/write.py, the recovery target "
        "and repro/storage/; change rows through repro.txn.write.put / "
        "ghost / patch / erase, the logged writes",
    ),
    "CompensationRecord": (
        "one-settle", (("wal",),),
        "{name} constructed outside repro/wal/; roll back through "
        "repro.wal.recovery.undo, the one backchain walker",
    ),
    "CommitRecord": ("lazy-envelope", (("txn", "manager.py"),), _ENVELOPE),
    "AbortRecord": ("lazy-envelope", (("txn", "manager.py"),), _ENVELOPE),
    "EndRecord": ("lazy-envelope", (("wal", "recovery.py"),), _ENVELOPE),
}
_NO_HOME = (None, (), "")
#: ``Participant.resolve_in_doubt`` decides recovered 2PC branches: the
#: envelope records' second home
_RESOLVER_FILE, _RESOLVER_FUNC = ("core", "participant.py"), "resolve_in_doubt"

#: the only engine files that may ``import struct`` (byte layouts)
_LAYOUT_FILES = (("wal", "codec.py"), ("storage", "pages.py"))

#: ``repro/wal/`` files that handle records but may not ``import json``
#: (segments.py keeps JSON for its header / trailer / floor lines)
_WAL_NO_JSON = frozenset({"records.py", "log.py", "analysis.py", "recovery.py"})

#: call names that pack an entry or make, write or drop a page image;
#: allowed in engine code only under ``repro/storage/``.
_PAGE_MUTATORS = frozenset(
    {"pack_entry", "SlottedPage", "write_page", "drop_page"}
)

#: the attribute that holds a ShardedDatabase's partition engines;
#: reaching it outside ``repro/dist/`` bypasses the 2PC facade.
_DIST_ENGINES_ATTR = "_engines"

#: protocol methods inside ``repro/dist/`` that must reach partitions
#: only through the ``repro.dist.net`` transport — a direct
#: ``._engines`` access from (a function nested in) one of these would
#: bypass the ``net.*`` fault sites and the endpoint dedup tables.
_DIST_COMMIT_PATH = frozenset({
    "insert", "update", "delete", "read", "commit", "abort", "prepare",
    "decide", "resolve", "_two_phase_commit", "recover_partition",
    "recover_coordinator", "_send", "_deliver", "_settle_branches",
    "_settle_in_doubt",
})

#: builtin exception class names (to distinguish ``raise SomeBuiltin``
#: from re-raising a local variable).
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

#: builtins engine code may raise: abstract-method stubs, generator
#: protocol, and process exit from ``__main__``-style entry points.
_ALLOWED_BUILTINS = frozenset(
    {"NotImplementedError", "StopIteration", "SystemExit"}
)

_SKIP_DIRS = frozenset({"__pycache__", "results", ".git"})


class Finding:
    """One lint finding."""

    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def __repr__(self):
        return f"Finding({self})"


def _caught_names(node):
    """Exception class names named by an ``except`` clause type."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _caught_names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _allowed_error_names():
    """Exception classes exported by ``repro.common.errors``, resolved
    dynamically so new hierarchy members are allowed automatically."""
    import repro.common.errors as errors_mod

    return frozenset(
        name
        for name in dir(errors_mod)
        if isinstance(getattr(errors_mod, name), type)
        and issubclass(getattr(errors_mod, name), BaseException)
    )


def _event_registry():
    import repro.obs.events as events_mod

    return events_mod.EVENT_TYPES


# ---------------------------------------------------------------------
# file classification
# ---------------------------------------------------------------------


def _rel_to_repro(path):
    """Path parts below the last ``repro`` package dir, or ``None``."""
    parts = path.parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    return parts[idx + 1:]


def is_engine_file(path):
    return _rel_to_repro(path) is not None


def is_client_file(path):
    return any(part in ("examples", "benchmarks") for part in path.parts)


def _determinism_exempt(path):
    rel = _rel_to_repro(path)
    if rel is None:
        return False
    return rel[:1] == ("faults",) or rel == ("common", "rng.py")


def iter_python_files(paths):
    for root in paths:
        root = pathlib.Path(root)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            yield path


# ---------------------------------------------------------------------
# the per-file visitor
# ---------------------------------------------------------------------


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path, rules, allowed_errors, registry=None):
        self.path = path
        self.rules = rules
        self.allowed_errors = allowed_errors
        self.registry = registry or {}
        self.engine = is_engine_file(path)
        self.client = is_client_file(path)
        self.bench = any(part == "benchmarks" for part in path.parts)
        self.check_determinism = (
            "determinism" in rules and not _determinism_exempt(path)
        )
        self.check_pages = (
            "page-discipline" in rules
            and self.engine
            and (_rel_to_repro(path) or ())[:1] != ("storage",)
        )
        rel = _rel_to_repro(path) or ()
        self.check_settle = "one-settle" in rules and self.engine
        self.rel = rel
        self.codec_banned = set()  # modules this file may not import
        if "one-codec" in rules and rel:
            if rel not in _LAYOUT_FILES:
                self.codec_banned.add("struct")
            if rel[:1] == ("storage",) or (
                rel[:1] == ("wal",) and rel[-1] in _WAL_NO_JSON
            ):
                self.codec_banned.add("json")
        self.check_dist = (
            "dist-isolation" in rules
            and (_rel_to_repro(path) or ())[:1] != ("dist",)
        )
        self.check_transport = (
            "transport-discipline" in rules
            and (_rel_to_repro(path) or ())[:1] == ("dist",)
        )
        self.check_swallow = (
            "swallowed-exception" in rules
            and (self.engine or self.client)
            and _rel_to_repro(path) != _ERRORS_MODULE
        )
        self.findings = []
        self.emitted = []  # (name, line) literals seen in .emit() calls
        self._func_stack = []
        #: constant-propagation scopes (module frame + one per def):
        #: name -> propagated string constant, or _AMBIGUOUS.
        self._scopes = [{}]

    def flag(self, node, rule, message):
        self.findings.append(Finding(self.path, node.lineno, rule, message))

    # ------------------------------------------------------------ defs
    def visit_FunctionDef(self, node):
        self._func_stack.append(node.name)
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # ---------------------------------------- constant propagation
    def _bind(self, name, value):
        scope = self._scopes[-1]
        if name in scope and scope[name] != value:
            scope[name] = _AMBIGUOUS
        else:
            scope[name] = value

    def _bind_targets(self, targets, value):
        for target in targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._bind_targets(target.elts, _AMBIGUOUS)

    def visit_Assign(self, node):
        value = node.value
        const = (
            value.value
            if isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            else _AMBIGUOUS
        )
        self._bind_targets(node.targets, const)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._bind_targets([node.target], _AMBIGUOUS)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            const = (
                node.value.value
                if isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                else _AMBIGUOUS
            )
            self._bind_targets([node.target], const)
        self.generic_visit(node)

    def visit_For(self, node):
        self._bind_targets([node.target], _AMBIGUOUS)
        self.generic_visit(node)

    def _resolve_constant(self, name):
        """The propagated string bound to ``name``, searching enclosing
        scopes innermost-out; ``None`` when unbound or ambiguous."""
        for scope in reversed(self._scopes):
            if name in scope:
                value = scope[name]
                return None if value is _AMBIGUOUS else value
        return None

    def _in_dunder(self):
        return any(
            name.startswith("__") and name.endswith("__")
            for name in self._func_stack
        )

    # --------------------------------------------------------- imports
    def visit_Import(self, node):
        for alias in node.names:
            top = alias.name.split(".")[0]
            if self.check_determinism and top == "random":
                self.flag(
                    node,
                    "determinism",
                    "import of ambient `random` (use "
                    "repro.common.DeterministicRng)",
                )
            self._check_codec(node, top)
            self._check_surface(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if self.check_determinism:
            if node.level == 0 and module.split(".")[0] == "random":
                self.flag(
                    node,
                    "determinism",
                    "import from ambient `random` (use "
                    "repro.common.DeterministicRng)",
                )
            if node.level == 0 and module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        self.flag(
                            node,
                            "determinism",
                            "import of wall-clock `time.time` (use the "
                            "logical clock)",
                        )
        if node.level == 0:
            self._check_codec(node, module.split(".")[0])
            self._check_surface(node, module)
            if (
                "import-surface" in self.rules
                and self.client
                and module == "repro"
            ):
                for alias in node.names:
                    if alias.name != "api" and not (
                        self.bench and alias.name == "analysis"
                    ):
                        self.flag(
                            node,
                            "import-surface",
                            f"client code must import the repro.api "
                            f"facade, not repro.{alias.name}",
                        )
        self.generic_visit(node)

    def _check_codec(self, node, top):
        if top in self.codec_banned:
            self.flag(
                node,
                "one-codec",
                f"`{top}` imported here: record and entry bytes are laid "
                f"out by repro.wal.codec alone (struct also in "
                f"repro/storage/pages.py for the page header)",
            )

    def _check_surface(self, node, module):
        if "import-surface" not in self.rules or not self.client:
            return
        if module.startswith("repro."):
            if module != "repro.api" and not module.startswith("repro.api."):
                if self.bench and (
                    module == _BENCH_EXTRA_SURFACE
                    or module.startswith(_BENCH_EXTRA_SURFACE + ".")
                ):
                    return
                self.flag(
                    node,
                    "import-surface",
                    f"client code must import the repro.api facade, "
                    f"not {module}",
                )

    # ----------------------------------------------------------- calls
    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        rule, homes, message = _HOMED.get(name, _NO_HOME)
        if (
            rule in self.rules
            and (self.engine or rule == "logged-write")
            and not any(self.rel[:len(home)] == home for home in homes)
            and not (
                rule == "lazy-envelope"
                and self.rel == _RESOLVER_FILE
                and self._func_stack[-1:] == [_RESOLVER_FUNC]
            )
        ):
            self.flag(
                node, rule, message.format(name=name, home="/".join(homes[0]))
            )
        if isinstance(func, ast.Attribute):
            if func.attr == "emit" and self.engine and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    self.emitted.append((arg.value, node.lineno))
                elif "event-flow" in self.rules and isinstance(
                    arg, ast.Name
                ):
                    self._check_event_flow(node, arg)
            if self.check_determinism:
                self._check_wallclock_call(node, func)
        if self.check_pages and name in _PAGE_MUTATORS:
            self.flag(
                node,
                "page-discipline",
                f"{name}() outside repro/storage/: a leaf's bytes are "
                f"made by a buffer-pool write-back alone, so "
                f"WAL-before-write and the write-back order hold",
            )
        self.generic_visit(node)

    # ------------------------------------------------------ attributes
    def visit_Attribute(self, node):
        if self.check_dist and node.attr == _DIST_ENGINES_ATTR:
            self.flag(
                node,
                "dist-isolation",
                "direct partition-engine access ._engines outside "
                "repro/dist/; go through the ShardedDatabase facade "
                "(or .partition(pid)) so 2PC cannot be bypassed",
            )
        if (
            self.check_transport
            and node.attr == _DIST_ENGINES_ATTR
            and any(name in _DIST_COMMIT_PATH for name in self._func_stack)
        ):
            self.flag(
                node,
                "transport-discipline",
                "direct ._engines access from a commit-path method in "
                "repro/dist/; coordinator-to-partition traffic goes "
                "through the repro.dist.net transport so the net.* "
                "fault sites see every protocol message",
            )
        self.generic_visit(node)

    def _check_event_flow(self, node, arg):
        resolved = self._resolve_constant(arg.id)
        if resolved is None:
            self.flag(
                node,
                "event-flow",
                f"emit name {arg.id!r} is not a statically-resolvable "
                f"string constant; the event catalogue and its doc "
                f"contract cannot check this emission",
            )
        elif resolved in self.registry:
            # Resolved to a catalogue entry: dead-event credit.
            self.emitted.append((resolved, node.lineno))
        else:
            self.flag(
                node,
                "event-flow",
                f"emit of {arg.id} = {resolved!r}, which is not "
                f"registered in obs.events.EVENT_TYPES",
            )

    def _check_wallclock_call(self, node, func):
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name == "time" and func.attr in ("time", "time_ns"):
            self.flag(
                node,
                "determinism",
                "wall-clock time.time() (use the logical clock)",
            )
        if base_name == "datetime" and func.attr in ("now", "utcnow", "today"):
            self.flag(
                node,
                "determinism",
                f"wall-clock datetime.{func.attr}() (use the logical clock)",
            )

    # ---------------------------------------------------------- raises
    def visit_Raise(self, node):
        if "error-hierarchy" in self.rules and self.engine:
            self._check_raise(node)
        self.generic_visit(node)

    def _check_raise(self, node):
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            # Re-raising a caught/stored exception object is fine; only
            # a class reference to a known builtin is a finding.
            name = exc.id
            if name not in _BUILTIN_EXCEPTIONS:
                return
        else:
            return  # attribute/expression raises (e.g. request.deny_error)
        if name in self.allowed_errors or name in _ALLOWED_BUILTINS:
            return
        if name in _BUILTIN_EXCEPTIONS:
            if self._in_dunder():
                return  # data-model exceptions demanded by the protocol
            self.flag(
                node,
                "error-hierarchy",
                f"engine code raises builtin {name}; raise a "
                f"repro.common.errors class instead",
            )
        elif isinstance(exc, ast.Call):
            self.flag(
                node,
                "error-hierarchy",
                f"engine code raises {name}, which is not part of "
                f"repro.common.errors",
            )

    # ------------------------------------------------------ except:
    def visit_ExceptHandler(self, node):
        if "bare-except" in self.rules and node.type is None:
            self.flag(
                node,
                "bare-except",
                "bare `except:` swallows SystemExit/KeyboardInterrupt; "
                "catch a class",
            )
        if self.check_swallow and node.type is not None:
            self._check_swallow(node)
        if (
            self.check_settle
            and {"BaseException", "Exception"} & set(_caught_names(node.type))
            and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "abort"
                for stmt in node.body for call in ast.walk(stmt)
            )
        ):
            self.flag(
                node,
                "one-settle",
                "broad except handler calls .abort(); end the transaction "
                "through Database.settle, which leaves a crashed engine "
                "alone",
            )
        self.generic_visit(node)

    def _check_swallow(self, node):
        if not all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body
        ):
            return
        caught = [
            name
            for name in _caught_names(node.type)
            if name in _BUILTIN_EXCEPTIONS
        ]
        if caught:
            self.flag(
                node,
                "swallowed-exception",
                f"handler catches builtin {', '.join(caught)} and "
                f"swallows it (body is only pass/continue); return or "
                f"record the failure, or catch a repro.common.errors "
                f"class",
            )


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------


def lint_paths(paths, rules=RULES):
    """Lint every Python file under ``paths``; returns ``[Finding]``."""
    rules = frozenset(rules)
    allowed_errors = (
        _allowed_error_names() if "error-hierarchy" in rules else frozenset()
    )
    registry = _event_registry() if "event-flow" in rules else None
    findings = []
    emitted = {}  # event name -> first (path, line)
    events_file = None
    for path in iter_python_files(paths):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(path, exc.lineno or 1, "syntax", str(exc.msg))
            )
            continue
        linter = _FileLinter(path, rules, allowed_errors, registry)
        linter.visit(tree)
        findings.extend(linter.findings)
        if linter.engine:
            for name, line in linter.emitted:
                emitted.setdefault(name, (path, line))
            if _rel_to_repro(path) == ("obs", "events.py"):
                events_file = path
    if "unknown-event" in rules or "dead-event" in rules:
        findings.extend(_check_events(rules, emitted, events_file))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def _check_events(rules, emitted, events_file):
    registry = _event_registry()
    findings = []
    if "unknown-event" in rules:
        for name, (path, line) in sorted(emitted.items()):
            if name not in registry:
                findings.append(
                    Finding(
                        path,
                        line,
                        "unknown-event",
                        f"emit of {name!r}, which is not registered in "
                        f"obs.events.EVENT_TYPES",
                    )
                )
    if "dead-event" in rules and events_file is not None:
        source_lines = events_file.read_text().splitlines()
        for name in sorted(registry):
            if name in emitted:
                continue
            line = next(
                (
                    i + 1
                    for i, text in enumerate(source_lines)
                    if f'"{name}"' in text
                ),
                1,
            )
            findings.append(
                Finding(
                    events_file,
                    line,
                    "dead-event",
                    f"catalogue entry {name!r} is never emitted by the "
                    f"scanned engine code",
                )
            )
    return findings


def check_import_surface(root=None):
    """The facade gate alone, over ``<root>/examples`` and
    ``<root>/benchmarks`` (default: this repo). One source of truth —
    ``benchmarks/check_results.py`` calls this."""
    if root is None:
        root = pathlib.Path(__file__).resolve().parents[3]
    root = pathlib.Path(root)
    paths = [p for p in (root / "examples", root / "benchmarks") if p.is_dir()]
    return lint_paths(paths, rules=("import-surface",))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-specific AST lint rules (see docs/ANALYSIS.md)",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--rules",
        default=",".join(RULES),
        help="comma-separated subset of rules to run",
    )
    args = parser.parse_args(argv)
    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    unknown = set(rules) - set(RULES)
    if unknown:
        parser.error(f"unknown rules: {sorted(unknown)}")
    findings = lint_paths(args.paths, rules=rules)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
