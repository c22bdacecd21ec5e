"""Tests for the AST lint gate (``repro.analysis.lint``): every rule
fires on a planted violation in a synthetic tree, every documented
exemption holds, and the module entry point reports findings with a
non-zero exit status."""

import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Finding,
    check_import_surface,
    lint_paths,
    main,
)
from repro.obs.events import EVENT_TYPES


def _plant(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------
# one planted violation per rule
# ---------------------------------------------------------------------


def test_planted_engine_violations_all_fire(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/bad_engine.py",
        '''
        import random
        import time

        def tick(tracer):
            tracer.emit("no_such_event", n=1)
            t = time.time()
            try:
                t += random.random()
            except:
                pass
            raise ValueError("engine code must not raise builtins")
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {
        "determinism",
        "unknown-event",
        "bare-except",
        "error-hierarchy",
    }
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    # import random + the time.time() call are separate findings
    assert len(by_rule["determinism"]) == 2
    assert "no_such_event" in str(by_rule["unknown-event"][0])
    assert "ValueError" in by_rule["error-hierarchy"][0].message


def test_import_surface_violation_in_client_code(tmp_path):
    bad = _plant(
        tmp_path,
        "benchmarks/bad_client.py",
        "from repro.core.database import Database\n",
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"import-surface"}
    assert "repro.core.database" in findings[0].message
    # The same deep import in non-client code is not a surface finding.
    ok = _plant(
        tmp_path, "tools/fine.py",
        "from repro.core.database import Database\n",
    )
    assert lint_paths([ok]) == []


def test_import_surface_allows_the_facade(tmp_path):
    ok = _plant(
        tmp_path,
        "examples/fine.py",
        "import repro\nfrom repro.api import Database\n",
    )
    assert lint_paths([ok]) == []


def test_dead_event_fires_when_events_file_scanned(tmp_path):
    # A tree that contains obs/events.py but emits nothing: every
    # registry entry is dead. (The registry itself is the live one.)
    _plant(tmp_path, "src/repro/obs/events.py", '"""stub registry"""\n')
    findings = lint_paths([tmp_path / "src"], rules=("dead-event",))
    assert _rules(findings) == {"dead-event"}
    flagged = {f.message.split("'")[1] for f in findings}
    assert flagged == set(EVENT_TYPES)


def test_dead_event_silent_without_events_file(tmp_path):
    other = _plant(tmp_path, "src/repro/quiet.py", "x = 1\n")
    assert lint_paths([other], rules=("dead-event",)) == []


def test_known_event_emit_is_clean(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    ok = _plant(
        tmp_path,
        "src/repro/good_engine.py",
        f'def go(tracer):\n    tracer.emit("{name}")\n',
    )
    assert lint_paths([ok], rules=("unknown-event",)) == []


# ---------------------------------------------------------------------
# exemptions
# ---------------------------------------------------------------------


def test_determinism_exempts_faults_and_rng(tmp_path):
    for rel in ("src/repro/faults/noise.py", "src/repro/common/rng.py"):
        path = _plant(tmp_path, rel, "import random\nimport time\n"
                                     "t = time.time()\n")
        assert lint_paths([path], rules=("determinism",)) == [], rel
    # ...but not the rest of common/
    bad = _plant(tmp_path, "src/repro/common/clockish.py", "import random\n")
    assert _rules(lint_paths([bad])) == {"determinism"}


def test_error_hierarchy_exemptions(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/polite.py",
        '''
        from repro.common.errors import ReproError

        class Box:
            def __getitem__(self, key):
                raise KeyError(key)  # data-model protocol

        def stub():
            raise NotImplementedError

        def rethrow():
            try:
                return 1
            except ReproError as exc:
                raise exc

        def hierarchy():
            raise ReproError("fine")
        ''',
    )
    assert lint_paths([ok], rules=("error-hierarchy",)) == []


def test_error_hierarchy_only_applies_to_engine_files(tmp_path):
    ok = _plant(tmp_path, "scripts/tool.py", 'raise ValueError("fine here")\n')
    assert lint_paths([ok], rules=("error-hierarchy",)) == []


# ---------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = _plant(tmp_path, "src/repro/broken.py", "def nope(:\n")
    findings = lint_paths([bad])
    assert _rules(findings) == {"syntax"}


def test_findings_sorted_and_formatted(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/two.py",
        "import random\n\n\nraise ValueError('x')\n",
    )
    findings = lint_paths([bad])
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    text = str(findings[0])
    assert str(bad) in text and "[determinism]" in text
    assert repr(Finding("p", 1, "r", "m")) == "Finding(p:1: [r] m)"


def test_check_import_surface_on_a_tree(tmp_path):
    _plant(tmp_path, "benchmarks/bad.py", "import repro.obs.tracer\n")
    _plant(tmp_path, "examples/ok.py", "from repro.api import Database\n")
    # Only the surface rule runs — this engine-style crime is ignored.
    _plant(tmp_path, "benchmarks/other.py", "raise ValueError('ignored')\n")
    findings = check_import_surface(tmp_path)
    assert [f.rule for f in findings] == ["import-surface"]
    assert "repro.obs.tracer" in findings[0].message


def test_main_exit_codes(tmp_path, capsys):
    bad = _plant(tmp_path, "src/repro/bad.py", "import random\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out and "1 finding(s)" in out
    ok = _plant(tmp_path, "src/repro/ok.py", "x = 1\n")
    assert main([str(ok)]) == 0
    with pytest.raises(SystemExit):
        main([str(ok), "--rules", "no-such-rule"])


def test_dist_isolation_fires_outside_dist(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/core/sneaky.py",
        '''
        def bypass(sharded):
            return sharded._engines[0]
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"dist-isolation"}
    assert "._engines" in findings[0].message


def test_dist_isolation_exempts_the_dist_package(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/dist/facade.py",
        '''
        def route(sharded, pid):
            return sharded._engines[pid]
        ''',
    )
    assert lint_paths([ok]) == []


def test_transport_discipline_fires_on_commit_path_engine_access(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/dist/shortcut.py",
        '''
        def commit(self, dtxn):
            for pid in dtxn.branches:
                self._engines[pid].commit(dtxn.branches[pid])
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"transport-discipline"}
    assert "repro.dist.net" in findings[0].message


def test_transport_discipline_fires_in_nested_helpers(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/dist/nested.py",
        '''
        def _two_phase_commit(self, dtxn):
            def send(pid):
                return self._engines[pid]
            return send(0)
        ''',
    )
    assert _rules(lint_paths([bad])) == {"transport-discipline"}


def test_transport_discipline_exempts_non_protocol_methods(tmp_path):
    # Construction, operator accessors, and folded reads legitimately
    # hold the engine list; only the protocol methods must use the
    # transport. Outside repro/dist/ the dist-isolation rule governs.
    ok = _plant(
        tmp_path,
        "src/repro/dist/accessors.py",
        '''
        def partition(self, pid):
            return self._engines[pid]

        def read_committed(self, table, key):
            return self._engines[0].read_committed(table, key)
        ''',
    )
    assert lint_paths([ok]) == []


def test_logged_write_fires_outside_the_wal_and_the_write_module(tmp_path):
    source = '''
    from repro.wal import records
    from repro.wal.records import GhostRecord, InsertRecord

    def sneak(db, txn, index, key, row):
        index.insert(key, row)
        db.log.append(InsertRecord(txn.txn_id, index.name, key, row))
        db.log.append(records.UpdateRecord(txn.txn_id, index.name, key, row, row))
    '''
    for rel in ("src/repro/views/sneaky.py", "benchmarks/sneaky.py"):
        bad = _plant(tmp_path, rel, source)
        findings = lint_paths([bad], rules=("logged-write",))
        assert _rules(findings) == {"logged-write"}, rel
        assert len(findings) == 2
        assert "InsertRecord" in findings[0].message
        assert "UpdateRecord" in findings[1].message


def test_logged_write_allows_the_wal_package_and_the_write_module(tmp_path):
    source = "record = ReviveRecord(1, 'i', (1,), row, ghost_row)\n"
    for rel in ("src/repro/wal/recovery.py", "src/repro/txn/write.py"):
        ok = _plant(tmp_path, rel, source)
        assert lint_paths([ok], rules=("logged-write",)) == [], rel
    # other record types are not row changes
    ok = _plant(
        tmp_path, "src/repro/views/fine.py",
        "db.log.append(EscrowDeltaRecord(1, 'v', (1,), {'n': 1}))\n",
    )
    assert lint_paths([ok], rules=("logged-write",)) == []


def test_logged_write_homes_the_cleanup_record_and_the_one_mutator(tmp_path):
    source = '''
    def reclaim(db, txn, index, key, row):
        index.set_entry(key, None)
        db.log.append(CleanupRecord(txn.txn_id, index.name, key, row))
    '''
    for rel in ("src/repro/core/cleanup.py", "benchmarks/sneaky.py"):
        findings = lint_paths(
            [_plant(tmp_path, rel, source)], rules=("logged-write",)
        )
        assert _rules(findings) == {"logged-write"}, rel
        assert ".set_entry()" in findings[0].message
        assert "CleanupRecord" in findings[1].message
    for rel in ("src/repro/txn/write.py", "src/repro/wal/records.py"):
        ok = _plant(tmp_path, rel, source)
        assert lint_paths([ok], rules=("logged-write",)) == [], rel
    # the recovery target and the storage package assign entries too,
    # but only the write module (and the WAL) builds the record
    for rel in ("src/repro/core/indexes.py", "src/repro/storage/bufferpool.py"):
        findings = lint_paths(
            [_plant(tmp_path, rel, source)], rules=("logged-write",)
        )
        assert [f.message.split()[0] for f in findings] == ["CleanupRecord"], rel


def test_logged_write_homes_set_entry_with_the_recovery_target(tmp_path):
    """The recovery target is the index registry, ``core/indexes.py``:
    the engine facade and the restart driver beside it assign no entry
    of their own."""
    source = '''
    def seed(indexes, key, row, lsn):
        indexes["t"].set_entry(key, (row, False), lsn)
    '''
    home = _plant(tmp_path, "src/repro/core/indexes.py", source)
    assert lint_paths([home], rules=("logged-write",)) == []
    for rel in ("src/repro/core/database.py", "src/repro/core/restart.py"):
        findings = lint_paths(
            [_plant(tmp_path, rel, source)], rules=("logged-write",)
        )
        assert [f.message.split()[0] for f in findings] == [".set_entry()"], rel


def test_import_surface_flags_from_repro_submodule_form(tmp_path):
    bad = _plant(tmp_path, "examples/bad.py", "from repro import core\n")
    findings = lint_paths([bad])
    assert _rules(findings) == {"import-surface"}
    ok = _plant(tmp_path, "examples/good.py", "from repro import api\n")
    assert lint_paths([ok]) == []


def test_rules_tuple_is_the_documented_set():
    assert RULES == (
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


def test_one_codec_bans_json_and_struct_where_bytes_are_laid_out(tmp_path):
    for rel, source, fires in (
        ("src/repro/storage/bufferpool.py", "import json\n", True),
        ("src/repro/wal/records.py", "from json import dumps\n", True),
        ("src/repro/wal/analysis.py", "import json\n", True),
        ("src/repro/wal/segments.py", "import json\n", False),  # header lines
        ("src/repro/obs/tracer.py", "import json\n", False),
        ("src/repro/views/packer.py", "import struct\n", True),
        ("src/repro/wal/log.py", "from struct import Struct\n", True),
        ("src/repro/wal/codec.py", "import struct\n", False),
        ("src/repro/storage/pages.py", "import struct\n", False),
        ("benchmarks/tool.py", "import json, struct\n", False),
    ):
        planted = _plant(tmp_path, rel, source)
        findings = lint_paths([planted], rules=("one-codec",))
        assert _rules(findings) == ({"one-codec"} if fires else set()), rel


def test_page_discipline_keeps_packing_and_images_in_storage(tmp_path):
    source = '''
    def write(store, leaf):
        payload = pack_entry("t", (1,), {"id": 1}, False, 7)
        store.write_page(SlottedPage(leaf.page_id, [payload]))
        store.drop_page(leaf.page_id)
    '''
    for rel, fires in (
        ("src/repro/txn/write.py", True),  # a write path that packs
        ("src/repro/core/database.py", True),  # an image past the pool
        ("src/repro/storage/bufferpool.py", False),
        ("src/repro/storage/pages.py", False),
        ("tests/test_pages.py", False),  # not engine code
    ):
        findings = lint_paths(
            [_plant(tmp_path, rel, source)], rules=("page-discipline",)
        )
        assert len(findings) == (4 if fires else 0), rel
    # reading an image is not making one
    ok = _plant(
        tmp_path, "src/repro/integrity/reader.py",
        "entries = [unpack_entry(p) for _, p in store.read_page(1).records()]\n"
        "page = SlottedPage.from_bytes(image)\n",
    )
    assert lint_paths([ok], rules=("page-discipline",)) == []


def test_one_settle_fires_on_a_hand_written_epilogue_or_clr(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/views/epilogue.py",
        '''
        def refresh(db, txn):
            try:
                db.commit(txn)
            except BaseException:
                db.abort(txn)  # runs after a SimulatedCrash too
                raise

        def rollback(log, txn_id, record):
            log.append(CompensationRecord(txn_id, record.lsn, None, record))
        ''',
    )
    findings = lint_paths([bad], rules=("one-settle",))
    assert _rules(findings) == {"one-settle"}
    assert len(findings) == 2
    assert ".abort()" in findings[0].message
    assert "CompensationRecord" in findings[1].message


def test_one_settle_allows_settle_narrow_handlers_and_the_wal(tmp_path):
    for rel, source in (
        ("src/repro/views/fine.py", '''
        def refresh(db, drain):
            return db.settle(db.begin_system(), drain)

        def clean_one(db, txn):
            try:
                db.commit(txn)
            except TransactionAborted:  # a crash is not one of these
                db.abort(txn)
        '''),
        ("src/repro/wal/recovery.py",
         "clr = CompensationRecord(1, 2, None, record)\n"),
        ("benchmarks/driver.py", '''
        try:
            run()
        except Exception:
            db.abort(txn)
        '''),
    ):
        ok = _plant(tmp_path, rel, source)
        assert lint_paths([ok], rules=("one-settle",)) == [], rel


def test_lazy_envelope_fires_on_a_second_writer_of_the_envelope(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/views/eager.py",
        '''
        def finish(log, txn):
            log.append(CommitRecord(txn.txn_id, 0))
            log.append(EndRecord(txn.txn_id))

        def give_up(log, txn):
            log.append(AbortRecord(txn.txn_id))
        ''',
    )
    findings = lint_paths([bad], rules=("lazy-envelope",))
    assert _rules(findings) == {"lazy-envelope"}
    assert [f.message.split()[0] for f in findings] == [
        "CommitRecord", "EndRecord", "AbortRecord",
    ]
    # each envelope record has its own home: END is recovery's alone
    misplaced = _plant(
        tmp_path, "src/repro/txn/manager.py",
        "def commit(log, t):\n    log.append(EndRecord(t))\n",
    )
    assert _rules(lint_paths([misplaced], rules=("lazy-envelope",))) == {
        "lazy-envelope"
    }


def test_lazy_envelope_allows_the_manager_recovery_and_the_resolver(tmp_path):
    for rel, source in (
        ("src/repro/txn/manager.py", '''
        def commit(log, txn, ts):
            return log.append(CommitRecord(txn.txn_id, ts))

        def abort(log, txn):
            log.append(AbortRecord(txn.txn_id))
        '''),
        ("src/repro/wal/recovery.py",
         "def undo(log, t):\n    log.append(EndRecord(t))\n"),
        ("src/repro/core/participant.py", '''
        class Participant:
            def resolve_in_doubt(self, txn_id, decision):
                self.log.append(CommitRecord(txn_id, self.clock.tick()))
                self.log.append(AbortRecord(txn_id))
        '''),
        ("tests/test_wal_log.py", "log.append(EndRecord(1))\n"),
        ("benchmarks/driver.py", "log.append(CommitRecord(1, 2))\n"),
    ):
        ok = _plant(tmp_path, rel, source)
        assert lint_paths([ok], rules=("lazy-envelope",)) == [], rel
    elsewhere = _plant(tmp_path, "src/repro/core/participant.py", '''
    class Participant:
        def prepare(self, txn, gid):
            self.log.append(CommitRecord(txn.txn_id, 0))
    ''')
    assert len(lint_paths([elsewhere], rules=("lazy-envelope",))) == 1


def test_lazy_envelope_resolver_home_follows_resolve_in_doubt(tmp_path):
    """The resolver's home is ``Participant.resolve_in_doubt`` in
    ``core/participant.py``: a ``resolve_in_doubt`` anywhere else — the
    engine facade included — is a second writer of the envelope."""
    source = '''
    class Database:
        def resolve_in_doubt(self, txn_id, decision):
            self.log.append(CommitRecord(txn_id, self.clock.tick()))
    '''
    for rel in ("src/repro/core/database.py", "src/repro/core/restart.py"):
        findings = lint_paths(
            [_plant(tmp_path, rel, source)], rules=("lazy-envelope",)
        )
        assert [f.message.split()[0] for f in findings] == ["CommitRecord"], rel
        assert "Participant.resolve_in_doubt" in findings[0].message


# ---------------------------------------------------------------------
# the dataflow rules
# ---------------------------------------------------------------------


def test_event_flow_resolves_propagated_constants(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/flowy.py",
        '''
        NAME = "bogus_event"

        def go(tracer):
            tracer.emit(NAME, n=1)
        ''',
    )
    findings = lint_paths([bad], rules=("event-flow",))
    assert _rules(findings) == {"event-flow"}
    assert "bogus_event" in findings[0].message


def test_event_flow_accepts_a_registered_constant(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    ok = _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'''
        NAME = "{name}"

        def go(tracer):
            tracer.emit(NAME)
        ''',
    )
    assert lint_paths([ok], rules=("event-flow",)) == []


def test_event_flow_local_shadows_module_constant(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    bad = _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'''
        NAME = "{name}"

        def go(tracer):
            NAME = "shadowed_event"
            tracer.emit(NAME)
        ''',
    )
    findings = lint_paths([bad], rules=("event-flow",))
    assert _rules(findings) == {"event-flow"}
    assert "shadowed_event" in findings[0].message


def test_event_flow_flags_unresolvable_names(tmp_path):
    # A rebound or parameter-passed name cannot be checked against the
    # catalogue — that opacity is itself the finding.
    for body in (
        'def go(tracer, which):\n    tracer.emit(which)\n',
        'def go(tracer, cond):\n'
        '    name = "a_event" if cond else "b_event"\n'
        '    tracer.emit(name)\n',
    ):
        bad = _plant(tmp_path, "src/repro/flowy.py", body)
        findings = lint_paths([bad], rules=("event-flow",))
        assert _rules(findings) == {"event-flow"}, body
        assert "not a statically-resolvable" in findings[0].message


def test_event_flow_gives_dead_event_credit(tmp_path):
    # An event emitted only through a propagated constant still counts
    # as live for the dead-event rule.
    name = sorted(EVENT_TYPES)[0]
    _plant(tmp_path, "src/repro/obs/events.py", '"""stub registry"""\n')
    _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'NAME = "{name}"\n\ndef go(tracer):\n    tracer.emit(NAME)\n',
    )
    findings = lint_paths(
        [tmp_path / "src"], rules=("dead-event", "event-flow")
    )
    flagged = {f.message.split("'")[1] for f in findings}
    assert name not in flagged
    assert flagged == set(EVENT_TYPES) - {name}


def test_swallowed_exception_fires_on_builtin_pass(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/gulp.py",
        '''
        def quiet(path):
            try:
                return open(path).read()
            except OSError:
                pass
        ''',
    )
    findings = lint_paths([bad], rules=("swallowed-exception",))
    assert _rules(findings) == {"swallowed-exception"}
    assert "OSError" in findings[0].message


def test_swallowed_exception_fires_on_continue_in_tuple(tmp_path):
    bad = _plant(
        tmp_path,
        "benchmarks/gulp.py",
        '''
        def quiet(paths):
            for p in paths:
                try:
                    yield open(p).read()
                except (ValueError, KeyError):
                    continue
        ''',
    )
    findings = lint_paths([bad], rules=("swallowed-exception",))
    assert _rules(findings) == {"swallowed-exception"}
    assert "ValueError, KeyError" in findings[0].message


def test_swallowed_exception_allows_handled_and_repro_errors(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/polite.py",
        '''
        from repro.common.errors import StorageError

        def a(path):
            try:
                return open(path).read()
            except OSError as exc:
                return exc  # recorded, not swallowed

        def b(records):
            for r in records:
                try:
                    r.load()
                except StorageError:
                    continue  # engine-hierarchy swallows are deliberate
        ''',
    )
    assert lint_paths([ok], rules=("swallowed-exception",)) == []


def test_swallowed_exception_exempts_the_errors_module(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/common/errors.py",
        '''
        def probe(x):
            try:
                return int(x)
            except ValueError:
                pass
        ''',
    )
    assert lint_paths([ok], rules=("swallowed-exception",)) == []


def test_import_surface_allows_analysis_in_benchmarks_only(tmp_path):
    ok = _plant(
        tmp_path,
        "benchmarks/gate.py",
        "from repro.analysis.lint import lint_paths\n"
        "from repro.analysis.static import StaticAnalyzer\n"
        "from repro import analysis\n",
    )
    assert lint_paths([ok], rules=("import-surface",)) == []
    bad = _plant(
        tmp_path,
        "examples/gate.py",
        "from repro.analysis.lint import lint_paths\n",
    )
    findings = lint_paths([bad], rules=("import-surface",))
    assert _rules(findings) == {"import-surface"}
