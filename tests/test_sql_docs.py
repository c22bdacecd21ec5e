"""docs/SQL.md is a contract: the grammar keywords, the WITH options,
the online-build phase names, and the fault-site details documented
there must match the code. These tests fail when either side drifts."""

import pathlib
import re

from repro.faults.injector import FAULT_SITES
from repro.obs.events import EVENT_TYPES
from repro.sql.binder import VIEW_OPTIONS
from repro.sql.parser import _AGG_FUNCS, KEYWORDS

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "SQL.md"


def _text():
    return DOC.read_text()


def test_doc_exists_and_titled():
    text = _text()
    assert text.startswith("# The SQL surface")


def test_reserved_keywords_block_matches_parser():
    """The fenced keyword list in §1 is exactly ``parser.KEYWORDS``."""
    text = _text()
    # The keyword block is the fence right after "reserved keywords".
    match = re.search(
        r"reserved keywords[^\n]*\n\n```\n(.*?)```", text, re.DOTALL
    )
    assert match, "keyword block missing from docs/SQL.md"
    documented = set(match.group(1).split())
    assert documented == set(KEYWORDS)


def test_aggregate_functions_documented():
    text = _text()
    for func in _AGG_FUNCS:
        assert re.search(func.upper() + r"\s*\(", text), func


def test_view_options_documented_exactly():
    text = _text()
    for opt in VIEW_OPTIONS:
        assert f"`{opt}`" in text, opt


def test_grammar_block_covers_every_statement():
    text = _text()
    for production in (
        "create_table",
        "create_view",
        "insert",
        "update",
        "delete",
        "select",
        "set_expr",
    ):
        assert re.search(rf"^{production}\s*:=", text, re.MULTILINE), production


def test_error_branch_documented():
    text = _text()
    for name in ("SqlError", "ParseError", "BindError", "UnsupportedSqlError"):
        assert f"`{name}`" in text, name
    assert "line L, column C" in text


def test_online_build_phases_match_event_registry():
    """Every phase the view_online_build event can carry is in §4."""
    text = _text()
    phases = EVENT_TYPES["view_online_build"]["fields"]["phase"]
    for phase in (p.strip() for p in phases.split("|")):
        assert phase in text, phase
    assert "view_online_build" in text


def test_fault_site_and_details_documented():
    text = _text()
    assert "view.online_build" in FAULT_SITES
    assert "view.online_build" in text
    # The crash-detail vocabulary of the site, pinned in §4's narrative.
    description = FAULT_SITES["view.online_build"]["description"]
    for detail in ("snapshot:", "flip", "post_commit"):
        assert detail in description, detail


def test_compilation_contract_names_real_entry_points():
    text = _text()
    for call in (
        "db.create_table",
        "db.create_view",
        "db.insert",
        "db.update",
        "db.delete",
        "db.indexes.write_plan",
        "compile_view",
        "render_view",
        "plan_signature",
    ):
        assert call in text, call


def test_view_kinds_table_complete():
    text = _text()
    for kind in (
        "AggregateView",
        "JoinAggregateView",
        "JoinView",
        "ProjectionView",
    ):
        assert f"`{kind}`" in text, kind
