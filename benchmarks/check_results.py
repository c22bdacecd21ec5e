#!/usr/bin/env python
"""Validate every ``benchmarks/results/*.json`` against the documented
result schema (:mod:`repro.obs.schema`, ``docs/OBSERVABILITY.md``),
cross-check the documented event catalogue against the code registry,
and enforce that ``examples/`` and ``benchmarks/`` import only the
supported ``repro.api`` facade.

Exit status 0 when every document parses and conforms; 1 otherwise,
with one line per problem. This is the regression gate ``make
bench-smoke``, ``make bench-r16`` / ``bench-r17`` and ``run_all.py`` run
after emitting results.

Run:  python benchmarks/check_results.py [results_dir]
"""

import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import validate_result  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
OBSERVABILITY_DOC = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
)


def check_directory(results_dir=RESULTS_DIR):
    """Returns (checked_count, problems)."""
    problems = []
    paths = sorted(pathlib.Path(results_dir).glob("*.json"))
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{path.name}: unreadable JSON: {exc}")
            continue
        problems.extend(validate_result(doc, label=path.name))
        stem_claim = doc.get("name") if isinstance(doc, dict) else None
        if stem_claim is not None and stem_claim != path.stem:
            problems.append(
                f"{path.name}: document name {stem_claim!r} != file stem"
            )
    return len(paths), problems


def check_event_catalogue(doc_path=OBSERVABILITY_DOC):
    """The documented event catalogue must match the code registry both
    ways: every event in :data:`repro.obs.events.EVENT_TYPES` gets a
    ``#### `name``` section whose field table lists exactly the event's
    fields, no phantom events are documented, and every event category
    appears (backticked) in the doc. Returns a list of problem strings.
    """
    from repro.api import EVENT_TYPES

    try:
        text = pathlib.Path(doc_path).read_text()
    except OSError as exc:
        return [f"{doc_path.name}: unreadable: {exc}"]
    label = pathlib.Path(doc_path).name
    problems = []
    sections = {}
    current = None
    for line in text.splitlines():
        header = re.match(r"^#### `(\w+)`\s*$", line)
        if header:
            current = header.group(1)
            sections[current] = set()
            continue
        if line.startswith("#"):
            current = None
            continue
        if current is not None:
            field = re.match(r"^\| `(\w+)` \|", line)
            if field:
                sections[current].add(field.group(1))
    for name, spec in sorted(EVENT_TYPES.items()):
        if name not in sections:
            problems.append(f"{label}: event `{name}` is not documented")
            continue
        missing = sorted(set(spec["fields"]) - sections[name])
        extra = sorted(sections[name] - set(spec["fields"]))
        if missing:
            problems.append(
                f"{label}: event `{name}` missing field row(s): {missing}"
            )
        if extra:
            problems.append(
                f"{label}: event `{name}` documents unknown field(s): {extra}"
            )
    for name in sorted(set(sections) - set(EVENT_TYPES)):
        problems.append(
            f"{label}: documents event `{name}` that the engine never emits"
        )
    for category in sorted({s["category"] for s in EVENT_TYPES.values()}):
        if f"`{category}`" not in text:
            problems.append(
                f"{label}: event category `{category}` never mentioned"
            )
    return problems


def check_import_surface(root=None):
    """``examples/`` and ``benchmarks/`` may import ``repro`` or
    ``repro.api`` only — deep module paths are not a supported surface.
    The rule itself lives in the lint gate (``repro.analysis.lint``,
    the single source of truth); this wrapper adapts its findings to
    problem strings for :func:`main`.
    """
    from repro.api import check_import_surface as lint_import_surface

    return [str(finding) for finding in lint_import_surface(root)]


def main(argv):
    results_dir = pathlib.Path(argv[1]) if len(argv) > 1 else RESULTS_DIR
    checked, problems = check_directory(results_dir)
    problems.extend(check_event_catalogue())
    problems.extend(check_import_surface())
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"{checked} result file(s) checked, {len(problems)} problem(s)")
        return 1
    print(f"{checked} result file(s) checked, all schema-valid")
    print("event catalogue in docs/OBSERVABILITY.md matches the registry")
    print("examples/ and benchmarks/ import only the repro.api facade")
    if checked == 0:
        print("(run `python benchmarks/run_all.py` to generate results)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
