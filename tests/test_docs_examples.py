"""Docs and examples cannot rot: execute, parse, and link-check them.

Four layers of drift protection over README.md, ``docs/*.md``, and
``examples/*.py``:

* every example script runs green under its defaults (demo scale: seconds
  each — examples demonstrate an API, they are not benchmarks);
* every fenced ``python`` block in the docs executes green (each document's
  blocks run as one script, in order, in a scratch directory and a clean
  subprocess so registry side effects cannot leak into the test session);
* every ``python -m repro ...`` command shown in a ``bash`` fence, and
  every ``python -m repro compare|run`` line CI runs, parses against the
  real CLI parser (flags, choices, dataset names and ``compare``'s knob
  SPECs stay valid), every ``benchmarks/probe.py ...`` line in CI and the
  docs parses against the probe's own parser, and
  ``json``/``toml`` fences parse with the real parsers;
* every relative markdown link (and heading anchor) resolves.

The execution-heavy tests carry the ``docs`` marker: CI runs them in the
dedicated docs job, and `pytest -m "not slow and not docs"` skips them for
the quick tier-1 loop.  Annotate a fence with ``<!-- docs: no-run -->`` on
the line above to exempt it from execution (none currently need it).
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
NO_RUN = "<!-- docs: no-run -->"


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) \
        + env.get("PYTHONPATH", "")
    return env


def _fences(path: Path) -> list[tuple[str, int, str]]:
    """(language, first line number, body) for every fenced block."""
    blocks: list[tuple[str, int, str]] = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        match = re.match(r"^```(\w+)\s*$", lines[i])
        if not match:
            i += 1
            continue
        lang, start = match.group(1), i + 1
        body: list[str] = []
        i += 1
        while i < len(lines) and not lines[i].startswith("```"):
            body.append(lines[i])
            i += 1
        i += 1  # closing fence
        preceding = next(
            (prev for prev in reversed(lines[:start - 1]) if prev.strip()), "")
        if NO_RUN not in preceding:
            blocks.append((lang, start + 1, "\n".join(body)))
    return blocks


def _doc_id(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.docs
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_executes(script: Path, tmp_path):
    """Every example runs green under its documented defaults."""
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=_subprocess_env(),
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed\n--- stdout ---\n{proc.stdout[-2000:]}"
        f"\n--- stderr ---\n{proc.stderr[-4000:]}")


@pytest.mark.docs
@pytest.mark.parametrize("doc", [d for d in DOC_FILES
                                 if any(lang == "python"
                                        for lang, _n, _b in _fences(d))],
                         ids=_doc_id)
def test_markdown_python_blocks_execute(doc: Path, tmp_path):
    """A document's python fences run as one script, in order."""
    pieces = []
    for lang, line, body in _fences(doc):
        if lang == "python":
            pieces.append(f"# --- {doc.name} line {line}\n{body}")
    script = tmp_path / f"{doc.stem}_snippets.py"
    script.write_text("\n\n".join(pieces) + "\n")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=_subprocess_env(),
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, (
        f"python snippets in {_doc_id(doc)} failed (block boundaries are "
        f"marked with '# --- {doc.name} line N')\n--- stdout ---\n"
        f"{proc.stdout[-2000:]}\n--- stderr ---\n{proc.stderr[-4000:]}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_markdown_data_blocks_parse(doc: Path):
    """json/toml fences must parse with the real parsers."""
    for lang, line, body in _fences(doc):
        if lang == "json":
            try:
                json.loads(body)
            except json.JSONDecodeError as exc:
                pytest.fail(f"{_doc_id(doc)} line {line}: bad JSON: {exc}")
        elif lang == "toml":
            tomllib = pytest.importorskip("tomllib")
            try:
                tomllib.loads(body)
            except tomllib.TOMLDecodeError as exc:
                pytest.fail(f"{_doc_id(doc)} line {line}: bad TOML: {exc}")


def _logical_lines(lines: list[str]) -> list[tuple[int, str]]:
    """(offset of the last physical line, text) per shell line: a trailing
    backslash continues a line onto the next."""
    out: list[tuple[int, str]] = []
    logical = ""
    for offset, raw in enumerate(lines):
        logical = f"{logical} {raw.strip()}".strip()
        if logical.endswith("\\"):
            logical = logical[:-1]
            continue
        out.append((offset, logical))
        logical = ""
    return out


def _cli_commands(doc: Path) -> list[tuple[int, list[str]]]:
    """Every `python -m repro ...` invocation in the doc's bash fences."""
    commands: list[tuple[int, list[str]]] = []
    for lang, line, body in _fences(doc):
        if lang != "bash":
            continue
        for offset, stripped in _logical_lines(body.splitlines()):
            if not stripped or stripped.startswith("#"):
                continue
            tokens = shlex.split(stripped, comments=True)
            if not tokens:
                continue
            if tokens[:2] == ["python", "-m"] and tokens[2:3] == ["repro"]:
                commands.append((line + offset, tokens[3:]))
            elif tokens[0] == "python" and len(tokens) > 1 \
                    and tokens[1].endswith(".py"):
                assert (ROOT / tokens[1]).exists(), (
                    f"{_doc_id(doc)} line {line + offset}: "
                    f"script {tokens[1]} does not exist")
    return commands


def _parse_or_fail(where: str, args: list[str]) -> None:
    """The line parses, and a ``compare`` line's knob SPECs read as plan
    values (argparse alone takes any SPEC text)."""
    from repro.__main__ import _plan_from_args, build_parser, cmd_compare

    try:
        parsed = build_parser().parse_args(args)
    except SystemExit:
        pytest.fail(f"{where}: CLI line does not parse: "
                    f"python -m repro {' '.join(args)}")
    if parsed.func is cmd_compare:
        try:
            _plan_from_args(parsed, parsed.methods or ("fedavg",))
        except ValueError as exc:
            pytest.fail(f"{where}: compare knob flags do not read: {exc}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_cli_lines_parse(doc: Path):
    """Every documented CLI invocation must survive the argparse parser."""
    for line, args in _cli_commands(doc):
        _parse_or_fail(f"{_doc_id(doc)} line {line}", args)


def test_ci_cli_lines_parse():
    """Every ``python -m repro compare|run`` line in the CI workflow parses,
    its knob SPECs included (an interpreter path or an environment prefix
    may come first)."""
    parsed = 0
    for offset, text in _logical_lines(CI_WORKFLOW.read_text().splitlines()):
        if text.startswith("#") or " -m repro " not in text:
            continue
        tokens = shlex.split(text)
        start = tokens.index("-m") + 2
        if tokens[start - 1] == "repro" and tokens[start:start + 1] in (
                ["compare"], ["run"]):
            _parse_or_fail(f"ci.yml line {offset + 1}", tokens[start:])
            parsed += 1
    assert parsed >= 9


# A probe invocation, up to the end of its code span, comment or line.
PROBE_LINE = re.compile(r"benchmarks/probe\.py((?:[ \t]+[^\s`#);|]+)*)")


def _probe_lines(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, arguments) of every ``benchmarks/probe.py`` invocation;
    a bare mention of the script names no plane and is not one."""
    return [(number, shlex.split(match.group(1)))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            for match in PROBE_LINE.finditer(line) if match.group(1)]


def _probe_parses(where: str, args: list[str]) -> None:
    from benchmarks.probe import build_parser

    try:
        build_parser().parse_args(args)
    except SystemExit:
        pytest.fail(f"{where}: probe line does not parse: "
                    f"benchmarks/probe.py {' '.join(args)}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_probe_lines_parse(doc: Path):
    """A renamed probe plane or mode fails here, not in CI."""
    for line, args in _probe_lines(doc):
        _probe_parses(f"{_doc_id(doc)} line {line}", args)


def test_ci_probe_lines_parse():
    """Every probe step CI runs parses against the probe's parser."""
    lines = _probe_lines(CI_WORKFLOW)
    for line, args in lines:
        _probe_parses(f"ci.yml line {line}", args)
    assert len(lines) >= 2  # the data plane's --plans and --faults


# A ROADMAP item's number moves at every re-anchor; its title stays.
ROADMAP_NUMBER = re.compile(r"ROADMAP\s+items?\s+\d")


@pytest.mark.parametrize("doc", sorted(p for p in (ROOT / "docs").rglob("*")
                                       if p.is_file()), ids=_doc_id)
def test_docs_cite_roadmap_items_by_title(doc: Path):
    text = doc.read_text()
    stale = [f"line {text.count(chr(10), 0, match.start()) + 1}: {match.group()}"
             for match in ROADMAP_NUMBER.finditer(text)]
    assert not stale, f"{_doc_id(doc)} cites ROADMAP items by number: {stale}"


def _slug(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    slug = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return slug.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence and line.startswith("#"):
            anchors.add(_slug(line.lstrip("#")))
    return anchors


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_relative_links_resolve(doc: Path):
    """Relative links point at real files; anchors at real headings."""
    text = doc.read_text()
    problems = []
    for target in re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = doc if not path_part else (doc.parent / path_part).resolve()
        if not dest.exists():
            problems.append(f"{target}: file not found")
            continue
        if anchor and dest.suffix == ".md" and anchor not in _anchors(dest):
            problems.append(f"{target}: no heading for anchor '#{anchor}'")
    assert not problems, f"broken links in {_doc_id(doc)}: {problems}"


def test_strategy_kwargs_table_matches_the_factories():
    """docs/PLAN_SCHEMA.md's strategies table lists every built-in method's
    kwargs with the type and default its factory's signature declares."""
    from repro.experiments.registry import strategy_factory, strategy_names

    text = (ROOT / "docs" / "PLAN_SCHEMA.md").read_text()
    section = text.partition("### `strategies` entries")[2].partition("\n#")[0]
    documented = set(re.findall(
        r"^\| `(\w+)` \| `?(\w+|—)`? \| (\w+|—) \| `?([^|`]+?)`? \|",
        section, re.M))
    declared = set()
    for name in strategy_names():
        params = inspect.signature(strategy_factory(name)).parameters.values()
        declared |= {(name, p.name,
                      {"float": "float", "int": "int"}.get(p.annotation,
                                                           "object"),
                      json.dumps(p.default)) for p in params}
        if not params:
            declared.add((name, "—", "—", "—"))
    assert documented == declared
