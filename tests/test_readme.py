"""README.md matches the code: its library example runs against the
current API, and its command-line section names exactly the parser's
flags."""
import argparse
import re
from pathlib import Path

from blackbox_linalg.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    [block] = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    # padded so that a traceback names the README's own line numbers
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out


def _command_line_section(text):
    start = text.index("## Command line")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_command_line_flags_match_the_parser():
    # every flag the command-line section names is one some subcommand
    # accepts (a retired flag cannot linger there), and every option the
    # parser defines is documented there
    parser = build_parser()
    [subparsers] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
    defined = {flag for sub in subparsers.choices.values()
               for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           _command_line_section(README.read_text(encoding="utf-8"))))
    assert named - defined == set()
    assert defined - named == set()
