"""The library example of README.md runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    [block] = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    # padded so that a traceback names the README's own line numbers
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out
