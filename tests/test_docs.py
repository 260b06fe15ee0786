"""The README's library and CLI examples run and state true values; every package export exists."""

import ast
import re
import shlex
from pathlib import Path

import hodgetriples
from hodgetriples import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# expression in the README's Library block -> the value its comment states, as a Python literal
STATED = {
    "critical_values(spec)": "[(4, 3), (7, 4), (10, 5)]",
    "result.complex_dim": "9",
    "hodge_triples_sum(spec, sigma) == result": "True",
}


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    lines = block.splitlines()
    comments = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            line = lines[node.lineno - 1]
            comments[ast.get_source_segment(block, node)] = line.partition("#")[2].strip()
    for expression, text in STATED.items():
        assert comments[expression].startswith(text), expression
        assert eval(expression, namespace) == ast.literal_eval(text), expression


def test_readme_cli_examples(capsys):
    block = re.search(r"```sh\n(.*?)```", README.read_text(encoding="utf-8").split("## CLI", 1)[1], re.S).group(1)
    lines = block.splitlines()
    examples = [
        (command, stated.removeprefix("# -> "))
        for command, stated in zip(lines, lines[1:])
        if command.startswith("hodgetriples compute ") and stated.startswith("# -> ")
    ]
    assert len(examples) >= 2  # both stated in the README today
    for command, stated in examples:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == stated + "\n", command


def test_every_export_resolves():
    assert [name for name in hodgetriples.__all__ if not hasattr(hodgetriples, name)] == []
    assert len(set(hodgetriples.__all__)) == len(hodgetriples.__all__)
