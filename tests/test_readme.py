"""README drift: its library example, model file and CLI sample must run."""

import re
from pathlib import Path

from conftest import model_text
from lpvident.cli import main
from lpvident.model import parse_model, print_model

_ROOT = Path(__file__).resolve().parent.parent
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.M | re.S)


def _blocks(lang: str) -> list:
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    return [body for kind, body in _BLOCK.findall(text) if kind == lang]


def _matches(want: str, got: str) -> bool:
    """Exact line match; a `...` in the README line elides the middle."""
    if "..." not in want:
        return want == got
    head, tail = want.split("...", 1)
    return (len(got) >= len(head) + len(tail)
            and got.startswith(head) and got.endswith(tail))


def test_library_example_runs(monkeypatch, capsys):
    (code,) = _blocks("python")
    monkeypatch.chdir(_ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("NonIdentifiable ")


def test_model_block_is_shared_gain():
    block = _blocks("text")[0]
    assert block == model_text("shared_gain")
    assert (print_model(parse_model(block))
            == print_model(parse_model(model_text("shared_gain"))))


def test_cli_sample_output(monkeypatch, capsys):
    (command,) = [line for body in _blocks("sh") for line in body.splitlines()
                  if line.startswith("lpvident analyze")]
    expected = _blocks("text")[1].splitlines()
    monkeypatch.chdir(_ROOT)
    assert main(command.split()[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(expected)
    for want, line in zip(expected, got):
        assert _matches(want, line), (want, line)
