"""The README's Python examples, its `tv` commands and the `tv --help`
examples run as written."""

import re
import shlex
from pathlib import Path

from tvmeter.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block uses the first one's names
        exec(compile(block, str(README), "exec"), namespace)


def test_help_examples_run(capsys):
    epilog = build_parser().epilog.replace("\\\n", " ")
    commands = [re.sub(r"\(.*\)", "", line).split()[1:]
                for line in epilog.splitlines() if line.startswith("  tv ")]
    assert len(commands) == 10
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
        assert capsys.readouterr().out.startswith("# tvmeter ")


def test_shell_commands_run(tmp_path, monkeypatch, capsys):
    # each `tv` line of the sh blocks, from the repository root, with its
    # --output file sent to tmp_path
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("tv ")]
    assert len(commands) == 8
    monkeypatch.chdir(README.parent)
    for argv in commands:
        out = None
        if "--output" in argv:
            i = argv.index("--output") + 1
            argv[i] = out = str(tmp_path / argv[i])
        assert main(argv) == 0, shlex.join(argv)
        text = Path(out).read_text(encoding="utf-8") if out else capsys.readouterr().out
        assert text.startswith("# tvmeter "), shlex.join(argv)
