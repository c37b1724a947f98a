"""The example session of README.md, run through the command line.

Under pytest the session runs through ``python -m artifact``.  Run as a
script, it runs through the command given as arguments instead, for example
the installed console script:

    python tests/test_readme.py artifact
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def example_session() -> tuple[dict, list]:
    """The files the README's example session writes, as {path: text}, and
    its commands, as (arguments after `artifact`, the output shown)."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Example session\n", 1)[1]
    lines = iter(re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines())
    files, commands = {}, []
    for line in lines:
        heredoc = re.fullmatch(r"\$ cat > (\S+) <<'JSON'", line)
        if heredoc:
            files[heredoc.group(1)] = "\n".join(iter(lines.__next__, "JSON"))
        elif line.startswith("$ artifact "):
            shown = "\n".join(iter(lines.__next__, ""))
            commands.append((shlex.split(line[len("$ artifact "):]), shown))
    return files, commands


def run_session(launcher: list, workdir: str, env=None) -> int:
    """Run every command of the session with launcher, on copies of its files
    in workdir, and check that each exits 0 and prints the JSON shown; the
    number of commands run."""
    files, commands = example_session()
    moved = {path: os.path.join(workdir, os.path.basename(path)) for path in files}
    for path, text in files.items():
        with open(moved[path], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for argv, shown in commands:
        argv = [moved.get(arg, arg) for arg in argv]
        proc = subprocess.run(launcher + argv, capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), (argv, proc.stderr)
        assert json.loads(proc.stdout) == json.loads(shown), argv
    return len(commands)


def test_readme_example_session_prints_what_the_readme_shows(tmp_path):
    import artifact

    src = os.path.dirname(os.path.dirname(artifact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert run_session([sys.executable, "-m", "artifact"], str(tmp_path), env) == 3


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        count = run_session(sys.argv[1:], tmp)
    print(f"{count} README commands printed what the README shows")
