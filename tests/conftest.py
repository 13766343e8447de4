import os
import subprocess
import sys
from pathlib import Path

import pytest

from formulakit import lexer

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def lex_calls(monkeypatch):
    """The formulas passed to `lexer.lex`, one entry per call, through
    whichever module's name for it the call goes."""
    calls = []
    real = lexer.lex

    def counted(formula, *args, **kwargs):
        calls.append(formula)
        return real(formula, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "formulakit" and getattr(module, "lex", None) is real:
            monkeypatch.setattr(module, "lex", counted)
    return calls


@pytest.fixture()
def run_python():
    """A function that runs this interpreter on `args` in a subprocess, with
    the checkout's src first on PYTHONPATH, and returns the finished process
    with its stdout and stderr as text."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*args: str, timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=timeout, **kwargs)
    return run
