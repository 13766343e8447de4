import sys

import pytest

from formulakit import lexer


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
