"""scipy stays off the operator and CLI path.

Importing scipy.special costs several times the arithmetic of a one-shot
``smld apply``, so only the two functions that need it, the incomplete
gamma and beta functions, load it, on their first call.  A fresh
interpreter checks this: a module-level scipy import anywhere under
``smld`` fails the test.  Every name a module exports must also exist.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import smld

_SCRIPT = """
import contextlib, io, json, sys
import smld, smld.cli, smld.verification
from smld import cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["apply", "--f=sin:2", "--n=200", "--x-grid=0.5,1.7,3.9"]),
             cli.main(["converge", "--f=abs:1", "--norm=sup:2", "--n-grid=10,20"])]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from smld.operator import OperatorParams
from smld.special import reg_lower_gamma
from smld.spectral import row_deficit_tail

params = OperatorParams(20.0, 0.5, 1.0)
values = [reg_lower_gamma(2.5, 1.7), reg_lower_gamma(40.0, 35.0),
          row_deficit_tail(params, 30, 200), row_deficit_tail(params, 100, 200)]
print(json.dumps({"codes": codes, "before": before, "values": values,
                  "after": "scipy.special" in sys.modules}))
"""


def test_operator_and_cli_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(smld.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["before"] == []
    # scipy's gammainc and betainc, loaded on the first call
    assert out["values"] == pytest.approx(
        [0.36143007689620493, 0.219809554825318, 2.0911612486205944e-30, 4.604755647432043e-08],
        rel=1e-14,
    )
    assert out["after"]


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks ``from smld.<module> import *``
    modules = [smld] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(smld.__path__, "smld.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) >= 10
    assert missing == []
