"""Every row of the hard-cell table, in process through heunqes.cli.main."""

import os

import pytest

from hard_cells import CELLS, faults
from heunqes.cli import CONFIG_ENV_VAR, main


@pytest.mark.parametrize(
    "cell",
    [pytest.param(cell, marks=pytest.mark.xfail(strict=True, reason=cell.xfail) if cell.xfail else ()) for cell in CELLS],
    ids=str,
)
def test_hard_cell(capsys, monkeypatch, cell):
    # a CPU count of 4, so that --jobs 2 and 3 fork on any host despite the CPU cap
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def run(argv, config_env):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        if config_env:
            monkeypatch.setenv(CONFIG_ENV_VAR, config_env)
        code = main(argv)
        return (code, *capsys.readouterr())

    assert faults(cell, run) == []
