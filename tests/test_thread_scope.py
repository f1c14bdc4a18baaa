"""Each command runs with OpenBLAS at one thread, and puts the count back.

The `blas` fixture (conftest.py) sets the count to 3 and spies on the setter
that every solver.one_blas_thread scope calls.
"""
import threading

import pytest

import localex.cli as cli
from conftest import asset
from localex import solver
from localex.errors import RemoteUnavailable

CONFIGS = {"explain": "explain_lime.json", "stability": "stability.json",
           "converge": "convergence.json", "fidelity": "fidelity.json",
           "distributions": "distributions.json"}


def _spy_on_the_work(command, monkeypatch, work):
    """Put work(original) in place of the function that does the command's work."""
    if command in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, command, work(cli._RUNNERS[command]))
    else:
        name = "explain" if command == "explain" else "distributions_table"
        monkeypatch.setattr(cli, name, work(getattr(cli, name)))


@pytest.mark.parametrize("exit_code", [0, 1, 2])
@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_each_command_runs_on_one_thread_and_puts_the_count_back(command, exit_code, blas,
                                                                 monkeypatch, tmp_path):
    get, seen = blas
    inside = []

    def work(original):
        def spy(*args):
            inside.append(get())
            if exit_code == 2:
                raise RemoteUnavailable("remote model at http://127.0.0.1:9/f failed")
            return original(*args)
        return spy

    _spy_on_the_work(command, monkeypatch, work)
    config = asset(CONFIGS[command]) if exit_code != 1 else str(tmp_path / "missing.json")
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == exit_code
    assert inside == ([] if exit_code == 1 else [1])
    assert seen["set"] == [1, 3] and get() == 3


def test_a_narrow_fit_inside_a_command_opens_its_own_scope_without_waiting(blas, tmp_path):
    # explain_lime's fit opens its own scope on the thread that holds the
    # command's
    get, seen = blas
    codes = []
    argv = ["explain", "--config", asset("explain_lime.json"), "--out", str(tmp_path / "e")]
    thread = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]
    assert seen == {"set": [1, 3], "in_fit": [1]} and get() == 3


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_without_the_thread_calls_each_command_writes_the_same_bytes(command, monkeypatch,
                                                                     tmp_path):
    outs = [tmp_path / "scoped", tmp_path / "plain"]
    assert cli.main([command, "--config", asset(CONFIGS[command]), "--out", str(outs[0])]) == 0
    monkeypatch.setattr(solver, "_openblas_threads", lambda: None)
    assert cli.main([command, "--config", asset(CONFIGS[command]), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
