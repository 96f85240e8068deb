"""scripts/bench.py names a failed run and shows the end of its output."""

import json
import runpy
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    """bench.py's functions, with perfbench runs replaced by `fake`."""
    ns = runpy.run_path(str(BENCH))
    proc = {}

    def fake(cmd, **kwargs):
        if "timeout" in proc:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"],
                                            output=b"half a line\n")
        return subprocess.CompletedProcess(cmd, proc["rc"], proc["out"],
                                           "Traceback: boom\n")

    monkeypatch.setattr(subprocess, "run", fake)
    return ns, proc


def summary(failed):
    head = ["workload symbolic_dump, seed 3, 9 requests"]
    head += [f"FAILED: dump {i} wrong" for i in range(failed)]
    filler = [f"metric_{i} 1.0 s" for i in range(40)]
    return "\n".join(head + filler + [json.dumps({"failed": failed})]) + "\n"


def test_failed_requests_are_reported_and_kept(bench, capsys):
    ns, proc = bench
    proc.update(rc=0, out=summary(2))
    result = ns["run_once"]("root", "symbolic_dump", 3, 30, "W pair 2 parent "
                            "seed 3")
    assert result == {"failed": 2}
    err = capsys.readouterr().err.splitlines()
    # the FAILED: lines lie above the last 30 lines and are shown as well
    assert err[:3] == ["W pair 2 parent seed 3: exit code 0, failed 2",
                       "FAILED: dump 0 wrong", "FAILED: dump 1 wrong"]
    assert len(err) == 1 + 2 + 30 and err[-1] == "Traceback: boom"


def test_nonzero_exit_and_timeout_stop(bench, capsys):
    ns, proc = bench
    proc.update(rc=3, out=summary(0))
    with pytest.raises(SystemExit) as stop:
        ns["run_once"]("root", "cli_mix", 1, 30, "W pair 0 change seed 1")
    assert stop.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "W pair 0 change seed 1: exit code 3"
    assert err[-1] == "Traceback: boom"
    proc["timeout"] = True
    with pytest.raises(SystemExit):
        ns["run_once"]("root", "cli_mix", 1, 30, "W pair 0 change seed 1")
    assert capsys.readouterr().err.splitlines() == [
        "W pair 0 change seed 1: timed out after 600 s", "half a line"]


def test_summary_gives_attempted_requests_per_run(bench):
    # a side that completes more requests can read a higher req_tail_s
    # with no slower request; the counts per run show it
    ns, _ = bench
    end_to_end = [{"name": "req_tail_s", "unit": "s", "better": "lower",
                   "bound": 0.25}]
    attempted = {"parent": [41, 37, 45], "change": [55, 60, 58]}
    runs = [{"workload": "point_sweep", "pair": pair, "side": side,
             "result": {"failed": 0, "attempted": attempted[side][pair],
                        "metrics": {"req_tail_s": {"value": 0.5}}}}
            for pair in range(3) for side in ("parent", "change")]
    rows = ns["summarise"](runs, end_to_end)["point_sweep"]
    assert rows["attempted"] == {
        "parent": {"min": 37, "median": 41, "max": 45},
        "change": {"min": 55, "median": 58, "max": 60}}
    assert rows["failed"] == {"parent": 0, "change": 0}
    assert rows["req_tail_s"]["change_wins"] == 0
