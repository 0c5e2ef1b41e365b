"""``verify --claim all`` shares its jobs with one forked worker when two
CPUs are there: the same bytes, errors and exit codes as one process, and
no process left behind."""

import hashlib
import marshal
import os
import random
import select
import time

import pytest

import tropcm.cli
import tropcm.runner
from tropcm.cli import main

RAW = {
    "g24": "vars: x1 x2 x3 x4 x5 x6\nfield: Q\nx1*x6 - x2*x5 + x3*x4\n",
    "rnc4": "vars: x1 x2 x3 x4 x5\nfield: Q\nx1*x3 - x2*x2\nx1*x4 - x3*x2\n"
            "x1*x5 - x4*x2\nx2*x4 - x3*x3\nx2*x5 - x4*x3\nx3*x5 - x4*x4\n",
}
SUITE = ["verify", "inst.ideal", "--claim", "all", "--maxdeg", "2"]
G24_FP = "vars: x1 x2 x3 x4 x5 x6\nfield: Fp:32003\nx1*x6 - x2*x5 + x3*x4\n"


def _never_fork():
    raise AssertionError("the one-process path forked")


def _forks(patch, then=None):
    """Patch ``os.fork`` to record the worker pids it returns, after
    ``then(pid)`` when given; the list of those pids."""
    fork, pids = os.fork, []

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
            if then:
                then(pid)
        return pid

    patch.setattr(os, "fork", recorded)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def generic(tmp_path, monkeypatch, capsys):
    """Write the seed-42 generic instance ``name`` to ``inst.ideal`` in a
    new directory, and make that the working directory."""
    def make(name, where):
        directory = tmp_path / where
        directory.mkdir()
        monkeypatch.chdir(directory)
        (directory / "raw.ideal").write_text(RAW[name])
        assert main(["generic", "raw.ideal", "--seed", "42", "--bound", "100",
                     "-o", "inst.ideal"]) == 0
        capsys.readouterr()
        return directory
    return make


def _files(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


@pytest.mark.parametrize("name", sorted(RAW))
def test_full_suite_bytes_do_not_depend_on_the_cpu_count(name, generic,
                                                         monkeypatch, capsys,
                                                         fresh_cache):
    outputs, caches = [], []
    for count in (1, 2):
        directory = generic(name, f"cpus{count}")
        with monkeypatch.context() as patch:
            patch.setattr(tropcm.runner, "cpus", lambda: count)
            if count == 1:
                patch.setattr(os, "fork", _never_fork)
            else:
                workers = _forks(patch)
            fresh_cache()
            assert main(SUITE) == 0
            outputs.append(capsys.readouterr())
            fresh_cache()
            assert main(SUITE + ["--cache-dir", "gbcache"]) == 0
            outputs.append(capsys.readouterr())
        _no_child_left()
        caches.append(_files(directory / "gbcache"))
    assert len(workers) == 2
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert outputs[0].err == "" and outputs[0].out.startswith("{")
    assert caches[0] == caches[1] and caches[0]


@pytest.mark.parametrize("error, code", [(ValueError, 2), (RuntimeError, 3)])
def test_a_claim_raising_in_the_worker_is_the_one_process_error(
        error, code, generic, monkeypatch, capsys):
    generic("g24", "run")
    told, tell = os.pipe()

    def broken(*args, **kwargs):
        os.write(tell, os.getpid().to_bytes(4, "big"))
        raise error("well-poised broke")

    monkeypatch.setattr(tropcm.cli, "well_poised_check", broken)
    outcomes = []
    with monkeypatch.context() as patch:
        patch.setattr(tropcm.runner, "cpus", lambda: 1)
        patch.setattr(os, "fork", _never_fork)
        outcomes.append((main(SUITE), capsys.readouterr()))
    os.read(told, 4)

    def worker_raised(pid):
        # this process takes no job until the worker has met the broken
        # claim, which the job order puts first
        assert select.select([told], [], [], 60)[0], "the worker never raised"
        assert int.from_bytes(os.read(told, 4), "big") == pid

    with monkeypatch.context() as patch:
        patch.setattr(tropcm.runner, "cpus", lambda: 2)
        workers = _forks(patch, worker_raised)
        outcomes.append((main(SUITE), capsys.readouterr()))
    assert len(workers) == 1
    os.close(told)
    os.close(tell)
    _no_child_left()
    assert outcomes[0] == outcomes[1]
    rc, captured = outcomes[0]
    assert rc == code
    assert captured.out == "" and captured.err == "error: well-poised broke\n"


def test_a_usage_error_starts_no_worker(generic, monkeypatch, capsys):
    generic("g24", "run")
    monkeypatch.setattr(tropcm.runner, "cpus", lambda: 2)
    assert main(SUITE + ["--samples", "-1"]) == 2
    assert capsys.readouterr().err == "error: --samples must be non-negative\n"
    _no_child_left()


def test_run_raises_the_earliest_failing_jobs_error(monkeypatch):
    # random failing jobs, 40 times alone and 40 times forked: the results,
    # or the error of the earliest failing job, as one process running them
    # in order gives, and no worker left
    rng = random.Random(7)
    for count in (1, 2):
        monkeypatch.setattr(tropcm.runner, "cpus", lambda: count)
        for _ in range(40):
            failing = {i for i in range(12) if rng.random() < 0.15}

            def job(i):
                def run():
                    time.sleep(0.002)   # long enough for both to take jobs
                    if i in failing:
                        raise ValueError(i)
                    return -i
                return run

            jobs = [job(i) for i in range(12)]
            if failing:
                with pytest.raises(ValueError) as raised:
                    tropcm.runner.run(jobs)
                assert raised.value.args == (min(failing),)
            else:
                assert tropcm.runner.run(jobs) == [-i for i in range(12)]
            _no_child_left()


def test_a_fork_that_fails_leaves_the_jobs_to_this_process(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(tropcm.runner, "cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_process)
    assert tropcm.runner.run([lambda: 1, lambda: 2]) == [1, 2]
    _no_child_left()


@pytest.mark.parametrize("how", ["exit", "unmarshallable"])
def test_a_worker_that_sends_nothing_leaves_its_jobs_to_this_process(
        how, generic, monkeypatch, capsys):
    # every claim the worker runs ends it, or returns a value marshal
    # refuses; this process then runs the worker's jobs itself
    generic("g24", "run")
    with monkeypatch.context() as patch:
        patch.setattr(tropcm.runner, "cpus", lambda: 1)
        patch.setattr(os, "fork", _never_fork)
        alone = (main(SUITE), capsys.readouterr())
    parent = os.getpid()
    told, tell = os.pipe()

    def in_the_worker(claim):
        def job(ideal, args):
            if os.getpid() == parent:
                return claim(ideal, args)
            os.write(tell, b"w")
            if how == "exit":
                os._exit(0)
            return {"claim": object()}
        return job

    for name, (required, optional, claim) in list(tropcm.cli.CLAIMS.items()):
        monkeypatch.setitem(tropcm.cli.CLAIMS, name,
                            (required, optional, in_the_worker(claim)))

    def worker_took_a_claim(pid):
        assert select.select([told], [], [], 60)[0], "the worker took no job"

    with monkeypatch.context() as patch:
        patch.setattr(tropcm.runner, "cpus", lambda: 2)
        workers = _forks(patch, worker_took_a_claim)
        forked = (main(SUITE), capsys.readouterr())
    assert len(workers) == 1
    os.close(told)
    os.close(tell)
    _no_child_left()
    assert forked == alone
    assert alone[0] == 0 and alone[1].err == ""


def _plain(value):
    """Whether ``value`` is built of dicts with str keys, lists, str, int,
    bool and None alone."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return value is None or type(value) in (str, int, bool)


@pytest.mark.parametrize("name", ["conic", "g24", "rnc4", "g24fp"])
def test_every_full_suite_report_is_plain_data_marshal_keeps(
        name, generic, tmp_path, monkeypatch, capsys):
    # the worker's reports cross the pipe through marshal
    if name == "conic":
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.ideal").write_text("vars: x1 x2 x3\nx1*x3 - x2^2\n")
    else:
        monkeypatch.setitem(RAW, "g24fp", G24_FP)
        generic(name, "run")
    reports, run = [], tropcm.runner.run

    def recorded(jobs):
        reports.extend(run(jobs))
        return reports

    monkeypatch.setattr(tropcm.runner, "cpus", lambda: 1)
    monkeypatch.setattr(tropcm.runner, "run", recorded)
    assert main(SUITE) == 0
    assert capsys.readouterr().err == ""
    assert reports
    for report in reports:
        assert _plain(report), report
        assert marshal.loads(marshal.dumps(report)) == report
