"""`analyze` on forked workers: results, error messages and exit codes are the serial ones."""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import fairjudge.metrics
from fairjudge.cli import EXIT_DATA, main
from fairjudge.fanout import fan_out
from fairjudge.metrics import MetricsError

SPEC = {
    "n_docs": 10,
    "labels": [
        {"label_id": "gender", "kind": "binary", "values": ["female", "male"],
         "reference_value": "female"},
    ],
    "bias_effects": {"gender": 0.5},
    "noise_sigma": 0.15,
    "stub_models": ["stub-a", "stub-b", "stub-c"],
}
FILES = ("stub-c", "stub-a", "stub-b")  # file order is not model order


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fanout")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = root / "fx"
    assert main(["fixture", "--seed", "3", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def lines_of(corpus_dir, model):
    return [json.loads(line) for line in (corpus_dir / f"predictions_{model}.jsonl").read_text().splitlines()]


def run(corpus_dir, work, files):
    """analyze over the given (model, records or raw lines) files, in order."""
    args = []
    for model, records in files:
        path = work / f"{model}.jsonl"
        path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        args += ["--predictions", str(path)]
    return main(["analyze", "--corpus", str(corpus_dir), *args, "--out", str(work / "out")])


def serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files):
    """Exit code and stderr lines of analyze with one CPU, asserted equal to those with two."""
    seen = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        work = tmp_path / f"cpus{n}"
        work.mkdir(exist_ok=True)
        code = run(corpus_dir, work, files)
        seen.append((code, capsys.readouterr().err.splitlines()))
    assert seen[0] == seen[1]
    code, err = seen[0]
    assert code == EXIT_DATA and not any("Traceback" in line for line in err)
    assert [line for line in err if line.startswith("error: ")] == [err[-1]]
    return err[-1]


def test_fan_out_keeps_item_order_and_runs_on_workers(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    results = list(fan_out(lambda i: (i, os.getpid()), range(4)))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert parent not in {pid for _, pid in results}
    cpus(monkeypatch, 1)
    assert list(fan_out(lambda i: (i, os.getpid()), range(4))) == [(i, parent) for i in range(4)]


def test_fan_out_raises_the_first_failing_item(monkeypatch):
    def fail_odd(i):
        if i % 2:
            time.sleep(0.3 if i == 1 else 0)  # item 3 fails first
            raise MetricsError(f"item {i}")
        return i

    for n in (1, 2):
        cpus(monkeypatch, n)
        results = fan_out(fail_odd, range(4))
        assert next(results) == 0
        with pytest.raises(MetricsError, match="^item 1$"):
            next(results)


def test_bad_lines_in_files_1_and_3_report_file_1(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    n = len(files[0][1])
    files[0][1].append("{not json")
    files[2][1].insert(0, "[]")
    message = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.startswith(f"error: stub-c.jsonl:{n + 1}: invalid JSON")


def test_line_error_in_file_2_beats_stray_key_in_file_1(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    stray = dict(files[0][1][0], label_id="gender", variant_value="female")  # every baseline is "female"
    files[0][1].append(stray)
    files[1][1].append(dict(files[1][1][0], predicted_months="36"))
    message = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.startswith(f"error: stub-a.jsonl:{len(files[1][1])}: ")
    assert "predicted_months must be a number or null" in message

    files[1][1].pop()  # the stray key alone
    message = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.endswith("no such variant in the corpus")


def test_metrics_error_in_two_fits_reports_the_sorted_first_model(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    for model, records in files:
        if model != "stub-a":
            records[:] = [r for r in records if r["label_id"] is not None]  # no baselines
    message = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message == "error: no baseline predictions for model 'stub-b'"


def test_killed_worker_fails_promptly(corpus_dir, tmp_path, monkeypatch):
    encode = fairjudge.metrics._encode_source

    def killed_on_file_2(name, lines, corpus):
        if name == "stub-a.jsonl":
            os._exit(1)
        return encode(name, lines, corpus)

    def hung(signum, frame):
        raise AssertionError("analyze hung after a worker died")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(fairjudge.metrics, "_encode_source", killed_on_file_2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            run(corpus_dir, tmp_path, [(m, lines_of(corpus_dir, m)) for m in FILES])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Interrupted(Exception):
    pass


def test_interrupt_while_workers_start_leaves_no_worker_behind(monkeypatch):
    """An interrupt that lands while the pool forks its workers is taken after they are up."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    spawn = ProcessPoolExecutor._spawn_process

    def interrupted_spawn(self):
        spawn(self)
        os.kill(os.getpid(), signal.SIGINT)  # after the first worker is forked

    def interrupt(signum, frame):
        raise Interrupted

    cpus(monkeypatch, 2)
    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", interrupted_spawn)
    previous = signal.signal(signal.SIGINT, interrupt)
    try:
        with pytest.raises(Interrupted):
            list(fan_out(lambda i: i, range(4)))
        assert multiprocessing.active_children() == []
    finally:
        signal.signal(signal.SIGINT, previous)
        for worker in multiprocessing.active_children():
            worker.kill()


def test_workers_do_not_take_interrupts(monkeypatch):
    cpus(monkeypatch, 2)
    masks = list(fan_out(lambda i: signal.pthread_sigmask(signal.SIG_BLOCK, ()), range(2)))
    assert all(signal.SIGINT in mask for mask in masks)
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
