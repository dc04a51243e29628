"""`analyze` on forked workers: results, error messages and exit codes are the serial ones."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import fairjudge.metrics
from fairjudge.cli import EXIT_DATA, EXIT_OK, main
from fairjudge.fanout import fan_out
from fairjudge.metrics import MetricsError

SPEC = {
    "n_docs": 10,
    "labels": [
        {"label_id": "gender", "kind": "binary", "values": ["female", "male"],
         "reference_value": "female"},
        {"label_id": "court", "kind": "categorical", "values": ["urban", "rural", "military"],
         "reference_value": "urban"},
        {"label_id": "age", "kind": "binary", "values": ["young", "old"], "reference_value": "young"},
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


def run(corpus_dir, work, files, *options):
    """analyze over the given (model, records or raw lines) files, in order, with any further options."""
    args = []
    for model, records in files:
        path = work / f"{model}.jsonl"
        path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        args += ["--predictions", str(path)]
    return main(["analyze", "--corpus", str(corpus_dir), *args, *options, "--out", str(work / "out")])


def serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files):
    """Exit code, stderr lines and output files of analyze with one CPU, asserted equal to those with two.

    With two, the labels are fitted on workers however few the rows.
    """
    monkeypatch.setattr(fairjudge.metrics, "_FORK_ROWS", 0)
    seen = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        code = run(corpus_dir, tmp_path, files)
        outputs = {path.name: path.read_bytes() for path in sorted((tmp_path / "out").glob("*"))}
        seen.append((code, capsys.readouterr().err.splitlines(), outputs))
    assert seen[0] == seen[1]
    return seen[0]


def data_error(corpus_dir, tmp_path, monkeypatch, capsys, files):
    """The one error line of analyze, the same with one CPU and with two."""
    code, err, _ = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert code == EXIT_DATA and not any("Traceback" in line for line in err)
    assert [line for line in err if line.startswith("error: ")] == [err[-1]]
    return err[-1]


def test_fan_out_keeps_item_order_and_runs_on_workers(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    results = fan_out(lambda i: (i, os.getpid()), range(4))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert parent not in {pid for _, pid in results}
    cpus(monkeypatch, 1)
    assert fan_out(lambda i: (i, os.getpid()), range(4)) == [(i, parent) for i in range(4)]


def test_a_lone_item_runs_in_this_process_unless_meanwhile_runs_beside_it(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    assert fan_out(lambda i: os.getpid(), [0]) == [parent]
    assert fan_out(lambda i: os.getpid(), [0], lambda: None) != [parent]


def test_fan_out_raises_the_first_failing_item(monkeypatch):
    def fail_odd(i):
        if i % 2:
            time.sleep(0.3 if i == 1 else 0)  # item 3 fails first
            raise MetricsError(f"item {i}")
        return i

    for n in (1, 2):
        cpus(monkeypatch, n)
        with pytest.raises(MetricsError, match="^item 1$"):
            fan_out(fail_odd, range(4))


@pytest.mark.parametrize("n_items", [1, 4])
def test_meanwhile_runs_while_workers_compute_with_interrupts_held(monkeypatch, n_items):
    """On two CPUs a lone item has a worker of its own beside meanwhile; on one, nothing forks."""
    import multiprocessing

    def fail(i):
        raise MetricsError(f"item {i}")

    def meanwhile():
        seen.append((signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ()), len(multiprocessing.active_children())))
        raise MetricsError("meanwhile")

    for n in (1, 2):
        cpus(monkeypatch, n)
        seen = []
        with pytest.raises(MetricsError, match="^meanwhile$"):
            fan_out(fail, range(n_items), meanwhile)
        assert seen == ([(True, min(n_items, 2))] if n > 1 else [(False, 0)])
        assert multiprocessing.active_children() == []
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())


def test_bad_lines_in_files_1_and_3_report_file_1(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    n = len(files[0][1])
    files[0][1].append("{not json")
    files[2][1].insert(0, "[]")
    message = data_error(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.startswith(f"error: stub-c.jsonl:{n + 1}: invalid JSON")


def test_line_error_in_file_2_beats_stray_key_in_file_1(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    stray = dict(files[0][1][0], label_id="gender", variant_value="female")  # every baseline is "female"
    files[0][1].append(stray)
    files[1][1].append(dict(files[1][1][0], predicted_months="36"))
    message = data_error(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.startswith(f"error: stub-a.jsonl:{len(files[1][1])}: ")
    assert "predicted_months must be a number or null" in message

    files[1][1].pop()  # the stray key alone
    message = data_error(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message.endswith("no such variant in the corpus")


def test_a_lone_predictions_file_is_read_on_a_worker_beside_the_variants(corpus_dir, tmp_path, monkeypatch):
    encode, readers = fairjudge.metrics._encode_source, tmp_path / "readers.txt"

    def spied(name, lines, corpus):
        with readers.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return encode(name, lines, corpus)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(fairjudge.metrics, "_encode_source", spied)
    assert run(corpus_dir, tmp_path, [("stub-b", lines_of(corpus_dir, "stub-b"))]) == EXIT_OK
    pids = readers.read_text().split()
    assert len(pids) == 1 and pids != [str(os.getpid())]


@pytest.mark.parametrize("n_files", [1, 3])
def test_bad_variant_line_beats_bad_prediction_line_and_leaves_no_worker(
    corpus_dir, tmp_path, monkeypatch, capsys, n_files
):
    """Also with a lone predictions file, which two CPUs read on a worker while the variants are decoded."""
    import multiprocessing

    bad_corpus = tmp_path / "corpus"
    bad_corpus.mkdir()
    for name in ("labels.jsonl", "documents.jsonl", "variants.jsonl"):
        (bad_corpus / name).write_bytes((corpus_dir / name).read_bytes())
    n = len((bad_corpus / "variants.jsonl").read_text().splitlines())
    with (bad_corpus / "variants.jsonl").open("a") as fh:
        fh.write("{not json\n")
    files = [(m, lines_of(corpus_dir, m)) for m in FILES[:n_files]]
    files[0][1].insert(0, "[]")
    message = data_error(bad_corpus, tmp_path, monkeypatch, capsys, files)
    assert message.startswith(f"error: variants.jsonl:{n + 1}: invalid JSON")
    assert multiprocessing.active_children() == []


def test_metrics_error_in_two_fits_reports_the_sorted_first_model(corpus_dir, tmp_path, monkeypatch, capsys):
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]
    for model, records in files:
        if model != "stub-a":
            records[:] = [r for r in records if r["label_id"] is not None]  # no baselines
    message = data_error(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert message == "error: no baseline predictions for model 'stub-b'"


def test_one_model_fits_its_labels_on_workers_with_the_serial_outputs(corpus_dir, tmp_path, monkeypatch, capsys):
    """One file of one model: with two CPUs each label is fitted on a worker of its own."""
    files = [("stub-b", lines_of(corpus_dir, "stub-b"))]
    code, err, outputs = serial_and_fanned(corpus_dir, tmp_path, monkeypatch, capsys, files)
    assert code == EXIT_OK and err[-1].startswith("report written to ")
    assert json.loads(outputs["summary.json"])["summaries"][0]["n_labels_tested"] == len(SPEC["labels"])


def test_labels_are_fitted_on_workers_only_when_the_work_is_worth_a_fork(corpus_dir, tmp_path, monkeypatch):
    """The work is the baselines' and the selected labels' predicted keys, plus _FIT_ROWS a (model, label) fit."""
    on_workers, fan_out = [], fairjudge.metrics.fan_out

    def spied(fn, items, *rest):
        """fan_out, recording each call's items that ran on a worker."""
        ran = fan_out(lambda item: (fn(item), os.getpid()), items, *rest)
        on_workers.append([item for item, (_, pid) in zip(items, ran) if pid != os.getpid()])
        return [result for result, _ in ran]

    monkeypatch.setattr(fairjudge.metrics, "fan_out", spied)
    cpus(monkeypatch, 2)
    files = [(m, lines_of(corpus_dir, m)) for m in FILES]

    def work(labels):
        rows = sum(r["label_id"] in (None, *labels) for _, records in files for r in records)
        return rows + fairjudge.metrics._FIT_ROWS * len(FILES) * len(labels)

    def fitted_on_workers(fork_rows, *options):
        monkeypatch.setattr(fairjudge.metrics, "_FORK_ROWS", fork_rows)
        on_workers.clear()
        assert run(corpus_dir, tmp_path, files, *options) == EXIT_OK
        assert len(on_workers[0]) == len(FILES)  # the files are read on workers either way
        return [label for call in on_workers[1:] for label in call]

    every = sorted(label["label_id"] for label in SPEC["labels"])  # three, so two of them are a subset
    for labels, options in ((every, ()), (["court", "gender"], ("--labels", "gender,court"))):
        assert fitted_on_workers(work(labels) + 1, *options) == []
        assert fitted_on_workers(work(labels), *options) == labels
    for fork_rows in (0, work(["court"]), work(["court"]) + 1):  # a lone label has nothing to run beside it
        assert fitted_on_workers(fork_rows, "--labels", "court") == []


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
            fan_out(lambda i: i, range(4))
        assert multiprocessing.active_children() == []
    finally:
        signal.signal(signal.SIGINT, previous)
        for worker in multiprocessing.active_children():
            worker.kill()


def test_interrupt_taken_by_another_thread_while_workers_start_leaves_no_worker_behind(monkeypatch):
    """A thread that does not block SIGINT (such as a BLAS thread) may take a Ctrl-C while the pool forks."""
    import multiprocessing
    import threading
    from concurrent.futures.process import ProcessPoolExecutor

    spawn, stop = ProcessPoolExecutor._spawn_process, threading.Event()
    other = threading.Thread(target=stop.wait)  # started before fan_out, so SIGINT is not blocked in it
    other.start()

    def interrupted_spawn(self):
        spawn(self)
        signal.pthread_kill(other.ident, signal.SIGINT)  # after the first worker is forked
        time.sleep(0.05)

    def interrupt(signum, frame):
        raise Interrupted

    cpus(monkeypatch, 2)
    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", interrupted_spawn)
    previous = signal.signal(signal.SIGINT, interrupt)
    try:
        with pytest.raises(Interrupted):
            fan_out(lambda i: i, range(4), meanwhile=lambda: time.sleep(0.05))
        assert multiprocessing.active_children() == []
    finally:
        signal.signal(signal.SIGINT, previous)
        stop.set()
        other.join()
        for worker in multiprocessing.active_children():
            worker.kill()


def test_workers_do_not_take_interrupts(monkeypatch):
    cpus(monkeypatch, 2)
    masks = fan_out(lambda i: signal.pthread_sigmask(signal.SIG_BLOCK, ()), range(2))
    assert all(signal.SIGINT in mask for mask in masks)
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())


# One categorical label of 32 values on 2000 documents: a design large enough
# that a BLAS thread pool sized from the usable CPUs moves a fit's last digits.
WIDE_SPEC = {"n_docs": 2000, "labels": [{"label_id": "W32", "values": [f"v{i:02d}" for i in range(32)]}]}

# A fresh process, pinned to the CPU given unless that is "all", that runs the CLI.
PINNED_MAIN = """
import os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from fairjudge.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 usable CPUs")
def test_wide_label_outputs_are_the_same_bytes_on_one_cpu_and_on_all(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(WIDE_SPEC))
    fx = tmp_path / "fx"
    assert main(["fixture", "--seed", "11", "--spec", str(spec), "--out", str(fx)]) == 0
    # Each child's own import of fairjudge sets its BLAS thread count, as the console script's does.
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {name: value for name, value in os.environ.items() if name not in blas}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(fairjudge.__file__).parents[1]), env.get("PYTHONPATH", "")])
    for name, cpu in (("one", str(min(os.sched_getaffinity(0)))), ("all", "all")):
        subprocess.run(
            [sys.executable, "-c", PINNED_MAIN, cpu, "analyze", "--corpus", str(fx),
             "--predictions", str(fx / "predictions_stub-model.jsonl"), "--out", str(tmp_path / name)],
            env=env, check=True, capture_output=True,
        )
    names = sorted(path.name for path in (tmp_path / "all").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "one").iterdir()) and "findings.jsonl" in names
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name
