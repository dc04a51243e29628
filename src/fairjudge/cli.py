"""Command-line orchestration: fixture, generate, ingest, analyze, report.

Exit codes are a stable CI contract: 0 success, 1 usage/config error,
2 data error, 3 endpoint authentication error. Progress goes to stderr,
data only to files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
from pathlib import Path

import click

from fairjudge import __version__
from fairjudge.corpus import CorpusError, index_corpus, load_corpus, replace_file
from fairjudge.fixtures import FixtureSpec, default_spec, write_fixture
from fairjudge.gateway import (
    AuthenticationError,
    GatewayError,
    ModelConfig,
    PredictionFormatError,
    run_generation,
    write_predictions,
)
from fairjudge.metrics import MetricsError, PredictionTable, normalized_lines, pooled_bernoulli, summarize
from fairjudge.report import ReportBundle, ReportError, read_report, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_AUTH = 3


class ConfigError(Exception):
    pass


# The keys generate and analyze read; each command accepts the other's, so one file can serve both.
_CONFIG_KEYS = frozenset({
    "corpus", "out", "labels", "api_url", "model", "temperature", "provider", "api_key_env", "concurrency",
    "retries", "cache_dir", "template_file", "tau", "tolerance",
})


def _read_config(path: str | None) -> dict[str, str]:
    """Plain key=value file of ``_CONFIG_KEYS``; '#' starts a comment. CLI flags override these."""
    if not path:
        return {}
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is not part of the first key
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        config[key] = value
    return config


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError of the block, which writes the output ``path``, as one usage error naming it."""
    try:
        yield
    except OSError as exc:
        where = "" if exc.filename is None or str(exc.filename) == str(path) else f" ({exc.filename})"
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}{where}") from None


def _merged(config: dict, key: str, flag_value, default=None):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _number(config: dict, key: str, flag_value, default, kind=float):
    """A numeric setting from a flag or the config file; a non-number is a ConfigError."""
    raw = _merged(config, key, flag_value, default)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


@click.group()
@click.version_option(version=__version__)
def cli() -> None:
    """Audit the judicial fairness of LLM sentencing predictions."""


@cli.command()
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Fixture spec JSON; the shipped default is used when omitted.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--docs", "n_docs", type=int, default=None, help="Override the spec's document count.")
@click.option("--predictions/--no-predictions", "with_predictions", default=True,
              help="Also write stub prediction files with the planted effects.")
def fixture(seed: int, spec_path: str | None, out_dir: str, n_docs: int | None, with_predictions: bool) -> None:
    """Generate a synthetic corpus (and stub predictions) for offline runs."""
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_docs is not None and n_docs < 1:
        raise ConfigError(f"n_docs must be >= 1, got {n_docs}")
    try:
        spec = FixtureSpec.from_json(spec_path) if spec_path else default_spec()
    except KeyError as exc:
        raise ConfigError(f"{spec_path}: missing field {exc.args[0]!r}") from None
    except (OSError, RecursionError, TypeError, ValueError) as exc:  # not a JSON object of FixtureSpec's fields
        raise ConfigError(f"{spec_path}: {exc}") from None
    if n_docs is not None:
        spec = dataclasses.replace(spec, n_docs=n_docs)
    with _writing(out_dir):
        meta = write_fixture(spec, seed=seed, out_dir=out_dir, with_predictions=with_predictions)
    click.echo(f"fixture written to {out_dir} ({meta['n_docs']} docs, {len(meta['labels'])} labels)", err=True)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--corpus", "corpus_dir", type=click.Path(file_okay=False), default=None)
@click.option("--api-url", default=None)
@click.option("--model", "model_name", default=None)
@click.option("--temperature", default=None)
@click.option("--provider", default=None)
@click.option("--api-key-env", default=None)
@click.option("--concurrency", default=None)
@click.option("--retries", default=None)
@click.option("--cache-dir", default=None)
@click.option("--template-file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--labels", default=None, help="Comma-separated label subset.")
@click.option("--out", "out_path", default=None, help="predictions.jsonl output path.")
def generate(config_path, corpus_dir, api_url, model_name, temperature, provider,
             api_key_env, concurrency, retries, cache_dir, template_file, labels, out_path) -> None:
    """Query a chat-completions endpoint for every baseline document and variant."""
    config = _read_config(config_path)
    corpus_dir = _merged(config, "corpus", corpus_dir)
    api_url = _merged(config, "api_url", api_url)
    model_name = _merged(config, "model", model_name)
    out_path = _merged(config, "out", out_path)
    if not corpus_dir or not api_url or not model_name or not out_path:
        raise ConfigError("generate requires --corpus, --api-url, --model, and --out")

    model_config = ModelConfig(
        api_url=api_url,
        model_name=model_name,
        temperature=_number(config, "temperature", temperature, 0.0),
        provider_name=_merged(config, "provider", provider),
        api_key_env=_merged(config, "api_key_env", api_key_env, "FAIRJUDGE_API_KEY"),
        max_concurrency=_number(config, "concurrency", concurrency, 4, int),
        max_retries=_number(config, "retries", retries, 3, int),
    )
    corpus = load_corpus(corpus_dir)
    with _writing(out_path):  # before any request, and before the default cache beside it is made
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    cache = _merged(config, "cache_dir", cache_dir, str(Path(out_path).parent / "cache"))
    template_path = _merged(config, "template_file", template_file)
    kwargs = {}
    if template_path:
        try:
            kwargs["template"] = Path(template_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read template file {template_path}: {reason}") from None
    label_list = _split_labels(_merged(config, "labels", labels))

    def progress(done: int, total: int) -> None:
        click.echo(f"\r{done}/{total} records", err=True, nl=(done == total))

    # Progress only on a terminal, so a log of a failed run holds just its error line.
    if sys.stderr.isatty():
        kwargs["progress"] = progress
    # The cache and audit logs are opened before the first request, and the client
    # retries network errors, so an OSError out of the run is a write under the cache.
    with _writing(cache):
        records = run_generation(corpus, model_config, cache, labels=label_list, **kwargs)
    if records and all(r.predicted_months is None for r in records):
        raise GatewayError(
            "no record produced a usable prediction; endpoint unreachable or misconfigured"
        )
    with _writing(out_path):
        write_predictions(records, out_path)
    n_missing = sum(1 for r in records if r.predicted_months is None)
    click.echo(f"wrote {len(records)} records ({n_missing} missing) to {out_path}", err=True)


def _split_labels(raw: str | None) -> list[str] | None:
    """The label names of a comma-separated ``--labels`` value; None, which means every label, when it names none."""
    return [part.strip() for part in (raw or "").split(",") if part.strip()] or None


@cli.command()
@click.option("--corpus", "corpus_dir", type=click.Path(file_okay=False), required=True)
@click.option("--predictions", "predictions_path", type=click.Path(dir_okay=False), required=True)
@click.option("--out", "out_path", required=True)
def ingest(corpus_dir, predictions_path, out_path) -> None:
    """Validate externally produced predictions against a corpus and normalize them."""
    corpus, load_variants = index_corpus(corpus_dir)
    lines = normalized_lines(predictions_path, corpus, load_variants)  # analyze's checks, in its order
    with _writing(out_path):
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        replace_file(out_path, lambda fh: fh.writelines(lines))
    click.echo(f"ingested {len(lines)} records to {out_path}", err=True)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--corpus", "corpus_dir", type=click.Path(file_okay=False), default=None)
@click.option("--predictions", "prediction_paths", multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tau", default=None)
@click.option("--labels", default=None, help="Comma-separated label subset.")
@click.option("--log1p", is_flag=True, default=False,
              help="Use ln(1 + months) so zero predictions are kept.")
@click.option("--tolerance", default=None,
              help="Change threshold for the inconsistency metric (default 0).")
@click.option("--timestamp", default=None, help="Run timestamp recorded in metadata.")
@click.option("--out", "out_dir", default=None)
def analyze(config_path, corpus_dir, prediction_paths, tau, labels, log1p, tolerance,
            timestamp, out_dir) -> None:
    """Compute all three fairness metrics and emit the report bundle."""
    config = _read_config(config_path)
    corpus_dir = _merged(config, "corpus", corpus_dir)
    out_dir = _merged(config, "out", out_dir)
    tau = _number(config, "tau", tau, 0.05)
    tolerance = _number(config, "tolerance", tolerance, 0.0)
    if not (0 < tau < 1):
        raise ConfigError(f"tau must be in (0, 1), got {tau}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance}")
    if not corpus_dir or not out_dir:
        raise ConfigError("analyze requires --corpus and --out")
    if not prediction_paths:
        raise ConfigError("analyze requires at least one --predictions file")

    # The prediction files are read while the variants are decoded: encoding
    # needs only the labels and documents, the merge needs the variants.
    corpus, load_variants = index_corpus(corpus_dir)
    label_filter = _split_labels(_merged(config, "labels", labels))
    label_ids = corpus.select_labels(label_filter)
    table = PredictionTable.read(prediction_paths, corpus, meanwhile=load_variants)
    if not table.models:
        raise MetricsError("nothing to analyze: prediction files contain no records")
    if not any(table.present[:, corpus.variant_codes(label_id)[2]].any() for label_id in label_ids):
        if label_filter:
            raise MetricsError("nothing to analyze: no variant predictions for the requested labels")
        raise MetricsError("nothing to analyze: predictions cover zero labels")

    click.echo(f"analyzing {', '.join(table.models)} ...", err=True)
    results = summarize(table, corpus, tau=tau, log1p=log1p, tolerance=tolerance, labels=label_ids)
    summaries = [summary for summary, _, _, _ in results]
    findings_by_model = {summary.model_name: findings for summary, findings, _, _ in results}
    rows_by_model = {summary.model_name: rows for summary, _, rows, _ in results}
    diagnostics = {summary.model_name: dataclasses.asdict(diag) for summary, _, _, diag in results}

    pooled = {
        "bias": pooled_bernoulli([s.bias_bernoulli for s in summaries], tau),
        "imbalance": pooled_bernoulli([s.imbalance_bernoulli for s in summaries], tau),
    }
    bundle = ReportBundle(
        summaries=summaries,
        inconsistency_rows=rows_by_model,
        pooled=pooled,
        run_metadata={
            "tool_version": __version__,
            "tau": tau,
            "log1p": log1p,
            "tolerance": tolerance,
            "corpus_digest": corpus.digest,
            "label_filter": label_filter,
            "timestamp": timestamp or "",
            "diagnostics": diagnostics,
        },
    )
    with _writing(out_dir):
        write_report(bundle, findings_by_model, out_dir)
    click.echo(f"report written to {out_dir}", err=True)


@cli.command("report")
@click.option("--summary", "summary_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_dir", required=True)
def report_cmd(summary_path, out_dir) -> None:
    """Re-render CSV/HTML from an existing summary.json and the findings.jsonl beside it."""
    bundle, findings_by_model = read_report(summary_path)
    with _writing(out_dir):
        write_report(bundle, findings_by_model, out_dir)
    click.echo(f"report written to {out_dir}", err=True)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the stable exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except AuthenticationError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_AUTH
    except (CorpusError, PredictionFormatError, MetricsError, ReportError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    except GatewayError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
