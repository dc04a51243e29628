"""Command-line orchestration: fixture, generate, ingest, analyze, report.

Exit codes are a stable CI contract: 0 success, 1 usage/config error,
2 data error, 3 endpoint authentication error. Progress goes to stderr,
data only to files.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from fairjudge import __version__
from fairjudge.corpus import CorpusError, load_corpus
from fairjudge.fanout import fan_out
from fairjudge.fixtures import FixtureSpec, default_spec, write_fixture
from fairjudge.gateway import (
    AuthenticationError,
    GatewayError,
    ModelConfig,
    PredictionFormatError,
    read_predictions,
    run_generation,
    write_predictions,
)
from fairjudge.metrics import MetricsError, PredictionTable, pooled_bernoulli, summarize_model
from fairjudge.report import (
    ReportBundle,
    ReportError,
    bundle_from_dict,
    emit_html,
    emit_tables,
    load_findings_jsonl,
    load_summary_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_AUTH = 3


class ConfigError(Exception):
    pass


def _read_config(path: str | None) -> dict[str, str]:
    """Plain key=value file; '#' starts a comment. CLI flags override these."""
    if not path:
        return {}
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


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
    spec = FixtureSpec.from_json(spec_path) if spec_path else default_spec()
    if n_docs is not None:
        spec = dataclasses.replace(spec, n_docs=n_docs)
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
    cache = _merged(config, "cache_dir", cache_dir, str(Path(out_path).parent / "cache"))
    template_path = _merged(config, "template_file", template_file)
    kwargs = {}
    if template_path:
        kwargs["template"] = Path(template_path).read_text(encoding="utf-8")
    label_list = _split_labels(_merged(config, "labels", labels))

    def progress(done: int, total: int) -> None:
        click.echo(f"\r{done}/{total} records", err=True, nl=(done == total))

    records = run_generation(
        corpus, model_config, cache, labels=label_list, progress=progress, **kwargs
    )
    if records and all(r.predicted_months is None for r in records):
        raise GatewayError(
            "no record produced a usable prediction; endpoint unreachable or misconfigured"
        )
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_predictions(records, out_path)
    n_missing = sum(1 for r in records if r.predicted_months is None)
    click.echo(f"wrote {len(records)} records ({n_missing} missing) to {out_path}", err=True)


def _split_labels(raw: str | None) -> list[str] | None:
    if not raw:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


@cli.command()
@click.option("--corpus", "corpus_dir", type=click.Path(file_okay=False), required=True)
@click.option("--predictions", "predictions_path", type=click.Path(dir_okay=False), required=True)
@click.option("--out", "out_path", required=True)
def ingest(corpus_dir, predictions_path, out_path) -> None:
    """Validate externally produced predictions against a corpus and normalize them."""
    corpus = load_corpus(corpus_dir)
    records = read_predictions(predictions_path)
    PredictionTable.build(records, corpus)  # validates every record against the corpus
    records.sort(key=lambda r: r.sort_key())
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_predictions(records, out_path)
    click.echo(f"ingested {len(records)} records to {out_path}", err=True)


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
    if not corpus_dir or not out_dir:
        raise ConfigError("analyze requires --corpus and --out")
    if not prediction_paths:
        raise ConfigError("analyze requires at least one --predictions file")

    corpus = load_corpus(corpus_dir)
    label_filter = _split_labels(_merged(config, "labels", labels))
    if label_filter:
        for label_id in label_filter:
            corpus.label(label_id)

    table = PredictionTable.read(prediction_paths, corpus, labels=label_filter)
    if not table.models:
        raise MetricsError("nothing to analyze: prediction files contain no records")
    if not (table.label >= 0).any():
        if label_filter:
            raise MetricsError("nothing to analyze: no variant predictions for the requested labels")
        raise MetricsError("nothing to analyze: predictions cover zero labels")

    summaries, findings_by_model, rows_by_model = [], {}, {}
    diagnostics = {}
    fits = fan_out(
        lambda model: summarize_model(table, corpus, model, tau=tau, log1p=log1p, tolerance=tolerance),
        table.models,
    )
    for model in table.models:
        click.echo(f"analyzing {model} ...", err=True)
        summary, findings, rows, diag = next(fits)
        summaries.append(summary)
        findings_by_model[model] = findings
        rows_by_model[model] = rows
        diagnostics[model] = {
            "unidentified_labels": diag.unidentified_labels,
            "n_zero_predictions_dropped": diag.n_zero_predictions_dropped,
            "n_missing_predictions": diag.n_missing_predictions,
        }

    pooled = {
        "bias": pooled_bernoulli(summaries, "bias", tau),
        "imbalance": pooled_bernoulli(summaries, "imbalance", tau),
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
    emit_tables(bundle, out_dir, findings_by_model=findings_by_model)
    emit_html(bundle, out_dir)
    click.echo(f"report written to {out_dir}", err=True)


@cli.command("report")
@click.option("--summary", "summary_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_dir", required=True)
def report_cmd(summary_path, out_dir) -> None:
    """Re-render CSV/HTML from an existing summary.json and the findings.jsonl beside it."""
    bundle = bundle_from_dict(load_summary_json(summary_path))
    findings_by_model = load_findings_jsonl(Path(summary_path).with_name("findings.jsonl"))
    emit_tables(bundle, out_dir, findings_by_model=findings_by_model)
    emit_html(bundle, out_dir)
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
