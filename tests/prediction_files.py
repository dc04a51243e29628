"""Reading a whole predictions.jsonl file into records, for the tests."""

from pathlib import Path

from fairjudge.corpus import read_jsonl
from fairjudge.gateway import PredictionFormatError, PredictionRecord, read_prediction


def read_predictions(path) -> list[PredictionRecord]:
    """Every record of a predictions.jsonl file in line order, each read by ``read_prediction`` at ``file:line``."""
    name = Path(path).name
    return [read_prediction(rec, f"{name}:{lineno}") for lineno, rec in read_jsonl(path, PredictionFormatError)]
