"""Replay the golden CLI corpus and the table of public return types.

Both files are written by tests/golden/record.py; a change that alters them
on purpose regenerates them and names every changed line in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def load_recorder():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load_recorder()


def test_cli_corpus_replays_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    corpus = json.loads(record.CORPUS.read_text())
    assert len(corpus) > 250
    mismatched = [entry["argv"] for entry in corpus
                  if record.run_cli(entry["argv"]) != (entry["code"], entry["stdout"], entry["stderr"])]
    assert mismatched == []


def test_public_return_types_match_the_table():
    want = record.TYPES.read_text().splitlines()
    assert record.type_table() == want
