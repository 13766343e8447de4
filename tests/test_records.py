"""The record types' contract, as `TestTokenContract` pins `Token`'s: read-only
fields in a fixed order, defaults, equality and hashing by value, pickling
at every protocol (the gen-pretrain pool pickles records and examples), and
the rows `to_json` writes. Also the prefix-hashed seeds the generators give
their records, against `derive_seed`'s pinned values."""

import pickle

import pytest
from test_seeds import GOLDEN

from formulakit.curation import FormulaRecord
from formulakit.evaluation import CompletionTask, RepairTask, RetrievalPair
from formulakit.objectives import PretrainExample
from formulakit.seeds import seed_prefix

# type -> (its fields in order, an instance, the row its to_json gives)
RECORDS = {
    FormulaRecord: (
        ("workbook_id", "sheet_id", "formula", "cell"),
        FormulaRecord("wb1", "s1", "=SUM(A1:A2)", "B3"),
        {"workbook_id": "wb1", "sheet_id": "s1", "formula": "=SUM(A1:A2)", "cell": "B3"}),
    PretrainExample: (
        ("input", "target", "objective", "detail", "record_seed"),
        PretrainExample("=SUM(<mask>)", "=SUM(A1)", "laMSP", "rate=0.15", 2**62 + 7),
        {"input": "=SUM(<mask>)", "target": "=SUM(A1)", "objective": "laMSP",
         "detail": "rate=0.15", "record_seed": 2**62 + 7}),
    RepairTask: (
        ("buggy", "ground_truth", "source_id"),
        RepairTask("=SUM(A1", "=SUM(A1)", "repair-3"),
        {"buggy": "=SUM(A1", "ground_truth": "=SUM(A1)", "source_id": "repair-3"}),
    CompletionTask: (
        ("formula", "prefix_fraction", "prefix", "source_id"),
        CompletionTask("=SUM(A1)", 0.5, "=sum(", "complete-2"),
        {"formula": "=SUM(A1)", "prefix_fraction": 0.5, "prefix": "=sum(",
         "source_id": "complete-2"}),
    RetrievalPair: (
        ("formula_a", "formula_b", "target_similarity"),
        RetrievalPair("=A1+number", "=A2+number", 0.75),
        {"formula_a": "=A1+number", "formula_b": "=A2+number", "target_similarity": 0.75}),
}
TYPES = sorted(RECORDS, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_and_order(self, cls):
        fields, record, _ = RECORDS[cls]
        assert cls._fields == fields
        assert cls(*(getattr(record, name) for name in fields)) == record

    def test_immutable(self, cls):
        _, record, _ = RECORDS[cls]
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.other = 1

    def test_equal_and_hashed_by_value(self, cls):
        fields, record, _ = RECORDS[cls]
        copy = cls(**{name: getattr(record, name) for name in fields})
        assert copy == record and hash(copy) == hash(record)
        assert len({copy, record}) == 1
        assert record._replace(**{fields[0]: "other"}) != record

    def test_pickle_round_trip(self, cls):
        _, record, _ = RECORDS[cls]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is cls

    def test_to_json(self, cls):
        _, record, row = RECORDS[cls]
        assert record.to_json() == row
        assert list(record.to_json()) == list(row)


def test_defaults():
    record = FormulaRecord("wb1", "s1", "=A1")
    assert record.cell is None
    assert record.to_json() == {"workbook_id": "wb1", "sheet_id": "s1", "formula": "=A1"}
    task = CompletionTask("=SUM(A1)", 0.5, "=sum(")
    assert task.source_id == ""
    assert task.to_json()["source_id"] == ""


@pytest.mark.parametrize("parts,expected", GOLDEN)
def test_prefix_hashed_seeds_equal_derive_seed(parts, expected):
    # Every split of every pinned part tuple: the prefix hashed once, the
    # rest per call, as the generators seed their records.
    for cut in range(len(parts) + 1):
        derive = seed_prefix(*parts[:cut])
        assert derive(*parts[cut:]) == expected
        assert derive(*parts[cut:]) == expected  # each call copies the prefix's state
