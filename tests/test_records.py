"""The contract of the package's ten records: their checks, messages,
derived values, and that none of their fields can be reassigned."""

import math

import pytest

from dialign.analysis import ContrastResult, GroupSummary
from dialign.corpus import ChangeRecord, CorpusRecord, ExcludedPair, PairedTriple
from dialign.costs import GAP, Alignment
from dialign.phonetics import Segment
from dialign.pmi import InductionOptions, PmiTable

SEG = Segment("a", "V", False, False)

RECORDS = [
    (Alignment(((1, 0),), 1.0), "columns total_cost"),
    (SEG, "symbol klass is_sonorant_consonant is_schwa"),
    (
        CorpusRecord("loc", "w", "older", "a", None, None, "c.tsv", 2),
        "location word source raw cognate_id exclusion path line",
    ),
    (
        PairedTriple("loc", "w", (SEG,), (SEG,), (SEG,)),
        "location word older newer standard",
    ),
    (ExcludedPair("loc", "w", "lex"), "location word reason"),
    (PmiTable({("a", "b"): 0.5}), "dist iterations_run converged"),
    (InductionOptions(), "max_iter smoothing"),
    (ChangeRecord("loc", "w", 0.1, 0.2, 3), "location word conv div alignment_length"),
    (GroupSummary("LS", 0.1, 0.2, 3), "group mean_conv mean_div n_records"),
    (
        ContrastResult("conv", 0.1, 0.5, 999, "conv_higher_in_ls"),
        "measure statistic p_value n_permutations direction",
    ),
]


def test_induction_options_defaults():
    opts = InductionOptions()
    assert (opts.max_iter, opts.smoothing) == (50, 0.5)
    assert InductionOptions(3, 0.25) == InductionOptions(max_iter=3, smoothing=0.25)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_induction_options_rejects_max_iter(max_iter):
    with pytest.raises(ValueError) as exc:
        InductionOptions(max_iter=max_iter)
    assert str(exc.value) == f"max_iter must be >= 1, got {max_iter}"


@pytest.mark.parametrize("smoothing", [0, -1, math.inf, math.nan])
def test_induction_options_rejects_smoothing(smoothing):
    with pytest.raises(ValueError) as exc:
        InductionOptions(smoothing=smoothing)
    assert str(exc.value) == f"smoothing must be finite and > 0, got {smoothing}"


@pytest.mark.parametrize(
    "args,message",
    [
        (("ə", "C", False, True), "schwa flag requires a vowel"),
        (("n", "V", True, False), "sonorant flag requires a consonant"),
        (("ə", "C", True, True), "schwa flag requires a vowel"),
    ],
)
def test_segment_rejects_a_flag_of_the_other_class(args, message):
    with pytest.raises(ValueError) as exc:
        Segment(*args)
    assert str(exc.value) == message


def test_alignment_length():
    assert Alignment((), 0.0).length == 0
    assert Alignment(((1, 1, 0),) * 3, 0.0).length == 3


def test_pmi_table_normalizes_pair_order():
    t = PmiTable({("b", "a"): 0.3, (GAP, "a"): 0.4, ("a", "a"): 0.0})
    assert t.dist == {("a", "b"): 0.3, (GAP, "a"): 0.4, ("a", "a"): 0.0}
    assert (t.iterations_run, t.converged) == (0, False)
    assert t.distance("b", "a") == t.distance("a", "b") == 0.3


@pytest.mark.parametrize(
    "record,fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_record_fields_cannot_be_reassigned(record, fields):
    for name in fields.split():
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
