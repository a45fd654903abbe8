import pytest

from dialign.corpus import (
    Exclusion,
    GroupMap,
    ingest,
    pair,
    retention_report,
)
from dialign.errors import DuplicateRecord, ParseError
from dialign.phonetics import Source

HEADER = "location\tword\tsource\ttranscription\tcognate_id\texclusion"


def write_corpus(tmp_path, rows, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def test_ingest_well_formed(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            "kampen\tstraat\tolder\tstrodə\tstraat\t-",
            "kampen\tstraat\tnewer\tstrɔət\tstraat\t-",
            "standard\tstraat\tstandard\tstrat\tstraat\t-",
        ],
    )
    records = ingest(path)
    assert len(records) == 3
    assert records[0].source is Source.OLDER
    assert records[0].exclusion is None
    assert records[0].cognate_id == "straat"


def test_ingest_duplicate_row(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            "kampen\tstraat\tolder\tstrodə\tstraat\t-",
            "kampen\tstraat\tolder\tstrodə\tstraat\t-",
        ],
    )
    with pytest.raises(DuplicateRecord) as info:
        ingest(path)
    assert (info.value.path, info.value.line) == (path, 3)
    assert str(info.value) == (
        f"{path}: line 3: duplicate record for location 'kampen', word "
        "'straat', source older (first at line 2)"
    )


def test_ingest_duplicate_standard_word(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            "a\tstraat\tstandard\tstrat\tstraat\t-",
            "b\tstraat\tstandard\tstrat\tstraat\t-",
        ],
    )
    with pytest.raises(DuplicateRecord) as info:
        ingest(path)
    assert (info.value.path, info.value.line) == (path, 3)
    assert str(info.value) == (
        f"{path}: line 3: second standard transcription for word 'straat' "
        "(first at line 2)"
    )


@pytest.mark.parametrize(
    "row",
    [
        "kampen\tstraat\tmiddle\tstrat\tstraat\t-",  # unknown source
        "kampen\tstraat\tolder\tstrat\tstraat\tbogus",  # unknown exclusion
        "kampen\tstraat\tolder\tstrat\tstraat",  # missing field
        "\tstraat\tolder\tstrat\tstraat\t-",  # empty location
        "kampen\tstraat\tolder\t\tstraat\t-",  # empty raw without missing tag
        "kam,pen\tstraat\tolder\tstrat\tstraat\t-",  # comma breaks the CSV output
        "kampen\tstraat\tolder\tstrat\tstraat\t-\t-",  # seventh field
    ],
)
def test_ingest_parse_errors(tmp_path, row):
    path = write_corpus(tmp_path, [row])
    with pytest.raises(ParseError):
        ingest(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("", id="empty-file"),
        pytest.param("foo\tbar\n", id="wrong-header"),
        pytest.param(HEADER + "\textra\n", id="extra-field"),
    ],
)
def test_ingest_bad_header(tmp_path, text):
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        ingest(path)
    assert (info.value.path, info.value.line) == (path, 1)


def clean_cell(loc, word, older="strodə", newer="strɔət"):
    return [
        f"{loc}\t{word}\tolder\t{older}\t{word}\t-",
        f"{loc}\t{word}\tnewer\t{newer}\t{word}\t-",
    ]


def test_pair_clean_triple(tmp_path, table):
    rows = clean_cell("kampen", "straat") + [
        "standard\tstraat\tstandard\tstrat\tstraat\t-"
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert len(triples) == 1 and not excluded
    t = triples[0]
    assert t.location == "kampen" and t.word == "straat"
    # the roles are the field order: older, newer, standard
    spelled = ["".join(s.symbol for s in x) for x in (t.older, t.newer, t.standard)]
    assert spelled == ["strodə", "strɔət", "strat"]


def test_pair_lexical_mismatch(tmp_path, table):
    rows = [
        "loc\tsteen\tolder\tsten\tsteen\t-",
        "loc\tsteen\tnewer\tkɛi\tkei\t-",  # different underlying cognate
        "standard\tsteen\tstandard\tsten\tsteen\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert not triples
    assert excluded[0].reason is Exclusion.LEXICAL_MISMATCH


def test_pair_missing_source_beats_other_reasons(tmp_path, table):
    # older row absent AND cognate mismatch: missing data wins
    rows = [
        "loc\tsteen\tnewer\tkɛi\tkei\tmorph",
        "standard\tsteen\tstandard\tsten\tsteen\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert excluded[0].reason is Exclusion.MISSING_DATA


def test_pair_explicit_flags(tmp_path, table):
    rows = [
        "loc\tlater\tolder\tlatər\tlater\t-",
        "loc\tlater\tnewer\tlatə\tlater\treduction",
        "standard\tlater\tstandard\tlatər\tlater\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert excluded[0].reason is Exclusion.PHONETIC_REDUCTION


def test_pair_partition_complete_and_ordered(tmp_path, table):
    rows = []
    rows += clean_cell("b_loc", "w1")
    rows += clean_cell("a_loc", "w2")
    rows += clean_cell("a_loc", "w1")
    rows += ["standard\tw1\tstandard\tstrat\tw1\t-"]  # no standard for w2
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    keys = [(t.location, t.word) for t in triples] + [
        (e.location, e.word) for e in excluded
    ]
    assert sorted(keys) == [("a_loc", "w1"), ("a_loc", "w2"), ("b_loc", "w1")]
    assert [(t.location, t.word) for t in triples] == sorted(
        (t.location, t.word) for t in triples
    )


def test_pair_deterministic(tmp_path, table):
    rows = (
        clean_cell("x", "w1")
        + clean_cell("y", "w1")
        + ["standard\tw1\tstandard\tstrat\tw1\t-"]
    )
    records = ingest(write_corpus(tmp_path, rows))
    assert pair(records, table) == pair(records, table)


def test_retention_report(tmp_path, table):
    rows = (
        clean_cell("kampen", "w1")
        + clean_cell("kampen", "w2")
        + [
            "kampen\tw3\tolder\tstrat\tw3\tmorph",
            "kampen\tw3\tnewer\tstrat\tw3\t-",
            "standard\tw1\tstandard\tstrat\tw1\t-",
            "standard\tw2\tstandard\tstrat\tw2\t-",
            "standard\tw3\tstandard\tstrat\tw3\t-",
        ]
    )
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    report = retention_report(triples, excluded)
    assert report.per_location["kampen"] == (2, 3)
    assert report.retention == pytest.approx(2 / 3)
    assert "kampen\t2\t3" in report.format()


def test_retention_all_excluded(table):
    report = retention_report([], [])
    assert report.retention == 0.0


def test_group_map(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("kampen\tLS\ngrouw\tFR\nsneek\tDU-FR\n", encoding="utf-8")
    gm = GroupMap.from_file(path)
    assert gm.group("kampen") == "LS"
    assert gm.is_ls("kampen") and not gm.is_ls("grouw")


def test_group_map_errors(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("kampen\tXX\n", encoding="utf-8")
    with pytest.raises(ParseError):
        GroupMap.from_file(path)
    path.write_text("loc01\tFR\nloc01\tGR\n", encoding="utf-8")
    with pytest.raises(DuplicateRecord) as info:
        GroupMap.from_file(path)
    assert str(info.value) == (
        f"{path}: line 2: duplicate location 'loc01' (first at line 1)"
    )
