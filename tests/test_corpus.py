import unicodedata

import pytest

from dialign import corpus
from dialign.corpus import distinct, ingest, pair, read_groups, retention_report
from dialign.errors import ParseError
from dialign.phonetics import SegmentTable, tokenize

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
    assert records[0].source == "older"
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
    with pytest.raises(ParseError) as info:
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
    with pytest.raises(ParseError) as info:
        ingest(path)
    assert (info.value.path, info.value.line) == (path, 3)
    assert str(info.value) == (
        f"{path}: line 3: second standard transcription for word 'straat' "
        "(first at line 2)"
    )


# each malformed row and the reason its ParseError gives
PARSE_ERRORS = {
    "kampen\tstraat\tmiddle\tstrat\tstraat\t-": "unknown source 'middle'",
    "kampen\tstraat\tolder\tstrat\tstraat\tbogus": "unknown exclusion tag 'bogus'",
    "kampen\tstraat\tolder\tstrat\tstraat": (
        "expected 6 tab-separated fields, got 5 field(s)"
    ),
    "\tstraat\tolder\tstrat\tstraat\t-": "location and word must be non-empty",
    "kampen\tstraat\tolder\t\tstraat\t-": (
        "empty transcription requires the 'missing' exclusion tag"
    ),
    # a comma would break the CSV output
    "kam,pen\tstraat\tolder\tstrat\tstraat\t-": (
        "location and word may not contain ','"
    ),
    "kampen\tstraat\tolder\tstrat\tstraat\t-\t-": (
        "expected 6 tab-separated fields, got 7 field(s)"
    ),
    # groups.tsv and coords.tsv strip each line and skip '#' comments, so
    # no group could be given to these
    "#kampen\tstraat\tolder\tstrat\tstraat\t-": (
        "location starts with '#' or whitespace"
    ),
    " kampen\tstraat\tolder\tstrat\tstraat\t-": (
        "location starts with '#' or whitespace"
    ),
}


@pytest.mark.parametrize("row", list(PARSE_ERRORS))
def test_ingest_parse_errors(tmp_path, row):
    path = write_corpus(tmp_path, [row])
    with pytest.raises(ParseError) as info:
        ingest(path)
    assert str(info.value) == f"{path}: line 2: {PARSE_ERRORS[row]}"


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
    assert excluded[0].reason == "lex"


def test_pair_dash_and_empty_cognate_ids_both_mean_none(tmp_path, table):
    rows = [
        "loc\tsteen\tolder\tsten\t-\t-",
        "loc\tsteen\tnewer\tstɛn\t\t-",
        "standard\tsteen\tstandard\tsten\tsteen\t-",
    ]
    records = ingest(write_corpus(tmp_path, rows))
    assert [r.cognate_id for r in records] == [None, None, "steen"]
    triples, excluded = pair(records, table)
    assert len(triples) == 1 and not excluded


def test_pair_missing_source_beats_other_reasons(tmp_path, table):
    # older row absent AND cognate mismatch: missing data wins
    rows = [
        "loc\tsteen\tnewer\tkɛi\tkei\tmorph",
        "standard\tsteen\tstandard\tsten\tsteen\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert excluded[0].reason == "missing"


def test_pair_explicit_flags(tmp_path, table):
    rows = [
        "loc\tlater\tolder\tlatər\tlater\t-",
        "loc\tlater\tnewer\tlatə\tlater\treduction",
        "standard\tlater\tstandard\tlatər\tlater\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert excluded[0].reason == "reduction"


@pytest.mark.parametrize(
    "older_tag,cognate,reason",
    [("morph", "kei", "lex"), ("morph", "steen", "morph")],
)
def test_pair_exclusion_priority(tmp_path, table, older_tag, cognate, reason):
    # the newer row is flagged reduction, the lowest priority
    rows = [
        f"loc\tsteen\tolder\tsten\tsteen\t{older_tag}",
        f"loc\tsteen\tnewer\tstenə\t{cognate}\treduction",
        "standard\tsteen\tstandard\tsten\tsteen\t-",
    ]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert not triples
    assert excluded[0].reason == reason


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


def test_pair_tokenizes_each_distinct_transcription_once(tmp_path, table, monkeypatch):
    calls = []
    tokenize = corpus.make_transcription
    monkeypatch.setattr(
        corpus, "make_transcription", lambda raw, t: calls.append(raw) or tokenize(raw, t)
    )
    rows = (
        clean_cell("x", "w1")
        + clean_cell("y", "w1")
        + clean_cell("z", "w1", newer="strodə")
        + ["standard\tw1\tstandard\tstrat\tw1\t-"]
    )
    triples, _ = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert sorted(calls) == ["strat", "strodə", "strɔət"]
    fresh = [tokenize(raw, table) for raw in ("strodə", "strɔət", "strat")]
    for t in triples[:2]:
        assert [t.older, t.newer, t.standard] == fresh
    assert [triples[2].older, triples[2].newer] == [fresh[0], fresh[0]]


def test_pair_unknown_symbol_names_the_first_record_that_holds_it(tmp_path, table):
    # "b_loc" holds "strɔət" on an earlier line, but "a_loc" pairs first
    rows = (
        clean_cell("b_loc", "w1")
        + clean_cell("a_loc", "w1")
        + ["standard\tw1\tstandard\tstrɔət\tw1\t-"]
    )
    path = write_corpus(tmp_path, rows)
    no_open_o = SegmentTable({s: table.classify(s) for s in "strdoaə"})
    with pytest.raises(ParseError) as info:
        pair(ingest(path), no_open_o)
    assert str(info.value) == (
        f"{path}: line 5: location 'a_loc', word 'w1', newer transcription "
        "'strɔət': unknown symbol 'ɔ' at position 3"
    )


def test_distinct_keys_on_symbols_in_first_seen_order(table):
    raw_nfd = unicodedata.normalize("NFD", "ça")
    assert raw_nfd != "ça"  # two spellings of one word, one key
    ca_nfd, ca, pa = (tokenize(raw, table) for raw in (raw_nfd, "ça", "pa"))
    pairs = [(pa, pa), (ca_nfd, pa), (pa, ca), (ca, pa), (pa, pa), (ca, ca_nfd)]
    assert distinct(pairs) == ([0, 1, 2, 5], [0, 1, 2, 1, 0, 3])
    triples = [(pa, ca, pa), (pa, ca_nfd, pa), (pa, pa, ca)]
    assert distinct(triples) == ([0, 2], [0, 0, 1])
    assert distinct([]) == ([], [])


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
    assert retention_report(triples, excluded) == (
        "location\tretained\ttotal\n"
        "kampen\t2\t3\n"
        "overall\t2\t3\t(retention 0.6667)\n"
    )


def test_retention_all_excluded(tmp_path, table):
    rows = ["kampen\tw1\tolder\tstrat\tw1\tmorph", "grouw\tw1\tnewer\tstrat\tw1\t-"]
    triples, excluded = pair(ingest(write_corpus(tmp_path, rows)), table)
    assert retention_report(triples, excluded) == (
        "location\tretained\ttotal\n"
        "grouw\t0\t1\n"
        "kampen\t0\t1\n"
        "overall\t0\t2\t(retention 0.0000)\n"
    )
    assert retention_report([], []) == (
        "location\tretained\ttotal\noverall\t0\t0\t(retention 0.0000)\n"
    )


def test_group_map(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("kampen\tLS\ngrouw\tFR\nsneek\tDUFR\n", encoding="utf-8")
    assert read_groups(path) == {"kampen": "LS", "grouw": "FR", "sneek": "DU-FR"}


def test_group_map_errors(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("kampen\tXX\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_groups(path)
    assert str(info.value) == f"{path}: line 1: unknown group 'XX'"
    path.write_text("loc01\tFR\nloc01\tGR\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_groups(path)
    assert str(info.value) == (
        f"{path}: line 2: duplicate location 'loc01' (first at line 1)"
    )


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_is_not_data(tmp_path, table):
    groups = tmp_path / "groups.tsv"
    groups.write_bytes(BOM + "kampen\tLS\ngrouw\tFR\n".encode())
    assert read_groups(groups) == {"kampen": "LS", "grouw": "FR"}
    rows = clean_cell("kampen", "straat") + ["standard\tstraat\tstandard\tstrat\tstraat\t-"]
    plain = write_corpus(tmp_path, rows)
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(BOM + plain.read_bytes())
    assert pair(ingest(marked), table) == pair(ingest(plain), table)


def test_byte_order_mark_keeps_error_lines(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_bytes(BOM + b"kampen\tLS\ngrouw\tFR\nsn\xe9ek\tGR\n")
    with pytest.raises(ParseError) as info:
        read_groups(path)
    assert (info.value.line, info.value.reason) == (3, "not UTF-8: invalid continuation byte")
