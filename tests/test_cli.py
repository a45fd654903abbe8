import errno
import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dialign
import dialign.cli
import dialign.triple
from dialign.cli import main
from dialign.corpus import ingest, pair
from dialign.costs import binary_cost_model
from dialign.phonetics import SegmentTable
from dialign.synth import make_benchmark_corpus, make_coords, make_mixed_corpus
from dialign.triple import align_triple, decompose, directions

DATA_DIR = Path(__file__).parents[1] / "data" / "synthetic"

HEADER = "location\tword\tsource\ttranscription\tcognate_id\texclusion"

GROUPS_6 = (
    "loc01\tFR\nloc02\tFR\nloc03\tDU-FR\nloc04\tGR\nloc05\tLS\nloc06\tLS\n"
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.tsv"
    path.write_text(
        make_benchmark_corpus(n_locations=6, words_per_location=8),
        encoding="utf-8",
    )
    return path


def worked_example_corpus(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "\n".join(
            [
                HEADER,
                "kampen\tstraat\tolder\tstrodə\tstraat\t-",
                "kampen\tstraat\tnewer\tstrɔət\tstraat\t-",
                "standard\tstraat\tstandard\tstrat\tstraat\t-",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return path


def test_align_worked_example_binary(tmp_path):
    corpus = worked_example_corpus(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["align", "--corpus", str(corpus), "--out-dir", str(out), "--mode", "binary"]
    )
    assert rc == 0
    csv_text = (out / "change_records.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "location,word,conv,div,alignment_length"
    assert f"kampen,straat,{2/7:.6f},{1/7:.6f},7" in csv_text
    dump = (out / "alignments.txt").read_text(encoding="utf-8")
    assert "older\ts\tt\tr\to\t-\td\tə" in dump
    assert "newer\ts\tt\tr\tɔ\tə\tt\t-" in dump
    assert "standard\ts\tt\tr\ta\t-\tt\t-" in dump
    assert "direction\tstable\tstable\tstable\tneutr.\tdiv.\tconv.\tconv." in dump


def test_align_empty_corpus_exit_code(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(HEADER + "\n", encoding="utf-8")
    rc = main(
        ["align", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o"), "--mode", "binary"]
    )
    assert rc == 1


def test_align_missing_file_exit_code(tmp_path):
    rc = main(
        ["align", "--corpus", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o"), "--mode", "binary"]
    )
    assert rc == 1


def test_align_corpus_directory_exit_code(tmp_path, capsys):
    rc = main(
        ["align", "--corpus", str(tmp_path), "--out-dir", str(tmp_path / "o"), "--mode", "binary"]
    )
    assert rc == 1
    err = capsys.readouterr().err  # one line, no traceback
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


def test_out_dir_that_is_a_file_exit_code(tmp_path, capsys):
    file = tmp_path / "o"
    file.write_text("", encoding="utf-8")
    corpus, missing = worked_example_corpus(tmp_path), tmp_path / "missing.tsv"
    runs = [
        ["align", "--corpus", str(corpus), "--mode", "binary"],
        # the out-dir is checked before any input is read
        ["align", "--corpus", str(missing), "--mode", "binary"],
        ["report", "--records", str(missing), "--groups", str(missing)],
    ]
    for out in (file, file / "sub"):
        for argv in runs:
            assert main([*argv, "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --out-dir {out}: {file} is not a directory\n"
    assert file.read_text(encoding="utf-8") == ""


def test_relative_out_dir_under_a_file_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("", encoding="utf-8")
    corpus = worked_example_corpus(tmp_path)
    for out in ("f", "f/sub", "f/sub/deeper/"):
        argv = ["align", "--corpus", str(corpus), "--mode", "binary", "--out-dir", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --out-dir {out}: f is not a directory\n"


def test_relative_nested_out_dir_is_made_on_first_write(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = worked_example_corpus(tmp_path)
    argv = ["align", "--corpus", str(corpus), "--mode", "binary", "--out-dir", "a/b/c"]
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path / "a" / "b" / "c")) == [
        "alignments.txt", "change_records.csv", "retention.txt", "run_manifest.json",
    ]


# An empty --out-dir, as an unset shell variable gives, would write every
# output into the working directory, over files of the same names.
@pytest.mark.parametrize("command", ["pmi", "align", "report"])
def test_empty_out_dir_is_a_config_error(
    tmp_path, corpus_path, capsys, monkeypatch, command
):
    groups = tmp_path / "groups.tsv"
    groups.write_text(GROUPS_6, encoding="utf-8")
    records = tmp_path / "a" / "change_records.csv"
    argv = {
        "pmi": ["pmi", "--corpus", str(corpus_path)],
        "align": ["align", "--corpus", str(corpus_path), "--mode", "binary"],
        "report": [
            "report", "--records", str(records), "--groups", str(groups),
            "--n-perm", "999",
        ],
    }[command]
    if command == "report":
        align = ["align", "--corpus", str(corpus_path), "--mode", "binary"]
        assert main([*align, "--out-dir", str(records.parent)]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([*argv, "--out-dir", ""]) == 2
    assert capsys.readouterr().err == "config error: --out-dir must not be empty\n"
    assert os.listdir(cwd) == []


@pytest.mark.parametrize(
    "command", [["align", "--mode", "binary"], ["pmi"]], ids=["align", "pmi"]
)
@pytest.mark.parametrize(
    "row", [None, "kampen\tstraat\tolder\tstrodə"], ids=["missing", "malformed"]
)
def test_failed_run_writes_no_out_dir(tmp_path, capsys, command, row):
    corpus = tmp_path / "corpus.tsv"  # missing unless a row is given
    if row is not None:
        corpus.write_text(f"{HEADER}\n{row}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([*command, "--corpus", str(corpus), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(corpus) in err
    if row is not None:
        assert err.startswith(f"error: {corpus}: line 2: expected 6 ")
    assert not out.exists()


def test_config_errors(tmp_path, corpus_path, capsys):
    out = tmp_path / "o"
    common = ["--corpus", str(corpus_path), "--out-dir", str(out)]
    cases = [
        ["align", *common, "--mode", "load"],
        ["align", *common, "--mode", "binary", "--pmi-table", "x.tsv"],
        ["align", *common, "--mode", "pmi", "--pmi-table", "x.tsv"],
    ]
    for command in ("pmi", "align"):
        for option, value in [
            ("--max-iter", "0"),
            ("--smoothing", "0"),
            ("--smoothing", "nan"),
            ("--smoothing", "inf"),
            ("--max-iter", "abc"),
            ("--smoothing", "x"),
        ]:
            cases.append([command, *common, option, value])
    report = ["report", "--records", "r.csv", "--groups", "g.tsv", "--out-dir", str(out)]
    cases += [
        [],  # no command
        ["align", *common, "--bogus"],
        ["align", "--corpus", str(corpus_path)],  # no --out-dir
        [*report, "--n-perm", "1.5"],
        ["align", *common, "--mode", "fast"],
        ["align", "--out-dir", str(out), "--corpus"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv


def test_manifest_config_of_each_command(tmp_path, corpus_path, capsys):
    # run_manifest.json's config holds every option of the command, by the
    # names and with the JSON types of the parsed values
    def config(*argv):
        out = str(tmp_path / f"o{len(os.listdir(tmp_path))}")
        assert main([*argv, "--out-dir", out]) == 0, argv
        text = Path(out, "run_manifest.json").read_text(encoding="utf-8")
        return json.loads(text)["config"], text, out

    corpus = str(corpus_path)
    common = {
        "corpus": corpus, "segments": None, "unconstrained": False,
        "max_iter": 50, "smoothing": 0.5,
    }
    got, _, out = config("pmi", "--corpus", corpus)
    assert got == {**common, "command": "pmi", "out_dir": out}
    table = str(Path(out, "pmi_table.tsv"))
    got, _, out = config("align", "--corpus=" + corpus)
    assert got == {
        **common, "command": "align", "out_dir": out, "mode": "pmi", "pmi_table": None,
    }
    got, text, out = config(
        "align", "--corpus", corpus, "--max-iter", "7", "--max", "3", "--unc",
        "--smoothing", "1", "--mode=binary", "--mode", "load", "--pmi-t", table,
    )
    assert got == {
        **common, "command": "align", "out_dir": out, "max_iter": 3,
        "smoothing": 1.0, "unconstrained": True, "mode": "load", "pmi_table": table,
    }
    assert '"smoothing": 1.0,' in text and '"max_iter": 3,' in text
    records = str(Path(out, "change_records.csv"))
    groups = tmp_path / "groups.tsv"
    groups.write_text(GROUPS_6, encoding="utf-8")
    got, _, out = config("report", "--records", records, "--groups", str(groups))
    assert got == {
        "command": "report", "records": records, "groups": str(groups),
        "coords": None, "n_perm": 9999, "seed": 0, "out_dir": out,
    }
    report = ["report", "--rec", records, "--groups=" + str(groups), "--n-perm", "999"]
    got, _, out = config(*report, "--seed", "5", "--seed=2")
    assert (got["n_perm"], got["seed"]) == (999, 2)
    for seed in (["--seed", "-1"], ["--seed=-1"]):
        assert main([*report, *seed, "--out-dir", str(tmp_path / "neg")]) == 2
        assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
    assert not (tmp_path / "neg").exists()


def test_pmi_subcommand_and_load_mode(tmp_path, corpus_path):
    out = tmp_path / "pmi"
    rc = main(["pmi", "--corpus", str(corpus_path), "--out-dir", str(out)])
    assert rc == 0
    log_text = (out / "pmi_log.txt").read_text(encoding="utf-8")
    assert "converged\ttrue" in log_text
    table = out / "pmi_table.tsv"
    assert table.exists()

    out2 = tmp_path / "aligned"
    rc = main(
        [
            "align", "--corpus", str(corpus_path), "--out-dir", str(out2),
            "--mode", "load", "--pmi-table", str(table),
        ]
    )
    assert rc == 0
    assert (out2 / "change_records.csv").exists()


@pytest.mark.parametrize(
    "command",
    [["pmi"], ["align", "--mode", "pmi"], ["align", "--mode", "binary"]],
    ids=["pmi", "align-pmi", "align-binary"],
)
def test_small_corpus_warning_is_written_by_the_cli(tmp_path, capsys, command):
    # 24 words at one location give 48 pairs, below MIN_PAIRS = 50; 25 give 50
    for words in (24, 25):
        corpus = tmp_path / f"corpus{words}.tsv"
        corpus.write_text(make_mixed_corpus(7, 1, words), encoding="utf-8")
        out = tmp_path / f"o{words}"
        argv = [*command, "--corpus", str(corpus), "--out-dir", str(out)]
        assert main(argv + ["--max-iter", "2"]) == 0
        err = capsys.readouterr().err
        if words == 24 and "binary" not in command:
            assert err == (
                "WARNING: PMI induction corpus has only 48 pairs (recommended "
                "minimum 50); distances may be unreliable\n"
            )
        else:
            assert err == ""


def test_pmi_max_iter_one_logs_nonconvergence(tmp_path, corpus_path):
    out = tmp_path / "pmi1"
    rc = main(
        ["pmi", "--corpus", str(corpus_path), "--out-dir", str(out), "--max-iter", "1"]
    )
    assert rc == 0
    assert "converged\tfalse" in (out / "pmi_log.txt").read_text(encoding="utf-8")


# Any finite smoothing above 0 is a valid option, but twice the smoothed
# counts' total must stay finite too, or every PMI value is 0/0 or NaN;
# and no pair's share may underflow to 0, or its PMI divides by 0.
@pytest.mark.parametrize(
    "options",
    [
        ["--smoothing", "1e306"],
        ["--smoothing", "1e308", "--max-iter", "1"],
        ["--smoothing", "1e-320"],
        ["--smoothing", "5e-324"],
    ],
    ids=["1e306", "1e308-one-iteration", "1e-320", "5e-324"],
)
def test_pmi_rejects_a_smoothing_that_overflows(tmp_path, capsys, options):
    out = tmp_path / "o"
    corpus = DATA_DIR / "corpus.tsv"
    assert main(["pmi", "--corpus", str(corpus), "--out-dir", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: smoothing {float(options[1])!r} ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_full_pipeline_determinism(tmp_path, corpus_path):
    groups = tmp_path / "groups.tsv"
    groups.write_text(GROUPS_6, encoding="utf-8")
    coords = tmp_path / "coords.tsv"
    coords.write_text(make_coords(6), encoding="utf-8")

    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        rc = main(
            ["align", "--corpus", str(corpus_path), "--out-dir", str(out), "--mode", "pmi"]
        )
        assert rc == 0
        rep = tmp_path / (run + "_rep")
        rc = main(
            [
                "report", "--records", str(out / "change_records.csv"),
                "--groups", str(groups), "--coords", str(coords),
                "--out-dir", str(rep), "--n-perm", "999", "--seed", "7",
            ]
        )
        assert rc == 0
        blob = b""
        for name in ("change_records.csv", "alignments.txt", "pmi_table.tsv"):
            blob += (out / name).read_bytes()
        for name in ("summary.txt", "contrasts.csv", "geo.csv"):
            blob += (rep / name).read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_report_outputs(tmp_path, corpus_path):
    out = tmp_path / "a"
    main(["align", "--corpus", str(corpus_path), "--out-dir", str(out), "--mode", "binary"])
    groups = tmp_path / "groups.tsv"
    groups.write_text(GROUPS_6, encoding="utf-8")
    rep = tmp_path / "rep"
    rc = main(
        [
            "report", "--records", str(out / "change_records.csv"),
            "--groups", str(groups), "--out-dir", str(rep),
            "--n-perm", "999", "--seed", "1",
        ]
    )
    assert rc == 0
    summary = (rep / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("group\tn_records")
    contrasts = (rep / "contrasts.csv").read_text(encoding="utf-8").splitlines()
    assert contrasts[0] == "measure,statistic,p_value,n_permutations,direction"
    assert len(contrasts) == 3
    manifest = json.loads((rep / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["config", "inputs", "outputs", "version"]
    assert manifest["version"] == dialign.__version__
    assert sorted(manifest["outputs"]) == ["contrasts.csv", "summary.txt"]


def test_report_missing_group_map(tmp_path, corpus_path):
    out = tmp_path / "a"
    main(["align", "--corpus", str(corpus_path), "--out-dir", str(out), "--mode", "binary"])
    rc = main(
        [
            "report", "--records", str(out / "change_records.csv"),
            "--groups", str(tmp_path / "missing.tsv"), "--out-dir", str(tmp_path / "r"),
        ]
    )
    assert rc == 1


def test_cli_import_does_not_load_numpy():
    # Only report needs numpy; pmi and align should not pay for importing it.
    env = dict(os.environ, PYTHONPATH=str(Path(dialign.__file__).parents[1]))
    code = "import dialign.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_starts_without_dataclasses():
    # Every command pays its imports at start-up; -S keeps a site hook
    # from loading these modules before dialign.cli does.
    src = str(Path(dialign.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import dialign.cli; "
        "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect', 'numpy',"
        " 'logging', 'pathlib', 'argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []


def test_align_run_leaves_locale_unloaded(tmp_path):
    # option parsing formats its own messages, so no run pays for gettext's
    # import of locale
    src = str(Path(dialign.__file__).parents[1])
    argv = ["align", "--corpus", str(DATA_DIR / "corpus.tsv"), "--mode", "binary"]
    argv += ["--out-dir", str(tmp_path / "o")]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from dialign.cli import main; "
        f"assert main({argv!r}) == 0; print('locale' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["False"]


def test_help_names_the_commands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("pmi", "align", "report"):
        assert re.search(rf"^  {command} ", out, re.M), command


def test_align_help_names_every_option_with_its_default(capsys):
    assert main(["align", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for option, note in [
        ("--corpus", "(required)"), ("--segments", "default: built-in IPA table"),
        ("--out-dir", "(required)"), ("--unconstrained", ""),
        ("--max-iter", "(default: 50)"), ("--smoothing", "(default: 0.5)"),
        ("--mode", "(default: pmi)"), ("--pmi-table", ""), ("-h, --help", ""),
    ]:
        line = [ln for ln in lines if ln.startswith(f"  {option} ")]
        assert len(line) == 1 and line[0].endswith(note), (option, line)


def test_pmi_and_align_induce_identically(tmp_path, corpus_path):
    opts = ["--max-iter", "3", "--smoothing", "0.3"]
    out_pmi, out_align = tmp_path / "pmi", tmp_path / "align"
    rc = main(["pmi", "--corpus", str(corpus_path), "--out-dir", str(out_pmi)] + opts)
    assert rc == 0
    rc = main(
        ["align", "--corpus", str(corpus_path), "--out-dir", str(out_align), "--mode", "pmi"]
        + opts
    )
    assert rc == 0
    for name in ("pmi_table.tsv", "pmi_log.txt"):
        assert (out_pmi / name).read_bytes() == (out_align / name).read_bytes()


RECORDS_6 = "location,word,conv,div,alignment_length\n" + "".join(
    f"loc0{i},w,0.{i},0.1,7\n" for i in range(1, 7)
)


def run_report(
    tmp_path, records=RECORDS_6, coords=None, encoding="utf-8", n_perm=999,
    groups=GROUPS_6, seed=0,
):
    rec_path = tmp_path / "change_records.csv"
    rec_path.write_text(records, encoding=encoding)
    groups_path = tmp_path / "groups.tsv"
    groups_path.write_text(groups, encoding="utf-8")
    argv = [
        "report", "--records", str(rec_path), "--groups", str(groups_path),
        "--out-dir", str(tmp_path / "rep"), "--n-perm", str(n_perm),
        "--seed", str(seed),
    ]
    if coords is not None:
        coords_path = tmp_path / "coords.tsv"
        coords_path.write_text(coords, encoding="utf-8")
        argv += ["--coords", str(coords_path)]
    return main(argv)


# report's permutation test is too small for OpenBLAS's threads, so it
# caps them at one before numpy's import; a count the user set is kept.
@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_report_caps_openblas_threads_unless_set(tmp_path, monkeypatch, preset, want):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert run_report(tmp_path) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == want


@pytest.mark.parametrize(
    "field,value",
    [pytest.param(field, "x", id=str(field)) for field in (2, 3, 4)]
    + [(2, "nan"), (3, "inf"), (2, "-0.1"), (3, "1.5"), (4, "0"), (4, "-3")]
    + [(2, "0.900003")],  # conv + div above 1 by more than the rounding slack
)
def test_report_non_numeric_change_record(tmp_path, capsys, field, value):
    lines = RECORDS_6.splitlines()
    fields = lines[2].split(",")
    fields[field] = value
    lines[2] = ",".join(fields)
    records = "\n".join(lines) + "\n"
    assert run_report(tmp_path, records=records, coords=make_coords(6)) == 1
    path = tmp_path / "change_records.csv"
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3: ")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "sep",
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=lambda sep: f"U+{ord(sep):04X}",
)
def test_error_line_after_a_stray_line_separator(tmp_path, capsys, sep):
    # Only "\n" ends a line, as in the count of a non-UTF-8 byte's line.
    # Line 3 of the records is the separator alone, a blank line; line 3
    # of the group map ends in it, which the headerless table strips.
    lines = RECORDS_6.splitlines()
    lines[2] = sep
    lines[3] = lines[3].replace(",0.3,", ",0.x,")
    assert run_report(tmp_path, records="\n".join(lines) + "\n") == 1
    path = tmp_path / "change_records.csv"
    assert capsys.readouterr().err.startswith(f"error: {path}: line 4: could not")
    groups = GROUPS_6.replace("DU-FR\n", f"DU-FR{sep}\n").replace("GR\n", "XX\n")
    assert run_report(tmp_path, groups=groups) == 1
    path = tmp_path / "groups.tsv"
    assert capsys.readouterr().err == f"error: {path}: line 4: unknown group 'XX'\n"


def test_crlf_lines_read_like_lf_lines(tmp_path):
    corpus = worked_example_corpus(tmp_path)
    argv = ["align", "--corpus", str(corpus), "--mode", "binary", "--out-dir"]
    assert main([*argv, str(tmp_path / "lf")]) == 0
    corpus.write_bytes(corpus.read_bytes().replace(b"\n", b"\r\n"))
    assert main([*argv, str(tmp_path / "crlf")]) == 0
    for name in ("change_records.csv", "alignments.txt"):
        lf, crlf = tmp_path / "lf" / name, tmp_path / "crlf" / name
        assert lf.read_bytes() == crlf.read_bytes()


@pytest.mark.parametrize(
    "line",
    [
        "loc02\tx\t53.0",
        "loc02\t5.0\tnorth",
        "loc01\tx\t1",
        "loc02\tnan\t53.0",
        "loc02\t5.0\tinf",
        "loc01\t-inf\t1",
        "loc01\t5.0\t53.0",  # loc01 is also on line 1
    ],
)
def test_report_non_numeric_coords(tmp_path, capsys, line):
    coords = make_coords(6).splitlines()
    coords[1] = line
    assert run_report(tmp_path, coords="\n".join(coords) + "\n") == 1
    path = tmp_path / "coords.tsv"
    assert capsys.readouterr().err.startswith(f"error: {path}: line 2: ")
    # the coords are read before the permutation test writes anything
    assert not (tmp_path / "rep").exists()


def test_report_empty_change_record_file(tmp_path, capsys):
    assert run_report(tmp_path, records="") == 1
    path = tmp_path / "change_records.csv"
    assert capsys.readouterr().err == (
        f"error: {path}: line 1: expected header "
        "'location,word,conv,div,alignment_length'\n"
    )
    assert not (tmp_path / "rep").exists()


def test_report_coords_missing_location(tmp_path, capsys):
    coords = "".join(make_coords(6).splitlines(keepends=True)[:5])
    assert run_report(tmp_path, coords=coords) == 1
    assert "no coordinates for location 'loc06'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_duplicate_record(tmp_path, capsys):
    lines = RECORDS_6.splitlines()
    records = "\n".join(lines + [lines[2].replace(",0.1,7", ",0.5,7")]) + "\n"
    assert run_report(tmp_path, records=records) == 1
    path = tmp_path / "change_records.csv"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {len(lines) + 1}: ")
    assert "'loc02', word 'w' (first at line 3)" in err
    assert not (tmp_path / "rep").exists()


def test_report_ignores_record_order(tmp_path):
    rng = random.Random(4)
    rows = [
        f"loc0{i},w{w},{rng.random() / 2:.6f},{rng.random() / 2:.6f},"
        f"{rng.randint(3, 9)}"
        for i in range(1, 7)
        for w in range(5)
    ]
    outputs = []
    for name, order in (("sorted", rows), ("shuffled", rng.sample(rows, len(rows)))):
        records = "location,word,conv,div,alignment_length\n" + "\n".join(order) + "\n"
        (tmp_path / name).mkdir()
        assert run_report(tmp_path / name, records=records, coords=make_coords(6)) == 0
        rep = tmp_path / name / "rep"
        outputs.append(
            [(rep / f).read_bytes() for f in ("summary.txt", "contrasts.csv", "geo.csv")]
        )
    assert outputs[0] == outputs[1]


def test_report_degenerate_contrast_writes_no_report_file(tmp_path, capsys):
    all_fr = "".join(f"loc0{i}\tFR\n" for i in range(1, 7))
    assert run_report(tmp_path, groups=all_fr) == 1
    assert "contrast needs locations on both sides" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_low_n_perm(tmp_path, capsys):
    assert run_report(tmp_path, n_perm=998) == 2
    assert capsys.readouterr().err == "config error: --n-perm must be >= 999\n"


def test_report_rejects_negative_seed(tmp_path, capsys):
    assert run_report(tmp_path, seed=-1) == 2
    assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
    assert not (tmp_path / "rep").exists()


# A West Frisian place name, in NFC; its NFD spells each 'â' as 'a' + U+0302.
WALTERSWALD = "wâlterswâld"


def renamed_synthetic(directory, groups_form):
    """The bundled data in directory with loc01 renamed WALTERSWALD, in NFC
    in corpus.tsv and coords.tsv and in groups_form in groups.tsv."""
    directory.mkdir()
    for name in ("corpus.tsv", "coords.tsv", "groups.tsv"):
        form = groups_form if name == "groups.tsv" else "NFC"
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        text = text.replace("loc01\t", unicodedata.normalize(form, WALTERSWALD) + "\t")
        (directory / name).write_text(text, encoding="utf-8")
    return directory


# Names that differ only in normal form are one name in every input table.
def test_a_location_named_in_nfd_in_the_group_map_is_the_nfc_location(tmp_path, capsys):
    outputs = []
    for form in ("NFC", "NFD"):
        data = renamed_synthetic(tmp_path / form, form)
        assert unicodedata.normalize(form, WALTERSWALD) in (
            (data / "groups.tsv").read_text(encoding="utf-8")
        )
        rc = main(
            [
                "align", "--corpus", str(data / "corpus.tsv"),
                "--out-dir", str(data / "a"), "--mode", "binary",
            ]
        )
        assert (rc, capsys.readouterr().err) == (0, "")
        rc = main(
            [
                "report", "--records", str(data / "a" / "change_records.csv"),
                "--groups", str(data / "groups.tsv"),
                "--coords", str(data / "coords.tsv"),
                "--out-dir", str(data / "r"), "--n-perm", "999",
            ]
        )
        assert (rc, capsys.readouterr().err) == (0, "")
        names = ("summary.txt", "contrasts.csv", "geo.csv")
        outputs.append([(data / "r" / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    geo = outputs[1][2].decode("utf-8")
    assert f"\n{WALTERSWALD}," in geo
    assert unicodedata.normalize("NFD", WALTERSWALD) not in geo


def test_group_map_lines_differing_only_in_normal_form_are_duplicates(tmp_path, capsys):
    groups = "".join(
        f"{unicodedata.normalize(form, WALTERSWALD)}\tFR\n" for form in ("NFC", "NFD")
    )
    assert run_report(tmp_path, groups=groups) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'groups.tsv'}: line 2: "
        f"duplicate location '{WALTERSWALD}' (first at line 1)\n"
    )
    assert not (tmp_path / "rep").exists()


FIELD_VALUES = ("nan", "inf", "-0", "1e308", "5e-324", "", "\0")


@st.composite
def mutated(draw, text, sep, values=FIELD_VALUES):
    """The bytes of text after one to three line or field edits, each
    value edit putting one of values in a field, and a byte flip in one
    case of four."""
    lines = [line.split(sep) for line in text.split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        fields = lines[i]
        k, k2 = draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "field", "value"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, list(fields))
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "field":
            change = draw(st.sampled_from(["drop", "repeat", "swap"]))
            if change == "drop" and len(fields) > 1:
                del fields[k]
            elif change == "repeat":
                fields.insert(k, fields[k])
            else:
                fields[k], fields[k2] = fields[k2], fields[k]
        elif edit == "value":
            fields[k] = draw(st.sampled_from(values))
    data = bytearray("\n".join(sep.join(fields) for fields in lines).encode())
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


REPORT_INPUTS = {
    "--records": (RECORDS_6, ","),
    "--groups": (GROUPS_6, "\t"),
    "--coords": (make_coords(6), "\t"),
}


@st.composite
def report_inputs(draw):
    """The report input files, one of them mutated."""
    files = {flag: text.encode() for flag, (text, _) in REPORT_INPUTS.items()}
    flag = draw(st.sampled_from(sorted(files)))
    files[flag] = draw(mutated(*REPORT_INPUTS[flag]))
    return files


def numeric_fields(name, text):
    """The number fields of a report output, which must all be finite."""
    rows = text.splitlines()[1:]
    if name == "summary.txt":
        return [f for row in rows for f in row.split("\t")[1:] if f != "-"]
    if name == "contrasts.csv":
        return [f for row in rows for f in row.split(",")[1:4]]
    return [f for row in rows for f in row.rsplit(",", 4)[1:]]  # geo.csv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(report_inputs())
def test_report_survives_mutated_inputs(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["report", "--out-dir", str(tmp / "rep"), "--n-perm", "999"]
        for flag, data in files.items():
            path = tmp / flag.lstrip("-")
            path.write_bytes(data)
            argv += [flag, str(path)]
        rc = main(argv)
        assert rc in (0, 1, 2)
        if rc != 0:
            assert not (tmp / "rep").exists()
            return
        for name in ("summary.txt", "contrasts.csv", "geo.csv"):
            text = (tmp / "rep" / name).read_text(encoding="utf-8")
            for field in numeric_fields(name, text):
                assert math.isfinite(float(field)), (name, text)


MIXED_6 = make_mixed_corpus(3, 3, 2)
# A lone combining mark has no base symbol to attach to; "-" is the gap.
ALIGN_VALUES = FIELD_VALUES + ("\u0301", "a\u0301", "-")


def segments_table(corpus):
    """A segment table of the symbols of a corpus' transcriptions, with
    the built-in table's classes."""
    entries = SegmentTable.default().entries
    rows = []
    symbols = {ch for row in corpus.splitlines()[1:] for ch in row.split("\t")[3]}
    for ch in sorted(symbols):
        klass, sonorant, schwa = entries[ch]
        flags = [f for f, on in (("sonorant", sonorant), ("schwa", schwa)) if on]
        rows.append(f"{ch}\t{klass}\t{','.join(flags) or '-'}")
    return "\n".join(rows) + "\n"


@functools.cache
def induced_table():
    """The pmi_table.tsv that pmi writes for MIXED_6."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.tsv", Path(tmp) / "o"
        corpus.write_text(MIXED_6, encoding="utf-8")
        assert main(["pmi", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
        return (out / "pmi_table.tsv").read_text(encoding="utf-8")


ALIGN_COMMANDS = (
    ("pmi",), ("align", "--mode", "binary"), ("align", "--mode", "pmi"),
    ("align", "--mode", "load"),
)


@st.composite
def align_inputs(draw):
    """A pmi or align command and its input files, one of them mutated; a
    mutated PMI table is loaded."""
    texts = {"--corpus": MIXED_6, "--segments": segments_table(MIXED_6)}
    flag = draw(st.sampled_from(["--corpus", "--pmi-table", "--segments"]))
    commands = ALIGN_COMMANDS[-1:] if flag == "--pmi-table" else ALIGN_COMMANDS
    command = draw(st.sampled_from(commands))
    if "load" in command:
        texts["--pmi-table"] = induced_table()
    files = {f: text.encode() for f, text in texts.items()}
    files[flag] = draw(mutated(texts[flag], "\t", ALIGN_VALUES))
    return command, files


def align_numbers(name, text):
    """The number fields of a pmi or align output, which must all be finite.
    Only "\n" ends an output line: a location may hold another separator."""
    rows = [row for row in text.split("\n") if row]
    if name == "change_records.csv":
        return [f for row in rows[1:] for f in row.rsplit(",", 3)[1:]]
    if name == "pmi_table.tsv":
        return [row.rsplit("\t", 1)[1] for row in rows]
    if name == "alignments.txt":
        head = re.compile(r"# .*\(cost (\S+), length \S+\)$")
        totals = [head.match(row).group(1) for row in rows if row[:2] == "# "]
        costs = [row.split("\t")[1:] for row in rows if row.startswith("cost\t")]
        return totals + [f for row in costs for f in row]
    if name == "retention.txt":
        return [re.search(r"\(retention (\S+)\)$", rows[-1]).group(1)]
    return []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(align_inputs())
def test_pmi_and_align_survive_mutated_inputs(case):
    command, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [*command, "--out-dir", str(tmp / "out"), "--max-iter", "3"]
        for flag, data in files.items():
            path = tmp / flag.lstrip("-")
            path.write_bytes(data)
            argv += [flag, str(path)]
        rc = main(argv)
        assert rc in (0, 1, 2)
        if rc != 0:
            assert not (tmp / "out").exists()
            return
        for path in sorted((tmp / "out").iterdir()):
            text = path.read_text(encoding="utf-8")
            for field in align_numbers(path.name, text):
                assert math.isfinite(float(field)), (path.name, text)


@pytest.mark.parametrize("command", ["align", "report"])
def test_non_utf8_input(tmp_path, capsys, command):
    # 0xE9 is "é" in Latin-1 and, followed by these bytes, not UTF-8
    if command == "align":
        path = worked_example_corpus(tmp_path)
        path.write_bytes(path.read_bytes().replace("ɔ".encode(), b"\xe9"))
        rc = main(
            ["align", "--corpus", str(path), "--out-dir", str(tmp_path / "o"), "--mode", "binary"]
        )
    else:
        path = tmp_path / "change_records.csv"
        rc = run_report(tmp_path, RECORDS_6.replace("loc02", "locé2"), encoding="latin-1")
    assert rc == 1
    assert f"error: {path}: line 3: not UTF-8" in capsys.readouterr().err


def test_align_unknown_symbol_names_the_record(tmp_path, capsys):
    corpus = worked_example_corpus(tmp_path)
    segments = tmp_path / "segments.tsv"
    segments.write_text(
        "s\tC\nt\tC\nr\tC\nd\tC\no\tV\na\tV\nə\tV\tschwa\n", encoding="utf-8"
    )
    rc = main(
        [
            "align", "--corpus", str(corpus), "--segments", str(segments),
            "--out-dir", str(tmp_path / "o"), "--mode", "binary",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}: line 3: location 'kampen', word 'straat', "
        "newer transcription 'strɔət': unknown symbol 'ɔ' at position 3\n"
    )


def test_align_out_of_memory_names_the_record(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(dialign.cli, "align_triple", exhausted)
    corpus, out = worked_example_corpus(tmp_path), tmp_path / "o"
    argv = ["align", "--corpus", str(corpus), "--out-dir", str(out), "--mode", "binary"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: location 'kampen', word 'straat': out of memory at lengths 6, 6, 5\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (MemoryError, 1, "error: out of memory\n"),
        (KeyboardInterrupt, 130, "interrupted\n"),
    ],
)
def test_memory_error_and_interrupt_end_without_traceback(
    tmp_path, capsys, monkeypatch, raised, code, message
):
    def stopped(path):
        raise raised

    monkeypatch.setattr(dialign.cli, "ingest", stopped)
    corpus, out = worked_example_corpus(tmp_path), tmp_path / "o"
    assert main(["pmi", "--corpus", str(corpus), "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("raised, code", [(MemoryError, 1), (KeyboardInterrupt, 130)])
def test_align_stopped_after_induction_writes_no_out_dir(
    tmp_path, corpus_path, capsys, monkeypatch, raised, code
):
    # pmi_table.tsv and pmi_log.txt are ready before the first triple is
    # aligned, but they are written only with the records
    def stopped(*args):
        raise raised

    monkeypatch.setattr(dialign.cli, "align_triple", stopped)
    out = tmp_path / "o"
    argv = ["align", "--corpus", str(corpus_path), "--out-dir", str(out), "--mode", "pmi"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_directory_in_place_of_an_output_changes_no_file(tmp_path, corpus_path, capsys):
    out = tmp_path / "o"
    argv = ["align", "--out-dir", str(out), "--mode", "binary", "--corpus"]
    assert main([*argv, str(corpus_path)]) == 0
    (out / "alignments.txt").unlink()
    (out / "alignments.txt").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    # another corpus, whose records would replace the first run's
    assert main([*argv, str(worked_example_corpus(tmp_path))]) == 1
    assert capsys.readouterr().err == (
        f"error: --out-dir {out}: {out / 'alignments.txt'} is a directory\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert (out / "alignments.txt").is_dir()


# main writes every output to a temporary file before it renames any into
# place; a write that fails, at any output, removes the temporary files
# and leaves --out-dir as it was, or unmade if the run would have made it.
@pytest.mark.parametrize("held", [True, False], ids=["held", "new"])
def test_a_failed_write_changes_no_file(
    tmp_path, corpus_path, capsys, monkeypatch, held
):
    out = tmp_path / "o" / "p"
    argv = ["align", "--out-dir", str(out), "--corpus", str(corpus_path), "--mode"]
    if held:
        assert main([*argv, "binary"]) == 0  # no pmi_table.tsv or pmi_log.txt

    def files():  # every file's bytes and every directory, by path
        paths = tmp_path.rglob("*")
        return {p: p.read_bytes() if p.is_file() else None for p in paths}

    before, real_open, writes = files(), open, []

    def open_failing_at(k):
        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if "r" not in mode:
                writes.append(path)
                if len(writes) == k:  # the disk fills up partway through
                    write = f.write

                    def write_partly(text):
                        write(text[:7])
                        raise OSError(errno.ENOSPC, "No space left on device", path)

                    f.write = write_partly
            return f

        return failing_open

    for k in range(1, 7):
        writes.clear()
        monkeypatch.setattr(dialign.cli, "open", open_failing_at(k), raising=False)
        assert main([*argv, "pmi"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert len(writes) == k
        assert files() == before  # --out-dir unmade too, unless held
    # A rename that fails midway removes the renamed outputs too, in an
    # --out-dir that the run made; in a held one they stay.
    replace = os.replace

    def failing_replace(src, dst):
        if dst.endswith("retention.txt"):
            raise OSError(errno.EIO, "Input/output error", dst)
        replace(src, dst)

    if not held:
        with monkeypatch.context() as m:
            m.setattr(dialign.cli, "open", real_open, raising=False)
            m.setattr(os, "replace", failing_replace)
            assert main([*argv, "pmi"]) == 1
        assert "Input/output error" in capsys.readouterr().err
        assert files() == before
    writes.clear()
    monkeypatch.setattr(dialign.cli, "open", open_failing_at(0), raising=False)
    assert main([*argv, "pmi"]) == 0
    assert len(writes) == 6  # so each write failed once above, the manifest's last
    assert sorted(os.listdir(out)) == [
        "alignments.txt", "change_records.csv", "pmi_log.txt", "pmi_table.tsv",
        "retention.txt", "run_manifest.json",
    ]


def test_manifest_names_the_outputs_of_its_run(tmp_path, corpus_path):
    out = tmp_path / "o"
    argv = ["align", "--corpus", str(corpus_path), "--out-dir", str(out), "--mode"]
    assert main([*argv, "pmi"]) == 0
    assert main([*argv, "binary"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert (out / "pmi_table.tsv").exists()  # the pmi run's, which binary did not write
    assert manifest["version"] == dialign.__version__
    assert sorted(manifest["outputs"]) == [
        "alignments.txt", "change_records.csv", "retention.txt",
    ]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ["align", "report"])
def test_main_leaves_the_import_time_heap_frozen(tmp_path, command):
    # cli's import freezes the heap, and report's first call again after
    # importing numpy, so that the interpreter's exit collection has little
    # left to walk; later calls freeze nothing, so their garbage is freed.
    records = tmp_path / "a" / "change_records.csv"
    argv = ["align", "--corpus", str(DATA_DIR / "corpus.tsv"), "--mode", "binary"]
    if command == "report":
        assert main([*argv, "--out-dir", str(records.parent)]) == 0
        argv = ["report", "--records", str(records), "--n-perm", "999"]
        argv += ["--groups", str(DATA_DIR / "groups.tsv")]
    argv += ["--out-dir", str(tmp_path / "o")]
    src = str(Path(dialign.__file__).parents[1])
    code = (
        f"import gc, sys; sys.path.insert(0, {src!r}); from dialign.cli import main\n"
        "for _ in range(3):\n"
        f"    assert main({argv!r}) == 0\n"
        "    print(gc.get_freeze_count())\n"
        "print(len(gc.get_objects()))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    *frozen, tracked = map(int, run.stdout.split())
    assert frozen == frozen[:1] * 3, frozen
    assert tracked < frozen[0] / 10, (tracked, frozen)


def test_align_repeated_triples_match_fresh_alignments(tmp_path, monkeypatch):
    # loc01 and loc02 hold identical triples, aligned once per run, and
    # each distinct alignment's columns get their directions once for
    # decompose and once for the dump
    rows = [HEADER]
    for word, std, older, newer in [
        ("straat", "strat", "strodə", "strɔət"),
        ("kamp", "kamp", "kampə", "kamən"),
    ]:
        rows.append(f"standard\t{word}\tstandard\t{std}\t{word}\t-")
        for loc in ("loc01", "loc02"):
            rows.append(f"{loc}\t{word}\tolder\t{older}\t{word}\t-")
            rows.append(f"{loc}\t{word}\tnewer\t{newer}\t{word}\t-")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    directed = []

    def counted(al, cm):
        directed.append(al)
        return directions(al, cm)

    monkeypatch.setattr(dialign.triple, "directions", counted)
    monkeypatch.setattr(dialign.cli, "directions", counted)
    rc = main(["align", "--corpus", str(corpus), "--out-dir", str(out), "--mode", "binary"])
    assert rc == 0
    assert len(directed) == 4 and len(set(directed)) == 2
    assert all(directed.count(al) == 2 for al in directed)
    monkeypatch.undo()

    dump = (out / "alignments.txt").read_text(encoding="utf-8")
    blocks = dump.rstrip("\n").split("\n\n")
    assert len(blocks) == 4
    for first, second in zip(blocks[:2], blocks[2:]):
        assert first.startswith("# loc01 / ") and second.startswith("# loc02 / ")
        assert first.replace("# loc01", "# loc02", 1) == second

    cm = binary_cost_model()
    triples, _ = pair(ingest(corpus), SegmentTable.default())
    rows = (out / "change_records.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == len(triples)
    for row, t in zip(rows, triples):
        al = align_triple(t.older, t.newer, t.standard, cm)
        conv, div = decompose(al, cm)
        assert row == f"{t.location},{t.word},{conv:.6f},{div:.6f},{al.length}"


@pytest.mark.parametrize("mode", ["binary", "pmi"])
@pytest.mark.parametrize("seed", [1, 2])
def test_align_dump_agrees_with_change_records(tmp_path, mode, seed):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(make_mixed_corpus(seed, 6, 5), encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["align", "--corpus", str(corpus), "--out-dir", str(out), "--mode", mode])
    assert rc == 0
    rows = (out / "change_records.csv").read_text(encoding="utf-8").splitlines()[1:]
    dump = (out / "alignments.txt").read_text(encoding="utf-8")
    blocks = dump.rstrip("\n").split("\n\n")
    assert len(blocks) == len(rows) > 0
    for row, block in zip(rows, blocks):
        location, word, conv, div, length = row.split(",")
        head, *lines = block.split("\n")
        assert head.startswith(f"# {location} / {word} (cost ")
        assert head.endswith(f", length {length})")
        cells = {}
        for line in lines:
            label, *cells[label] = line.split("\t")
        assert list(cells) == ["older", "newer", "standard", "cost", "direction"]
        assert {len(c) for c in cells.values()} == {int(length)}
        tags = cells["direction"]
        assert (tags.count("conv.") > 0) == (float(conv) > 0)
        assert (tags.count("div.") > 0) == (float(div) > 0)
        columns = list(zip(cells["older"], cells["newer"], cells["standard"]))
        for (a, b, c), tag in zip(columns, tags):
            assert (tag == "stable") == (a == b == c != "-")
        if mode == "binary":
            for (a, b, c), cost in zip(columns, cells["cost"]):
                assert float(cost) == (a != b) + (a != c) + (b != c)
            assert conv == f"{tags.count('conv.') / int(length):.6f}"
            assert div == f"{tags.count('div.') / int(length):.6f}"


def test_align_load_names_a_pair_missing_from_the_table(tmp_path, capsys):
    # The failing triple is aligned once; the error names its first
    # location in (location, word) order, kampen, though zwolle is read first.
    rows = worked_example_corpus(tmp_path).read_text(encoding="utf-8").splitlines()
    zwolle = [row.replace("kampen", "zwolle") for row in rows[1:3]]
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join([HEADER, *zwolle, *rows[1:]]) + "\n", encoding="utf-8")
    table = tmp_path / "pmi.tsv"
    table.write_text("s\tt\t0.5\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(
        [
            "align", "--corpus", str(corpus), "--out-dir", str(out),
            "--mode", "load", "--pmi-table", str(table),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: location 'kampen', word 'straat': "
        "symbol pair ('-', 's') is not in the PMI table\n"
    )
    assert not out.exists()


def test_align_load_reads_an_nfd_table(tmp_path, capsys):
    segments = tmp_path / "segments.tsv"
    segments.write_text("p\tC\na\tV\nã\tV\n", encoding="utf-8")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        f"{HEADER}\nloc\tw\tolder\tpã\tw\t-\nloc\tw\tnewer\tpa\tw\t-\n"
        "standard\tw\tstandard\tpa\tw\t-\n",
        encoding="utf-8",
    )
    records = []
    for form in ("NFC", "NFD"):
        table = tmp_path / f"{form}.tsv"
        text = "-\tp\t1\n-\tã\t1\n-\ta\t1\na\tã\t0.5\n"
        table.write_text(unicodedata.normalize(form, text), encoding="utf-8")
        out = tmp_path / form
        rc = main(
            [
                "align", "--corpus", str(corpus), "--segments", str(segments),
                "--out-dir", str(out), "--mode", "load", "--pmi-table", str(table),
            ]
        )
        assert (rc, capsys.readouterr().err) == (0, "")
        records.append((out / "change_records.csv").read_bytes())
    assert records[0] == records[1]


def test_align_load_of_the_induced_table_gives_the_same_records(tmp_path):
    # pmi_table.tsv rounds to 12 significant digits, which can move
    # co-optimal ties in alignments.txt but not conv and div here
    corpus = tmp_path / "mixed.tsv"
    corpus.write_text(make_mixed_corpus(), encoding="utf-8")
    pmi, load = tmp_path / "pmi", tmp_path / "load"
    base = ["align", "--corpus", str(corpus), "--out-dir"]
    assert main(base + [str(pmi), "--mode", "pmi"]) == 0
    table = str(pmi / "pmi_table.tsv")
    assert main(base + [str(load), "--mode", "load", "--pmi-table", table]) == 0
    name = "change_records.csv"
    assert (pmi / name).read_bytes() == (load / name).read_bytes()


# SHA-256 of every output but run_manifest.json, which holds paths, by run
# and file name. An intended change to an output updates these.
GOLDEN_DIGESTS = {
    "binary/alignments.txt": "27357d7f67886058ac5b404687faba7ad322304063185dee410ac44bed6cd63a",
    "binary/change_records.csv": "5737b9c75593c4caaf36ccba9d19e166a50b288ad6979db3a50b2b112bec8344",
    "binary/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "pmi/alignments.txt": "19d5192d6f3897fbd857d82629815dc1c5c70c807a39daf0d5b9e864a5787fc4",
    "pmi/change_records.csv": "5cd35ef1534891e0eb169afc8a97049bcaaba1b39001b094873243fc9eb57d58",
    "pmi/pmi_log.txt": "8abe0c42cefc068e94b78b7f3a87c8e681fa69d6b1f724bc601c452a4ae0d48a",
    "pmi/pmi_table.tsv": "a84e2484d8deefedf94ec3252a799558fa3bc95f84a8234d7a702793263178b8",
    "pmi/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "load/alignments.txt": "19d5192d6f3897fbd857d82629815dc1c5c70c807a39daf0d5b9e864a5787fc4",
    "load/change_records.csv": "5cd35ef1534891e0eb169afc8a97049bcaaba1b39001b094873243fc9eb57d58",
    "load/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "binary-unconstrained/alignments.txt": "27357d7f67886058ac5b404687faba7ad322304063185dee410ac44bed6cd63a",
    "binary-unconstrained/change_records.csv": "5737b9c75593c4caaf36ccba9d19e166a50b288ad6979db3a50b2b112bec8344",
    "binary-unconstrained/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "pmi-unconstrained/alignments.txt": "19d5192d6f3897fbd857d82629815dc1c5c70c807a39daf0d5b9e864a5787fc4",
    "pmi-unconstrained/change_records.csv": "5cd35ef1534891e0eb169afc8a97049bcaaba1b39001b094873243fc9eb57d58",
    "pmi-unconstrained/pmi_log.txt": "8abe0c42cefc068e94b78b7f3a87c8e681fa69d6b1f724bc601c452a4ae0d48a",
    "pmi-unconstrained/pmi_table.tsv": "a84e2484d8deefedf94ec3252a799558fa3bc95f84a8234d7a702793263178b8",
    "pmi-unconstrained/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "load-unconstrained/alignments.txt": "19d5192d6f3897fbd857d82629815dc1c5c70c807a39daf0d5b9e864a5787fc4",
    "load-unconstrained/change_records.csv": "5cd35ef1534891e0eb169afc8a97049bcaaba1b39001b094873243fc9eb57d58",
    "load-unconstrained/retention.txt": "15855f6a58e3c50423e9dfec35210e2a2eba3830c6e8f3efce1b755721fe9158",
    "mixed-pmi/alignments.txt": "25dc439240aa1d13e99abf2ff2f9d956d63dba8c6f7da6e3b9ada558f0b10d03",
    "mixed-pmi/change_records.csv": "1892b238b26c32723d4c1d141d4b3e27686a2ea189fa60cd75be2ab30297480e",
    "mixed-pmi/pmi_log.txt": "8abe0c42cefc068e94b78b7f3a87c8e681fa69d6b1f724bc601c452a4ae0d48a",
    "mixed-pmi/pmi_table.tsv": "2b1acd93493814ef253b4bb1de437950ed6ff3873e09d087804f057d85c9cf74",
    "mixed-pmi/retention.txt": "91d09ee25acdfea677918d46f527c9095e6df0aa7300fc38740ad78b340c0bf2",
    "report/contrasts.csv": "2c8c2694898d7d1b0ca57b5e2d41d0f91b35434c05ada8f9ad5d35ce1e2312cf",
    "report/geo.csv": "d68ef55148a6341b72b007c5bb54f07e3c89dfd8d1525b93fade41adf9b039c1",
    "report/summary.txt": "569dbe7dd2c17092a2d3bb633feef7cd5c8a15605093e4779d2b63f07862a0f4",
}


def test_outputs_match_golden_digests(tmp_path):
    digests = {}

    def run(name, argv):
        out = tmp_path / name
        assert main(argv + ["--out-dir", str(out)]) == 0
        for path in out.iterdir():
            if path.name != "run_manifest.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                digests[f"{name}/{path.name}"] = digest
        return out

    corpus = ["--corpus", str(DATA_DIR / "corpus.tsv")]
    for flags, suffix in ([], ""), (["--unconstrained"], "-unconstrained"):
        run("binary" + suffix, ["align", *corpus, "--mode", "binary", *flags])
        pmi = run("pmi" + suffix, ["align", *corpus, "--mode", "pmi", *flags])
        table = str(pmi / "pmi_table.tsv")
        run("load" + suffix, ["align", *corpus, "--mode", "load", "--pmi-table", table, *flags])
    # Vowels and consonants mix here, so the vowel-consonant ban matters.
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(make_mixed_corpus(), encoding="utf-8")
    run("mixed-pmi", ["align", "--corpus", str(mixed), "--mode", "pmi"])
    run(
        "report",
        [
            "report", "--records", str(tmp_path / "pmi" / "change_records.csv"),
            "--groups", str(DATA_DIR / "groups.tsv"),
            "--coords", str(DATA_DIR / "coords.tsv"), "--n-perm", "999",
        ],
    )
    assert digests == GOLDEN_DIGESTS
