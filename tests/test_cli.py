"""Command-line interface: each subcommand end to end through ``main()``."""

import pytest

from otindex.cli import main


@pytest.fixture
def banana(tmp_path):
    p = tmp_path / "banana.txt"
    p.write_bytes(b"BANANA")
    return str(p)


@pytest.fixture
def banana_index(tmp_path, banana):
    out = str(tmp_path / "banana.otix")
    rc = main(["build", banana, "-o", out])
    assert rc == 0
    return out


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_kv(out):
    rows = {}
    for line in out.splitlines():
        name, value = line.split("\t")
        rows[name] = value
    return rows


class TestPreprocess:
    def test_fasta_to_one_line(self, tmp_path, capsys):
        src = tmp_path / "in.fa"
        dst = tmp_path / "out.txt"
        src.write_bytes(b">chr1 demo\nacgt\nACGT\n\nnnAC\n")
        rc, _, err = run(capsys, ["preprocess", str(src), str(dst)])
        assert rc == 0
        assert dst.read_bytes() == b"ACGTACGTNNAC"
        assert "12 symbols" in err

    def test_no_trailing_newline(self, tmp_path, capsys):
        src = tmp_path / "in.fa"
        dst = tmp_path / "out.txt"
        src.write_bytes(b">x\nAC\n")
        rc, _, _ = run(capsys, ["preprocess", str(src), str(dst)])
        assert rc == 0
        assert not dst.read_bytes().endswith(b"\n")

    def test_missing_file_is_reported(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, ["preprocess", str(tmp_path / "nope.fa"), str(tmp_path / "o")]
        )
        assert rc == 2
        assert "error:" in err


class TestStats:
    def test_banana_counts(self, banana, capsys):
        rc, out, _ = run(capsys, ["stats", banana])
        assert rc == 0
        rows = parse_kv(out)
        assert rows["text_length"] == "6"
        assert rows["alphabet_size"] == "3"
        assert rows["alphabet_with_sentinel"] == "4"
        assert rows["leaf_nodes_raw"] == "7"
        assert rows["leaf_nodes_content"] == "6"
        assert rows["internal_nodes_raw"] == "4"
        assert rows["internal_nodes_excl_root"] == "3"
        assert rows["internal_at_depth_1"] == "1"
        assert rows["internal_at_depth_2"] == "1"
        assert rows["internal_at_depth_3"] == "1"

    def test_fasta_input_is_preprocessed(self, tmp_path, capsys):
        src = tmp_path / "b.fa"
        src.write_bytes(b">b\nban\nana\n")
        rc, out, _ = run(capsys, ["stats", str(src)])
        assert rc == 0
        assert parse_kv(out)["text_length"] == "6"


class TestOshrStats:
    def test_banana(self, banana, capsys):
        rc, out, _ = run(capsys, ["oshr-stats", banana])
        assert rc == 0
        rows = parse_kv(out)
        assert rows["oshr_members"] == "4"
        assert rows["reference_leaf_contexts"] == "2"
        assert int(rows["base_suffix_records"]) >= int(rows["base_suffix_nodes"])


class TestBuild:
    def test_reports_and_writes(self, tmp_path, banana, capsys):
        out_path = tmp_path / "b.otix"
        rc, out, err = run(capsys, ["build", banana, "-o", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        rows = parse_kv(out)
        assert rows["config"] == "lengths=all"
        assert rows["hosts"] == "1"
        assert rows["total_entries"] == "1"
        assert "wrote" in err

    def test_flags_reach_the_config(self, tmp_path, banana, capsys):
        out_path = tmp_path / "b.otix"
        rc, out, _ = run(
            capsys,
            [
                "build",
                banana,
                "-o",
                str(out_path),
                "--length-mode",
                "atmost:3",
            ],
        )
        assert rc == 0
        assert parse_kv(out)["config"] == "lengths=atmost:3"
        # the reference builder's knobs are not build options
        with pytest.raises(SystemExit):
            main(["build", banana, "-o", str(out_path), "--no-leaf-cover"])

    def test_bad_length_mode(self, tmp_path, banana, capsys):
        rc, _, err = run(
            capsys,
            ["build", banana, "-o", str(tmp_path / "x"), "--length-mode", "upto:9"],
        )
        assert rc == 2
        assert "error:" in err


class TestIndexStats:
    def test_matches_build_report(self, banana_index, capsys):
        rc, out, _ = run(capsys, ["index-stats", banana_index])
        assert rc == 0
        rows = parse_kv(out)
        assert rows["version"] == "4"
        assert rows["text_length"] == "6"
        assert rows["hosts"] == "1"
        assert len(rows["text_sha256"]) == 64

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.otix"
        bad.write_bytes(b"not an index")
        rc, _, err = run(capsys, ["index-stats", str(bad)])
        assert rc == 2
        assert "error:" in err


class TestQuery:
    def test_found_by_label(self, banana, banana_index, capsys):
        rc, out, _ = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "NA", "--node", "A"],
        )
        assert rc == 0
        header, row = out.splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["found"] == "1"
        assert cells["witness"] == "3"

    def test_not_found(self, banana, banana_index, capsys):
        rc, out, _ = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "ANA", "--node", "NA"],
        )
        assert rc == 0
        cells = dict(
            zip(*(line.split("\t") for line in out.splitlines()))
        )
        assert cells["found"] == "0"
        assert cells["witness"] == ""

    def test_node_by_id(self, banana, banana_index, capsys):
        rc, out, _ = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "NA", "--node", "A"],
        )
        node_id = out.splitlines()[1].split("\t")[1]
        rc, out2, _ = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "NA", "--node", node_id],
        )
        assert rc == 0
        assert out2 == out

    def test_baseline_columns(self, banana, banana_index, capsys):
        rc, out, _ = run(
            capsys,
            [
                "query",
                banana_index,
                banana,
                "--pattern",
                "NA",
                "--node",
                "A",
                "--baseline",
            ],
        )
        assert rc == 0
        header, row = (line.split("\t") for line in out.splitlines())
        assert header[-3:] == ["walk_found", "walk_symbol_cmp", "walk_child_lookups"]
        cells = dict(zip(header, row))
        assert cells["walk_found"] == cells["found"]

    def test_label_on_edge_is_rejected(self, banana, banana_index, capsys):
        rc, _, err = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "NA", "--node", "N"],
        )
        assert rc == 2
        assert "no node has label" in err

    def test_mid_edge_label_is_rejected(self, banana, banana_index, capsys):
        # "BANANA" ends mid-edge: the leaf edge carries the sentinel too
        rc, _, err = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "A", "--node", "BANANA"],
        )
        assert rc == 2
        assert "no node has label" in err

    def test_leaf_label_is_rejected(self, banana, banana_index, capsys):
        # the full suffix with sentinel walks exactly onto a leaf node
        rc, _, err = run(
            capsys,
            ["query", banana_index, banana, "--pattern", "A", "--node", "BANANA\x00"],
        )
        assert rc == 2
        assert "leaf" in err

    def test_wrong_text_hash(self, tmp_path, banana_index, capsys):
        other = tmp_path / "other.txt"
        other.write_bytes(b"MISSISSIPPI")
        rc, _, err = run(
            capsys,
            ["query", banana_index, str(other), "--pattern", "S", "--node", "S"],
        )
        assert rc == 2
        assert "error:" in err


class TestAudit:
    def test_small_clean_run(self, capsys):
        rc, out, err = run(
            capsys,
            ["audit", "--seed", "7", "--texts", "4", "--max-n", "48", "--configs", "default"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("config\ttexts\tpairs")
        assert len(lines) == 2  # header + the one default config
        cells = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert cells["spurious"] == "0"
        assert cells["misses"] == "0"
        assert "audit passed" in err

    def test_full_matrix_rows(self, capsys):
        rc, out, err = run(
            capsys,
            ["audit", "--seed", "7", "--texts", "2", "--max-n", "32", "--no-minimize"],
        )
        assert rc == 0
        assert len(out.splitlines()) == 10  # header + serving + 8 reference configs
        assert "walk baseline:" in err


class TestBench:
    def test_tsv_to_stdout(self, tmp_path, capsys):
        text = tmp_path / "g.txt"
        from otindex.oracle import genome_slice

        text.write_bytes(genome_slice(3, 4000).content)
        idx_path = str(tmp_path / "g.otix")
        assert main(["build", str(text), "-o", idx_path]) == 0
        capsys.readouterr()
        rc, out, err = run(capsys, ["bench", idx_path, str(text), "--cap", "20"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "depth"
        assert len(lines) == 21
        assert "walk comparisons" in err

    def test_report_file(self, tmp_path, capsys):
        text = tmp_path / "g.txt"
        from otindex.oracle import genome_slice

        text.write_bytes(genome_slice(3, 4000).content)
        idx_path = str(tmp_path / "g.otix")
        assert main(["build", str(text), "-o", idx_path]) == 0
        report = tmp_path / "r.tsv"
        rc = main(["bench", idx_path, str(text), "--cap", "20", "-o", str(report)])
        assert rc == 0
        assert report.read_text().startswith("depth\t")
