"""Command-line entry points."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rqsim
from rqsim.cli import main
from rqsim.diffusion import simulate_si
from rqsim.graphs import make_regular_tree


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRStar:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "rstar", "--scheme", "na", "--kind", "sufficient",
            "--d", "3", "--p", "0.6667", "--q", "0.6667", "--k", "200",
        )
        assert code == 0
        assert out.strip() == "3"

    def test_runs_as_a_module(self):
        src = str(Path(rqsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["rstar", "--scheme", "na", "--kind", "sufficient",
                "--d", "3", "--p", "0.6667", "--q", "0.6667", "--k", "200"]
        done = subprocess.run([sys.executable, "-m", "rqsim", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "3"

    def test_ad_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "rstar", "--scheme", "ad", "--kind", "sufficient",
            "--d", "3", "--p", "0.6667", "--q", "0.6667", "--k", "200",
        )
        assert code == 0
        assert out.strip() == "4"


    @pytest.mark.parametrize("pq", [("2", "-1"), ("0.3", "0.1"), ("nan", "0.8"), ("0.8", "nan"),
                                    ("inf", "0.8"), ("0.8", "0"), ("0.8", "1.5"), ("0.49", "0.8")])
    def test_rejects_p_or_q_out_of_range(self, capsys, pq):
        code, out, err = run_cli(capsys, "rstar", "--scheme", "na", "--kind", "sufficient",
                                 "--d", "3", "--p", pq[0], "--q", pq[1], "--k", "200")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_accepts_q_at_or_below_one_over_d(self, capsys):
        # A sweep resolves r with a representative d; each trial checks q itself.
        code, out, _ = run_cli(capsys, "rstar", "--scheme", "ad", "--kind", "sufficient",
                               "--d", "4", "--p", "0.8", "--q", "0.2", "--k", "200")
        assert code == 0
        assert int(out) >= 1


class TestBudget:
    def test_na_sufficient_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "budget", "--scheme", "na", "--kind", "sufficient",
            "--delta", "0.02", "--d", "3", "--p", "0.75", "--q", "0.6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,kind,delta,d,p,q,K"
        value = float(lines[1].split(",")[-1])
        assert abs(value - 1.24e4) / 1.24e4 < 0.01

    def test_necessary_with_ht(self, capsys):
        code, out, _ = run_cli(
            capsys, "budget", "--scheme", "ad", "--kind", "necessary",
            "--delta", "0.02", "--d", "3", "--p", "0.8", "--q", "0.7", "--ht", "12",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[-1]) > 0

    def test_necessary_default_entropy_bound(self, capsys):
        # no --ht and no --r: the self-consistent default resolves to a
        # finite order-of-magnitude figure
        code, out, _ = run_cli(
            capsys, "budget", "--scheme", "na", "--kind", "necessary",
            "--delta", "0.02", "--d", "3", "--p", "0.75", "--q", "0.6",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[-1])
        assert value > 1

    def test_domain_error_is_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "budget", "--scheme", "na", "--kind", "sufficient",
            "--delta", "0.9", "--d", "3", "--p", "0.8", "--q", "0.7",
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("scheme,kind,flag,value", [
        ("ad", "necessary", "--ht", "nan"), ("ad", "necessary", "--ht", "inf"),
        ("ad", "necessary", "--c", "nan"), ("na", "necessary", "--c", "-1"),
        ("na", "necessary", "--c", "0"),
    ])
    def test_impossible_constant_is_rejected(self, capsys, scheme, kind, flag, value):
        code, out, err = run_cli(
            capsys, "budget", "--scheme", scheme, "--kind", kind, "--delta", "0.1",
            "--d", "3", "--p", "0.8", "--q", "0.8", flag, value,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("kind,flags,unread", [
        ("sufficient", ("--ht", "5"), "--ht"), ("sufficient", ("--c", "2"), "--c"),
        ("sufficient", ("--r", "3"), "--r"), ("sufficient", ("--r", "0"), "--r"),
        ("necessary", ("--ht", "5", "--r", "3"), "--r"),
        ("necessary", ("--ht", "5", "--r", "0"), "--r"),
    ])
    def test_flag_the_evaluation_does_not_read_is_refused(self, capsys, kind, flags, unread):
        code, out, err = run_cli(
            capsys, "budget", "--scheme", "na", "--kind", kind, "--delta", "0.1",
            "--d", "3", "--p", "0.8", "--q", "0.8", *flags,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and unread in err


class TestSimulate:
    def test_csv_output_and_reproducibility(self, capsys, tmp_path):
        args = (
            "simulate", "--graph", "regular:3", "--n", "30", "--scheme", "ad",
            "--k", "20", "--p", "0.8", "--q", "0.8", "--trials", "5",
            "--seed", "42", "--zero-timing",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        header, row = out1.strip().splitlines()
        assert header.startswith("scheme,graph,d,n,K,r,p,q")
        fields = row.split(",")
        assert fields[0] == "ad"
        assert 0.0 <= float(fields[10]) <= 1.0

    def test_json_output_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "regular:3", "--n", "25", "--scheme", "na",
            "--k", "10,20", "--p", "0.9", "--q", "0.9", "--trials", "3",
            "--seed", "1", "--format", "json", "--output", str(out_path),
        )
        assert code == 0
        docs = json.loads(out_path.read_text())
        assert [d["K"] for d in docs] == [10, 20]

    def test_bad_output_path_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(config):
            raise AssertionError("the sweep ran before the output was opened")

        monkeypatch.setattr("rqsim.cli.run_experiment", no_sweep)
        code, out, err = run_cli(
            capsys, "simulate", "--graph", "regular:3", "--n", "25", "--scheme", "na",
            "--k", "10", "--p", "0.9", "--q", "0.9", "--trials", "3",
            "--output", str(tmp_path / "missing" / "rows.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "rows.csv" in err

    def test_failed_sweep_keeps_the_output_file(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "rows.csv"
        out_path.write_text("rows of an earlier run\n")
        missing = tmp_path / "no-such-graph.txt"
        code, out, err = run_cli(
            capsys, "simulate", "--graph", f"edgelist:{missing}", "--n", "25", "--scheme", "na",
            "--k", "10", "--p", "0.9", "--q", "0.9", "--trials", "3",
            "--output", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "no-such-graph.txt" in err
        assert out_path.read_text() == "rows of an earlier run\n"

    @pytest.mark.parametrize("graph,scheme", [
        ("sf:3:1e308", "na"), ("sf:3:1e308", "ad"), ("sf:50:1e300", "ad"),
        (f"regular:1{'0' * 160}", "ad"),
    ])
    def test_a_degree_the_closed_forms_cannot_take_is_a_spec_error(self, capsys, graph, scheme):
        # round(2 * 1e308) overflows, and the other two degrees overflowed the ad r* formulas.
        code, out, err = run_cli(
            capsys, "simulate", "--graph", graph, "--n", "25", "--scheme", scheme,
            "--k", "10", "--p", "0.9", "--q", "0.9", "--trials", "3",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot parse graph spec")

    def test_output_replaces_a_longer_file_and_may_name_the_input(self, capsys, tmp_path):
        # The edge list is read in full before the rows replace it.
        path = tmp_path / "graph.txt"
        edges = "".join(f"{v} {(v + 1) % 40}\n{v} {(v + 7) % 40}\n" for v in range(40))
        args = ("simulate", "--graph", f"edgelist:{path}", "--n", "20", "--scheme", "na",
                "--k", "10", "--p", "0.9", "--q", "0.9", "--trials", "2", "--seed", "3",
                "--zero-timing")
        path.write_text(edges)
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0 and len(expected) < len(edges)
        code, out, _ = run_cli(capsys, *args, "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_text() == expected

    def test_output_to_a_fifo(self, capsys, tmp_path):
        # A FIFO cannot be truncated; the rows go through it as they would to stdout.
        args = ("simulate", "--graph", "regular:3", "--n", "25", "--scheme", "na",
                "--k", "0,10", "--p", "0.9", "--q", "0.9", "--trials", "3", "--seed", "1",
                "--threads", "1", "--zero-timing")
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, err = run_cli(capsys, *args, "--output", str(fifo))
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert (code, out, err) == (0, "", "")
        assert got == [expected]

    @pytest.mark.parametrize("graph", ["er:2:1", "edgelist"])
    def test_degree_one_graph_runs_its_query_rows(self, capsys, tmp_path, graph):
        # Both graphs are one edge: each respondent has degree 1 and names its parent.
        if graph == "edgelist":
            path = tmp_path / "edge.txt"
            path.write_text("0 1\n")
            graph = f"edgelist:{path}"
        code, out, err = run_cli(
            capsys, "simulate", "--graph", graph, "--n", "2", "--scheme", "ad", "--k", "0,3",
            "--p", "0.8", "--q", "0.9", "--trials", "5", "--seed", "1", "--threads", "1",
        )
        assert (code, err) == (0, "")
        header, _, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["K"], fields["r"], fields["mean_budget"]) == ("3", "1", "3")
        assert 0.0 <= float(fields["p_hat"]) <= 1.0

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "graph": "regular:3", "scheme": "na", "k": "15", "p": "0.9",
            "q": "0.9", "n": 20, "trials": 2, "seed": 7,
        }))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--scheme", "ad")
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "ad"

    @staticmethod
    def run_config(capsys, tmp_path, doc, *flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        return run_cli(capsys, "simulate", "--config", str(cfg), *flags)

    SWEEP = {"graph": "regular:3", "scheme": "na", "k": 60, "p": 0.7, "q": 0.7, "n": 20,
             "trials": 1, "threads": 1}

    def test_config_output_keys_are_honoured(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        doc = dict(self.SWEEP, format="json", zero_timing=True, output=str(out_path), r=5,
                   candidate_order="centrality", fixed_graph=False, seed=3)
        code, out, _ = self.run_config(capsys, tmp_path, doc)
        assert (code, out) == (0, "")
        (row,) = json.loads(out_path.read_text())
        assert (row["r"], row["wall_time_ms"]) == (5, 0)

    @pytest.mark.parametrize("doc, flags, r", [
        ({"r": 5, "rstar": "necessary", "r_mode": "fixed:4"}, (), 5),
        ({"rstar": "necessary", "r_mode": "fixed:4"}, (), 8),
        ({"r_mode": "fixed:4"}, (), 4),
        ({}, (), 2),
        ({"r": 5}, ("--rstar", "necessary"), 8),
        ({"rstar": "necessary"}, ("--r", "3"), 3),
    ])
    def test_config_r_precedence(self, capsys, tmp_path, doc, flags, r):
        # K = 60, d = 3, p = q = 0.7: the batch r* is 8 (necessary), 2 (sufficient).
        code, out, _ = self.run_config(capsys, tmp_path, dict(self.SWEEP, **doc), *flags)
        assert code == 0
        assert int(out.splitlines()[1].split(",")[5]) == r

    @pytest.mark.parametrize("doc", [
        {"threads": "2"},
        {"n": "abc"},
        {"n": 20.0},
        {"bogus": 1},
        {"fixed_graph": "false"},
        {"zero_timing": 1},
        {"format": "xml"},
        {"k": "10,x"},
        {"p": [0.7, True]},
        {"seed": None},
    ])
    def test_bad_config_is_an_error(self, capsys, tmp_path, doc):
        code, out, err = self.run_config(capsys, tmp_path, dict(self.SWEEP, **doc))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags, doc", [
        (("--seed", "-1"), {}),
        (("--p", "1.5"), {}),
        (("--p", "1.5", "--k", "0"), {}),
        ((), {"candidate_order": "x"}),
        (("--graph", "er:10:20"), {}),
        (("--graph", "er:10:nan"), {}),
        (("--graph", "sf:50:inf"), {}),
        ((), {"p": []}),
        ((), {"q": []}),
        (("--threads", "0"), {}),
        ((), {"threads": -1}),
    ], ids=["negative-seed", "p-above-1", "p-above-1-no-query", "unknown-order",
            "er-degree-above-n-1", "er-degree-nan", "sf-ratio-inf", "no-p", "no-q",
            "zero-threads", "negative-threads"])
    def test_bad_sweep_value_fails_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                     flags, doc):
        import rqsim.harness

        trials = []
        monkeypatch.setattr(rqsim.harness, "_run_single_trial", lambda *args: trials.append(args))
        code, out, err = self.run_config(capsys, tmp_path, dict(self.SWEEP, **doc), *flags)
        assert (code, out, trials) == (1, "", [])
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", '"regular:3"'])
    def test_config_must_be_a_json_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("content", ["regular:3 with p = 0.8\n", b"\xff\xfe{}"], ids=["text", "binary"])
    def test_config_that_is_not_json_is_named(self, capsys, tmp_path, content):
        cfg = tmp_path / "notes.txt"
        (cfg.write_bytes if isinstance(content, bytes) else cfg.write_text)(content)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {cfg}: not a JSON document: ")

    def test_config_missing_required_key(self, capsys, tmp_path):
        doc = {key: v for key, v in self.SWEEP.items() if key != "q"}
        code, _, err = self.run_config(capsys, tmp_path, doc)
        assert code == 2
        assert "required" in err

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--graph", "regular:3")
        assert code == 2
        assert "required" in err

    def test_bad_flags_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nonsense"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestSnapshotTools:
    @pytest.fixture
    def snapshot_file(self, tmp_path):
        rng = np.random.default_rng(6)
        snap = simulate_si(make_regular_tree(3), 0, 9, rng)
        path = tmp_path / "snap.json"
        path.write_text(snap.to_json())
        return path, snap

    def test_centrality_table(self, capsys, snapshot_file):
        path, snap = snapshot_file
        code, out, _ = run_cli(capsys, "centrality", "--snapshot", str(path), "--top", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,node,log_score,is_center"
        assert len(lines) == 4
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_centrality_notes_that_the_file_has_no_graph(self, capsys, snapshot_file):
        path, _ = snapshot_file
        code, _, err = run_cli(capsys, "centrality", "--snapshot", str(path))
        assert code == 0
        assert "carries no graph" in err and "parent-edge tree" in err

    @pytest.mark.parametrize("doc", [
        {"source": 0, "infected_order": [0, 1], "parent_pairs": [[1, 0], [5, 1]]},
        {"source": 0, "infected_order": [0, 1], "parent_pairs": [[1, 0], [0, 1]]},
        {"source": 0, "infected_order": [0, 1]},
        {"source": "a", "infected_order": [0, 1], "parent_pairs": [[1, 0]]},
        [1, 2],
        {"source": 0, "infected_order": [0, 1], "parent_pairs": [[1]]},
        {"source": 0.7, "infected_order": [0.2, 1.9, 2.5], "parent_pairs": [[1.9, 0.2], [2.5, 1]]},
        {"source": True, "infected_order": [1, 0], "parent_pairs": [[0, 1]]},
        {"source": "0", "infected_order": ["0", "1"], "parent_pairs": [["1", "0"]]},
    ])
    def test_centrality_rejects_stray_parent_entries(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "centrality", "--snapshot", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_centrality_rejects_text_that_is_not_json(self, capsys, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("notes\n")
        code, out, err = run_cli(capsys, "centrality", "--snapshot", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed snapshot document:")

    def test_oracle_distance(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "distance", "--d", "3", "--k", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "l,probability"
        assert lines[-1].startswith("sum,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argv", [("--d", "3", "--k", "1"), ("--d", "3", "--k", "0"),
                                      ("--d", "3", "--k", "-2"), ("--d", "2", "--k", "1"),
                                      ("--d", "2", "--k", "4")])
    def test_oracle_distance_rejects_bad_d_or_k(self, capsys, argv):
        code, out, err = run_cli(capsys, "oracle", "distance", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_oracle_distance_at_k_2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "distance", "--d", "3", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["l,probability", "1,1.0000000000", "sum,1.0000000000"]

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_centrality_rejects_top_below_1(self, capsys, snapshot_file, top):
        path, _ = snapshot_file
        code, out, err = run_cli(capsys, "centrality", "--snapshot", str(path), "--top", top)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--top" in err

    def test_centrality_top_past_the_snapshot_lists_every_node(self, capsys, snapshot_file):
        path, snap = snapshot_file
        code, out, _ = run_cli(capsys, "centrality", "--snapshot", str(path), "--top", "1000")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + snap.n

    def test_oracle_orderings_above_10_nodes_prints_only_the_error(self, capsys, tmp_path):
        snap = simulate_si(make_regular_tree(3), 0, 11, np.random.default_rng(6))
        path = tmp_path / "snap.json"
        path.write_text(snap.to_json())
        code, out, err = run_cli(capsys, "oracle", "orderings", "--snapshot", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_oracle_orderings(self, capsys, snapshot_file):
        path, snap = snapshot_file
        code, out, _ = run_cli(capsys, "oracle", "orderings", "--snapshot", str(path))
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == snap.n
        counts = {int(a): int(b) for a, b in (line.split(",") for line in lines)}
        assert all(c >= 1 for c in counts.values())
