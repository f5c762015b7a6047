"""CLI smoke tests (direct main() invocation, captured stdout)."""

import json

import pytest

from repro.cli import main


def test_run_command(capsys):
    code = main([
        "run", "--mapping", "keyspace-split", "--nodes", "80",
        "--subscriptions", "15", "--publications", "15",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "keys per subscription" in out
    assert "hops per publication" in out


def test_run_with_optimizations(capsys):
    code = main([
        "run", "--mapping", "selective-attribute", "--nodes", "80",
        "--subscriptions", "10", "--publications", "10",
        "--collecting", "--buffer-period", "5",
        "--discretization", "1000", "--replication", "1",
    ])
    assert code == 0
    assert "notification" in capsys.readouterr().out


def test_run_cache_flag_reaches_the_can_overlay(capsys):
    """``--cache`` was passed to Chord only: ``--overlay can --cache 0``
    printed the table of ``--cache 128``."""
    tables = []
    for capacity in ("0", "128"):
        code = main([
            "run", "--overlay", "can", "--nodes", "100", "--subscriptions", "30",
            "--publications", "60", "--cache", capacity,
        ])
        assert code == 0
        tables.append(capsys.readouterr().out.splitlines())

    def notification_hops(table) -> float:
        (line,) = [row for row in table if "hops per notification" in row]
        return float(line.split()[-1])

    assert notification_hops(tables[1]) < notification_hops(tables[0])
    # Only notifications are unicast here: nothing else reads the cache.
    assert [row for row in tables[0] if "notification" not in row] == [
        row for row in tables[1] if "notification" not in row
    ]


def test_run_widens_the_key_space_for_rings_beyond_the_papers(capsys):
    code = main([
        "run", "--nodes", "9000", "--subscriptions", "5", "--publications", "5",
        "--discretization", "256",
    ])
    assert code == 0
    assert "hops per publication" in capsys.readouterr().out


def test_run_event_space_partition(capsys):
    code = main([
        "run", "--mapping", "event-space-partition", "--nodes", "80",
        "--subscriptions", "10", "--publications", "10",
    ])
    assert code == 0


def test_figure_command_small(capsys):
    code = main([
        "figure", "fig9b", "--subscriptions", "20", "--nodes", "100",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "sub_hops" in out


def test_figure_routing(capsys):
    code = main(["figure", "routing", "--publications", "100", "--nodes", "100"])
    assert code == 0
    assert "cache_capacity" in capsys.readouterr().out


def test_trace_roundtrip(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main([
        "trace", "generate", "--out", str(path),
        "--subscriptions", "10", "--publications", "10", "--nodes", "60",
    ]) == 0
    assert path.exists()
    assert main(["trace", "replay", str(path), "--nodes", "60"]) == 0
    out = capsys.readouterr().out
    assert "operations replayed" in out


def test_trace_replay_on_another_ring_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "trace.json"
    generate = ["trace", "generate", "--out", str(path), "--nodes", "50",
                "--subscriptions", "5", "--publications", "5"]
    assert main(generate + ["--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["trace", "replay", str(path), "--nodes", "50", "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trace op 0 ")
    assert "not in the ring" in captured.err
    assert captured.err.count("\n") == 1


def test_trace_replay_rejects_an_edited_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["trace", "generate", "--out", str(path), "--nodes", "50",
                 "--subscriptions", "5", "--publications", "5"]) == 0
    payload = json.loads(path.read_text())
    payload["version"] = 99
    payload["ops"][0]["kind"] = "join"
    path.write_text(json.dumps(payload))
    assert main(["trace", "replay", str(path), "--nodes", "50"]) == 2
    assert "unsupported trace format version 99" in capsys.readouterr().err


def test_trace_generate_is_the_workload_run_executes(tmp_path):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import generate_trace
    from repro.workload.trace import Trace

    path = tmp_path / "trace.json"
    assert main(["trace", "generate", "--out", str(path), "--nodes", "9000",
                 "--seed", "5", "--subscriptions", "4", "--publications", "4"]) == 0
    # 9000 nodes do not fit the paper's 2^13 keys: no hard-coded key space.
    config = ExperimentConfig(nodes=9000, key_bits=16, seed=5,
                              subscriptions=4, publications=4)
    assert [(op.time, op.kind, op.node) for op in Trace.load(path).ops] == [
        (op.time, op.kind, op.node) for op in generate_trace(config).ops
    ]


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_trace_replay_missing_file(tmp_path, capsys):
    # An input path that cannot be read is a usage error: one line, exit 2.
    missing = str(tmp_path / "no-such-file.json")
    for argv in (["trace", "replay", missing], ["report", missing]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {missing}: No such file or directory\n"
        )


@pytest.mark.parametrize("command", [
    ["run", "--nodes", "40", "--subscriptions", "5", "--publications", "5",
     "--telemetry"],
    ["trace", "generate", "--nodes", "40", "--subscriptions", "5",
     "--publications", "5", "--out"],
])
def test_an_output_path_that_cannot_be_written_exits_2_before_the_run(
    tmp_path, capsys, command
):
    target = str(tmp_path / "no-such-dir" / "out.json")
    assert main(command + [target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err == (
        f"error: cannot write {target}: No such file or directory\n"
    )


def test_run_rejects_bad_mapping():
    with pytest.raises(SystemExit):
        main(["run", "--mapping", "no-such-mapping"])


def test_run_rejects_bad_routing():
    with pytest.raises(SystemExit):
        main(["run", "--routing", "teleport"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--audit", "--audit-period", "-1"], "probe_period must be > 0"),
        (["--audit", "--audit-period", "0"], "probe_period must be > 0"),
        (["--subscriptions", "-5"], "subscriptions and publications must be >= 0"),
        (["--publications", "-3"], "subscriptions and publications must be >= 0"),
        (["--ttl", "-1"], "subscription_ttl must be > 0"),
        (["--ttl", "0"], "subscription_ttl must be > 0"),
    ],
    ids=["audit-period-1", "audit-period0", "subscriptions-5",
         "publications-3", "ttl-1", "ttl0"],
)
def test_run_rejects_impossible_inputs(capsys, flags, message):
    """Each is refused before the run starts: ``error: ...``, exit 2."""
    argv = ["run", "--nodes", "10", "--subscriptions", "5", "--publications", "5"]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_run_with_temporal_locality(capsys):
    code = main([
        "run", "--mapping", "keyspace-split", "--nodes", "60",
        "--subscriptions", "10", "--publications", "10",
        "--temporal-locality", "0.9",
    ])
    assert code == 0


def test_run_audit_then_report(tmp_path, capsys):
    export = tmp_path / "audited.jsonl"
    artifact = tmp_path / "report.json"
    code = main([
        "run", "--mapping", "selective-attribute", "--nodes", "60",
        "--subscriptions", "20", "--publications", "30",
        "--audit", "--telemetry", str(export),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "audit: publications audited" in out
    assert "audit: violations" in out

    code = main(["report", str(export), "--json", str(artifact)])
    out = capsys.readouterr().out
    assert code == 0  # clean run: no violations, every tree complete
    assert "VERDICT: healthy" in out
    written = json.loads(artifact.read_text())
    assert written["audit"]["violations"] == []
    assert written["audit"]["probes"]
    assert written["trace"] is not None and written["load"] is not None


def test_report_notes_unaudited_export(tmp_path, capsys):
    export = tmp_path / "plain.jsonl"
    code = main([
        "run", "--mapping", "keyspace-split", "--nodes", "60",
        "--subscriptions", "10", "--publications", "10",
        "--telemetry", str(export),
    ])
    assert code == 0
    capsys.readouterr()
    assert main(["report", str(export)]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith(
        "audit: not recorded — no audit records (run with --audit)"
    )
    assert "VERDICT" not in out


def test_stats_reports_slo_percentiles(tmp_path, capsys):
    export = tmp_path / "audited.jsonl"
    assert main([
        "run", "--mapping", "selective-attribute", "--nodes", "60",
        "--subscriptions", "20", "--publications", "30",
        "--audit", "--telemetry", str(export),
    ]) == 0
    capsys.readouterr()
    assert main(["report", str(export)]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: healthy — 0 violations" in out
    # The audit section prints the SLO percentiles; the trace section
    # prints only the histograms the audit section does not.
    assert out.count("audit.notification_latency") == 1
    assert "audit.notification_latency: " in out
    assert "pubsub.matches_per_publication_delivery p50/p95/p99" in out


def test_report_rejects_v2_export(tmp_path, capsys):
    # The reader reads version 5 only: an older file exits 2 with one
    # line that names its version.
    export = tmp_path / "plain.jsonl"
    assert main([
        "run", "--nodes", "120", "--subscriptions", "30",
        "--publications", "30", "--telemetry", str(export),
    ]) == 0
    capsys.readouterr()
    downgraded = tmp_path / "v2.jsonl"
    with open(export) as src, open(downgraded, "w") as dst:
        for line in src:
            record = json.loads(line)
            kind = record.get("type")
            if kind in ("load", "skew", "overload"):
                continue
            if kind == "meta":
                record["version"] = 2
            dst.write(json.dumps(record) + "\n")

    assert main(["report", str(downgraded)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "repro-telemetry version 2;" in captured.err


def test_report_rejects_a_file_that_is_no_export(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["trace", "generate", "--out", str(trace), "--nodes", "50",
                 "--subscriptions", "5", "--publications", "5"]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


#: A hand-written export: one request of two spans and a delivery, an
#: audit counter and probe, node and key load, a skew sample and one
#: node overload event.
EXPORT = [
    {"type": "meta", "format": "repro-telemetry", "version": 5},
    {"type": "span", "id": 1, "parent": 0, "request": 1,
     "kind": "publication", "src": 7, "dst": 7, "t_send": 1.0,
     "t_recv": 1.0, "status": "root"},
    {"type": "span", "id": 2, "parent": 1, "request": 1,
     "kind": "publication", "src": 7, "dst": 9, "t_send": 1.0,
     "t_recv": 1.05, "status": "sent"},
    {"type": "delivery", "span": 2, "request": 1, "node": 9, "t": 1.05},
    {"type": "counter", "name": "audit.publications_audited",
     "labels": {}, "value": 1},
    {"type": "probe", "t": 2.0, "overlay": "can", "nodes_total": 2,
     "nodes_checked": 2, "violations": 0},
    {"type": "load", "scope": "node", "id": 7, "forwarded": 1,
     "delivered": 0, "subscriptions": 1},
    {"type": "load", "scope": "node", "id": 9, "forwarded": 0,
     "delivered": 1, "subscriptions": 0},
    {"type": "load", "scope": "key", "id": 3, "subscriptions": 1,
     "publications": 1},
    {"type": "skew", "t": 2.0, "scope": "node", "count": 2, "total": 2.0,
     "gini": 0.0, "p99_mean_ratio": 1.0, "top": [[7, 1.0], [9, 1.0]]},
    {"type": "overload", "t": 2.0, "node": 7, "window_load": 5.0,
     "median": 1.0, "ratio": 5.0, "threshold": 4.0},
]

#: A record a retired sharded-run profiler wrote into v4: the reader
#: skips it, as it skips every record of an unknown type.
RETIRED_V4_RECORDS = [
    {"type": "profile", "scope": "run", "rounds": 3, "total_wall_s": 0.5,
     "dominant_shard": 1, "dominant_phase": "busy"},
]


def test_retired_v4_records_change_no_command_output(tmp_path, capsys):
    export = tmp_path / "export.jsonl"

    def outcome(records):
        export.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        code = main(["report", str(export)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    plain = outcome(EXPORT)
    code, out, err = plain
    assert (code, err) == (0, "")
    assert "...with complete causal trees" in out
    assert "overload: 1 event(s)" in out
    assert "VERDICT: healthy" in out
    with_retired = EXPORT[:6] + RETIRED_V4_RECORDS + EXPORT[6:]
    assert outcome(with_retired) == plain


@pytest.mark.parametrize("flag", ["--json", "--perfetto"])
def test_a_report_output_that_cannot_be_written_exits_2(tmp_path, capsys, flag):
    export = tmp_path / "export.jsonl"
    export.write_text("".join(json.dumps(record) + "\n" for record in EXPORT))
    target = str(tmp_path / "no-such-dir" / "out.json")
    assert main(["report", str(export), flag, target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write {target}: No such file or directory\n"
    )


def test_report_help_names_the_export_format_it_reads(capsys):
    from repro.telemetry.export import FORMAT_VERSION

    with pytest.raises(SystemExit) as done:
        main(["report", "--help"])
    assert done.value.code == 0
    assert f"(format v{FORMAT_VERSION})" in capsys.readouterr().out
