"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "figure9" in out


def test_table4_prints_rows(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "16 x 16" in out
    assert "352" in out


def test_table5_prints_matrix(capsys):
    assert main(["table5"]) == 0
    assert "this work" in capsys.readouterr().out


def test_figure2_small(capsys):
    assert main(["figure2", "--resolution", "24"]) == 0
    assert "contiguity" in capsys.readouterr().out


def test_figure6_small(capsys):
    assert main(["figure6", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "total RMS error" in out


def test_figure7_tiny(capsys):
    assert main(["figure7", "--grids", "2", "--reynolds", "1.0", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "2x2" in out
    # The linear-kernel accounting is surfaced with the figure.
    assert "digital linear kernel" in out
    assert "preconditioner builds" in out


def test_sweep_serial(capsys):
    assert main(["sweep", "--experiments", "table2,table4", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep of 2 experiment(s)" in out
    assert "table2" in out and "table4" in out


def test_sweep_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        main(["sweep", "--experiments", "figure99"])


def test_list_mentions_sweep(capsys):
    assert main(["list"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_health_report_healthy_board(capsys):
    assert main(["health-report", "--solves", "2"]) == 0
    out = capsys.readouterr().out
    assert "degradation off" in out
    assert "analog health report" in out
    assert "seeds_rejected" in out


def test_health_report_rejects_bad_degradation_spec():
    with pytest.raises(SystemExit):
        main(["health-report", "--degradation", "not_a_knob=1.0"])


def test_health_report_fleet_renders_idle_boards(capsys):
    # More boards than solves: some boards never settle anything. Their
    # rate columns must render "-", not raise ZeroDivisionError.
    assert (
        main(
            [
                "health-report",
                "--solves",
                "2",
                "--boards",
                "4",
                "--settle-max-steps",
                "2000",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fleet boards:" in out
    assert "fleet of 4 board(s)" in out
    idle_rows = [
        line
        for line in out.splitlines()
        if line.startswith(("2 ", "3 ")) and "| -" in line
    ]
    assert idle_rows, out


def test_list_mentions_health_report(capsys):
    assert main(["list"]) == 0
    assert "health-report" in capsys.readouterr().out


def test_serve_batch_with_degradation(capsys):
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--degradation",
                "offset_drift_sigma=0.05,seed=2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "outcome" in out or "converged" in out


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_list_mentions_verify_journal_and_certify(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "verify-journal" in out
    assert "--certify" in out


def test_serve_batch_certify_writes_verifiable_journal(tmp_path, capsys):
    journal = tmp_path / "batch.journal"
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--certify",
                "--journal",
                str(journal),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "certificates_checked" in out
    # The journal the certified run wrote must audit clean.
    assert main(["verify-journal", str(journal)]) == 0
    assert "verdict: ok" in capsys.readouterr().out


def test_verify_journal_flags_tampering(tmp_path, capsys):
    import json

    from repro.checkpoint.atomic import decode_array, encode_array, payload_digest

    journal = tmp_path / "batch.journal"
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--certify",
                "--journal",
                str(journal),
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = []
    tampered = False
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if (
            not tampered
            and record.get("kind") == "outcome_committed"
            and record["outcome"].get("solution") is not None
        ):
            record.pop("sha256", None)
            outcome = record["outcome"]
            outcome["solution"] = encode_array(
                decode_array(outcome["solution"]) * 1.001
            )
            record["sha256"] = payload_digest(record)
            line = json.dumps(record)
            tampered = True
        lines.append(line)
    assert tampered
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify-journal", str(journal)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_journal_missing_file_exits_two(tmp_path, capsys):
    assert main(["verify-journal", str(tmp_path / "nope.journal")]) == 2
    assert "cannot audit" in capsys.readouterr().err


def test_serve_canary_interval_requires_boards():
    with pytest.raises(SystemExit):
        main(
            [
                "serve",
                "--requests",
                "2",
                "--canary-interval",
                "2",
            ]
        )


SHARED_SERVE_OPTIONS = (
    "--requests",
    "--grids",
    "--reynolds",
    "--seed",
    "--deadline",
    "--max-attempts",
    "--analog-time-limit",
    "--faults",
    "--degradation",
    "--boards",
    "--kill-board",
    "--settle-max-steps",
    "--certify",
)

# Every option each command accepts, with a value that parses.
SERVE_OPTION_SAMPLES = {
    "--trace": ["t.jsonl"],
    "--requests": ["3"],
    "--grids": ["2,3"],
    "--reynolds": ["0.5"],
    "--seed": ["4"],
    "--deadline": ["2.5"],
    "--max-attempts": ["2"],
    "--analog-time-limit": ["1e-3"],
    "--faults": ["worker_crash=0.1"],
    "--degradation": ["offset_drift_sigma=0.05"],
    "--boards": ["2"],
    "--kill-board": ["1:3"],
    "--settle-max-steps": ["50"],
    "--certify": [],
}
SERVE_BATCH_ONLY = {
    "--workers": ["2"],
    "--journal": ["b.journal"],
    "--resume": ["b.journal"],
    "--crash-after-outcomes": ["1"],
}
SERVE_ONLY = {
    "--shards": ["3"],
    "--workers-per-shard": ["2"],
    "--queue-limit": ["16"],
    "--batch-window": ["2"],
    "--tenants": ["2"],
    "--journal-dir": ["svc"],
    "--canary-interval": ["2"],
}


def _subparser(name):
    from repro.cli import _build_parser

    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    return parser, subparsers.choices[name]


def test_serve_and_serve_batch_share_their_common_options():
    parser, batch = _subparser("serve-batch")
    _, service = _subparser("serve")
    batch_actions = batch._option_string_actions
    service_actions = service._option_string_actions
    for option in SHARED_SERVE_OPTIONS:
        ours, theirs = batch_actions[option], service_actions[option]
        assert (ours.dest, ours.default, ours.type) == (theirs.dest, theirs.default, theirs.type)
    batch_args = vars(parser.parse_args(["serve-batch"]))
    service_args = vars(parser.parse_args(["serve"]))
    for option in SHARED_SERVE_OPTIONS:
        dest = batch_actions[option].dest
        assert batch_args[dest] == service_args[dest], option


@pytest.mark.parametrize(
    "command, options",
    [
        ("serve-batch", {**SERVE_OPTION_SAMPLES, **SERVE_BATCH_ONLY}),
        ("serve", {**SERVE_OPTION_SAMPLES, **SERVE_ONLY}),
    ],
)
def test_every_serve_option_still_parses(command, options):
    parser, _ = _subparser(command)
    for option, values in options.items():
        args = parser.parse_args([command, option, *values])
        assert args.command == command
