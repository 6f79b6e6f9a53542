"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_micro_command(capsys):
    assert main(["micro", "Hypercall", "--levels", "1", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "Hypercall" in out and "cycles/op" in out


def test_micro_dvh_preset(capsys):
    assert main(["micro", "ProgramTimer", "--levels", "2", "--dvh", "full",
                 "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    # DVH virtual timer: a few thousand cycles, not tens of thousands.
    value = int(out.split(":")[1].split("cycles")[0].strip().replace(",", ""))
    assert value < 10_000


@pytest.mark.parametrize(
    "argv, unit",
    [
        (["micro", "Hypercall", "--levels", "1", "--iterations", "5", "--slo"],
         "cycles/op"),
        (["app", "netperf_rr", "--levels", "2", "--io", "vp", "--scale", "0.1",
          "--report"], "trans/s"),
    ],
)
def test_micro_and_app_print_one_json_object(capsys, argv, unit):
    """--json replaces the text line (and any --slo/--report tables) with
    one JSON object."""
    assert main(argv + ["--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert sorted(row) == [
        "dvh", "elapsed_s", "io", "levels", "name", "txns", "unit", "value",
    ]
    assert row["name"] == argv[1] and row["unit"] == unit
    assert row["levels"] == int(argv[3]) and row["dvh"] == "none"
    assert row["value"] > 0 and row["txns"] > 0 and row["elapsed_s"] > 0


def test_app_command_with_report(capsys):
    assert main(
        ["app", "hackbench", "--levels", "0", "--scale", "0.1", "--report"]
    ) == 0
    out = capsys.readouterr().out
    assert "hackbench" in out
    assert "Cycle attribution" in out


def test_micro_slo_prints_latency_table(capsys):
    assert main(["micro", "Hypercall", "--levels", "1", "--iterations", "5",
                 "--slo"]) == 0
    out = capsys.readouterr().out
    assert "Request latency" in out
    assert "p99 cy" in out


def test_app_slo_prints_latency_table(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--slo"]) == 0
    out = capsys.readouterr().out
    assert "Request latency" in out
    assert "netperf_rr" in out


def test_app_poisson_arrival(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson", "--offered", "30000"]) == 0
    out = capsys.readouterr().out
    assert "arrival=poisson" in out


def test_app_poisson_needs_offered_rate(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson"]) == 1
    assert "offered_tps" in capsys.readouterr().out


def test_app_arrival_rejected_for_non_rr(capsys):
    assert main(["app", "hackbench", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson", "--offered", "100"]) == 1
    assert "no arrival process" in capsys.readouterr().out


def test_app_io_default_follows_dvh():
    parser = build_parser()
    from repro.cli import _stack_config

    args = parser.parse_args(["app", "memcached", "--levels", "2", "--dvh", "full"])
    assert _stack_config(args).io_model == "vp"
    args = parser.parse_args(["app", "memcached", "--levels", "2"])
    assert _stack_config(args).io_model == "virtio"
    args = parser.parse_args(["app", "memcached", "--levels", "0"])
    assert _stack_config(args).io_model == "native"


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "12"])


def test_xen_flag(capsys):
    assert main(
        ["micro", "Hypercall", "--levels", "2", "--guest-hv", "xen",
         "--iterations", "5"]
    ) == 0
    out = capsys.readouterr().out
    value = int(out.split(":")[1].split("cycles")[0].strip().replace(",", ""))
    assert value > 45_000  # Xen guest hypervisor costs more than KVM's ~38K


def test_figure_command_chart(capsys):
    assert main(
        ["figure", "7", "--apps", "hackbench", "--scale", "0.1", "--chart"]
    ) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "|" in out and "#" in out  # bars


def test_figure_command_table(capsys):
    assert main(["figure", "8", "--apps", "hackbench", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "+ virtual idle (= DVH)" in out


def test_migration_command(capsys):
    assert main(["migration"]) == 0
    out = capsys.readouterr().out
    assert "MIGRATION NOT SUPPORTED" in out


def test_analyze_command(capsys):
    assert main(["analyze", "hackbench", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "— forwarded" in out


# ----------------------------------------------------------------------
# Flag parity: every leaf accepts exactly the shared flags it acts on
# ----------------------------------------------------------------------
#: Every leaf subcommand the parser defines, and which of --jobs /
#: --audit / --json its handler reads.  --seed and --no-fast-forward are
#: global and checked on every leaf.
LEAF_FLAGS = {
    ("table3",): {"jobs"},
    ("figure",): {"jobs"},
    ("migration",): {"audit"},
    ("micro",): {"audit", "json"},
    ("trace",): set(),
    ("analyze",): set(),
    ("app",): {"audit", "json"},
    ("faults", "fuzz"): {"audit"},
    ("faults", "plan"): {"audit"},
    ("cluster", "demo"): {"audit", "json"},
    ("cluster", "migrate"): {"audit", "json"},
    ("cluster", "sweep"): {"jobs", "json"},
    ("dc", "demo"): {"json"},
    ("dc", "run"): {"json"},
    ("dc", "sweep"): {"jobs", "json"},
    ("dc", "validate"): set(),
    ("slo",): {"json"},
    ("study",): {"jobs", "json"},
    ("audit",): set(),
    ("scenarios", "gen"): set(),
    ("scenarios", "run"): {"jobs", "audit", "json"},
    ("scenarios", "shrink"): set(),
}
#: Positional arguments a leaf needs in order to parse.
POSITIONALS = {"figure": ["7"], "micro": ["Hypercall"], "analyze": ["hackbench"],
               "app": ["hackbench"]}


def _argv(leaf):
    return list(leaf) + POSITIONALS.get(leaf[0], [])


LEAF_COMMANDS = [_argv(leaf) for leaf in LEAF_FLAGS]

#: How each shared flag is passed, and the value it parses to.
SHARED_FLAGS = {
    "jobs": (["--jobs", "3"], 3),
    "audit": (["--audit"], True),
    "json": (["--json"], True),
}


def _leaf_parsers(parser):
    """Yield (argv prefix, parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = list(_leaf_parsers(sub))
                if nested:
                    for prefix, leaf in nested:
                        yield [name] + prefix, leaf
                else:
                    yield [name], sub


def test_leaf_table_covers_every_subcommand():
    leaves = sorted(tuple(prefix) for prefix, _p in _leaf_parsers(build_parser()))
    assert leaves == sorted(LEAF_FLAGS)


@pytest.mark.parametrize("leaf", LEAF_FLAGS, ids=lambda leaf: "-".join(_argv(leaf)))
def test_flag_parity_on_every_subcommand(leaf):
    """An honoured flag parses; one the handler would ignore is a usage
    error (exit 2) instead of being silently accepted."""
    honoured = LEAF_FLAGS[leaf]
    argv = _argv(leaf)
    parser = build_parser()
    args = parser.parse_args(argv + ["--seed", "7", "--no-fast-forward"])
    assert args.seed == 7
    assert args.no_fast_forward is True
    for flag, (extra, value) in SHARED_FLAGS.items():
        if flag in honoured:
            assert getattr(parser.parse_args(argv + extra), flag) == value
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + extra)
            assert exc.value.code == 2


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=lambda a: "-".join(a))
def test_pre_subcommand_seed_survives(argv):
    """SUPPRESS defaults: `repro --seed 9 <cmd>` keeps seed 9 even
    though the subcommand defines its own --seed."""
    args = build_parser().parse_args(["--seed", "9"] + argv)
    assert args.seed == 9
    assert args.no_fast_forward is False


def test_study_command_renders_report(capsys):
    import json as json_mod

    spec = {
        "name": "cli-trim",
        "variants": ["baseline", "dvh"],
        "micro_benches": ["Hypercall"],
        "micro_guest_hvs": ["kvm"],
        "micro_iterations": 3,
        "app_names": [],
        "migration": False,
        "cluster_hosts": 0,
    }
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json_mod.dump(spec, fh)
        path = fh.name
    assert main(["study", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "head-to-head study 'cli-trim'" in out
    assert "Hypercall" in out
    assert main(["study", "--spec", path, "--json"]) == 0
    data = json_mod.loads(capsys.readouterr().out)
    assert data["spec"] == "cli-trim"
    assert len(data["rows"]) == 2


def test_study_command_rejects_bad_spec(capsys):
    assert main(["study", "--spec", "/nonexistent/spec.json"]) == 1
    assert "spec error" in capsys.readouterr().out
