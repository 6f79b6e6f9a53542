"""Replay determinism for scenario runs: serial vs --jobs, FF on/off,
and the regression pins for bugs the generator sweep surfaced."""

import json

import pytest

from repro.scenarios import ScenarioSpec, generate_specs, run_scenario, run_scenarios

#: A small campaign that covers both topologies and all three arches
#: (see test_generator.test_pinned_campaign_shape).
SPECS = generate_specs(seed=0, count=6)


def _blob(results):
    return json.dumps(results, sort_keys=True)


def test_run_twice_byte_identical():
    assert _blob(run_scenarios(SPECS)) == _blob(run_scenarios(SPECS))


def test_serial_vs_jobs_byte_identical():
    serial = run_scenarios(SPECS)
    fanned = run_scenarios(SPECS, jobs=2)
    assert _blob(serial) == _blob(fanned)


def test_fast_forward_invariance(monkeypatch):
    baseline = _blob(run_scenarios(SPECS))
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    assert _blob(run_scenarios(SPECS)) == baseline


def test_audit_does_not_change_digests():
    plain = run_scenarios(SPECS)
    audited = run_scenarios(SPECS, audit=True)
    assert [r["digest"] for r in plain] == [r["digest"] for r in audited]


def test_results_carry_spec_identity():
    results = run_scenarios(SPECS)
    for index, (spec, result) in enumerate(zip(SPECS, results)):
        assert result["index"] == index
        assert result["seed"] == spec.seed
        assert result["spec_digest"] == spec.digest()
        assert result["outcome"] == "ok"
        assert result["violations"] == []


def test_riscv_machine_scenario_counts_delegated_traps():
    spec = ScenarioSpec(
        seed=1,
        topology="machine",
        arch="riscv",
        guest_hv="hs",
        levels=2,
        io_model="virtio",
        ops_per_worker=10,
    ).validate()
    result = run_scenario(spec)
    assert result["outcome"] == "ok" and not result["violations"]


def test_cluster_scenario_digest_matches_direct_cluster_run():
    """A cluster scenario is the sweep demo shape: same spec fields
    driven directly through Cluster must reproduce the same digest."""
    spec = next(s for s in SPECS if s.topology == "cluster")
    result = run_scenario(spec)

    from repro.cluster import Cluster
    from repro.core.migration import MigrationError, MigrationNotSupported

    cluster = Cluster(
        num_hosts=spec.hosts,
        seed=spec.seed,
        policy=spec.policy,
        guest_hv=spec.guest_hv,
        arch=spec.arch,
        stack_levels=spec.levels,
        workers=spec.workers,
        fault_plan=spec.fault_plan(),
    )
    for tenant in spec.tenant_specs():
        cluster.place(tenant)
    cluster.stream("host1", f"host{spec.hosts - 1}", 8 << 20)
    try:
        cluster.orchestrator.evacuate("host0")
    except (MigrationError, MigrationNotSupported):
        pass
    cluster.sim.run()
    assert cluster.digest() == result["digest"]


def test_setup_cycles_excluded_from_wall_budget():
    """Regression: a short run over a big passthrough domain charges
    boot-time IOMMU pinning to cycles["setup"] before the clock runs;
    the conservation invariant must not flag that as a violation.
    (Found by the generator sweep: seed 0, scenario 180.)"""
    spec = generate_specs(seed=0, count=200)[180]
    assert (spec.topology, spec.io_model) == ("machine", "passthrough")
    result = run_scenario(spec, audit=True)
    assert result["outcome"] == "ok"
    assert result["violations"] == []


def test_cli_jobs_one_runs_in_process(monkeypatch, capsys):
    """`scenarios run --jobs 1` (the default) must not start a pool."""
    import repro.bench.parallel as parallel
    from repro.cli import main

    def no_pool(*args, **kwargs):
        raise AssertionError("--jobs 1 built a ProcessPoolExecutor")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    for argv in ([], ["--jobs", "1"]):
        assert main(["scenarios", "run", "--count", "2", "--json"] + argv) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2
