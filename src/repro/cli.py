"""Command-line interface: ``repro-nbody``.

Subcommands:

* ``run``      — simulate a workload and print conservation diagnostics;
* ``devices``  — list the Table I device catalog;
* ``triad``    — reproduce Table I's BabelStream TRIAD column;
* ``project``  — measure a pipeline and project throughput on a device;
* ``serve``    — host seeded multi-tenant traffic on the session server
  and report fairness, latency percentiles, and cache sharing;
* ``validate`` — the Section V-A solar-system validation experiment;
* ``bench`` / ``report`` — the Appendix A artifact workflow: run the
  figure experiments into a JSON artifact, then render its tables.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from repro.core.config import LEGAL_VALUES, TREE_ALGORITHMS, SimulationConfig
from repro.errors import ConfigurationError

_DEFAULTS = SimulationConfig()


def _config_flag(p: argparse.ArgumentParser, name: str, *,
                 choices=None, help=None) -> None:
    """``--name`` for the :class:`SimulationConfig` field *name*: the
    config's default, and the legality table's values as choices."""
    default = getattr(_DEFAULTS, name)
    p.add_argument("--" + name.replace("_", "-"), dest=name,
                   default=default, type=type(default),
                   choices=choices or LEGAL_VALUES.get(name), help=help)


def _add_common(p: argparse.ArgumentParser) -> None:
    _config_flag(p, "algorithm")
    p.add_argument("--n", type=int, default=10_000, help="number of bodies")
    _config_flag(p, "theta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", default="galaxy",
                   choices=["galaxy", "plummer", "uniform", "solar"])


def _make_system(args):
    from repro.workloads import galaxy_collision, plummer_sphere, solar_system, uniform_cube

    if args.workload == "galaxy":
        return galaxy_collision(args.n, seed=args.seed)
    if args.workload == "plummer":
        return plummer_sphere(args.n, seed=args.seed)
    if args.workload == "uniform":
        return uniform_cube(args.n, seed=args.seed)
    return solar_system(args.n, seed=args.seed)


def _cmd_run(args) -> int:
    from repro import Simulation, SimulationConfig
    from repro.physics import GravityParams, energy_report
    from repro.workloads.solar import SOLAR_GRAVITY

    gravity = SOLAR_GRAVITY if args.workload == "solar" else GravityParams(softening=0.05)
    system = _make_system(args)
    cfg = SimulationConfig(gravity=gravity, **{
        f.name: getattr(args, f.name) for f in fields(SimulationConfig)
        if hasattr(args, f.name)})
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    metrics = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry, default_watchdogs

        metrics = MetricsRegistry(watchdogs=default_watchdogs())
    e0 = energy_report(system, gravity) if system.n <= 20_000 else None
    sim = Simulation(system, cfg, tracer=tracer, metrics=metrics)
    rep = sim.run(args.steps)
    print(f"algorithm={args.algorithm} n={system.n} steps={args.steps} "
          f"wall={rep.wall_seconds:.3f}s "
          f"({system.n * args.steps / max(rep.wall_seconds, 1e-12):.3g} bodies/s)")
    for step, sec in sorted(rep.seconds.items()):
        print(f"  {step:16s} {sec:.4f}s")
    if sim.distributed is not None and sim.distributed.last_report is not None:
        from repro.machine.costmodel import CostModel

        drep = sim.distributed.last_report
        model = CostModel(sim.ctx.device, toolchain=sim.ctx.toolchain)
        compute, comm = drep.comm_compute_split(model)
        print(f"ranks={cfg.ranks} decomposition={cfg.decomposition} "
              f"imbalance={drep.imbalance(model):.3f} "
              f"migrated={drep.migrated} "
              f"halo={drep.let_bytes.sum() / 1e6:.3f}MB/step")
        for r in range(drep.n_ranks):
            print(f"  rank {r}: bodies={int(drep.counts[r])} "
                  f"compute={compute[r]:.3e}s comm={comm[r]:.3e}s")
    if args.profile:
        from repro.obs.report import render_profile

        print(render_profile(sim, rep, args.steps))
    if e0 is not None:
        e1 = energy_report(system, gravity)
        drift = e1.drift_from(e0)
        if metrics is not None:
            metrics.observe_conservation(args.steps, energy_drift=drift,
                                         sim=sim)
        print(f"energy drift: {drift:.3e}  "
              f"(E0={e0.total:.6g}, E1={e1.total:.6g})")
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if str(args.trace_out).endswith(".jsonl"):
            write_jsonl(tracer, args.trace_out)
        else:
            write_chrome_trace(tracer, args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer.spans)} spans, "
              f"{len(tracer.instants)} instants)")
    if metrics is not None:
        import json
        import pathlib

        out = pathlib.Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(metrics.as_dict(), indent=1,
                                  sort_keys=True) + "\n")
        print(f"metrics: {args.metrics_out} ({len(metrics.samples)} samples, "
              f"{len(metrics.alerts)} alerts)")
    return 0


def _cmd_devices(_args) -> int:
    from repro.bench import format_table
    from repro.machine import DEVICES

    rows = [
        {
            "key": d.key, "name": d.name, "kind": d.kind.value,
            "th_GB/s": d.theoretical_bw_gbs, "meas_GB/s": d.measured_bw_gbs,
            "fp64_GF": d.peak_fp64_gflops, "progress": d.progress.name,
            "ITS": d.has_its, "toolchains": ",".join(d.toolchains),
        }
        for d in DEVICES.values()
    ]
    print(format_table(rows, title="Table I device catalog"))
    return 0


def _cmd_triad(args) -> int:
    from repro.machine.babelstream import format_triad_table, triad_table

    print(format_triad_table(triad_table(n=args.elements)))
    return 0


def _cmd_project(args) -> int:
    from repro.bench import format_table, measure_pipeline, project_throughput
    from repro.machine import get_device
    from repro.physics import GravityParams

    cfg = SimulationConfig(theta=args.theta, gravity=GravityParams(softening=0.05))
    run = measure_pipeline(
        lambda n: _make_system(argparse.Namespace(**{**vars(args), "n": n})),
        args.algorithm, args.n, config=cfg,
    )
    rows = []
    for key in args.device:
        d = get_device(key)
        rows.append({
            "device": d.name,
            "throughput_bodies_per_s": project_throughput(run, d),
            "sequential": project_throughput(run, d, sequential=True),
        })
    rows.append({"device": "host (wall clock)",
                 "throughput_bodies_per_s": run.host_throughput})
    print(format_table(rows, title=f"{args.algorithm} @ N={args.n}"))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.artifact import run_artifact, save_artifact

    artifact = run_artifact(
        tuple(args.figure), max_direct=args.max_direct, progress=print
    )
    save_artifact(artifact, args.out)
    total = sum(len(f["rows"]) for f in artifact["figures"].values())
    print(f"wrote {total} data points to {args.out}")
    return 0


def _cmd_report(args) -> int:
    from repro.bench.artifact import format_report, load_artifact

    print(format_report(load_artifact(args.artifact)))
    return 0


def _cmd_serve(args) -> int:
    import json
    import pathlib

    from repro.serve import RequestClass, SessionServer, generate_traffic

    classes = None
    if args.workload_class:
        classes = [RequestClass(
            "cli", args.workload_class, n=args.n, steps=args.steps,
            config=SimulationConfig(algorithm=args.algorithm,
                                    traversal="grouped", group_size=16),
        )]
    specs = generate_traffic(
        seed=args.seed, tenants=args.tenants,
        sessions_per_tenant=args.sessions, classes=classes,
        mean_interarrival=args.mean_interarrival, identical=args.identical,
    )
    tracer = None
    if args.trace_out or args.profile:
        from repro.obs import Tracer

        tracer = Tracer()
    server = SessionServer(
        quantum_steps=args.quantum_steps, max_resident=args.max_resident,
        shared_cache=not args.no_shared_cache, tracer=tracer,
    )
    res = server.run(specs)
    print(res.summary())
    if args.profile:
        from repro.core.simulation import STEP_ORDER
        from repro.obs.report import format_tenant_profile, tenant_profile_rows

        steps_by = {t: d["steps"] for t, d in res.tenants.items()}
        rows = tenant_profile_rows(
            tracer, server.lane_tenants, server.model,
            steps_by_tenant=steps_by, order=STEP_ORDER,
        )
        print(format_tenant_profile(
            rows,
            f"serve profile: modeled on {server.device.name}, "
            f"per tenant per step (spans)",
        ))
    if args.trace_out:
        from repro.obs import write_chrome_trace, write_jsonl

        if str(args.trace_out).endswith(".jsonl"):
            write_jsonl(tracer, args.trace_out)
        else:
            write_chrome_trace(tracer, args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer.spans)} spans, "
              f"{len(server.lane_tenants)} session lanes)")
    if args.metrics_out:
        payload = {
            "tenants": {
                t: server.tenant_metrics(t).as_dict()
                for t in sorted(res.tenants)
            },
        }
        out = pathlib.Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"metrics: {args.metrics_out} ({len(payload['tenants'])} tenants)")
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(res.as_dict(), indent=1, sort_keys=True)
                       + "\n")
        print(f"result: {args.out}")
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments.validation import run_validation

    res = run_validation(n=args.n, steps=args.steps)
    print(res.summary())
    return 0 if res.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-nbody", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a simulation")
    _add_common(p)
    p.add_argument("--steps", type=int, default=10)
    _config_flag(p, "dt")
    _config_flag(p, "traversal",
                 help="force traversal: per-body lockstep, group-coherent, "
                      "or dual-tree cell-cell with local expansions")
    _config_flag(p, "group_size",
                 help="bodies per traversal group (grouped/dual modes)")
    _config_flag(p, "eval_mode",
                 help="grouped/dual list evaluator: per-group reference "
                      "tiles (tile), batch kernels with n3l near-field "
                      "dedup (flat) or the same batches without it "
                      "(gemm); auto = tile for one-body groups, else "
                      "flat (cross-rank halos stay one-sided)")
    _config_flag(p, "cc_mac",
                 help="dual mode: target-side opening multiplier of the "
                      "cell-cell MAC (0 disables the far-field branch)")
    _config_flag(p, "expansion_order",
                 help="dual mode: local Taylor expansion order of the "
                      "downsweep")
    _config_flag(p, "ranks",
                 help="simulated ranks (>1 enables repro.distributed)")
    _config_flag(p, "decomposition",
                 help="split points: equal counts or counter-fed work")
    _config_flag(p, "rebalance_steps",
                 help="recompute split points every k-th step")
    _config_flag(p, "interconnect",
                 help="link class between ranks (see machine.catalog)")
    _config_flag(p, "ranks_per_node",
                 help="ranks sharing the intra-node link (0 = all)")
    _config_flag(p, "inter_interconnect",
                 help="inter-node link class of the hierarchical fabric")
    _config_flag(p, "tree_update",
                 help="tree maintenance: rebuild every step, refit while "
                      "the curve order holds, or cost-model auto policy")
    _config_flag(p, "drift_budget",
                 help="max body drift per epoch, as a fraction of the "
                      "root cell side (bounds the refit MAC inflation)")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase table of modeled time and "
                        "counter totals per step")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="PATH",
                   help="record a structured trace and write it here: "
                        "Chrome trace-event JSON (Perfetto-loadable), or "
                        "a JSONL event stream when PATH ends in .jsonl")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="PATH",
                   help="sample per-step metrics (with watchdogs) and "
                        "write the registry JSON here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("devices", help="list the device catalog")
    p.set_defaults(fn=_cmd_devices)

    p = sub.add_parser("triad", help="BabelStream TRIAD (Table I)")
    p.add_argument("--elements", type=int, default=2**24)
    p.set_defaults(fn=_cmd_triad)

    p = sub.add_parser("project", help="project throughput on devices")
    _add_common(p)
    p.add_argument("--device", nargs="+", default=["gh200"])
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("validate", help="solar-system validation (Sec V-A)")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--steps", type=int, default=24)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "serve", help="multi-tenant session server over seeded traffic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--sessions", type=int, default=4,
                   help="sessions per tenant")
    p.add_argument("--mean-interarrival", type=float, default=0.0,
                   dest="mean_interarrival",
                   help="mean modeled seconds between arrivals "
                        "(0 = all at t=0)")
    p.add_argument("--identical", action="store_true",
                   help="every session runs the same class and workload "
                        "seed (shared-cache scenario)")
    p.add_argument("--workload-class", default=None, dest="workload_class",
                   choices=["galaxy", "plummer", "cube", "solar"],
                   help="single-class traffic "
                        "(default: the interactive/batch/sweep mix)")
    _config_flag(p, "algorithm", choices=TREE_ALGORITHMS,
                 help="algorithm of --workload-class traffic")
    p.add_argument("--n", type=int, default=256,
                   help="bodies per session of --workload-class traffic")
    p.add_argument("--steps", type=int, default=8,
                   help="steps per session of --workload-class traffic")
    p.add_argument("--quantum-steps", type=int, default=2,
                   dest="quantum_steps",
                   help="scheduler time-slice, in simulation steps")
    p.add_argument("--max-resident", type=int, default=None,
                   dest="max_resident",
                   help="residency bound (excess sessions suspend to "
                        "checkpoints)")
    p.add_argument("--no-shared-cache", action="store_true",
                   dest="no_shared_cache",
                   help="disable cross-session structure sharing")
    p.add_argument("--profile", action="store_true",
                   help="print the per-tenant phase profile table")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="write a Perfetto trace with per-session tenant "
                        "lanes (.json or .jsonl)")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write the per-tenant metrics payload (JSON)")
    p.add_argument("--out", default=None,
                   help="write the full serve result payload (JSON)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("bench", help="run figure experiments -> JSON artifact")
    p.add_argument("--figure", nargs="+",
                   default=["fig5", "fig6", "fig7", "fig8", "fig9"],
                   choices=["fig5", "fig6", "fig7", "fig8", "fig9"])
    p.add_argument("--out", default="artifact.json")
    p.add_argument("--max-direct", type=int, default=8000)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("report", help="render a saved artifact's tables")
    p.add_argument("artifact")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        sub.choices[args.cmd].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
