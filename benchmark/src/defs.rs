//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger. `BENCHMARK.json` is this
//! table rendered (`dprbg-benchmark manifest`); a unit test keeps the two
//! in step.

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// How long one run measures, as written to `BENCHMARK.json`; op counts
/// scale with `--seconds` from their size at this length.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "soak_n7",
        why: "E15 soak: n=7 t=1 M=8 beacon under a crash/stampede/adversary plan, 16x1000 epochs of snapshot+(restore)+run_epoch. Many tiny rounds: per-epoch fixed costs and small-n arithmetic, not payload copying",
    },
    WorkloadDef {
        name: "coingen_n61",
        why: "Coin-Gen at n=61 t=10 M=4 over GF(2^8), 1 cold warm-up + 2 timed runs. Few huge rounds: 514k messages deep-cloned per recipient, so sim, grade-cast copying and the allocator own the time",
    },
    WorkloadDef {
        name: "bigbatch_n13",
        why: "Coin-Gen at n=13 t=2 with M=8192 over GF(2^64), 2 warm-up + 120 timed runs. The amortisation regime: share dealing and Horner (poly+field) dominate, only 5.8k messages so sim does little",
    },
    WorkloadDef {
        name: "serve_n31",
        why: "n=31 t=5 beacon that never refills, 4 services x 36 epochs of 32-33 Coin-Exposes. The stretch plane alone: Berlekamp-Welch decode (poly) dominates, gen plane and snapshots are bypassed",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Worsening below this, in the metric's unit, never counts.
    pub floor: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "coins_per_s",
        unit: "coins/s",
        better: Higher,
        bound: 0.25,
        floor: 0.01,
        what: "coins delivered / timed wall: granted to consumers on the beacon workloads, sealed at all n parties on the Coin-Gen workloads",
    },
    EndToEndDef {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.002,
        what: "median op latency",
    },
    EndToEndDef {
        name: "op_tail_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.01,
        what: "highest percentile with >= 10 samples beyond it (max when the op count supports none); on runs of >= 2000 ops the median of that percentile over 1000-op chunks",
    },
    EndToEndDef {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
        what: "user+sys CPU of the process over the timed section",
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        floor: 0.5,
        what: "VmHWM of the process at exit",
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.02,
        what: "everything before the timed section (config, dealing, plans, warm-up ops), median over the set-up repeats",
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this number should
    /// show on.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

const FIELD_MOVES: &str = "op_p50_ms, coins_per_s @ bigbatch_n13; not coingen_n61, soak_n7";
const DECODE_MOVES: &str = "op_p50_ms, coins_per_s @ serve_n31; not bigbatch_n13, soak_n7";
const PROTO_MOVES: &str = "op_p50_ms @ coingen_n61; not bigbatch_n13, serve_n31";
const SIM_MOVES: &str =
    "op_p50_ms, cpu_s, peak_rss_mb @ coingen_n61; fixed part coins_per_s @ soak_n7";
const BEACON_MOVES: &str =
    "op_p50_ms, coins_per_s @ soak_n7, serve_n31; not the Coin-Gen workloads";
const SNAP_MOVES: &str = "op_p50_ms @ soak_n7; not serve_n31";
const PROC_MOVES: &str = "cpu_s, peak_rss_mb, setup_s, op_p50_ms @ coingen_n61; not bigbatch_n13";
const EXACT: &str = "must stay exact for a seed";

/// Layer = the part of the name before the first dot (a crate, `proc` for
/// the allocator/kernel, `ledger` for the span self-time split). A value
/// of 0 means the layer does not run on that workload.
pub const PER_LAYER: [LayerDef; 76] = [
    layer("field.gf2k8_mul_ns", "ns", Lower, FIELD_MOVES),
    layer("field.gf2k32_mul_ns", "ns", Lower, FIELD_MOVES),
    layer("field.gf2k64_mul_ns", "ns", Lower, FIELD_MOVES),
    layer("field.gf2k64_inv_ns", "ns", Lower, FIELD_MOVES),
    layer("field.clmul_portable_ns", "ns", Lower, FIELD_MOVES),
    layer("field.muls_per_op", "count", Lower, EXACT),
    layer("field.adds_per_op", "count", Lower, EXACT),
    layer("field.invs_per_op", "count", Lower, EXACT),
    layer("field.mul_share", "ratio", Lower, FIELD_MOVES),
    layer("poly.share_points_ns_per_eval", "ns", Lower, "op_p50_ms @ bigbatch_n13; not serve_n31"),
    layer("poly.interpolate_us", "us", Lower, "op_p50_ms @ bigbatch_n13; not serve_n31"),
    layer("poly.bw_decode_us", "us", Lower, DECODE_MOVES),
    layer("poly.bw_decode_err_us", "us", Lower, DECODE_MOVES),
    layer("poly.batch_decode_us", "us", Lower, DECODE_MOVES),
    layer("poly.interps_per_op", "count", Lower, EXACT),
    layer("poly.decode_share", "ratio", Lower, "serve_n31"),
    layer("rng.u64_ns", "ns", Lower, "op_p50_ms @ bigbatch_n13; not coingen_n61"),
    layer("rng.field_random_ns", "ns", Lower, "op_p50_ms @ bigbatch_n13; not coingen_n61"),
    layer("rng.prg_per_op", "count", Lower, EXACT),
    layer("protocols.gradecast_ms", "ms", Lower, PROTO_MOVES),
    layer("protocols.ba_ms", "ms", Lower, PROTO_MOVES),
    layer("protocols.clique_us", "us", Lower, PROTO_MOVES),
    layer("protocols.phase_ms.gradecast", "ms", Lower, PROTO_MOVES),
    layer("protocols.phase_ms.ba", "ms", Lower, PROTO_MOVES),
    layer("core.coin_gen_ms", "ms", Lower, "op_tail_ms, coins_per_s @ soak_n7 (refill epochs); op_p50_ms @ Coin-Gen workloads"),
    layer("core.bit_gen_ms", "ms", Lower, "op_p50_ms @ bigbatch_n13"),
    layer("core.expose_us_per_coin", "us", Lower, "op_p50_ms, coins_per_s @ serve_n31"),
    layer("core.horner_ns_per_elem", "ns", Lower, "op_p50_ms @ bigbatch_n13"),
    layer("core.phase_ms.bit-gen", "ms", Lower, "op_p50_ms @ bigbatch_n13"),
    layer("core.phase_ms.coin-gen", "ms", Lower, "op_p50_ms @ Coin-Gen workloads"),
    layer("core.phase_ms.expose", "ms", Lower, "op_p50_ms @ Coin-Gen workloads (leader coins)"),
    layer("core.body_share", "ratio", Lower, "all round() bodies / op wall"),
    layer("core.attempts_per_op", "count", Lower, "op_tail_ms @ soak_n7"),
    layer("core.seeds_per_coin", "ratio", Lower, "op_tail_ms @ soak_n7"),
    layer("sim.self_ms_per_op", "ms", Lower, SIM_MOVES),
    layer("sim.self_share", "ratio", Lower, SIM_MOVES),
    layer("sim.rounds_per_op", "count", Lower, EXACT),
    layer("sim.messages_per_op", "count", Lower, EXACT),
    layer("sim.bytes_per_op", "B", Lower, EXACT),
    layer("sim.deliveries_per_op", "count", Lower, EXACT),
    layer("sim.echo_small_deliveries_per_s", "1/s", Higher, "coins_per_s @ soak_n7"),
    layer("sim.echo_big_mb_per_s", "MB/s", Higher, "op_p50_ms @ coingen_n61"),
    layer("sim.step_run_ms", "ms", Lower, "op_p50_ms @ Coin-Gen workloads"),
    layer("sim.par_run_ms", "ms", Lower, "decides ROADMAP item 2's pool question @ coingen_n61"),
    layer("sim.par_speedup", "ratio", Higher, "decides ROADMAP item 2's pool question @ coingen_n61"),
    layer("beacon.run_epoch_us", "us", Lower, BEACON_MOVES),
    layer("beacon.epoch_fleet_us", "us", Lower, BEACON_MOVES),
    layer("beacon.self_us_per_epoch", "us", Lower, BEACON_MOVES),
    layer("beacon.phase_ms.epoch", "ms", Lower, BEACON_MOVES),
    layer("beacon.snapshot_us", "us", Lower, SNAP_MOVES),
    layer("beacon.snapshot_bytes", "B", Lower, EXACT),
    layer("beacon.restore_us", "us", Lower, SNAP_MOVES),
    layer("beacon.reservoir_ns_per_draw", "ns", Lower, SNAP_MOVES),
    layer("beacon.refill_share", "ratio", Lower, "explains p50 vs tail @ soak_n7"),
    layer("beacon.coins_per_epoch", "count", Higher, "explains p50 vs tail @ soak_n7"),
    layer("beacon.would_block_share", "ratio", Lower, "explains p50 vs tail @ soak_n7"),
    layer("metrics.counter_tick_ns", "ns", Lower, "op_p50_ms @ bigbatch_n13"),
    layer("metrics.registry_update_ns", "ns", Lower, "op_p50_ms @ soak_n7"),
    layer("metrics.registry_encode_us", "us", Lower, "op_p50_ms @ soak_n7"),
    layer("trace.full_overhead_ratio", "ratio", Lower, "op_p50_ms @ soak_n7, serve_n31 (the service always traces)"),
    layer("proc.alloc_calls_per_op", "count", Lower, PROC_MOVES),
    layer("proc.alloc_bytes_per_op", "B", Lower, PROC_MOVES),
    layer("proc.peak_live_mb", "MB", Lower, PROC_MOVES),
    layer("proc.minor_faults_per_op", "count", Lower, PROC_MOVES),
    layer("proc.sys_cpu_share", "ratio", Lower, PROC_MOVES),
    layer("proc.first_op_ms", "ms", Lower, PROC_MOVES),
    layer("proc.cold_over_warm", "ratio", Lower, PROC_MOVES),
    layer("ledger.beacon_share", "ratio", Lower, "self time of beacon / op wall"),
    layer("ledger.sim_share", "ratio", Lower, "self time of sim / op wall"),
    layer("ledger.core_share", "ratio", Lower, "core round() bodies net of field and poly / op wall"),
    layer("ledger.protocols_share", "ratio", Lower, "protocols round() bodies / op wall"),
    layer("ledger.field_share_est", "ratio", Lower, "muls and invs counted outside poly calls x their measured cost / op wall"),
    layer("ledger.poly_share_est", "ratio", Lower, "counted poly calls (share evals, decodes) x their measured cost, field ops inside included / op wall"),
    layer("ledger.attributed_share", "ratio", Higher, "sum of the six shares; must stay >= 0.90"),
    layer("bench.trace_overhead", "ratio", Lower, "traced op_p50_ms / untraced; must stay < 1.10"),
    layer("bench.fail_share", "ratio", Lower, "failed ops / attempted ops; 0 at the baseline"),
];

/// `BENCHMARK.json` as the contract wants it: exactly these keys.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                name_ok(n, 64, "_.-") && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(name_ok(u, 16, "_/%.-"), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && manifest().pretty().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed),
            Ok(manifest()),
            "run `benchmark/run.sh --manifest`"
        );
    }
}
