//! The three workloads, each driven through the repository's public
//! entry points, with the output checks every call must pass.
//!
//! A workload is called in two sizes: *setup* (plan, boot, connection
//! establishment and a single operation) and *full* (the same plus the
//! measured phase). Setup time is the setup call's host time; the
//! measured phase's host time is the full call's minus the setup call's.

use crate::capacity;
use crate::iperf_twin::{self, TwinRun};
use flexos::build::{plan, BackendChoice, Hypervisor, ImagePlan};
use flexos_apps::client::SERVER_IP;
use flexos_apps::iperf::{iperf_image, run_iperf, IperfParams};
use flexos_apps::redis::{redis_image, run_redis_with_stats, Mix, RedisParams};
use flexos_apps::serve::{run_serve_with_stats, serve_image, ServeParams};
use flexos_apps::{CompartmentModel, Os, SchedKind};
use flexos_backends::BootOptions;
use flexos_machine::{throughput_mbps, CPU_FREQ_HZ, PAGE_SIZE};
use flexos_trace::StatsSnapshot;

/// Serve: concurrent connections.
pub const SERVE_CONNS: usize = 100_000;
/// Serve: shard compartments behind the proxy.
pub const SERVE_SHARDS: usize = 4;
/// Serve: GET value bytes.
pub const SERVE_PAYLOAD: usize = 64;
/// Serve: commands per burst.
pub const SERVE_PIPELINE: usize = 4;
/// Serve: mean Poisson inter-arrival gap of the measured run, cycles.
pub const SERVE_GAP_CYCLES: u64 = 50_000;
/// Serve: requests in the measured run (100 000 bursts).
pub const SERVE_OPS: u64 = 400_000;
/// Serve: requests per capacity probe (37 500 bursts).
pub const CAPACITY_PROBE_OPS: u64 = 150_000;
/// Serve: socket-ring bytes per connection, as `run_serve` sizes its
/// boot (needed to boot the identical image for the setup breakdown).
const SERVE_CONN_RING_BYTES: u64 = 256;

/// The capacity rule: p99 within 50 µs (105 000 cycles at 2.1 GHz) and a
/// completion rate within 2 % of the offered rate.
pub const CAPACITY_RULE: capacity::Rule = capacity::Rule {
    p99_limit_cycles: 105_000,
    min_completion_ratio: 0.98,
    start_gap: SERVE_GAP_CYCLES,
    step_pct: 70,
    min_gap: 1_000,
    max_gap: 10_000_000,
    bisect_steps: 5,
};

/// Redis: SET value bytes.
pub const REDIS_PAYLOAD: usize = 50;
/// Redis: requests in the measured run (20 beyond p99.9). Short calls
/// keep each setup/full pair inside one host speed episode.
pub const REDIS_OPS: u64 = 20_000;

/// Iperf: bytes passed to each `recv`.
pub const IPERF_RECV_BUF: u64 = 16 * 1024;
/// Iperf: bytes streamed in the measured run (a multiple of the client's
/// 32 KiB send chunk, so exactly this many arrive).
pub const IPERF_BYTES: u64 = 512 << 20;
/// Iperf: bytes streamed by the setup call.
pub const IPERF_SETUP_BYTES: u64 = 32 * 1024;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-get-mpk-c100k`.
    Serve,
    /// `redis-set-vmrpc-sh-p1`.
    Redis,
    /// `iperf-mpk-16k`.
    Iperf,
}

/// Workload names as `--workload` takes them.
pub const WORKLOADS: [(&str, Kind); 3] = [
    ("serve-get-mpk-c100k", Kind::Serve),
    ("redis-set-vmrpc-sh-p1", Kind::Redis),
    ("iperf-mpk-16k", Kind::Iperf),
];

/// Looks a workload up by name.
pub fn kind_of(name: &str) -> Option<Kind> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
}

/// SplitMix64 finalizer: spreads consecutive `--seed` values over the
/// whole state space (the serve arrival generator folds the low bit of
/// its seed away, so seeds 2 and 3 would otherwise coincide).
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Simulated latency summary of one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    /// Samples (bursts or requests).
    pub count: u64,
    /// Median, cycles.
    pub p50: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// 99.9th percentile, cycles.
    pub p999: u64,
}

/// What one call produced, after its output checks passed.
#[derive(Debug, Clone)]
pub struct CallOut {
    /// Operations completed: requests, or receive bursts for iperf.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Simulated cycles of the call's measured phase.
    pub cycles: u64,
    /// Latency percentiles.
    pub latency: Latency,
    /// Every simulated figure of the call; repeats must match exactly.
    pub fingerprint: Vec<u64>,
    /// Telemetry, where the entry point returns it.
    pub stats: Option<StatsSnapshot>,
    /// Commands executed per shard (serve only).
    pub shard_ops: Vec<u64>,
}

impl CallOut {
    /// Operations per simulated second, in thousands.
    pub fn sim_kreq_per_s(&self) -> f64 {
        self.ops as f64 / (self.cycles as f64 / CPU_FREQ_HZ as f64) / 1e3
    }

    /// Payload megabits per simulated second.
    pub fn sim_mbps(&self) -> f64 {
        throughput_mbps(self.payload_bytes, self.cycles)
    }
}

/// A configured workload.
pub struct Workload {
    /// Which one.
    pub kind: Kind,
    /// Seed given to the serve arrival process (already mixed).
    pub serve_seed: u64,
    twin: Option<(TwinRun, TwinRun)>,
}

/// The serve parameters at `ops` requests and mean gap `gap`.
pub fn serve_params(ops: u64, gap: u64, seed: u64) -> ServeParams {
    ServeParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        sched: SchedKind::Coop,
        shards: SERVE_SHARDS,
        conns: SERVE_CONNS,
        ops,
        payload: SERVE_PAYLOAD,
        pipeline: SERVE_PIPELINE,
        mix: Mix::Get,
        arrival_gap_cycles: gap,
        seed,
        migrate_to: None,
    }
}

/// The redis parameters at `ops` requests.
pub fn redis_params(ops: u64) -> RedisParams {
    RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::VmRpc,
        sched: SchedKind::Coop,
        hypervisor: Hypervisor::Kvm,
        sh_on: vec!["lwip".into()],
        dedicated_allocators: false,
        payload: REDIS_PAYLOAD,
        mix: Mix::Set,
        ops,
        pipeline: 1,
        machine_chaos: None,
        vcpus: 1,
        migrate_to: None,
    }
}

/// The iperf parameters (paper Fig. 3 "MPK-Sha. (KVM)") at `bytes`.
pub fn iperf_params(bytes: u64) -> IperfParams {
    IperfParams {
        model: CompartmentModel::NwOnly,
        backend: BackendChoice::MpkShared,
        sched: SchedKind::Coop,
        hypervisor: Hypervisor::Kvm,
        sh_on: Vec::new(),
        dedicated_allocators: false,
        recv_buf: IPERF_RECV_BUF,
        total_bytes: bytes,
        link_chaos: None,
        vcpus: 1,
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

impl Workload {
    /// A workload for `--seed seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Self {
            kind,
            serve_seed: mix_seed(seed),
            twin: None,
        }
    }

    /// One-time preparation outside any timing. Iperf runs its telemetry
    /// replica at both sizes (the receive-burst spans and counters that
    /// `run_iperf` does not return).
    ///
    /// # Errors
    ///
    /// Returns a message when the replica fails.
    pub fn prepare(&mut self) -> Result<(), String> {
        if self.kind == Kind::Iperf && self.twin.is_none() {
            let setup = iperf_twin::run(&iperf_params(IPERF_SETUP_BYTES))?;
            let full = iperf_twin::run(&iperf_params(IPERF_BYTES))?;
            self.twin = Some((setup, full));
        }
        Ok(())
    }

    /// The iperf replica's runs at (setup, full) size, once prepared.
    pub fn twin(&self) -> Option<&(TwinRun, TwinRun)> {
        self.twin.as_ref()
    }

    /// Operations one call attempts (for the error ledger).
    pub fn attempted(&self, full: bool) -> u64 {
        match (self.kind, full) {
            (Kind::Serve, true) => SERVE_OPS,
            (Kind::Serve, false) => SERVE_PIPELINE as u64,
            (Kind::Redis, true) => REDIS_OPS,
            (Kind::Redis, false) => 1,
            (Kind::Iperf, _) => match &self.twin {
                Some((s, f)) => if full { f } else { s }.latency.count.max(1),
                None => 1,
            },
        }
    }

    /// One call of the public entry point at setup or full size, with its
    /// output checks.
    ///
    /// # Errors
    ///
    /// Returns a message when the entry point fails or an output check
    /// does not hold.
    pub fn call(&self, full: bool) -> Result<CallOut, String> {
        match self.kind {
            Kind::Serve => {
                let ops = if full {
                    SERVE_OPS
                } else {
                    SERVE_PIPELINE as u64
                };
                serve_call(ops, SERVE_GAP_CYCLES, self.serve_seed)
            }
            Kind::Redis => redis_call(if full { REDIS_OPS } else { 1 }),
            Kind::Iperf => {
                let (setup, fullrun) = self.twin.as_ref().ok_or("iperf replica not prepared")?;
                let (twin, bytes) = if full {
                    (fullrun, IPERF_BYTES)
                } else {
                    (setup, IPERF_SETUP_BYTES)
                };
                iperf_call(bytes, twin)
            }
        }
    }

    /// The image plan the workload's entry point builds.
    ///
    /// # Errors
    ///
    /// Returns a message when planning fails.
    pub fn plan(&self) -> Result<ImagePlan, String> {
        let cfg = match self.kind {
            Kind::Serve => serve_image(&serve_params(SERVE_OPS, SERVE_GAP_CYCLES, self.serve_seed)),
            Kind::Redis => redis_image(&redis_params(REDIS_OPS)),
            Kind::Iperf => iperf_image(&iperf_params(IPERF_BYTES)),
        };
        plan(cfg).map_err(|e| format!("plan: {e}"))
    }

    /// Boots `image` with the sizing the workload's entry point uses.
    ///
    /// # Errors
    ///
    /// Returns a message when the boot fails.
    pub fn boot(&self, image: ImagePlan) -> Result<Os, String> {
        let opts = match self.kind {
            Kind::Serve => {
                let ncomp = image.num_compartments as u64;
                let net_pool_bytes = (SERVE_CONNS as u64 + 64) * SERVE_CONN_RING_BYTES + (1 << 20);
                let heap_per_compartment = net_pool_bytes + (2 << 20);
                BootOptions {
                    phys_frames: ((ncomp + 1) * heap_per_compartment + (16 << 20))
                        .div_ceil(PAGE_SIZE),
                    heap_per_compartment,
                    shared_heap: 1 << 20,
                    stack_size: 64 * 1024,
                    net_pool_bytes,
                }
            }
            Kind::Redis | Kind::Iperf => BootOptions::default(),
        };
        Os::boot_with(image, SERVER_IP, 1, opts).map_err(|e| format!("boot: {e}"))
    }

    /// RESP bytes of one of the workload's client bursts (iperf sends no
    /// RESP; it is probed with the serve burst).
    pub fn command_burst(&self) -> (Vec<u8>, usize) {
        use flexos_apps::resp::encode_command;
        match self.kind {
            Kind::Redis => {
                let value = vec![b'v'; REDIS_PAYLOAD];
                (encode_command(&[b"SET", b"key:0001", &value]), 1)
            }
            Kind::Serve | Kind::Iperf => {
                let mut out = Vec::new();
                for k in 0..SERVE_PIPELINE {
                    let key = format!("key:{k:04}");
                    out.extend_from_slice(&encode_command(&[b"GET", key.as_bytes()]));
                }
                (out, SERVE_PIPELINE)
            }
        }
    }
}

/// One serve run with its checks: every offered request is answered
/// exactly once (the proxy's reply count and the shards' executed-command
/// count both equal the requests offered).
///
/// # Errors
///
/// Returns a message on a `ServeRunError` or a failed check.
pub fn serve_call(ops: u64, gap: u64, seed: u64) -> Result<CallOut, String> {
    let params = serve_params(ops, gap, seed);
    let (r, stats) = run_serve_with_stats(&params).map_err(|e| e.to_string())?;
    let executed: u64 = r.shard_ops.iter().sum();
    check(r.ops == ops, || {
        format!("serve answered {} of {ops} requests", r.ops)
    })?;
    check(executed == ops, || {
        format!("serve shards executed {executed} of {ops} requests")
    })?;
    check(r.cycles > 0, || "serve measured no simulated time".into())?;
    let mut fingerprint = vec![
        r.ops,
        r.cycles,
        r.crossings,
        r.p50_cycles,
        r.p99_cycles,
        r.p999_cycles,
        r.backlog_overflows,
    ];
    fingerprint.extend_from_slice(&r.shard_ops);
    Ok(CallOut {
        ops: r.ops,
        payload_bytes: r.ops * SERVE_PAYLOAD as u64,
        cycles: r.cycles,
        latency: Latency {
            count: r.ops / SERVE_PIPELINE as u64,
            p50: r.p50_cycles,
            p99: r.p99_cycles,
            p999: r.p999_cycles,
        },
        fingerprint,
        stats: Some(stats),
        shard_ops: r.shard_ops,
    })
}

/// One capacity probe at mean gap `gap`.
///
/// # Errors
///
/// Returns the serve call's error.
pub fn capacity_probe(gap: u64, seed: u64) -> Result<capacity::Probe, String> {
    let out = serve_call(CAPACITY_PROBE_OPS, gap, seed)?;
    Ok(capacity::Probe {
        p99_cycles: out.latency.p99,
        completion_ratio: out.sim_kreq_per_s() / gap_to_kreq(gap),
    })
}

/// Converts a mean burst gap to an offered request rate, kreq per
/// simulated second.
pub fn gap_to_kreq(gap: u64) -> f64 {
    CPU_FREQ_HZ as f64 / gap as f64 * SERVE_PIPELINE as f64 / 1e3
}

/// One redis run with its checks: `ops` replies, no RESP error, and one
/// completed request span per reply.
///
/// # Errors
///
/// Returns a message on a `RedisRunError` or a failed check.
pub fn redis_call(ops: u64) -> Result<CallOut, String> {
    let (r, stats) = run_redis_with_stats(&redis_params(ops)).map_err(|e| e.to_string())?;
    check(r.ops == ops, || {
        format!("redis completed {} of {ops} requests", r.ops)
    })?;
    let row = stats
        .latency
        .iter()
        .find(|l| l.app == "redis")
        .copied()
        .ok_or("redis reported no request spans")?;
    check(row.count == ops, || {
        format!("redis closed {} request spans for {ops} replies", row.count)
    })?;
    check(r.cycles > 0, || "redis measured no simulated time".into())?;
    Ok(CallOut {
        ops: r.ops,
        payload_bytes: r.ops * REDIS_PAYLOAD as u64,
        cycles: r.cycles,
        latency: Latency {
            count: row.count,
            p50: row.p50,
            p99: row.p99,
            p999: row.p999,
        },
        fingerprint: vec![
            r.ops,
            r.cycles,
            r.crossings,
            row.count,
            row.p50,
            row.p99,
            row.p999,
        ],
        stats: Some(stats),
        shard_ops: Vec::new(),
    })
}

/// One iperf run with its checks: exactly `bytes` delivered, and the
/// telemetry replica agrees with the entry point on every figure.
///
/// # Errors
///
/// Returns a message on a failed check.
pub fn iperf_call(bytes: u64, twin: &TwinRun) -> Result<CallOut, String> {
    let r = run_iperf(&iperf_params(bytes));
    check(r.bytes == bytes, || {
        format!("iperf delivered {} of {bytes} bytes", r.bytes)
    })?;
    check(r.frames_dropped == 0 && r.frames_corrupted == 0, || {
        format!(
            "iperf link lost {} and corrupted {} frames",
            r.frames_dropped, r.frames_corrupted
        )
    })?;
    let same = (r.bytes, r.cycles, r.crossings, r.switches)
        == (twin.bytes, twin.cycles, twin.crossings, twin.switches);
    check(same, || {
        format!(
            "iperf replica diverged: run_iperf (bytes, cycles, crossings, switches) = {:?}, replica = {:?}",
            (r.bytes, r.cycles, r.crossings, r.switches),
            (twin.bytes, twin.cycles, twin.crossings, twin.switches)
        )
    })?;
    let l = twin.latency;
    Ok(CallOut {
        ops: l.count,
        payload_bytes: r.bytes,
        cycles: r.cycles,
        latency: Latency {
            count: l.count,
            p50: l.p50,
            p99: l.p99,
            p999: l.p999,
        },
        fingerprint: vec![r.bytes, r.cycles, r.crossings, r.switches, r.mbps.to_bits()],
        stats: None,
        shard_ops: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_mix_apart_and_repeat() {
        assert_ne!(mix_seed(2) | 1, mix_seed(3) | 1);
        assert_eq!(mix_seed(7), mix_seed(7));
    }

    #[test]
    fn workload_names_resolve() {
        for (name, kind) in WORKLOADS {
            assert_eq!(kind_of(name), Some(kind));
        }
        assert_eq!(kind_of("nope"), None);
    }

    #[test]
    fn offered_rate_of_the_default_gap() {
        // 2.1e9 / 50 000 bursts/s × 4 requests = 168 kreq/s.
        assert!((gap_to_kreq(50_000) - 168.0).abs() < 1e-9);
    }
}
