//! The two-clock benchmark of the FlexOS reproduction.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: host-clock throughput,
//! set-up time and memory, and the simulated image's latency, throughput
//! and capacity. `--trace 1` is the separate traced run: it records host
//! spans around every public call and probe it makes, writes them to
//! `perfbench/out/`, and reports the per-layer metrics. Both print a
//! human-readable table on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `METRICS.md` beside this crate explains every workload and metric.

mod capacity;
mod iperf_twin;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::Value;
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{CallOut, Kind, Workload};

const USAGE: &str =
    "usage: flexos-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest setup/full pairs an end-to-end run measures, however short
/// `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Set-up calls repeat within a pair until they add up to this many
/// host seconds (one call for serve, dozens for redis and iperf)...
const SETUP_BATCH_S: f64 = 0.05;
/// ...or this many calls.
const SETUP_REPS_MAX: usize = 25;
/// Set-up repetitions in a traced run.
const TRACED_SETUPS: usize = 3;
/// Fewest untraced/traced pairs for the tracing-overhead figure.
const MIN_OVERHEAD_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Requests attempted and failed, with the reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Books a call of `ops` operations: all of them fail with the call.
    fn book<T>(&mut self, ops: u64, r: Result<T, String>) -> Option<T> {
        self.attempted += ops;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += ops;
                self.errors.push(e);
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs `f` under [`guarded`] and returns its host seconds too.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (f64, Result<T, String>) {
    let t = Instant::now();
    let r = guarded(f);
    (t.elapsed().as_secs_f64(), r)
}

/// Checks a repeat's simulated figures against the first call's.
fn same_sim(first: &mut Option<Vec<u64>>, out: &CallOut, what: &str) -> Result<(), String> {
    match first {
        None => {
            *first = Some(out.fingerprint.clone());
            Ok(())
        }
        Some(f) if *f == out.fingerprint => Ok(()),
        Some(f) => Err(format!(
            "simulated figures of the {what} call differ between repeats of one seed: {f:?} vs {:?}",
            out.fingerprint
        )),
    }
}

/// Host memory high-water mark of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

struct Report {
    ledger: Ledger,
    values: Vec<Value>,
    notes: Vec<String>,
}

impl Report {
    fn new(ledger: Ledger) -> Self {
        Self {
            ledger,
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        let unit = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .find(|m| m.name == name)
            .map_or("?", |m| m.unit);
        self.values.push(Value {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }
}

// --- end-to-end run ----------------------------------------------------------------

fn run_end_to_end(kind: Kind, seed: u64, seconds: u64) -> Report {
    let mut led = Ledger::default();
    let mut wl = Workload::new(kind, seed);
    if let Err(e) = guarded(|| wl.prepare()) {
        led.book(1, Err::<(), _>(e));
        return Report::new(led);
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut setup_s, mut kreq, mut mib) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_fp, mut full_fp) = (None, None);
    let mut full_out: Option<CallOut> = None;
    let mut pairs = 0;
    'pairs: while pairs < MIN_PAIRS || Instant::now() < deadline {
        pairs += 1;
        // Cheap set-ups repeat within the pair; the pair subtracts their
        // median from the full call.
        let mut pair_setups = Vec::new();
        let mut s = None;
        while pair_setups.len() < SETUP_REPS_MAX && pair_setups.iter().sum::<f64>() < SETUP_BATCH_S
        {
            let (ts, r) = timed(|| wl.call(false));
            let r = r.and_then(|r| same_sim(&mut setup_fp, &r, "setup").map(|()| r));
            let Some(r) = led.book(wl.attempted(false), r) else {
                break 'pairs;
            };
            pair_setups.push(ts);
            s = Some(r);
        }
        let (Some(s), Some(ts)) = (s, stats::median(&pair_setups)) else {
            break;
        };
        setup_s.extend_from_slice(&pair_setups);
        let (tf, f) = timed(|| wl.call(true));
        let f = f.and_then(|f| same_sim(&mut full_fp, &f, "full").map(|()| f));
        let Some(f) = led.book(wl.attempted(true), f) else {
            break;
        };
        let dt = tf - ts;
        if dt > 0.0 {
            kreq.push((f.ops - s.ops) as f64 / dt / 1e3);
            mib.push((f.payload_bytes - s.payload_bytes) as f64 / dt / (1u64 << 20) as f64);
        }
        full_out = Some(f);
    }
    let mut rep = Report::new(led);
    let Some(full) = full_out else { return rep };

    let capacity = match kind {
        Kind::Serve => {
            let seed = wl.serve_seed;
            let mut probe_led = Ledger::default();
            let found = guarded(|| {
                capacity::search(&workloads::CAPACITY_RULE, |gap| {
                    let r = guarded(|| workloads::capacity_probe(gap, seed));
                    probe_led.book(workloads::CAPACITY_PROBE_OPS, r.clone());
                    r
                })
            });
            rep.ledger.attempted += probe_led.attempted;
            rep.ledger.failed += probe_led.failed;
            rep.ledger.errors.extend(probe_led.errors);
            match found {
                Ok(c) => {
                    for (gap, p, ok) in &c.probes {
                        rep.notes.push(format!(
                            "capacity probe gap {gap}: {:.1} kreq/sim_s offered, p99 {} cycles, completion {:.4}, {}",
                            workloads::gap_to_kreq(*gap),
                            p.p99_cycles,
                            p.completion_ratio,
                            if *ok { "accepted" } else { "rejected" }
                        ));
                    }
                    if !c.met {
                        rep.notes.push(
                            "capacity limit never met: reporting the lowest rate probed".into(),
                        );
                    }
                    workloads::gap_to_kreq(c.gap)
                }
                Err(e) => {
                    if !rep.ledger.errors.contains(&e) {
                        rep.ledger.errors.push(e);
                    }
                    0.0
                }
            }
        }
        // A closed loop keeps the image saturated: its completion rate is
        // its capacity.
        Kind::Redis | Kind::Iperf => full.sim_kreq_per_s(),
    };

    if !stats::reportable(full.latency.count, 999, 1000) {
        rep.ledger.errors.push(format!(
            "p99.9 of {} samples has fewer than {} beyond it",
            full.latency.count,
            stats::MIN_SAMPLES_BEYOND
        ));
    }
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        rep.ledger.errors.push(e);
        0.0
    });
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    // The host alternates between its usual speed and short episodes of
    // up to 1.6x faster; a run's median lands wherever the episodes in
    // its window put it, while the lower quartile stays on the usual speed.
    let q1 = |v: &[f64]| stats::quartiles(v).map_or_else(|| med(v), |(q1, _)| q1);
    rep.put("host_kreq_per_s", q1(&kreq));
    rep.put("host_mib_per_s", q1(&mib));
    rep.put("setup_s", med(&setup_s));
    rep.put("peak_rss_mib", rss);
    rep.put("sim_p50_cycles", full.latency.p50 as f64);
    rep.put("sim_p99_cycles", full.latency.p99 as f64);
    rep.put("sim_p999_cycles", full.latency.p999 as f64);
    rep.put("sim_kreq_per_s", full.sim_kreq_per_s());
    rep.put("sim_capacity_kreq_per_s", capacity);
    rep.put("sim_mbps", full.sim_mbps());
    rep.notes.push(format!(
        "{pairs} setup/full pairs, {} set-ups; latency samples {} ({} beyond p99.9)",
        setup_s.len(),
        full.latency.count,
        stats::samples_beyond(full.latency.count, 999, 1000)
    ));
    for (name, v) in [
        ("host_kreq_per_s", &kreq),
        ("host_mib_per_s", &mib),
        ("setup_s", &setup_s),
    ] {
        if let Some((q1, q3)) = stats::quartiles(v) {
            rep.notes.push(format!(
                "{name}: q1 {q1:.6} median {:.6} q3 {q3:.6}",
                med(v)
            ));
        }
    }
    rep
}

// --- traced run --------------------------------------------------------------------

/// Layer counters of one telemetry snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    crossings: u64,
    gate_cycles: u64,
    batches: u64,
    batch_calls: u64,
    sq_full: u64,
    spans_pushed: u64,
    spans_dropped: u64,
    switches: u64,
    allocs: u64,
    alloc_failures: u64,
    tasks_run: u64,
    wakeups: u64,
    segments: u64,
    events_delivered: u64,
    polls: u64,
    retransmits: u64,
    drops: u64,
    backlog_overflows: u64,
    tlb_hits: u64,
    tlb_misses: u64,
}

impl Counts {
    fn of(s: &flexos_trace::StatsSnapshot) -> Self {
        let spans = s.ring_drops.iter().filter(|r| r.subsystem == "spans");
        Self {
            crossings: s.gate_pairs.iter().map(|r| r.crossings).sum(),
            gate_cycles: s.gate_pairs.iter().map(|r| r.gate_cycles).sum(),
            batches: s.gate_batch.iter().map(|r| r.batches).sum(),
            batch_calls: s.gate_batch.iter().map(|r| r.calls).sum(),
            sq_full: s.async_gates.sq_full,
            spans_pushed: spans.clone().map(|r| r.pushed).sum(),
            spans_dropped: spans.map(|r| r.dropped).sum(),
            switches: s.sched.switches,
            allocs: s.allocs.iter().map(|r| r.allocs).sum(),
            alloc_failures: s.allocs.iter().map(|r| r.failures).sum(),
            tasks_run: s.serving.tasks_run,
            wakeups: s.serving.wakeups,
            segments: s.net.rx_segments + s.net.tx_segments,
            events_delivered: s.serving.events_delivered,
            polls: s.serving.polls,
            retransmits: s.net.retransmits,
            drops: s.net.drops,
            backlog_overflows: s.net.backlog_overflows,
            tlb_hits: s.tlb.hits,
            tlb_misses: s.tlb.misses,
        }
    }

    /// The measured phase's counters: `self` (after) minus `base`.
    fn minus(&self, base: &Self) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Self {
            crossings: d(self.crossings, base.crossings),
            gate_cycles: d(self.gate_cycles, base.gate_cycles),
            batches: d(self.batches, base.batches),
            batch_calls: d(self.batch_calls, base.batch_calls),
            sq_full: d(self.sq_full, base.sq_full),
            spans_pushed: d(self.spans_pushed, base.spans_pushed),
            spans_dropped: d(self.spans_dropped, base.spans_dropped),
            switches: d(self.switches, base.switches),
            allocs: d(self.allocs, base.allocs),
            alloc_failures: d(self.alloc_failures, base.alloc_failures),
            tasks_run: d(self.tasks_run, base.tasks_run),
            wakeups: d(self.wakeups, base.wakeups),
            segments: d(self.segments, base.segments),
            events_delivered: d(self.events_delivered, base.events_delivered),
            polls: d(self.polls, base.polls),
            retransmits: d(self.retransmits, base.retransmits),
            drops: d(self.drops, base.drops),
            backlog_overflows: d(self.backlog_overflows, base.backlog_overflows),
            tlb_hits: d(self.tlb_hits, base.tlb_hits),
            tlb_misses: d(self.tlb_misses, base.tlb_misses),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(kind: Kind, name: &str, seed: u64, seconds: u64) -> Report {
    let mut led = Ledger::default();
    let mut t = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let root = t.begin(&format!("run:{name}"));
    let mut wl = Workload::new(kind, seed);
    if let (Err(e), _) = t.span("prepare", |_| guarded(|| wl.prepare())) {
        led.book(1, Err::<(), _>(e));
        return Report::new(led);
    }

    // Set-up breakdown: plan and boot on their own, then the entry
    // point's whole set-up; establishment is what remains.
    let (mut plan_ns, mut boot_ns, mut setup_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_out = None;
    let phase = t.begin("phase:setup");
    for _ in 0..TRACED_SETUPS {
        let (image, ns) = t.span("build.plan", |_| guarded(|| wl.plan()));
        plan_ns.push(ns as f64);
        let Some(image) = led.book(0, image) else {
            break;
        };
        let (os, ns) = t.span("boot.boot_with", |_| guarded(|| wl.boot(image)));
        boot_ns.push(ns as f64);
        if led.book(0, os).is_none() {
            break;
        }
        let (s, ns) = t.span("apps.setup_call", |_| guarded(|| wl.call(false)));
        setup_ns.push(ns as f64);
        let Some(s) = led.book(wl.attempted(false), s) else {
            break;
        };
        setup_out = Some(s);
    }
    t.end(phase);

    // Layer counters of the measured phase.
    let phase = t.begin("phase:counts");
    let (full, _) = t.span("apps.full_call", |_| guarded(|| wl.call(true)));
    let full = led.book(wl.attempted(true), full);
    t.end(phase);
    let (Some(setup), Some(full)) = (setup_out, full) else {
        t.end(root);
        return Report::new(led);
    };
    let (counts, ops) = match (kind, wl.twin()) {
        (Kind::Iperf, Some((_, twin))) => (
            Counts::of(&twin.after).minus(&Counts::of(&twin.before)),
            twin.latency.count,
        ),
        _ => match (&full.stats, &setup.stats) {
            (Some(f), Some(s)) => (Counts::of(f).minus(&Counts::of(s)), full.ops - setup.ops),
            _ => {
                led.errors
                    .push("the entry point returned no telemetry".into());
                t.end(root);
                return Report::new(led);
            }
        },
    };

    // Probes on a freshly booted copy of the workload's image.
    let phase = t.begin("phase:probes");
    let mut probe_results: Vec<(&str, Result<probes::Batches, String>)> = Vec::new();
    let image = guarded(|| wl.plan().and_then(|p| wl.boot(p)));
    match image {
        Ok(mut os) => {
            let mechanism = os
                .img
                .gates
                .pair_mechanism(os.img.gates.current(), os.roles.net)
                .label();
            let (burst, cmds) = wl.command_burst();
            let mut probe =
                |t: &mut Tracer,
                 metric: &'static str,
                 f: &mut dyn FnMut() -> Result<probes::Batches, String>| {
                    let (r, _) = t.span(&format!("probe:{metric}"), |_| guarded(f));
                    probe_results.push((metric, r));
                };
            probe(&mut t, "gate.sync_cross_ns", &mut || {
                probes::sync_cross(&mut os)
            });
            probe(&mut t, "gate.async_call_ns", &mut || {
                probes::async_call(&mut os, workloads::SERVE_PIPELINE)
            });
            probe(&mut t, "trace.record_ns", &mut || {
                probes::trace_record(mechanism)
            });
            probe(&mut t, "apps.resp_parse_ns_per_cmd", &mut || {
                probes::resp_parse(&burst, cmds)
            });
            probe(&mut t, "sh.check_ns", &mut || probes::sh_check(&mut os));
            probe(&mut t, "machine.copy_ns_per_kib", &mut || {
                probes::copy(&mut os)
            });
        }
        Err(e) => led.errors.push(e),
    }
    t.end(phase);

    // Tracing overhead: the same full call untraced and inside a span.
    let phase = t.begin("phase:overhead");
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MIN_OVERHEAD_PAIRS || Instant::now() < deadline {
        let (secs, r) = timed(|| wl.call(true));
        if led.book(wl.attempted(true), r).is_none() {
            break;
        }
        let (r, ns) = t.span("apps.full_call", |_| guarded(|| wl.call(true)));
        if led.book(wl.attempted(true), r).is_none() {
            break;
        }
        plain.push(secs * 1e9);
        traced.push(ns as f64);
    }
    t.end(phase);
    t.end(root);

    let mut rep = Report::new(led);
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let c = counts;
    rep.put(
        "machine.tlb_hit_ratio",
        ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
    );
    rep.put("gate.crossings_per_op", ratio(c.crossings, ops));
    rep.put("gate.sim_cycles_per_op", ratio(c.gate_cycles, ops));
    rep.put("gate.calls_per_batch", ratio(c.batch_calls, c.batches));
    rep.put("gate.sq_full", c.sq_full as f64);
    rep.put("trace.spans_per_op", ratio(c.spans_pushed, ops));
    rep.put(
        "trace.span_drop_ratio",
        ratio(c.spans_dropped, c.spans_pushed),
    );
    rep.put("kernel.switches_per_op", ratio(c.switches, ops));
    rep.put("kernel.allocs_per_op", ratio(c.allocs, ops));
    rep.put("kernel.alloc_failures", c.alloc_failures as f64);
    rep.put("kernel.cotask_runs_per_op", ratio(c.tasks_run, ops));
    rep.put("kernel.wakeups_per_op", ratio(c.wakeups, ops));
    rep.put("net.segments_per_op", ratio(c.segments, ops));
    rep.put("net.events_per_poll", ratio(c.events_delivered, c.polls));
    rep.put("net.retransmits", c.retransmits as f64);
    rep.put("net.drops", c.drops as f64);
    rep.put("net.backlog_overflows", c.backlog_overflows as f64);
    let shard_ops: Vec<u64> = full
        .shard_ops
        .iter()
        .zip(setup.shard_ops.iter().chain(std::iter::repeat(&0)))
        .map(|(f, s)| f - s)
        .collect();
    let imbalance = match shard_ops.iter().max() {
        Some(&max) if max > 0 => {
            max as f64 * shard_ops.len() as f64 / shard_ops.iter().sum::<u64>() as f64
        }
        _ => 1.0,
    };
    rep.put("apps.shard_imbalance", imbalance);
    for (metric, r) in probe_results {
        match r {
            Ok(b) => rep.put(metric, med(&b)),
            Err(e) => rep.ledger.errors.push(format!("{metric}: {e}")),
        }
    }
    let (plan_ms, boot_ms, setup_ms) = (
        med(&plan_ns) / 1e6,
        med(&boot_ns) / 1e6,
        med(&setup_ns) / 1e6,
    );
    rep.put("build.plan_ms", plan_ms);
    rep.put("boot.boot_ms", boot_ms);
    rep.put("serve.establish_ms", setup_ms - plan_ms - boot_ms);
    let (p, q) = (med(&plain), med(&traced));
    rep.put(
        "bench.trace_overhead_pct",
        if p > 0.0 { (q - p) / p * 100.0 } else { 0.0 },
    );

    rep.notes.push(format!(
        "measured-phase operations {ops}; setup call {setup_ms:.3} ms; {} overhead pairs",
        plain.len()
    ));
    let selfs = spans::self_time_by_name(t.spans());
    for (name, ns) in &selfs {
        rep.notes
            .push(format!("self time {name}: {:.3} ms", *ns as f64 / 1e6));
    }
    match write_trace(name, seed, &t, &selfs) {
        Ok(path) => rep.notes.push(format!("spans written to {path}")),
        Err(e) => rep.ledger.errors.push(e),
    }
    rep
}

fn write_trace(
    workload: &str,
    seed: u64,
    t: &Tracer,
    selfs: &std::collections::BTreeMap<String, u64>,
) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let mut body = t.to_json();
    body.pop();
    body.push_str(",\"selfTimeNs\":{");
    for (i, (name, ns)) in selfs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{name}\":{ns}"));
    }
    body.push_str("}}");
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

// --- output ------------------------------------------------------------------------

fn result_json(correct: bool, led: &Ledger, values: &[Value]) -> String {
    let mut o = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        led.attempted.max(1),
        led.failed.min(led.attempted.max(1))
    );
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let x = if v.value.is_finite() { v.value } else { 0.0 };
        o.push_str(&format!(
            "\"{}\": {{\"value\": {x}, \"unit\": \"{}\"}}",
            v.name, v.unit
        ));
    }
    o.push_str("}}");
    o
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(kind) = workloads::kind_of(&args.workload) else {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "unknown workload {}; one of {}\n{USAGE}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };

    let mut rep = if args.trace {
        run_traced(kind, &args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(kind, args.seed, args.seconds)
    };
    let catalogue = metrics::catalogue(args.trace);
    if rep.ledger.correct() {
        if let Err(e) = metrics::check_complete(catalogue, &rep.values) {
            rep.ledger.errors.push(e);
        }
    } else {
        // A failed run still reports every metric, as zero where unmeasured.
        for m in catalogue {
            if !rep.values.iter().any(|v| v.name == m.name) {
                rep.put(m.name, 0.0);
            }
        }
    }

    eprintln!(
        "workload {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for v in &rep.values {
        let m = catalogue.iter().find(|m| m.name == v.name);
        let how = m.map_or(String::new(), |m| match m.bound {
            Some(b) => format!("{} is better, bound {b}; {}", m.better.label(), m.note),
            None => format!("{} is better; moves {}", m.better.label(), m.note),
        });
        eprintln!("  {:<28} {:>18.6} {:<11} {how}", v.name, v.value, v.unit);
    }
    for n in &rep.notes {
        eprintln!("  note: {n}");
    }
    let error_rate = ratio(rep.ledger.failed, rep.ledger.attempted);
    eprintln!(
        "  error_rate {error_rate} ({} of {} requests failed)",
        rep.ledger.failed, rep.ledger.attempted
    );
    for e in &rep.ledger.errors {
        eprintln!("  error: {e}");
    }
    println!(
        "{}",
        result_json(rep.ledger.correct(), &rep.ledger, &rep.values)
    );
}
