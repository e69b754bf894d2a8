//! The benchmark's metric catalogue and the output check that every run
//! reports each metric of its mode once, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: Option<f64>,
    /// End-to-end: what it measures. Per-layer: the end-to-end metric and
    /// workload it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("host_kreq_per_s", "kreq/s", Higher, 0.25,
        "host clock: lower quartile over call pairs of measured-phase operations per host second (op = request; iperf: receive burst)"),
    e2e("host_mib_per_s", "MiB/s", Higher, 0.25,
        "host clock: the same for payload MiB (serve: GET values, redis: SET values, iperf: stream bytes)"),
    e2e("setup_s", "s", Lower, 0.25,
        "host clock: plan + boot + connection establishment (+ preload) before the first measured request"),
    e2e("peak_rss_mib", "MiB", Lower, 0.20,
        "host memory high-water mark of the benchmark process"),
    e2e("sim_p50_cycles", "cycles", Lower, 0.05,
        "simulated median latency (serve: burst from arrival; redis: request span; iperf: receive-burst span)"),
    e2e("sim_p99_cycles", "cycles", Lower, 0.10,
        "simulated p99 latency, same samples as p50"),
    e2e("sim_p999_cycles", "cycles", Lower, 0.20,
        "simulated p99.9 latency; every workload keeps at least 10 samples beyond it"),
    e2e("sim_kreq_per_s", "kreq/sim_s", Higher, 0.05,
        "operations completed per simulated second in the measured phase (serve: tracks the offered rate)"),
    e2e("sim_capacity_kreq_per_s", "kreq/sim_s", Higher, 0.15,
        "serve: highest offered Poisson rate with p99 <= 105000 cycles and no growing backlog; closed loops: their completion rate"),
    e2e("sim_mbps", "Mbit/sim_s", Higher, 0.05,
        "payload megabits per simulated second (iperf: the paper's Fig. 3 goodput)"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "machine.tlb_hit_ratio",
        "ratio",
        Higher,
        "host_mib_per_s @ iperf",
    ),
    layer(
        "machine.copy_ns_per_kib",
        "ns/KiB",
        Lower,
        "host_mib_per_s @ iperf",
    ),
    layer(
        "gate.crossings_per_op",
        "count/op",
        Lower,
        "host_kreq_per_s @ redis",
    ),
    layer("gate.sync_cross_ns", "ns", Lower, "host_kreq_per_s @ redis"),
    layer(
        "gate.sim_cycles_per_op",
        "cycles/op",
        Lower,
        "sim_kreq_per_s @ redis, sim_p99_cycles @ serve",
    ),
    layer(
        "gate.calls_per_batch",
        "count/batch",
        Higher,
        "host_kreq_per_s and sim_p99_cycles @ serve",
    ),
    layer(
        "gate.async_call_ns",
        "ns",
        Lower,
        "host_kreq_per_s and sim_p99_cycles @ serve",
    ),
    layer(
        "gate.sq_full",
        "count",
        Lower,
        "host_kreq_per_s and sim_p99_cycles @ serve",
    ),
    layer(
        "trace.spans_per_op",
        "count/op",
        Lower,
        "host_kreq_per_s @ redis and serve",
    ),
    layer("trace.record_ns", "ns", Lower, "host_kreq_per_s @ redis"),
    layer(
        "trace.span_drop_ratio",
        "ratio",
        Lower,
        "none; shows a cheaper trace that drops more spans",
    ),
    layer(
        "kernel.switches_per_op",
        "count/op",
        Lower,
        "sim_kreq_per_s and error rate @ redis",
    ),
    layer(
        "kernel.allocs_per_op",
        "count/op",
        Lower,
        "sim_kreq_per_s and error rate @ redis",
    ),
    layer(
        "kernel.alloc_failures",
        "count",
        Lower,
        "sim_kreq_per_s and error rate @ redis",
    ),
    layer(
        "kernel.cotask_runs_per_op",
        "count/op",
        Lower,
        "host_kreq_per_s @ serve",
    ),
    layer(
        "kernel.wakeups_per_op",
        "count/op",
        Lower,
        "host_kreq_per_s @ serve",
    ),
    layer(
        "net.segments_per_op",
        "count/op",
        Lower,
        "host_mib_per_s @ iperf, host_kreq_per_s @ serve",
    ),
    layer(
        "net.events_per_poll",
        "count/poll",
        Higher,
        "host_kreq_per_s @ serve",
    ),
    layer(
        "net.retransmits",
        "count",
        Lower,
        "error rate and sim_p999_cycles @ serve",
    ),
    layer(
        "net.drops",
        "count",
        Lower,
        "error rate and sim_p999_cycles @ serve",
    ),
    layer(
        "net.backlog_overflows",
        "count",
        Lower,
        "error rate and sim_p999_cycles @ serve",
    ),
    layer(
        "apps.resp_parse_ns_per_cmd",
        "ns",
        Lower,
        "host_kreq_per_s @ serve and redis",
    ),
    layer(
        "apps.shard_imbalance",
        "ratio",
        Lower,
        "sim_p99_cycles @ serve",
    ),
    layer("sh.check_ns", "ns", Lower, "host_kreq_per_s @ redis"),
    layer("build.plan_ms", "ms", Lower, "setup_s @ all"),
    layer(
        "boot.boot_ms",
        "ms",
        Lower,
        "setup_s @ all, peak_rss_mib @ serve",
    ),
    layer("serve.establish_ms", "ms", Lower, "setup_s @ serve"),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "none; host_kreq_per_s (iperf: host_mib_per_s) lost to the benchmark's own spans",
    ),
];

/// The catalogue for a run mode.
pub fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit as reported.
    pub unit: String,
    /// The measured number.
    pub value: f64,
}

/// Checks that `got` reports every metric of `expected` exactly once,
/// with its unit and a finite value, and nothing else.
///
/// # Errors
///
/// Returns a message naming the first missing, duplicated, extra,
/// mis-united or non-finite metric.
pub fn check_complete(expected: &[Metric], got: &[Value]) -> Result<(), String> {
    for m in expected {
        let hits: Vec<&Value> = got.iter().filter(|v| v.name == m.name).collect();
        match hits.as_slice() {
            [] => return Err(format!("metric {} missing", m.name)),
            [v] if v.unit != m.unit => {
                return Err(format!(
                    "metric {} has unit {}, expected {}",
                    m.name, v.unit, m.unit
                ))
            }
            [v] if !v.value.is_finite() => return Err(format!("metric {} is not finite", m.name)),
            [_] => {}
            _ => return Err(format!("metric {} reported {} times", m.name, hits.len())),
        }
    }
    if let Some(v) = got
        .iter()
        .find(|v| !expected.iter().any(|m| m.name == v.name))
    {
        return Err(format!("metric {} is not in the catalogue", v.name));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(cat: &[Metric]) -> Vec<Value> {
        cat.iter()
            .map(|m| Value {
                name: m.name.into(),
                unit: m.unit.into(),
                value: 1.5,
            })
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn every_metric_with_its_unit_passes_for_every_mode() {
        for traced in [false, true] {
            let cat = catalogue(traced);
            assert_eq!(check_complete(cat, &full(cat)), Ok(()));
        }
    }

    #[test]
    fn missing_extra_duplicate_or_mis_united_metrics_fail() {
        for traced in [false, true] {
            let cat = catalogue(traced);
            for i in 0..cat.len() {
                let mut v = full(cat);
                v.remove(i);
                assert!(check_complete(cat, &v).unwrap_err().contains("missing"));
                let mut v = full(cat);
                v[i].unit = "furlongs".into();
                assert!(check_complete(cat, &v).unwrap_err().contains("unit"));
                let mut v = full(cat);
                v[i].value = f64::NAN;
                assert!(check_complete(cat, &v).unwrap_err().contains("finite"));
                let mut v = full(cat);
                v.push(v[i].clone());
                assert!(check_complete(cat, &v).unwrap_err().contains("times"));
            }
            let mut v = full(cat);
            v.push(Value {
                name: "bogus".into(),
                unit: "s".into(),
                value: 1.0,
            });
            assert!(check_complete(cat, &v).unwrap_err().contains("catalogue"));
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let squashed: String = json.split_whitespace().collect();
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end bound");
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.label(),
                bound
            );
            assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            );
            assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = |key: &str| squashed.matches(key).count();
        assert_eq!(count("\"bound\":"), END_TO_END.len());
        assert_eq!(count("\"better\":"), END_TO_END.len() + PER_LAYER.len());
    }
}
