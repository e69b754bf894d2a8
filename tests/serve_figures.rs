//! Pins the serving tier's simulated figures to the recorded baseline.
//!
//! The serve path mixes simulated work (charged cycles, gate crossings)
//! with host-side bookkeeping (connection demux, RESP codec, shard
//! stores). Host-side rewrites must leave every simulated figure
//! bit-identical, so this test reruns the `serving` points of
//! `BENCH_9.json` — 2000 requests at 10³ and 10⁵ open connections — and
//! compares cycles, latency percentiles, crossings and per-shard op
//! counts with the recorded values.

use flexos_apps::serve::{run_serve, ServeParams};

const BENCH_9: &str = include_str!("../BENCH_9.json");

/// The JSON object of serving point `name` (points are flat objects in
/// the compact `BENCH_N.json` encoding: no nested braces).
fn point(name: &str) -> &'static str {
    let at = BENCH_9
        .find(&format!("{{\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("BENCH_9.json has no point {name}"));
    let end = BENCH_9[at..].find('}').expect("point object closes");
    &BENCH_9[at..at + end]
}

/// The raw value text of `field` in a flat JSON object.
fn field<'a>(obj: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\":");
    let at = obj
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {obj}"))
        + key.len();
    let rest = &obj[at..];
    let end = if rest.starts_with('[') {
        rest.find(']').expect("array closes") + 1
    } else {
        rest.find(',').unwrap_or(rest.len())
    };
    &rest[..end]
}

fn number(obj: &str, name: &str) -> u64 {
    field(obj, name)
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn check(name: &str, conns: usize) {
    let rec = point(name);
    assert_eq!(number(rec, "conns"), conns as u64);
    let ops = number(rec, "ops");
    let r = run_serve(&ServeParams {
        conns,
        ops,
        ..ServeParams::default()
    })
    .expect("serve run succeeds");
    assert_eq!(r.ops, ops, "{name}: ops");
    assert_eq!(r.cycles, number(rec, "cycles"), "{name}: cycles");
    assert_eq!(r.crossings, number(rec, "crossings"), "{name}: crossings");
    assert_eq!(r.p50_cycles, number(rec, "p50"), "{name}: p50");
    assert_eq!(r.p99_cycles, number(rec, "p99"), "{name}: p99");
    assert_eq!(r.p999_cycles, number(rec, "p999"), "{name}: p999");
    let shard_ops = format!(
        "[{}]",
        r.shard_ops
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(shard_ops, field(rec, "shard_ops"), "{name}: shard_ops");
}

#[test]
fn serve_c1k_matches_the_recorded_figures() {
    check("serve-c1k", 1_000);
}

#[test]
fn serve_c100k_matches_the_recorded_figures() {
    check("serve-c100k", 100_000);
}
