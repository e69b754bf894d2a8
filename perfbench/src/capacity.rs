//! The open-loop capacity search: the highest offered Poisson rate whose
//! p99 latency stays within a fixed limit with no growing backlog.
//!
//! The search walks the mean inter-arrival gap (in simulated cycles), so
//! every probe is a deterministic simulation and the same seed always
//! yields the same answer. It brackets the limit geometrically from a
//! starting gap, then bisects the bracket in log space a fixed number of
//! times. A curve that never meets the limit reports the lowest rate it
//! probed, flagged as not met.

/// What one probe at a given gap measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// p99 request latency from arrival, simulated cycles.
    pub p99_cycles: u64,
    /// Completion rate over offered rate (1.0 = kept up with arrivals).
    pub completion_ratio: f64,
}

/// The fixed acceptance rule and search shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Highest acceptable p99, simulated cycles.
    pub p99_limit_cycles: u64,
    /// Lowest acceptable completion ratio; below it the backlog grows.
    pub min_completion_ratio: f64,
    /// First gap probed.
    pub start_gap: u64,
    /// Bracketing step: each probe scales the gap by `step_pct / 100`
    /// (toward higher rates) or its inverse (toward lower rates).
    pub step_pct: u64,
    /// Smallest gap probed (highest rate); a curve that passes here is
    /// reported at this cap.
    pub min_gap: u64,
    /// Largest gap probed (lowest rate).
    pub max_gap: u64,
    /// Log-space bisection steps after bracketing.
    pub bisect_steps: u32,
}

impl Rule {
    /// Whether `p` meets the latency limit without a growing backlog.
    pub fn accepts(&self, p: &Probe) -> bool {
        p.p99_cycles <= self.p99_limit_cycles && p.completion_ratio >= self.min_completion_ratio
    }
}

/// The search result.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// Smallest accepted gap; when nothing was accepted, the largest gap
    /// probed (the lowest rate tried).
    pub gap: u64,
    /// Whether `gap` met the rule.
    pub met: bool,
    /// Every probe, in the order made: (gap, probe, accepted).
    pub probes: Vec<(u64, Probe, bool)>,
}

/// Runs the search; `probe(gap)` simulates one open-loop run.
///
/// # Errors
///
/// Returns the first probe error unchanged.
pub fn search(
    rule: &Rule,
    mut probe: impl FnMut(u64) -> Result<Probe, String>,
) -> Result<Capacity, String> {
    let mut probes = Vec::new();
    let mut run = |gap: u64, probes: &mut Vec<(u64, Probe, bool)>| -> Result<bool, String> {
        let p = probe(gap)?;
        let ok = rule.accepts(&p);
        probes.push((gap, p, ok));
        Ok(ok)
    };
    let step = |gap: u64| (gap * rule.step_pct / 100).max(1);
    let unstep = |gap: u64| (gap * 100).div_ceil(rule.step_pct.max(1)).max(gap + 1);

    // Bracket: `good` is an accepted gap, `bad` a smaller rejected one.
    let start = rule.start_gap.clamp(rule.min_gap, rule.max_gap);
    let (mut good, mut bad);
    if run(start, &mut probes)? {
        good = start;
        loop {
            if good <= rule.min_gap {
                return Ok(Capacity {
                    gap: good,
                    met: true,
                    probes,
                });
            }
            let next = step(good).max(rule.min_gap);
            if run(next, &mut probes)? {
                good = next;
            } else {
                bad = next;
                break;
            }
        }
    } else {
        bad = start;
        loop {
            if bad >= rule.max_gap {
                return Ok(Capacity {
                    gap: bad,
                    met: false,
                    probes,
                });
            }
            let next = unstep(bad).min(rule.max_gap);
            if run(next, &mut probes)? {
                good = next;
                break;
            }
            bad = next;
        }
    }

    for _ in 0..rule.bisect_steps {
        let mid = ((good as f64) * (bad as f64)).sqrt().round() as u64;
        if mid <= bad || mid >= good {
            break;
        }
        if run(mid, &mut probes)? {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(Capacity {
        gap: good,
        met: true,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: Rule = Rule {
        p99_limit_cycles: 105_000,
        min_completion_ratio: 0.98,
        start_gap: 50_000,
        step_pct: 70,
        min_gap: 1_000,
        max_gap: 10_000_000,
        bisect_steps: 5,
    };

    fn monotone(gap: u64) -> Result<Probe, String> {
        // Latency grows as the gap shrinks; crosses the limit near 19 048.
        Ok(Probe {
            p99_cycles: 2_000_000_000 / gap,
            completion_ratio: 1.0,
        })
    }

    #[test]
    fn monotone_curve_converges_on_the_limit() {
        let c = search(&RULE, monotone).expect("search");
        assert!(c.met);
        assert!(monotone(c.gap).unwrap().p99_cycles <= RULE.p99_limit_cycles);
        // Within the bisection resolution of the true crossing.
        let crossing = 2_000_000_000.0 / 105_000.0;
        assert!(
            c.gap as f64 >= crossing && (c.gap as f64) < crossing * 1.03,
            "{}",
            c.gap
        );
        // Deterministic: the same curve gives the same probe sequence.
        assert_eq!(search(&RULE, monotone).expect("search"), c);
        assert!(c.probes.len() <= 12, "{}", c.probes.len());
    }

    #[test]
    fn always_overloaded_reports_the_lowest_probed_rate() {
        let c = search(&RULE, |_| {
            Ok(Probe {
                p99_cycles: u64::MAX,
                completion_ratio: 0.5,
            })
        })
        .expect("search");
        assert!(!c.met);
        assert_eq!(c.gap, RULE.max_gap);
        let largest = c.probes.iter().map(|&(g, _, _)| g).max().expect("probed");
        assert_eq!(c.gap, largest);
        assert!(c.probes.iter().all(|&(_, _, ok)| !ok));
    }

    #[test]
    fn growing_backlog_rejects_a_low_latency_probe() {
        // Latency looks fine everywhere, but under gap 20 000 the image
        // stops keeping up with arrivals.
        let c = search(&RULE, |gap| {
            Ok(Probe {
                p99_cycles: 1_000,
                completion_ratio: if gap < 20_000 { 0.9 } else { 1.0 },
            })
        })
        .expect("search");
        assert!(c.met && c.gap >= 20_000 && c.gap < 20_600, "{}", c.gap);
    }

    #[test]
    fn never_saturating_curve_stops_at_the_cap() {
        let c = search(&RULE, |_| {
            Ok(Probe {
                p99_cycles: 1,
                completion_ratio: 1.0,
            })
        })
        .expect("search");
        assert!(c.met);
        assert_eq!(c.gap, RULE.min_gap);
    }

    #[test]
    fn start_below_capacity_climbs_then_bisects() {
        let rule = Rule {
            start_gap: 5_000,
            ..RULE
        };
        let c = search(&rule, monotone).expect("search");
        assert!(c.met);
        assert!(!c.probes[0].2);
        assert!(monotone(c.gap).unwrap().p99_cycles <= rule.p99_limit_cycles);
    }

    #[test]
    fn probe_errors_propagate() {
        let e = search(&RULE, |_| Err("boom".to_string())).unwrap_err();
        assert_eq!(e, "boom");
    }
}
