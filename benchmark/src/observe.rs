//! Observation from outside the program: who terminated and when, what
//! the process cost, and the arithmetic (percentiles, failure
//! accounting) the verdicts rest on. Pure functions and small state
//! machines, unit-tested below.

use std::time::{Duration, Instant};

use dgc_core::id::AoId;
use dgc_rt_net::Terminated;

/// First-sighting times of terminations.
///
/// `Cluster::terminated()` returns the merged log **re-sorted by id on
/// every call**, not in append order: slicing from the previous length
/// attributes new terminations to whatever sorts last. This log keeps a
/// seen-set instead and stamps every id the first time any snapshot
/// shows it.
#[derive(Debug, Default)]
pub struct TerminationLog {
    /// `seen[node][index]`: when the activity was first observed dead.
    seen: Vec<Vec<Option<Instant>>>,
    count: usize,
}

impl TerminationLog {
    /// Absorbs one snapshot taken at `at`; returns how many
    /// terminations were new.
    pub fn absorb(&mut self, snapshot: &[Terminated], at: Instant) -> usize {
        // Terminations only accumulate and an activity terminates once,
        // so an unchanged length means an unchanged set.
        if snapshot.len() == self.count {
            return 0;
        }
        let before = self.count;
        for t in snapshot {
            let (node, index) = (t.ao.node as usize, t.ao.index as usize);
            if self.seen.len() <= node {
                self.seen.resize_with(node + 1, Vec::new);
            }
            let row = &mut self.seen[node];
            if row.len() <= index {
                row.resize(index + 1, None);
            }
            if row[index].is_none() {
                row[index] = Some(at);
                self.count += 1;
            }
        }
        self.count - before
    }

    /// When `ao` was first seen terminated.
    pub fn seen_at(&self, ao: AoId) -> Option<Instant> {
        *self.seen.get(ao.node as usize)?.get(ao.index as usize)?
    }

    /// Terminated activities whose per-node index is below `standing`:
    /// the standing live set occupies those indices, so each one is a
    /// wrongful collection.
    pub fn wrongful(&self, standing: u32) -> usize {
        self.seen
            .iter()
            .map(|row| {
                row.iter()
                    .take(standing as usize)
                    .filter(|s| s.is_some())
                    .count()
            })
            .sum()
    }
}

/// The `q`-quantile (nearest rank) of ascending `sorted`, or `None`
/// when the sample cannot support it: a tail rank needs at least ten
/// samples beyond it, the median at least one sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest whole percentile of `sorted` that still has ten samples
/// beyond it, with its value; `None` below 20 samples.
pub fn highest_supported_tail(sorted: &[f64]) -> Option<(u32, f64)> {
    (51..=99)
        .rev()
        .find_map(|p| percentile(sorted, p as f64 / 100.0).map(|v| (p, v)))
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// What one run attempted and what of it failed. Every term is counted
/// from outside the program; a run is correct only when `failed()` is 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Heartbeat units written to sockets in the window.
    pub units_sent: u64,
    /// Heartbeat units read from sockets in the window.
    pub units_received: u64,
    /// Units one standing round puts in flight: the slack between the
    /// two counters at any instant.
    pub round_slack: u64,
    pub send_failures: u64,
    pub decode_errors: u64,
    pub pings_sent: u64,
    /// Pings whose echo had not arrived one second after the window.
    pub pings_unanswered: u64,
    pub app_send_failures: u64,
    pub tenant_rejections: u64,
    /// Garbage activities released.
    pub released: u64,
    /// Of those, still alive at the end of the drain.
    pub unreclaimed: u64,
    /// Standing (live) activities that terminated.
    pub wrongful: u64,
}

impl Ledger {
    pub fn attempted(&self) -> u64 {
        self.units_sent + self.pings_sent + self.released
    }

    /// Units sent but never delivered, beyond what one round keeps in
    /// flight.
    pub fn units_lost(&self) -> u64 {
        self.units_sent
            .saturating_sub(self.units_received)
            .saturating_sub(self.round_slack)
    }

    pub fn failed(&self) -> u64 {
        self.units_lost()
            + self.send_failures
            + self.decode_errors
            + self.pings_unanswered
            + self.app_send_failures
            + self.tenant_rejections
            + self.unreclaimed
            + self.wrongful
    }
}

/// Process CPU time so far (user + system), from `/proc/self/stat`.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    // USER_HZ is 100 on every Linux this runs on.
    Duration::from_millis((utime + stime) * 10)
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    status_field("VmRSS:").unwrap_or(0) * 1024
}

/// OS threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Busy and total jiffies of the whole machine, from `/proc/stat`.
fn machine_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let total: u64 = fields.iter().take(8).sum();
    // Fields 3 and 4 are idle and iowait.
    let idle = fields.get(3)? + fields.get(4)?;
    Some((total - idle, total))
}

/// Cores' worth of CPU the whole machine burned over the next `over`.
pub fn machine_busy_cores(over: Duration) -> Option<f64> {
    let (busy0, total0) = machine_jiffies()?;
    std::thread::sleep(over);
    let (busy1, total1) = machine_jiffies()?;
    let total = total1.checked_sub(total0).filter(|t| *t > 0)?;
    Some((busy1 - busy0) as f64 / total as f64 * nproc() as f64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Variables that select a non-default engine, sharding, emulation or
/// instrumentation. The benchmark measures what ships, so it removes
/// them from its own environment before binding anything.
pub const SCRUBBED_ENV: &[&str] = &[
    "DGC_NET_ENGINE",
    "DGC_SWEEP_SHARDS",
    "DGC_POLL_EMULATION",
    "DGC_LOCK_CHECK",
    "DGC_TRACE",
];

/// Environment hygiene, before any thread exists: scrub the `DGC_*`
/// knobs (all but `keep`, which the alternate-engine probe's child
/// uses), raise the descriptor limit.
pub fn prepare_environment(keep: Option<&str>) {
    for var in SCRUBBED_ENV.iter().filter(|v| Some(**v) != keep) {
        std::env::remove_var(var);
    }
    polling::raise_nofile_limit();
}

/// Waits for the machine to be quiet enough to measure on: everything
/// else on it burning at most a quarter of the cores. Sampled over
/// 250 ms now rather than read from the one-minute load average, which
/// this benchmark's own previous run keeps high for a minute. Gives up
/// (and says why) after `patience`.
pub fn wait_for_quiet_machine(patience: Duration) -> Result<(), String> {
    let limit = nproc() as f64 / 4.0;
    let start = Instant::now();
    loop {
        let Some(busy) = machine_busy_cores(Duration::from_millis(250)) else {
            return Ok(());
        };
        if busy <= limit {
            return Ok(());
        }
        if start.elapsed() >= patience {
            return Err(format!(
                "the machine is busy: other work is using {busy:.2} cores, more than a \
                 quarter of nproc ({limit:.2}); numbers taken now would not repeat"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::message::TerminateReason;

    fn dead(node: u32, index: u32) -> Terminated {
        Terminated {
            ao: AoId::new(node, index),
            reason: TerminateReason::Acyclic,
        }
    }

    #[test]
    fn log_survives_resorted_snapshots() {
        // Node 1's activity dies first; node 0's later one sorts *before*
        // it in the next snapshot. A length-slice would stamp (1,5) twice
        // and never see (0,9).
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        let mut log = TerminationLog::default();
        assert_eq!(log.absorb(&[dead(1, 5)], t0), 1);
        assert_eq!(log.absorb(&[dead(0, 9), dead(1, 5)], t1), 1);
        assert_eq!(log.seen_at(AoId::new(1, 5)), Some(t0));
        assert_eq!(log.seen_at(AoId::new(0, 9)), Some(t1));
        assert_eq!(log.seen_at(AoId::new(0, 8)), None);
        // Same length, nothing new: the cheap path.
        assert_eq!(log.absorb(&[dead(0, 9), dead(1, 5)], t1), 0);
    }

    #[test]
    fn a_fake_wrongful_termination_is_a_failure() {
        let mut log = TerminationLog::default();
        let now = Instant::now();
        // Standing set = indices 0..100; 100+ is released garbage.
        log.absorb(&[dead(0, 100), dead(1, 250)], now);
        assert_eq!(log.wrongful(100), 0);
        log.absorb(&[dead(0, 100), dead(1, 99), dead(1, 250)], now);
        assert_eq!(log.wrongful(100), 1);
        let ledger = Ledger {
            released: 2,
            wrongful: log.wrongful(100) as u64,
            ..Ledger::default()
        };
        assert_eq!(ledger.failed(), 1);
    }

    #[test]
    fn a_dropped_echo_is_a_failure() {
        let clean = Ledger {
            units_sent: 1000,
            units_received: 990,
            round_slack: 16,
            pings_sent: 50,
            released: 8,
            ..Ledger::default()
        };
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.attempted(), 1058);
        let dropped = Ledger {
            pings_unanswered: 1,
            ..clean
        };
        assert_eq!(dropped.failed(), 1);
        // Loss beyond the in-flight slack counts unit by unit.
        let lossy = Ledger {
            units_received: 900,
            ..clean
        };
        assert_eq!(lossy.failed(), 84);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v[..100], 0.91), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(highest_supported_tail(&v), Some((99, 990.0)));
        assert_eq!(highest_supported_tail(&v[..100]), Some((90, 90.0)));
        assert_eq!(highest_supported_tail(&v[..19]), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0);
        }
        assert!(cpu_time() >= Duration::from_millis(10));
    }
}
