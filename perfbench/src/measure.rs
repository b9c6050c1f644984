//! Measurement helpers: the seeded input generator, order statistics, the
//! operation tally, and process accounting read from `/proc/self` (no
//! dependency beyond the standard library).

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64, the benchmark's input generator: small, seedable and the
/// same on every platform, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(GOLDEN_GAMMA).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Operations attempted, and those that failed: returned an error, or gave
/// an answer the output checks found wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations divided by attempted operations.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Nearest-rank percentile, `p` in `[0, 100]`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linux reports `utime` and `stime` in ticks of `USER_HZ`, which is 100 on
/// every architecture the kernel supports.
const TICKS_PER_S: f64 = 100.0;

/// CPU time this process has used, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    /// Reads `utime` and `stime` from `/proc/self/stat` (zero when the file
    /// cannot be read).
    pub fn now() -> Cpu {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| parse_stat(&stat))
            .unwrap_or_default()
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime` and `stime` are fields 14 and 15 of `/proc/self/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its last closing parenthesis.
fn parse_stat(stat: &str) -> Option<Cpu> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// Peak resident set size of this process (`VmHWM` in `/proc/self/status`)
/// in MiB; 0 when the file cannot be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_past_the_command_name() {
        let stat = "4242 (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20 0 1 0";
        let cpu = parse_stat(stat).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.37);
        assert!(Cpu::now().user_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
