//! Small measurement helpers: the seeded RNG every input is drawn from,
//! percentile rules, output fingerprints, metric-name validation and the
//! process's peak resident memory.

/// SplitMix64: the one seeded generator behind graph seeds, source picks,
/// arrival schedules and app mixes, so one `--seed` fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of ascending `sorted`:
/// the value at rank `ceil(q·n)`, clamped to `[1, n]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Candidate tail percentiles, highest last: the decades p90, p99, ...
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile on the ladder with at least ten samples beyond
/// it, as `(q, value)`. With fewer than 20 samples no percentile above the
/// median qualifies and the median is returned.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let q = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| n >= rank(n, q) + 10)
        .unwrap_or(0.5);
    (q, percentile(sorted, q))
}

/// Sort a sample vector ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Order-sensitive 64-bit fingerprint of an integer result vector; two
/// outputs with equal fingerprints are taken as equal.
pub fn fingerprint<T: Copy + Into<i64>>(values: &[T]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ values.len() as u64;
    for &v in values {
        h = (h ^ (v.into() as u64)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Current resident set size of this process (`VmRSS`), in MiB; 0 when
/// `/proc` is unavailable.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .map_or(0.0, |kib: f64| kib / 1024.0)
}

/// CPU seconds this process has used so far, all threads, from
/// `/proc/self/stat` (user + system clock ticks at 100 Hz).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran other guests while this one had work.
pub fn host_steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p99 only 1
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 90.0));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        // 19 samples: nothing above the median qualifies
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v).0, 0.5);
        // 999 samples: p99 would leave only 9 beyond
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 900.0));
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "lat_p50_ms",
            "sim.kernel_s.pull",
            "a-b.c_d",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "lat%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_eq!(fingerprint(&[1i32, 2, 3]), fingerprint(&[1i32, 2, 3]));
        assert_ne!(fingerprint(&[1i32, 2, 3]), fingerprint(&[1i32, 3, 2]));
        assert_ne!(fingerprint(&[-1i32]), fingerprint(&[u32::MAX]));
    }
}
