//! Small numeric and host helpers: percentiles, `/proc` readers, the
//! host-noise canary, and a minimal JSON writer (std only).

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it. `p` in `0..=1`.
///
/// # Panics
/// Panics on an empty slice — every caller reports a sample count, and a
/// percentile of nothing is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending (total order, NaN last).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median (the `p = 0.5` nearest-rank percentile) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    percentile(&s, 0.5)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The `comm` field may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_proc_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state is field 3, utime 14, stime 15 (1-based).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 on
/// every mainstream architecture (std offers no `sysconf`).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The harness's own fixed computation: `products` multi-limb
/// multiply-and-reduce steps on 8-limb numbers, each into a fresh heap
/// buffer — the shape of the Montgomery products that fill a fed-KNN round
/// (multiply-with-carry chains plus an allocation per product) and no code
/// of any crate under test. Single-threaded. Returns its wall-clock in ms.
fn limb_loop(products: u64) -> f64 {
    const L: usize = 8;
    let t0 = std::time::Instant::now();
    let m: Vec<u64> =
        (0..L as u64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(2 * i + 1) | 1).collect();
    let mut a: Vec<u64> =
        (0..L as u64).map(|i| 0xbf58_476d_1ce4_e5b9u64.wrapping_mul(i + 3)).collect();
    // t[i..] += x * y, the carry folded into limb `i + L`.
    fn mul_add(t: &mut [u64], i: usize, x: u64, y: &[u64]) {
        let mut carry = 0u128;
        for (j, &yj) in y.iter().enumerate() {
            let sum = u128::from(t[i + j]) + u128::from(x) * u128::from(yj) + carry;
            t[i + j] = sum as u64;
            carry = sum >> 64;
        }
        t[i + L] = t[i + L].wrapping_add(carry as u64);
    }
    for _ in 0..products {
        let mut t = vec![0u64; 2 * L + 1];
        for i in 0..L {
            mul_add(&mut t, i, a[i], &a);
        }
        for i in 0..L {
            let u = t[i].wrapping_mul(0x2545_f491_4f6c_dd1d);
            mul_add(&mut t, i, u, &m);
        }
        a = t[L..2 * L].to_vec();
    }
    std::hint::black_box(&a);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host-noise canary (~50 ms on the reference host), timed before and
/// after a workload: tells a reader whether the host, not the code, moved
/// a timing.
pub fn canary_ms() -> f64 {
    limb_loop(330_000)
}

/// Products of the probe read around a `knn_*` round (≈ 18 ms) and around
/// a `knn_*` set-up (≈ 2 ms). A probe is no longer than what it
/// calibrates: beside a 2 ms set-up, an 18 ms probe is cut by other
/// processes' time slices that the set-up slips between, and ten runs'
/// medians then spread 35 %.
pub const ROUND_PROBE: u64 = 120_000;
pub const SETUP_PROBE: u64 = 12_000;

/// What one product of [`limb_loop`] takes on the reference host when it
/// is quiet: 18 ms for 120 000.
const QUIET_MS_PER_PRODUCT: f64 = 18.0 / 120_000.0;

/// One reading of the host-speed probe, taken between operations while a
/// workload is timed and nothing else runs: how many times slower than on
/// the quiet reference host [`limb_loop`] runs right now. One thread,
/// because that is what a round's blocking path is (the coordinator's
/// decrypt loop: a Base round keeps 1.16 of 2 cores busy). A two-thread
/// probe reads 1.5x slow whenever anything else holds one core while the
/// rounds slow by 1.1x, and its correction then puts more noise in than it
/// takes out.
pub fn host_slowdown(products: u64) -> f64 {
    limb_loop(products) / (products as f64 * QUIET_MS_PER_PRODUCT)
}

/// Re-expresses a CPU-bound wall-clock, observed while the probe read
/// `slowdown`, at reference host speed: the time in units of the probe.
///
/// Why: on a shared 2-vCPU host the same binary's rounds drift by ±30 %
/// for minutes at a time (287 ms in one spell, 489 ms in another), with no
/// steal in `/proc/stat` and CPU time growing with the wall-clock, so no
/// statistic of raw times repeats within any bound the contract allows.
pub fn at_reference_speed(observed: f64, slowdown: f64) -> f64 {
    observed / slowdown
}

/// SplitMix64: the harness's own generator, so workload inputs depend on
/// `--seed` alone and on no crate under test.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A JSON value; objects keep insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering. Non-finite numbers have no JSON
    /// form and render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Indented rendering for files a person reads.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.render_into(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render_into(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn proc_stat_survives_hostile_comm() {
        let stat = "4242 (a b) c) R 1 1 1 0 -1 4194560 100 0 0 0 37 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_proc_stat_ticks(stat), Some(42));
        assert_eq!(parse_proc_stat_ticks("no parens here"), None);
        assert_eq!(parse_proc_stat_ticks("1 (x) R 1 2"), None);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn correction_is_identity_at_reference_speed_and_proportional_elsewhere() {
        assert_eq!(at_reference_speed(100.0, 1.0), 100.0);
        // Probe twice as slow: the round is taken to be twice as slow.
        assert_eq!(at_reference_speed(200.0, 2.0), 100.0);
        assert!(at_reference_speed(100.0, 0.5) > 100.0);
        let now = host_slowdown(SETUP_PROBE);
        assert!(now.is_finite() && now > 0.0, "{now}");
    }

    #[test]
    fn status_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(2.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn json_escapes_and_renders() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let doc = Json::obj([
            ("s", Json::Str("q\"".into())),
            ("n", Json::Num(1.5)),
            ("nan", Json::Num(f64::NAN)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(doc.render(), r#"{"s":"q\"","n":1.5,"nan":null,"a":[true,null],"e":{}}"#);
        assert!(doc.render_pretty().contains("\n  \"n\": 1.5,"));
    }

    #[test]
    fn rng_is_deterministic_and_shuffles_a_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        Rng(7).shuffle(&mut a);
        Rng(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
