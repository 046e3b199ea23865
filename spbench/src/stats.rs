//! Order statistics over latency samples, and the cutting of a window
//! into blocks: a rate is its median block's, and the quiet decile of
//! the blocks is a per-layer reading of what interference costs.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process first asked for the time. Every
/// timestamp in a run (samples, spans) is on this clock.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sorts in place and returns the nearest-rank `q`-quantile. `None` on
/// an empty sample.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of floats (mean of the middle pair on an even count). `None`
/// on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// One answered operation: when its answer arrived and how long the
/// round trip took, both on the `now_ns` clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub end_ns: u64,
    pub nanos: u64,
}

/// A log is cut into at most this many consecutive blocks.
pub const BLOCKS: usize = 64;

/// A block holds at least this many samples, so that its median is one:
/// some latencies are spread out by design (a fresh read on `fleet`
/// waits for a 10 ms poll, wherever in its period the write landed) and
/// only settle over a few hundred samples. A log shorter than two
/// blocks is one block.
const BLOCK_SAMPLES: usize = 512;

/// The share of blocks a quiet reading leaves on its quiet side.
/// Interference on a shared sandbox only ever slows a block down (a
/// neighbour takes the core, the hypervisor parks a vCPU), in bursts of
/// a second or two. The quiet decile of the blocks is what the code does
/// when nothing else wants the machine: the traced pass reports it
/// beside the median (`client.read_quiet_p50_us`,
/// `client.reads_quiet_per_s`), and the distance between the two is the
/// interference. No end-to-end metric is a quiet reading. With fewer
/// than ten blocks it is the quietest one.
const QUIET: f64 = 0.1;

/// How many blocks a log of `n` samples is cut into.
fn block_count(n: usize) -> usize {
    (n / BLOCK_SAMPLES).clamp(1, BLOCKS)
}

/// The median of each block of time-ordered durations, the blocks
/// holding equal counts.
fn block_medians(nanos: &[u64]) -> Vec<u64> {
    let (n, blocks) = (nanos.len(), block_count(nanos.len()));
    (0..blocks)
        .map(|k| {
            let mut part = nanos[n * k / blocks..n * (k + 1) / blocks].to_vec();
            quantile(&mut part, 0.5).unwrap_or(0)
        })
        .collect()
}

/// The median of unsorted nanosecond durations. `None` on an empty log.
pub fn median_ns(nanos: &[u64]) -> Option<u64> {
    quantile(&mut nanos.to_vec(), 0.5)
}

/// The typical duration when the machine is quiet: the lower decile of
/// the block medians of time-ordered durations; the plain median of a
/// log too short to cut. `None` on an empty log.
pub fn quiet_median(nanos: &[u64]) -> Option<u64> {
    if nanos.is_empty() {
        return None;
    }
    quantile(&mut block_medians(nanos), QUIET)
}

/// Several loops' logs as one, ordered by arrival and cut where the
/// first loop to finish finished: past that point the others no longer
/// run side by side.
pub fn side_by_side(loops: &[&[Sample]]) -> Vec<Sample> {
    let cut = loops
        .iter()
        .filter_map(|log| log.last().map(|s| s.end_ns))
        .min()
        .unwrap_or(0);
    let mut all: Vec<Sample> = loops
        .iter()
        .flat_map(|log| log.iter().copied())
        .filter(|s| s.end_ns <= cut)
        .collect();
    all.sort_unstable_by_key(|s| s.end_ns);
    all
}

/// Units per second in each block of a window that started at
/// `start_ns` and ended with its last sample, every sample being worth
/// `weight` units. The blocks are equal spans of time: a window whose
/// work comes in cycles (`churn` stalls every read while an epoch is
/// rebuilt) would otherwise have blocks of all-fast samples.
pub fn block_rates(samples: &[Sample], start_ns: u64, weight: f64) -> Vec<f64> {
    let Some(last) = samples.last() else {
        return Vec::new();
    };
    let blocks = block_count(samples.len());
    let span = last.end_ns.saturating_sub(start_ns).max(1);
    let mut counts = vec![0u64; blocks];
    for s in samples {
        let at =
            (s.end_ns.saturating_sub(start_ns) as u128 * blocks as u128 / span as u128) as usize;
        counts[at.min(blocks - 1)] += 1;
    }
    let block_ns = span as f64 / blocks as f64;
    counts
        .iter()
        .map(|&count| count as f64 * weight * 1e9 / block_ns)
        .collect()
}

/// The rate when the machine is quiet: the upper decile of the block
/// rates. `None` when there are none.
pub fn quiet_rate(rates: &[f64]) -> Option<f64> {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("measurements are finite"));
    let rank = ((sorted.len() as f64 * QUIET).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied()
}

/// `(max - min) / median` of the block rates, in percent.
pub fn spread_pct(rates: &[f64]) -> f64 {
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    match median(rates) {
        Some(mid) if mid > 0.0 => (max - min) / mid * 100.0,
        _ => 0.0,
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of
/// `y ≈ c · x^k`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn short_logs_are_one_block_and_long_ones_at_most_sixty_four() {
        assert_eq!(block_count(0), 1);
        assert_eq!(block_count(1_023), 1);
        assert_eq!(block_count(1_024), 2);
        assert_eq!(block_count(10_000_000), BLOCKS);
        // A handful of long operations: their median.
        assert_eq!(quiet_median(&[350, 330, 420, 340, 335]), Some(340));
        assert_eq!(quiet_median(&[350, 330]), Some(330));
        assert_eq!(quiet_median(&[]), None);
    }

    #[test]
    fn the_quiet_decile_ignores_a_slow_burst() {
        // 64 blocks of operations of 10 us, a quarter of them slowed to
        // 15 us in one burst: the blocks the burst missed set the value.
        let n = BLOCKS * BLOCK_SAMPLES;
        let mut nanos = vec![10_000u64; n];
        nanos[n / 4..n / 2].fill(15_000);
        assert_eq!(quiet_median(&nanos), Some(10_000));
        assert_eq!(median_ns(&nanos), Some(10_000));
        // Once most of the log is slow the median says so; the quiet
        // decile still does not, which is why no end-to-end metric is one.
        let mut mostly_slow = nanos.clone();
        mostly_slow[n / 4..].fill(15_000);
        assert_eq!(median_ns(&mostly_slow), Some(15_000));
        assert_eq!(quiet_median(&mostly_slow), Some(10_000));

        let mut end = 0;
        let samples: Vec<Sample> = nanos
            .iter()
            .map(|&n| {
                end += n;
                Sample {
                    end_ns: end,
                    nanos: n,
                }
            })
            .collect();
        let rates = block_rates(&samples, 0, 32.0);
        assert_eq!(rates.len(), BLOCKS);
        let quiet = quiet_rate(&rates).unwrap();
        assert!(
            (quiet / (32.0 * 1e9 / 10_000.0) - 1.0).abs() < 0.01,
            "{quiet}"
        );
        let slowest = rates.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            (slowest / (32.0 * 1e9 / 15_000.0) - 1.0).abs() < 0.01,
            "{slowest}"
        );
        assert_eq!(quiet_rate(&[]), None);
        assert!(block_rates(&[], 0, 1.0).is_empty());
    }

    #[test]
    fn a_short_window_has_one_rate() {
        let samples: Vec<Sample> = (1..=100u64)
            .map(|i| Sample {
                end_ns: i * 1_000_000,
                nanos: 1,
            })
            .collect();
        assert_eq!(block_rates(&samples, 0, 2.0), [2_000.0]);
        assert_eq!(spread_pct(&[2_000.0]), 0.0);
    }

    #[test]
    fn side_by_side_stops_when_the_first_loop_does() {
        let log = |ends: &[u64]| -> Vec<Sample> {
            ends.iter()
                .map(|&end_ns| Sample { end_ns, nanos: 1 })
                .collect()
        };
        let (a, b) = (log(&[10, 30, 50]), log(&[20, 40, 60, 80]));
        let ends: Vec<u64> = side_by_side(&[&a, &b]).iter().map(|s| s.end_ns).collect();
        assert_eq!(ends, [10, 20, 30, 40, 50]);
        assert!(side_by_side(&[]).is_empty());
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let points: Vec<(f64, f64)> = [300.0f64, 1025.0, 2440.0, 4860.0]
            .iter()
            .map(|&x| (x, 3e-5 * x.powf(2.2)))
            .collect();
        assert!((log_log_slope(&points) - 2.2).abs() < 1e-9);
    }
}
