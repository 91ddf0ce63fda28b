//! Percentiles, medians and span arithmetic: the only statistics the
//! benchmark reports, kept in one place so their definitions are tested.

/// Nearest rank of percentile `pct` among `n` samples, 1-based. Integer
/// arithmetic in tenths of a percent: 0.9 * 100 is not 90 in floats.
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nanoseconds as the microseconds every latency is reported in.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Median of nanosecond samples, in microseconds; 0 for no samples.
pub fn p50_us(mut samples: Vec<u64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    us(percentile(&samples, 50.0))
}

/// Tail percentiles tried in order by [`supported_tail`].
const TAILS: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `n` samples beyond it; a tail read off fewer is one slow request, not
/// a distribution. Falls back to the median for tiny samples.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// A latency sample set summarised the way every report row needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: u64,
    /// Which percentile `tail` is (99 when the sample supports it).
    pub tail_pct: f64,
    pub tail: u64,
}

/// Sorts `samples` in place and summarises them with the tail their own
/// count supports.
pub fn summarize(samples: &mut [u64]) -> Summary {
    summarize_at(samples, supported_tail(samples.len()))
}

/// Like [`summarize`], with the tail percentile chosen by the caller: a
/// phase fixes it from the sample count it *expects*, so the percentile
/// reported does not flip between runs whose counts straddle a limit.
/// An empty set yields zeros with `samples == 0`.
pub fn summarize_at(samples: &mut [u64], tail_pct: f64) -> Summary {
    if samples.is_empty() {
        return Summary {
            samples: 0,
            p50: 0,
            tail_pct,
            tail: 0,
        };
    }
    samples.sort_unstable();
    Summary {
        samples: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct,
        tail: percentile(samples, tail_pct),
    }
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One recorded span. `parent` is an index into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The op index this span belongs to: spans of one request share it.
    pub req: u32,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // Wikipedia's nearest-rank example.
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&v, 5.0), 15);
        assert_eq!(percentile(&v, 30.0), 20);
        assert_eq!(percentile(&v, 40.0), 20);
        assert_eq!(percentile(&v, 50.0), 35);
        assert_eq!(percentile(&v, 100.0), 50);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&hundred, 50.0), 50);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(20), 50.0);
        assert_eq!(supported_tail(3), 50.0);
        let mut few: Vec<u64> = (1..=150).rev().collect();
        let s = summarize(&mut few);
        assert_eq!((s.samples, s.p50, s.tail_pct, s.tail), (150, 75, 90.0, 135));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and overruns the parent by 20.
            span("b", 30, 120, Some(0)),
            span("a.child", 15, 25, Some(1)),
        ];
        let selfs = self_times(&spans);
        // request: 100 - (10..100 covered = 90) = 10.
        assert_eq!(selfs, vec![10, 20, 90, 10]);
        // Self times of a tree with nested, non-overlapping children sum
        // to the root's duration.
        let tree = vec![
            span("request", 0, 100, None),
            span("x", 0, 60, Some(0)),
            span("y", 60, 90, Some(0)),
            span("x1", 5, 55, Some(1)),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }
}
