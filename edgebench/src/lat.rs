//! Exact latency samples.
//!
//! Every sample is kept at nanosecond resolution and percentiles are read
//! off the sorted samples by nearest rank, so a gain smaller than a log
//! bucket still shows. A percentile is only trusted when at least ten
//! samples lie beyond it; [`Samples::resolvable`] names the highest one
//! that is.

/// Percentiles offered by [`Samples::resolvable`], ascending.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// A bag of nanosecond samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    /// Sorted copy of `ns`, built on first use.
    sorted: Option<Vec<u64>>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = None;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = None;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sorted(&mut self) -> &[u64] {
        self.sorted.get_or_insert_with(|| {
            let mut v = self.ns.clone();
            v.sort_unstable();
            v
        })
    }

    /// Nearest-rank quantile in nanoseconds; `0` when empty.
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        nearest_rank(self.sorted(), q)
    }

    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e6
    }

    pub fn max_ns(&self) -> u64 {
        self.ns.iter().copied().max().unwrap_or(0)
    }

    /// The highest percentile with at least ten samples beyond it, or
    /// `None` when even the median has fewer.
    pub fn resolvable(&self) -> Option<f64> {
        let n = self.ns.len() as f64;
        LADDER.iter().rev().copied().find(|q| n * (1.0 - q) >= 10.0)
    }

    /// `n=… p50=… p99=… pmax-resolvable(p…)=…` in milliseconds.
    pub fn describe_ms(&mut self) -> String {
        let n = self.len();
        let p50 = self.quantile_ms(0.5);
        let p99 = self.quantile_ms(0.99);
        let top = match self.resolvable() {
            Some(q) => format!("p{}={:.4}", q * 100.0, self.quantile_ms(q)),
            None => "no percentile resolvable".to_owned(),
        };
        let p99_note = if n >= 1000 {
            ""
        } else {
            " (p99 under-sampled)"
        };
        format!(
            "n={n} p50={p50:.4} p99={p99:.4}{p99_note} {top} max={:.4}",
            self.max_ns() as f64 / 1e6
        )
    }
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_resolvable() {
        let mut s = Samples::new();
        for v in 1..=1000 {
            s.push(v);
        }
        assert_eq!(s.quantile_ns(0.5), 500);
        assert_eq!(s.quantile_ns(0.99), 990);
        assert_eq!(s.resolvable(), Some(0.99));
    }
}
