//! Order statistics and the log-log fit.

/// A latency sample set, µs. Failed requests enter as [`MISS_US`].
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

/// The latency a failed request counts as: the client's reply timeout.
pub const MISS_US: f64 = 30e6;

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile (`0.0` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }
}

/// The highest of p99/p95/p90/p50 that leaves at least ten of `n`
/// samples above it.
pub fn tail_q(n: usize) -> f64 {
    [0.99, 0.95, 0.9]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Median of a small set.
pub fn median(v: &[f64]) -> f64 {
    Samples(v.to_vec()).quantile(0.5)
}

/// The common log-log slope of `y` against `x` within groups: least
/// squares on `ln y` against `ln x` after centring each group on its own
/// means (a fixed effect per group). Groups are OMQs, so the slope is
/// the exponent for a fixed OMQ, never the cost difference between
/// OMQs. Points need `x, y > 0`; 0 when no group has two distinct `x`.
pub fn loglog_slope(points: impl Iterator<Item = (u64, f64, f64)>) -> f64 {
    let mut groups: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for (g, x, y) in points.filter(|&(_, x, y)| x > 0.0 && y > 0.0) {
        groups.entry(g).or_default().push((x.ln(), y.ln()));
    }
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for pts in groups.values() {
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        sxx += pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
        sxy += pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    }
    if sxx < 1e-12 {
        0.0
    } else {
        sxy / sxx
    }
}
