//! Pairwise end-to-end bandwidth between devices.

use serde::{Deserialize, Serialize};

/// The available end-to-end bandwidth `b(i, j)` between every device pair,
/// in Mbps.
///
/// Stored symmetrically (`b(i, j) == b(j, i)`), matching the paper's
/// experiments which specify one bandwidth per unordered device pair
/// (e.g. `b_{1,2} = 50 Mbps`). The diagonal is infinite: co-located
/// components communicate through memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthMatrix {
    n: usize,
    /// Upper triangle, row-major: entry for `(i, j)` with `i < j`.
    upper: Vec<f64>,
}

impl BandwidthMatrix {
    /// Creates a matrix for `n` devices with every pair set to
    /// `default_mbps`.
    pub fn uniform(n: usize, default_mbps: f64) -> Self {
        BandwidthMatrix {
            n,
            upper: vec![default_mbps; n * n.saturating_sub(1) / 2],
        }
    }

    /// The number of devices.
    pub fn device_count(&self) -> usize {
        self.n
    }

    /// The bandwidth between devices `i` and `j`, `f64::INFINITY` on the
    /// diagonal.
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            assert!(i < self.n, "device index out of range");
            return f64::INFINITY;
        }
        self.upper[self.flat(i, j)]
    }

    /// Sets the bandwidth between devices `i` and `j` (both directions).
    ///
    /// # Panics
    ///
    /// Panics when `i == j`, an index is out of range, or `mbps` is
    /// negative/non-finite.
    pub fn set(&mut self, i: usize, j: usize, mbps: f64) {
        assert!(i != j, "cannot set the diagonal");
        assert!(mbps.is_finite() && mbps >= 0.0, "invalid bandwidth {mbps}");
        let idx = self.flat(i, j);
        self.upper[idx] = mbps;
    }

    /// The bandwidth of every unordered pair `i < j`, in
    /// [`BandwidthMatrix::pairs`] order, as one slice.
    pub fn packed(&self) -> &[f64] {
        &self.upper
    }

    /// Iterates over `(i, j, bandwidth)` for every unordered pair `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.get(i, j))))
    }

    fn flat(&self, i: usize, j: usize) -> usize {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        assert!(hi < self.n, "device index out of range");
        // Offset of row `lo` in the packed upper triangle.
        lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_symmetric() {
        let mut m = BandwidthMatrix::uniform(3, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.set(0, 1, 50.0);
        assert_eq!(m.get(0, 1), 50.0);
        assert_eq!(m.get(1, 0), 50.0, "symmetric");
        assert_eq!(m.get(1, 2), 5.0, "other pairs untouched");
        assert_eq!(m.get(0, 2), 5.0);
    }

    #[test]
    fn diagonal_is_infinite() {
        let m = BandwidthMatrix::uniform(2, 1.0);
        assert_eq!(m.get(0, 0), f64::INFINITY);
        assert_eq!(m.get(1, 1), f64::INFINITY);
    }

    #[test]
    fn figure5_topology() {
        // b(1,2)=50, b(1,3)=5, b(2,3)=5 (paper indices are 1-based).
        let mut m = BandwidthMatrix::uniform(3, 5.0);
        m.set(0, 1, 50.0);
        assert_eq!(m.get(0, 1), 50.0);
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (0, 1, 50.0));
    }

    #[test]
    #[should_panic(expected = "device index out of range")]
    fn out_of_range_get_panics() {
        let m = BandwidthMatrix::uniform(2, 1.0);
        let _ = m.get(0, 5);
    }

    #[test]
    #[should_panic(expected = "cannot set the diagonal")]
    fn setting_diagonal_panics() {
        let mut m = BandwidthMatrix::uniform(2, 1.0);
        m.set(1, 1, 10.0);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn negative_bandwidth_panics() {
        let mut m = BandwidthMatrix::uniform(2, 1.0);
        m.set(0, 1, -1.0);
    }

    #[test]
    fn single_device_has_no_pairs() {
        let m = BandwidthMatrix::uniform(1, 1.0);
        assert_eq!(m.pairs().count(), 0);
        assert_eq!(m.get(0, 0), f64::INFINITY);
    }
}
