//! Small measuring helpers: quantiles, the input fingerprint hash, and
//! the child process's peak memory.

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `samples`: the
/// `⌈q·n⌉`-th smallest value. 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a, 64 bit. Implemented here rather than borrowed from the
/// program under test, so a change to the program's own content hash
/// cannot change what the benchmark believes its inputs are.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in, followed by a separator byte so that
    /// `["ab", "c"]` and `["a", "bc"]` hash differently.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Mixes a string in.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Mixes a number in.
    pub fn num(&mut self, n: u64) -> &mut Self {
        self.bytes(&n.to_le_bytes())
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_separates_fields() {
        let a = Fnv::default().str("ab").str("c").hex();
        let b = Fnv::default().str("a").str("bc").hex();
        assert_ne!(a, b);
        assert_eq!(a, Fnv::default().str("ab").str("c").hex());
    }
}
