//! The package-level CPU↔FPGA interconnect model.
//!
//! On the paper's HARPv2 substrate the FPGA chiplet reaches host memory over
//! one cache-coherent UPI link and two PCIe links, giving a theoretical
//! 28.8 GB/s of uni-directional bandwidth of which roughly 17–18 GB/s is
//! achievable; the EB-Streamer sustains about 68 % of that on sparse gather
//! traffic (11.9 GB/s measured in the paper). The model also exposes the
//! *cache-bypassing* route of the proposed chiplet architecture (Figure 8),
//! which provisions bandwidth commensurate with the DRAM peak — used by the
//! forward-looking ablation benches.

use serde::{Deserialize, Serialize};

/// Which path FPGA-originated memory requests take to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LinkPath {
    /// Through the CPU cache hierarchy over the coherent links (HARPv2's
    /// only option, and Centaur's default).
    #[default]
    CacheCoherent,
    /// Directly to the memory controller, bypassing the CPU caches
    /// (the proposed future design point of Section IV-B / VII).
    CacheBypass,
}

/// Static description of the CPU↔FPGA communication fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipletLinkConfig {
    /// Number of PCIe links between the chiplets.
    pub pcie_links: usize,
    /// Peak bandwidth of each PCIe link in GB/s.
    pub pcie_gbs_each: f64,
    /// Peak bandwidth of the coherent UPI link in GB/s.
    pub upi_gbs: f64,
    /// Fraction of the theoretical bandwidth that is achievable for bulk
    /// transfers (protocol and coherence overheads).
    pub achievable_fraction: f64,
    /// Fraction of the *achievable* bandwidth the EB-Streamer sustains on
    /// sparse 64–128 B gather traffic.
    pub streamer_efficiency: f64,
    /// One-way request latency over the link in nanoseconds.
    pub request_latency_ns: f64,
    /// Maximum outstanding read requests the FPGA keeps in flight.
    pub max_outstanding: usize,
    /// Bandwidth of the cache-bypassing path in GB/s (only meaningful when
    /// [`LinkPath::CacheBypass`] is selected; future design point).
    pub bypass_gbs: f64,
    /// Which path gather traffic uses.
    pub path: LinkPath,
}

impl ChipletLinkConfig {
    /// The Intel HARPv2 proof-of-concept substrate used by the paper:
    /// 2 × PCIe + 1 × UPI, 28.8 GB/s theoretical, ~17.5 GB/s effective.
    pub fn harpv2() -> Self {
        ChipletLinkConfig {
            pcie_links: 2,
            pcie_gbs_each: 8.0,
            upi_gbs: 12.8,
            achievable_fraction: 0.61,
            streamer_efficiency: 0.70,
            request_latency_ns: 600.0,
            max_outstanding: 64,
            bypass_gbs: 76.8,
            path: LinkPath::CacheCoherent,
        }
    }

    /// A forward-looking chiplet package with high-bandwidth die-to-die
    /// signalling (hundreds of GB/s, Section VII) and a cache-bypass path.
    pub fn future_chiplet(bandwidth_gbs: f64) -> Self {
        ChipletLinkConfig {
            pcie_links: 0,
            pcie_gbs_each: 0.0,
            upi_gbs: bandwidth_gbs,
            achievable_fraction: 0.85,
            streamer_efficiency: 0.9,
            request_latency_ns: 150.0,
            max_outstanding: 256,
            bypass_gbs: bandwidth_gbs,
            path: LinkPath::CacheBypass,
        }
    }

    /// Theoretical uni-directional bandwidth in GB/s (28.8 for HARPv2).
    pub fn theoretical_bandwidth_gbs(&self) -> f64 {
        self.pcie_links as f64 * self.pcie_gbs_each + self.upi_gbs
    }

    /// Achievable bulk-transfer bandwidth in GB/s (~17.5 for HARPv2).
    pub fn effective_bandwidth_gbs(&self) -> f64 {
        match self.path {
            LinkPath::CacheCoherent => self.theoretical_bandwidth_gbs() * self.achievable_fraction,
            LinkPath::CacheBypass => self.bypass_gbs * self.achievable_fraction,
        }
    }

    /// Bandwidth the EB-Streamer sustains on sparse gather traffic in GB/s
    /// (~12 for HARPv2).
    pub fn streamer_bandwidth_gbs(&self) -> f64 {
        self.effective_bandwidth_gbs() * self.streamer_efficiency
    }

    /// Time in nanoseconds for a bulk (sequential) transfer of `bytes` over
    /// the link, e.g. the sparse-index array or dense features.
    pub fn bulk_transfer_ns(&self, bytes: u64) -> f64 {
        self.request_latency_ns + bytes as f64 / self.effective_bandwidth_gbs()
    }

    /// Time in nanoseconds to stream `bytes` of scattered gather traffic
    /// (`requests` individual reads) into the FPGA.
    ///
    /// The stream is bandwidth-bound at [`Self::streamer_bandwidth_gbs`]
    /// once enough requests are in flight; with few requests it is
    /// latency-bound by the pipelined request window.
    pub fn gather_stream_ns(&self, bytes: u64, requests: u64) -> f64 {
        if requests == 0 || bytes == 0 {
            return 0.0;
        }
        let bandwidth_bound_ns = bytes as f64 / self.streamer_bandwidth_gbs();
        // With `max_outstanding` requests pipelined over a link with
        // `request_latency_ns` round-trip, the issue-limited time is:
        let latency_bound_ns =
            requests as f64 * self.request_latency_ns / self.max_outstanding as f64;
        self.request_latency_ns + bandwidth_bound_ns.max(latency_bound_ns)
    }
}

impl Default for ChipletLinkConfig {
    fn default() -> Self {
        ChipletLinkConfig::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harpv2_bandwidth_matches_paper() {
        let link = ChipletLinkConfig::harpv2();
        assert!((link.theoretical_bandwidth_gbs() - 28.8).abs() < 1e-9);
        let effective = link.effective_bandwidth_gbs();
        assert!(
            (17.0..18.5).contains(&effective),
            "effective {effective:.1} GB/s should be ~17-18"
        );
        let streamer = link.streamer_bandwidth_gbs();
        assert!(
            (11.0..13.5).contains(&streamer),
            "streamer {streamer:.1} GB/s should be ~12"
        );
    }

    #[test]
    fn gather_stream_is_bandwidth_bound_for_large_transfers() {
        let link = ChipletLinkConfig::harpv2();
        let bytes = 64 * 1024 * 1024u64;
        let t = link.gather_stream_ns(bytes, bytes / 128);
        let implied_gbs = bytes as f64 / t;
        assert!((implied_gbs - link.streamer_bandwidth_gbs()).abs() < 0.5);
    }

    #[test]
    fn gather_stream_is_latency_bound_for_tiny_transfers() {
        let link = ChipletLinkConfig::harpv2();
        let t = link.gather_stream_ns(128, 1);
        assert!(t >= link.request_latency_ns);
        assert_eq!(link.gather_stream_ns(0, 0), 0.0);
    }

    #[test]
    fn gather_stream_monotonic_in_bytes() {
        let link = ChipletLinkConfig::harpv2();
        let mut prev = 0.0;
        for i in 1..20u64 {
            let t = link.gather_stream_ns(i * 128 * 100, i * 100);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn bulk_transfer_accounts_latency_and_bandwidth() {
        let link = ChipletLinkConfig::harpv2();
        let small = link.bulk_transfer_ns(64);
        assert!(small >= link.request_latency_ns);
        let big = link.bulk_transfer_ns(1 << 30);
        assert!(big > (1u64 << 30) as f64 / link.effective_bandwidth_gbs());
    }

    #[test]
    fn future_chiplet_is_much_faster() {
        let harp = ChipletLinkConfig::harpv2();
        let future = ChipletLinkConfig::future_chiplet(400.0);
        assert!(future.streamer_bandwidth_gbs() > 5.0 * harp.streamer_bandwidth_gbs());
        assert_eq!(future.path, LinkPath::CacheBypass);
        let bytes = 64 * 1024 * 1024u64;
        assert!(
            future.gather_stream_ns(bytes, bytes / 128) < harp.gather_stream_ns(bytes, bytes / 128)
        );
    }
}
