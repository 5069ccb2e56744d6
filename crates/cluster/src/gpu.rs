//! GPU catalogue (paper Table 3).

use std::fmt;

/// GPU models considered by the paper (Tables 2–4 and the evaluation
/// clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuType {
    /// NVIDIA H100 SXM (80 GB).
    H100,
    /// NVIDIA A100 SXM 80 GB.
    A100_80,
    /// NVIDIA A100 SXM 40 GB (the "A100" of the paper's clusters).
    A100_40,
    /// NVIDIA V100 16 GB.
    V100,
    /// NVIDIA L4 24 GB.
    L4,
    /// NVIDIA T4 16 GB.
    T4,
}

impl GpuType {
    /// All catalogue entries, from most to least capable.
    pub const ALL: [GpuType; 6] = [
        GpuType::H100,
        GpuType::A100_80,
        GpuType::A100_40,
        GpuType::V100,
        GpuType::L4,
        GpuType::T4,
    ];

    /// Hardware specification of this GPU (paper Table 3, NVIDIA data
    /// sheets for V100).
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuType::H100 => GpuSpec {
                gpu: self,
                fp16_tflops: 1979.0,
                memory_gb: 80.0,
                memory_bandwidth_gbps: 3350.0,
                power_watts: 700.0,
                price_usd: 32_500.0,
            },
            GpuType::A100_80 => GpuSpec {
                gpu: self,
                fp16_tflops: 312.0,
                memory_gb: 80.0,
                memory_bandwidth_gbps: 2039.0,
                power_watts: 400.0,
                price_usd: 15_000.0,
            },
            GpuType::A100_40 => GpuSpec {
                gpu: self,
                fp16_tflops: 312.0,
                memory_gb: 40.0,
                memory_bandwidth_gbps: 1555.0,
                power_watts: 400.0,
                price_usd: 12_500.0,
            },
            GpuType::V100 => GpuSpec {
                gpu: self,
                fp16_tflops: 125.0,
                memory_gb: 16.0,
                memory_bandwidth_gbps: 900.0,
                power_watts: 300.0,
                price_usd: 8_000.0,
            },
            GpuType::L4 => GpuSpec {
                gpu: self,
                fp16_tflops: 242.0,
                memory_gb: 24.0,
                memory_bandwidth_gbps: 300.0,
                power_watts: 72.0,
                price_usd: 3_000.0,
            },
            GpuType::T4 => GpuSpec {
                gpu: self,
                fp16_tflops: 65.0,
                memory_gb: 16.0,
                memory_bandwidth_gbps: 300.0,
                power_watts: 70.0,
                price_usd: 1_000.0,
            },
        }
    }

    /// Short display name, matching the paper's usage ("A100" means the
    /// 40 GB SXM part used in the evaluation clusters).
    pub fn short_name(self) -> &'static str {
        match self {
            GpuType::H100 => "H100",
            GpuType::A100_80 => "A100-80GB",
            GpuType::A100_40 => "A100",
            GpuType::V100 => "V100",
            GpuType::L4 => "L4",
            GpuType::T4 => "T4",
        }
    }
}

impl fmt::Display for GpuType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Hardware characteristics of one GPU (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Which GPU this spec describes.
    pub gpu: GpuType,
    /// Peak FP16 tensor throughput in TFLOP/s.
    pub fp16_tflops: f64,
    /// VRAM capacity in GB.
    pub memory_gb: f64,
    /// Memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Board power in watts.
    pub power_watts: f64,
    /// Approximate street price in USD.
    pub price_usd: f64,
}

impl GpuSpec {
    /// VRAM capacity in bytes.
    pub fn memory_bytes(&self) -> f64 {
        self.memory_gb * 1e9
    }

    /// FP16 throughput in FLOP/s.
    pub fn fp16_flops(&self) -> f64 {
        self.fp16_tflops * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_table_3() {
        assert_eq!(GpuType::H100.spec().fp16_tflops, 1979.0);
        assert_eq!(GpuType::A100_40.spec().memory_gb, 40.0);
        assert_eq!(GpuType::L4.spec().memory_gb, 24.0);
        assert_eq!(GpuType::T4.spec().fp16_tflops, 65.0);
        assert_eq!(GpuType::T4.spec().memory_bandwidth_gbps, 300.0);
    }

    #[test]
    fn ordering_of_compute_capability() {
        // The paper's examples rely on A100 > L4 > T4 in compute capacity.
        let a100 = GpuType::A100_40.spec().fp16_tflops;
        let l4 = GpuType::L4.spec().fp16_tflops;
        let t4 = GpuType::T4.spec().fp16_tflops;
        assert!(a100 > l4 && l4 > t4);
    }

    #[test]
    fn eight_l4_match_one_h100_claim() {
        // Intro claim: eight L4s offer comparable FP16 compute to one H100
        // with more total memory and lower power.
        let l4 = GpuType::L4.spec();
        let h100 = GpuType::H100.spec();
        assert!(8.0 * l4.fp16_tflops > 0.9 * h100.fp16_tflops);
        assert!(8.0 * l4.memory_gb > h100.memory_gb);
        assert!(8.0 * l4.power_watts < h100.power_watts);
    }

    #[test]
    fn unit_conversions() {
        let t4 = GpuType::T4.spec();
        assert_eq!(t4.memory_bytes(), 16e9);
        assert_eq!(t4.fp16_flops(), 65e12);
    }

    #[test]
    fn display_names() {
        assert_eq!(GpuType::A100_40.to_string(), "A100");
        assert_eq!(GpuType::A100_80.to_string(), "A100-80GB");
        assert_eq!(GpuType::ALL.len(), 6);
    }
}
