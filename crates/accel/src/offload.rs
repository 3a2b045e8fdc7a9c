//! Offload planning and time estimation.

use crate::device::DeviceSpec;
use crate::profile::OpProfile;

/// Modeled cost of running one operator on the coprocessor.
#[derive(Debug, Clone, Copy)]
pub struct OffloadEstimate {
    /// PCIe transfer seconds (input copy-in; results are small).
    pub transfer_secs: f64,
    /// Device kernel seconds from the roofline.
    pub compute_secs: f64,
    /// True when the working set exceeded device memory and transfers were
    /// inflated to model repeated staging.
    pub capacity_spill: bool,
}

impl OffloadEstimate {
    /// Total modeled offload seconds.
    pub fn total_secs(&self) -> f64 {
        self.transfer_secs + self.compute_secs
    }
}

/// A host + coprocessor pair.
#[derive(Debug, Clone)]
pub struct Coprocessor {
    /// The accelerator.
    pub device: DeviceSpec,
    /// The host it is attached to.
    pub host: DeviceSpec,
}

impl Coprocessor {
    /// The paper's configuration: Xeon Phi 5110P on a dual E5-2620 host.
    pub fn phi_on_e5() -> Coprocessor {
        Coprocessor {
            device: DeviceSpec::xeon_phi_5110p(),
            host: DeviceSpec::xeon_e5_2620_dual(),
        }
    }

    /// Roofline kernel time on an arbitrary device.
    pub fn roofline_secs(spec: &DeviceSpec, profile: &OpProfile) -> f64 {
        let compute = profile.flops / (spec.effective_gflops(profile.vectorizable) * 1e9);
        let memory = profile.bytes / (spec.effective_bw_gbps(profile.vectorizable) * 1e9);
        compute.max(memory)
    }

    /// Modeled host-only time for the operator.
    pub fn host_secs(&self, profile: &OpProfile) -> f64 {
        Self::roofline_secs(&self.host, profile)
    }

    /// Modeled coprocessor time: PCIe copy-in plus device roofline. When
    /// the input exceeds device memory, transfers triple (stream in, evict,
    /// re-stream — the paper's "data sets that do not fit in this memory
    /// will suffer excessive data movement costs").
    pub fn offload_estimate(&self, profile: &OpProfile) -> OffloadEstimate {
        let spill = profile.transfer_bytes > self.device.mem_capacity;
        let effective_bytes = if spill {
            profile.transfer_bytes.saturating_mul(3)
        } else {
            profile.transfer_bytes
        };
        let transfer_secs = effective_bytes as f64 / (self.device.pcie_gbps * 1e9);
        let compute_secs = Self::roofline_secs(&self.device, profile);
        OffloadEstimate {
            transfer_secs,
            compute_secs,
            capacity_spill: spill,
        }
    }

    /// Modeled *kernel-only* speedup (the paper's Table 1 reports analytics
    /// time, with data already staged through SciDB).
    pub fn modeled_kernel_speedup(&self, profile: &OpProfile) -> f64 {
        self.host_secs(profile) / self.offload_estimate(profile).compute_secs
    }

    /// Scale a *measured* host time to the modeled device time, keeping the
    /// model calibrated to reality:
    /// `measured * (t_device_model / t_host_model) + transfer`.
    pub fn scale_measured(&self, measured_host_secs: f64, profile: &OpProfile) -> f64 {
        let est = self.offload_estimate(profile);
        let host_model = self.host_secs(profile);
        if host_model <= 0.0 {
            return measured_host_secs + est.transfer_secs;
        }
        measured_host_secs * (est.compute_secs / host_model) + est.transfer_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end speedup of offloading: host roofline over transfer +
    /// device roofline.
    fn modeled_speedup(co: &Coprocessor, profile: &OpProfile) -> f64 {
        co.host_secs(profile) / co.offload_estimate(profile).total_secs()
    }

    /// Paper-scale large dataset: 40K patients x 30K genes.
    const M: usize = 40_000;
    const N: usize = 30_000;

    #[test]
    fn covariance_speedup_in_paper_range() {
        let co = Coprocessor::phi_on_e5();
        let p = OpProfile::covariance(M, N);
        let s = co.modeled_kernel_speedup(&p);
        // Paper Table 1: covariance 2.60x on one node.
        assert!((1.8..6.0).contains(&s), "covariance kernel speedup {s}");
    }

    #[test]
    fn svd_speedup_in_paper_range() {
        let co = Coprocessor::phi_on_e5();
        let p = OpProfile::svd_lanczos(M, N, 50);
        let s = co.modeled_kernel_speedup(&p);
        // Paper Table 1: SVD 2.93x on one node.
        assert!((1.5..5.0).contains(&s), "svd kernel speedup {s}");
    }

    #[test]
    fn statistics_speedup_modest() {
        let co = Coprocessor::phi_on_e5();
        let stats = OpProfile::statistics(M, N, 2500);
        let cov = OpProfile::covariance(M, N);
        let s_stats = co.modeled_kernel_speedup(&stats);
        let s_cov = co.modeled_kernel_speedup(&cov);
        // Paper: statistics 1.40x vs covariance 2.60x.
        assert!(
            s_stats < s_cov,
            "branchy statistics should gain less: {s_stats} vs {s_cov}"
        );
        assert!(s_stats > 0.8, "but not a slowdown: {s_stats}");
    }

    #[test]
    fn biclustering_barely_helped_end_to_end() {
        let co = Coprocessor::phi_on_e5();
        // Biclustering runs on the small filtered matrix and does little
        // compute — transfer overhead eats the gain.
        let p = OpProfile::biclustering(M / 5, N / 7, 40);
        let s = modeled_speedup(&co, &p);
        assert!(s < 2.0, "biclustering cannot be accelerated much: {s}");
    }

    #[test]
    fn transfer_dominates_small_inputs() {
        let co = Coprocessor::phi_on_e5();
        let p = OpProfile::covariance(240, 240);
        let est = co.offload_estimate(&p);
        // The paper: "for small data sets ... data transfer overheads ...
        // dominate overall runtime".
        assert!(est.transfer_secs > est.compute_secs * 0.1);
        let s = modeled_speedup(&co, &p);
        assert!(s < co.modeled_kernel_speedup(&p));
    }

    #[test]
    fn capacity_spill_inflates_transfers() {
        let co = Coprocessor::phi_on_e5();
        // 60k x 70k doubles = 33.6 GB >> 8 GB of Phi memory.
        let p = OpProfile::covariance(70_000, 60_000);
        let est = co.offload_estimate(&p);
        assert!(est.capacity_spill);
        let fits = OpProfile::covariance(M, N); // 9.6 GB... also spills!
        let est_large = co.offload_estimate(&fits);
        // Paper: "the large data set can fit in the memory of a single
        // Intel Xeon Phi" — their layout held the 30k x 40k matrix in 8 GB
        // (float32 staging). Model that by charging f32 transfer bytes.
        let mut fits32 = fits;
        fits32.transfer_bytes /= 2;
        let est32 = co.offload_estimate(&fits32);
        assert!(!est32.capacity_spill);
        assert!(est_large.transfer_secs > est32.transfer_secs);
    }

    #[test]
    fn scale_measured_consistent_with_model() {
        let co = Coprocessor::phi_on_e5();
        let p = OpProfile::covariance(M, N);
        let host_model = co.host_secs(&p);
        // If the measurement equals the model exactly, scaling returns the
        // device estimate exactly.
        let scaled = co.scale_measured(host_model, &p);
        let est = co.offload_estimate(&p);
        assert!((scaled - est.total_secs()).abs() < 1e-9);
        // Twice-slower measurement scales proportionally (minus transfer).
        let scaled2 = co.scale_measured(2.0 * host_model, &p);
        assert!((scaled2 - (2.0 * est.compute_secs + est.transfer_secs)).abs() < 1e-9);
    }

    #[test]
    fn roofline_picks_binding_constraint() {
        let spec = DeviceSpec::xeon_phi_5110p();
        // Pure compute profile.
        let compute = OpProfile {
            flops: 1e12,
            bytes: 1.0,
            vectorizable: 1.0,
            transfer_bytes: 0,
        };
        // Pure streaming profile.
        let stream = OpProfile {
            flops: 1.0,
            bytes: 1e12,
            vectorizable: 1.0,
            transfer_bytes: 0,
        };
        let tc = Coprocessor::roofline_secs(&spec, &compute);
        let ts = Coprocessor::roofline_secs(&spec, &stream);
        assert!((tc - 1e12 / (spec.effective_gflops(1.0) * 1e9)).abs() < 1e-9);
        assert!((ts - 1e12 / (spec.effective_bw_gbps(1.0) * 1e9)).abs() < 1e-9);
    }
}
