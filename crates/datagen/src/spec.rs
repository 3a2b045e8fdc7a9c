//! Dataset size specifications.
//!
//! The paper's four sizes, labelled genes x patients:
//! Small 5K x 5K, Medium 15K x 20K, Large 30K x 40K, Extra-large 60K x 70K
//! (no system completed the extra-large runs). Benchmarks here default to a
//! geometrically faithful scale-down (÷ ~20.8 per side) so the full matrix of
//! systems finishes quickly; `SizeSpec::scaled(class, 1.0)` is paper size.

/// The paper's named dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 5K genes x 5K patients (paper "small").
    Small,
    /// 15K genes x 20K patients (paper "medium").
    Medium,
    /// 30K genes x 40K patients (paper "large").
    Large,
    /// 60K genes x 70K patients (paper "extra large"; no system finished).
    ExtraLarge,
}

impl SizeClass {
    /// All classes the paper reports results for.
    pub const REPORTED: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Paper-scale gene/patient counts.
    pub fn paper_dims(self) -> (usize, usize) {
        match self {
            SizeClass::Small => (5_000, 5_000),
            SizeClass::Medium => (15_000, 20_000),
            SizeClass::Large => (30_000, 40_000),
            SizeClass::ExtraLarge => (60_000, 70_000),
        }
    }

    /// Chart label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "5k x 5k",
            SizeClass::Medium => "15k x 20k",
            SizeClass::Large => "30k x 40k",
            SizeClass::ExtraLarge => "60k x 70k",
        }
    }

    /// Stable machine-readable identifier (cell keys, CLI flags,
    /// checkpoint files).
    pub fn slug(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
            SizeClass::ExtraLarge => "xlarge",
        }
    }

    /// Inverse of [`SizeClass::slug`].
    pub fn from_slug(slug: &str) -> Option<SizeClass> {
        match slug {
            "small" => Some(SizeClass::Small),
            "medium" => Some(SizeClass::Medium),
            "large" => Some(SizeClass::Large),
            "xlarge" => Some(SizeClass::ExtraLarge),
            _ => None,
        }
    }
}

/// Concrete dataset dimensions handed to the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeSpec {
    /// Number of genes (microarray columns).
    pub genes: usize,
    /// Number of patients (microarray rows).
    pub patients: usize,
    /// Number of GO categories.
    pub go_terms: usize,
}

impl SizeSpec {
    /// Spec scaled down from paper size by `factor` per side (0 < factor <= 1),
    /// preserving the small:medium:large ratios; `factor` 1 is paper size.
    /// GO terms scale with gene count (roughly one category per 12 genes, in
    /// line with GO slim sizes).
    pub fn scaled(class: SizeClass, factor: f64) -> SizeSpec {
        assert!(factor > 0.0 && factor <= 1.0, "factor in (0, 1]");
        let (genes, patients) = class.paper_dims();
        let genes = ((genes as f64 * factor).round() as usize).max(16);
        let patients = ((patients as f64 * factor).round() as usize).max(16);
        SizeSpec {
            genes,
            patients,
            go_terms: (genes / 12).max(8),
        }
    }

    /// The default benchmark scale: paper ÷ 20.833 per side, giving
    /// Small 240x240, Medium 720x960, Large 1440x1920.
    pub fn bench_scale(class: SizeClass) -> SizeSpec {
        Self::scaled(class, 0.048)
    }

    /// Tiny spec for unit/integration tests.
    pub fn tiny() -> SizeSpec {
        SizeSpec {
            genes: 60,
            patients: 50,
            go_terms: 8,
        }
    }

    /// Explicit dimensions.
    pub fn custom(genes: usize, patients: usize, go_terms: usize) -> SizeSpec {
        SizeSpec {
            genes,
            patients,
            go_terms,
        }
    }

    /// Microarray cell count.
    pub fn cells(&self) -> u64 {
        self.genes as u64 * self.patients as u64
    }

    /// Microarray bytes at f64.
    pub fn bytes(&self) -> u64 {
        self.cells() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_paper() {
        assert_eq!(SizeClass::Small.paper_dims(), (5_000, 5_000));
        assert_eq!(SizeClass::Medium.paper_dims(), (15_000, 20_000));
        assert_eq!(SizeClass::Large.paper_dims(), (30_000, 40_000));
        assert_eq!(SizeClass::ExtraLarge.paper_dims(), (60_000, 70_000));
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(SizeClass::Small.label(), "5k x 5k");
        assert_eq!(SizeClass::Large.label(), "30k x 40k");
    }

    #[test]
    fn bench_scale_preserves_ratios() {
        let s = SizeSpec::bench_scale(SizeClass::Small);
        let l = SizeSpec::bench_scale(SizeClass::Large);
        // Large is 6x small in genes, 8x in patients at paper scale.
        let gene_ratio = l.genes as f64 / s.genes as f64;
        let patient_ratio = l.patients as f64 / s.patients as f64;
        assert!((gene_ratio - 6.0).abs() < 0.1, "gene ratio {gene_ratio}");
        assert!(
            (patient_ratio - 8.0).abs() < 0.1,
            "patient ratio {patient_ratio}"
        );
    }

    #[test]
    fn bench_scale_default_dims() {
        let s = SizeSpec::bench_scale(SizeClass::Small);
        assert_eq!((s.genes, s.patients), (240, 240));
        let l = SizeSpec::bench_scale(SizeClass::Large);
        assert_eq!((l.genes, l.patients), (1440, 1920));
    }

    #[test]
    fn cells_and_bytes() {
        let t = SizeSpec::custom(10, 20, 4);
        assert_eq!(t.cells(), 200);
        assert_eq!(t.bytes(), 1600);
    }

    #[test]
    #[should_panic(expected = "factor in (0, 1]")]
    fn scaled_rejects_bad_factor() {
        SizeSpec::scaled(SizeClass::Small, 0.0);
    }
}
