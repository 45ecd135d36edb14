//! The CTI kernel tier.
//!
//! Every cumulative-trust sum runs the one scalar f64 fold in
//! [`crate::trust::TrustTable::cumulative_trust`]; there is no vector
//! dispatch. This module only names that tier, so benchmark reports can
//! record which kernel produced their numbers.

/// A CTI kernel tier. The scalar fold is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The sequential group-order f64 fold.
    Scalar,
}

impl Tier {
    /// Stable lowercase name, as printed in benchmark reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
        }
    }
}

/// The tier every CTI fold runs on.
#[must_use]
pub fn active_tier() -> Tier {
    Tier::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_tier_is_scalar() {
        assert_eq!(active_tier().name(), "scalar");
    }
}
