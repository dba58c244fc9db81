//! Memory-model fragments ("policies") — C11Tester vs. the tsan11 family.
//!
//! The paper's comparison hinges on one restriction (§1.1, §2.2): tsan11
//! and tsan11rec require `hb ∪ sc ∪ rf ∪ mo` to be acyclic, which forces
//! the modification order of every location to embed in the order the
//! tool executed the stores. C11Tester only requires `hb ∪ sc ∪ rf`
//! acyclic and keeps `mo` constraint-based, admitting executions (e.g.
//! ARM-observable ones) the tsan11 family cannot produce — and therefore
//! bugs they cannot find.
//!
//! We realize the restriction *inside the same engine*: under the
//! restricted policies, every new store receives an mo edge from the
//! previous store (in execution order) to the same location. That makes
//! `mo` total and execution-consistent, and the ordinary feasibility
//! check then rejects exactly the weak reads tsan11 forbids.

use std::fmt;

/// Which fragment of the C/C++ memory model the engine enforces.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Policy {
    /// The paper's fragment: `hb ∪ sc ∪ rf` acyclic, constraint-based
    /// modification order (§2.2).
    #[default]
    C11Tester,
    /// tsan11's fragment: additionally `mo` embeds in execution order
    /// (`hb ∪ sc ∪ rf ∪ mo` acyclic). Combined with an uncontrolled,
    /// bursty scheduler by the harness layer.
    Tsan11,
    /// tsan11rec's fragment: same restricted memory model as tsan11,
    /// combined with controlled scheduling by the harness layer.
    Tsan11Rec,
}

impl Policy {
    /// True if the policy forces `mo` to embed in execution order.
    pub fn restricts_mo(self) -> bool {
        matches!(self, Policy::Tsan11 | Policy::Tsan11Rec)
    }

    /// True if the policy conservatively strengthens every atomic RMW
    /// to acq_rel, as the ThreadSanitizer family does for its location
    /// sync clocks. This coarser synchronization is a key reason the
    /// tsan11 tools miss the paper's §8.1 injected bugs: a buggy
    /// *relaxed* CAS/fetch_add still synchronizes under their model, so
    /// the downstream data race never materializes.
    pub fn strengthens_rmw(self) -> bool {
        matches!(self, Policy::Tsan11 | Policy::Tsan11Rec)
    }

    /// The effective order of an RMW under this policy.
    pub fn effective_rmw_order(self, order: crate::MemOrder) -> crate::MemOrder {
        use crate::MemOrder;
        if self.strengthens_rmw() && !matches!(order, MemOrder::SeqCst) {
            MemOrder::AcqRel
        } else {
            order
        }
    }

    /// True if the harness should sequentialize scheduling decisions at
    /// every visible operation (C11Tester and tsan11rec control the
    /// schedule; tsan11 leaves it to the OS, which the harness emulates
    /// with long random bursts).
    pub fn controls_schedule(self) -> bool {
        !matches!(self, Policy::Tsan11)
    }

    /// Short human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Policy::C11Tester => "C11Tester",
            Policy::Tsan11 => "tsan11",
            Policy::Tsan11Rec => "tsan11rec",
        }
    }

    /// All policies, in the order the paper's tables list them.
    pub fn all() -> [Policy; 3] {
        [Policy::C11Tester, Policy::Tsan11Rec, Policy::Tsan11]
    }

    /// The inverse of [`Policy::name`], ASCII-case-insensitive (CLI
    /// flags spell it `c11tester`).
    pub fn parse(name: &str) -> Result<Policy, String> {
        Policy::all()
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let valid = Policy::all().map(Policy::name).join(", ");
                format!("unknown policy `{name}` (expected one of: {valid})")
            })
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restriction_flags() {
        assert!(!Policy::C11Tester.restricts_mo());
        assert!(Policy::Tsan11.restricts_mo());
        assert!(Policy::Tsan11Rec.restricts_mo());
        assert!(Policy::C11Tester.controls_schedule());
        assert!(Policy::Tsan11Rec.controls_schedule());
        assert!(!Policy::Tsan11.controls_schedule());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Policy::C11Tester.to_string(), "C11Tester");
        assert_eq!(Policy::Tsan11.to_string(), "tsan11");
        assert_eq!(Policy::Tsan11Rec.to_string(), "tsan11rec");
        assert_eq!(Policy::default(), Policy::C11Tester);
    }

    #[test]
    fn parse_round_trips_every_name_and_lists_them_on_rejection() {
        for policy in Policy::all() {
            assert_eq!(Policy::parse(policy.name()), Ok(policy));
            assert_eq!(Policy::parse(&policy.name().to_lowercase()), Ok(policy));
            assert_eq!(Policy::parse(&policy.name().to_uppercase()), Ok(policy));
        }
        assert_eq!(
            Policy::parse("tsan12"),
            Err("unknown policy `tsan12` (expected one of: C11Tester, tsan11rec, tsan11)".into())
        );
        assert!(Policy::parse("").is_err());
    }
}
