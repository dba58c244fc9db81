//! Race report types.

use c11tester_core::{ObjId, ThreadId};
use std::fmt;

/// How an access participated in the model.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// A plain, non-atomic access.
    NonAtomic,
    /// A C/C++11 atomic access.
    Atomic,
    /// A legacy volatile access converted to an atomic access (§7.2).
    Volatile,
}

/// The conflict shape of a detected race.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceKind {
    /// Current write conflicts with a prior write.
    WriteAfterWrite,
    /// Current write conflicts with a prior read.
    WriteAfterRead,
    /// Current read conflicts with a prior write.
    ReadAfterWrite,
}

impl AccessKind {
    /// Every access kind.
    pub const ALL: [AccessKind; 3] = [
        AccessKind::NonAtomic,
        AccessKind::Atomic,
        AccessKind::Volatile,
    ];

    /// Stable name used in JSON reports and on the fork-server wire.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::NonAtomic => "non-atomic",
            AccessKind::Atomic => "atomic",
            AccessKind::Volatile => "volatile",
        }
    }

    /// The inverse of [`AccessKind::name`].
    pub fn parse(name: &str) -> Result<AccessKind, String> {
        AccessKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown access kind `{name}`"))
    }
}

impl RaceKind {
    /// Every race kind.
    pub const ALL: [RaceKind; 3] = [
        RaceKind::WriteAfterWrite,
        RaceKind::WriteAfterRead,
        RaceKind::ReadAfterWrite,
    ];

    /// Stable name used in JSON reports, on the fork-server wire, and by
    /// `Display`.
    pub fn name(self) -> &'static str {
        match self {
            RaceKind::WriteAfterWrite => "write-write",
            RaceKind::WriteAfterRead => "write-read",
            RaceKind::ReadAfterWrite => "read-write",
        }
    }

    /// The inverse of [`RaceKind::name`].
    pub fn parse(name: &str) -> Result<RaceKind, String> {
        RaceKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown race kind `{name}`"))
    }
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deduplicated data-race report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Human-readable location label (registered by the test program).
    pub label: String,
    /// The racing object.
    pub obj: ObjId,
    /// Cell offset within the object (array element, 0 for scalars).
    pub offset: u32,
    /// Conflict shape.
    pub kind: RaceKind,
    /// Thread performing the access that completed the race.
    pub current_tid: ThreadId,
    /// Kind of the current access.
    pub current_kind: AccessKind,
    /// Thread that performed the earlier conflicting access.
    pub prior_tid: ThreadId,
    /// Whether the earlier access was atomic (incl. volatile).
    pub prior_atomic: bool,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race ({kind}) on `{label}`[{off}]: {cur:?} ({ck:?}) vs {prev:?} ({pk})",
            kind = self.kind,
            label = self.label,
            off = self.offset,
            cur = self.current_tid,
            ck = self.current_kind,
            prev = self.prior_tid,
            pk = if self.prior_atomic {
                "atomic"
            } else {
                "non-atomic"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_is_informative() {
        let r = RaceReport {
            label: "seqlock.data".into(),
            obj: ObjId(3),
            offset: 0,
            kind: RaceKind::WriteAfterRead,
            current_tid: ThreadId::from_index(1),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(2),
            prior_atomic: false,
        };
        let s = r.to_string();
        assert!(s.contains("seqlock.data"));
        assert!(s.contains("write-read"));
        assert!(s.contains("T1"));
        assert!(s.contains("T2"));
    }

    #[test]
    fn names_round_trip_and_match_display() {
        for kind in RaceKind::ALL {
            assert_eq!(kind.name(), kind.to_string());
            assert_eq!(RaceKind::parse(kind.name()), Ok(kind));
        }
        for kind in AccessKind::ALL {
            assert_eq!(AccessKind::parse(kind.name()), Ok(kind));
        }
        assert!(RaceKind::parse("nope").is_err());
        assert!(AccessKind::parse("nope").is_err());
    }
}
