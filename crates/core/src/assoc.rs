//! Associativity descriptions shared by the TLB and the prediction tables.
//!
//! The paper sweeps direct-mapped (D), 2-way, 4-way and fully-associative
//! (F) organisations for both the prediction tables (Figures 7 and 9) and
//! the TLB itself; [`Associativity`] captures that axis once so every
//! structure interprets it identically.

use std::fmt;
use std::num::NonZeroUsize;

use serde::{Deserialize, Serialize};

/// How a fixed-capacity structure maps a key to a set of candidate ways.
///
/// # Examples
///
/// ```
/// use tlbsim_core::Associativity;
///
/// let a = Associativity::SetAssociative(std::num::NonZeroUsize::new(4).unwrap());
/// assert_eq!(a.ways(128), 4);
/// assert_eq!(a.sets(128).unwrap(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Associativity {
    /// One way per set: a key maps to exactly one slot ("D" in the paper).
    Direct,
    /// `n` ways per set ("2" / "4" in the paper).
    SetAssociative(NonZeroUsize),
    /// A single set containing every way ("F" in the paper).
    Full,
}

/// Error returned when an associativity does not divide a capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidGeometry {
    capacity: usize,
    ways: usize,
}

impl fmt::Display for InvalidGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capacity {} is not divisible into sets of {} ways",
            self.capacity, self.ways
        )
    }
}

impl std::error::Error for InvalidGeometry {}

impl Associativity {
    /// Convenience constructor for `n`-way set associativity.
    ///
    /// `ways(1)` is [`Associativity::Direct`]; other values produce
    /// [`Associativity::SetAssociative`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn ways_of(n: usize) -> Associativity {
        match n {
            0 => panic!("associativity of zero ways is meaningless"),
            1 => Associativity::Direct,
            n => Associativity::SetAssociative(NonZeroUsize::new(n).expect("nonzero")),
        }
    }

    /// Number of ways per set for a structure of `capacity` entries.
    pub fn ways(self, capacity: usize) -> usize {
        match self {
            Associativity::Direct => 1,
            Associativity::SetAssociative(n) => n.get().min(capacity.max(1)),
            Associativity::Full => capacity.max(1),
        }
    }

    /// Number of sets for a structure of `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if the way count does not evenly divide
    /// `capacity`.
    pub fn sets(self, capacity: usize) -> Result<usize, InvalidGeometry> {
        let ways = self.ways(capacity);
        if capacity == 0 || ways == 0 || !capacity.is_multiple_of(ways) {
            return Err(InvalidGeometry { capacity, ways });
        }
        Ok(capacity / ways)
    }
}

/// The paper's figure-legend form: `D`, `2`, `4`, `F`.
impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Associativity::Direct => f.write_str("D"),
            Associativity::SetAssociative(n) => write!(f, "{n}"),
            Associativity::Full => f.write_str("F"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ways_of_one_is_direct() {
        assert_eq!(Associativity::ways_of(1), Associativity::Direct);
        assert_eq!(Associativity::ways_of(2).ways(64), 2);
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn ways_of_zero_panics() {
        let _ = Associativity::ways_of(0);
    }

    #[test]
    fn full_assoc_is_one_set() {
        assert_eq!(Associativity::Full.sets(128).unwrap(), 1);
        assert_eq!(Associativity::Full.ways(128), 128);
    }

    #[test]
    fn direct_mapped_is_one_way() {
        assert_eq!(Associativity::Direct.sets(256).unwrap(), 256);
        assert_eq!(Associativity::Direct.ways(256), 1);
    }

    #[test]
    fn non_dividing_geometry_is_rejected() {
        let a = Associativity::ways_of(3);
        let err = a.sets(64).unwrap_err();
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(Associativity::Direct.sets(0).is_err());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Associativity::Direct.to_string(), "D");
        assert_eq!(Associativity::ways_of(4).to_string(), "4");
        assert_eq!(Associativity::Full.to_string(), "F");
    }

    #[test]
    fn set_assoc_ways_capped_by_capacity() {
        // A 2-entry structure cannot have 4 ways; it degrades gracefully.
        assert_eq!(Associativity::ways_of(4).ways(2), 2);
    }
}
