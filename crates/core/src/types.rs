//! Base address-space types shared by every subsystem of the simulator.
//!
//! All quantities are newtypes ([`VirtAddr`], [`VirtPage`], [`PhysPage`],
//! [`Pc`], [`Distance`]) so that page numbers, byte addresses, and signed
//! page deltas cannot be confused at compile time — the *distance* between
//! two TLB misses is the quantity the paper's contribution is built on, so
//! it gets a first-class signed type.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A virtual byte address as issued by the CPU.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{PageSize, VirtAddr};
///
/// let addr = VirtAddr::new(0x1234_5678);
/// let page = PageSize::DEFAULT.page_of(addr);
/// assert_eq!(page.number(), 0x1234_5678 >> 12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A virtual page number (a byte address shifted right by the page-size
/// bits).
///
/// The TLB, the prefetch buffer, and every prefetcher operate at page
/// granularity; this is the key type of the whole system.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{Distance, VirtPage};
///
/// let a = VirtPage::new(10);
/// let b = VirtPage::new(13);
/// assert_eq!(b.distance_from(a), Distance::new(3));
/// assert_eq!(a.offset(Distance::new(3)), Some(b));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtPage(u64);

impl VirtPage {
    /// Creates a virtual page from a raw page number.
    pub const fn new(number: u64) -> Self {
        VirtPage(number)
    }

    /// Returns the raw page number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the signed page distance from `earlier` to `self`
    /// (i.e. `self - earlier`), saturating at the `i64` range.
    pub fn distance_from(self, earlier: VirtPage) -> Distance {
        Distance(self.0.wrapping_sub(earlier.0) as i64)
    }

    /// Returns the page at `self + distance`, or `None` if the result
    /// would fall outside the virtual address space (below zero or above
    /// `u64::MAX`).
    pub fn offset(self, distance: Distance) -> Option<VirtPage> {
        let d = distance.value();
        if d >= 0 {
            self.0.checked_add(d as u64).map(VirtPage)
        } else {
            self.0.checked_sub(d.unsigned_abs()).map(VirtPage)
        }
    }

    /// Returns the next sequential page, or `None` on overflow.
    ///
    /// This is the page the tagged sequential prefetcher fetches.
    pub fn next(self) -> Option<VirtPage> {
        self.0.checked_add(1).map(VirtPage)
    }
}

impl From<u64> for VirtPage {
    fn from(number: u64) -> Self {
        VirtPage(number)
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp:{:#x}", self.0)
    }
}

/// A physical page-frame number produced by the page table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysPage(u64);

impl PhysPage {
    /// Creates a physical frame from a raw frame number.
    pub const fn new(number: u64) -> Self {
        PhysPage(number)
    }

    /// Returns the raw frame number.
    pub const fn number(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PhysPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pp:{:#x}", self.0)
    }
}

/// An address-space identifier: the tag that scopes translation and
/// prediction state to one execution context.
///
/// Tagging the TLB, the prefetch buffer, and the prediction tables with
/// an ASID turns a context switch into a register write instead of a
/// flush — the flush-free multiprogramming model. Single-stream runs
/// leave every structure tagged with [`Asid::DEFAULT`], so the tag is
/// invisible (bit-identical) until a multiprogrammed run starts
/// switching it.
///
/// # Examples
///
/// ```
/// use tlbsim_core::Asid;
///
/// let a = Asid::new(7);
/// assert_eq!(a.raw(), 7);
/// assert_eq!(a.index(), 7);
/// assert_eq!(Asid::default(), Asid::DEFAULT);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Asid(u16);

impl Asid {
    /// The default context: what every structure is tagged with until a
    /// multiprogrammed run installs another ASID.
    pub const DEFAULT: Asid = Asid(0);

    /// Creates an ASID from a raw context number.
    pub const fn new(raw: u16) -> Self {
        Asid(raw)
    }

    /// Returns the raw context number.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns the context number widened for indexing per-context state
    /// banks.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for Asid {
    fn from(raw: u16) -> Self {
        Asid(raw)
    }
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid:{}", self.0)
    }
}

/// A program-counter value.
///
/// The arbitrary-stride prefetcher (ASP) indexes its reference prediction
/// table by the PC of the instruction that caused the TLB miss.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter from a raw value.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw PC value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

/// A signed page-granularity delta between two successive references.
///
/// The paper uses "distance" and "stride" interchangeably (§2, footnote 1);
/// this type is what the distance prefetcher's prediction table is indexed
/// by and what its slots contain.
///
/// # Examples
///
/// ```
/// use tlbsim_core::Distance;
///
/// let d = Distance::new(-2);
/// assert_eq!(d.value(), -2);
/// assert!(d.is_backward());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Distance(i64);

impl Distance {
    /// The zero distance (a repeated miss to the same page).
    pub const ZERO: Distance = Distance(0);

    /// The unit forward distance captured by sequential prefetching.
    pub const ONE: Distance = Distance(1);

    /// Creates a distance from a signed page delta.
    pub const fn new(value: i64) -> Self {
        Distance(value)
    }

    /// Returns the signed page delta.
    pub const fn value(self) -> i64 {
        self.0
    }

    /// Returns `true` for strictly forward (positive) distances.
    pub const fn is_forward(self) -> bool {
        self.0 > 0
    }

    /// Returns `true` for strictly backward (negative) distances.
    pub const fn is_backward(self) -> bool {
        self.0 < 0
    }
}

impl From<i64> for Distance {
    fn from(value: i64) -> Self {
        Distance(value)
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 0 {
            write!(f, "+{}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl std::ops::Neg for Distance {
    type Output = Distance;

    fn neg(self) -> Distance {
        Distance(-self.0)
    }
}

impl std::ops::Add for Distance {
    type Output = Distance;

    fn add(self, rhs: Distance) -> Distance {
        Distance(self.0.wrapping_add(rhs.0))
    }
}

/// Whether a memory reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AccessKind {
    /// A data load.
    #[default]
    Read,
    /// A data store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

/// One data-memory reference: the unit consumed by the simulator.
///
/// This mirrors what SimpleScalar's `sim-cache` hands to a TLB model: the
/// PC of the instruction and the virtual data address it touches. The
/// instruction TLB is out of scope, exactly as in the paper (which studies
/// the d-TLB only).
///
/// # Examples
///
/// ```
/// use tlbsim_core::{AccessKind, MemoryAccess, PageSize};
///
/// let acc = MemoryAccess::read(0x400_000, 0x1000_0000);
/// assert_eq!(acc.kind, AccessKind::Read);
/// assert_eq!(PageSize::DEFAULT.page_of(acc.vaddr).number(), 0x10000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// PC of the instruction issuing the reference.
    pub pc: Pc,
    /// Virtual byte address referenced.
    pub vaddr: VirtAddr,
    /// Load or store.
    pub kind: AccessKind,
}

impl MemoryAccess {
    /// Creates a read access.
    pub const fn read(pc: u64, vaddr: u64) -> Self {
        MemoryAccess {
            pc: Pc::new(pc),
            vaddr: VirtAddr::new(vaddr),
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub const fn write(pc: u64, vaddr: u64) -> Self {
        MemoryAccess {
            pc: Pc::new(pc),
            vaddr: VirtAddr::new(vaddr),
            kind: AccessKind::Write,
        }
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.pc, self.kind, self.vaddr)
    }
}

/// `len` consecutive references to one page, carrying the PC of the
/// first: what the simulator sees of a reference stream.
///
/// Only the first reference of a run can miss in the TLB; the rest hit
/// on a translation that is already most recently used, and no
/// mechanism observes hits. So a stream collapsed into runs at the
/// engine's page size simulates exactly like the records it came from.
/// Runs need not be maximal: a run cut in two gives the same statistics
/// as the whole. A run longer than `u32::MAX` references is split.
/// The access kind is dropped, because no engine reads it.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{PageRun, Pc, VirtPage};
///
/// let run = PageRun { pc: Pc::new(0x40), page: VirtPage::new(7), len: 3 };
/// assert_eq!(run.len, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageRun {
    /// PC of the run's first reference.
    pub pc: Pc,
    /// Page every reference of the run falls on.
    pub page: VirtPage,
    /// References in the run (at least 1).
    pub len: u32,
}

/// A validated power-of-two page size.
///
/// The paper evaluates with 4096-byte pages; the sensitivity analysis
/// varies this, so the size is a parameter everywhere rather than a
/// constant.
///
/// # Examples
///
/// ```
/// use tlbsim_core::PageSize;
///
/// let ps = PageSize::new(8192)?;
/// assert_eq!(ps.bits(), 13);
/// # Ok::<(), tlbsim_core::InvalidPageSize>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageSize {
    bytes: u64,
}

/// Error returned by [`PageSize::new`] for a size that is zero or not a
/// power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPageSize {
    bytes: u64,
}

impl fmt::Display for InvalidPageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page size {} is not a power of two", self.bytes)
    }
}

impl std::error::Error for InvalidPageSize {}

impl PageSize {
    /// The paper's default 4 KiB page size.
    pub const DEFAULT: PageSize = PageSize { bytes: 4096 };

    /// Creates a page size.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPageSize`] if `bytes` is zero or not a power of
    /// two.
    pub const fn new(bytes: u64) -> Result<Self, InvalidPageSize> {
        if bytes == 0 || !bytes.is_power_of_two() {
            Err(InvalidPageSize { bytes })
        } else {
            Ok(PageSize { bytes })
        }
    }

    /// Returns the size in bytes.
    pub const fn bytes(self) -> u64 {
        self.bytes
    }

    /// Returns the number of offset bits (log2 of the size).
    pub const fn bits(self) -> u32 {
        self.bytes.trailing_zeros()
    }

    /// Returns the virtual page containing `addr`.
    pub const fn page_of(self, addr: VirtAddr) -> VirtPage {
        VirtPage::new(addr.raw() >> self.bits())
    }

    /// Returns the first byte address of `page`.
    pub const fn base_of(self, page: VirtPage) -> VirtAddr {
        VirtAddr::new(page.number() << self.bits())
    }
}

impl Default for PageSize {
    fn default() -> Self {
        PageSize::DEFAULT
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bytes >= 1 << 20 {
            write!(f, "{}MiB", self.bytes >> 20)
        } else if self.bytes >= 1 << 10 {
            write!(f, "{}KiB", self.bytes >> 10)
        } else {
            write!(f, "{}B", self.bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_round_trips_through_offset() {
        let a = VirtPage::new(100);
        let b = VirtPage::new(42);
        let d = b.distance_from(a);
        assert_eq!(d, Distance::new(-58));
        assert_eq!(a.offset(d), Some(b));
    }

    #[test]
    fn offset_detects_underflow_and_overflow() {
        assert_eq!(VirtPage::new(1).offset(Distance::new(-2)), None);
        assert_eq!(VirtPage::new(u64::MAX).offset(Distance::new(1)), None);
        assert_eq!(
            VirtPage::new(5).offset(Distance::ZERO),
            Some(VirtPage::new(5))
        );
    }

    #[test]
    fn next_page_is_distance_one() {
        let p = VirtPage::new(7);
        assert_eq!(p.next(), p.offset(Distance::ONE));
    }

    #[test]
    fn page_size_validation() {
        assert!(PageSize::new(4096).is_ok());
        assert!(PageSize::new(0).is_err());
        assert!(PageSize::new(3000).is_err());
        let err = PageSize::new(12).unwrap_err();
        assert!(err.to_string().contains("12"));
    }

    #[test]
    fn page_of_and_base_of_are_inverse_on_page_boundaries() {
        let ps = PageSize::DEFAULT;
        let page = VirtPage::new(0xabcd);
        assert_eq!(ps.page_of(ps.base_of(page)), page);
    }

    #[test]
    fn page_extraction_uses_size_bits() {
        let ps4k = PageSize::new(4096).unwrap();
        let ps8k = PageSize::new(8192).unwrap();
        let addr = VirtAddr::new(0x2000);
        assert_eq!(ps4k.page_of(addr), VirtPage::new(2));
        assert_eq!(ps8k.page_of(addr), VirtPage::new(1));
    }

    #[test]
    fn display_formats_are_nonempty_and_stable() {
        assert_eq!(Distance::new(3).to_string(), "+3");
        assert_eq!(Distance::new(-3).to_string(), "-3");
        assert_eq!(AccessKind::Write.to_string(), "W");
        assert_eq!(PageSize::DEFAULT.to_string(), "4KiB");
        assert_eq!(PageSize::new(1 << 21).unwrap().to_string(), "2MiB");
    }

    #[test]
    fn memory_access_constructors_set_kind() {
        assert_eq!(MemoryAccess::read(1, 2).kind, AccessKind::Read);
        assert_eq!(MemoryAccess::write(1, 2).kind, AccessKind::Write);
    }

    #[test]
    fn asid_round_trips_and_displays() {
        let a = Asid::new(300);
        assert_eq!(a.raw(), 300);
        assert_eq!(a.index(), 300usize);
        assert_eq!(Asid::from(300u16), a);
        assert_eq!(a.to_string(), "asid:300");
        assert_eq!(Asid::default(), Asid::DEFAULT);
        assert_eq!(Asid::DEFAULT.raw(), 0);
    }

    #[test]
    fn distance_negation_and_addition() {
        assert_eq!(-Distance::new(4), Distance::new(-4));
        assert_eq!(Distance::new(4) + Distance::new(-6), Distance::new(-2));
    }
}
