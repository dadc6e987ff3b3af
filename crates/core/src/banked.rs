//! Per-ASID register banking for flush-free multiprogramming: DP's
//! distance registers, MP's previous miss, RP's LRU stack and EP's duel
//! scores each belong to one context.

use std::ops::{Deref, DerefMut};

use crate::types::Asid;

/// The current context's `T` (reached through `Deref`) plus the parked
/// `T` of every other context, indexed by ASID. The current context's
/// own parked slot is checked out and holds nothing meaningful. The
/// bank grows only the first time an ASID index is seen; re-activating
/// a context that already ran swaps, never allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct Banked<T> {
    asid: Asid,
    live: T,
    parked: Vec<T>,
}

impl<T: Default> Banked<T> {
    /// A bank whose default context starts with `live`.
    pub(crate) fn new(live: T) -> Self {
        Banked {
            asid: Asid::DEFAULT,
            live,
            parked: Vec::new(),
        }
    }

    /// Parks the live state and checks out `asid`'s (`T::default()` on
    /// its first visit). Switching to the current context does nothing.
    pub(crate) fn switch(&mut self, asid: Asid) {
        if asid == self.asid {
            return;
        }
        let needed = self.asid.index().max(asid.index()) + 1;
        if self.parked.len() < needed {
            self.parked.resize_with(needed, T::default);
        }
        std::mem::swap(&mut self.parked[self.asid.index()], &mut self.live);
        std::mem::swap(&mut self.parked[asid.index()], &mut self.live);
        self.asid = asid;
    }

    /// Applies `reset` to `asid`'s state, live or parked.
    pub(crate) fn evict(&mut self, asid: Asid, reset: impl FnOnce(&mut T)) {
        if asid == self.asid {
            reset(&mut self.live);
        } else if let Some(parked) = self.parked.get_mut(asid.index()) {
            reset(parked);
        }
    }

    /// Applies `reset` to every context's state.
    pub(crate) fn reset_all(&mut self, mut reset: impl FnMut(&mut T)) {
        reset(&mut self.live);
        self.parked.iter_mut().for_each(reset);
    }
}

impl<T> Deref for Banked<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.live
    }
}

impl<T> DerefMut for Banked<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_parks_evict_resets_one_context_and_reset_all_every_context() {
        let mut bank = Banked::new(vec![10u32]);
        bank.switch(Asid::new(2));
        assert!(bank.is_empty(), "first visit checks out T::default()");
        bank.push(20);
        bank.switch(Asid::DEFAULT);
        assert_eq!(*bank, vec![10]);
        let grown = bank.parked.capacity();
        bank.switch(Asid::new(2));
        assert_eq!(*bank, vec![20]);
        assert_eq!(bank.parked.capacity(), grown, "re-activation never grows");

        bank.evict(Asid::DEFAULT, |v| v.clear());
        assert_eq!(
            *bank,
            vec![20],
            "evicting a parked context keeps the live one"
        );
        bank.evict(Asid::new(7), |v| v.clear());
        assert_eq!(
            bank.parked.len(),
            3,
            "evicting an unseen context grows nothing"
        );
        bank.switch(Asid::DEFAULT);
        assert!(bank.is_empty());

        bank.push(30);
        bank.reset_all(|v| v.clear());
        assert!(bank.is_empty());
        bank.switch(Asid::new(2));
        assert!(bank.is_empty());
    }
}
