//! Quantum device memory management.
//!
//! The paper's Fig 4 shows a *quantum memory management unit* arbitrating
//! qubit slots. [`QDevice`] is that component: it owns the slot inventory
//! of one node and hands out / reclaims qubits. Slot scarcity is a real
//! protocol force — the two-communication-qubits-per-link limit is what
//! produces the Fig 8c "quantum congestion collapse".
//!
//! Two inventory shapes cover the paper's evaluations:
//!
//! * [`QDevice::per_link`] — the main-simulation simplification
//!   (Appendix B): every qubit behaves as a communication qubit, two are
//!   dedicated to each attached link and not shared between links.
//! * [`QDevice::near_term`] — Fig 11 hardware: a single electron
//!   (communication) qubit shared by all links plus a few carbon storage
//!   qubits.

use crate::params::HardwareParams;
use qn_sim::LinkId;
use std::fmt;
use std::ops::Range;

/// A memory slot on a device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QubitId(pub u32);

impl fmt::Display for QubitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The species of a memory slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QubitKind {
    /// Electron spin: can participate in entanglement generation.
    Electron,
    /// Carbon nuclear spin: storage only.
    Carbon,
}

#[derive(Clone, Debug)]
struct Slot {
    kind: QubitKind,
    free: bool,
}

/// The slots that can serve a link's entanglement generation.
#[derive(Clone, Debug)]
enum CommSlots {
    /// Per-link inventory: each attached link's own contiguous run of
    /// slots, in attachment order.
    PerLink(Vec<(LinkId, Range<usize>)>),
    /// Near-term inventory: every link shares the electron in slot 0.
    Shared,
}

/// The qubit inventory of one node.
#[derive(Clone, Debug)]
pub struct QDevice {
    slots: Vec<Slot>,
    comm: CommSlots,
    params: HardwareParams,
}

impl QDevice {
    /// Main-simulation inventory: `per_link` communication qubits dedicated
    /// to each attached link (the paper uses two).
    pub fn per_link(links: &[LinkId], per_link: usize, params: HardwareParams) -> Self {
        let slots = vec![
            Slot {
                kind: QubitKind::Electron,
                free: true,
            };
            links.len() * per_link
        ];
        let runs = links
            .iter()
            .enumerate()
            .map(|(i, link)| (*link, i * per_link..(i + 1) * per_link))
            .collect();
        QDevice {
            slots,
            comm: CommSlots::PerLink(runs),
            params,
        }
    }

    /// Near-term inventory: one shared electron plus `carbons` storage
    /// qubits.
    pub fn near_term(carbons: usize, params: HardwareParams) -> Self {
        let mut slots = vec![Slot {
            kind: QubitKind::Electron,
            free: true,
        }];
        for _ in 0..carbons {
            slots.push(Slot {
                kind: QubitKind::Carbon,
                free: true,
            });
        }
        QDevice {
            slots,
            comm: CommSlots::Shared,
            params,
        }
    }

    /// The hardware parameter set of this device.
    pub fn params(&self) -> &HardwareParams {
        &self.params
    }

    /// T1/T2 of a slot, in seconds.
    pub fn coherence_times(&self, qubit: QubitId) -> (f64, f64) {
        match self.slots[qubit.0 as usize].kind {
            QubitKind::Electron => (self.params.electron_t1, self.params.electron_t2),
            QubitKind::Carbon => (
                self.params.carbon_t1.unwrap_or(self.params.electron_t1),
                self.params.carbon_t2.unwrap_or(self.params.electron_t2),
            ),
        }
    }

    /// Species of a slot.
    pub fn kind(&self, qubit: QubitId) -> QubitKind {
        self.slots[qubit.0 as usize].kind
    }

    /// The slots that can serve `link`: its own run (per-link inventory;
    /// none for a link not attached here) or the shared electron
    /// (near-term inventory).
    fn comm_slots(&self, link: LinkId) -> Range<usize> {
        match &self.comm {
            CommSlots::PerLink(runs) => runs
                .iter()
                .find(|(l, _)| *l == link)
                .map_or(0..0, |(_, run)| run.clone()),
            CommSlots::Shared => 0..1,
        }
    }

    /// Allocate a communication qubit usable on `link`: the first free
    /// slot dedicated to that link (per-link inventory) or the shared
    /// electron (near-term inventory).
    pub fn alloc_comm(&mut self, link: LinkId) -> Option<QubitId> {
        let run = self.comm_slots(link);
        let idx = run.start + self.slots[run].iter().position(|s| s.free)?;
        self.slots[idx].free = false;
        Some(QubitId(idx as u32))
    }

    /// Allocate a storage (carbon) qubit.
    pub fn alloc_storage(&mut self) -> Option<QubitId> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.free && s.kind == QubitKind::Carbon)?;
        self.slots[idx].free = false;
        Some(QubitId(idx as u32))
    }

    /// Return a qubit to the free pool.
    pub fn free(&mut self, qubit: QubitId) {
        let slot = &mut self.slots[qubit.0 as usize];
        debug_assert!(!slot.free, "double free of {qubit}");
        slot.free = true;
    }

    /// Number of free communication qubits usable on `link`.
    pub fn free_comm(&self, link: LinkId) -> usize {
        self.slots[self.comm_slots(link)]
            .iter()
            .filter(|s| s.free)
            .count()
    }

    /// Number of free storage qubits.
    pub fn free_storage(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.free && s.kind == QubitKind::Carbon)
            .count()
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently allocated.
    pub fn reserved(&self) -> usize {
        self.slots.iter().filter(|s| !s.free).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_link_slots_are_dedicated() {
        let links = [LinkId(0), LinkId(1)];
        let mut dev = QDevice::per_link(&links, 2, HardwareParams::simulation());
        assert_eq!(dev.capacity(), 4);
        assert_eq!(dev.free_comm(LinkId(0)), 2);
        let q0 = dev.alloc_comm(LinkId(0)).unwrap();
        let q1 = dev.alloc_comm(LinkId(0)).unwrap();
        assert_ne!(q0, q1);
        // Link 0 pool exhausted; link 1 unaffected.
        assert!(dev.alloc_comm(LinkId(0)).is_none());
        assert_eq!(dev.free_comm(LinkId(1)), 2);
        dev.free(q0);
        assert_eq!(dev.free_comm(LinkId(0)), 1);
        assert!(dev.alloc_comm(LinkId(0)).is_some());
    }

    #[test]
    fn per_link_alloc_takes_the_first_free_slot_of_its_run() {
        let links = [LinkId(4), LinkId(1), LinkId(7)];
        let mut dev = QDevice::per_link(&links, 2, HardwareParams::simulation());
        assert_eq!(dev.alloc_comm(LinkId(1)), Some(QubitId(2)));
        assert_eq!(dev.alloc_comm(LinkId(1)), Some(QubitId(3)));
        assert_eq!(dev.alloc_comm(LinkId(7)), Some(QubitId(4)));
        dev.free(QubitId(2));
        assert_eq!(dev.alloc_comm(LinkId(1)), Some(QubitId(2)));
        // A link not attached to this node has no slots.
        assert_eq!(dev.alloc_comm(LinkId(3)), None);
        assert_eq!(dev.free_comm(LinkId(3)), 0);
        assert_eq!(dev.free_comm(LinkId(4)), 2);
    }

    #[test]
    fn near_term_shares_one_electron() {
        let mut dev = QDevice::near_term(2, HardwareParams::near_term());
        assert_eq!(dev.capacity(), 3);
        let e = dev.alloc_comm(LinkId(0)).unwrap();
        assert_eq!(dev.kind(e), QubitKind::Electron);
        // The single electron serves all links — none left for link 1.
        assert!(dev.alloc_comm(LinkId(1)).is_none());
        let c = dev.alloc_storage().unwrap();
        assert_eq!(dev.kind(c), QubitKind::Carbon);
        assert_eq!(dev.free_storage(), 1);
        dev.free(e);
        assert!(dev.alloc_comm(LinkId(1)).is_some());
    }

    #[test]
    fn coherence_times_differ_by_kind() {
        let dev = QDevice::near_term(1, HardwareParams::near_term());
        let (t1_e, t2_e) = dev.coherence_times(QubitId(0));
        let (t1_c, t2_c) = dev.coherence_times(QubitId(1));
        assert_eq!(t2_e, 1.46);
        assert_eq!(t2_c, 60.0);
        assert!(t1_e > 0.0 && t1_c > 0.0);
    }

    #[test]
    fn storage_alloc_fails_without_carbons() {
        let mut dev = QDevice::per_link(&[LinkId(0)], 2, HardwareParams::simulation());
        assert!(dev.alloc_storage().is_none());
        assert_eq!(dev.free_storage(), 0);
    }
}
