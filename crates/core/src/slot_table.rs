//! A table keyed by recycled-slot ids: one generation-checked entry per
//! arena slot.
//!
//! [`RequestId`] and [`JobId`] name an arena slot plus a reuse generation,
//! and the simulator re-issues a slot only after it released the previous
//! occupant — which the span log says (a request's retirement, a job's
//! `NodeDone` or `JobKilled`). A consumer that lets go of an entry where
//! the log says so therefore never holds two generations of one slot, and
//! [`SlotTable`] is a `Vec` indexed by slot whose entries carry their full
//! key: a lookup under another generation of the slot misses, and an
//! insert hands back whatever the slot held — under the same key or
//! another — for the caller to judge. Its memory follows the most slots
//! ever live at once, not the number of keys seen.
//!
//! No log the simulator records displaces an entry that is still wanted:
//! the auditor reports a request displaced before its retirement as a
//! violation, and `trace/corruption.rs` and `tests/chaos.rs` audit real
//! faulted, retried and quorum logs clean. A corrupt log can, and the
//! older entry is lost.
//!
//! Nothing iterates a table, so slot order cannot reach any output.

use crate::ids::{JobId, RequestId};

/// A key that names an arena slot (plus whatever tells occupants apart).
pub(crate) trait SlotKey: Copy + Eq {
    /// The slot this key occupies.
    fn slot(&self) -> usize;
}

impl SlotKey for RequestId {
    fn slot(&self) -> usize {
        RequestId::slot(*self)
    }
}

impl SlotKey for JobId {
    fn slot(&self) -> usize {
        JobId::slot(*self)
    }
}

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SlotTable<K, V> {
    slots: Vec<Option<(K, V)>>,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        SlotTable { slots: Vec::new() }
    }
}

impl<K: SlotKey, V> SlotTable<K, V> {
    /// Whatever holds `key`'s slot, under `key` or another generation.
    pub(crate) fn occupant(&self, key: &K) -> Option<&(K, V)> {
        self.slots.get(key.slot())?.as_ref()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self.occupant(key) {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.slots.get_mut(key.slot()) {
            Some(Some((k, v))) if k == key => Some(v),
            _ => None,
        }
    }

    /// Puts `value` in `key`'s slot, returning what the slot held before.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let slot = key.slot();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot].replace((key, value))
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        match self.slots.get_mut(key.slot()) {
            Some(slot) if slot.as_ref().is_some_and(|(k, _)| k == key) => {
                slot.take().map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn a_displaced_generation_is_handed_back_not_kept() {
        let (old, new) = (RequestId::new(3, 0), RequestId::new(3, 1));
        let mut t: SlotTable<RequestId, &str> = SlotTable::default();
        assert_eq!(t.insert(old, "g0"), None);
        assert_eq!(
            t.occupant(&new),
            Some(&(old, "g0")),
            "the slot, not the key"
        );
        assert_eq!(t.get(&new), None);
        assert_eq!(t.remove(&new), None, "another generation's entry stays");
        *t.get_mut(&old).unwrap() = "g0'";
        assert_eq!(t.insert(new, "g1"), Some((old, "g0'")));
        assert_eq!(t.get(&old), None, "displaced, not spilled");
        assert_eq!(t.get(&new), Some(&"g1"));
        assert_eq!(t.insert(new, "g1'"), Some((new, "g1")));
        assert_eq!(t.remove(&new), Some("g1'"));
        assert_eq!(t.occupant(&old), None);
    }

    #[test]
    fn behaves_like_a_map_under_slot_reuse() {
        // A deterministic churn over 8 slots x 4 generations, mirrored
        // after every operation into a map from slot to its one entry.
        let mut table: SlotTable<JobId, u64> = SlotTable::default();
        let mut model: HashMap<usize, (JobId, u64)> = HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = JobId::new((x % 8) as u32, ((x >> 8) % 4) as u32);
            let held = |model: &HashMap<usize, (JobId, u64)>| {
                model.get(&key.slot()).filter(|(k, _)| *k == key).copied()
            };
            match (x >> 16) % 3 {
                0 => assert_eq!(
                    table.insert(key, step),
                    model.insert(key.slot(), (key, step))
                ),
                1 => {
                    let expect = held(&model).map(|(_, v)| v);
                    if expect.is_some() {
                        model.remove(&key.slot());
                    }
                    assert_eq!(table.remove(&key), expect);
                }
                _ => {
                    if let Some(v) = table.get_mut(&key) {
                        *v += 1;
                    }
                    if let Some((_, v)) = model.get_mut(&key.slot()).filter(|(k, _)| *k == key) {
                        *v += 1;
                    }
                }
            }
            assert_eq!(table.get(&key).copied(), held(&model).map(|(_, v)| v));
            assert_eq!(table.occupant(&key), model.get(&key.slot()), "step {step}");
        }
    }
}
