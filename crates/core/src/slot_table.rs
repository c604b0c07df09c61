//! A map keyed by recycled-slot ids, with a dense fast path.
//!
//! [`RequestId`] and [`JobId`] name an arena slot plus a reuse generation.
//! At any moment almost every id a log consumer looks up is the *current*
//! occupant of its slot, so [`SlotTable`] keeps one resident entry per slot
//! in a `Vec` indexed by slot and only falls back to a [`FastMap`] for ids
//! whose slot has since been taken by another key. It behaves exactly like
//! a map from the full key: an entry displaced from its slot moves to the
//! spill map and is still found, updated and removed under its own key —
//! a quorum straggler of generation `g` that shows up after generation
//! `g + 1` of the same slot was emitted reads generation `g`'s state.
//!
//! Nothing iterates a table, so neither slot order nor hash order can reach
//! any output.

use crate::fasthash::FastMap;
use crate::ids::{JobId, RequestId};
use std::hash::Hash;

/// A key that names an arena slot (plus whatever tells occupants apart).
pub(crate) trait SlotKey: Copy + Eq + Hash {
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

/// A job's stay in one stage queue: `(job, instance, stage)`, in the job's
/// slot.
impl SlotKey for (JobId, u32, u32) {
    fn slot(&self) -> usize {
        self.0.slot()
    }
}

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SlotTable<K, V> {
    resident: Vec<Option<(K, V)>>,
    spill: FastMap<K, V>,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        SlotTable {
            resident: Vec::new(),
            spill: FastMap::default(),
        }
    }
}

impl<K: SlotKey, V> SlotTable<K, V> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self.resident.get(key.slot()) {
            Some(Some((k, v))) if k == key => Some(v),
            _ => self.spill.get(key),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.resident.get_mut(key.slot()) {
            Some(Some((k, v))) if k == key => Some(v),
            _ => self.spill.get_mut(key),
        }
    }

    /// Inserts `value` under `key` as its slot's resident, returning the
    /// value the key held before.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let slot = self.slot_mut(&key);
        match slot.replace((key, value)) {
            Some((k, old)) if k == key => Some(old),
            Some((k, other)) => {
                self.spill.insert(k, other);
                self.spill.remove(&key)
            }
            None => self.spill.remove(&key),
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        match self.resident.get_mut(key.slot()) {
            Some(slot) if slot.as_ref().is_some_and(|(k, _)| k == key) => {
                slot.take().map(|(_, v)| v)
            }
            _ => self.spill.remove(key),
        }
    }

    /// The value under `key`, inserted from `make` if absent; either way
    /// the key ends up resident in its slot.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let is_resident = matches!(self.resident.get(key.slot()), Some(Some((k, _))) if *k == key);
        if !is_resident {
            let value = self.spill.remove(&key).unwrap_or_else(make);
            if let Some((k, other)) = self.slot_mut(&key).replace((key, value)) {
                self.spill.insert(k, other);
            }
        }
        let (_, value) = self.resident[key.slot()]
            .as_mut()
            .expect("the key was just made resident");
        value
    }

    fn slot_mut(&mut self, key: &K) -> &mut Option<(K, V)> {
        let slot = key.slot();
        if slot >= self.resident.len() {
            self.resident.resize_with(slot + 1, || None);
        }
        &mut self.resident[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn displaced_generations_keep_their_own_state() {
        let (old, new) = (RequestId::new(3, 0), RequestId::new(3, 1));
        let mut t: SlotTable<RequestId, &str> = SlotTable::default();
        assert_eq!(t.insert(old, "g0"), None);
        assert_eq!(t.insert(new, "g1"), None);
        assert_eq!(t.get(&old), Some(&"g0"));
        assert_eq!(t.get(&new), Some(&"g1"));
        *t.get_mut(&old).unwrap() = "g0'";
        assert_eq!(*t.get_or_insert_with(old, || "fresh"), "g0'");
        assert_eq!(t.get(&new), Some(&"g1"), "swapped out, not lost");
        assert_eq!(t.remove(&new), Some("g1"));
        assert_eq!(t.remove(&new), None);
        assert_eq!(t.insert(old, "again"), Some("g0'"));
    }

    #[test]
    fn behaves_like_a_map_under_slot_reuse() {
        // A deterministic churn over 8 slots x 4 generations, mirrored
        // into a HashMap after every operation.
        let mut table: SlotTable<JobId, u64> = SlotTable::default();
        let mut model: HashMap<JobId, u64> = HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = JobId::new((x % 8) as u32, ((x >> 8) % 4) as u32);
            match (x >> 16) % 4 {
                0 => assert_eq!(table.insert(key, step), model.insert(key, step)),
                1 => assert_eq!(table.remove(&key), model.remove(&key)),
                2 => assert_eq!(
                    *table.get_or_insert_with(key, || step),
                    *model.entry(key).or_insert(step)
                ),
                _ => {
                    if let Some(v) = table.get_mut(&key) {
                        *v += 1;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v += 1;
                    }
                }
            }
            assert_eq!(table.get(&key), model.get(&key), "step {step}");
        }
    }
}
