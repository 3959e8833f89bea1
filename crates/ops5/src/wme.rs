//! Working-memory elements.

use crate::symbol::Symbol;
use crate::value::Value;
use std::fmt;

/// Identifier of a WME within one engine's working memory (dense index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WmeId(pub u32);

/// OPS5 time tag: a monotonically increasing creation stamp. Conflict
/// resolution's recency ordering is defined over these.
pub type TimeTag = u64;

/// A working-memory element: a class plus a fixed vector of attribute slots.
///
/// Attribute names are resolved to slot indices at parse time via the
/// program's `literalize` declarations; the WME itself stores values only,
/// which keeps the match path free of string handling.
#[derive(Clone, Debug, PartialEq)]
pub struct Wme {
    /// The element class (the first symbol of a `literalize`).
    pub class: Symbol,
    /// Slot values, in `literalize` declaration order. Unset slots are nil.
    pub fields: Box<[Value]>,
    /// Creation time tag.
    pub time_tag: TimeTag,
}

impl Wme {
    /// Creates a WME with all slots nil.
    pub fn new(class: Symbol, n_fields: usize, time_tag: TimeTag) -> Wme {
        Wme {
            class,
            fields: vec![Value::Nil; n_fields].into_boxed_slice(),
            time_tag,
        }
    }

    /// Value of slot `i` (`Value::Nil` when out of range, which only happens
    /// for WMEs created before a class was re-declared — not supported, so
    /// we panic in debug builds).
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        debug_assert!(i < self.fields.len(), "slot index out of range");
        self.fields.get(i).copied().unwrap_or(Value::Nil)
    }

    /// Sets slot `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Value) {
        self.fields[i] = v;
    }

    /// Structural equality ignoring the time tag (used when comparing
    /// sequential and parallel runs, whose tags may differ).
    pub fn same_contents(&self, other: &Wme) -> bool {
        self.class == other.class
            && self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|(a, b)| a.ops_eq(b))
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.class)?;
        for (i, v) in self.fields.iter().enumerate() {
            if !v.is_nil() {
                write!(f, " ^{i} {v}")?;
            }
        }
        write!(f, ") @{}", self.time_tag)
    }
}

/// Working memory: a dense store of live WMEs.
///
/// Ids are never reused within one engine lifetime, so a `WmeId` held by a
/// token or conflict-set entry is stable; removed slots read as `None`.
#[derive(Clone, Debug, Default)]
pub struct WmStore {
    slots: Vec<Option<Wme>>,
    live: usize,
}

impl WmStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the store, keeping its allocation; ids restart at 0.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Forgets every id from `len` up, live or dead; the next id handed out
    /// is `len` again. Ids below keep what they hold.
    pub fn truncate(&mut self, len: usize) {
        let len = len.min(self.slots.len());
        self.live -= self.slots[len..].iter().filter(|s| s.is_some()).count();
        self.slots.truncate(len);
    }

    /// One past the highest id handed out: the id the next WME gets.
    pub fn next_id(&self) -> WmeId {
        WmeId(self.slots.len() as u32)
    }

    /// Adds a WME, returning its id.
    pub fn add(&mut self, wme: Wme) -> WmeId {
        let id = WmeId(self.slots.len() as u32);
        self.slots.push(Some(wme));
        self.live += 1;
        id
    }

    /// Removes a WME by id; returns it when it was live.
    pub fn remove(&mut self, id: WmeId) -> Option<Wme> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let w = slot.take();
        if w.is_some() {
            self.live -= 1;
        }
        w
    }

    /// Borrow a live WME.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Time tag of a live WME (0 when dead — dead ids should not be asked).
    pub fn time_tag(&self, id: WmeId) -> TimeTag {
        self.get(id).map(|w| w.time_tag).unwrap_or(0)
    }

    /// Number of live WMEs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no WME is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The raw slot array, dead slots included (snapshot capture).
    pub fn raw_slots(&self) -> &[Option<Wme>] {
        &self.slots
    }

    /// Iterates over live `(id, wme)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (WmeId, &Wme)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|w| (WmeId(i as u32), w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn store_add_remove_iter() {
        let mut s = WmStore::new();
        let a = s.add(Wme::new(sym("x"), 1, 1));
        let b = s.add(Wme::new(sym("y"), 1, 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.time_tag(b), 2);
        let removed = s.remove(a).unwrap();
        assert_eq!(removed.class, sym("x"));
        assert!(s.remove(a).is_none(), "double remove is None");
        assert_eq!(s.len(), 1);
        let ids: Vec<WmeId> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![b]);
        assert!(s.get(a).is_none());
        assert!(s.get(b).is_some());
        // Truncation forgets ids from the cut up, dead or live.
        let c = s.add(Wme::new(sym("z"), 1, 3));
        assert_eq!((c, s.next_id()), (WmeId(2), WmeId(3)));
        s.truncate(1);
        assert_eq!((s.len(), s.next_id()), (0, WmeId(1)));
        assert_eq!(s.add(Wme::new(sym("y"), 1, 4)), b, "ids follow the cut");
    }

    #[test]
    fn new_wme_is_all_nil() {
        let w = Wme::new(sym("region"), 4, 7);
        assert_eq!(w.time_tag, 7);
        assert!(w.fields.iter().all(Value::is_nil));
        assert_eq!(w.get(2), Value::Nil);
    }

    #[test]
    fn set_get_round_trip() {
        let mut w = Wme::new(sym("region"), 3, 1);
        w.set(1, Value::Int(99));
        assert_eq!(w.get(1), Value::Int(99));
        assert_eq!(w.get(0), Value::Nil);
    }

    #[test]
    fn same_contents_ignores_time_tag() {
        let mut a = Wme::new(sym("region"), 2, 1);
        let mut b = Wme::new(sym("region"), 2, 99);
        a.set(0, Value::Int(3));
        b.set(0, Value::Float(3.0)); // numerically equal
        assert!(a.same_contents(&b));
        b.set(1, Value::symbol("x"));
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn different_class_not_same() {
        let a = Wme::new(sym("region"), 2, 1);
        let b = Wme::new(sym("fragment"), 2, 1);
        assert!(!a.same_contents(&b));
    }
}
