//! Canonical engine-state bytes, for equality. [`crate::Engine::image`]
//! is the complete state of an engine — working-memory slots with time
//! tags, conflict-set entry keys, work counters, named external counters,
//! output, recency and gensym counters — and [`EngineImage::encode`] its
//! one byte encoding ([`crate::Engine::snapshot`]). The property tests
//! compare two engines by these bytes: equal bytes, equal state. Nothing
//! decodes them; they are never stored.

use crate::conflict::Strategy;
use crate::instrument::WorkCounters;
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::{TimeTag, Wme, WmeId};

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_sym(buf: &mut Vec<u8>, s: Symbol) {
    put_str(buf, &s.name());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Nil => buf.push(0),
        Value::Sym(s) => {
            buf.push(1);
            put_sym(buf, *s);
        }
        Value::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            buf.push(3);
            put_u64(buf, x.to_bits());
        }
    }
}

fn put_counters(buf: &mut Vec<u8>, w: &WorkCounters) {
    put_u64(buf, w.match_units);
    put_u64(buf, w.resolve_units);
    put_u64(buf, w.act_units);
    put_u64(buf, w.external_units);
    put_u64(buf, w.firings);
    put_u64(buf, w.rhs_actions);
    put_u64(buf, w.wme_adds);
    put_u64(buf, w.wme_removes);
}

/// An engine's complete state, as [`crate::Engine::image`] reads it:
/// conflict keys and counters sorted, so equal states give equal images.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineImage {
    /// Conflict-resolution strategy in force.
    pub strategy: Strategy,
    /// Whether a `(halt)` had executed.
    pub halted: bool,
    /// The recency counter (next WME gets `time + 1`).
    pub time: TimeTag,
    /// The `genatom` counter.
    pub gensym: u64,
    /// Accumulated `write` output.
    pub output: String,
    /// Interpreter-side work counters.
    pub base_work: WorkCounters,
    /// Match-backend work counters.
    pub match_work: WorkCounters,
    /// The *exact* WM slot layout, dead slots included: `WmeId`s are slot
    /// indices and ids are never reused, so two engines whose live WMEs
    /// agree but whose ids differ are in different states.
    pub slots: Vec<Option<Wme>>,
    /// Conflict-set entry keys `(production, wmes)`, sorted. Tags and
    /// specificity follow from the WM; the *key set* is what refraction
    /// leaves — an instantiation that has fired is no longer in it.
    pub conflict: Vec<(u32, Box<[WmeId]>)>,
    /// Named external counters ([`crate::Engine::external_counter`]), by
    /// name: the next id each allocator hands out.
    pub counters: Vec<(String, i64)>,
}

impl EngineImage {
    /// The image as bytes, field by field in declaration order.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.push(match self.strategy {
            Strategy::Lex => 0,
            Strategy::Mea => 1,
        });
        buf.push(self.halted as u8);
        put_u64(&mut buf, self.time);
        put_u64(&mut buf, self.gensym);
        put_str(&mut buf, &self.output);
        put_counters(&mut buf, &self.base_work);
        put_counters(&mut buf, &self.match_work);
        put_u32(&mut buf, self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => buf.push(0),
                Some(w) => {
                    buf.push(1);
                    put_sym(&mut buf, w.class);
                    put_u64(&mut buf, w.time_tag);
                    put_u16(&mut buf, w.fields.len() as u16);
                    for v in w.fields.iter() {
                        put_value(&mut buf, v);
                    }
                }
            }
        }
        put_u32(&mut buf, self.conflict.len() as u32);
        for (production, wmes) in &self.conflict {
            put_u32(&mut buf, *production);
            put_u16(&mut buf, wmes.len() as u16);
            for w in wmes.iter() {
                put_u32(&mut buf, w.0);
            }
        }
        put_u32(&mut buf, self.counters.len() as u32);
        for (name, v) in &self.counters {
            put_str(&mut buf, name);
            put_u64(&mut buf, *v as u64);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn image() -> EngineImage {
        EngineImage {
            strategy: Strategy::Mea,
            halted: false,
            time: 17,
            gensym: 3,
            output: "hello\n".into(),
            base_work: WorkCounters {
                match_units: 1,
                firings: 5,
                ..WorkCounters::default()
            },
            match_work: WorkCounters::default(),
            slots: vec![
                Some(Wme {
                    class: sym("region"),
                    fields: vec![Value::Int(-3), Value::Float(2.5), Value::Nil].into(),
                    time_tag: 4,
                }),
                None,
                Some(Wme {
                    class: sym("fragment"),
                    fields: vec![Value::symbol("runway")].into(),
                    time_tag: 9,
                }),
            ],
            conflict: vec![
                (0, vec![WmeId(2)].into()),
                (2, vec![WmeId(0), WmeId(2)].into()),
            ],
            counters: vec![("check-id".into(), -7), ("frag-id".into(), 42)],
        }
    }

    /// Every part of the state reaches the bytes: change any one and they
    /// differ. A dead slot counts, since ids are slot indices.
    #[test]
    fn every_part_of_the_state_reaches_the_bytes() {
        let bytes = image().encode();
        assert_eq!(bytes, image().encode());
        let changes: [fn(&mut EngineImage); 9] = [
            |i| i.strategy = Strategy::Lex,
            |i| i.halted = true,
            |i| i.time += 1,
            |i| i.gensym += 1,
            |i| i.output.push('!'),
            |i| i.match_work.resolve_units += 1,
            |i| i.slots[1] = i.slots[0].clone(),
            |i| i.conflict.truncate(1),
            |i| i.counters[1].1 += 1,
        ];
        for (k, change) in changes.iter().enumerate() {
            let mut other = image();
            change(&mut other);
            assert_ne!(other.encode(), bytes, "change {k}");
        }
    }
}
