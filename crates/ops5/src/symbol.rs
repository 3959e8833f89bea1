//! Interned symbols.
//!
//! OPS5 programs are symbol-heavy: class names, attribute names, and most
//! attribute values are symbols. Matching compares symbols constantly, so we
//! intern them once into `u32` ids and compare ids thereafter.
//!
//! The interner is a process-wide, append-only table. That makes
//! working-memory elements freely transferable between engine instances —
//! exactly what SPAM/PSM's *working-memory distribution* needs when the
//! control process hands a task WME to a task process.
//!
//! The match path works on ids, but interning is *not* off the hot path:
//! every `Engine::make_wme` field and every `Value::symbol` literal turns
//! text into a symbol, once per WME per task on every worker. So the table
//! sits behind a read-mostly lock — a lookup of a known name takes the
//! shared side only and never serialises workers; the exclusive side is
//! taken on a miss, which after parse time is rare. Code that needs the
//! same symbol on every call resolves it once with [`crate::static_sym!`] and
//! compares ids.
//!
//! Tasks run under `catch_unwind` with injected panics, so both sides
//! recover from a poisoned lock: the table is append-only and every step of
//! an insertion leaves it valid (a name is pushed before the map points at
//! it), so a panic while holding the lock loses at most one insertion.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned symbol (case-sensitive).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Interns `name`, returning its symbol. A known name takes the shared
/// side of the lock only.
pub fn sym(name: &str) -> Symbol {
    let known = interner()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .map
        .get(name)
        .copied();
    if let Some(id) = known {
        return Symbol(id);
    }
    let mut i = interner().write().unwrap_or_else(PoisonError::into_inner);
    // Another thread may have interned it between the two locks.
    if let Some(&id) = i.map.get(name) {
        return Symbol(id);
    }
    let id = i.names.len() as u32;
    i.names.push(name.to_owned());
    i.map.insert(name.to_owned(), id);
    Symbol(id)
}

/// Interns a literal name once per call site and yields the cached
/// [`Symbol`] afterwards — for names a hot path compares against on every
/// call (`genatom`, `crlf`, SPAM's result classes), where even the shared
/// side of the interner lock plus a string hash is wasted work.
#[macro_export]
macro_rules! static_sym {
    ($name:expr) => {{
        static CACHED: ::std::sync::OnceLock<$crate::Symbol> = ::std::sync::OnceLock::new();
        *CACHED.get_or_init(|| $crate::sym($name))
    }};
}

/// Returns the textual name of a symbol.
pub fn sym_name(s: Symbol) -> String {
    let i = interner().read().unwrap_or_else(PoisonError::into_inner);
    i.names
        .get(s.0 as usize)
        .cloned()
        .unwrap_or_else(|| format!("#<bad-symbol {}>", s.0))
}

impl Symbol {
    /// The symbol's textual name (allocates; for display paths only).
    pub fn name(self) -> String {
        sym_name(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = sym("runway");
        let b = sym("runway");
        assert_eq!(a, b);
        assert_eq!(sym_name(a), "runway");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(sym("runway"), sym("taxiway"));
        assert_ne!(sym("Runway"), sym("runway"), "case-sensitive");
    }

    #[test]
    fn display_round_trips() {
        let s = sym("terminal-building");
        assert_eq!(format!("{s}"), "terminal-building");
        assert_eq!(format!("{s:?}"), "terminal-building");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| sym(&format!("concurrent-{}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Thread `t` interned name `(i + t) % 50` at position `i`: the same
        // name must have got the same id on every thread, and the id must
        // read back as that name.
        for (t, r) in results.iter().enumerate() {
            for (i, &s) in r.iter().enumerate() {
                let name = format!("concurrent-{}", (i + t) % 50);
                assert_eq!(s, sym(&name), "thread {t} position {i}");
                assert_eq!(sym_name(s), name);
            }
        }
        let distinct: std::collections::BTreeSet<Symbol> =
            results.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), 50, "one id per distinct name");
    }

    #[test]
    fn a_poisoned_interner_still_interns_and_looks_up() {
        let before = sym("poison-before");
        let panicked = std::thread::spawn(|| {
            let _guard = interner().write().unwrap_or_else(PoisonError::into_inner);
            panic!("task panics while holding the interner");
        })
        .join();
        assert!(panicked.is_err());
        assert!(interner().is_poisoned(), "the panic poisoned the lock");
        // Known name (shared side), new name (exclusive side), reverse
        // lookup: all recover the guard.
        assert_eq!(sym("poison-before"), before);
        let after = sym("poison-after");
        assert_ne!(after, before);
        assert_eq!(sym_name(after), "poison-after");
        assert_eq!(sym_name(before), "poison-before");
    }

    #[test]
    fn static_sym_is_the_interned_symbol() {
        let cached = || static_sym!("static-sym-probe");
        assert_eq!(cached(), sym("static-sym-probe"));
        assert_eq!(cached(), cached());
    }
}
