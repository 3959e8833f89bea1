//! Programs: `literalize` declarations plus compiled productions.

use crate::ast::{Production, SlotIdx};
use crate::buckets::FastMap;
use crate::conflict::Strategy;
use crate::symbol::{sym, Symbol};
use crate::{Error, Result};
use std::collections::HashMap;

/// Per-class information from a `literalize` declaration.
#[derive(Clone, Debug)]
pub struct ClassInfo {
    /// Class name.
    pub name: Symbol,
    /// Attribute names in slot order.
    pub attrs: Vec<Symbol>,
    slots: HashMap<Symbol, SlotIdx>,
}

impl ClassInfo {
    /// Creates a class with the given attributes.
    pub fn new(name: Symbol, attrs: Vec<Symbol>) -> ClassInfo {
        let slots = attrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as SlotIdx))
            .collect();
        ClassInfo { name, attrs, slots }
    }

    /// Slot index of `attr`.
    pub fn slot_of(&self, attr: Symbol) -> Option<SlotIdx> {
        self.slots.get(&attr).copied()
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.attrs.len()
    }
}

/// A parsed OPS5 program: class declarations and productions.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Looked up for every made WME (`n_slots`), so on the match path's
    /// hasher; nothing reads its iteration order.
    classes: FastMap<Symbol, ClassInfo>,
    /// Compiled productions in source order.
    pub productions: Vec<Production>,
    /// Conflict-resolution strategy (`(strategy lex)` / `(strategy mea)`;
    /// LEX is the default, as in OPS5).
    pub strategy: Strategy,
    /// Names declared `(external ...)`; informational.
    pub externals: Vec<Symbol>,
}

impl Program {
    /// Parses a complete OPS5 source text.
    ///
    /// Declarations (`literalize`) may appear anywhere; they are collected
    /// in a first pass, so productions may precede the declarations of the
    /// classes they use.
    pub fn parse(src: &str) -> Result<Program> {
        crate::parser::parse_program(src)
    }

    /// Adds (or replaces) a class declaration.
    pub fn declare_class(&mut self, name: &str, attrs: &[&str]) {
        let name = sym(name);
        let attrs = attrs.iter().map(|a| sym(a)).collect();
        self.classes.insert(name, ClassInfo::new(name, attrs));
    }

    /// Looks up a class.
    pub fn class(&self, name: Symbol) -> Option<&ClassInfo> {
        self.classes.get(&name)
    }

    /// Resolves `class ^attr` to a slot index.
    pub fn slot_of(&self, class: Symbol, attr: Symbol) -> Option<SlotIdx> {
        self.classes.get(&class).and_then(|c| c.slot_of(attr))
    }

    /// Number of slots of `class`.
    pub fn n_slots(&self, class: Symbol) -> Option<usize> {
        self.classes.get(&class).map(|c| c.n_slots())
    }

    /// Iterates over declared classes.
    pub fn classes(&self) -> impl Iterator<Item = &ClassInfo> {
        self.classes.values()
    }

    /// Finds a production by name.
    pub fn production(&self, name: Symbol) -> Option<&Production> {
        self.productions.iter().find(|p| p.name == name)
    }

    pub(crate) fn insert_class(&mut self, info: ClassInfo) -> Result<()> {
        if self.classes.contains_key(&info.name) {
            return Err(Error::Semantic(format!(
                "class '{}' declared twice",
                info.name
            )));
        }
        self.classes.insert(info.name, info);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut p = Program::default();
        p.declare_class("region", &["id", "area", "class"]);
        let c = p.class(sym("region")).unwrap();
        assert_eq!(c.n_slots(), 3);
        assert_eq!(p.slot_of(sym("region"), sym("area")), Some(1));
        assert_eq!(p.slot_of(sym("region"), sym("missing")), None);
        assert_eq!(p.n_slots(sym("nope")), None);
    }

    #[test]
    fn duplicate_literalize_rejected() {
        let err = Program::parse("(literalize a x)\n(literalize a y)").unwrap_err();
        assert!(matches!(err, Error::Semantic(_)));
    }
}
