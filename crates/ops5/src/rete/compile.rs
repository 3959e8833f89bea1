//! Compilation of parsed productions into Rete chain descriptions.

use crate::ast::{Predicate, Production, SlotIdx, TestArg, VarId};
use crate::symbol::Symbol;
use crate::value::Value;
use crate::{Error, Result};
use std::collections::HashMap;

/// Constant-evaluable operand of an alpha test.
#[derive(Clone, Debug, PartialEq)]
pub enum AlphaArg {
    /// Compare against a literal.
    Const(Value),
    /// `<< ... >>`: equal to any listed literal.
    Disj(Vec<Value>),
    /// Compare against another slot of the *same* WME (intra-element
    /// variable consistency, e.g. `^a <x> ^b <x>`).
    OtherSlot(SlotIdx),
}

/// A test evaluable against a single WME.
#[derive(Clone, Debug, PartialEq)]
pub struct AlphaTest {
    /// Slot under test.
    pub slot: SlotIdx,
    /// Predicate.
    pub predicate: Predicate,
    /// Operand.
    pub arg: AlphaArg,
}

/// A beta join test: compare a slot of the candidate WME with a slot of a
/// WME already in the token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinTest {
    /// Slot of the candidate WME (left operand).
    pub my_slot: SlotIdx,
    /// Predicate (`candidate_slot PRED earlier_slot`).
    pub predicate: Predicate,
    /// Chain level (node index) of the earlier condition element.
    pub their_level: u16,
    /// Slot of the earlier WME (right operand).
    pub their_slot: SlotIdx,
}

/// Where a variable's value comes from at instantiation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VarSource {
    /// Slot `slot` of the WME matched at chain level `level`.
    Lhs {
        /// Chain level (node index) of the binding condition element.
        level: u16,
        /// Slot index.
        slot: SlotIdx,
        /// Index of that element among the positive ones — where its WME
        /// sits in an instantiation's `wmes`.
        pos: u16,
    },
    /// Bound on the RHS by `bind` (or local to a negated element; such
    /// variables are not usable at instantiation time).
    Rhs,
}

/// One node of a compiled production chain. Equality is structural — the
/// network builder shares a node between productions when their chain
/// prefixes compare equal spec-by-spec (Doorenbos-style prefix sharing).
#[derive(Clone, Debug, PartialEq)]
pub struct ChainNodeSpec {
    /// True for negated condition elements.
    pub negated: bool,
    /// Class matched by this element.
    pub class: Symbol,
    /// Tests evaluable against the WME alone (drive alpha-memory selection).
    pub alpha_tests: Vec<AlphaTest>,
    /// Cross-element variable-consistency tests.
    pub join_tests: Vec<JoinTest>,
}

/// A production compiled to a linear Rete chain.
#[derive(Clone, Debug)]
pub struct CompiledProduction {
    /// Production index in the program.
    pub prod: u32,
    /// Chain nodes, one per condition element, in source order.
    pub nodes: Vec<ChainNodeSpec>,
    /// For each variable id: its value source.
    pub var_sources: Vec<VarSource>,
    /// Maps 1-based condition-element index → index among positive elements
    /// (`None` for negated elements).
    pub ce_to_positive: Vec<Option<u16>>,
}

/// Compiles a production (at index `prod` in the program) to a chain spec.
pub fn compile_production(prod: u32, p: &Production) -> Result<CompiledProduction> {
    let mut var_sources = vec![VarSource::Rhs; p.n_vars as usize];
    let mut nodes = Vec::with_capacity(p.ces.len());
    let mut ce_to_positive = Vec::with_capacity(p.ces.len());
    let mut n_pos: u16 = 0;

    for (level, ce) in p.ces.iter().enumerate() {
        let level = level as u16;
        // Local bindings of this element: var -> slot. A map, so the lookup
        // below is O(1) per test instead of a scan per test — SPAM's widest
        // rules bind a dozen variables per element. First binding wins, as
        // the parser emits later occurrences as tests against the first.
        let mut local: HashMap<VarId, SlotIdx> = HashMap::with_capacity(ce.bindings.len());
        for &(slot, var) in &ce.bindings {
            local.entry(var).or_insert(slot);
        }

        // Publish bindings of positive elements for later elements / RHS.
        if !ce.negated {
            for &(slot, var) in &ce.bindings {
                if matches!(var_sources[var as usize], VarSource::Rhs) {
                    var_sources[var as usize] = VarSource::Lhs {
                        level,
                        slot,
                        pos: n_pos,
                    };
                }
            }
        }

        let mut alpha_tests = Vec::new();
        let mut join_tests = Vec::new();
        for t in &ce.tests {
            match &t.arg {
                TestArg::Const(v) => alpha_tests.push(AlphaTest {
                    slot: t.slot,
                    predicate: t.predicate,
                    arg: AlphaArg::Const(*v),
                }),
                TestArg::Disjunction(vs) => alpha_tests.push(AlphaTest {
                    slot: t.slot,
                    predicate: t.predicate,
                    arg: AlphaArg::Disj(vs.clone()),
                }),
                TestArg::Var(v) => {
                    // Bound in this element? → intra-element (alpha) test.
                    if let Some(&slot) = local.get(v) {
                        alpha_tests.push(AlphaTest {
                            slot: t.slot,
                            predicate: t.predicate,
                            arg: AlphaArg::OtherSlot(slot),
                        });
                    } else {
                        match var_sources[*v as usize] {
                            VarSource::Lhs { level: l, slot, .. } => join_tests.push(JoinTest {
                                my_slot: t.slot,
                                predicate: t.predicate,
                                their_level: l,
                                their_slot: slot,
                            }),
                            VarSource::Rhs => {
                                return Err(Error::Semantic(format!(
                                    "production '{}': variable referenced before any \
                                     positive binding",
                                    p.name
                                )))
                            }
                        }
                    }
                }
            }
        }

        // Negated-element bindings with *later* references inside the same
        // element were already turned into tests by the parser; bindings
        // that are never referenced are simply wildcards — no test needed.

        ce_to_positive.push(if ce.negated {
            None
        } else {
            let idx = n_pos;
            n_pos += 1;
            Some(idx)
        });

        nodes.push(ChainNodeSpec {
            negated: ce.negated,
            class: ce.class,
            alpha_tests,
            join_tests,
        });
    }

    Ok(CompiledProduction {
        prod,
        nodes,
        var_sources,
        ce_to_positive,
    })
}

/// Evaluates an alpha test against a WME's fields.
#[inline]
pub fn eval_alpha(test: &AlphaTest, fields: &[Value]) -> bool {
    let left = fields
        .get(test.slot as usize)
        .copied()
        .unwrap_or(Value::Nil);
    match &test.arg {
        AlphaArg::Const(v) => test.predicate.eval(&left, v),
        AlphaArg::Disj(vs) => vs.iter().any(|v| left.ops_eq(v)),
        AlphaArg::OtherSlot(s) => {
            let right = fields.get(*s as usize).copied().unwrap_or(Value::Nil);
            test.predicate.eval(&left, &right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::symbol::sym;

    fn compile_first(src: &str) -> CompiledProduction {
        let p = Program::parse(src).unwrap();
        compile_production(0, &p.productions[0]).unwrap()
    }

    #[test]
    fn join_tests_reference_binding_level() {
        let c = compile_first(
            "(literalize a x) (literalize b y)
             (p r (a ^x <v>) (b ^y <v>) --> (halt))",
        );
        assert_eq!(c.nodes.len(), 2);
        assert!(c.nodes[0].join_tests.is_empty());
        assert_eq!(c.nodes[1].join_tests.len(), 1);
        let jt = c.nodes[1].join_tests[0];
        assert_eq!(jt.their_level, 0);
        assert_eq!(jt.my_slot, 0);
        assert_eq!(jt.predicate, Predicate::Eq);
    }

    #[test]
    fn intra_element_test_is_alpha() {
        let c = compile_first(
            "(literalize a x y)
             (p r (a ^x <v> ^y <v>) --> (halt))",
        );
        assert_eq!(c.nodes[0].alpha_tests.len(), 1);
        assert!(matches!(
            c.nodes[0].alpha_tests[0].arg,
            AlphaArg::OtherSlot(0)
        ));
        assert!(c.nodes[0].join_tests.is_empty());
    }

    #[test]
    fn positive_bookkeeping_skips_negated() {
        let c = compile_first(
            "(literalize a x) (literalize b y)
             (p r (a ^x <v>) -(b ^y <v>) (a ^x 1) --> (halt))",
        );
        assert_eq!(c.ce_to_positive, vec![Some(0), None, Some(1)]);
    }

    #[test]
    fn var_sources_resolved() {
        let c = compile_first(
            "(literalize a x y)
             (p r (a ^x <v> ^y <w>) --> (make a ^x <w>))",
        );
        assert_eq!(c.var_sources.len(), 2);
        assert_eq!(
            c.var_sources,
            vec![
                VarSource::Lhs {
                    level: 0,
                    slot: 0,
                    pos: 0
                },
                VarSource::Lhs {
                    level: 0,
                    slot: 1,
                    pos: 0
                },
            ]
        );
        // A negated element in between: the level counts it, the position
        // among the positive elements does not.
        let c = compile_first(
            "(literalize a x) (literalize b y)
             (p r (a ^x <v>) -(b ^y <v>) (a ^x <w>) --> (make a ^x <w>))",
        );
        assert_eq!(
            c.var_sources[1],
            VarSource::Lhs {
                level: 2,
                slot: 0,
                pos: 1
            }
        );
    }

    #[test]
    fn eval_alpha_const_disj_otherslot() {
        let fields = [Value::Int(5), Value::Int(5), Value::symbol("tarmac")];
        assert!(eval_alpha(
            &AlphaTest {
                slot: 0,
                predicate: Predicate::Gt,
                arg: AlphaArg::Const(Value::Int(3))
            },
            &fields
        ));
        assert!(eval_alpha(
            &AlphaTest {
                slot: 2,
                predicate: Predicate::Eq,
                arg: AlphaArg::Disj(vec![Value::symbol("grass"), Value::symbol("tarmac")])
            },
            &fields
        ));
        assert!(eval_alpha(
            &AlphaTest {
                slot: 0,
                predicate: Predicate::Eq,
                arg: AlphaArg::OtherSlot(1)
            },
            &fields
        ));
        assert!(!eval_alpha(
            &AlphaTest {
                slot: 0,
                predicate: Predicate::Eq,
                arg: AlphaArg::OtherSlot(2)
            },
            &fields
        ));
        let _ = sym("tarmac");
    }
}
