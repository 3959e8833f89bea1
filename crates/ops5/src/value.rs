//! OPS5 attribute values.

use crate::symbol::{sym, Symbol};
use std::cmp::Ordering;
use std::fmt;

/// A value stored in a working-memory-element slot.
///
/// OPS5 values are symbols or numbers; unset slots hold `nil`. Numeric
/// comparison mixes integers and floats (`3 = 3.0`), while symbols compare
/// only with symbols.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Value {
    /// The distinguished "unset" value.
    #[default]
    Nil,
    /// An interned symbolic atom.
    Sym(Symbol),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
}

impl Value {
    /// Interns a string as a symbol value.
    pub fn symbol(name: &str) -> Value {
        Value::Sym(sym(name))
    }

    /// True when this is `nil`.
    #[inline]
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Numeric view (ints widen to float); `None` for symbols / nil.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for anything but `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Symbol view.
    #[inline]
    pub fn as_sym(&self) -> Option<Symbol> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// OPS5 equality: symbols by id, numbers numerically (`3 = 3.0`),
    /// `nil` only equals `nil`. Two integers compare exactly, as `i64`s;
    /// an integer and a float compare as `f64`s.
    #[inline]
    pub fn ops_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// OPS5 ordering for `< <= > >=`: defined only between two numbers,
    /// exact between two integers (as [`Value::ops_eq`]).
    #[inline]
    pub fn ops_cmp(&self, other: &Value) -> Option<Ordering> {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return Some(a.cmp(b));
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => None,
        }
    }

    /// OPS5 `<=>` ("same type") test.
    #[inline]
    pub fn same_type(&self, other: &Value) -> bool {
        matches!(
            (self, other),
            (Value::Nil, Value::Nil)
                | (Value::Sym(_), Value::Sym(_))
                | (Value::Int(_), Value::Int(_))
                | (Value::Float(_), Value::Float(_))
                | (Value::Int(_), Value::Float(_))
                | (Value::Float(_), Value::Int(_))
        )
    }

    /// A stable hash key for use in alpha-memory indexing and alpha
    /// discrimination. The contract both rely on is *no false negatives*:
    /// `a.ops_eq(b)` implies `a.hash_key() == b.hash_key()`. Numbers hash by
    /// the `f64` bit pattern of the widened value so `3` and `3.0` collide
    /// (and so do integers above 2^53 that widen to one float, which
    /// `ops_eq` tells apart),
    /// with the zero sign normalised (`0 = -0.0` numerically, but the two
    /// zeros differ in their sign bit). NaN never `ops_eq`s anything, itself
    /// included, so whichever key it gets is only ever a wasted probe.
    /// Unequal values may share a key; probers re-verify.
    #[inline]
    pub fn hash_key(&self) -> u64 {
        match self {
            Value::Nil => 0x6e696c,
            Value::Sym(s) => 0x8000_0000_0000_0000 | s.0 as u64,
            Value::Int(i) => (*i as f64).to_bits(),
            Value::Float(f) if *f == 0.0 => 0.0f64.to_bits(),
            Value::Float(f) => f.to_bits(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Sym(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::symbol(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy};

    #[test]
    fn numeric_equality_mixes_int_float() {
        assert!(Value::Int(3).ops_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).ops_eq(&Value::Float(3.5)));
        assert!(Value::Float(2.5).ops_eq(&Value::Float(2.5)));
    }

    #[test]
    fn symbols_never_equal_numbers() {
        assert!(!Value::symbol("3").ops_eq(&Value::Int(3)));
        assert!(!Value::Nil.ops_eq(&Value::Int(0)));
        assert!(Value::Nil.ops_eq(&Value::Nil));
    }

    #[test]
    fn ordering_only_for_numbers() {
        assert_eq!(
            Value::Int(1).ops_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::symbol("a").ops_cmp(&Value::symbol("b")), None);
        assert_eq!(Value::Nil.ops_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn two_integers_compare_exactly_above_two_to_the_53() {
        let (big, next) = (
            Value::Int(9_007_199_254_740_992),
            Value::Int(9_007_199_254_740_993),
        );
        assert!(!big.ops_eq(&next) && !next.ops_eq(&big));
        assert!(big.ops_eq(&big));
        assert_eq!(big.ops_cmp(&next), Some(Ordering::Less));
        assert_eq!(next.ops_cmp(&big), Some(Ordering::Greater));
        assert_eq!(
            Value::Int(i64::MAX).ops_cmp(&Value::Int(i64::MAX - 1)),
            Some(Ordering::Greater)
        );
        // An integer and a float still widen: both integers equal 2^53 as
        // an f64, and share its key.
        let float = Value::Float(9_007_199_254_740_992.0);
        assert!(big.ops_eq(&float) && next.ops_eq(&float));
        assert_eq!(next.ops_cmp(&float), Some(Ordering::Equal));
        assert_eq!(big.hash_key(), next.hash_key());
    }

    #[test]
    fn same_type_matrix() {
        assert!(Value::Int(1).same_type(&Value::Float(1.5)));
        assert!(Value::symbol("a").same_type(&Value::symbol("b")));
        assert!(!Value::symbol("a").same_type(&Value::Int(1)));
        assert!(Value::Nil.same_type(&Value::Nil));
        assert!(!Value::Nil.same_type(&Value::symbol("nil-ish")));
    }

    #[test]
    fn hash_key_consistent_with_ops_eq() {
        assert_eq!(Value::Int(3).hash_key(), Value::Float(3.0).hash_key());
        assert_ne!(Value::Int(3).hash_key(), Value::Int(4).hash_key());
        assert_ne!(Value::symbol("x").hash_key(), Value::Nil.hash_key());
    }

    #[test]
    fn hash_key_ignores_the_sign_of_zero() {
        let zeros = [Value::Int(0), Value::Float(0.0), Value::Float(-0.0)];
        for a in zeros {
            for b in zeros {
                assert!(a.ops_eq(&b));
                assert_eq!(a.hash_key(), b.hash_key(), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(
            Value::Float(-0.0).hash_key(),
            Value::Sym(Symbol(0)).hash_key(),
            "-0.0's bit pattern is symbol 0's key"
        );
    }

    /// Values drawn from small pools around the places `ops_eq` coerces:
    /// both zeros, whole-number floats beside the same ints, the 2^53 and
    /// 2^62 neighbourhoods and the top of `i64`, where distinct ints widen
    /// to one float, NaN, symbols and nil — so equal pairs of different
    /// representation, and unequal pairs of one key, are common.
    fn value() -> impl Strategy<Value = Value> {
        const TWO_53: i64 = 1 << 53;
        const TWO_62: i64 = 1 << 62;
        const FLOATS: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let int = prop_oneof![
            -3i64..4,
            (TWO_53 - 2)..(TWO_53 + 3),
            (-TWO_53 - 2)..(-TWO_53 + 3),
            (TWO_62 - 2)..(TWO_62 + 3),
            (0i64..4).prop_map(|i| i64::MAX - i),
            (0i64..2).prop_map(|i| [i64::MIN, i64::MAX][i as usize]),
        ];
        let float = prop_oneof![
            (0usize..FLOATS.len()).prop_map(|i| FLOATS[i]),
            (-3i64..4).prop_map(|i| i as f64),
            (-6i64..7).prop_map(|i| i as f64 / 2.0),
            ((TWO_53 - 2)..(TWO_53 + 3)).prop_map(|i| i as f64),
            ((TWO_62 - 2)..(TWO_62 + 3)).prop_map(|i| i as f64),
            // Negative subnormals: their bit patterns are symbol keys.
            (1u64..4).prop_map(|b| f64::from_bits(0x8000_0000_0000_0000 | b)),
        ];
        const ZEROS: [Value; 3] = [Value::Int(0), Value::Float(0.0), Value::Float(-0.0)];
        prop_oneof![
            1 => (0u8..1).prop_map(|_| Value::Nil),
            2 => (0u32..4).prop_map(|s| Value::Sym(Symbol(s))),
            3 => (0usize..ZEROS.len()).prop_map(|i| ZEROS[i]),
            4 => int.prop_map(Value::Int),
            4 => float.prop_map(Value::Float),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// No false negatives: whatever `ops_eq` calls equal shares a key,
        /// so a hashed probe (an indexed join, the alpha dispatch) finds
        /// everything a scan with `ops_eq` would.
        #[test]
        fn hash_key_has_no_false_negatives(a in value(), b in value()) {
            if a.ops_eq(&b) {
                prop_assert_eq!(a.hash_key(), b.hash_key(), "{:?} = {:?}", a, b);
            }
        }

        /// `=` and the orderings agree: two numbers compare `Equal` exactly
        /// when `ops_eq` holds, whatever their representations.
        #[test]
        fn ordering_is_equal_exactly_when_ops_eq(a in value(), b in value()) {
            if a.as_f64().is_some() && b.as_f64().is_some() {
                prop_assert_eq!(a.ops_cmp(&b) == Some(Ordering::Equal), a.ops_eq(&b), "{:?} {:?}", a, b);
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::symbol("apron").to_string(), "apron");
    }
}
