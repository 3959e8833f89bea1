//! Fragment hypotheses: SPAM's scene-interpretation primitives.

use ops5::{sym, Symbol, Value};
use std::fmt;
use std::sync::OnceLock;

/// The airport-domain fragment classes SPAM hypothesises (§2.2: "SPAM has
/// been applied in two task areas: airport and suburban house scene
/// analysis" — this reproduction implements the airport domain).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FragmentKind {
    /// A runway: very long, straight, wide strip.
    Runway,
    /// A taxiway: long, narrower strip connecting runways and aprons.
    Taxiway,
    /// An access road: narrow linear feature outside the movement area.
    AccessRoad,
    /// A terminal building: large compact bright structure.
    TerminalBuilding,
    /// A hangar: compact structure near the movement area.
    Hangar,
    /// A parking apron: large medium-dark paved area near terminals.
    ParkingApron,
    /// A vehicle parking lot: medium paved area near access roads.
    ParkingLot,
    /// A grassy area between pavement.
    GrassyArea,
    /// Unassigned paved area (tarmac).
    Tarmac,
    /// A fuel-storage tank: small round structure.
    FuelTank,
    // --- suburban-domain classes (the paper's second task area, §2.2) ---
    /// A detached house: bright compact roof structure.
    House,
    /// A driveway: short narrow paved strip from street to house.
    Driveway,
    /// A street: long narrow paved strip.
    Street,
    /// A garage: small bright structure by a driveway.
    Garage,
    /// A swimming pool: small dark compact region in a yard.
    SwimmingPool,
    /// A yard: mid-intensity open area around a house.
    Yard,
}

/// All fragment kinds, in a fixed order (the Level-4 task list; only kinds
/// with hypotheses in the scene yield Level-4 tasks).
pub const ALL_KINDS: [FragmentKind; 16] = [
    FragmentKind::Runway,
    FragmentKind::Taxiway,
    FragmentKind::AccessRoad,
    FragmentKind::TerminalBuilding,
    FragmentKind::Hangar,
    FragmentKind::ParkingApron,
    FragmentKind::ParkingLot,
    FragmentKind::GrassyArea,
    FragmentKind::Tarmac,
    FragmentKind::FuelTank,
    FragmentKind::House,
    FragmentKind::Driveway,
    FragmentKind::Street,
    FragmentKind::Garage,
    FragmentKind::SwimmingPool,
    FragmentKind::Yard,
];

impl FragmentKind {
    /// The OPS5 symbols naming the kinds, in `ALL_KINDS` (= declaration =
    /// discriminant) order. Interned once per process: every fragment,
    /// `near` and constraint element a task loads carries one, and every
    /// `rtf-conf` call and harvested fragment is told apart by one.
    fn symbols() -> &'static [Symbol; 16] {
        static SYMBOLS: OnceLock<[Symbol; 16]> = OnceLock::new();
        SYMBOLS.get_or_init(|| ALL_KINDS.map(|k| sym(k.name())))
    }

    /// The OPS5 symbol naming this kind.
    pub fn symbol(self) -> Symbol {
        Self::symbols()[self as usize]
    }

    /// The kind `symbol` names, if any — without the interner: no lock, no
    /// string.
    pub fn from_symbol(symbol: Symbol) -> Option<FragmentKind> {
        let at = Self::symbols().iter().position(|&s| s == symbol)?;
        Some(ALL_KINDS[at])
    }

    /// The OPS5 value naming this kind.
    pub fn value(self) -> Value {
        Value::Sym(self.symbol())
    }

    /// Stable lower-case name used in rules and working memory.
    pub fn name(self) -> &'static str {
        match self {
            FragmentKind::Runway => "runway",
            FragmentKind::Taxiway => "taxiway",
            FragmentKind::AccessRoad => "access-road",
            FragmentKind::TerminalBuilding => "terminal-building",
            FragmentKind::Hangar => "hangar",
            FragmentKind::ParkingApron => "parking-apron",
            FragmentKind::ParkingLot => "parking-lot",
            FragmentKind::GrassyArea => "grassy-area",
            FragmentKind::Tarmac => "tarmac",
            FragmentKind::FuelTank => "fuel-tank",
            FragmentKind::House => "house",
            FragmentKind::Driveway => "driveway",
            FragmentKind::Street => "street",
            FragmentKind::Garage => "garage",
            FragmentKind::SwimmingPool => "swimming-pool",
            FragmentKind::Yard => "yard",
        }
    }
}

impl fmt::Display for FragmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fragment hypothesis produced by the RTF phase: *region R is a K*.
#[derive(Clone, Debug, PartialEq)]
pub struct FragmentHypothesis {
    /// Fragment id (dense across the phase output).
    pub id: u32,
    /// The supporting region.
    pub region: u32,
    /// Hypothesised class.
    pub kind: FragmentKind,
    /// RTF confidence in `[0, 1]` (from how centrally the descriptors sit
    /// in the class envelope).
    pub confidence: f64,
    /// Accumulated consistency support (filled by LCC).
    pub support: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in ALL_KINDS {
            assert_eq!(FragmentKind::from_symbol(sym(k.name())), Some(k));
        }
        assert_eq!(FragmentKind::from_symbol(sym("spaceport")), None);
    }

    #[test]
    fn symbols_are_stable() {
        assert_eq!(
            FragmentKind::TerminalBuilding.symbol(),
            sym("terminal-building")
        );
        assert_eq!(FragmentKind::Runway.value(), Value::symbol("runway"));
        // The cached table is indexed by discriminant: every kind, not
        // just the first few.
        for k in ALL_KINDS {
            assert_eq!(k.symbol(), sym(k.name()), "{k}");
        }
    }

    #[test]
    fn all_kinds_distinct() {
        let mut names: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ALL_KINDS.len());
    }
}
