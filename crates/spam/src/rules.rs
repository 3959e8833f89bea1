//! The SPAM rule base, in genuine OPS5 syntax.
//!
//! One program contains all four phases, gated by a `(control ^phase X)`
//! element — mirroring the original system's "hard-wired productions for
//! each phase that control the order of rule executions" (§2.2). The LCC
//! pair-evaluation productions are generated per constraint from
//! [`crate::constraints::CONSTRAINTS`] (SPAM's 600-production scale came
//! from exactly this kind of knowledge-base expansion).
//!
//! Working-memory schema:
//!
//! * `region` — a segmentation region with its shape descriptors;
//! * `fragment` — an RTF hypothesis (*region R is a K*) with LCC support;
//! * `constraint` — one row of the consistency knowledge base;
//! * `lcc-task` / `lcc-check` / `lcc-pair` — the Level-3 / Level-2 /
//!   Level-1 work items of the LCC decomposition (Figure 4);
//! * `consistent` — a successful constraint application;
//! * `fa-area` / `fa-member` / `prediction` — functional-area aggregation;
//! * `model` / `model-area` — scene-model assembly.

use crate::constraints::CONSTRAINTS;
use crate::externals::{register, ExternalCtx};
use crate::fragments::FragmentHypothesis;
use crate::scene::Scene;
use ops5::ast::SlotIdx;
use ops5::{sym, Symbol, Value};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

/// The working-memory class declarations.
pub fn declarations() -> String {
    "\
(literalize control phase status)
(literalize region id status elongation length width compactness rectangularity intensity area)
(literalize proto kind out eln elx lnn lnx wdn wdx inn inx arn arx cpn rcn conf)
(literalize fragment id region kind conf support status)
(literalize constraint id subject object rel param weight)
(literalize lcc-task id frag kind status)
(literalize lcc-check id task frag constraint status)
(literalize lcc-pair check frag other constraint status)
(literalize near a b kind)
(literalize consistent a b rel weight counted)
(literalize fa-area id kind seed nmembers status)
(literalize fa-member area frag)
(literalize prediction area kind status)
(literalize model id score areas status)
(literalize model-area area verified)
"
    .to_owned()
}

/// A working-memory class resolved for [`ops5::Engine::make_wme_slots`]:
/// its symbol and the slot indices of `N` of its attributes, in the order
/// the holder names them.
#[derive(Clone, Copy, Debug)]
pub struct ClassSlots<const N: usize> {
    /// The class symbol.
    pub class: Symbol,
    /// Slot index of each named attribute.
    pub slots: [SlotIdx; N],
}

impl<const N: usize> ClassSlots<N> {
    fn resolve(program: &ops5::Program, class: &str, attrs: [&str; N]) -> ClassSlots<N> {
        let class = sym(class);
        let slots = attrs.map(|a| program.slot_of(class, sym(a)).expect("declared attribute"));
        ClassSlots { class, slots }
    }

    /// `values`, one per named attribute, as slot assignments.
    pub fn sets(&self, values: [Value; N]) -> [(SlotIdx, Value); N] {
        std::array::from_fn(|i| (self.slots[i], values[i]))
    }

    /// Loads one element of this class into `e`'s working memory. Always
    /// inlined: out of line, passing the values and building the slot
    /// assignments cost an LCC Level-3 load 19 % (measured, 2 ms of 10.7
    /// per SF+DC+MOFF pass), and the hint alone does not get it inlined.
    #[inline(always)]
    pub fn make(&self, e: &mut ops5::Engine, values: [Value; N]) {
        e.make_wme_slots(self.class, &self.sets(values))
            .expect("a declared class and its own slots");
    }

    /// The named attributes of every element of this class in `e`'s working
    /// memory, in working-memory order: the one harvest.
    pub fn rows<'e>(&self, e: &'e ops5::Engine) -> impl Iterator<Item = [Value; N]> + 'e {
        let ClassSlots { class, slots } = *self;
        (e.wm().iter())
            .filter(move |(_, w)| w.class == class)
            .map(move |(_, w)| slots.map(|s| w.get(usize::from(s))))
    }
}

/// The classes a task's working memory is loaded with and harvested from,
/// each with its attributes in the order listed here.
#[derive(Clone, Copy, Debug)]
pub struct Schema {
    /// `control`: phase, status.
    pub control: ClassSlots<2>,
    /// `region`: id, status, elongation, length, width, compactness,
    /// rectangularity, intensity, area.
    pub region: ClassSlots<9>,
    /// `proto`: kind, out, eln, elx, lnn, lnx, wdn, wdx, inn, inx, arn,
    /// arx, cpn, rcn, conf.
    pub proto: ClassSlots<15>,
    /// `fragment`: id, region, kind, conf, support, status.
    pub fragment: ClassSlots<6>,
    /// `near`: a, b, kind.
    pub near: ClassSlots<3>,
    /// `constraint`: id, subject, object, rel, param, weight.
    pub constraint: ClassSlots<6>,
    /// `lcc-task`: id, frag, kind, status.
    pub task: ClassSlots<4>,
    /// `lcc-check`: id, task, frag, constraint, status.
    pub check: ClassSlots<5>,
    /// `lcc-pair`: check, frag, other, constraint, status.
    pub pair: ClassSlots<5>,
    /// `consistent`: a, b, rel, weight, counted.
    pub consistent: ClassSlots<5>,
    /// `fa-area`: id, kind, seed, nmembers, status.
    pub area: ClassSlots<5>,
    /// `fa-member`: area, frag.
    pub member: ClassSlots<2>,
    /// `prediction`: area, kind.
    pub prediction: ClassSlots<2>,
    /// `model`: score, areas.
    pub model: ClassSlots<2>,
    /// `model-area`: area.
    pub model_area: ClassSlots<1>,
}

/// The schema of [`declarations`], resolved once per process — on the
/// first [`SpamProgram::build`], so no task pays for it. The declarations
/// are a constant of this crate, which is what lets every engine built
/// from them share one resolution.
pub fn schema() -> &'static Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let p = &ops5::Program::parse(&declarations()).expect("declarations parse");
        Schema {
            control: ClassSlots::resolve(p, "control", ["phase", "status"]),
            region: ClassSlots::resolve(
                p,
                "region",
                [
                    "id",
                    "status",
                    "elongation",
                    "length",
                    "width",
                    "compactness",
                    "rectangularity",
                    "intensity",
                    "area",
                ],
            ),
            proto: ClassSlots::resolve(
                p,
                "proto",
                [
                    "kind", "out", "eln", "elx", "lnn", "lnx", "wdn", "wdx", "inn", "inx", "arn",
                    "arx", "cpn", "rcn", "conf",
                ],
            ),
            fragment: ClassSlots::resolve(
                p,
                "fragment",
                ["id", "region", "kind", "conf", "support", "status"],
            ),
            near: ClassSlots::resolve(p, "near", ["a", "b", "kind"]),
            constraint: ClassSlots::resolve(
                p,
                "constraint",
                ["id", "subject", "object", "rel", "param", "weight"],
            ),
            task: ClassSlots::resolve(p, "lcc-task", ["id", "frag", "kind", "status"]),
            check: ClassSlots::resolve(
                p,
                "lcc-check",
                ["id", "task", "frag", "constraint", "status"],
            ),
            pair: ClassSlots::resolve(
                p,
                "lcc-pair",
                ["check", "frag", "other", "constraint", "status"],
            ),
            consistent: ClassSlots::resolve(
                p,
                "consistent",
                ["a", "b", "rel", "weight", "counted"],
            ),
            area: ClassSlots::resolve(p, "fa-area", ["id", "kind", "seed", "nmembers", "status"]),
            member: ClassSlots::resolve(p, "fa-member", ["area", "frag"]),
            prediction: ClassSlots::resolve(p, "prediction", ["area", "kind"]),
            model: ClassSlots::resolve(p, "model", ["score", "areas"]),
            model_area: ClassSlots::resolve(p, "model-area", ["area"]),
        }
    })
}

/// One RTF classification prototype: the fragment kind it hypothesises and
/// its descriptor envelope
/// `[eln, elx, lnn, lnx, wdn, wdx, inn, inx, arn, arx, cpn, rcn]`
/// (min/max elongation, length, width, intensity, area; min compactness and
/// rectangularity), plus a default confidence for weak envelopes.
#[derive(Clone, Copy, Debug)]
pub struct Prototype {
    /// Hypothesised fragment kind name.
    pub out: &'static str,
    /// Envelope bounds (see type docs for the order).
    pub bounds: [f64; 12],
    /// Confidence assigned when < 0 the external computes it.
    pub conf: f64,
    /// Scene domain whose RTF working memory loads this prototype.
    pub domain: crate::scene::SceneDomain,
}

const HI: f64 = 1.0e12;

/// The prototype table (primary envelopes plus weak secondary envelopes for
/// ambiguous linear features — the paper's classify/subclassify ambiguity).
pub fn prototypes() -> Vec<(&'static str, Prototype)> {
    use crate::scene::SceneDomain::{Airport, Suburban};
    let p = |out, bounds, conf| Prototype {
        out,
        bounds,
        conf,
        domain: Airport,
    };
    let q = |out, bounds, conf| Prototype {
        out,
        bounds,
        conf,
        domain: Suburban,
    };
    vec![
        (
            "runway",
            p(
                "runway",
                [8.0, HI, 1500.0, HI, 28.0, 95.0, 0.0, HI, 0.0, HI, 0.0, 0.55],
                -1.0,
            ),
        ),
        (
            "taxiway",
            p(
                "taxiway",
                [8.0, HI, 350.0, HI, 8.0, 48.0, 0.0, HI, 0.0, HI, 0.0, 0.0],
                -1.0,
            ),
        ),
        (
            "access-road",
            p(
                "access-road",
                [10.0, HI, 180.0, HI, 0.0, 22.0, 0.0, HI, 0.0, HI, 0.0, 0.0],
                -1.0,
            ),
        ),
        (
            "terminal-building",
            p(
                "terminal-building",
                [0.0, 3.5, 0.0, HI, 0.0, HI, 165.0, HI, 4000.0, HI, 0.45, 0.0],
                -1.0,
            ),
        ),
        (
            "hangar",
            p(
                "hangar",
                [
                    0.0, 3.0, 0.0, HI, 0.0, HI, 165.0, HI, 2000.0, 13000.0, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "parking-apron",
            p(
                "parking-apron",
                [
                    0.0, 4.0, 0.0, HI, 0.0, HI, 55.0, 135.0, 40000.0, HI, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "parking-lot",
            p(
                "parking-lot",
                [
                    0.0, 4.0, 0.0, HI, 0.0, HI, 75.0, 145.0, 5000.0, 40000.0, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "grassy-area",
            p(
                "grassy-area",
                [
                    0.0, 8.0, 0.0, HI, 0.0, HI, 112.0, 162.0, 3000.0, HI, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "tarmac",
            p(
                "tarmac",
                [
                    0.0, 7.0, 0.0, HI, 0.0, HI, 55.0, 125.0, 2500.0, 45000.0, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "fuel-tank",
            p(
                "fuel-tank",
                [0.0, HI, 0.0, HI, 0.0, HI, 165.0, HI, 0.0, 2500.0, 0.65, 0.0],
                -1.0,
            ),
        ),
        // Weak secondary envelopes.
        (
            "weak-taxiway",
            p(
                "taxiway",
                [6.0, 8.0, 350.0, HI, 0.0, 48.0, 0.0, HI, 0.0, HI, 0.0, 0.0],
                0.3,
            ),
        ),
        (
            "weak-road",
            p(
                "access-road",
                [6.0, 10.0, 0.0, HI, 0.0, 15.0, 0.0, HI, 0.0, HI, 0.0, 0.0],
                0.3,
            ),
        ),
        (
            "weak-tarmac",
            p(
                "tarmac",
                [
                    0.0, HI, 0.0, HI, 0.0, HI, 55.0, 125.0, 45000.0, HI, 0.0, 0.0,
                ],
                0.3,
            ),
        ),
        // --- suburban domain (different spatial scale: lots, not airfields)
        (
            "house",
            q(
                "house",
                [0.0, 3.0, 0.0, HI, 0.0, HI, 160.0, HI, 60.0, 500.0, 0.4, 0.0],
                -1.0,
            ),
        ),
        (
            "street",
            q(
                "street",
                [
                    10.0, HI, 120.0, HI, 5.0, 16.0, 60.0, 130.0, 0.0, HI, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "driveway",
            q(
                "driveway",
                [
                    2.0, 12.0, 8.0, 60.0, 2.0, 7.0, 60.0, 140.0, 0.0, 420.0, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
        (
            "garage",
            q(
                "garage",
                [0.0, 2.5, 0.0, HI, 0.0, HI, 160.0, HI, 15.0, 60.0, 0.5, 0.0],
                -1.0,
            ),
        ),
        (
            "swimming-pool",
            q(
                "swimming-pool",
                [0.0, 2.0, 0.0, HI, 0.0, HI, 20.0, 75.0, 15.0, 90.0, 0.6, 0.0],
                -1.0,
            ),
        ),
        (
            "yard",
            q(
                "yard",
                [
                    0.0, 6.0, 0.0, HI, 0.0, HI, 105.0, 160.0, 100.0, 2500.0, 0.0, 0.0,
                ],
                -1.0,
            ),
        ),
    ]
}

/// RTF: region-to-fragment heuristic classification (§2.2: "a traditional
/// heuristic classification task ... it may classify linear regions in the
/// scene as taxiways or runways").
pub fn rtf_rules() -> String {
    let mut s = String::new();
    // Low-level measurement: charges the (external) feature-extraction
    // cost once per region.
    s.push_str(
        "(p rtf-measure
            (control ^phase rtf)
            (region ^id <r> ^status pending)
            -->
            (call measure-region <r>)
            (modify 2 ^status measured))\n",
    );
    // Classification against prototype envelopes held in working memory —
    // one production per prototype, with the envelope bounds joined in from
    // the `proto` element. This keeps RTF "closer to the framework of a
    // traditional OPS5 system" (§2.2): the classification work is *match*
    // work (the paper measures RTF at ~60 % match, §6.5). Envelopes
    // deliberately overlap: a long strip may be hypothesised as both runway
    // and taxiway; LCC sorts it out.
    for (name, _) in prototypes() {
        write!(
            s,
            "(p rtf-hyp-{name}
                (control ^phase rtf)
                (proto ^kind {name} ^out <ok>
                       ^eln <eln> ^elx <elx> ^lnn <lnn> ^lnx <lnx>
                       ^wdn <wdn> ^wdx <wdx> ^inn <inn> ^inx <inx>
                       ^arn <arn> ^arx <arx> ^cpn <cpn> ^rcn <rcn> ^conf <cf>)
                (region ^id <r> ^status measured
                        ^elongation {{ >= <eln> <= <elx> }}
                        ^length {{ >= <lnn> <= <lnx> }}
                        ^width {{ >= <wdn> <= <wdx> }}
                        ^intensity {{ >= <inn> <= <inx> }}
                        ^area {{ >= <arn> <= <arx> }}
                        ^compactness >= <cpn>
                        ^rectangularity >= <rcn>)
                -(fragment ^region <r> ^kind <ok>)
                -->
                (bind <f> (call new-frag-id))
                (make fragment ^id <f> ^region <r> ^kind <ok>
                      ^conf (call rtf-conf <r> <ok> <cf>) ^support 0 ^status hypothesised))\n"
        )
        .unwrap();
    }
    // Phase completion.
    s.push_str(
        "(p rtf-done
            (control ^phase rtf ^status running)
            -(region ^status pending)
            -->
            (modify 1 ^status done))\n",
    );
    s
}

/// LCC: the constraint-satisfaction phase, decomposed exactly as Figure 4:
/// task (Level 3) → checks (Level 2) → pairs (Level 1).
pub fn lcc_rules() -> String {
    let mut s = String::new();
    s.push_str(
        "(p lcc-expand-task
            (control ^phase lcc)
            (lcc-task ^id <t> ^frag <f> ^kind <k> ^status pending)
            -->
            (call lcc-init <f>)
            (modify 2 ^status expanding))\n",
    );
    s.push_str(
        "(p lcc-gen-check
            (control ^phase lcc)
            (lcc-task ^id <t> ^frag <f> ^kind <k> ^status expanding)
            (constraint ^id <c> ^subject <k>)
            -(lcc-check ^frag <f> ^constraint <c>)
            -->
            (make lcc-check ^id (call new-check-id) ^task <t> ^frag <f>
                  ^constraint <c> ^status pending))\n",
    );
    s.push_str(
        "(p lcc-expand-check
            (control ^phase lcc)
            (lcc-check ^id <ch> ^frag <f> ^constraint <c> ^status pending)
            -->
            (call lcc-init-check <c>)
            (modify 2 ^status expanded))\n",
    );
    s.push_str(
        "(p lcc-gen-pair
            (control ^phase lcc)
            (lcc-check ^id <ch> ^frag <f> ^constraint <c> ^status expanded)
            (constraint ^id <c> ^object <k2>)
            (near ^a <f> ^b <g> ^kind <k2>)
            -(lcc-pair ^check <ch> ^other <g>)
            -->
            (make lcc-pair ^check <ch> ^frag <f> ^other <g> ^constraint <c>
                  ^status pending))\n",
    );
    // One evaluation production per constraint — the knowledge-base
    // expansion that gives SPAM its production count. The external runs the
    // geometric test and asserts the `consistent` element when it holds.
    for c in CONSTRAINTS {
        write!(
            s,
            "(p lcc-eval-c{}
                (control ^phase lcc)
                (lcc-pair ^check <ch> ^frag <f> ^other <g> ^constraint {} ^status pending)
                -->
                (call lcc-check-pair {} <f> <g>)
                (modify 2 ^status done))\n",
            c.id, c.id, c.id
        )
        .unwrap();
    }
    s.push_str(
        "(p lcc-support
            (control ^phase lcc)
            (consistent ^a <f> ^b <g> ^weight <w> ^counted nil)
            (fragment ^id <f> ^support <s>)
            -->
            (modify 2 ^counted yes)
            (modify 3 ^support (compute <s> + <w>)))\n",
    );
    s.push_str(
        "(p lcc-check-done
            (control ^phase lcc)
            (lcc-check ^id <ch> ^frag <f> ^status expanded)
            -(lcc-pair ^check <ch> ^status pending)
            -->
            (modify 2 ^status done))\n",
    );
    s.push_str(
        "(p lcc-task-done
            (control ^phase lcc)
            (lcc-task ^id <t> ^frag <f> ^status expanding)
            -(lcc-check ^task <t> ^status pending)
            -(lcc-check ^task <t> ^status expanded)
            -(consistent ^a <f> ^counted nil)
            -->
            (modify 2 ^status done))\n",
    );
    s
}

/// FA: aggregation of mutually consistent fragments into functional areas
/// ("a collection of mutually consistent runways and taxiways might combine
/// to generate a runway functional area", §2.2).
pub fn fa_rules() -> String {
    let mut s = String::new();
    // Seeds: well-supported core objects found their own areas.
    let seeds: &[(&str, &str, i64)] = &[
        ("runway", "runway-area", 3),
        ("terminal-building", "terminal-area", 3),
        ("hangar", "hangar-area", 2),
        ("fuel-tank", "storage-area", 2),
        // suburban domain
        ("house", "house-lot", 3),
        ("street", "street-area", 3),
    ];
    for (kind, area, minsup) in seeds {
        write!(
            s,
            "(p fa-seed-{kind}
                (control ^phase fa)
                (fragment ^id <f> ^kind {kind} ^support >= {minsup} ^status hypothesised)
                -->
                (modify 2 ^status in-area)
                (make fa-area ^id (call new-area-id) ^kind {area} ^seed <f>
                      ^nmembers 1 ^status growing))\n"
        )
        .unwrap();
    }
    // Growth: attach fragments consistent with the seed, in either
    // direction of the consistency record.
    let grows: &[(&str, &str)] = &[
        ("runway-area", "<< taxiway grassy-area tarmac runway >>"),
        (
            "terminal-area",
            "<< parking-apron access-road parking-lot terminal-building >>",
        ),
        ("hangar-area", "<< taxiway parking-apron >>"),
        ("storage-area", "<< tarmac fuel-tank >>"),
        // suburban domain
        ("house-lot", "<< driveway garage swimming-pool yard >>"),
        ("street-area", "<< street driveway >>"),
    ];
    for (i, (area, kinds)) in grows.iter().enumerate() {
        write!(
            s,
            "(p fa-grow-fwd-{i}
                (control ^phase fa)
                (fa-area ^id <a> ^kind {area} ^seed <f> ^nmembers <n> ^status growing)
                (consistent ^a <f> ^b <g>)
                (fragment ^id <g> ^kind {kinds} ^status hypothesised)
                -(fa-member ^area <a> ^frag <g>)
                -->
                (call fa-geom <f> <g>)
                (modify 4 ^status in-area)
                (make fa-member ^area <a> ^frag <g>)
                (modify 2 ^nmembers (compute <n> + 1)))\n"
        )
        .unwrap();
        write!(
            s,
            "(p fa-grow-rev-{i}
                (control ^phase fa)
                (fa-area ^id <a> ^kind {area} ^seed <f> ^nmembers <n> ^status growing)
                (consistent ^a <g> ^b <f>)
                (fragment ^id <g> ^kind {kinds} ^status hypothesised)
                -(fa-member ^area <a> ^frag <g>)
                -->
                (call fa-geom <f> <g>)
                (modify 4 ^status in-area)
                (make fa-member ^area <a> ^frag <g>)
                (modify 2 ^nmembers (compute <n> + 1)))\n"
        )
        .unwrap();
    }
    // Context-driven prediction: a grown runway area without grass predicts
    // grassy sub-areas ("the context of a runway functional area then
    // predicts that certain sub-areas ... are good candidates", §2.2).
    s.push_str(
        "(p fa-predict-grass
            (control ^phase fa)
            (fa-area ^id <a> ^kind runway-area ^status grown)
            -(prediction ^area <a> ^kind grassy-area)
            -->
            (make prediction ^area <a> ^kind grassy-area ^status open))\n",
    );
    s.push_str(
        "(p fa-predict-apron
            (control ^phase fa)
            (fa-area ^id <a> ^kind terminal-area ^status grown)
            -(prediction ^area <a> ^kind parking-apron)
            -->
            (make prediction ^area <a> ^kind parking-apron ^status open))\n",
    );
    // An area stops growing when no attachable fragment remains.
    s.push_str(
        "(p fa-area-grown
            (control ^phase fa)
            (fa-area ^id <a> ^status growing)
            -->
            (modify 2 ^status grown))\n",
    );
    s
}

/// MODEL: functional-area selection and stereo verification (§2.2: "other
/// forms of top-down activity include stereo verification to disambiguate
/// conflicting hypotheses in model-generation phase").
pub fn model_rules() -> String {
    let mut s = String::new();
    s.push_str(
        "(p model-init
            (control ^phase model)
            -(model)
            -->
            (make model ^id 1 ^score 0 ^areas 0 ^status building))\n",
    );
    s.push_str(
        "(p model-add-area
            (control ^phase model)
            (model ^id <m> ^score <s> ^areas <n> ^status building)
            (fa-area ^id <a> ^seed <sf> ^nmembers >= 2 ^status grown)
            -->
            (make model-area ^area <a> ^verified (call stereo-verify <a>))
            (modify 3 ^status in-model)
            (modify 2 ^score (compute <s> + (call area-score <sf>))
                      ^areas (compute <n> + 1)))\n",
    );
    s.push_str(
        "(p model-done
            (control ^phase model)
            (model ^id <m> ^status building)
            -(fa-area ^nmembers >= 2 ^status grown)
            -->
            (modify 2 ^status done))\n",
    );
    s
}

/// The complete SPAM program source.
pub fn spam_source() -> String {
    let mut s = declarations();
    s.push_str(&rtf_rules());
    s.push_str(&lcc_rules());
    s.push_str(&fa_rules());
    s.push_str(&model_rules());
    s
}

/// Makes the `control` element that puts the rule base in `phase` (`rtf`,
/// `lcc`, `fa`, `model`) — what every task's working memory starts with.
pub fn enter_phase(e: &mut ops5::Engine, phase: Symbol) {
    let running = Value::Sym(ops5::static_sym!("running"));
    schema().control.make(e, [Value::Sym(phase), running]);
}

/// The parsed and compiled SPAM program, shared (cheaply, via `Arc`) by
/// every engine instance of a run — the full-phase engines and the hundreds
/// of task-process engines of SPAM/PSM alike: as the paper's task processes
/// are forked from one initialised OPS5 (§5.1), every engine is an instance
/// of the one network built here.
#[derive(Clone)]
pub struct SpamProgram {
    /// Parsed program.
    pub program: Arc<ops5::Program>,
    /// Compiled Rete chain specifications.
    pub compiled: Arc<Vec<ops5::rete::compile::CompiledProduction>>,
    /// The network built from them, which every [`SpamProgram::engine`]
    /// runs on — full-phase engines and task-process engines alike, so a
    /// whole SPAM run can be replayed on the unshared network for
    /// comparison ([`SpamProgram::with_config`]).
    pub network: Arc<ops5::Network>,
}

impl SpamProgram {
    /// Parses and compiles the rule base and builds its network.
    pub fn build() -> SpamProgram {
        let parsed = ops5::Program::parse(&spam_source()).expect("SPAM rules parse");
        Self::from_program(Arc::new(parsed))
    }

    /// Compiles `program` — the rule base, parsed by the caller — and
    /// builds its default network.
    pub fn from_program(program: Arc<ops5::Program>) -> SpamProgram {
        let compiled = ops5::Engine::compile(&program).expect("SPAM rules compile");
        schema();
        let config = ops5::ReteConfig::default();
        let network = Arc::new(ops5::Network::build(&compiled, &program, config));
        SpamProgram {
            program,
            compiled,
            network,
        }
    }

    /// Returns this program on the network of `config`, built here if it is
    /// not the one the program already has: every engine created from the
    /// result runs on it.
    pub fn with_config(mut self, config: ops5::ReteConfig) -> SpamProgram {
        if self.network.config() != config {
            let network = ops5::Network::build(&self.compiled, &self.program, config);
            self.network = Arc::new(network);
        }
        self
    }

    /// Creates a fresh engine instance over the shared program and network.
    pub fn engine(&self) -> ops5::Engine {
        ops5::Engine::with_network(
            Arc::clone(&self.program),
            Arc::clone(&self.compiled),
            Arc::clone(&self.network),
        )
    }

    /// Creates a fresh engine with this scene's external functions
    /// registered (see [`ExternalCtx`] for `fragments` and `id_base`) — the
    /// one place a SPAM engine is wired, behind every phase. Its working
    /// memory is empty.
    pub fn engine_for(
        &self,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        id_base: i64,
    ) -> ops5::Engine {
        let mut e = self.engine();
        let (scene, fragments) = (Arc::clone(scene), Arc::clone(fragments));
        let ctx = ExternalCtx {
            scene,
            fragments,
            id_base,
        };
        register(&mut e, ctx);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Program;

    #[test]
    fn full_program_parses() {
        let src = spam_source();
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
        assert!(
            p.productions.len() >= 60,
            "expected a substantial rule base, got {}",
            p.productions.len()
        );
    }

    #[test]
    fn every_constraint_has_an_eval_production() {
        let p = Program::parse(&spam_source()).unwrap();
        for c in CONSTRAINTS {
            let name = format!("lcc-eval-c{}", c.id);
            assert!(p.production(ops5::sym(&name)).is_some(), "missing {name}");
        }
    }

    #[test]
    fn schema_agrees_with_the_built_program() {
        let sp = SpamProgram::build();
        let s = schema();
        let slot = |class, attr| sp.program.slot_of(class, sym(attr)).unwrap();
        assert_eq!(s.fragment.slots[4], slot(s.fragment.class, "support"));
        assert_eq!(s.pair.slots[2], slot(sym("lcc-pair"), "other"));
        assert_eq!(s.consistent.slots[3], slot(sym("consistent"), "weight"));
        let [a, b] = s.control.sets([Value::Int(1), Value::Int(2)]);
        assert_eq!((a, b), ((0, Value::Int(1)), (1, Value::Int(2))));
    }

    #[test]
    fn phases_have_their_gate() {
        for phase in ["rtf", "lcc", "fa", "model"] {
            let src = spam_source();
            assert!(
                src.contains(&format!("(control ^phase {phase})")),
                "{phase} rules must be gated"
            );
        }
    }
}
