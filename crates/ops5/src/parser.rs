//! Recursive-descent parser: OPS5 source → [`Program`].
//!
//! Supported top-level forms:
//!
//! * `(literalize class attr...)` — class declaration;
//! * `(p name CE... --> action...)` — production;
//! * `(strategy lex)` / `(strategy mea)` — conflict-resolution strategy;
//! * `(external name...)` — external-function declaration (recorded).
//!
//! Declarations are collected in a first pass, so order does not matter.

use crate::ast::{
    Action, ArithOp, CondElem, Expr, Predicate, Production, SlotIdx, SlotTest, TestArg, VarId,
};
use crate::conflict::Strategy;
use crate::lexer::{lex, Spanned, Token};
use crate::program::{ClassInfo, Program};
use crate::symbol::sym;
use crate::value::Value;
use crate::{Error, Result};
use std::collections::{HashMap, HashSet};

/// Parses a complete program.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut program = Program::default();

    // Pass 1: literalize / strategy / external declarations.
    {
        let mut c = Cursor::new(&toks);
        while !c.at_end() {
            c.expect_lparen()?;
            let head = c.expect_sym()?;
            match head.as_str() {
                "literalize" => {
                    let class = sym(&c.expect_sym()?);
                    let mut attrs = Vec::new();
                    while !c.peek_rparen() {
                        attrs.push(sym(&c.expect_sym()?));
                    }
                    c.expect_rparen()?;
                    if attrs.is_empty() {
                        return Err(Error::Semantic(format!(
                            "class '{class}' has no attributes"
                        )));
                    }
                    program.insert_class(ClassInfo::new(class, attrs))?;
                }
                "strategy" => {
                    let s = c.expect_sym()?;
                    program.strategy = match s.as_str() {
                        "lex" => Strategy::Lex,
                        "mea" => Strategy::Mea,
                        other => return Err(Error::Parse(format!("unknown strategy '{other}'"))),
                    };
                    c.expect_rparen()?;
                }
                "external" => {
                    while !c.peek_rparen() {
                        let name = sym(&c.expect_sym()?);
                        program.externals.push(name);
                    }
                    c.expect_rparen()?;
                }
                "p" => c.skip_rest_of_form()?,
                other => {
                    return Err(Error::Parse(format!(
                        "line {}: unknown top-level form '({other} ...)'",
                        c.line()
                    )))
                }
            }
        }
    }

    // Pass 2: productions.
    let mut c = Cursor::new(&toks);
    while !c.at_end() {
        c.expect_lparen()?;
        let head = c.expect_sym()?;
        if head == "p" {
            let prod = parse_production(&mut c, &program)?;
            if program.productions.iter().any(|p| p.name == prod.name) {
                return Err(Error::Semantic(format!(
                    "production '{}' defined twice",
                    prod.name
                )));
            }
            program.productions.push(prod);
        } else {
            c.skip_rest_of_form()?;
        }
    }
    Ok(program)
}

// ---------------------------------------------------------------------------

/// Deepest nesting of value forms (`compute`, `call`, …) the parser
/// accepts. SPAM's rules nest under 5; the bound keeps the recursive descent
/// off the end of the stack on hostile input.
const MAX_DEPTH: usize = 128;

struct Cursor<'a> {
    toks: &'a [Spanned],
    pos: usize,
    /// Value forms currently open.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(toks: &'a [Spanned]) -> Self {
        Cursor {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Result<&'a Token> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| Error::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(&t.tok)
    }

    fn err(&self, msg: &str) -> Error {
        Error::Parse(format!("line {}: {msg}", self.line()))
    }

    fn expect_lparen(&mut self) -> Result<()> {
        match self.next()? {
            Token::LParen => Ok(()),
            t => Err(self.err(&format!("expected '(', found {t:?}"))),
        }
    }

    fn expect_rparen(&mut self) -> Result<()> {
        match self.next()? {
            Token::RParen => Ok(()),
            t => Err(self.err(&format!("expected ')', found {t:?}"))),
        }
    }

    fn peek_rparen(&self) -> bool {
        matches!(self.peek(), Some(Token::RParen))
    }

    fn expect_sym(&mut self) -> Result<String> {
        match self.next()? {
            Token::Sym(s) => Ok(s.clone()),
            t => Err(self.err(&format!("expected symbol, found {t:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.next()? {
            Token::Int(i) => Ok(*i),
            t => Err(self.err(&format!("expected integer, found {t:?}"))),
        }
    }

    /// Skips to the end of the current form (assumes the opening paren and
    /// head were already consumed).
    fn skip_rest_of_form(&mut self) -> Result<()> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.next()? {
                Token::LParen => depth += 1,
                Token::RParen => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

struct ProdCtx<'p> {
    program: &'p Program,
    /// name → id, across the whole production.
    vars: HashMap<String, VarId>,
    /// Variables bound by a positive CE (usable in later CEs and the RHS).
    bound: HashSet<VarId>,
    /// Variables introduced by `bind` on the RHS.
    rhs_bound: HashSet<VarId>,
    n_tests: u32,
}

impl<'p> ProdCtx<'p> {
    fn var_id(&mut self, name: &str) -> VarId {
        let next = self.vars.len() as VarId;
        *self.vars.entry(name.to_owned()).or_insert(next)
    }
}

fn parse_production(c: &mut Cursor, program: &Program) -> Result<Production> {
    let name = sym(&c.expect_sym()?);
    let mut ctx = ProdCtx {
        program,
        vars: HashMap::new(),
        bound: HashSet::new(),
        rhs_bound: HashSet::new(),
        n_tests: 0,
    };

    // --- LHS: condition elements until `-->`.
    let mut ces: Vec<CondElem> = Vec::new();
    loop {
        match c.peek() {
            Some(Token::Arrow) => {
                c.next()?;
                break;
            }
            Some(Token::Minus) => {
                c.next()?;
                c.expect_lparen()?;
                let ce = parse_ce(c, &mut ctx, true)
                    .map_err(|e| Error::Parse(format!("in production '{name}': {e}")))?;
                ces.push(ce);
            }
            Some(Token::LParen) => {
                c.next()?;
                let ce = parse_ce(c, &mut ctx, false)
                    .map_err(|e| Error::Parse(format!("in production '{name}': {e}")))?;
                ces.push(ce);
            }
            _ => {
                return Err(c.err(&format!(
                    "in production '{name}': expected condition element or '-->'"
                )))
            }
        }
    }
    if ces.is_empty() {
        return Err(Error::Semantic(format!(
            "production '{name}' has an empty LHS"
        )));
    }
    if ces[0].negated {
        return Err(Error::Semantic(format!(
            "production '{name}': the first condition element must be positive"
        )));
    }

    // --- RHS: actions until the closing paren of the production.
    let mut actions = Vec::new();
    while !c.peek_rparen() {
        c.expect_lparen()?;
        let act = parse_action(c, &mut ctx, &ces)
            .map_err(|e| Error::Parse(format!("in production '{name}': {e}")))?;
        actions.extend(act);
    }
    c.expect_rparen()?;

    let specificity = ctx.n_tests;
    Ok(Production {
        name,
        ces,
        actions,
        n_vars: ctx.vars.len() as u16,
        specificity,
    })
}

/// Parses one condition element (the opening paren already consumed).
fn parse_ce(c: &mut Cursor, ctx: &mut ProdCtx, negated: bool) -> Result<CondElem> {
    let class_name = c.expect_sym()?;
    let class = sym(&class_name);
    let cinfo = ctx
        .program
        .class(class)
        .ok_or_else(|| {
            Error::Semantic(format!(
                "unknown class '{class_name}' (missing literalize?)"
            ))
        })?
        .clone();

    let mut tests = Vec::new();
    let mut bindings = Vec::new();
    // Variables bound locally inside a negated CE.
    let mut local_bound: HashSet<VarId> = HashSet::new();

    while !c.peek_rparen() {
        let attr_name = match c.next()? {
            Token::Attr(a) => a.clone(),
            t => return Err(Error::Parse(format!("expected ^attribute, found {t:?}"))),
        };
        let slot = cinfo.slot_of(sym(&attr_name)).ok_or_else(|| {
            Error::Semantic(format!(
                "class '{class_name}' has no attribute '{attr_name}'"
            ))
        })?;

        // One value spec: scalar / { conjunction } / << disjunction >>.
        parse_value_spec(
            c,
            ctx,
            slot,
            negated,
            &mut tests,
            &mut bindings,
            &mut local_bound,
        )?;
    }
    c.expect_rparen()?;

    if !negated {
        // Positive-CE bindings become visible to later CEs and the RHS.
        for &(_, v) in &bindings {
            ctx.bound.insert(v);
        }
    }
    ctx.n_tests += (tests.len() + bindings.len()) as u32;

    Ok(CondElem {
        negated,
        class,
        tests,
        bindings,
    })
}

#[allow(clippy::too_many_arguments)]
fn parse_value_spec(
    c: &mut Cursor,
    ctx: &mut ProdCtx,
    slot: SlotIdx,
    negated: bool,
    tests: &mut Vec<SlotTest>,
    bindings: &mut Vec<(SlotIdx, VarId)>,
    local_bound: &mut HashSet<VarId>,
) -> Result<()> {
    match c.peek() {
        Some(Token::LBrace) => {
            c.next()?;
            while !matches!(c.peek(), Some(Token::RBrace)) {
                parse_single_test(c, ctx, slot, negated, tests, bindings, local_bound)?;
            }
            c.next()?; // consume }
            Ok(())
        }
        _ => parse_single_test(c, ctx, slot, negated, tests, bindings, local_bound),
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_single_test(
    c: &mut Cursor,
    ctx: &mut ProdCtx,
    slot: SlotIdx,
    negated: bool,
    tests: &mut Vec<SlotTest>,
    bindings: &mut Vec<(SlotIdx, VarId)>,
    local_bound: &mut HashSet<VarId>,
) -> Result<()> {
    // Optional predicate, default '='.
    let pred = match c.peek() {
        Some(Token::Pred(p)) => {
            let p = *p;
            c.next()?;
            match p {
                "=" => Predicate::Eq,
                "<>" => Predicate::Ne,
                "<" => Predicate::Lt,
                "<=" => Predicate::Le,
                ">" => Predicate::Gt,
                ">=" => Predicate::Ge,
                "<=>" => Predicate::SameType,
                _ => unreachable!("lexer produces a fixed predicate set"),
            }
        }
        _ => Predicate::Eq,
    };

    match c.next()? {
        Token::Int(i) => tests.push(SlotTest {
            slot,
            predicate: pred,
            arg: TestArg::Const(Value::Int(*i)),
        }),
        Token::Float(f) => tests.push(SlotTest {
            slot,
            predicate: pred,
            arg: TestArg::Const(Value::Float(*f)),
        }),
        Token::Sym(s) => {
            let v = if s == "nil" {
                Value::Nil
            } else {
                Value::symbol(s)
            };
            tests.push(SlotTest {
                slot,
                predicate: pred,
                arg: TestArg::Const(v),
            });
        }
        Token::Text(t) => tests.push(SlotTest {
            slot,
            predicate: pred,
            arg: TestArg::Const(Value::symbol(t)),
        }),
        Token::Var(name) => {
            let vid = ctx.var_id(name);
            let already = ctx.bound.contains(&vid) || local_bound.contains(&vid);
            if pred == Predicate::Eq && !already {
                // Binding occurrence.
                bindings.push((slot, vid));
                if negated {
                    local_bound.insert(vid);
                }
                // Positive-CE bindings are published after the whole CE is
                // parsed (so `^a <x> ^b <x>` makes the second occurrence a
                // test); make the first occurrence visible immediately for
                // intra-CE consistency instead:
                if !negated {
                    local_bound.insert(vid);
                }
            } else if already {
                tests.push(SlotTest {
                    slot,
                    predicate: pred,
                    arg: TestArg::Var(vid),
                });
            } else {
                return Err(Error::Semantic(format!(
                    "variable '<{name}>' used with a non-'=' predicate before being bound"
                )));
            }
        }
        Token::LDisj => {
            if pred != Predicate::Eq {
                return Err(Error::Parse(
                    "a predicate cannot precede a '<< ... >>' disjunction".into(),
                ));
            }
            let mut opts = Vec::new();
            loop {
                match c.next()? {
                    Token::RDisj => break,
                    Token::Int(i) => opts.push(Value::Int(*i)),
                    Token::Float(f) => opts.push(Value::Float(*f)),
                    Token::Sym(s) => opts.push(if s == "nil" {
                        Value::Nil
                    } else {
                        Value::symbol(s)
                    }),
                    t => {
                        return Err(Error::Parse(format!(
                            "only constants may appear inside '<< ... >>', found {t:?}"
                        )))
                    }
                }
            }
            if opts.is_empty() {
                return Err(Error::Parse("empty '<< >>' disjunction".into()));
            }
            tests.push(SlotTest {
                slot,
                predicate: Predicate::Eq,
                arg: TestArg::Disjunction(opts),
            });
        }
        t => return Err(Error::Parse(format!("bad test operand {t:?}"))),
    }
    Ok(())
}

// ---------------------------------------------------------------------------

/// Parses one action form (opening paren consumed); may expand to several
/// actions (`(remove 1 2)`).
fn parse_action(c: &mut Cursor, ctx: &mut ProdCtx, ces: &[CondElem]) -> Result<Vec<Action>> {
    let head = c.expect_sym()?;
    match head.as_str() {
        "make" => {
            let class_name = c.expect_sym()?;
            let class = sym(&class_name);
            let cinfo = ctx
                .program
                .class(class)
                .ok_or_else(|| Error::Semantic(format!("make: unknown class '{class_name}'")))?
                .clone();
            let sets = parse_slot_sets(c, ctx, &cinfo)?;
            c.expect_rparen()?;
            Ok(vec![Action::Make { class, sets }])
        }
        "modify" => {
            let k = c.expect_int()?;
            let ce = validate_ce_index(k, ces, "modify")?;
            let class = ces[(ce - 1) as usize].class;
            let cinfo = ctx.program.class(class).expect("CE class exists").clone();
            let sets = parse_slot_sets(c, ctx, &cinfo)?;
            c.expect_rparen()?;
            if sets.is_empty() {
                return Err(Error::Semantic("modify with no slot changes".into()));
            }
            Ok(vec![Action::Modify { ce, sets }])
        }
        "remove" => {
            let mut out = Vec::new();
            while !c.peek_rparen() {
                let k = c.expect_int()?;
                let ce = validate_ce_index(k, ces, "remove")?;
                out.push(Action::Remove { ce });
            }
            c.expect_rparen()?;
            if out.is_empty() {
                return Err(Error::Semantic("remove with no element index".into()));
            }
            Ok(out)
        }
        "bind" => {
            let vname = match c.next()? {
                Token::Var(v) => v.clone(),
                t => {
                    return Err(Error::Parse(format!(
                        "bind: expected variable, found {t:?}"
                    )))
                }
            };
            let vid = ctx.var_id(&vname);
            let expr = if c.peek_rparen() {
                // `(bind <x>)` generates a fresh symbol at run time.
                Expr::Call(sym("genatom"), Vec::new())
            } else {
                parse_expr(c, ctx)?
            };
            c.expect_rparen()?;
            ctx.rhs_bound.insert(vid);
            Ok(vec![Action::Bind { var: vid, expr }])
        }
        "write" => {
            let mut parts = Vec::new();
            while !c.peek_rparen() {
                parts.push(parse_expr(c, ctx)?);
            }
            c.expect_rparen()?;
            Ok(vec![Action::Write { parts }])
        }
        "call" => {
            let name = sym(&c.expect_sym()?);
            let mut args = Vec::new();
            while !c.peek_rparen() {
                args.push(parse_expr(c, ctx)?);
            }
            c.expect_rparen()?;
            Ok(vec![Action::Call { name, args }])
        }
        "halt" => {
            c.expect_rparen()?;
            Ok(vec![Action::Halt])
        }
        other => Err(Error::Parse(format!("unknown action '({other} ...)'"))),
    }
}

fn validate_ce_index(k: i64, ces: &[CondElem], what: &str) -> Result<u16> {
    if k < 1 || k as usize > ces.len() {
        return Err(Error::Semantic(format!(
            "{what}: element index {k} out of range 1..={}",
            ces.len()
        )));
    }
    if ces[(k - 1) as usize].negated {
        return Err(Error::Semantic(format!(
            "{what}: element {k} is negated and matches no WME"
        )));
    }
    Ok(k as u16)
}

fn parse_slot_sets(
    c: &mut Cursor,
    ctx: &mut ProdCtx,
    cinfo: &ClassInfo,
) -> Result<Vec<(SlotIdx, Expr)>> {
    let mut sets = Vec::new();
    while !c.peek_rparen() {
        let attr_name = match c.next()? {
            Token::Attr(a) => a.clone(),
            t => return Err(Error::Parse(format!("expected ^attribute, found {t:?}"))),
        };
        let slot = cinfo.slot_of(sym(&attr_name)).ok_or_else(|| {
            Error::Semantic(format!(
                "class '{}' has no attribute '{attr_name}'",
                cinfo.name
            ))
        })?;
        let expr = parse_expr(c, ctx)?;
        sets.push((slot, expr));
    }
    Ok(sets)
}

fn parse_expr(c: &mut Cursor, ctx: &mut ProdCtx) -> Result<Expr> {
    match c.next()? {
        Token::Int(i) => Ok(Expr::Const(Value::Int(*i))),
        Token::Float(f) => Ok(Expr::Const(Value::Float(*f))),
        Token::Text(t) => Ok(Expr::Text(t.clone())),
        Token::Sym(s) => Ok(if s == "nil" {
            Expr::Const(Value::Nil)
        } else {
            Expr::Const(Value::symbol(s))
        }),
        Token::Var(name) => {
            let vid = ctx.var_id(name);
            if !ctx.bound.contains(&vid) && !ctx.rhs_bound.contains(&vid) {
                return Err(Error::Semantic(format!(
                    "variable '<{name}>' is not bound by a positive condition element or 'bind'"
                )));
            }
            Ok(Expr::Var(vid))
        }
        Token::LParen => {
            if c.depth == MAX_DEPTH {
                return Err(c.err(&format!("value forms nested deeper than {MAX_DEPTH}")));
            }
            c.depth += 1;
            let form = parse_form(c, ctx);
            c.depth -= 1;
            form
        }
        t => Err(Error::Parse(format!("bad expression token {t:?}"))),
    }
}

/// A value form, its `(` consumed.
fn parse_form(c: &mut Cursor, ctx: &mut ProdCtx) -> Result<Expr> {
    let head = c.expect_sym()?;
    match head.as_str() {
        "compute" => {
            let first = parse_expr(c, ctx)?;
            let mut rest = Vec::new();
            while !c.peek_rparen() {
                let op = match c.next()? {
                    Token::Sym(s) if s == "+" => ArithOp::Add,
                    Token::Minus => ArithOp::Sub,
                    Token::Sym(s) if s == "*" => ArithOp::Mul,
                    Token::Sym(s) if s == "//" || s == "/" => ArithOp::Div,
                    Token::Sym(s) if s == "mod" => ArithOp::Mod,
                    t => {
                        return Err(Error::Parse(format!(
                            "compute: expected operator, found {t:?}"
                        )))
                    }
                };
                let e = parse_expr(c, ctx)?;
                rest.push((op, e));
            }
            c.expect_rparen()?;
            Ok(Expr::Compute(Box::new(first), rest))
        }
        "crlf" | "tabto" => {
            // `(crlf)` / `(tabto n)` in `write`: formatting directives.
            while !c.peek_rparen() {
                c.next()?;
            }
            c.expect_rparen()?;
            Ok(Expr::Const(Value::symbol(&head)))
        }
        "call" | "genatom" | "accept" | "acceptline" | "litval" | "substr" => {
            // `(call f args...)` in value position, plus OPS5
            // builtins we route through the external mechanism.
            let name = if head == "call" {
                sym(&c.expect_sym()?)
            } else {
                sym(&head)
            };
            let mut args = Vec::new();
            while !c.peek_rparen() {
                args.push(parse_expr(c, ctx)?);
            }
            c.expect_rparen()?;
            Ok(Expr::Call(name, args))
        }
        other => Err(Error::Parse(format!("unknown value form '({other} ...)'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TestArg;

    const DECLS: &str = "
        (literalize region id area class)
        (literalize fragment id region type)
    ";

    fn parse_ok(body: &str) -> Program {
        Program::parse(&format!("{DECLS}\n{body}")).unwrap()
    }

    #[test]
    fn minimal_production() {
        let p = parse_ok("(p r1 (region ^id <r>) --> (make fragment ^region <r>))");
        assert_eq!(p.productions.len(), 1);
        let prod = &p.productions[0];
        assert_eq!(prod.ces.len(), 1);
        assert_eq!(prod.ces[0].bindings.len(), 1);
        assert!(prod.ces[0].tests.is_empty());
        assert_eq!(prod.actions.len(), 1);
    }

    #[test]
    fn declarations_may_follow_use() {
        let src = "(p r1 (q ^x 1) --> (halt)) (literalize q x)";
        assert!(Program::parse(src).is_ok());
    }

    #[test]
    fn unknown_class_is_an_error() {
        let err = Program::parse("(p r1 (mystery ^x 1) --> (halt))").unwrap_err();
        assert!(matches!(err, Error::Parse(_) | Error::Semantic(_)));
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let err =
            Program::parse(&format!("{DECLS} (p r1 (region ^bogus 1) --> (halt))")).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("bogus"), "{msg}");
    }

    #[test]
    fn variable_rebinding_becomes_test() {
        let p = parse_ok("(p r1 (region ^id <r>) (fragment ^region <r>) --> (remove 2))");
        let prod = &p.productions[0];
        assert_eq!(prod.ces[0].bindings.len(), 1);
        assert_eq!(prod.ces[1].bindings.len(), 0);
        assert_eq!(prod.ces[1].tests.len(), 1);
        assert!(matches!(prod.ces[1].tests[0].arg, TestArg::Var(_)));
    }

    #[test]
    fn intra_ce_variable_consistency() {
        let p = parse_ok("(p r1 (region ^id <x> ^area <x>) --> (halt))");
        let prod = &p.productions[0];
        assert_eq!(prod.ces[0].bindings.len(), 1);
        assert_eq!(prod.ces[0].tests.len(), 1);
    }

    #[test]
    fn predicates_and_conjunction() {
        let p = parse_ok("(p r1 (region ^area { > 10 <= 100 } ^class <> water) --> (halt))");
        let prod = &p.productions[0];
        assert_eq!(prod.ces[0].tests.len(), 3);
        assert_eq!(prod.ces[0].tests[0].predicate, Predicate::Gt);
        assert_eq!(prod.ces[0].tests[1].predicate, Predicate::Le);
        assert_eq!(prod.ces[0].tests[2].predicate, Predicate::Ne);
    }

    #[test]
    fn disjunction_of_constants() {
        let p = parse_ok("(p r1 (region ^class << road taxiway runway >>) --> (halt))");
        let prod = &p.productions[0];
        match &prod.ces[0].tests[0].arg {
            TestArg::Disjunction(v) => assert_eq!(v.len(), 3),
            other => panic!("expected disjunction, got {other:?}"),
        }
    }

    #[test]
    fn negated_ce_local_variables() {
        let p = parse_ok("(p r1 (region ^id <r>) -(fragment ^region <r> ^id <f>) --> (remove 1))");
        let prod = &p.productions[0];
        assert!(prod.ces[1].negated);
        // <r> is a join test, <f> is a local binding.
        assert_eq!(prod.ces[1].tests.len(), 1);
        assert_eq!(prod.ces[1].bindings.len(), 1);
    }

    #[test]
    fn rhs_cannot_use_negated_ce_variable() {
        let err = Program::parse(&format!(
            "{DECLS} (p r1 (region ^id <r>) -(fragment ^id <f>) --> (make fragment ^id <f>))"
        ))
        .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("<f>"), "{msg}");
    }

    #[test]
    fn first_ce_must_be_positive() {
        let err =
            Program::parse(&format!("{DECLS} (p r1 -(region ^id 1) --> (halt))")).unwrap_err();
        assert!(format!("{err}").contains("positive"));
    }

    #[test]
    fn modify_of_negated_ce_rejected() {
        let err = Program::parse(&format!(
            "{DECLS} (p r1 (region ^id <r>) -(fragment ^region <r>) --> (modify 2 ^id 1))"
        ))
        .unwrap_err();
        assert!(format!("{err}").contains("negated"));
    }

    #[test]
    fn remove_multiple_expands() {
        let p = parse_ok("(p r1 (region ^id <a>) (region ^id { <b> <> <a> }) --> (remove 1 2))");
        assert_eq!(p.productions[0].actions.len(), 2);
    }

    #[test]
    fn compute_expression() {
        let p = parse_ok("(p r1 (region ^area <a>) --> (make region ^area (compute <a> * 2 + 1)))");
        let prod = &p.productions[0];
        match &prod.actions[0] {
            Action::Make { sets, .. } => match &sets[0].1 {
                Expr::Compute(_, rest) => assert_eq!(rest.len(), 2),
                other => panic!("expected compute, got {other:?}"),
            },
            other => panic!("expected make, got {other:?}"),
        }
    }

    /// Value forms nest up to `MAX_DEPTH` and no deeper: one more is a parse
    /// error naming its line, not a stack overflow.
    #[test]
    fn value_forms_nest_to_the_cap_and_no_deeper() {
        let nested = |depth: usize| {
            let open = "(compute ".repeat(depth);
            let close = " + 1)".repeat(depth);
            format!("(p r1 (region ^area <a>)\n--> (make region ^area {open}<a>{close}))")
        };
        let deepest = parse_ok(&nested(MAX_DEPTH));
        assert_eq!(deepest.productions[0].actions.len(), 1);
        let err = Program::parse(&format!("{DECLS}\n{}", nested(MAX_DEPTH + 1))).unwrap_err();
        let Error::Parse(msg) = &err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(
            msg.contains("line 6: value forms nested deeper than 128"),
            "{msg}"
        );
    }

    #[test]
    fn bind_without_expr_gensyms() {
        let p = parse_ok("(p r1 (region) --> (bind <g>) (make fragment ^id <g>))");
        match &p.productions[0].actions[0] {
            Action::Bind {
                expr: Expr::Call(name, args),
                ..
            } => {
                assert_eq!(*name, sym("genatom"));
                assert!(args.is_empty());
            }
            other => panic!("expected bind-genatom, got {other:?}"),
        }
    }

    #[test]
    fn strategy_form() {
        let p = Program::parse("(strategy mea)").unwrap();
        assert_eq!(p.strategy, Strategy::Mea);
        assert!(Program::parse("(strategy bogus)").is_err());
    }

    #[test]
    fn duplicate_production_name_rejected() {
        let err = Program::parse(&format!(
            "{DECLS} (p r1 (region) --> (halt)) (p r1 (region) --> (halt))"
        ))
        .unwrap_err();
        assert!(format!("{err}").contains("twice"));
    }

    #[test]
    fn specificity_counts_tests_and_bindings() {
        let p = parse_ok("(p r1 (region ^id <r> ^area > 5) (fragment ^region <r>) --> (halt))");
        assert_eq!(p.productions[0].specificity, 3);
    }
}
