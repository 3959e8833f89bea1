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
//!
//! The parser walks the lexer's tokens, which borrow the source, and
//! allocates only the [`Program`] it returns (its working tables, a
//! production's variables, are reused from production to production).
//! Names are interned as they are met — the declarations in the first
//! pass, then each production in source order — so a program's
//! [`Symbol`](crate::Symbol) ids depend only on its text and on what the
//! process interned before.

use crate::ast::{
    Action, ArithOp, CondElem, Expr, Predicate, Production, SlotIdx, SlotTest, TestArg, VarId,
};
use crate::conflict::Strategy;
use crate::lexer::{lex, Spanned, Token};
use crate::program::{ClassInfo, Program};
use crate::symbol::sym;
use crate::value::Value;
use crate::{Error, Result};
use std::collections::HashMap;

/// Parses a complete program.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut program = Program::default();

    // Pass 1: literalize / strategy / external declarations.
    {
        let mut c = Cursor::new(&toks);
        while !c.at_end() {
            c.expect_lparen()?;
            match c.expect_sym()? {
                "literalize" => {
                    let class = sym(c.expect_sym()?);
                    let mut attrs = Vec::new();
                    while !c.peek_rparen() {
                        attrs.push(sym(c.expect_sym()?));
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
                    program.strategy = match c.expect_sym()? {
                        "lex" => Strategy::Lex,
                        "mea" => Strategy::Mea,
                        other => return Err(Error::Parse(format!("unknown strategy '{other}'"))),
                    };
                    c.expect_rparen()?;
                }
                "external" => {
                    while !c.peek_rparen() {
                        let name = sym(c.expect_sym()?);
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
    let mut productions: Vec<Production> = Vec::new();
    let mut ctx = ProdCtx {
        program: &program,
        ids: HashMap::new(),
        vars: Vec::new(),
        n_tests: 0,
    };
    let mut c = Cursor::new(&toks);
    while !c.at_end() {
        c.expect_lparen()?;
        if c.expect_sym()? == "p" {
            let prod = parse_production(&mut c, &mut ctx)?;
            if productions.iter().any(|p| p.name == prod.name) {
                return Err(Error::Semantic(format!(
                    "production '{}' defined twice",
                    prod.name
                )));
            }
            productions.push(prod);
        } else {
            c.skip_rest_of_form()?;
        }
    }
    program.productions = productions;
    Ok(program)
}

// ---------------------------------------------------------------------------

/// Deepest nesting of value forms (`compute`, `call`, …) the parser
/// accepts. SPAM's rules nest under 5; the bound keeps the recursive descent
/// off the end of the stack on hostile input.
const MAX_DEPTH: usize = 128;

struct Cursor<'a> {
    toks: &'a [Spanned<'a>],
    pos: usize,
    /// Value forms currently open.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(toks: &'a [Spanned<'a>]) -> Self {
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

    fn peek(&self) -> Option<Token<'a>> {
        self.toks.get(self.pos).map(|s| s.tok)
    }

    fn next(&mut self) -> Result<Token<'a>> {
        let t = self
            .peek()
            .ok_or_else(|| Error::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
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

    fn expect_sym(&mut self) -> Result<&'a str> {
        match self.next()? {
            Token::Sym(s) => Ok(s),
            t => Err(self.err(&format!("expected symbol, found {t:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.next()? {
            Token::Int(i) => Ok(i),
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

/// What the parse of a production knows; one per program, cleared for each
/// production, so its tables are allocated once.
struct ProdCtx<'a> {
    program: &'a Program,
    /// Each variable's id, by name.
    ids: HashMap<&'a str, VarId>,
    /// What is known of each variable, indexed by id.
    vars: Vec<Var>,
    n_tests: u32,
}

/// A variable of the production being parsed.
#[derive(Default)]
struct Var {
    /// Bound by a positive CE (usable in later CEs and the RHS).
    bound: bool,
    /// Introduced by `bind` on the RHS.
    rhs_bound: bool,
    /// Bound in the CE being parsed.
    local: bool,
}

impl<'a> ProdCtx<'a> {
    /// `name`'s id, the next one if it is new. Ids must fit a `VarId` and
    /// their count too (`Production::n_vars`).
    fn var_id(&mut self, name: &'a str) -> Result<VarId> {
        if let Some(&id) = self.ids.get(name) {
            return Ok(id);
        }
        let id = self.vars.len() as VarId;
        if id == VarId::MAX {
            return Err(Error::Semantic(format!(
                "more than {} variables",
                VarId::MAX
            )));
        }
        self.ids.insert(name, id);
        self.vars.push(Var::default());
        Ok(id)
    }
}

fn parse_production<'a>(c: &mut Cursor<'a>, ctx: &mut ProdCtx<'a>) -> Result<Production> {
    let name = sym(c.expect_sym()?);
    ctx.ids.clear();
    ctx.vars.clear();
    ctx.n_tests = 0;

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
                let ce = parse_ce(c, ctx, true)
                    .map_err(|e| Error::Parse(format!("in production '{name}': {e}")))?;
                ces.push(ce);
            }
            Some(Token::LParen) => {
                c.next()?;
                let ce = parse_ce(c, ctx, false)
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
        parse_action(c, ctx, &ces, &mut actions)
            .map_err(|e| Error::Parse(format!("in production '{name}': {e}")))?;
    }
    c.expect_rparen()?;

    Ok(Production {
        name,
        ces,
        actions,
        n_vars: ctx.vars.len() as u16,
        specificity: ctx.n_tests,
    })
}

/// Parses one condition element (the opening paren already consumed).
fn parse_ce<'a>(c: &mut Cursor<'a>, ctx: &mut ProdCtx<'a>, negated: bool) -> Result<CondElem> {
    let class_name = c.expect_sym()?;
    let class = sym(class_name);
    let cinfo = ctx.program.class(class).ok_or_else(|| {
        Error::Semantic(format!(
            "unknown class '{class_name}' (missing literalize?)"
        ))
    })?;

    let mut tests = Vec::new();
    let mut bindings = Vec::new();
    for v in &mut ctx.vars {
        v.local = false;
    }

    while !c.peek_rparen() {
        let attr_name = match c.next()? {
            Token::Attr(a) => a,
            t => return Err(Error::Parse(format!("expected ^attribute, found {t:?}"))),
        };
        let slot = cinfo.slot_of(sym(attr_name)).ok_or_else(|| {
            Error::Semantic(format!(
                "class '{class_name}' has no attribute '{attr_name}'"
            ))
        })?;

        // One value spec: scalar / { conjunction } / << disjunction >>.
        if c.peek() == Some(Token::LBrace) {
            c.next()?;
            while c.peek() != Some(Token::RBrace) {
                parse_single_test(c, ctx, slot, &mut tests, &mut bindings)?;
            }
            c.next()?; // consume }
        } else {
            parse_single_test(c, ctx, slot, &mut tests, &mut bindings)?;
        }
    }
    c.expect_rparen()?;

    if !negated {
        // Positive-CE bindings become visible to later CEs and the RHS.
        for &(_, v) in &bindings {
            ctx.vars[v as usize].bound = true;
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

fn parse_single_test<'a>(
    c: &mut Cursor<'a>,
    ctx: &mut ProdCtx<'a>,
    slot: SlotIdx,
    tests: &mut Vec<SlotTest>,
    bindings: &mut Vec<(SlotIdx, VarId)>,
) -> Result<()> {
    // Optional predicate, default '='.
    let pred = match c.peek() {
        Some(Token::Pred(p)) => {
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
    let constant = |arg| SlotTest {
        slot,
        predicate: pred,
        arg: TestArg::Const(arg),
    };

    match c.next()? {
        Token::Int(i) => tests.push(constant(Value::Int(i))),
        Token::Float(f) => tests.push(constant(Value::Float(f))),
        Token::Sym(s) => tests.push(constant(if s == "nil" {
            Value::Nil
        } else {
            Value::symbol(s)
        })),
        Token::Text(t) => tests.push(constant(Value::symbol(t))),
        Token::Var(name) => {
            let vid = ctx.var_id(name)?;
            let var = &mut ctx.vars[vid as usize];
            if var.bound || var.local {
                tests.push(SlotTest {
                    slot,
                    predicate: pred,
                    arg: TestArg::Var(vid),
                });
            } else if pred == Predicate::Eq {
                // Binding occurrence. Positive-CE bindings are published
                // after the whole CE is parsed; the first occurrence is
                // visible inside the CE at once, so `^a <x> ^b <x>` makes
                // the second occurrence a test.
                bindings.push((slot, vid));
                var.local = true;
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
                    Token::Int(i) => opts.push(Value::Int(i)),
                    Token::Float(f) => opts.push(Value::Float(f)),
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

/// Parses one action form (opening paren consumed) onto `actions`; one
/// form may be several actions (`(remove 1 2)`).
fn parse_action<'a>(
    c: &mut Cursor<'a>,
    ctx: &mut ProdCtx<'a>,
    ces: &[CondElem],
    actions: &mut Vec<Action>,
) -> Result<()> {
    let action = match c.expect_sym()? {
        "make" => {
            let class_name = c.expect_sym()?;
            let class = sym(class_name);
            let cinfo = ctx
                .program
                .class(class)
                .ok_or_else(|| Error::Semantic(format!("make: unknown class '{class_name}'")))?;
            let sets = parse_slot_sets(c, ctx, cinfo)?;
            Action::Make { class, sets }
        }
        "modify" => {
            let k = c.expect_int()?;
            let ce = validate_ce_index(k, ces, "modify")?;
            let class = ces[(ce - 1) as usize].class;
            let cinfo = ctx.program.class(class).expect("CE class exists");
            let sets = parse_slot_sets(c, ctx, cinfo)?;
            if sets.is_empty() {
                return Err(Error::Semantic("modify with no slot changes".into()));
            }
            Action::Modify { ce, sets }
        }
        "remove" => {
            let before = actions.len();
            while !c.peek_rparen() {
                let k = c.expect_int()?;
                let ce = validate_ce_index(k, ces, "remove")?;
                actions.push(Action::Remove { ce });
            }
            c.expect_rparen()?;
            if actions.len() == before {
                return Err(Error::Semantic("remove with no element index".into()));
            }
            return Ok(());
        }
        "bind" => {
            let vname = match c.next()? {
                Token::Var(v) => v,
                t => {
                    return Err(Error::Parse(format!(
                        "bind: expected variable, found {t:?}"
                    )))
                }
            };
            let vid = ctx.var_id(vname)?;
            let expr = if c.peek_rparen() {
                // `(bind <x>)` generates a fresh symbol at run time.
                Expr::Call(sym("genatom"), Vec::new())
            } else {
                parse_expr(c, ctx)?
            };
            c.expect_rparen()?;
            ctx.vars[vid as usize].rhs_bound = true;
            actions.push(Action::Bind { var: vid, expr });
            return Ok(());
        }
        "write" => Action::Write {
            parts: parse_args(c, ctx)?,
        },
        "call" => {
            let name = sym(c.expect_sym()?);
            Action::Call {
                name,
                args: parse_args(c, ctx)?,
            }
        }
        "halt" => {
            c.expect_rparen()?;
            Action::Halt
        }
        other => return Err(Error::Parse(format!("unknown action '({other} ...)'"))),
    };
    actions.push(action);
    Ok(())
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

/// `^attr expr` pairs up to and including the form's `)`.
fn parse_slot_sets<'a>(
    c: &mut Cursor<'a>,
    ctx: &mut ProdCtx<'a>,
    cinfo: &ClassInfo,
) -> Result<Vec<(SlotIdx, Expr)>> {
    let mut sets = Vec::new();
    while !c.peek_rparen() {
        let attr_name = match c.next()? {
            Token::Attr(a) => a,
            t => return Err(Error::Parse(format!("expected ^attribute, found {t:?}"))),
        };
        let slot = cinfo.slot_of(sym(attr_name)).ok_or_else(|| {
            Error::Semantic(format!(
                "class '{}' has no attribute '{attr_name}'",
                cinfo.name
            ))
        })?;
        let expr = parse_expr(c, ctx)?;
        sets.push((slot, expr));
    }
    c.expect_rparen()?;
    Ok(sets)
}

/// Expressions up to and including the form's `)`.
fn parse_args<'a>(c: &mut Cursor<'a>, ctx: &mut ProdCtx<'a>) -> Result<Vec<Expr>> {
    let mut args = Vec::new();
    while !c.peek_rparen() {
        args.push(parse_expr(c, ctx)?);
    }
    c.expect_rparen()?;
    Ok(args)
}

fn parse_expr<'a>(c: &mut Cursor<'a>, ctx: &mut ProdCtx<'a>) -> Result<Expr> {
    match c.next()? {
        Token::Int(i) => Ok(Expr::Const(Value::Int(i))),
        Token::Float(f) => Ok(Expr::Const(Value::Float(f))),
        Token::Text(t) => Ok(Expr::Text(t.to_owned())),
        Token::Sym(s) => Ok(if s == "nil" {
            Expr::Const(Value::Nil)
        } else {
            Expr::Const(Value::symbol(s))
        }),
        Token::Var(name) => {
            let vid = ctx.var_id(name)?;
            let var = &ctx.vars[vid as usize];
            if !var.bound && !var.rhs_bound {
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
fn parse_form<'a>(c: &mut Cursor<'a>, ctx: &mut ProdCtx<'a>) -> Result<Expr> {
    let head = c.expect_sym()?;
    match head {
        "compute" => {
            let first = parse_expr(c, ctx)?;
            let mut rest = Vec::new();
            while !c.peek_rparen() {
                let op = match c.next()? {
                    Token::Sym("+") => ArithOp::Add,
                    Token::Minus => ArithOp::Sub,
                    Token::Sym("*") => ArithOp::Mul,
                    Token::Sym("//" | "/") => ArithOp::Div,
                    Token::Sym("mod") => ArithOp::Mod,
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
            Ok(Expr::Const(Value::symbol(head)))
        }
        "call" | "genatom" | "accept" | "acceptline" | "litval" | "substr" => {
            // `(call f args...)` in value position, plus OPS5
            // builtins we route through the external mechanism.
            let name = if head == "call" {
                sym(c.expect_sym()?)
            } else {
                sym(head)
            };
            Ok(Expr::Call(name, parse_args(c, ctx)?))
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

    /// Names are interned in the order the parser meets them first:
    /// declarations, then each production in source order. The interner
    /// is append-only, so names no other test uses get increasing ids.
    #[test]
    fn names_are_interned_in_first_occurrence_order() {
        Program::parse(
            "(literalize fo-a fo-x fo-y)
             (external fo-f)
             (p fo-r (fo-a ^fo-y << fo-c1 fo-c2 >> ^fo-x fo-c3)
                 --> (make fo-a ^fo-x fo-c4) (call fo-g fo-c5))
             (literalize fo-b fo-z)",
        )
        .unwrap();
        let ids: Vec<u32> = [
            "fo-a", "fo-x", "fo-y", "fo-f", "fo-b", "fo-z", "fo-r", "fo-c1", "fo-c2", "fo-c3",
            "fo-c4", "fo-g", "fo-c5",
        ]
        .map(|name| sym(name).0)
        .to_vec();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    /// A `VarId` names at most 65 535 variables, so `n_vars` counts them;
    /// one more is an error, not a wrapped id.
    #[test]
    fn a_production_holds_at_most_65535_variables() {
        let program = Program::default();
        let names: Vec<String> = (0..VarId::MAX).map(|i| format!("v{i}")).collect();
        let mut ctx = ProdCtx {
            program: &program,
            ids: HashMap::new(),
            vars: Vec::new(),
            n_tests: 0,
        };
        for name in &names {
            ctx.var_id(name).unwrap();
        }
        assert_eq!(ctx.var_id("v65534").unwrap(), 65_534);
        let err = ctx.var_id("one-more").unwrap_err();
        assert_eq!(err.to_string(), "semantic error: more than 65535 variables");
    }

    #[test]
    fn specificity_counts_tests_and_bindings() {
        let p = parse_ok("(p r1 (region ^id <r> ^area > 5) (fragment ^region <r>) --> (halt))");
        assert_eq!(p.productions[0].specificity, 3);
    }
}
