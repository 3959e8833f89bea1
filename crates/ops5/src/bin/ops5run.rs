//! `ops5run` — run an OPS5 program from the command line.
//!
//! ```sh
//! ops5run PROGRAM.ops [--limit N] [--wm] [--stats] [--trace] [--strategy lex|mea]
//! ```
//!
//! The file may end with `(startup ...)` forms: each `(make class ^attr
//! value ...)` inside builds the initial working memory.

use ops5::{Engine, Program, Strategy, Value, Wme};
use std::fmt::Write;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str =
    "usage: ops5run PROGRAM.ops [--limit N] [--wm] [--stats] [--trace] [--strategy lex|mea]";

struct Opts {
    path: String,
    limit: u64,
    show_wm: bool,
    stats: bool,
    trace: bool,
    strategy: Option<Strategy>,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        path: String::new(),
        limit: 100_000,
        show_wm: false,
        stats: false,
        trace: false,
        strategy: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--limit" => {
                opts.limit = args
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --limit: {e}"))?;
            }
            "--wm" => opts.show_wm = true,
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--strategy" => {
                opts.strategy = Some(match args.next().as_deref() {
                    Some("lex") => Strategy::Lex,
                    Some("mea") => Strategy::Mea,
                    other => return Err(format!("bad --strategy {other:?}")),
                });
            }
            "--help" | "-h" => return Err(USAGE.into()),
            p if opts.path.is_empty() && !p.starts_with('-') => opts.path = p.to_owned(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.path.is_empty() {
        return Err(USAGE.into());
    }
    Ok(opts)
}

/// Extracts `(startup (make ...) ...)` forms (a common OPS5 convention) and
/// returns the program source with them removed plus the make bodies.
fn split_startup(src: &str) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut makes = Vec::new();
    let mut rest = src;
    while let Some(pos) = rest.find("(startup") {
        out.push_str(&rest[..pos]);
        // find matching close paren
        let bytes = &rest.as_bytes()[pos..];
        let mut depth = 0usize;
        let mut end = rest.len();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = pos + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &rest[pos + "(startup".len()..end - 1];
        // split body into top-level forms
        let mut d = 0usize;
        let mut start = None;
        for (i, c) in body.char_indices() {
            match c {
                '(' => {
                    if d == 0 {
                        start = Some(i);
                    }
                    d += 1;
                }
                ')' => {
                    d -= 1;
                    if d == 0 {
                        if let Some(s0) = start.take() {
                            makes.push(body[s0..=i].to_owned());
                        }
                    }
                }
                _ => {}
            }
        }
        rest = &rest[end..];
    }
    out.push_str(rest);
    (out, makes)
}

/// Applies one `(make class ^attr value ...)` startup form.
fn apply_make(e: &mut Engine, form: &str) -> Result<(), String> {
    let toks: Vec<&str> = form
        .trim_start_matches('(')
        .trim_end_matches(')')
        .split_whitespace()
        .collect();
    if toks.first() != Some(&"make") || toks.len() < 2 {
        return Err(format!("startup forms must be (make ...): {form}"));
    }
    let class = toks[1];
    let mut sets: Vec<(&str, Value)> = Vec::new();
    let mut i = 2;
    while i + 1 < toks.len() {
        let attr = toks[i]
            .strip_prefix('^')
            .ok_or_else(|| format!("expected ^attr in {form}"))?;
        let raw = toks[i + 1];
        let v = if let Ok(n) = raw.parse::<i64>() {
            Value::Int(n)
        } else if let Ok(f) = raw.parse::<f64>() {
            Value::Float(f)
        } else if raw == "nil" {
            Value::Nil
        } else {
            Value::symbol(raw)
        };
        sets.push((attr, v));
        i += 2;
    }
    e.make_wme(class, &sets).map_err(|e| e.to_string())?;
    Ok(())
}

/// A WME as a program writes it, `(class ^attr value ...) @tag`: the
/// attribute names come from the program's class table (a slot the table
/// does not name prints as its number).
fn show_wme(program: &Program, w: &Wme) -> String {
    let attrs = program.class(w.class).map_or(&[][..], |c| &c.attrs[..]);
    let mut out = format!("({}", w.class);
    for (i, v) in w.fields.iter().enumerate().filter(|(_, v)| !v.is_nil()) {
        match attrs.get(i) {
            Some(a) => write!(out, " ^{a} {v}"),
            None => write!(out, " ^{i} {v}"),
        }
        .expect("a String takes any write");
    }
    write!(out, ") @{}", w.time_tag).expect("a String takes any write");
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ops5run: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (program_src, startup) = split_startup(&src);
    let program = match Program::parse(&program_src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ops5run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n_prods = program.productions.len();
    let mut engine = Engine::new(Arc::new(program));
    if let Some(s) = opts.strategy {
        engine.set_strategy(s);
    }
    for form in &startup {
        if let Err(m) = apply_make(&mut engine, form) {
            eprintln!("ops5run: {m}");
            return ExitCode::FAILURE;
        }
    }

    let mut firings = 0u64;
    let outcome = if opts.trace {
        loop {
            match engine.step() {
                Ok(Some(prod)) => {
                    firings += 1;
                    let name = engine.program().productions[prod as usize].name;
                    eprintln!("{firings:>6}. {name}");
                    if firings >= opts.limit {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("ops5run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None
    } else {
        Some(engine.run(opts.limit))
    };

    print!("{}", engine.output);
    if let Some(out) = outcome {
        firings = out.firings;
        if let Some(e) = out.error {
            eprintln!("ops5run: runtime error: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "-- {n_prods} productions, {firings} firings, {}",
        if engine.halted() {
            "halted"
        } else {
            "quiescent"
        }
    );
    if opts.show_wm {
        eprintln!("-- final working memory:");
        for (_, w) in engine.wm().iter() {
            eprintln!("   {}", show_wme(engine.program(), w));
        }
    }
    if opts.stats {
        let w = engine.work();
        eprintln!(
            "-- work: {} units ({} match / {} act / {} external / {} resolve), match fraction {:.2}",
            w.total_units(),
            w.match_units,
            w.act_units,
            w.external_units,
            w.resolve_units,
            w.match_fraction()
        );
    }
    ExitCode::SUCCESS
}
