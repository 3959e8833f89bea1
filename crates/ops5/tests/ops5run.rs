//! The `ops5run` binary, run as a user runs it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ops5run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ops5run"))
        .args(args)
        .output()
        .expect("ops5run runs")
}

/// Writes `src` to a file of this test's own and returns its path.
fn program_file(name: &str, src: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, src).expect("program file written");
    path
}

#[test]
fn the_final_working_memory_names_its_attributes() {
    let path = program_file(
        "attribute-names.ops",
        "(literalize a x y)
         (p fill (a ^x 1 ^y nil) --> (modify 1 ^y 1))
         (startup (make a ^x 1))",
    );
    let out = ops5run(&[path.to_str().unwrap(), "--wm"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("1 firings"), "{stderr}");
    let dump = stderr
        .split_once("-- final working memory:\n")
        .map(|(_, wm)| wm.trim())
        .expect("a working-memory dump");
    assert_eq!(dump, "(a ^x 1 ^y 1) @2");
}

#[test]
fn both_usage_messages_name_every_flag() {
    let help = ops5run(&["--help"]);
    let no_path = ops5run(&["--wm"]);
    for out in [&help, &no_path] {
        assert!(!out.status.success());
    }
    let usage = String::from_utf8(help.stderr).unwrap();
    assert!(usage.contains("[--strategy lex|mea]"), "{usage}");
    assert_eq!(String::from_utf8(no_path.stderr).unwrap(), usage);
}
