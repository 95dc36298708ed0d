//! `fig_runner`'s exit status: a misspelt figure name must fail the run
//! (a CI step that names it would otherwise pass having run nothing).

use std::process::Command;

#[test]
fn unknown_figure_name_exits_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig_runner"))
        .args(["nonesuch", "--quick"])
        .output()
        .expect("run fig_runner");
    assert!(!out.status.success(), "exit status {}", out.status);
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the names are checked"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure: nonesuch"), "{stderr}");
}
