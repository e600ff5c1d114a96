//! The tinyc nesting bound: hostile source nests past
//! `databp_tinyc::MAX_NESTING` and must fail to compile with an error,
//! never overflow the stack; source at the deepest accepted nesting must
//! get through every pass that recurses on the tree on a 2 MiB thread
//! stack (the default for spawned threads), in the build the tests run.

use databp_analysis::analyze_writes;
use databp_tinyc::{compile, interpret, lower, Options, MAX_NESTING};
use databp_workloads::Workload;

/// Every code-generation build.
fn builds() -> [Options; 5] {
    [
        Options::plain(),
        Options::codepatch(),
        Options::codepatch_loopopt(),
        Options::codepatch_ssa(),
        Options::nop_padding(),
    ]
}

/// A program whose `main` nests `n` levels of one shape.
type Shape = fn(usize) -> String;

fn program(body: &str) -> String {
    format!("int main() {{ int x; x = 0; {body} return x; }}")
}

fn parens(n: usize) -> String {
    program(&format!("x = {}1{};", "(".repeat(n), ")".repeat(n)))
}

fn negations(n: usize) -> String {
    program(&format!("x = {}1;", "- ".repeat(n)))
}

fn sum_chain(n: usize) -> String {
    program(&format!("x = 1{};", " + 1".repeat(n)))
}

fn assignments(n: usize) -> String {
    program(&format!("{}1;", "x = ".repeat(n)))
}

fn ifs(n: usize) -> String {
    program(&format!(
        "{}x = x + 1;{}",
        "if (x >= 0) { ".repeat(n),
        " }".repeat(n)
    ))
}

fn bare_ifs(n: usize) -> String {
    program(&format!("{}x = x + 1;", "if (x >= 0) ".repeat(n)))
}

fn else_ifs(n: usize) -> String {
    program(&format!(
        "{}x = x + 1;",
        "if (x < 0) x = 0; else ".repeat(n)
    ))
}

fn casts(n: usize) -> String {
    program(&format!("x = {}1;", "(int)".repeat(n)))
}

fn whiles(n: usize) -> String {
    program(&format!(
        "{}x = x + 1;{}",
        "while (x < 1) { ".repeat(n),
        " }".repeat(n)
    ))
}

fn pointers(n: usize) -> String {
    format!("int {}p; int main() {{ return 0; }}", "*".repeat(n))
}

/// Each shape with the deepest nesting it may reach: the statement in
/// `main`'s body sits at depth 1, and an expression statement's
/// right-hand side one level below it.
fn shapes() -> [(&'static str, Shape, usize); 10] {
    let m = MAX_NESTING;
    [
        ("parens", parens, m - 2),
        ("negations", negations, m - 2),
        ("sum chain", sum_chain, m - 2),
        ("assignments", assignments, m - 1),
        ("casts", casts, m - 2),
        ("ifs", ifs, (m - 3) / 2),
        ("bare ifs", bare_ifs, m - 3),
        ("else ifs", else_ifs, m - 3),
        ("whiles", whiles, (m - 3) / 2),
        ("pointers", pointers, m),
    ]
}

fn is_depth_error(src: &str) -> bool {
    match compile(src, &Options::plain()) {
        Ok(_) => false,
        Err(e) => {
            assert!(
                e.message.contains("nesting exceeds the limit") && e.line > 0,
                "{e}"
            );
            true
        }
    }
}

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no overflow, no panic");
}

#[test]
fn hostile_nesting_is_a_compile_error() {
    on_small_stack(|| {
        for (name, shape, deepest) in shapes() {
            for n in [deepest + 1, deepest + 2, 4 * MAX_NESTING, 50_000] {
                assert!(is_depth_error(&shape(n)), "{name} at {n}");
            }
        }
        // The inputs that used to overflow the stack.
        let cases = [
            parens(3_000),
            ifs(50_000),
            sum_chain(100_000),
            negations(200_000),
        ];
        for src in &cases {
            assert!(is_depth_error(src));
        }
    });
}

#[test]
fn the_deepest_accepted_nesting_gets_through_every_pass() {
    on_small_stack(|| {
        for (name, shape, deepest) in shapes() {
            let src = shape(deepest);
            for opts in builds() {
                let compiled =
                    compile(&src, &opts).unwrap_or_else(|e| panic!("{name} {opts:?}: {e}"));
                let hir = lower(&src).expect("lowers");
                analyze_writes(&hir, &compiled.debug);
            }
            let hir = lower(&src).expect("lowers");
            interpret(&hir, &[], 1_000_000).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    });
}

#[test]
fn bundled_workloads_nest_well_inside_the_bound() {
    // The bound changes no program that compiled before: every bundled
    // workload still compiles, and its code is what the paper tables
    // (pinned under results/small) were measured on.
    for w in Workload::all().into_iter().chain(Workload::bench()) {
        for opts in builds() {
            compile(w.source, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
