//! End-to-end cross-validation of the two evaluation paths.
//!
//! The paper's numbers come from trace-driven simulation (phase 1 trace →
//! phase 2 counting → analytical model). This repository additionally
//! *executes* each strategy. For any session, the two paths must agree on
//! every counting variable — hits, misses, installs, removes, page
//! transitions, active-page misses — and therefore on modeled overhead.

use databp_core::{CodePatch, NativeHardware, TrapPatch, VirtualMemory};
use databp_machine::{Machine, PageSize, StopReason};
use databp_models::Counts;
use databp_sessions::{enumerate_sessions, SessionPlan, SessionSet};
use databp_sim::simulate_sizes;
use databp_tinyc::{compile, Compiled, Options};
use databp_trace::{Trace, Tracer};

const SRC: &str = r#"
    struct Item { int key; int weight; struct Item *next; };
    int table_size;
    int total_weight;

    struct Item *make(int key, int weight) {
        struct Item *it;
        it = (struct Item*)malloc(sizeof(struct Item));
        it->key = key;
        it->weight = weight;
        it->next = (struct Item*)0;
        return it;
    }

    int churn(int rounds) {
        struct Item *head;
        struct Item *p;
        int i; int acc;
        static int invocations;
        invocations = invocations + 1;
        head = (struct Item*)0;
        for (i = 0; i < rounds; i = i + 1) {
            p = make(i, i * 3 % 7);
            p->next = head;
            head = p;
            total_weight = total_weight + p->weight;
        }
        acc = 0;
        p = head;
        while (p != (struct Item*)0) {
            acc = acc + p->key;
            head = p->next;
            free((char*)p);
            p = head;
        }
        return acc + invocations;
    }

    int main() {
        int r;
        table_size = 12;
        r = churn(table_size);
        r = r + churn(5);
        print_int(r);
        print_int(total_weight);
        return 0;
    }
"#;

fn build_trace(compiled: &Compiled) -> Trace {
    let mut m = Machine::new();
    m.load(&compiled.program);
    let mut tracer = Tracer::new(compiled.debug.frame_map(), compiled.debug.global_specs())
        .with_untraced(compiled.debug.untraced_store_pcs.clone());
    tracer.begin();
    assert_eq!(m.run(&mut tracer, 100_000_000).unwrap(), StopReason::Halted);
    tracer.finish()
}

#[test]
fn executable_counts_equal_simulated_counts_for_every_session() {
    let plain = compile(SRC, &Options::plain()).unwrap();
    let cp = compile(SRC, &Options::codepatch()).unwrap();
    let trace = build_trace(&plain);
    let sessions = enumerate_sessions(&plain.debug, &trace);
    assert!(
        sessions.len() > 25,
        "rich session population, got {}",
        sessions.len()
    );
    let set = SessionSet::new(sessions.clone(), &plain.debug, &trace);
    let sim4: Vec<Counts> = simulate_sizes(&trace, &set, &[PageSize::K4]).remove(0);
    let sim8: Vec<Counts> = simulate_sizes(&trace, &set, &[PageSize::K8]).remove(0);

    for (i, &session) in sessions.iter().enumerate() {
        let plan = SessionPlan::new(session, &plain.debug);

        // NativeHardware: hits must match (NH does not observe misses).
        let mut m = Machine::new();
        m.load(&plain.program);
        let nh = NativeHardware::default()
            .run(&mut m, &plain.debug, &plan, 100_000_000)
            .unwrap();
        assert_eq!(nh.counts.hit, sim4[i].hit, "NH hit mismatch for {session}");
        assert_eq!(
            nh.counts.install, sim4[i].install,
            "NH install mismatch for {session}"
        );
        assert_eq!(
            nh.counts.remove, sim4[i].remove,
            "NH remove mismatch for {session}"
        );

        // VirtualMemory 4K: full counting-variable agreement.
        let mut m = Machine::new();
        m.load(&plain.program);
        let vm4 = VirtualMemory::k4()
            .run(&mut m, &plain.debug, &plan, 100_000_000)
            .unwrap();
        assert_eq!(
            (
                vm4.counts.hit,
                vm4.counts.vm_active_page_miss,
                vm4.counts.vm_protect,
                vm4.counts.vm_unprotect
            ),
            (
                sim4[i].hit,
                sim4[i].vm_active_page_miss,
                sim4[i].vm_protect,
                sim4[i].vm_unprotect
            ),
            "VM-4K mismatch for {session}"
        );

        // VirtualMemory 8K.
        let mut m = Machine::new();
        m.load(&plain.program);
        let vm8 = VirtualMemory::k8()
            .run(&mut m, &plain.debug, &plan, 100_000_000)
            .unwrap();
        assert_eq!(
            (
                vm8.counts.hit,
                vm8.counts.vm_active_page_miss,
                vm8.counts.vm_protect,
                vm8.counts.vm_unprotect
            ),
            (
                sim8[i].hit,
                sim8[i].vm_active_page_miss,
                sim8[i].vm_protect,
                sim8[i].vm_unprotect
            ),
            "VM-8K mismatch for {session}"
        );

        // TrapPatch: hit + miss over the same checked-write population.
        let mut m = Machine::new();
        m.load(&plain.program);
        let tp = TrapPatch::default()
            .run(&mut m, &plain.debug, &plan, 100_000_000)
            .unwrap();
        assert_eq!(tp.counts.hit, sim4[i].hit, "TP hit mismatch for {session}");
        assert_eq!(
            tp.counts.miss, sim4[i].miss,
            "TP miss mismatch for {session}"
        );

        // CodePatch on the instrumented build.
        let mut m = Machine::new();
        m.load(&cp.program);
        let cpr = CodePatch::default()
            .run(&mut m, &cp.debug, &plan, 100_000_000)
            .unwrap();
        assert_eq!(cpr.counts.hit, sim4[i].hit, "CP hit mismatch for {session}");
        assert_eq!(
            cpr.counts.miss, sim4[i].miss,
            "CP miss mismatch for {session}"
        );
    }
}

#[test]
fn modeled_overhead_agrees_between_paths() {
    use databp_models::{overhead, Approach, TimingVars};
    let plain = compile(SRC, &Options::plain()).unwrap();
    let trace = build_trace(&plain);
    let sessions = enumerate_sessions(&plain.debug, &trace);
    let set = SessionSet::new(sessions.clone(), &plain.debug, &trace);
    let sim4 = simulate_sizes(&trace, &set, &[PageSize::K4]).remove(0);
    let t = TimingVars::default();

    // Pick the busiest session by hits.
    let (i, _) = sim4.iter().enumerate().max_by_key(|(_, c)| c.hit).unwrap();
    let plan = SessionPlan::new(sessions[i], &plain.debug);

    let mut m = Machine::new();
    m.load(&plain.program);
    let vm = VirtualMemory::k4()
        .run(&mut m, &plain.debug, &plan, 100_000_000)
        .unwrap();
    let model = overhead(Approach::Vm4k, &sim4[i], &t);
    assert!(
        (vm.overhead.total_us() - model.total_us()).abs() < 1e-6,
        "exec charged {} µs, model says {} µs for {}",
        vm.overhead.total_us(),
        model.total_us(),
        sessions[i]
    );
}
