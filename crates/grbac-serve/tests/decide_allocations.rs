//! The allocation budget of a wire decide. A counting global allocator
//! tallies heap allocations (reallocations included) on this thread
//! while `handle_line` answers 10,000 decide lines with spans off, and
//! while the engine's own `decide` answers the same requests. The
//! request path may add at most [`BUDGET`] allocations per line on top
//! of the engine's: parsing borrows the line's strings, and the answer
//! is written straight into one response buffer, so per-field copies
//! creeping back in fail here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grbac_core::{AccessRequest, EnvironmentSnapshot, RoleKind};
use grbac_serve::PolicyService;

/// Allocations `handle_line` may make per decide line beyond the
/// engine's `decide`.
const BUDGET: f64 = 16.0;

const LINES: usize = 10_000;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SUBJECTS: usize = 16;
const OBJECTS: usize = 8;
const TRANSACTIONS: usize = 4;
const ENV_ROLES: usize = 4;

/// A tenant with subject, object and environment roles, and rules of
/// both effects across them.
fn provisioned() -> PolicyService {
    let service = PolicyService::with_defaults();
    service.create_tenant("t").unwrap();
    let mut lines = Vec::new();
    let mut declare = |kind: &str, prefix: &str, n: usize| {
        for i in 0..n {
            lines.push(format!(
                r#"{{"op":"declare","tenant":"t","kind":"{kind}","name":"{prefix}{i}"}}"#
            ));
        }
    };
    declare("subject_role", "sr", 4);
    declare("object_role", "or", 4);
    declare("environment_role", "er", ENV_ROLES);
    declare("transaction", "t", TRANSACTIONS);
    declare("subject", "s", SUBJECTS);
    declare("object", "o", OBJECTS);
    for i in 0..SUBJECTS {
        lines.push(format!(
            r#"{{"op":"assign","tenant":"t","kind":"subject_role","entity":"s{i}","role":"sr{}"}}"#,
            i % 4
        ));
    }
    for i in 0..OBJECTS {
        lines.push(format!(
            r#"{{"op":"assign","tenant":"t","kind":"object_role","entity":"o{i}","role":"or{}"}}"#,
            i % 4
        ));
    }
    for i in 0..32 {
        let effect = if i % 3 == 0 { "deny" } else { "permit" };
        lines.push(format!(
            r#"{{"op":"add_rule","tenant":"t","effect":"{effect}","name":"r{i}","subject_role":"sr{}","object_role":"or{}","transaction":"t{}","when":["er{}"]}}"#,
            i % 4,
            (i / 4) % 4,
            i % TRANSACTIONS,
            i % ENV_ROLES
        ));
    }
    for line in &lines {
        let response = service.handle_line(line);
        assert!(response.contains("\"ok\":true"), "{line} -> {response}");
    }
    service
}

/// Deterministic decide lines: (subject, transaction, object, env).
fn requests() -> Vec<(usize, usize, usize, Vec<usize>)> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    (0..LINES)
        .map(|_| {
            let env = (0..next(3)).map(|_| next(ENV_ROLES)).collect();
            (next(SUBJECTS), next(TRANSACTIONS), next(OBJECTS), env)
        })
        .collect()
}

#[test]
fn a_decide_line_stays_within_its_allocation_budget() {
    let service = provisioned();
    service.span_store().set_enabled(false);
    let requests = requests();
    let lines: Vec<String> = requests
        .iter()
        .map(|(s, t, o, env)| {
            let env: Vec<String> = env.iter().map(|e| format!("\"er{e}\"")).collect();
            format!(
                r#"{{"op":"decide","tenant":"t","subject":"s{s}","transaction":"t{t}","object":"o{o}","env":[{}]}}"#,
                env.join(",")
            )
        })
        .collect();
    let tenant = service.tenant("t").unwrap();
    let access: Vec<AccessRequest> = {
        let engine = tenant.engine.read().unwrap();
        let entities = engine.entities();
        requests
            .iter()
            .map(|(s, t, o, env)| {
                AccessRequest::by_subject(
                    entities.find_subject(&format!("s{s}")).unwrap(),
                    entities.find_transaction(&format!("t{t}")).unwrap(),
                    entities.find_object(&format!("o{o}")).unwrap(),
                    EnvironmentSnapshot::from_active(env.iter().map(|e| {
                        engine
                            .roles()
                            .find(RoleKind::Environment, &format!("er{e}"))
                            .unwrap()
                    })),
                )
            })
            .collect()
    };

    // Warm both paths: the first decide compiles the index, and the
    // telemetry rings fill to their steady state.
    for line in &lines {
        assert!(service.handle_line(line).contains("\"ok\":true"));
    }
    let engine_allocations = {
        let engine = tenant.engine.read().unwrap();
        for request in &access {
            engine.decide(request).unwrap();
        }
        allocations(|| {
            for request in &access {
                engine.decide(request).unwrap();
            }
        })
    };
    let service_allocations = allocations(|| {
        for line in &lines {
            let response = service.handle_line(line);
            assert!(response.contains("\"ok\":true"), "{response}");
        }
    });

    let per_line = |total: u64| total as f64 / LINES as f64;
    let extra = per_line(service_allocations) - per_line(engine_allocations);
    eprintln!(
        "allocations per decide: handle_line {:.2}, engine decide {:.2}, request path {extra:.2}",
        per_line(service_allocations),
        per_line(engine_allocations),
    );
    assert!(
        extra <= BUDGET,
        "a decide line makes {extra:.2} allocations beyond the engine's (budget {BUDGET})"
    );
}
