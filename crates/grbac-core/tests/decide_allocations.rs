//! The allocation budget of the engine's own `decide`. A counting
//! global allocator tallies heap allocations (reallocations included)
//! on this thread while a 320-rule engine with role hierarchies and
//! environment-guarded rules of both effects answers steady-state
//! requests with its default sinks: the flight recorder, rule heat,
//! the event bus and 1-in-8 latency sampling.
//!
//! A decide allocates the matched-rule list its
//! [`Decision`](grbac_core::Decision) carries and, on a sampled
//! decide, the trace's stage list. The explanation's role sets are
//! inline bitsets ([`RoleSet`](grbac_core::RoleSet)), and candidate
//! selection, the environment stage, a session's or a sensed
//! requester's role view and the record step allocate nothing: the
//! walk reads closure rows into the thread's scratch row, a sensed
//! requester's confidences go into a scratch buffer, and the recorder
//! writes each record into the slot it evicts. Allocations creeping
//! back in fail here, for trusted-subject, sensed and session
//! requesters, with or without the `telemetry-off` feature.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grbac_core::prelude::*;

/// Mean allocations a decide may make, whoever the requester.
const BUDGET: f64 = 2.0;

/// Requests per measured pass; more than the recorder retains, so the
/// warm-up pass leaves its ring full and every measured record evicts.
const REQUESTS: usize = 6_000;

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

/// A deterministic xorshift stream.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

struct Policy {
    engine: Grbac,
    subject_roles: Vec<RoleId>,
    env_roles: Vec<RoleId>,
    subjects: Vec<SubjectId>,
    /// One session per subject, every assigned role active.
    sessions: Vec<SessionId>,
    objects: Vec<ObjectId>,
    transactions: Vec<TransactionId>,
}

/// Who makes the requests of one measured pass.
#[derive(Clone, Copy)]
enum Requester {
    Trusted,
    Sensed,
    Session,
}

/// 16 subject roles in chains of four, 8 object roles in chains of
/// two, 6 environment roles in chains of three; subjects and objects
/// hold one or two roles, and each subject has a session with all of
/// its roles active; 320 rules, a fifth of them deny and a third
/// guarded by an environment role.
fn policy() -> Policy {
    let mut engine = Grbac::new();
    let chained = |engine: &mut Grbac, kind: RoleKind, n: usize, chain: usize| {
        let roles: Vec<RoleId> = (0..n)
            .map(|i| {
                let name = format!("{kind}_{i}");
                match kind {
                    RoleKind::Subject => engine.declare_subject_role(name),
                    RoleKind::Object => engine.declare_object_role(name),
                    RoleKind::Environment => engine.declare_environment_role(name),
                }
                .unwrap()
            })
            .collect();
        for i in 0..n {
            if i % chain != 0 {
                engine.specialize(roles[i], roles[i - 1]).unwrap();
            }
        }
        roles
    };
    let subject_roles = chained(&mut engine, RoleKind::Subject, 16, 4);
    let object_roles = chained(&mut engine, RoleKind::Object, 8, 2);
    let env_roles = chained(&mut engine, RoleKind::Environment, 6, 3);
    let transactions: Vec<TransactionId> = (0..4)
        .map(|i| engine.declare_transaction(format!("t{i}")).unwrap())
        .collect();
    let subjects: Vec<SubjectId> = (0..16)
        .map(|i| engine.declare_subject(format!("s{i}")).unwrap())
        .collect();
    let objects: Vec<ObjectId> = (0..8)
        .map(|i| engine.declare_object(format!("o{i}")).unwrap())
        .collect();
    for (i, &subject) in subjects.iter().enumerate() {
        engine
            .assign_subject_role(subject, subject_roles[i])
            .unwrap();
        if i % 3 == 0 {
            engine
                .assign_subject_role(subject, subject_roles[(i + 5) % 16])
                .unwrap();
        }
    }
    let sessions: Vec<SessionId> = subjects
        .iter()
        .map(|&subject| {
            let session = engine.open_session(subject).unwrap();
            for role in engine.assignments().subject_roles(subject) {
                engine.activate_role(session, role).unwrap();
            }
            session
        })
        .collect();
    for (i, &object) in objects.iter().enumerate() {
        engine.assign_object_role(object, object_roles[i]).unwrap();
        if i % 4 == 1 {
            engine
                .assign_object_role(object, object_roles[(i + 3) % 8])
                .unwrap();
        }
    }
    let mut stream = Stream(0x9e37_79b9_7f4a_7c15);
    for i in 0..320 {
        let mut def = if i % 5 == 0 {
            RuleDef::deny()
        } else {
            RuleDef::permit()
        };
        if i % 7 != 0 {
            def = def.subject_role(subject_roles[stream.below(16)]);
        }
        if i % 4 != 0 {
            def = def.object_role(object_roles[stream.below(8)]);
        }
        def = def.transaction(transactions[stream.below(4)]);
        if i % 3 == 0 {
            def = def.when(env_roles[stream.below(6)]);
        }
        engine.add_rule(def).unwrap();
    }
    engine.set_default_min_confidence(Confidence::new(0.9).unwrap());
    Policy {
        engine,
        subject_roles,
        env_roles,
        subjects,
        sessions,
        objects,
        transactions,
    }
}

/// `REQUESTS` requests with up to two active environment roles; sensed
/// ones carry their subject's identity at 0.75 confidence plus one
/// role claim at 0.98, against the 0.9 permit threshold; session ones
/// act through the subject's session.
fn requests(policy: &Policy, requester: Requester) -> Vec<AccessRequest> {
    let mut stream = Stream(match requester {
        Requester::Trusted => 0x4f6c_dd1d,
        Requester::Sensed => 0x2545_f491,
        Requester::Session => 0x1b87_3593,
    });
    (0..REQUESTS)
        .map(|_| {
            let pick = stream.below(policy.subjects.len());
            let transaction = policy.transactions[stream.below(policy.transactions.len())];
            let object = policy.objects[stream.below(policy.objects.len())];
            let environment = EnvironmentSnapshot::from_active(
                (0..stream.below(3)).map(|_| policy.env_roles[stream.below(6)]),
            );
            let subject = policy.subjects[pick];
            match requester {
                Requester::Trusted => {
                    AccessRequest::by_subject(subject, transaction, object, environment)
                }
                Requester::Session => AccessRequest::by_session(
                    policy.sessions[pick],
                    transaction,
                    object,
                    environment,
                ),
                Requester::Sensed => {
                    let mut context = AuthContext::new();
                    context.claim_identity(subject, Confidence::new(0.75).unwrap());
                    context.claim_role(
                        policy.subject_roles[stream.below(16)],
                        Confidence::new(0.98).unwrap(),
                    );
                    AccessRequest::by_sensed(context, transaction, object, environment)
                }
            }
        })
        .collect()
}

/// Mean allocations per steady-state decide of `requests`, after one
/// warm-up pass that compiles the index and fills the recorder ring.
fn per_decide(engine: &Grbac, requests: &[AccessRequest]) -> f64 {
    for request in requests {
        engine.decide(request).unwrap();
    }
    let total = allocations(|| {
        for request in requests {
            engine.decide(request).unwrap();
        }
    });
    total as f64 / requests.len() as f64
}

#[test]
fn steady_state_decides_stay_within_their_allocation_budget() {
    let policy = policy();
    assert_eq!(policy.engine.rules().len(), 320);
    let passes = [
        ("trusted subject", requests(&policy, Requester::Trusted)),
        ("sensed", requests(&policy, Requester::Sensed)),
        ("session", requests(&policy, Requester::Session)),
    ];
    let matched: usize = passes
        .iter()
        .flat_map(|(_, requests)| requests)
        .map(|request| {
            let decision = policy.engine.decide(request).unwrap();
            assert_eq!(decision, policy.engine.decide_naive(request).unwrap());
            decision.explanation().matched.len()
        })
        .sum();
    assert!(matched > 0, "the requests must reach rules");

    let measured: Vec<(&str, f64)> = passes
        .iter()
        .map(|(requester, requests)| (*requester, per_decide(&policy.engine, requests)))
        .collect();
    let report: Vec<String> = measured
        .iter()
        .map(|(requester, allocations)| format!("{requester} {allocations:.2}"))
        .collect();
    eprintln!(
        "allocations per decide: {}; mean matched rules {:.2}",
        report.join(", "),
        matched as f64 / (passes.len() * REQUESTS) as f64
    );
    for (requester, allocations) in measured {
        assert!(
            allocations <= BUDGET,
            "a {requester} decide makes {allocations:.2} allocations (budget {BUDGET})"
        );
    }
}
