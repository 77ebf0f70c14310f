//! The shared answer memo: whole-invocation result caching across
//! concurrent queries.
//!
//! The page store (navigation layer) already lets a second query skip
//! the *network*; the memo lets it skip the Transaction F-logic
//! interpretation too. Keyed by `(relation, access-spec bindings)`, it
//! returns the exact `Relation` a previous identical invocation
//! produced — sound because the simulated Web is a pure function of the
//! request, so equal invocations denote equal answers.
//!
//! The catalog only consults it on *unbudgeted* invocations whose
//! navigator has seen no degradation: a budgeted run must do its own
//! admission, journalling, and position bookkeeping, and a degraded
//! navigator may have produced a partial answer that must not be
//! replayed to other tenants as complete.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;
use webbase_obs::sync::{recover, SafeMutex, SafeRwLock};
use webbase_relational::{Relation, Value};
use webbase_webworld::request::Request;

/// Memo key: relation name + the access-spec bindings, sorted by
/// attribute so equivalent specs collide.
pub type MemoKey = (String, Vec<(String, Value)>);

#[derive(Debug)]
struct MemoInner {
    answers: SafeRwLock<HashMap<MemoKey, Arc<Relation>>>,
    /// The page requests each memoised answer was computed from —
    /// recorded by the leader so drift in any of those pages can evict
    /// exactly the dependent entries (and so a memo *hit* can report
    /// the same dependencies without re-fetching anything).
    deps: SafeRwLock<HashMap<MemoKey, Arc<[Request]>>>,
    /// Keys some session is computing right now (singleflight): a
    /// second session asking for an in-flight key waits for the
    /// leader's answer instead of recomputing it.
    inflight: SafeMutex<HashSet<MemoKey>>,
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Leaderships released by a *panicking* holder (the guard dropped
    /// during unwinding): each one is a waiter promotion with the
    /// failed leader's spend already charged to its own tenant.
    aborted: AtomicU64,
    /// When each page and host last drifted. A leader records the
    /// clock at its claim and publishes only if none of its own reads
    /// drifted since: an answer computed across an invalidation may have
    /// read a page before the drift reached the store, and its key was
    /// not there to be evicted. Lock order: `answers`, `deps`, `drift`.
    drift: SafeMutex<DriftClock>,
}

/// The memo's drift clock: one tick per invalidation, and the tick of the
/// last invalidation naming each page and each host. Bounded by the
/// pages and hosts of the Web.
#[derive(Debug, Default)]
struct DriftClock {
    epoch: u64,
    pages: HashMap<Request, u64>,
    hosts: HashMap<String, u64>,
}

impl DriftClock {
    /// Did an invalidation after `epoch` name one of `reads` or its host?
    /// Deps-less answers are refused after any invalidation, as
    /// invalidation evicts them conservatively.
    fn drifted_since(&self, epoch: u64, reads: Option<&[Request]>) -> bool {
        let after = |e: Option<&u64>| e.is_some_and(|&e| e > epoch);
        match reads {
            None => self.epoch != epoch,
            Some(reads) => {
                reads.iter().any(|r| after(self.pages.get(r)) || after(self.hosts.get(&r.url.host)))
            }
        }
    }
}

/// A clone-cheap handle to one shared answer memo (`Arc` inside).
#[derive(Debug, Clone)]
pub struct AnswerMemo {
    inner: Arc<MemoInner>,
}

impl Default for AnswerMemo {
    fn default() -> AnswerMemo {
        AnswerMemo::new()
    }
}

impl AnswerMemo {
    pub fn new() -> AnswerMemo {
        AnswerMemo {
            inner: Arc::new(MemoInner {
                answers: SafeRwLock::new(HashMap::new()),
                deps: SafeRwLock::new(HashMap::new()),
                inflight: SafeMutex::new(HashSet::new()),
                settled: Condvar::new(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                aborted: AtomicU64::new(0),
                drift: SafeMutex::new(DriftClock::default()),
            }),
        }
    }

    /// Build the canonical key for an invocation.
    pub fn key(relation: &str, given: &[(String, Value)]) -> MemoKey {
        let mut bindings = given.to_vec();
        bindings.sort_by(|a, b| a.0.cmp(&b.0));
        (relation.to_string(), bindings)
    }

    pub fn get(&self, key: &MemoKey) -> Option<Arc<Relation>> {
        let found = self.inner.answers.read().get(key).cloned();
        match &found {
            Some(_) => self.inner.hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    pub fn insert(&self, key: MemoKey, answer: Arc<Relation>) {
        self.inner.answers.write().insert(key, answer);
    }

    /// Current answer for `key` without touching the hit/miss counters
    /// (freshness re-checks must not distort cache accounting).
    pub fn peek(&self, key: &MemoKey) -> Option<Arc<Relation>> {
        self.inner.answers.read().get(key).cloned()
    }

    /// Evict one entry (and its recorded deps). Returns whether an
    /// answer was actually present.
    pub fn remove(&self, key: &MemoKey) -> bool {
        self.inner.deps.write().remove(key);
        self.inner.answers.write().remove(key).is_some()
    }

    /// The recorded page dependencies of a memoised answer.
    pub fn deps_of(&self, key: &MemoKey) -> Arc<[Request]> {
        self.inner.deps.read().get(key).cloned().unwrap_or_else(|| Arc::new([]))
    }

    /// Evict every entry that read one of `changed` — plus, conservatively,
    /// entries with *no* recorded dependencies (pre-tracking answers whose
    /// provenance is unknown). Returns the evicted keys.
    pub fn invalidate_dependents(&self, changed: &[Request]) -> Vec<MemoKey> {
        let set: HashSet<&Request> = changed.iter().collect();
        self.invalidate(
            |clock| {
                for r in changed {
                    clock.pages.insert(r.clone(), clock.epoch);
                }
            },
            |reads| reads.iter().any(|r| set.contains(r)),
        )
    }

    /// Evict every entry whose recorded dependencies touch `host` —
    /// plus, conservatively, deps-less entries. Returns the evicted keys.
    pub fn invalidate_host(&self, host: &str) -> Vec<MemoKey> {
        self.invalidate(
            |clock| {
                clock.hosts.insert(host.to_string(), clock.epoch);
            },
            |reads| reads.iter().any(|r| r.url.host == host),
        )
    }

    /// One drift invalidation, atomic with respect to
    /// [`LeaderGuard::settle`]: both hold the answer and deps locks, so a
    /// leader either published before the scan (and is scanned) or finds
    /// the drift on the clock and publishes nothing.
    fn invalidate(
        &self,
        tick: impl FnOnce(&mut DriftClock),
        affected: impl Fn(&[Request]) -> bool,
    ) -> Vec<MemoKey> {
        let mut answers = self.inner.answers.write();
        let mut deps = self.inner.deps.write();
        {
            let mut clock = self.inner.drift.lock();
            clock.epoch += 1;
            tick(&mut clock);
        }
        let victims: Vec<MemoKey> = answers
            .keys()
            .filter(|key| deps.get(*key).is_none_or(|reads| affected(reads)))
            .cloned()
            .collect();
        for key in &victims {
            answers.remove(key);
            deps.remove(key);
        }
        victims
    }

    /// Singleflight claim: either a memoised answer, or leadership of
    /// this key's computation. When another session is already
    /// computing the key, the caller blocks until that leader settles
    /// and then retries — under a concurrent thundering herd, one
    /// session pays for each distinct invocation and every other
    /// session gets it for a hash lookup.
    ///
    /// Deadlock-free by construction: a session leads at most one key
    /// at a time (invocations are not nested), and a leader never
    /// waits — so every edge in the wait-for graph points at a
    /// non-waiting session. The wait is additionally bounded: a waiter
    /// re-checks every 50ms, so if a leader vanishes without settling
    /// (its query failed), a waiter takes over.
    pub fn claim(&self, key: &MemoKey) -> MemoClaim {
        let mut first = true;
        loop {
            let inflight = self.inner.inflight.lock();
            // Answers are published *before* the in-flight mark is
            // cleared, so checking under the in-flight lock cannot
            // miss a settling leader.
            if let Some(rel) = self.inner.answers.read().get(key).cloned() {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return MemoClaim::Hit(rel);
            }
            let mut inflight = inflight;
            if inflight.insert(key.clone()) {
                if first {
                    self.inner.misses.fetch_add(1, Ordering::Relaxed);
                }
                let epoch = self.inner.drift.lock().epoch;
                return MemoClaim::Leader(LeaderGuard {
                    memo: self.clone(),
                    key: key.clone(),
                    epoch,
                });
            }
            if first {
                self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                first = false;
            }
            let (woken, _timeout) =
                recover(self.inner.settled.wait_timeout(inflight, Duration::from_millis(50)));
            drop(woken);
        }
    }

    /// Requests that found their key already being computed by another
    /// session and waited for its answer instead of recomputing.
    pub fn coalesced(&self) -> u64 {
        self.inner.coalesced.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.inner.answers.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Leaderships released because their holder panicked (each one
    /// promoted a waiter; see [`LeaderGuard`]).
    pub fn aborted(&self) -> u64 {
        self.inner.aborted.load(Ordering::Relaxed)
    }
}

/// What `AnswerMemo::claim` resolved to.
#[derive(Debug)]
pub enum MemoClaim {
    /// A previous identical invocation already settled its answer.
    Hit(Arc<Relation>),
    /// The caller owns this key's computation; every other session
    /// asking for it waits until the guard settles (or is dropped).
    Leader(LeaderGuard),
}

/// Leadership of one in-flight memo key. Dropping the guard releases
/// the key and wakes waiters even when the computation failed, so an
/// error path can never strand the herd: the next waiter simply takes
/// over as leader.
#[derive(Debug)]
pub struct LeaderGuard {
    memo: AnswerMemo,
    key: MemoKey,
    /// The memo's drift clock when leadership was taken.
    epoch: u64,
}

impl LeaderGuard {
    /// Publish the computed answer — `None` when the run degraded and
    /// must not be replayed to other tenants — then release the key.
    /// Without recorded deps, an answer computed across any drift
    /// invalidation is dropped (see `drift`).
    pub fn settle(self, answer: Option<Arc<Relation>>) {
        if let Some(rel) = answer {
            self.publish(rel, None);
        }
        // Drop runs next: it clears the in-flight mark *after* the
        // answer is visible, which is the ordering `claim` relies on.
    }

    /// [`LeaderGuard::settle`] with the page requests the answer was
    /// computed from, recorded atomically with it. The answer is
    /// dropped if one of those requests, or its host, drifted since the
    /// claim.
    pub fn settle_with_deps(self, answer: Arc<Relation>, deps: Arc<[Request]>) {
        self.publish(answer, Some(deps));
    }

    fn publish(&self, answer: Arc<Relation>, reads: Option<Arc<[Request]>>) {
        let inner = &self.memo.inner;
        let mut answers = inner.answers.write();
        let mut deps = inner.deps.write();
        if inner.drift.lock().drifted_since(self.epoch, reads.as_deref()) {
            return;
        }
        if let Some(reads) = reads {
            deps.insert(self.key.clone(), reads);
        }
        answers.insert(self.key.clone(), answer);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        // A leader that dies *panicking* (unwinding through the engine's
        // catch_unwind) still hands leadership off cleanly — the next
        // waiter retries its claim and takes over — but the handoff is
        // counted separately: the partial spend stays charged to the
        // panicking tenant, and chaos tests assert the promotion.
        if std::thread::panicking() {
            self.memo.inner.aborted.fetch_add(1, Ordering::Relaxed);
        }
        let mut inflight = self.memo.inner.inflight.lock();
        inflight.remove(&self.key);
        self.memo.inner.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_relational::{Schema, Tuple};

    #[test]
    fn key_normalises_binding_order() {
        let a = AnswerMemo::key(
            "r",
            &[("b".to_string(), Value::str("2")), ("a".to_string(), Value::str("1"))],
        );
        let b = AnswerMemo::key(
            "r",
            &[("a".to_string(), Value::str("1")), ("b".to_string(), Value::str("2"))],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_and_counters() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        assert!(memo.get(&key).is_none());
        let mut rel = Relation::new(Schema::new(["x"]));
        rel.push(Tuple::from_values([Value::Int(7)]));
        memo.insert(key.clone(), Arc::new(rel.clone()));
        let back = memo.get(&key).expect("present");
        assert_eq!(back.len(), 1);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    fn one_row() -> Relation {
        let mut rel = Relation::new(Schema::new(["x"]));
        rel.push(Tuple::from_values([Value::Int(7)]));
        rel
    }

    #[test]
    fn claim_leads_then_hits() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(Some(Arc::new(one_row()))),
            MemoClaim::Hit(_) => panic!("empty memo cannot hit"),
        }
        match memo.claim(&key) {
            MemoClaim::Hit(rel) => assert_eq!(rel.len(), 1),
            MemoClaim::Leader(_) => panic!("settled key must hit"),
        }
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(memo.coalesced(), 0);
    }

    #[test]
    fn claim_coalesces_a_concurrent_herd_onto_one_leader() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[("a".to_string(), Value::str("1"))]);
        let leader = match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard,
            MemoClaim::Hit(_) => panic!("empty memo cannot hit"),
        };
        let herd: Vec<_> = (0..4)
            .map(|_| {
                let memo = memo.clone();
                let key = key.clone();
                std::thread::spawn(move || match memo.claim(&key) {
                    MemoClaim::Hit(rel) => rel.len(),
                    MemoClaim::Leader(_) => panic!("key is led; follower must wait for the answer"),
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        leader.settle(Some(Arc::new(one_row())));
        for worker in herd {
            assert_eq!(worker.join().expect("follower"), 1);
        }
        assert_eq!(memo.coalesced(), 4);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn a_panicking_leader_hands_leadership_to_a_waiter_and_is_counted() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let panicker = {
            let memo = memo.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                let _leader = match memo.claim(&key) {
                    MemoClaim::Leader(guard) => guard,
                    MemoClaim::Hit(_) => panic!("empty memo cannot hit"),
                };
                panic!("chaos: leader dies mid-computation");
            })
        };
        assert!(panicker.join().is_err());
        assert_eq!(memo.aborted(), 1);
        // The key is released: the next claimant becomes leader and the
        // herd converges as if the panic never happened.
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(Some(Arc::new(one_row()))),
            MemoClaim::Hit(_) => panic!("nothing was published by the panicker"),
        }
        match memo.claim(&key) {
            MemoClaim::Hit(rel) => assert_eq!(rel.len(), 1),
            MemoClaim::Leader(_) => panic!("settled key must hit"),
        }
    }

    #[test]
    fn poisoned_memo_locks_recover_and_are_counted() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        memo.insert(key.clone(), Arc::new(one_row()));
        let before = webbase_obs::sync::poison_recoveries();
        let panicker = {
            let memo = memo.clone();
            std::thread::spawn(move || {
                let _answers = memo.inner.answers.raw().write().expect("first writer");
                let _inflight = memo.inner.inflight.raw().lock().expect("first holder");
                panic!("poison both memo locks");
            })
        };
        assert!(panicker.join().is_err());
        assert!(memo.inner.answers.raw().is_poisoned());
        assert!(memo.inner.inflight.raw().is_poisoned());
        // Reads, writes, and the singleflight protocol all keep working.
        assert_eq!(memo.get(&key).expect("still memoised").len(), 1);
        memo.insert(AnswerMemo::key("s", &[]), Arc::new(one_row()));
        match memo.claim(&AnswerMemo::key("t", &[])) {
            MemoClaim::Leader(guard) => guard.settle(None),
            MemoClaim::Hit(_) => panic!("unknown key cannot hit"),
        }
        assert!(webbase_obs::sync::poison_recoveries() > before);
    }

    #[test]
    fn drift_invalidates_exactly_the_dependent_entries() {
        use webbase_webworld::prelude::Url;
        let memo = AnswerMemo::new();
        let page_a = Request::get(Url::new("a.test", "/1"));
        let page_b = Request::get(Url::new("b.test", "/1"));
        let on_a = AnswerMemo::key("r_a", &[]);
        let on_b = AnswerMemo::key("r_b", &[]);
        let unknown = AnswerMemo::key("legacy", &[]);
        let publish = |key: &MemoKey, page: &Request| match memo.claim(key) {
            MemoClaim::Leader(guard) => {
                guard.settle_with_deps(Arc::new(one_row()), vec![page.clone()].into());
            }
            MemoClaim::Hit(_) => panic!("empty memo cannot hit"),
        };
        publish(&on_a, &page_a);
        publish(&on_b, &page_b);
        memo.insert(unknown.clone(), Arc::new(one_row()));
        assert_eq!(*memo.deps_of(&on_a), *std::slice::from_ref(&page_a));

        // page_a drifts: r_a dies, r_b survives, deps-less legacy dies
        // conservatively.
        let evicted = memo.invalidate_dependents(std::slice::from_ref(&page_a));
        assert!(evicted.contains(&on_a) && evicted.contains(&unknown));
        assert!(memo.get(&on_a).is_none());
        assert!(memo.get(&unknown).is_none());
        assert!(memo.get(&on_b).is_some());
        assert!(memo.deps_of(&on_a).is_empty(), "deps evicted with the answer");

        // Host-wide invalidation takes out the rest of b.test.
        let evicted = memo.invalidate_host("b.test");
        assert_eq!(evicted, vec![on_b.clone()]);
        assert!(memo.get(&on_b).is_none());
    }

    #[test]
    fn dropping_an_unsettled_leader_hands_leadership_to_a_waiter() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let leader = match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard,
            MemoClaim::Hit(_) => panic!("empty memo cannot hit"),
        };
        drop(leader); // failed computation: nothing published
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(None),
            MemoClaim::Hit(_) => panic!("nothing was published"),
        }
        assert!(memo.is_empty());
    }

    #[test]
    fn an_answer_computed_across_an_invalidation_is_not_published() {
        // A leader claims, reads a page, a drift sweep invalidates while
        // it computes (its key is not yet there to evict), then it
        // settles: the possibly stale answer must not be published.
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let page = Request::get(webbase_webworld::url::Url::new("a.test", "/p"));
        let MemoClaim::Leader(guard) = memo.claim(&key) else { panic!("empty memo") };
        memo.invalidate_dependents(std::slice::from_ref(&page));
        guard.settle_with_deps(Arc::new(one_row()), vec![page.clone()].into());
        assert!(memo.is_empty(), "an answer computed across drift was published");
        // Host-wide drift of its host refuses it too.
        let MemoClaim::Leader(guard) = memo.claim(&key) else { panic!("nothing published") };
        memo.invalidate_host("a.test");
        guard.settle_with_deps(Arc::new(one_row()), vec![page.clone()].into());
        assert!(memo.is_empty(), "an answer computed across host drift was published");
        // Drift elsewhere does not: the check is against the leader's own
        // reads, so sweeps over other hosts never starve it.
        let MemoClaim::Leader(guard) = memo.claim(&key) else { panic!("nothing published") };
        let elsewhere = Request::get(webbase_webworld::url::Url::new("b.test", "/p"));
        memo.invalidate_dependents(std::slice::from_ref(&elsewhere));
        memo.invalidate_host("c.test");
        guard.settle_with_deps(Arc::new(one_row()), vec![page].into());
        assert_eq!(memo.len(), 1);
        // Without recorded deps, any drift since the claim refuses it.
        let other = AnswerMemo::key("s", &[]);
        let MemoClaim::Leader(guard) = memo.claim(&other) else { panic!("empty key") };
        memo.invalidate_host("c.test");
        guard.settle(Some(Arc::new(one_row())));
        assert!(memo.peek(&other).is_none());
    }
}
