//! The job-scoped worker pool behind [`BackendExecutor`].
//!
//! A job opens one [`Session`], which spawns the pool's scoped worker
//! threads once for the job's lifetime. Each wave submitted through it
//! is published to the pool whole: its task indices in a seeded
//! permutation, a claim cursor over that permutation, and one outcome
//! cell per task. A worker claims the next index with one atomic
//! `fetch_add`, runs that body under `catch_unwind`, and stores the
//! outcome at the task's input index. A worker that finds the cursor
//! past the end parks on the wave until its last task resolves (see
//! [`Wave::park`]); that task also unparks the submitting thread, which
//! then takes the outcomes out in input order.
//!
//! The permutation is a pure function of `(seed, label)`, so with one
//! worker the whole execution order is. With more workers the
//! interleaving is OS-scheduled, and nothing observes it: faults commit
//! at the wave boundary and outcomes are collected in input order.

use crate::metrics::ExecMetrics;
use crate::task::{SlotOutcome, SlotTask, TaskCtx, TaskFn};
use crate::WaveSpec;
use rand::seq::SliceRandom;
use rcmp_model::rng::rng_for;
use rcmp_model::ExecutorConfig;
use rcmp_obs::{MetricsRegistry, PhaseKind, PhaseProfiler, SpanKind, Tracer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Instant;

/// Locks ignoring poisoning: task bodies run under `catch_unwind`, so
/// no pool lock is held across a panic, and every update under one
/// (an `Option` taken or set, a park count) leaves its data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The workers parked on a wave.
#[derive(Default)]
struct Parked {
    /// Set when the wave's last task resolves.
    done: bool,
    /// Workers that parked.
    count: u64,
    /// Sum of their park start times, ns since the wave's epoch.
    started_ns: u64,
}

/// One published wave: the bodies until claimed, the outcomes once
/// resolved, the claim cursor over the seeded permutation, and what
/// the last task to resolve releases: the parked workers and the
/// submitting thread.
struct Wave<'env, T> {
    order: Vec<usize>,
    bodies: Vec<Mutex<Option<TaskFn<'env, T>>>>,
    outcomes: Vec<Mutex<Option<SlotOutcome<T>>>>,
    cursor: AtomicUsize,
    remaining: AtomicUsize,
    body_ns: AtomicU64,
    epoch: Instant,
    parked: Mutex<Parked>,
    released: Condvar,
    submitter: Thread,
    resolved: AtomicBool,
    /// Total parked time and park count, fixed when the wave resolves.
    park_ns: AtomicU64,
    parks: AtomicU64,
}

impl<'env, T> Wave<'env, T> {
    fn new(order: Vec<usize>, tasks: Vec<SlotTask<'env, T>>) -> Self {
        let n = tasks.len();
        Self {
            order,
            bodies: tasks
                .into_iter()
                .map(|t| Mutex::new(Some(t.into_fn())))
                .collect(),
            outcomes: (0..n).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            body_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            parked: Mutex::new(Parked::default()),
            released: Condvar::new(),
            submitter: std::thread::current(),
            resolved: AtomicBool::new(false),
            park_ns: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs task `index` and stores its outcome; the last one resolves
    /// the wave.
    fn run(&self, index: usize) {
        let body = lock(&self.bodies[index]).take();
        let started = Instant::now();
        // The cursor hands each index out once, so the body is there.
        let outcome = match body {
            Some(run) => match catch_unwind(AssertUnwindSafe(|| run(&TaskCtx::new(index)))) {
                Ok(v) => SlotOutcome::Completed(v),
                Err(_) => SlotOutcome::Abandoned,
            },
            None => SlotOutcome::Abandoned,
        };
        self.body_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        *lock(&self.outcomes[index]) = Some(outcome);
        // Release orders this task's outcome and `body_ns` before its
        // decrement, and the last decrement acquires every earlier one.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.resolve();
        }
    }

    /// Fixes the park totals, then releases the submitter and the
    /// parked workers. The submitter is on the critical path of every
    /// wave, so it is woken first and takes no lock: `resolved`'s
    /// `Release` hands it every outcome, `body_ns` and the park totals.
    fn resolve(&self) {
        {
            let mut parked = lock(&self.parked);
            parked.done = true;
            let park_ns = parked.count * self.now_ns() - parked.started_ns;
            self.park_ns.store(park_ns, Ordering::Relaxed);
            self.parks.store(parked.count, Ordering::Relaxed);
        }
        self.resolved.store(true, Ordering::Release);
        self.submitter.unpark();
        self.released.notify_all();
    }

    /// The in-wave park rule: a worker that finds no unclaimed task
    /// waits here until the wave's last task resolves, and only then
    /// rejoins the session. Measured on 2 cores against a pool whose
    /// idle workers went straight back to the session: that pool was
    /// 17 % slower than the cooperative reactor it replaced on
    /// `chain_clean` and `chain_kill`, and 12.5 % slower on
    /// `wave_storm`, with the same task-body time but a median job wall
    /// of ≈ 113 ms against ≈ 97 ms. With this rule the pool beat
    /// thread-per-slot by 27 % on `chain_clean` and the reactor by
    /// 7.5 % on `wave_storm`.
    fn park(&self) {
        let mut parked = lock(&self.parked);
        if parked.done {
            return;
        }
        parked.count += 1;
        parked.started_ns += self.now_ns();
        while !parked.done {
            parked = self
                .released
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks the submitting thread until every task has resolved
    /// (`park` may wake spuriously, hence the loop).
    fn wait(&self) {
        while !self.resolved.load(Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// A wave as the session's workers see it, type-erased so workers
/// spawned once per job serve waves of differing outcome types.
trait WaveWork: Send + Sync {
    /// Claims and runs tasks until none are left, then parks until the
    /// wave resolves (called concurrently by every session worker).
    fn serve(&self);
}

impl<T: Send> WaveWork for Wave<'_, T> {
    fn serve(&self) {
        // `Relaxed` suffices: the cursor only hands out distinct
        // positions of `order`, which was published before the wave.
        while let Some(&index) = self.order.get(self.cursor.fetch_add(1, Ordering::Relaxed)) {
            self.run(index);
        }
        self.park();
    }
}

/// What the session's workers should be doing right now.
enum SessionState<'env> {
    /// No wave published yet.
    Idle,
    /// Wave number `.0` is published.
    Work(u64, Arc<dyn WaveWork + 'env>),
    /// The session is over: workers exit.
    Shutdown,
}

/// Coordination point between the session's workers and the thread
/// submitting waves.
struct SessionShared<'env> {
    state: Mutex<SessionState<'env>>,
    publish: Condvar,
}

/// Body of one session worker: wait for a wave newer than the last one
/// it served, serve it, repeat until shutdown. The submitter publishes
/// a wave only after the previous one resolved, so a worker that
/// oversleeps a whole wave simply picks up the newest one.
fn session_worker(shared: &SessionShared<'_>) {
    let mut served = 0u64;
    loop {
        let work = {
            let mut st = lock(&shared.state);
            loop {
                match &*st {
                    SessionState::Shutdown => return,
                    SessionState::Work(generation, work) if *generation > served => {
                        served = *generation;
                        break Arc::clone(work);
                    }
                    _ => {
                        st = shared
                            .publish
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        work.serve();
    }
}

/// A job-scoped handle onto the pool, obtained from
/// [`BackendExecutor::with_session`]. `'s` is the session scope, `'env`
/// the environment slot tasks may borrow from.
pub struct Session<'s, 'env> {
    exec: &'env BackendExecutor,
    shared: &'s SessionShared<'env>,
    generation: AtomicU64,
}

impl<'env> Session<'_, 'env> {
    /// Executes one wave: runs every slot task exactly once and returns
    /// one [`SlotOutcome`] per task *in input order*. A task panic is
    /// contained as [`SlotOutcome::Abandoned`], and the call returns
    /// only once every task has resolved — the engine processes a
    /// wave's outcomes as a unit before consulting the failure injector
    /// again.
    pub fn run_wave<T: Send + 'env>(
        &self,
        spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let exec = self.exec;
        let started = exec.tracer.as_ref().map(|t| t.now_us());
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng_for(spec.seed, spec.label));
        let wave = Arc::new(Wave::new(order, tasks));
        {
            let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
            let mut st = lock(&self.shared.state);
            *st = SessionState::Work(generation, Arc::clone(&wave) as Arc<dyn WaveWork + 'env>);
            // Notify under the lock so the publish cannot slip into a
            // worker's check-then-wait window.
            self.shared.publish.notify_all();
        }
        wave.wait();
        let outcomes: Vec<SlotOutcome<T>> = wave
            .outcomes
            .iter()
            .map(|m| lock(m).take().unwrap_or(SlotOutcome::Abandoned))
            .collect();
        let body_ns = wave.body_ns.load(Ordering::Relaxed);
        let park_ns = wave.park_ns.load(Ordering::Relaxed);
        let parks = wave.parks.load(Ordering::Relaxed);
        if let Some(p) = &exec.profiler {
            p.add_many_ns(PhaseKind::ReactorPoll, body_ns, n as u64);
            p.add_many_ns(PhaseKind::ReactorPark, park_ns, parks);
        }
        if let Some(m) = &exec.metrics {
            let abandoned = outcomes.iter().filter(|o| o.is_abandoned()).count() as u64;
            m.waves.inc();
            m.poll_ns.add(body_ns);
            m.park_ns.add(park_ns);
            m.tasks_abandoned.add(abandoned);
            m.tasks_completed.add(n as u64 - abandoned);
        }
        if let (Some(tracer), Some(start)) = (&exec.tracer, started) {
            let end = tracer.now_us();
            tracer.record(
                SpanKind::ExecutorWave {
                    tasks: n as u32,
                    workers: exec.workers as u32,
                },
                spec.parent,
                None,
                None,
                start,
                end,
            );
        }
        outcomes
    }

    /// The session's worker-thread count (fixed for its lifetime).
    pub fn workers(&self) -> usize {
        self.exec.workers
    }
}

/// The wave executor: a pool of `workers` threads, spawned once per job
/// session, that runs every slot task of every wave.
pub struct BackendExecutor {
    workers: usize,
    tracer: Option<Arc<Tracer>>,
    metrics: Option<ExecMetrics>,
    profiler: Option<Arc<PhaseProfiler>>,
}

impl BackendExecutor {
    /// A pool of `cfg.workers` threads; `0` sizes it to the machine's
    /// available parallelism (uninstrumented).
    pub fn from_config(cfg: &ExecutorConfig) -> Self {
        let workers = match cfg.workers {
            0 => std::thread::available_parallelism().map_or(4, usize::from),
            w => w as usize,
        };
        Self {
            workers,
            tracer: None,
            metrics: None,
            profiler: None,
        }
    }

    /// A pool for a cluster of `slots` task slots: as
    /// [`BackendExecutor::from_config`], except that an auto-sized pool
    /// never runs more threads than the cluster has slots.
    pub fn for_slots(cfg: &ExecutorConfig, slots: u32) -> Self {
        let mut exec = Self::from_config(cfg);
        if cfg.workers == 0 {
            exec.workers = exec.workers.min(slots.max(1) as usize);
        }
        exec
    }

    /// Attaches observability: `ExecutorWave` spans on `tracer` and
    /// `exec.*` metrics registered in `registry`.
    pub fn with_obs(mut self, tracer: Arc<Tracer>, registry: &MetricsRegistry) -> Self {
        self.tracer = Some(tracer);
        self.metrics = Some(ExecMetrics::register(registry));
        self
    }

    /// Attaches a phase profiler: task-body and in-wave park time flow
    /// into [`PhaseKind::ReactorPoll`] / [`PhaseKind::ReactorPark`] at
    /// the end of each wave.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a job-scoped [`Session`]: the pool's workers are
    /// spawned once here and serve every wave submitted through the
    /// session (observable as `exec.worker_starts` staying at the pool
    /// size while `exec.waves` climbs). A panic inside `f` still shuts
    /// the pool down before it propagates.
    pub fn with_session<'env, R>(&'env self, f: impl FnOnce(&Session<'_, 'env>) -> R) -> R {
        if let Some(m) = &self.metrics {
            m.workers.set(self.workers as i64);
        }
        let shared = SessionShared {
            state: Mutex::new(SessionState::Idle),
            publish: Condvar::new(),
        };
        let result = std::thread::scope(|s| {
            for _ in 0..self.workers {
                let shared = &shared;
                let metrics = self.metrics.as_ref();
                s.spawn(move || {
                    if let Some(m) = metrics {
                        m.worker_starts.inc();
                    }
                    session_worker(shared);
                });
            }
            let session = Session {
                exec: self,
                shared: &shared,
                generation: AtomicU64::new(0),
            };
            let out = catch_unwind(AssertUnwindSafe(|| f(&session)));
            *lock(&shared.state) = SessionState::Shutdown;
            shared.publish.notify_all();
            out
        });
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn wave(n: usize) -> Vec<SlotTask<'static, usize>> {
        (0..n)
            .map(|i| SlotTask::new(move |ctx: &TaskCtx| ctx.index() * 1000 + i))
            .collect()
    }

    fn pool(workers: u32) -> BackendExecutor {
        BackendExecutor::from_config(&ExecutorConfig::async_workers(workers))
    }

    fn observed(workers: u32, reg: &MetricsRegistry) -> BackendExecutor {
        pool(workers).with_obs(Arc::new(Tracer::new()), reg)
    }

    /// Runs `tasks` as the only wave of a fresh session on `exec`.
    fn one_wave<'env, T: Send + 'env>(
        exec: &'env BackendExecutor,
        spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        exec.with_session(|session| session.run_wave(spec, tasks))
    }

    #[test]
    fn outcomes_are_input_ordered_and_each_task_runs_once() {
        for workers in [1, 2, 4] {
            let runs: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            let tasks: Vec<SlotTask<'_, usize>> = (0..200)
                .map(|i| {
                    let runs = &runs;
                    SlotTask::new(move |ctx: &TaskCtx| {
                        runs[ctx.index()].fetch_add(1, Ordering::SeqCst);
                        i * 3
                    })
                })
                .collect();
            let exec = pool(workers);
            let out = one_wave(&exec, &WaveSpec::new("order", 7), tasks);
            let values: Vec<Option<usize>> = out.into_iter().map(SlotOutcome::completed).collect();
            assert_eq!(values, (0..200).map(|i| Some(i * 3)).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn panic_abandons_only_that_task() {
        let reg = MetricsRegistry::new();
        let tasks: Vec<SlotTask<'_, u32>> = (0..8)
            .map(|i| {
                SlotTask::new(move |_: &TaskCtx| {
                    assert!(i != 3, "scripted task panic");
                    i
                })
            })
            .collect();
        let exec = observed(2, &reg);
        let out = one_wave(&exec, &WaveSpec::new("p", 9), tasks);
        assert!(out[3].is_abandoned());
        for (i, o) in out.into_iter().enumerate().filter(|(i, _)| *i != 3) {
            assert_eq!(o.completed(), Some(i as u32));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.tasks_abandoned"), Some(1));
        assert_eq!(snap.counter("exec.tasks_completed"), Some(7));
    }

    #[test]
    fn one_worker_runs_the_seeded_permutation() {
        let record = |seed: u64| {
            let order = Mutex::new(Vec::new());
            let tasks: Vec<SlotTask<'_, ()>> = (0..32)
                .map(|_| {
                    let order = &order;
                    SlotTask::new(move |ctx: &TaskCtx| lock(order).push(ctx.index()))
                })
                .collect();
            one_wave(&pool(1), &WaveSpec::new("order", seed), tasks);
            order.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        let mut expected: Vec<usize> = (0..32).collect();
        expected.shuffle(&mut rng_for(5, "order"));
        assert_eq!(record(5), expected);
        assert_ne!(record(6), expected);
    }

    #[test]
    fn worker_starts_stay_at_the_pool_size_across_waves() {
        let reg = MetricsRegistry::new();
        let exec = observed(2, &reg);
        let sums: Vec<usize> = exec.with_session(|session| {
            assert_eq!(session.workers(), 2);
            (0..3u64)
                .map(|w| {
                    let out = session.run_wave(&WaveSpec::new("sess", w), wave(8));
                    out.into_iter().map(|o| o.completed().unwrap_or(0)).sum()
                })
                .collect()
        });
        assert_eq!(sums, vec![28_028; 3]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.waves"), Some(3));
        assert_eq!(
            snap.counter("exec.worker_starts"),
            Some(2),
            "the pool must be spawned once per session, not per wave"
        );
        assert_eq!(
            snap.get("exec.workers"),
            Some(&rcmp_obs::SnapshotValue::Gauge(2))
        );
        assert_eq!(snap.counter("exec.tasks_completed"), Some(24));
    }

    #[test]
    fn empty_wave_is_a_noop() {
        let reg = MetricsRegistry::new();
        let exec = observed(4, &reg);
        let out: Vec<SlotOutcome<()>> = one_wave(&exec, &WaveSpec::new("e", 0), Vec::new());
        assert!(out.is_empty());
        assert_eq!(reg.snapshot().counter("exec.waves"), Some(0));
    }

    /// Pins the park rule: the slow task starts its 20 ms only once the
    /// fast one has finished, so the worker that ran the fast one has
    /// nothing left to claim and parks on the wave until the slow one
    /// resolves, and that time is charged to `ReactorPark`.
    #[test]
    fn idle_worker_parks_on_the_wave_until_it_resolves() {
        let profiler = Arc::new(PhaseProfiler::new(rcmp_obs::Clock::monotonic()));
        let exec = pool(2).with_profiler(Arc::clone(&profiler));
        let (fast_done, fast_rx) = mpsc::channel();
        let tasks: Vec<SlotTask<'_, ()>> = vec![
            SlotTask::new(move |_: &TaskCtx| {
                let _ = fast_rx.recv();
                std::thread::sleep(Duration::from_millis(20));
            }),
            SlotTask::new(move |_: &TaskCtx| {
                let _ = fast_done.send(());
            }),
        ];
        one_wave(&exec, &WaveSpec::new("slow", 3), tasks);
        assert!(profiler.total_ns(PhaseKind::ReactorPoll) >= 20_000_000);
        assert!(profiler.total_ns(PhaseKind::ReactorPark) > 0);
        let entries = profiler.snapshot().entries;
        assert_eq!(entries[PhaseKind::ReactorPoll.index()].count, 2);
        assert_eq!(entries[PhaseKind::ReactorPark.index()].count, 1);
    }

    #[test]
    fn emits_executor_wave_span() {
        let tracer = Arc::new(Tracer::new());
        let exec = pool(2).with_obs(tracer.clone(), &MetricsRegistry::new());
        one_wave(&exec, &WaveSpec::new("s", 11), wave(10));
        let trace = tracer.snapshot();
        let span = trace.of_kind("ExecutorWave").next().expect("span emitted");
        assert!(matches!(
            span.kind,
            SpanKind::ExecutorWave {
                tasks: 10,
                workers: 2
            }
        ));
    }

    #[test]
    fn auto_pool_is_capped_at_the_slot_count() {
        let auto = ExecutorConfig::default();
        assert_eq!(BackendExecutor::for_slots(&auto, 1).workers(), 1);
        let machine = BackendExecutor::from_config(&auto).workers();
        assert_eq!(BackendExecutor::for_slots(&auto, 4096).workers(), machine);
        let fixed = ExecutorConfig::async_workers(3);
        assert_eq!(BackendExecutor::for_slots(&fixed, 1).workers(), 3);
    }

    #[test]
    fn session_waves_borrow_caller_state() {
        let counter = AtomicUsize::new(0);
        pool(3).with_session(|session| {
            for w in 0..4u64 {
                let tasks: Vec<SlotTask<'_, ()>> = (0..16)
                    .map(|_| {
                        let counter = &counter;
                        SlotTask::new(move |_: &TaskCtx| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                session.run_wave(&WaveSpec::new("borrow", w), tasks);
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn session_closure_panic_shuts_pool_down_and_propagates() {
        let exec = pool(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            exec.with_session(|_s| panic!("scripted session panic"))
        }));
        assert!(r.is_err(), "the closure panic must propagate");
    }
}
