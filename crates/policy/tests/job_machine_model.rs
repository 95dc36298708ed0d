//! The job machine on a table: `run_job` over an in-memory backend.
//!
//! The world is what one job run touches and nothing more: nodes that
//! live or die, input blocks with their holders, one persisted map
//! output per block, and the job's output partitions with the holders
//! each finished reduce task wrote to. No bytes, no time. A script
//! crashes or drains nodes at any point of the run, and faults single
//! task attempts, keyed `(phase, wave, task, attempt)`: a failure, a
//! flaky shuffle, a corrupt map output, a torn write. Random worlds,
//! plans and scripts must satisfy, on every run:
//!
//! * it ends in `Ok` with every target partition written and readable
//!   and every mapper's output stored, or in a typed error
//!   (`JobInputLost`, `NoLiveNodes`, `RecoveryExhausted`);
//! * no task fails more than `task_retries` charged times, and a task
//!   that fails once more ends the run in `RecoveryExhausted`;
//! * waves, task attempts and shuffle attempts stay under a closed form
//!   in the task count, `task_retries`, `shuffle_attempts` and the
//!   crashes and task faults that fired — the termination bound;
//! * the run's spans are the machine's: one `JobRun` closed with the
//!   outcome, one `Wave` per wave the backend ran, one `Fault` per
//!   scripted node event and one `Loss` per crash — caused by its
//!   `Fault`, or by nothing for a torn writer;
//! * the same script replays to the same trace and the same outcome.

use proptest::prelude::*;
use rcmp_model::{
    Error, JobId, NodeId, PartitionId, PlacementKernel, ReduceTaskId, Result, SlotConfig,
};
use rcmp_obs::{OpenSpan, Span, SpanKind, Tracer};
use rcmp_policy::{
    assign_map_waves, run_job, Fault, FnMapTasks, InputView, JobBackend, JobShape, JobTally,
    MapInput, MapResult, Membership, PolicyCtx, RecomputePlan, ReduceResult, SliceTopology,
    TriggerPoint, WaveAssignment,
};
use std::collections::{BTreeMap, BTreeSet};

/// A task's phase, for fault keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Map,
    Reduce,
}

/// What a scripted fault does to one task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskFault {
    /// The attempt fails (charged).
    Fail,
    /// The first `n` shuffle attempts fail transiently: absorbed below
    /// the shuffle budget, a charged retry at or above it. Reduce only.
    Flake(u32),
    /// The reducer finds one stored map output corrupt and drops it
    /// (uncharged; its mapper re-runs). Reduce only.
    Corrupt,
    /// The reducer tears its write and its node dies. Reduce only.
    Torn,
}

/// A task, as fault keys name it: a mapper by its block, a reducer by
/// its partition and split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Task {
    Map(usize),
    Reduce(u32, u32),
}

impl Task {
    fn reduce(id: ReduceTaskId) -> Self {
        Task::Reduce(id.partition.raw(), id.split.map_or(0, |(s, _)| s.raw()))
    }
}

/// One scripted node event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeEvent {
    Crash(u32),
    Drain(u32),
}

#[derive(Clone, Debug)]
struct Script {
    nodes: Vec<(TriggerPoint, NodeEvent)>,
    tasks: BTreeMap<(Phase, u32, Task, u32), TaskFault>,
}

/// The world one run changes.
#[derive(Clone, Debug, PartialEq)]
struct World {
    membership: Membership,
    /// Each input block's holders.
    blocks: Vec<Vec<u32>>,
    /// Each block's persisted map output: its node and the input
    /// version it read (the current version is 1).
    map_out: Vec<Option<(u32, u64)>>,
    /// Each output partition's finished tasks: split → writer's holders.
    parts: Vec<BTreeMap<u32, Vec<u32>>>,
}

impl World {
    fn alive(&self, n: u32) -> bool {
        self.membership.is_readable(n)
    }

    fn kill(&mut self, n: u32) {
        let _ = self.membership.mark_dead(n);
        for out in &mut self.map_out {
            if out.is_some_and(|(node, _)| node == n) {
                *out = None;
            }
        }
    }
}

/// The in-memory backend: the world, the script, and what happened.
struct Fake<'a> {
    world: World,
    script: &'a Script,
    shuffle_attempts: u32,
    /// Attempts so far per task.
    attempts: BTreeMap<Task, u32>,
    /// Charged failures per task.
    charged: BTreeMap<Task, u32>,
    /// A crash took a map output since the last input snapshot.
    outputs_lost: bool,
    crashes: u32,
    /// Torn writers killed (crashes the script did not name).
    torn: u32,
    task_faults: u32,
    shuffles: u64,
    waves: u32,
    trace: Vec<String>,
}

impl Fake<'_> {
    fn kill(&mut self, n: u32) {
        self.outputs_lost |= self
            .world
            .map_out
            .iter()
            .any(|o| o.is_some_and(|(m, _)| m == n));
        self.world.kill(n);
        self.crashes += 1;
    }

    /// The next attempt of `task` in `wave`, and its scripted fault.
    fn attempt(&mut self, phase: Phase, wave: u32, task: Task) -> Option<TaskFault> {
        let attempt = self.attempts.entry(task).or_insert(0);
        let key = (phase, wave, task, *attempt);
        *attempt += 1;
        let fault = self.script.tasks.get(&key).copied();
        self.task_faults += u32::from(fault.is_some());
        fault
    }

    fn charge(&mut self, task: Task) {
        *self.charged.entry(task).or_insert(0) += 1;
    }
}

impl JobBackend for Fake<'_> {
    type Waves<'w>
        = ()
    where
        Self: 'w;

    fn faults(&mut self, point: TriggerPoint) -> Vec<Fault> {
        let events = self.script.nodes.iter().filter(|(at, _)| *at == point);
        events
            .map(|&(_, event)| match event {
                NodeEvent::Crash(n) => Fault::NodeCrash(NodeId(n)),
                NodeEvent::Drain(n) => Fault::NodeDrain { node: NodeId(n) },
            })
            .collect()
    }

    fn apply(&mut self, point: TriggerPoint, fault: Fault) -> Option<usize> {
        self.trace.push(format!("{point:?} {fault:?}"));
        let n = fault.node().raw();
        match fault {
            Fault::NodeCrash(_) => {
                self.kill(n);
                return Some(0);
            }
            Fault::NodeDrain { .. } if self.world.membership.drainable(n) => {
                let _ = self.world.membership.drain(n);
            }
            _ => {}
        }
        None
    }

    fn input(&mut self) -> Result<InputView> {
        self.outputs_lost = false;
        let w = &self.world;
        let blocks = (w.blocks.iter().zip(&w.map_out)).enumerate();
        Ok(InputView {
            unwritten: BTreeSet::new(),
            blocks: blocks
                .map(|(b, (holders, out))| MapInput {
                    partition: PartitionId(b as u32),
                    readable: holders.iter().any(|&n| w.alive(n)),
                    stored: out.map(|(_, version)| version),
                    current: 1,
                })
                .collect(),
        })
    }

    fn discard_output(&mut self) -> Result<()> {
        self.world.map_out.iter_mut().for_each(|o| *o = None);
        self.world.parts.iter_mut().for_each(BTreeMap::clear);
        Ok(())
    }

    fn clear(&mut self, partitions: &BTreeSet<PartitionId>) -> Result<()> {
        for p in partitions {
            self.world.parts[p.index()].clear();
        }
        self.trace.push(format!("clear {partitions:?}"));
        Ok(())
    }

    fn with_waves<R>(&mut self, phases: impl FnOnce(&mut Self, &()) -> R) -> R {
        phases(self, &())
    }

    fn membership(&self) -> Membership {
        self.world.membership.clone()
    }

    fn assign_maps(
        &mut self,
        pending: &[usize],
        topo: &SliceTopology<'_, NodeId>,
        ctx: PolicyCtx<'_>,
    ) -> Result<WaveAssignment<NodeId>> {
        let holders = |t: usize| &self.world.blocks[pending[t]];
        let tasks = FnMapTasks::new(
            pending.len(),
            |t, n: NodeId| holders(t).first() == Some(&n.raw()),
            |t, n: NodeId| holders(t).contains(&n.raw()),
        );
        assign_map_waves(topo, &tasks, ctx)
    }

    fn map_wave(
        &mut self,
        _: &(),
        (index, _): (u32, OpenSpan),
        wave: &[(NodeId, usize)],
        mut account: impl FnMut(MapResult) -> Result<()>,
    ) -> Result<()> {
        self.waves += 1;
        self.trace.push(format!("map wave {index} {wave:?}"));
        let mut results = Vec::new();
        for &(node, b) in wave {
            let fault = self.attempt(Phase::Map, index, Task::Map(b));
            let readable = self.world.blocks[b].iter().any(|&h| self.world.alive(h));
            let ok = fault.is_none() && self.world.alive(node.raw()) && readable;
            if ok {
                self.world.map_out[b] = Some((node.raw(), 1));
            } else {
                self.charge(Task::Map(b));
            }
            results.push((ok, b));
        }
        for (ok, task) in results {
            account(match ok {
                true => MapResult::Done,
                false => MapResult::Failed {
                    task,
                    reason: format!("block {task}"),
                },
            })?;
        }
        Ok(())
    }

    fn reduce_wave(
        &mut self,
        _: &(),
        (index, _): (u32, OpenSpan),
        wave: &[(NodeId, ReduceTaskId)],
        mut account: impl FnMut(ReduceResult) -> Result<()>,
    ) -> Result<()> {
        self.waves += 1;
        self.trace.push(format!("reduce wave {index} {wave:?}"));
        if self.outputs_lost {
            for &(_, id) in wave {
                *self.attempts.entry(Task::reduce(id)).or_insert(0) += 1;
            }
            return wave.iter().try_for_each(|_| account(ReduceResult::Missing));
        }
        let mut results = Vec::new();
        for &(node, id) in wave {
            let task = Task::reduce(id);
            let result = match self.attempt(Phase::Reduce, index, task) {
                Some(TaskFault::Fail) => ReduceResult::Retry(id),
                Some(TaskFault::Flake(n)) if n >= self.shuffle_attempts => {
                    self.shuffles += u64::from(self.shuffle_attempts);
                    ReduceResult::Retry(id)
                }
                Some(TaskFault::Corrupt) => {
                    self.shuffles += 1;
                    if let Some(out) = self.world.map_out.iter_mut().find(|o| o.is_some()) {
                        *out = None;
                    }
                    ReduceResult::Missing
                }
                _ if !self.world.alive(node.raw()) => ReduceResult::Retry(id),
                fault => {
                    let flakes = match fault {
                        Some(TaskFault::Flake(n)) => n,
                        _ => 0,
                    };
                    self.shuffles += u64::from(flakes) + 1;
                    let split = id.split.map_or(0, |(s, _)| s.raw());
                    let part = &mut self.world.parts[id.partition.index()];
                    part.insert(split, vec![node.raw()]);
                    if fault == Some(TaskFault::Torn) {
                        ReduceResult::Torn(id.partition)
                    } else {
                        ReduceResult::Done(id)
                    }
                }
            };
            if matches!(result, ReduceResult::Retry(_)) {
                self.charge(task);
            }
            results.push((node, result));
        }
        for (node, result) in results {
            if matches!(result, ReduceResult::Torn(_)) {
                // The torn writer dies at the wave boundary.
                self.kill(node.raw());
                self.torn += 1;
            }
            account(result)?;
        }
        Ok(())
    }

    fn lost_partitions(&self) -> Result<BTreeSet<PartitionId>> {
        let w = &self.world;
        let lost = (w.parts.iter().enumerate())
            .filter(|(_, splits)| splits.values().any(|h| !h.iter().any(|&n| w.alive(n))));
        Ok(lost.map(|(p, _)| PartitionId(p as u32)).collect())
    }

    fn commit(&mut self) -> Result<()> {
        self.trace.push("commit".into());
        Ok(())
    }
}

/// One drawn case: the world, the run's plan, and its script.
#[derive(Clone, Debug)]
struct Case {
    world: World,
    plan: Option<RecomputePlan>,
    reducers: u32,
    slots: u32,
    task_retries: u32,
    shuffle_attempts: u32,
    script: Script,
}

struct Ran {
    result: Result<()>,
    tally: JobTally,
    world: World,
    charged: BTreeMap<Task, u32>,
    attempts: u64,
    reduce_attempts: u64,
    shuffles: u64,
    waves: u32,
    crashes: u32,
    torn: u32,
    task_faults: u32,
    trace: Vec<String>,
    spans: Vec<Span>,
}

fn run(case: &Case) -> Ran {
    let mut fake = Fake {
        world: case.world.clone(),
        script: &case.script,
        shuffle_attempts: case.shuffle_attempts,
        attempts: BTreeMap::new(),
        charged: BTreeMap::new(),
        outputs_lost: false,
        crashes: 0,
        torn: 0,
        task_faults: 0,
        shuffles: 0,
        waves: 0,
        trace: Vec::new(),
    };
    let tracer = Tracer::new();
    let shape = JobShape {
        seq: 1,
        job: JobId(1),
        num_reducers: case.reducers,
        output_replication: 1,
        splittable: true,
        plan: case.plan.as_ref(),
        slots: SlotConfig {
            map: case.slots,
            reduce: case.slots,
        },
        kernel: PlacementKernel::Default,
        task_retries: case.task_retries,
        tracer: &tracer,
        cause: None,
        tenant: None,
    };
    let mut tally = JobTally::default();
    let result = run_job(&mut fake, &shape, &mut tally);
    let count = |reduce: bool| {
        (fake.attempts.iter())
            .filter(|(t, _)| matches!(t, Task::Reduce(..)) == reduce)
            .map(|(_, &n)| u64::from(n))
            .sum::<u64>()
    };
    Ran {
        result,
        tally,
        charged: fake.charged,
        attempts: count(false) + count(true),
        reduce_attempts: count(true),
        shuffles: fake.shuffles,
        waves: fake.waves,
        crashes: fake.crashes,
        torn: fake.torn,
        task_faults: fake.task_faults,
        trace: fake.trace,
        world: fake.world,
        spans: {
            let mut spans = tracer.snapshot().spans;
            spans.sort_by_key(|s| s.id);
            spans
        },
    }
}

/// The spans of `kind`.
fn of_kind<'a>(spans: &'a [Span], kind: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.kind.name() == kind)
}

fn point(draw: u8) -> TriggerPoint {
    let wave = u32::from(draw / 5);
    match draw % 5 {
        0 => TriggerPoint::JobStart,
        1 => TriggerPoint::MidMapWave(wave),
        2 => TriggerPoint::AfterMapWave(wave),
        3 => TriggerPoint::MidReduceWave(wave),
        _ => TriggerPoint::AfterReduceWave(wave),
    }
}

/// Shape draws: nodes, blocks, reducers, slots per node, task retries,
/// shuffle attempts.
type ShapeDraw = (u32, usize, u32, u32, u32, u32);
/// A task-fault draw: map or reduce, wave, task, attempt, split, kind.
type TaskDraw = (bool, u32, u32, u32, u32, u8);

/// Builds one case from its draws.
fn case(
    (nodes, blocks, reducers, slots, task_retries, shuffle_attempts): ShapeDraw,
    (recompute, split, targets): (bool, u32, Vec<u32>),
    holder_draws: &[(u32, u32, bool)],
    stored: &[(u32, u8)],
    node_events: &[(u8, u32, bool)],
    task_events: &[TaskDraw],
) -> Case {
    let blocks_holders: Vec<Vec<u32>> = holder_draws[..blocks]
        .iter()
        .map(|&(a, b, two)| {
            let mut h = vec![a % nodes];
            if two && b % nodes != a % nodes {
                h.push(b % nodes);
            }
            h
        })
        .collect();
    let plan = recompute.then(|| RecomputePlan::new(targets.iter().map(|&p| p % reducers), split));
    // A recomputation finds some outputs stored, some stale (read from
    // an older input version), some missing.
    let map_out = stored[..blocks]
        .iter()
        .map(|&(n, kind)| match kind {
            0 if recompute => Some((n % nodes, 1)),
            1 if recompute => Some((n % nodes, 0)),
            _ => None,
        })
        .collect();
    let node_event = |&(p, n, crash): &(u8, u32, bool)| {
        let n = n % nodes;
        let event = if crash {
            NodeEvent::Crash(n)
        } else {
            NodeEvent::Drain(n)
        };
        (point(p), event)
    };
    let task_fault = |&(map, wave, task, attempt, split, kind): &TaskDraw| {
        let (phase, task, fault) = if map {
            let task = Task::Map(task as usize % blocks);
            (Phase::Map, task, TaskFault::Fail)
        } else {
            let fault = match kind {
                0 | 1 => TaskFault::Fail,
                2 => TaskFault::Flake(1),
                3 => TaskFault::Flake(3),
                4 => TaskFault::Corrupt,
                _ => TaskFault::Torn,
            };
            let task = Task::Reduce(task % reducers, split % 3);
            (Phase::Reduce, task, fault)
        };
        ((phase, wave, task, attempt), fault)
    };
    Case {
        world: World {
            membership: Membership::uniform(nodes),
            blocks: blocks_holders,
            map_out,
            parts: vec![BTreeMap::new(); reducers as usize],
        },
        plan,
        reducers,
        slots,
        task_retries,
        shuffle_attempts,
        script: Script {
            nodes: node_events.iter().map(node_event).collect(),
            tasks: task_events.iter().map(task_fault).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_job_script_ends_bounded_complete_or_typed(
        shape in (2u32..=5, 1usize..=6, 1u32..=4, 1u32..=2, 0u32..=3, 1u32..=3),
        plan in (any::<bool>(), 1u32..=3, prop::collection::vec(0u32..4, 1..=4)),
        holders in prop::collection::vec((0u32..64, 0u32..64, any::<bool>()), 6),
        stored in prop::collection::vec((0u32..64, 0u8..3), 6),
        node_events in prop::collection::vec((0u8..15, 0u32..64, any::<bool>()), 0..=3),
        task_events in prop::collection::vec(
            (any::<bool>(), 0u32..4, 0u32..6, 0u32..3, 0u32..4, 0u8..6),
            0..=8,
        ),
    ) {
        let case = case(shape, plan, &holders, &stored, &node_events, &task_events);
        let ran = run(&case);
        let (m, r) = (case.world.blocks.len() as u64, u64::from(case.reducers));
        let split = u64::from(case.plan.as_ref().map_or(1, RecomputePlan::split_factor));
        let tasks = m + r * split;
        let retries = u64::from(case.task_retries);
        let (crashes, faults) = (u64::from(ran.crashes), u64::from(ran.task_faults));
        let capacity = u64::from(case.world.membership.len() as u32 * case.slots);

        // Termination: successes are bounded by the tasks plus what
        // crashes and faults undo; failures by the charged budget, the
        // faults, and one wave of missing shuffles per crash.
        let bound = tasks * (1 + retries + crashes + faults) + 1 + faults + crashes * capacity;
        prop_assert!(ran.attempts <= bound, "{} attempts > {bound}: {case:?}", ran.attempts);
        prop_assert!(u64::from(ran.waves) <= bound, "{} waves > {bound}", ran.waves);
        let shuffle_bound = ran.reduce_attempts * u64::from(case.shuffle_attempts);
        prop_assert!(ran.shuffles <= shuffle_bound, "{} shuffles > {shuffle_bound}", ran.shuffles);
        // A wave that ends the run is not counted by the machine.
        let counted = ran.tally.map_waves + ran.tally.reduce_waves;
        let uncounted = u32::from(ran.result.is_err() && ran.waves > counted);
        prop_assert_eq!(ran.waves, counted + uncounted, "waves: {:?}", case);

        // Charging: nobody exceeds the budget, and whoever reaches one
        // past it ends the run.
        let over = ran.charged.values().any(|&n| n > case.task_retries);
        prop_assert!(ran.charged.values().all(|&n| n <= case.task_retries + 1));
        if over {
            prop_assert!(
                matches!(ran.result, Err(Error::RecoveryExhausted { job: JobId(1), .. })),
                "{:?}", ran.result
            );
        }

        match &ran.result {
            Ok(()) => {
                // Complete output: every target partition written by
                // all its tasks and readable, every mapper's output
                // stored.
                let w = &ran.world;
                let targets: Vec<u32> = match &case.plan {
                    None => (0..case.reducers).collect(),
                    Some(plan) => plan.partitions.iter().map(|p| p.raw()).collect(),
                };
                for p in targets {
                    let splits = &w.parts[p as usize];
                    prop_assert_eq!(splits.len() as u64, split, "partition {} of {:?}", p, case);
                    let readable = splits.values().all(|h| h.iter().any(|&n| w.alive(n)));
                    prop_assert!(readable, "partition {} lost", p);
                }
                prop_assert!(w.map_out.iter().all(Option::is_some));
                prop_assert!(!over);
            }
            Err(Error::JobInputLost { .. } | Error::NoLiveNodes) => {}
            Err(Error::RecoveryExhausted { .. }) => prop_assert!(over),
            Err(e) => prop_assert!(false, "untyped ending {e}"),
        }

        // The machine's spans: one run, one wave span per wave run, one
        // fault per node event that fired, one loss per crash.
        let runs: Vec<&Span> = of_kind(&ran.spans, "JobRun").collect();
        prop_assert_eq!(runs.len(), 1);
        let run_span = runs[0].id;
        let ok = matches!(runs[0].kind, SpanKind::JobRun { ok, .. } if ok == ran.result.is_ok());
        prop_assert!(ok, "{:?}", runs[0]);
        prop_assert_eq!(of_kind(&ran.spans, "Wave").count() as u32, ran.waves);
        let fired = ran.trace.iter().filter(|t| t.contains("Node")).count();
        prop_assert_eq!(of_kind(&ran.spans, "Fault").count(), fired);
        let losses: Vec<&Span> = of_kind(&ran.spans, "Loss").collect();
        prop_assert_eq!(losses.len() as u32, ran.crashes);
        let uncaused = losses.iter().filter(|l| l.cause.is_none()).count() as u32;
        prop_assert_eq!(uncaused, ran.torn, "only a torn writer's loss has no fault");
        for loss in losses.iter().filter(|l| l.cause.is_some()) {
            let fault = ran.spans.iter().find(|s| Some(s.id) == loss.cause).unwrap();
            prop_assert!(matches!(fault.kind, SpanKind::Fault { .. }), "{:?}", fault);
            prop_assert_eq!(fault.node, loss.node);
        }
        prop_assert_eq!(ran.tally.last_loss, losses.last().map(|l| l.id));
        let outside = ran.spans.iter().filter(|s| s.id != run_span && s.parent != Some(run_span));
        prop_assert_eq!(outside.count(), 0, "every span sits in the run");

        // Replay: the same script runs the same way.
        let again = run(&case);
        prop_assert_eq!(&again.trace, &ran.trace, "replayed trace");
        prop_assert_eq!(&again.result, &ran.result, "replayed result");
        prop_assert_eq!(again.tally, ran.tally, "replayed tally");
    }
}

/// A mapper that fails on every attempt is charged until its budget
/// runs out: the run ends in `RecoveryExhausted` after exactly
/// `task_retries + 1` attempts of it, instead of spinning.
#[test]
fn a_mapper_that_always_fails_exhausts_its_budget() {
    let tasks = (0..10)
        .map(|attempt| {
            (
                (Phase::Map, attempt, Task::Map(0), attempt),
                TaskFault::Fail,
            )
        })
        .collect();
    let case = Case {
        world: World {
            membership: Membership::uniform(2),
            blocks: vec![vec![0]],
            map_out: vec![None],
            parts: vec![BTreeMap::new()],
        },
        plan: None,
        reducers: 1,
        slots: 1,
        task_retries: 2,
        shuffle_attempts: 1,
        script: Script {
            nodes: Vec::new(),
            tasks,
        },
    };
    let ran = run(&case);
    assert!(
        matches!(
            ran.result,
            Err(Error::RecoveryExhausted { attempts: 3, .. })
        ),
        "{:?}",
        ran.result
    );
    assert_eq!(ran.attempts, 3);
}

/// A crash after the reduce wave takes a written partition: the damage
/// re-check clears it and its reducer runs again on a survivor, so the
/// run still ends with its output whole.
#[test]
fn a_partition_lost_after_its_wave_is_re_reduced() {
    let case = Case {
        world: World {
            membership: Membership::uniform(2),
            blocks: vec![vec![0, 1]],
            map_out: vec![None],
            parts: vec![BTreeMap::new(); 2],
        },
        plan: None,
        reducers: 2,
        slots: 1,
        task_retries: 1,
        shuffle_attempts: 1,
        script: Script {
            nodes: vec![(TriggerPoint::AfterReduceWave(0), NodeEvent::Crash(1))],
            tasks: BTreeMap::new(),
        },
    };
    let ran = run(&case);
    assert_eq!(ran.result, Ok(()));
    assert!(
        ran.trace.iter().any(|t| t.starts_with("clear")),
        "{:?}",
        ran.trace
    );
    assert!(ran
        .world
        .parts
        .iter()
        .all(|p| p.values().all(|h| h == &[0])));
}
