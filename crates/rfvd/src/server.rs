//! The `rfvd` server: the poll-multiplexed connection layer, the
//! durable job spool, and the worker runners that execute jobs on a
//! persistent [`rfv_bench::pool::Pool`].
//!
//! ## Execution model
//!
//! * A single **multiplexer** thread ([`crate::mux`]) owns the
//!   listener and every connection: nonblocking sockets driven by one
//!   `poll(2)` loop, so a thousand idle clients cost file descriptors,
//!   not thread stacks, and a closed connection is reaped the moment
//!   it closes. Validation is complete *before* enqueueing: spec
//!   parse, machine lookup, and [`rfv_sim::SimConfig::validate`] all
//!   happen in [`validate_submit`], so a malformed job is a typed
//!   error to its submitter and never reaches a worker.
//! * When a spool directory is configured, every accepted job is
//!   journaled ([`crate::persist`]) *before* its submitter hears
//!   `Accepted`; a restarted daemon replays unfinished records, so a
//!   crash loses no accepted work.
//! * `jobs` **worker runners** on a dedicated pool pop jobs and drive
//!   them through [`SlicedSim`] in bounded cycle slices. Between
//!   slices a normal-priority job checks for waiting high-priority
//!   work and, if any, snapshots itself into a [`rfv_sim::Checkpoint`]
//!   (also journaled to the spool) and goes back to the queue front —
//!   checkpoint-backed preemption. Slicing and preemption are
//!   invisible in results: the stats JSON of a preempted run is
//!   byte-identical to an uninterrupted one.
//!
//! ## Shutdown
//!
//! [`ServerHandle::begin_drain`] (wired to SIGTERM in the binary)
//! stops the acceptor, makes new submissions fail with
//! [`ErrorCode::ShuttingDown`], lets queued and running jobs finish,
//! and then [`ServerHandle::join`] reaps the workers and the
//! multiplexer — which exits only after every accepted job's reply
//! has been written.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rfv_bench::harness::machine_config;
use rfv_bench::pool::Pool;
use rfv_sim::{Checkpoint, SimConfig, SlicedSim};

use crate::cache::{CachedKernel, CompileCache};
use crate::chaos::{
    ChaosInjector, ChaosPlan, ChaosSockIo, ChaosSpoolIo, RealSockIo, RealSpoolIo, SockIo, SpoolIo,
};
use crate::mux::{wake_pair, Mux, Waker};
use crate::persist::Spool;
use crate::proto::{
    CacheOutcome, ErrorCode, JobRequest, JobResult, Priority, ProtoError, Response, ServerStats,
};
use crate::queue::{Job, JobQueue, ReplyFn};
use crate::result_stats_json;
use crate::spec::JobSpec;

/// How a server is stood up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent job runners.
    pub jobs: usize,
    /// Queue capacity beyond the running jobs.
    pub queue_depth: usize,
    /// Cycles per execution slice; preemption is only possible at
    /// slice boundaries. `0` disables slicing (jobs run to completion
    /// in one slice and are never preempted).
    pub max_cycles_per_slice: u64,
    /// Compile-cache capacity in entries; `0` means unbounded. When
    /// full, the least-recently-used kernel is evicted.
    pub cache_entries: usize,
    /// Directory for the durable job spool; `None` disables
    /// persistence (accepted jobs die with the process).
    pub spool_dir: Option<PathBuf>,
    /// Completed/quarantined spool records to retain as dedupe
    /// memory before compaction prunes the oldest; `0` = unbounded.
    pub spool_max_records: usize,
    /// Environment fault-injection plan (empty in production).
    pub chaos: ChaosPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 2,
            queue_depth: 64,
            max_cycles_per_slice: 50_000,
            cache_entries: 0,
            spool_dir: None,
            spool_max_records: 4096,
            chaos: ChaosPlan::none(),
        }
    }
}

/// What a nonce is currently known to be.
pub(crate) enum NonceEntry {
    /// The job is queued or running; attached waiters get a copy of
    /// the outcome when it finishes.
    Inflight(Vec<ReplyFn>),
    /// The job finished; the recorded reply is replayed verbatim.
    /// Boxed so each table slot stays three words wide: a `Response`
    /// is ~170 bytes inline, and the table holds thousands of entries.
    Done(Box<Response>),
}

/// In-memory idempotency index, FIFO-bounded on completed entries.
/// Mirrors the spool's retained `.done` records (which re-seed it
/// after a restart) but also covers spool-less daemons.
pub(crate) struct NonceTable {
    entries: HashMap<u64, NonceEntry>,
    done_order: VecDeque<u64>,
    cap: usize,
}

impl NonceTable {
    fn new(cap: usize) -> NonceTable {
        NonceTable {
            entries: HashMap::new(),
            done_order: VecDeque::new(),
            cap: cap.max(1),
        }
    }
}

/// The dedupe decision for one submission.
pub(crate) enum NonceGate {
    /// Never seen: run the job (the waiter is handed back to become
    /// its reply).
    New(ReplyFn),
    /// Seen and finished: replay this recorded reply, run nothing.
    Replayed(Response),
    /// Seen and still in flight: the waiter was attached to the
    /// running job; it will be answered when the job finishes.
    Attached,
}

/// Consecutive spool-write failures that trip the disk brownout.
const DISK_FAIL_THRESHOLD: u32 = 3;

pub(crate) struct ServerState {
    pub(crate) queue: JobQueue,
    pub(crate) cache: CompileCache,
    pub(crate) spool: Option<Spool>,
    pub(crate) slice_cycles: u64,
    pub(crate) draining: AtomicBool,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) preemptions: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) conns_open: AtomicU64,
    pub(crate) conns_total: AtomicU64,
    pub(crate) replayed: AtomicU64,
    pub(crate) deduped: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) brownouts: AtomicU64,
    pub(crate) nonces: Mutex<NonceTable>,
    pub(crate) disk_fail_streak: AtomicU32,
    pub(crate) disk_brownout: AtomicBool,
    pub(crate) queue_brownout: AtomicBool,
}

impl ServerState {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            queued: self.queue.len() as u64,
            active: self.active.load(Ordering::Relaxed),
            cache_evictions: self.cache.evictions(),
            cache_entries: self.cache.len() as u64,
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_total: self.conns_total.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            brownouts: self.brownouts.load(Ordering::Relaxed),
            brownout: u64::from(self.in_brownout()),
            spool_records: self.spool.as_ref().map_or(0, Spool::records),
            spool_compactions: self.spool.as_ref().map_or(0, Spool::compactions),
        }
    }

    /// Journals an accepted submission when persistence is on, and
    /// feeds the disk-brownout failure streak either way.
    pub(crate) fn journal_accept(&self, req: &JobRequest) -> io::Result<Option<u64>> {
        match &self.spool {
            Some(spool) => {
                let result = spool.journal(req);
                self.note_spool_write(result.is_ok());
                result.map(Some)
            }
            None => Ok(None),
        }
    }

    /// Erases the spool record of a submission the queue bounced.
    pub(crate) fn forget_spooled(&self, id: Option<u64>) {
        if let (Some(spool), Some(id)) = (&self.spool, id) {
            spool.forget(id);
        }
    }

    // ------------------------------------------------ nonce dedupe

    /// Routes a submission through the idempotency index. Only the
    /// multiplexer thread calls this, so lookup and registration
    /// cannot interleave with another submission of the same nonce.
    pub(crate) fn nonce_gate(&self, nonce: u64, waiter: ReplyFn) -> NonceGate {
        if nonce == 0 {
            return NonceGate::New(waiter);
        }
        let mut table = self.nonces.lock().expect("nonce lock");
        match table.entries.get_mut(&nonce) {
            None => NonceGate::New(waiter),
            Some(NonceEntry::Done(response)) => {
                self.deduped.fetch_add(1, Ordering::Relaxed);
                NonceGate::Replayed(Response::clone(response))
            }
            Some(NonceEntry::Inflight(waiters)) => {
                self.deduped.fetch_add(1, Ordering::Relaxed);
                waiters.push(waiter);
                NonceGate::Attached
            }
        }
    }

    /// Marks a nonce in flight. Must happen *before* the job is
    /// queued: a worker may finish it the instant it is submitted,
    /// and `nonce_finish` needs the entry to transition.
    pub(crate) fn nonce_register(&self, nonce: u64) {
        if nonce == 0 {
            return;
        }
        let mut table = self.nonces.lock().expect("nonce lock");
        table
            .entries
            .insert(nonce, NonceEntry::Inflight(Vec::new()));
    }

    /// Rolls back a registration whose submission the queue bounced.
    /// Returns any waiters that attached in the meantime so the
    /// caller can answer them with the same rejection.
    pub(crate) fn nonce_unregister(&self, nonce: u64) -> Vec<ReplyFn> {
        if nonce == 0 {
            return Vec::new();
        }
        let mut table = self.nonces.lock().expect("nonce lock");
        match table.entries.remove(&nonce) {
            Some(NonceEntry::Inflight(waiters)) => waiters,
            Some(done @ NonceEntry::Done(_)) => {
                // the job somehow finished; keep the record
                table.entries.insert(nonce, done);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Records a nonce's final reply and returns the waiters to
    /// answer. FIFO-evicts the oldest completed entries past the cap.
    pub(crate) fn nonce_finish(&self, nonce: u64, response: &Response) -> Vec<ReplyFn> {
        if nonce == 0 {
            return Vec::new();
        }
        let mut table = self.nonces.lock().expect("nonce lock");
        let waiters = match table
            .entries
            .insert(nonce, NonceEntry::Done(Box::new(response.clone())))
        {
            Some(NonceEntry::Inflight(waiters)) => waiters,
            _ => Vec::new(),
        };
        table.done_order.push_back(nonce);
        while table.done_order.len() > table.cap {
            let oldest = table.done_order.pop_front().expect("non-empty");
            // an evicted nonce may have been re-registered in flight;
            // only completed entries are evictable
            if matches!(table.entries.get(&oldest), Some(NonceEntry::Done(_))) {
                table.entries.remove(&oldest);
            }
        }
        waiters
    }

    // --------------------------------------------------- brownout

    /// Feeds the disk health tracker: [`DISK_FAIL_THRESHOLD`]
    /// consecutive spool-write failures enter the disk brownout; the
    /// first success (real write or probe) exits it.
    pub(crate) fn note_spool_write(&self, ok: bool) {
        if ok {
            self.disk_fail_streak.store(0, Ordering::Relaxed);
            self.disk_brownout.store(false, Ordering::SeqCst);
        } else {
            let streak = self.disk_fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= DISK_FAIL_THRESHOLD && !self.disk_brownout.swap(true, Ordering::SeqCst) {
                self.brownouts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Probes the spool while in disk brownout; a successful probe
    /// heals it. Driven from the multiplexer's idle ticks.
    pub(crate) fn spool_probe(&self) {
        if let Some(spool) = &self.spool {
            if self.disk_brownout.load(Ordering::SeqCst) {
                self.note_spool_write(spool.probe().is_ok());
            }
        }
    }

    /// Enters the queue brownout (called on a full-queue rejection).
    pub(crate) fn enter_queue_brownout(&self) {
        if !self.queue_brownout.swap(true, Ordering::SeqCst) {
            self.brownouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Exits the queue brownout once the backlog has drained to half
    /// capacity (hysteresis, so the daemon does not flap at the
    /// boundary).
    pub(crate) fn update_queue_brownout(&self) {
        if self.queue_brownout.load(Ordering::SeqCst)
            && self.queue.len() <= self.queue.capacity() / 2
        {
            self.queue_brownout.store(false, Ordering::SeqCst);
        }
    }

    pub(crate) fn in_disk_brownout(&self) -> bool {
        self.disk_brownout.load(Ordering::SeqCst)
    }

    pub(crate) fn in_queue_brownout(&self) -> bool {
        self.queue_brownout.load(Ordering::SeqCst)
    }

    pub(crate) fn in_brownout(&self) -> bool {
        self.in_disk_brownout() || self.in_queue_brownout()
    }
}

/// Everything [`validate_submit`] proves about a submission before it
/// may become a [`Job`].
pub(crate) struct ValidSubmit {
    pub(crate) spec: JobSpec,
    pub(crate) config: SimConfig,
    pub(crate) release_flags: bool,
}

/// Validates a submission end to end: spec parse, machine lookup,
/// overrides, config validation. All rejection paths are typed.
pub(crate) fn validate_submit(req: &JobRequest) -> Result<ValidSubmit, ProtoError> {
    let spec = match JobSpec::parse(&req.spec) {
        Ok(s) => s,
        Err(e) => return Err(ProtoError::new(ErrorCode::UnknownWorkload, e)),
    };
    let Some(mut config) = machine_config(&req.machine) else {
        return Err(ProtoError::new(
            ErrorCode::UnknownMachine,
            format!("unknown machine {:?}", req.machine),
        ));
    };
    if req.num_sms > 0 {
        config.num_sms = req.num_sms as usize;
    }
    if let Some(max_cycles) = req.max_cycles {
        config.max_cycles = max_cycles;
    }
    if let Err(e) = config.validate() {
        return Err(ProtoError::new(ErrorCode::BadConfig, e));
    }
    let release_flags = config.regfile.policy.uses_release_flags();
    Ok(ValidSubmit {
        spec,
        config,
        release_flags,
    })
}

/// A running server. Dropping the handle without [`ServerHandle::join`]
/// detaches the threads (fine for a process about to exit; tests
/// should join).
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    chaos: Arc<ChaosInjector>,
    mux: Option<JoinHandle<()>>,
    pool: Option<Pool>,
    waker: Waker,
}

/// Binds `config.addr`, replays any unfinished spool records, and
/// starts `config.jobs` worker runners plus the multiplexer thread.
///
/// # Errors
///
/// The bind or spool-open error, verbatim.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = crate::mux::bind_reusable(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let chaos = Arc::new(ChaosInjector::new(config.chaos));
    let chaos_armed = !config.chaos.is_empty();
    let spool = match &config.spool_dir {
        Some(dir) => {
            let io: Box<dyn SpoolIo> = if chaos_armed {
                Box::new(ChaosSpoolIo::new(Arc::clone(&chaos)))
            } else {
                Box::new(RealSpoolIo)
            };
            Some(Spool::open_with(dir, io, config.spool_max_records)?)
        }
        None => None,
    };
    let nonce_cap = if config.spool_max_records > 0 {
        config.spool_max_records
    } else {
        65_536
    };
    let state = Arc::new(ServerState {
        queue: JobQueue::new(config.queue_depth),
        cache: CompileCache::with_capacity(config.cache_entries),
        spool,
        slice_cycles: config.max_cycles_per_slice,
        draining: AtomicBool::new(false),
        submitted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        preemptions: AtomicU64::new(0),
        active: AtomicU64::new(0),
        conns_open: AtomicU64::new(0),
        conns_total: AtomicU64::new(0),
        replayed: AtomicU64::new(0),
        deduped: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        brownouts: AtomicU64::new(0),
        nonces: Mutex::new(NonceTable::new(nonce_cap)),
        disk_fail_streak: AtomicU32::new(0),
        disk_brownout: AtomicBool::new(false),
        queue_brownout: AtomicBool::new(false),
    });

    replay_spool(&state)?;

    let pool = Pool::new(config.jobs.max(1));
    for _ in 0..config.jobs.max(1) {
        let state = Arc::clone(&state);
        pool.spawn(move || worker_loop(&state));
    }

    let (waker, wake_rx) = wake_pair()?;
    let (completions_tx, completions) = channel();
    let sock_io: Box<dyn SockIo> = if chaos_armed {
        Box::new(ChaosSockIo::new(Arc::clone(&chaos)))
    } else {
        Box::new(RealSockIo)
    };
    let mux = {
        let mux = Mux::new(
            listener,
            Arc::clone(&state),
            completions,
            completions_tx,
            waker.clone(),
            wake_rx,
            sock_io,
        );
        std::thread::Builder::new()
            .name("rfvd-mux".into())
            .spawn(move || mux.run())
            .expect("spawn multiplexer")
    };

    Ok(ServerHandle {
        local_addr,
        state,
        chaos,
        mux: Some(mux),
        pool: Some(pool),
        waker,
    })
}

/// Re-enqueues every accepted-but-unfinished job found in the spool.
/// Replayed jobs have no submitter to answer; their reply is a no-op
/// and their durable outcome is the `.done` record the worker writes.
fn replay_spool(state: &Arc<ServerState>) -> io::Result<()> {
    let Some(spool) = &state.spool else {
        return Ok(());
    };
    // Seed the nonce table from retained completed records first:
    // a client retrying across the restart gets the recorded reply,
    // not a second run. (`completed()` also quarantines torn `.done`
    // records, reviving their jobs for the replay pass below.)
    for done in spool.completed()? {
        if done.request.nonce != 0 {
            let _ = state.nonce_finish(done.request.nonce, &done.response);
        }
    }
    for spooled in spool.replay()? {
        let valid = match validate_submit(&spooled.request) {
            Ok(v) => v,
            Err(e) => {
                // accepted by a previous life but no longer runnable
                // (e.g. a machine table change): record the failure so
                // the job is done, not lost in a replay loop
                let _ = spool.record_done(spooled.id, &Response::Error(e));
                state.failed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        // the checkpoint is advisory: a decode failure just means the
        // job reruns from cycle 0 (same final stats either way)
        let preemptions = spooled.checkpoint.as_ref().map_or(0, |(count, _)| *count);
        let resume = spooled
            .checkpoint
            .as_ref()
            .and_then(|(_, bytes)| Checkpoint::from_bytes(bytes).ok());
        let job = Job {
            request: spooled.request,
            spec: valid.spec,
            config: valid.config,
            release_flags: valid.release_flags,
            reply: Box::new(|_| {}),
            resume,
            preemptions,
            compiled: None,
            cache: None,
            spool_id: Some(spooled.id),
            spool_restored: true,
        };
        state.nonce_register(job.request.nonce);
        state.queue.restore(job);
        state.submitted.fetch_add(1, Ordering::Relaxed);
        state.replayed.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts a graceful drain: stop accepting, reject new submits
    /// with [`ErrorCode::ShuttingDown`], finish queued and running
    /// jobs. Idempotent.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.queue.drain();
        self.waker.wake();
    }

    /// A local counter snapshot (same numbers [`crate::proto::Request::Stats`]
    /// serves remotely).
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// The server's chaos injector: tests scale the storm up and down
    /// at runtime ([`ChaosInjector::set_scale`]) and read per-kind
    /// fire counts.
    pub fn chaos(&self) -> Arc<ChaosInjector> {
        Arc::clone(&self.chaos)
    }

    /// Drains (if not already draining) and reaps every thread: the
    /// worker runners — which finish all queued jobs first — and then
    /// the multiplexer, which exits once every accepted job's reply
    /// is written. Returns the final counter snapshot.
    pub fn join(mut self) -> ServerStats {
        self.begin_drain();
        // dropping the pool joins the workers, which drain the queue
        // first — every outcome reaches the multiplexer before this
        // returns
        drop(self.pool.take());
        self.waker.wake();
        if let Some(mux) = self.mux.take() {
            let _ = mux.join();
        }
        self.state.stats()
    }
}

impl Drop for ServerHandle {
    /// A handle dropped without [`ServerHandle::join`] (early return,
    /// panic unwind) still begins a drain: the pool's own `Drop` joins
    /// the worker runners, which only exit once the queue reports
    /// drained — without the flag, that join would block forever. The
    /// multiplexer sees the flag and winds itself down.
    fn drop(&mut self) {
        self.begin_drain();
    }
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        state.active.fetch_add(1, Ordering::SeqCst);
        let preempted = run_job(state, job);
        state.active.fetch_sub(1, Ordering::SeqCst);
        if let Some(job) = preempted {
            state.queue.requeue_preempted(job);
        }
    }
}

fn sim_failed(e: impl std::fmt::Display) -> ProtoError {
    ProtoError::new(ErrorCode::SimFailed, e.to_string())
}

/// Delivers a job's final outcome: the spool's `.done` record first
/// (the durable reply — for a restored job, the only one), then the
/// nonce table's waiters, then the reply callback.
fn finish_job(state: &ServerState, job: Job, outcome: Result<JobResult, ProtoError>) {
    let response = match &outcome {
        Ok(result) => Response::Result(result.clone()),
        Err(e) => Response::Error(e.clone()),
    };
    if let (Some(spool), Some(id)) = (&state.spool, job.spool_id) {
        state.note_spool_write(spool.record_done(id, &response).is_ok());
    }
    for waiter in state.nonce_finish(job.request.nonce, &response) {
        waiter(outcome.clone());
    }
    (job.reply)(outcome);
}

/// Runs one job for (at most) one scheduling quantum. `Some(job)`
/// means it was preempted at a slice boundary and must be requeued;
/// `None` means a reply (result or error) was delivered.
fn run_job(state: &Arc<ServerState>, mut job: Job) -> Option<Job> {
    // compile, consulting the cache unless the job opted out; resumed
    // jobs carry their binary and skip this entirely. A cache hit
    // never even builds the source kernel: the lookup key is derived
    // from the spec itself.
    if job.compiled.is_none() {
        let build = || CachedKernel::build(&job.spec.build_kernel(), job.release_flags);
        let (compiled, outcome) = if job.request.use_cache {
            let key = job.spec.cache_key(job.release_flags);
            match state.cache.get_or_build(key, build) {
                Ok((c, true)) => (c, CacheOutcome::Hit),
                Ok((c, false)) => (c, CacheOutcome::Miss),
                Err(e) => {
                    state.failed.fetch_add(1, Ordering::Relaxed);
                    finish_job(state, job, Err(sim_failed(e)));
                    return None;
                }
            }
        } else {
            match build() {
                Ok(c) => (Arc::new(c), CacheOutcome::Bypass),
                Err(e) => {
                    state.failed.fetch_add(1, Ordering::Relaxed);
                    finish_job(state, job, Err(sim_failed(e)));
                    return None;
                }
            }
        };
        job.compiled = Some(compiled);
        job.cache = Some(outcome);
    }
    let cached = Arc::clone(job.compiled.as_ref().expect("compiled above"));
    let prog = Arc::clone(&cached.predecoded);

    let sim = match job.resume.take() {
        Some(checkpoint) => {
            match SlicedSim::resume_with_predecoded(
                &cached.compiled,
                &job.config,
                &checkpoint,
                Arc::clone(&prog),
            ) {
                Ok(s) => Ok(s),
                // a spool-restored checkpoint is advisory: rerun from
                // scratch rather than fail the job (slicing is
                // invisible in stats, so the result is identical)
                Err(_) if job.spool_restored => {
                    SlicedSim::with_predecoded(&cached.compiled, &job.config, &[], 0, prog)
                }
                Err(e) => Err(e),
            }
        }
        None => SlicedSim::with_predecoded(&cached.compiled, &job.config, &[], 0, prog),
    };
    let mut sim = match sim {
        Ok(s) => s,
        Err(e) => {
            state.failed.fetch_add(1, Ordering::Relaxed);
            finish_job(state, job, Err(sim_failed(e)));
            return None;
        }
    };
    let slice = if state.slice_cycles == 0 {
        u64::MAX
    } else {
        state.slice_cycles
    };
    loop {
        match sim.advance(slice) {
            Err(e) => {
                state.failed.fetch_add(1, Ordering::Relaxed);
                finish_job(state, job, Err(sim_failed(e)));
                return None;
            }
            Ok(true) => break,
            Ok(false) => {
                if job.request.priority == Priority::Normal && state.queue.has_high_waiting() {
                    let checkpoint = sim.checkpoint();
                    job.preemptions += 1;
                    // journal the snapshot so a crash mid-run resumes
                    // from this slice boundary instead of cycle 0
                    if let (Some(spool), Some(id)) = (&state.spool, job.spool_id) {
                        let _ =
                            spool.record_checkpoint(id, job.preemptions, &checkpoint.to_bytes());
                    }
                    job.resume = Some(checkpoint);
                    state.preemptions.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
        }
    }
    match sim.finish() {
        Ok(run) => {
            let stats_json = result_stats_json(&run.result, job.config.num_sms);
            let result = JobResult {
                cycles: run.result.cycles,
                instrs: run.result.total(|s| s.instrs_issued),
                cache: job.cache.unwrap_or(CacheOutcome::Bypass),
                preemptions: job.preemptions,
                stats_json,
            };
            state.completed.fetch_add(1, Ordering::Relaxed);
            finish_job(state, job, Ok(result));
        }
        Err(e) => {
            state.failed.fetch_add(1, Ordering::Relaxed);
            finish_job(state, job, Err(sim_failed(e)));
        }
    }
    None
}
