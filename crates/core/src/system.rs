//! The assembled HBM system and its cycle-driven simulation loop.

use hbm_axi::{ClockDomain, Completion, Cycle, MasterId, PortId, Tracer, Transaction};
use hbm_fabric::{
    DirectFabric, FabricConfig, FabricStats, Interconnect, Retry, SwitchShard, XilinxFabric,
};
use hbm_mao::{MaoConfig, MaoFabric};
use hbm_mem::{BankPool, BanksViewMut, HbmConfig, MemStats, MemoryController};
use hbm_traffic::{BmTrafficGen, GenStats, Workload};
use serde::{Deserialize, Serialize};

use crate::probe::{Probe, ProbeConfig};
use crate::profile;

/// Overridable parameters of the Xilinx switch fabric, for what-if
/// studies (e.g. the lateral-bus-count ablation of DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XilinxTweaks {
    /// Lateral buses per direction between adjacent switches (stock: 2).
    pub lateral_buses: usize,
    /// Lateral bandwidth in beats per accelerator cycle (stock: 1.0).
    pub lateral_rate: f64,
    /// Dead beats per arbitration grant switch (stock: 2.0).
    pub dead_beats: f64,
}

impl Default for XilinxTweaks {
    fn default() -> XilinxTweaks {
        XilinxTweaks { lateral_buses: 2, lateral_rate: 1.0, dead_beats: 2.0 }
    }
}

/// Which interconnect connects masters to pseudo-channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricKind {
    /// The stock Xilinx segmented switch network.
    Xilinx,
    /// The Xilinx network with overridden fabric parameters.
    XilinxTweaked(XilinxTweaks),
    /// The Memory Access Optimizer.
    Mao(MaoConfig),
    /// A hypothetical 32×32 crossbar: the stock switch network built as
    /// one switch holding every master and pseudo-channel
    /// ([`FabricConfig::full_crossbar`]), so no lateral bus exists, with
    /// the stock fabric's contiguous address map, AXI ID stalls and
    /// round-robin grants (isolates the topology adaption from the MAO's
    /// other two).
    FullCrossbar,
    /// Direct 1:1 port mapping (single-channel only).
    Direct,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Accelerator clock.
    pub clock: ClockDomain,
    /// HBM geometry and timing.
    pub hbm: HbmConfig,
    /// Interconnect choice.
    pub fabric: FabricKind,
}

impl SystemConfig {
    /// The paper's measurement platform: XCVU37P HBM behind the stock
    /// Xilinx switch fabric at 300 MHz.
    pub fn xilinx() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Xilinx,
        }
    }

    /// The same platform with the MAO ("version four" of Table III)
    /// inserted in place of the switch fabric's lateral routing.
    pub fn mao() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Mao(MaoConfig::default()),
        }
    }

    /// A direct 1:1 system (ideal single-channel baseline).
    pub fn direct() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Direct,
        }
    }

    /// Same configuration at a different accelerator clock.
    pub fn at_clock(mut self, clock: ClockDomain) -> SystemConfig {
        self.clock = clock;
        self
    }

    /// The stock switch-fabric parameters for this platform, shared by
    /// the `Xilinx` and `XilinxTweaked` arms (the tweaks overlay it).
    fn xilinx_fabric_config(&self) -> FabricConfig {
        let mut fc = FabricConfig::xcvu37p();
        fc.port_capacity = self.hbm.pch_capacity;
        fc.num_switches = self.hbm.num_pch / fc.ports_per_switch;
        fc
    }

    fn build_fabric(&self) -> Box<dyn Interconnect> {
        match &self.fabric {
            FabricKind::Xilinx => Box::new(XilinxFabric::new(self.xilinx_fabric_config())),
            FabricKind::XilinxTweaked(t) => {
                let mut fc = self.xilinx_fabric_config();
                fc.lateral_buses = t.lateral_buses;
                fc.lateral_rate = t.lateral_rate;
                fc.dead_beats = t.dead_beats;
                Box::new(XilinxFabric::new(fc))
            }
            FabricKind::Mao(mc) => {
                let mut mc = *mc;
                mc.num_ports = self.hbm.num_pch;
                mc.num_masters = self.hbm.num_pch;
                mc.port_capacity = self.hbm.pch_capacity;
                Box::new(MaoFabric::new(mc))
            }
            FabricKind::FullCrossbar => Box::new(XilinxFabric::new(FabricConfig::full_crossbar(
                self.hbm.num_pch,
                self.hbm.pch_capacity,
            ))),
            FabricKind::Direct => {
                Box::new(DirectFabric::new(self.hbm.num_pch, self.hbm.pch_capacity, 4, 8))
            }
        }
    }
}

/// A producer/consumer of memory transactions attached to one master
/// port — either a synthetic [`BmTrafficGen`] or an accelerator engine
/// (see the `hbm-accel` crate).
///
/// Contract per cycle: the system calls [`poll`](TrafficSource::poll)
/// at most once; if the returned transaction is accepted by the
/// interconnect it calls [`accepted`](TrafficSource::accepted),
/// otherwise the source must return the *same* transaction on the next
/// poll (head-of-line retry). Delivered completions arrive via
/// [`completed`](TrafficSource::completed).
///
/// The wake-driven kernel (DESIGN.md §3.12) skips polls it can prove
/// idle: after a `poll` that returned nothing it sleeps until
/// [`next_event`](TrafficSource::next_event) or a completion, and after
/// a rejected offer until the fabric's retry hint or a completion. A
/// `poll` that returns nothing, or that repeats a rejected transaction,
/// must therefore be free of side effects.
pub trait TrafficSource {
    /// The head-of-line transaction to offer this cycle, if any.
    fn poll(&mut self, now: Cycle) -> Option<hbm_axi::Transaction>;

    /// The pending transaction was accepted by the interconnect.
    fn accepted(&mut self);

    /// A completion for this source was delivered. Implementations must
    /// panic on AXI ordering violations (they indicate simulator bugs).
    fn completed(&mut self, now: Cycle, txn: &hbm_axi::Transaction);

    /// Traffic statistics.
    fn stats(&self) -> &GenStats;

    /// Clears statistics (end of warm-up).
    fn reset_stats(&mut self);

    /// `true` when the source has nothing pending and nothing in flight.
    fn drained(&self) -> bool;

    /// A lower bound on the first cycle ≥ `now` at which
    /// [`poll`](TrafficSource::poll) could return a transaction, assuming
    /// no completion is delivered in the meantime. `None` means the
    /// source only wakes on a completion (or is done for good).
    ///
    /// The contract is one-sided: reporting earlier than the true next
    /// issue merely costs a no-op step, reporting later would skip real
    /// work. The default is the maximally conservative `Some(now)`;
    /// sources whose idle `poll` is side-effect free override it so the
    /// wake-driven kernel of [`HbmSystem::run`] can sleep them (see
    /// DESIGN.md §3.12).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Transactions issued but not yet completed, as seen by this source.
    /// Purely observational (feeds the time-series [`Probe`]); the default
    /// suits sources that do not track it.
    fn in_flight(&self) -> usize {
        0
    }

    /// `true` when every transaction this source will *ever* issue
    /// targets the pseudo-channel port with the source's own master
    /// index. Under such traffic no flit can cross a lateral bus, so the
    /// wake-driven kernel may sprint execution domains all the way to
    /// the deadline between barriers instead of re-synchronising every
    /// `sync_lag` cycles. The hint must be conservative: `false` is
    /// always safe, while a wrong `true` breaks cycle accuracy. The
    /// default is therefore `false`.
    fn port_affine(&self) -> bool {
        false
    }
}

impl TrafficSource for BmTrafficGen {
    fn poll(&mut self, now: Cycle) -> Option<hbm_axi::Transaction> {
        BmTrafficGen::poll(self, now)
    }

    fn accepted(&mut self) {
        BmTrafficGen::accepted(self)
    }

    fn completed(&mut self, now: Cycle, txn: &hbm_axi::Transaction) {
        BmTrafficGen::completed(self, now, txn).expect("AXI ordering violated — simulator bug")
    }

    fn stats(&self) -> &GenStats {
        BmTrafficGen::stats(self)
    }

    fn reset_stats(&mut self) {
        BmTrafficGen::reset_stats(self)
    }

    fn drained(&self) -> bool {
        BmTrafficGen::drained(self)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        BmTrafficGen::next_event(self, now)
    }

    fn in_flight(&self) -> usize {
        BmTrafficGen::in_flight(self)
    }

    fn port_affine(&self) -> bool {
        BmTrafficGen::port_affine(self)
    }
}

/// Amortises a domain's horizon over busy stretches.
///
/// Folding the horizon scans every wake in the domain, which is wasted
/// work while something is due every cycle. After each step the horizon
/// *confirmed*, the pacer grants an exponentially growing number of
/// "blind" steps (capped) before the next consultation. A blind step is
/// an ordinary [`Domain::step`], which visits only the components whose
/// wake has come, so it cannot change simulated behaviour; at worst it
/// spends up to [`Pacer::MAX_CREDIT`] cheap no-op cycles of an idle gap
/// before the next horizon skips the rest.
#[derive(Debug, Clone, Copy, Default)]
struct Pacer {
    credit: u32,
    burst: u32,
}

impl Pacer {
    const MAX_CREDIT: u32 = 64;

    /// Consumes one blind-step credit if available.
    fn take_credit(&mut self) -> bool {
        if self.credit > 0 {
            self.credit -= 1;
            true
        } else {
            false
        }
    }

    /// The horizon confirmed an immediate event: grow the blind burst.
    fn stepped(&mut self) {
        self.burst = (self.burst * 2).clamp(1, Self::MAX_CREDIT);
        self.credit = self.burst;
    }

    /// The horizon skipped ahead: traffic is sparse, re-check every step.
    fn skipped(&mut self) {
        self.burst = 0;
        self.credit = 0;
    }
}

/// The simulated system: traffic sources, interconnect, memory
/// controllers.
pub struct HbmSystem {
    cfg: SystemConfig,
    gens: Vec<Box<dyn TrafficSource>>,
    fabric: Box<dyn Interconnect>,
    mcs: Vec<MemoryController>,
    /// Bank row state for every pseudo-channel, structure-of-arrays (unit
    /// `p` belongs to controller `p`). Owned here rather than inside the
    /// controllers so the kernel can lend each execution domain its
    /// contiguous slice of units.
    banks: BankPool,
    /// Completions produced by a controller that could not yet enter the
    /// return network (per port).
    stuck: Vec<Option<Completion>>,
    /// Per source: the first cycle the wake-driven kernel polls it again.
    source_wake: Vec<Cycle>,
    /// Per source: ID-ordering stall retries the kernel skipped.
    stalls: Vec<StallCredit>,
    /// Per port: the first cycle the wake-driven kernel must visit it
    /// even without a request waiting or a completion stuck.
    port_wake: Vec<Cycle>,
    now: Cycle,
    /// Lifecycle tracer, when tracing is enabled (see
    /// [`enable_tracing`](HbmSystem::enable_tracing)), lent by `&mut` to
    /// each call that takes a stamp. `None` keeps every stamp site a
    /// single branch — the hot loop is unchanged.
    tracer: Option<Tracer>,
    /// Windowed time-series sampler, when attached.
    probe: Option<Probe>,
}

impl HbmSystem {
    /// Builds a system in which every master runs `workload`, optionally
    /// bounded to `max_txns` transactions per master.
    pub fn new(cfg: &SystemConfig, workload: Workload, max_txns: Option<u64>) -> HbmSystem {
        let n = cfg.hbm.num_pch;
        let sources = (0..n)
            .map(|m| {
                Box::new(BmTrafficGen::new(
                    MasterId(m as u16),
                    n,
                    cfg.hbm.pch_capacity,
                    workload,
                    max_txns,
                )) as Box<dyn TrafficSource>
            })
            .collect();
        HbmSystem::with_sources(cfg, sources)
    }

    /// Builds a heterogeneous system: one workload per master (the
    /// paper's motivation for global addressing is exactly such systems,
    /// where "data can often not be partitioned in a way that the memory
    /// access from all \[cores\] is optimal", §V).
    pub fn with_workloads(cfg: &SystemConfig, workloads: &[Workload]) -> HbmSystem {
        let n = cfg.hbm.num_pch;
        assert_eq!(workloads.len(), n, "need exactly one workload per master");
        let sources = workloads
            .iter()
            .enumerate()
            .map(|(m, wl)| {
                Box::new(BmTrafficGen::new(MasterId(m as u16), n, cfg.hbm.pch_capacity, *wl, None))
                    as Box<dyn TrafficSource>
            })
            .collect();
        HbmSystem::with_sources(cfg, sources)
    }

    /// Builds a system driven by arbitrary traffic sources, one per
    /// master port (e.g. accelerator engines).
    pub fn with_sources(cfg: &SystemConfig, sources: Vec<Box<dyn TrafficSource>>) -> HbmSystem {
        cfg.hbm.validate().expect("invalid HBM configuration");
        let n = cfg.hbm.num_pch;
        assert_eq!(sources.len(), n, "need exactly one traffic source per master port");
        let fabric = cfg.build_fabric();
        let mcs = (0..n)
            .map(|p| MemoryController::new(&cfg.hbm, cfg.clock, cfg.hbm.refresh_phase(p)))
            .collect();
        HbmSystem {
            stuck: vec![None; n],
            source_wake: vec![0; n],
            stalls: vec![StallCredit::default(); n],
            port_wake: vec![0; n],
            gens: sources,
            fabric,
            mcs,
            banks: BankPool::new(n, cfg.hbm.banks_per_pch),
            now: 0,
            cfg: cfg.clone(),
            tracer: None,
            probe: None,
        }
    }

    /// The configured accelerator clock.
    pub fn clock(&self) -> ClockDomain {
        self.cfg.clock
    }

    /// The full system configuration this instance was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Turns on per-transaction lifecycle tracing, keeping up to
    /// `record_cap` delivered records per execution domain (one per
    /// switch of a sharded fabric, one in all on a monolithic fabric).
    /// The system owns the tracer; inspect it through
    /// [`tracer`](HbmSystem::tracer) (e.g. by `hbm_core::export`).
    /// Tracing is observation-only: a traced run is bit-identical to an
    /// untraced one (enforced by the `fastpath_equivalence` property
    /// tests).
    pub fn enable_tracing(&mut self, record_cap: usize) {
        self.tracer = Some(match self.fabric.shard_layout() {
            Some(l) => Tracer::per_domain(record_cap, l.masters_per_shard),
            None => Tracer::new(record_cap),
        });
    }

    /// The lifecycle tracer, when tracing is enabled. Its
    /// [`snapshot`](Tracer::snapshot) orders the retained records by
    /// delivery.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches a windowed time-series probe. [`run`](HbmSystem::run) and
    /// [`run_until_drained`](HbmSystem::run_until_drained) will sample it
    /// every `cfg.interval` cycles, starting from the current cycle.
    pub fn attach_probe(&mut self, cfg: ProbeConfig) {
        self.probe = Some(Probe::new(cfg, self.now, self.cfg.hbm.num_pch));
    }

    /// The attached probe, when any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.as_ref()
    }

    /// Takes one probe sample at the current cycle. Gathers the gauges
    /// first (immutable borrows), then feeds them to the sampler.
    fn sample_probe(&mut self) {
        if self.probe.is_none() {
            return;
        }
        let in_flight: u64 = self.gens.iter().map(|g| g.in_flight() as u64).sum();
        let fabric_occupancy = self.fabric.occupancy() as u64;
        let mc_queued: u64 = self.mcs.iter().map(|m| m.queue_len() as u64).sum();
        let per_pch: Vec<MemStats> = self.mcs.iter().map(|m| *m.stats()).collect();
        if let Some(p) = self.probe.as_mut() {
            p.sample(self.now, &per_pch, in_flight, fabric_occupancy, mc_queued);
        }
    }

    /// Closes the probe's last (possibly partial) window at the end of a
    /// run, unless a sample was already taken at this exact cycle.
    fn sample_probe_final(&mut self) {
        match &self.probe {
            Some(p) if p.last_sample_at() != self.now => self.sample_probe(),
            _ => {}
        }
    }

    /// The current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the system by one cycle — the reference step: every
    /// component is visited, whether or not it can act. The equivalence
    /// suites compare [`run`](Self::run) and
    /// [`run_until_drained`](Self::run_until_drained) against a loop of
    /// these. With a probe attached, a due sample is taken first, at the
    /// same point the kernel takes it; a stepping loop closes its last
    /// partial window with `run(0)`.
    pub fn step(&mut self) {
        if self.probe.as_ref().is_some_and(|p| p.next_sample_at() <= self.now) {
            self.sample_probe();
        }
        let now = self.now;
        let mut tracer = self.tracer.as_mut();
        // 1. Masters offer their head-of-line transaction.
        for gen in &mut self.gens {
            if let Some(txn) = gen.poll(now) {
                if self.fabric.offer_request(now, txn).is_ok() {
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.ingress_accept(now, &txn);
                    }
                    gen.accepted();
                }
            }
        }
        // 2. The interconnect moves flits.
        self.fabric.tick(now, tracer.as_deref_mut());
        // 3. Memory side: deliver requests (one per port per cycle, as an
        //    AXI handshake would) and return completions.
        for (p, mc) in self.mcs.iter_mut().enumerate() {
            let port = PortId(p as u16);
            if let Some(head) = self.fabric.peek_request(now, port) {
                if mc.can_accept(head.dir) {
                    let txn = self.fabric.pop_request(now, port).expect("peeked head");
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.mc_enqueue(now, &txn, port.0);
                    }
                    mc.accept(now, txn);
                }
            }
            mc.tick(now, &mut self.banks.unit_mut(p), tracer.as_deref_mut());
            if let Some(c) = self.stuck[p].take() {
                if let Err((c, _)) = self.fabric.offer_completion(now, port, c) {
                    self.stuck[p] = Some(c);
                }
            }
            if self.stuck[p].is_none() {
                if let Some(c) = mc.pop_completion(now) {
                    if let Err((c, _)) = self.fabric.offer_completion(now, port, c) {
                        self.stuck[p] = Some(c);
                    }
                }
            }
        }
        // 4. Masters drain completions.
        for (m, gen) in self.gens.iter_mut().enumerate() {
            while let Some(c) = self.fabric.pop_completion(now, MasterId(m as u16)) {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.delivered(now, &c.txn);
                }
                gen.completed(now, &c.txn);
            }
        }
        self.now += 1;
    }

    /// Runs for `cycles` cycles through the wake-driven kernel, which
    /// skips provably idle cycles and components. With a probe attached,
    /// samples land on every window boundary and the last (possibly
    /// partial) window is closed at the end.
    pub fn run(&mut self, cycles: Cycle) {
        self.conduct(cycles, false);
    }

    /// Runs until every generator, the fabric, and every controller are
    /// drained, or until `max_cycles` more cycles have elapsed. Returns
    /// `true` on a clean drain (in particular: immediately, without
    /// stepping, when the system is already drained — even with
    /// `max_cycles == 0`). A drain stops on the same cycle as a
    /// [`step`](Self::step) loop that checks [`drained`](Self::drained)
    /// before each step. An attached probe is sampled as in
    /// [`run`](Self::run).
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> bool {
        self.conduct(max_cycles, true)
    }

    /// The wake-driven kernel behind [`run`](HbmSystem::run) and
    /// [`run_until_drained`](HbmSystem::run_until_drained) (DESIGN.md
    /// §3.3, §3.12).
    ///
    /// Work proceeds in *supersteps*: each iteration picks a barrier
    /// cycle `W` no farther than the fabric's lateral-synchronisation
    /// lag past the earliest component wake (clamped to the deadline
    /// and the next probe boundary), advances every execution domain in
    /// turn over `[now, W)`, reconciles the lateral boundaries, and jumps
    /// `now` to `W`. The lateral-port contract — data *and* credits
    /// delayed by at least `sync_lag` cycles — guarantees no domain can
    /// observe another's in-window state changes before `W`, so
    /// advancing them one after another replays the reference schedule
    /// bit-for-bit.
    ///
    /// A monolithic fabric is one domain with no lateral boundary, and
    /// so is a sharded one of a single shard (the full crossbar), or one
    /// whose traffic can never cross a lateral bus (every source
    /// port-affine, each shard owning its own masters' ports
    /// end-to-end): there the horizon clamp is dropped and domains
    /// sprint straight to the deadline.
    fn conduct(&mut self, budget: Cycle, drain: bool) -> bool {
        // Wakes are only kept by this kernel; the reference step may
        // have moved state since the last conducted run.
        self.source_wake.fill(0);
        self.port_wake.fill(0);
        let prof = profile::active();
        let layout = self.fabric.shard_layout();
        // Anti-hang guard only: a lateral hop takes at least one cycle.
        let lag = layout.map_or(1, |l| l.sync_lag.max(1));
        let deadline = self.now.saturating_add(budget);
        let lateral_free = layout.is_none_or(|l| {
            l.shards == 1
                || (l.masters_per_shard == l.ports_per_shard
                    && self.gens.iter().all(|g| g.port_affine()))
        });
        let domains = layout.map_or(1, |l| l.shards);
        let mut last_step: Vec<Option<Cycle>> = vec![None; domains];
        let mut pacers = vec![Pacer::default(); domains];
        loop {
            if drain && self.drained() {
                // The reference drain loop stops one cycle past its
                // last executed step; windows may have carried `now`
                // beyond that, so roll back to the equivalent cycle.
                if let Some(t) = last_step.iter().filter_map(|s| *s).max() {
                    self.now = t + 1;
                }
                self.end_conduct();
                return true;
            }
            if self.now >= deadline {
                self.end_conduct();
                return !drain;
            }
            let mut cap = deadline;
            if let Some(p) = &self.probe {
                let next = p.next_sample_at();
                if next <= self.now {
                    self.sample_probe();
                    continue;
                }
                cap = cap.min(next);
            }
            let barrier = match self.wake_horizon() {
                None => cap,
                Some(_) if lateral_free => cap,
                Some(t) => t.max(self.now).saturating_add(lag).min(cap),
            };
            self.advance_domains(barrier, drain, prof, &mut last_step, &mut pacers);
            if let Some(sharded) = self.fabric.as_sharded_mut() {
                if sharded.pending_reconcile() {
                    sharded.reconcile();
                }
            }
            if prof {
                profile::lap(profile::Phase::HorizonCompute);
            }
            self.now = barrier;
        }
    }

    /// Closes a conducted run: the ID-stall retries skipped up to `now`
    /// are owed to the fabric's stall count, so statistics read (or
    /// reset) between runs are exact, whatever runs next.
    fn end_conduct(&mut self) {
        for stall in &mut self.stalls {
            stall.settle(self.now);
        }
        self.sample_probe_final();
    }

    /// The earliest wake of any source, port or fabric component — a
    /// lower bound on the next cycle anything can happen (`None`:
    /// nothing will without external input). Cheap: the wakes are kept,
    /// not recomputed.
    fn wake_horizon(&self) -> Option<Cycle> {
        let now = self.now;
        let kept = self.source_wake.iter().chain(&self.port_wake).copied().min();
        let t = self.fabric.next_event(now).into_iter().chain(kept).min()?;
        (t != Cycle::MAX).then(|| t.max(now))
    }

    /// Advances every execution domain over `[self.now, to)`, one after
    /// another in index order, lending each the tracer in turn.
    fn advance_domains(
        &mut self,
        to: Cycle,
        drain: bool,
        prof: bool,
        last_step: &mut [Option<Cycle>],
        pacers: &mut [Pacer],
    ) {
        let from = self.now;
        let mut tracer = self.tracer.as_mut();
        let Some(layout) = self.fabric.shard_layout() else {
            let mut whole = Domain {
                fabric: &mut *self.fabric,
                gens: &mut self.gens,
                source_wake: &mut self.source_wake,
                stalls: &mut self.stalls,
                mcs: &mut self.mcs,
                first_port: 0,
                port_wake: &mut self.port_wake,
                banks: self.banks.view_mut(),
                stuck: &mut self.stuck,
                last: &mut last_step[0],
                pacer: &mut pacers[0],
            };
            whole.advance(from, to, drain, prof, tracer);
            return;
        };
        let (mps, pps) = (layout.masters_per_shard, layout.ports_per_shard);
        let shards = self
            .fabric
            .as_sharded_mut()
            .expect("shard_layout() promised a sharded view")
            .shards_mut();
        let sources = self.gens.chunks_mut(mps).zip(self.source_wake.chunks_mut(mps));
        let sources = sources.zip(self.stalls.chunks_mut(mps));
        let ports = self.mcs.chunks_mut(pps).zip(self.port_wake.chunks_mut(pps));
        let memory = self.banks.view_mut().chunks_mut(pps).zip(self.stuck.chunks_mut(pps));
        let progress = last_step.iter_mut().zip(pacers);
        let domains = shards.iter_mut().zip(sources).zip(ports).zip(memory).zip(progress);
        let domains = domains.enumerate().map(
            |(
                s,
                (
                    (((fabric, ((gens, source_wake), stalls)), (mcs, port_wake)), (banks, stuck)),
                    (last, pacer),
                ),
            )| {
                Domain {
                    fabric,
                    gens,
                    source_wake,
                    stalls,
                    mcs,
                    first_port: s * pps,
                    port_wake,
                    banks,
                    stuck,
                    last,
                    pacer,
                }
            },
        );
        for mut d in domains {
            d.advance(from, to, drain, prof, tracer.as_deref_mut());
        }
    }

    /// `true` when no transaction is anywhere in the system.
    pub fn drained(&self) -> bool {
        self.gens.iter().all(|g| g.drained())
            && self.fabric.drained()
            && self.mcs.iter().all(|m| m.drained())
            && self.stuck.iter().all(|s| s.is_none())
    }

    /// Clears all statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        for g in &mut self.gens {
            g.reset_stats();
        }
        for stall in &mut self.stalls {
            stall.owed = 0;
        }
        for m in &mut self.mcs {
            m.reset_stats();
        }
        self.fabric.reset_stats();
    }

    /// Per-master generator statistics.
    pub fn gen_stats(&self) -> Vec<GenStats> {
        self.gens.iter().map(|g| *g.stats()).collect()
    }

    /// Aggregate generator statistics over all masters, merged in
    /// master order.
    pub fn gen_stats_total(&self) -> GenStats {
        let mut total = GenStats::default();
        for g in &self.gens {
            total.merge(g.stats());
        }
        total
    }

    /// Aggregate memory statistics over all pseudo-channels.
    pub fn mem_stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for m in &self.mcs {
            total.merge(m.stats());
        }
        total
    }

    /// Per-pseudo-channel memory statistics.
    pub fn mem_stats_per_pch(&self) -> Vec<MemStats> {
        self.mcs.iter().map(|m| *m.stats()).collect()
    }

    /// Interconnect statistics, including the ID-stall retries the
    /// wake-driven kernel skipped (each one a stall cycle the fabric
    /// would have counted).
    pub fn fabric_stats(&self) -> FabricStats {
        let mut stats = self.fabric.stats();
        stats.id_stall_cycles += self.stalls.iter().map(|s| s.owed).sum::<u64>();
        stats
    }

    /// Visits the high-water mark of every queue in the system — the
    /// fabric's internal queues (labeled by family) plus each memory
    /// controller's request/response/ack queues. Marks are maintained at
    /// push time by the queues themselves; sampling happens once per
    /// measurement, never inside the cycle loop.
    pub fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        self.fabric.for_each_queue_hwm(visit);
        for mc in &self.mcs {
            let [req, resp, ack] = mc.queue_high_waters();
            visit("mc_req", req);
            visit("mc_resp", resp);
            visit("mc_ack", ack);
        }
    }
}

/// A source's ID-ordering stall retries that the wake-driven kernel
/// skipped. Each stalled offer counts one `id_stall_cycles` in the
/// reference; a source whose offer stalls sleeps until a completion
/// reaches it, and the retries it skipped are owed here and added to
/// [`HbmSystem::fabric_stats`] (DESIGN.md §3.12).
#[derive(Debug, Clone, Copy, Default)]
struct StallCredit {
    /// The cycle of the last stalled offer, while the source sleeps on it.
    since: Option<Cycle>,
    /// Skipped retries settled since the last `reset_stats`.
    owed: u64,
}

impl StallCredit {
    /// Settles the retries skipped before cycle `now`: one per cycle
    /// after the last stalled offer.
    fn settle(&mut self, now: Cycle) {
        if let Some(t0) = self.since.take() {
            self.owed += now - 1 - t0;
        }
    }
}

/// The fabric side of one execution domain, addressed by domain-local
/// master and port indices: a [`SwitchShard`] of a sharded fabric, or a
/// whole monolithic [`Interconnect`]. Rejections carry the fabric's
/// retry hints.
trait DomainFabric {
    fn offer(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)>;

    /// Moves flits; lowers `source_wake[lm]` (`port_wake[lp]`) to `now`
    /// for every master (port) whose ingress (completion) link it pops —
    /// the event a `Cycle::MAX` retry hint waits for. A lent `tracer`
    /// takes the lateral-hop stamps.
    fn tick(
        &mut self,
        now: Cycle,
        source_wake: &mut [Cycle],
        port_wake: &mut [Cycle],
        tracer: Option<&mut Tracer>,
    );

    fn peek_request(&self, now: Cycle, lp: usize) -> Option<&Transaction>;
    fn pop_request(&mut self, now: Cycle, lp: usize) -> Option<Transaction>;
    fn offer_completion(
        &mut self,
        now: Cycle,
        lp: usize,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)>;
    fn pop_completion(&mut self, now: Cycle, lm: usize) -> Option<Completion>;
    fn next_event(&self, now: Cycle) -> Option<Cycle>;
    fn drained(&self) -> bool;
}

impl DomainFabric for SwitchShard {
    fn offer(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)> {
        SwitchShard::offer_request(self, now, txn)
    }

    fn tick(
        &mut self,
        now: Cycle,
        source_wake: &mut [Cycle],
        port_wake: &mut [Cycle],
        tracer: Option<&mut Tracer>,
    ) {
        self.tick_and_wake(now, source_wake, port_wake, tracer);
    }

    fn peek_request(&self, now: Cycle, lp: usize) -> Option<&Transaction> {
        SwitchShard::peek_request(self, now, lp)
    }

    fn pop_request(&mut self, now: Cycle, lp: usize) -> Option<Transaction> {
        SwitchShard::pop_request(self, now, lp)
    }

    fn offer_completion(
        &mut self,
        now: Cycle,
        lp: usize,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)> {
        SwitchShard::offer_completion(self, now, lp, c)
    }

    fn pop_completion(&mut self, now: Cycle, lm: usize) -> Option<Completion> {
        SwitchShard::pop_completion(self, now, lm)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        SwitchShard::next_event(self, now)
    }

    fn drained(&self) -> bool {
        SwitchShard::drained(self)
    }
}

/// A monolithic fabric does not report the pops that free a full link,
/// so its hints for one are the next cycle.
impl DomainFabric for dyn Interconnect {
    fn offer(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)> {
        Interconnect::offer_request(self, now, txn)
    }

    fn tick(
        &mut self,
        now: Cycle,
        _source_wake: &mut [Cycle],
        _port_wake: &mut [Cycle],
        tracer: Option<&mut Tracer>,
    ) {
        Interconnect::tick(self, now, tracer);
    }

    fn peek_request(&self, now: Cycle, lp: usize) -> Option<&Transaction> {
        Interconnect::peek_request(self, now, PortId(lp as u16))
    }

    fn pop_request(&mut self, now: Cycle, lp: usize) -> Option<Transaction> {
        Interconnect::pop_request(self, now, PortId(lp as u16))
    }

    fn offer_completion(
        &mut self,
        now: Cycle,
        lp: usize,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)> {
        Interconnect::offer_completion(self, now, PortId(lp as u16), c)
    }

    fn pop_completion(&mut self, now: Cycle, lm: usize) -> Option<Completion> {
        Interconnect::pop_completion(self, now, MasterId(lm as u16))
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Interconnect::next_event(self, now)
    }

    fn drained(&self) -> bool {
        Interconnect::drained(self)
    }
}

/// One execution domain: a fabric part plus the traffic sources, memory
/// controllers, stuck-completion slots and wakes of the masters and
/// ports it owns. Between barriers the conductor advances the domains
/// one after another. Lateral traffic lands in a shard's cycle-stamped
/// outboxes; nothing outside the domain is touched until
/// [`hbm_fabric::ShardedFabric::reconcile`] runs at the barrier, except
/// the lent tracer's records of transactions in flight.
struct Domain<'a, F: ?Sized> {
    fabric: &'a mut F,
    gens: &'a mut [Box<dyn TrafficSource>],
    /// Per source: poll again from this cycle (DESIGN.md §3.12).
    source_wake: &'a mut [Cycle],
    stalls: &'a mut [StallCredit],
    mcs: &'a mut [MemoryController],
    /// System index of `mcs[0]`'s port, for the MC-enqueue stamp.
    first_port: usize,
    /// Per port: visit from this cycle even without a request to
    /// accept (the controller's horizon, or a stuck completion's retry).
    port_wake: &'a mut [Cycle],
    /// The bank-pool units of this domain's ports (unit `lp` belongs to
    /// `mcs[lp]`).
    banks: BanksViewMut<'a>,
    stuck: &'a mut [Option<Completion>],
    /// The cycle of this domain's most recent executed step across the
    /// whole conducted run (drain-mode end-cycle reconstruction).
    last: &'a mut Option<Cycle>,
    /// Blind-step credit, carried across barriers so a busy domain keeps
    /// its burst from one window to the next.
    pacer: &'a mut Pacer,
}

impl<F: DomainFabric + ?Sized> Domain<'_, F> {
    /// Mirrors [`HbmSystem::drained`] on the domain's slice (a shard
    /// counts its receiver rings *and* unreconciled outboxes).
    fn drained(&self) -> bool {
        self.gens.iter().all(|g| g.drained())
            && self.fabric.drained()
            && self.mcs.iter().all(|m| m.drained())
            && self.stuck.iter().all(|s| s.is_none())
    }

    /// The earliest cycle ≥ `now` at which a step can do anything: the
    /// minimum of the kept wakes and the fabric's horizon.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let kept = self.source_wake.iter().chain(self.port_wake.iter()).copied().min();
        let t = self.fabric.next_event(now).into_iter().chain(kept).min()?;
        (t != Cycle::MAX).then(|| t.max(now))
    }

    /// The four phases of the cycle, visiting only the components whose
    /// wake has come (DESIGN.md §3.12). `prof` is the phase-profiler bit
    /// read once per run; laps are taken per component pass and per
    /// visited port. A lent `tracer` takes ingress, MC-enqueue and
    /// delivery stamps here, and the lateral-hop and DRAM-issue stamps
    /// through the fabric's and the controllers' ticks.
    fn step(&mut self, now: Cycle, prof: bool, mut tracer: Option<&mut Tracer>) {
        // 1. Due sources offer their head-of-line transaction. A source
        //    with nothing to offer sleeps until its own next event; a
        //    rejected one until the fabric's retry hint, or — stalled on
        //    AXI ordering — until a completion, owing the skipped
        //    retries. Completions and freed ingress slots wake any early.
        let sources = self.gens.iter_mut().zip(self.source_wake.iter_mut());
        for ((gen, wake), stall) in sources.zip(self.stalls.iter_mut()) {
            if *wake > now {
                continue;
            }
            stall.settle(now);
            *wake = match gen.poll(now) {
                None => gen.next_event(now + 1).unwrap_or(Cycle::MAX),
                Some(txn) => match self.fabric.offer(now, txn) {
                    Ok(()) => {
                        if let Some(tr) = tracer.as_deref_mut() {
                            tr.ingress_accept(now, &txn);
                        }
                        gen.accepted();
                        now + 1
                    }
                    Err((_, Retry::At(t))) => t,
                    Err((_, Retry::UntilCompletion)) => {
                        stall.since = Some(now);
                        Cycle::MAX
                    }
                },
            };
        }
        if prof {
            profile::lap(profile::Phase::GensTick);
        }
        // 2. The interconnect moves flits (a shard returns at once
        //    before its own wake).
        self.fabric.tick(now, self.source_wake, self.port_wake, tracer.as_deref_mut());
        if prof {
            profile::lap(profile::Phase::FabricTick);
        }
        // 3. Memory side: deliver requests (one per port per cycle, as an
        //    AXI handshake would) and return completions. A port with no
        //    request it can accept is skipped until its wake: the
        //    controller's horizon, or a stuck completion's retry hint.
        for (lp, mc) in self.mcs.iter_mut().enumerate() {
            let accept = self.fabric.peek_request(now, lp).is_some_and(|h| mc.can_accept(h.dir));
            if !accept && self.port_wake[lp] > now {
                continue;
            }
            let mut moved = accept;
            if accept {
                let txn = self.fabric.pop_request(now, lp).expect("peeked head");
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.mc_enqueue(now, &txn, (self.first_port + lp) as u16);
                }
                mc.accept(now, txn);
            }
            if prof {
                profile::lap(profile::Phase::QueueOps);
            }
            let queued = mc.queue_len();
            mc.tick(now, &mut self.banks.unit_mut(lp), tracer.as_deref_mut());
            moved |= mc.queue_len() != queued;
            if prof {
                profile::lap(profile::Phase::McTick);
            }
            let mut retry = None;
            if let Some(c) = self.stuck[lp].take() {
                match self.fabric.offer_completion(now, lp, c) {
                    Ok(()) => moved = true,
                    Err((c, t)) => {
                        self.stuck[lp] = Some(c);
                        retry = Some(t);
                    }
                }
            }
            if self.stuck[lp].is_none() {
                if let Some(c) = mc.pop_completion(now) {
                    match self.fabric.offer_completion(now, lp, c) {
                        Ok(()) => moved = true,
                        Err((c, t)) => {
                            self.stuck[lp] = Some(c);
                            retry = Some(t);
                        }
                    }
                }
            }
            // A busy port is simply visited again next cycle; only an
            // idle visit pays for the controller's horizon. While a
            // completion is stuck the controller pops nothing, so only
            // its request side and the retry matter.
            self.port_wake[lp] = match retry {
                _ if moved => now + 1,
                None => mc.next_event(now + 1).unwrap_or(Cycle::MAX),
                Some(t) => mc.next_tick_event(now + 1).map_or(t, |issue| issue.min(t)),
            };
        }
        // 4. Masters drain completions; each delivery wakes its source.
        for (lm, gen) in self.gens.iter_mut().enumerate() {
            while let Some(c) = self.fabric.pop_completion(now, lm) {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.delivered(now, &c.txn);
                }
                gen.completed(now, &c.txn);
                self.source_wake[lm] = self.source_wake[lm].min(now + 1);
            }
        }
        if prof {
            profile::lap(profile::Phase::QueueOps);
        }
    }

    /// Advances the domain over `[from, to)`, stepping only at cycles its
    /// horizon marks as potentially active, or blind while the [`Pacer`]
    /// grants credit. Cross-domain input cannot arrive mid-window (the
    /// barrier rule), so the horizon stays valid for the whole span. In
    /// drain mode it stops once locally drained: the remaining cycles are
    /// provably no-ops, and stopping keeps `last` at the cycle the
    /// reference drain loop would stop at.
    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        drain: bool,
        prof: bool,
        mut tracer: Option<&mut Tracer>,
    ) {
        let mut now = from;
        while now < to {
            if drain && self.drained() {
                return;
            }
            if !self.pacer.take_credit() {
                let horizon = self.horizon(now);
                if prof {
                    profile::lap(profile::Phase::HorizonCompute);
                }
                match horizon {
                    Some(t) if t <= now => self.pacer.stepped(),
                    Some(t) => {
                        now = t.min(to);
                        self.pacer.skipped();
                        continue;
                    }
                    None => return,
                }
            }
            self.step(now, prof, tracer.as_deref_mut());
            *self.last = Some(now);
            now += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::Dir;
    use hbm_traffic::RwRatio;

    #[test]
    fn scs_system_drains_bounded_stream() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(8));
        assert!(sys.run_until_drained(100_000), "system failed to drain");
        let total: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
        assert_eq!(total, 32 * 8);
    }

    #[test]
    fn mao_system_drains_ccra_stream() {
        let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccra(), Some(8));
        assert!(sys.run_until_drained(200_000));
        let total: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
        assert_eq!(total, 32 * 8);
    }

    #[test]
    fn direct_system_runs_scs() {
        let mut sys = HbmSystem::new(&SystemConfig::direct(), Workload::scs(), Some(16));
        assert!(sys.run_until_drained(100_000));
    }

    #[test]
    fn bytes_move_through_memory() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(4));
        sys.run_until_drained(100_000);
        let mem = sys.mem_stats();
        // 32 masters × 4 × 512 B, split 2:1 read/write (3 reads, 1 write
        // per master under the 2:1 sequence R,R,W,R).
        assert_eq!(mem.total_bytes(), 32 * 4 * 512);
        assert!(mem.bytes_read > mem.bytes_written);
    }

    #[test]
    fn read_latency_matches_paper_ballpark() {
        // Single local read at low load: the paper measures 48 cycles
        // (global addressing enabled, closest PCH).
        let wl = Workload { rw: RwRatio::READ_ONLY, outstanding: 1, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(4));
        sys.run_until_drained(10_000);
        let stats = &sys.gen_stats()[0];
        let mean = stats.read_lat.mean().unwrap();
        assert!(
            (30.0..70.0).contains(&mean),
            "local read latency {mean} should be near the paper's 48 cycles"
        );
    }

    #[test]
    fn write_latency_below_read_latency() {
        let run = |dir| {
            let wl = Workload {
                rw: if dir == Dir::Read { RwRatio::READ_ONLY } else { RwRatio::WRITE_ONLY },
                outstanding: 1,
                ..Workload::scs()
            };
            let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(4));
            sys.run_until_drained(10_000);
            let s = &sys.gen_stats()[0];
            match dir {
                Dir::Read => s.read_lat.mean().unwrap(),
                Dir::Write => s.write_lat.mean().unwrap(),
            }
        };
        let rd = run(Dir::Read);
        let wr = run(Dir::Write);
        assert!(wr < rd - 10.0, "posted writes ({wr}) must ack much faster than reads ({rd})");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccra(), Some(32));
            sys.run_until_drained(200_000);
            let stats = sys.gen_stats();
            (
                stats.iter().map(|g| g.completed).sum::<u64>(),
                stats.iter().map(|g| g.read_lat.mean().unwrap_or(0.0)).sum::<f64>(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "identical seeds must give identical results");
    }

    /// Stats fingerprint for kernel-vs-reference parity checks.
    fn fingerprint(sys: &HbmSystem) -> (Cycle, u64, u64, f64, u64) {
        let gens = sys.gen_stats();
        (
            sys.now(),
            gens.iter().map(|g| g.completed).sum(),
            sys.mem_stats().total_bytes(),
            gens.iter().map(|g| g.read_lat.mean().unwrap_or(0.0)).sum(),
            sys.fabric_stats().lateral_beats(),
        )
    }

    /// Drains through the reference step alone, stopping where
    /// `run_until_drained` does.
    fn step_until_drained(sys: &mut HbmSystem, budget: Cycle) -> bool {
        let deadline = sys.now() + budget;
        while !sys.drained() {
            if sys.now() >= deadline {
                return false;
            }
            sys.step();
        }
        true
    }

    #[test]
    fn kernel_matches_the_reference_step_under_lateral_traffic() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut kernel = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(64));
        let mut reference = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(64));
        assert!(kernel.run_until_drained(200_000));
        assert!(step_until_drained(&mut reference, 200_000));
        let fp = fingerprint(&reference);
        assert_eq!(fingerprint(&kernel), fp, "the domains' drain must match the reference");
        assert!(fp.4 > 0, "rotation-4 traffic must exercise the lateral boundaries");
    }

    #[test]
    fn kernel_matches_the_reference_step_on_fixed_span() {
        let mut kernel = HbmSystem::new(&SystemConfig::xilinx(), Workload::ccra(), None);
        let mut reference = HbmSystem::new(&SystemConfig::xilinx(), Workload::ccra(), None);
        kernel.run(20_000);
        for _ in 0..20_000 {
            reference.step();
        }
        assert_eq!(fingerprint(&kernel), fingerprint(&reference));
    }

    #[test]
    fn port_affine_traffic_sprints_without_barriers() {
        // SCS at rotation 0 never crosses a lateral bus: the conductor
        // runs full-span windows and must still agree with the reference.
        let mut kernel = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(128));
        let mut reference = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(128));
        assert!(kernel.run_until_drained(200_000));
        assert!(step_until_drained(&mut reference, 200_000));
        let fp = fingerprint(&reference);
        assert_eq!(fingerprint(&kernel), fp);
        assert_eq!(fp.4, 0);
    }

    #[test]
    fn rotation_zero_uses_no_lateral_buses() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(16));
        sys.run_until_drained(100_000);
        assert_eq!(sys.fabric_stats().lateral_beats(), 0);
    }

    #[test]
    fn rotation_crosses_lateral_buses() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(16));
        sys.run_until_drained(100_000);
        assert!(sys.fabric_stats().lateral_beats() > 0);
    }
}
