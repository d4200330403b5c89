//! # ubiqos-runtime
//!
//! The smart-space runtime substrate standing in for the paper's Gaia OS
//! prototype (Section 4, first experiment set). It provides the
//! infrastructure services the configuration model assumes (Section 3.1)
//! and the scenario machinery that reproduces **Figure 3** (end-to-end
//! QoS across four configuration events) and **Figure 4** (per-event
//! overhead breakdown):
//!
//! * [`DomainServer`] — the per-domain infrastructure service hosting the
//!   two-tier configurator, driving sessions through start / device
//!   switch / reconfiguration;
//! * [`ComponentRepository`] — dynamic downloading of component code with
//!   a size ÷ bandwidth cost model;
//! * [`profiler`] — per-stage pipeline timing ([`StageTimes`]) and the
//!   queue-wait and batch-size histograms the bench artifacts report;
//! * [`checkpoint`] — application checkpointing and the state-handoff
//!   timing model (wireless handoffs cost more than wired ones, matching
//!   the paper's PC→PDA vs PDA→PC asymmetry);
//! * [`streaming`] — delivered-QoS computation for a deployed
//!   configuration;
//! * [`pipeline`] — the batched admission runtime overlapping
//!   independent sessions' discover→compose→place→download pipelines
//!   while committing in the serial runtime's deterministic order;
//! * [`federation`] — the sharded multi-domain deployment: N domain
//!   servers own subtrees of the domain hierarchy, resolve discovery
//!   across shards, and hand sessions off with a two-phase
//!   reserve/commit protocol that stays correct under suspicion;
//! * [`durability`] — per-shard write-ahead log + snapshot checkpoints:
//!   a federated domain server can crash mid-campaign and rebuild its
//!   registry, session table, retry queue, and detector state from the
//!   log, converging to the crash-free run's digests;
//! * [`transport`] — the federation's message fabric: the `Transport`
//!   seam, in-process channels, and the seeded lossy-transport fault
//!   injector the reliable-delivery sublayer is hardened against;
//! * [`apps`] — the two prototype applications: *mobile audio-on-demand*
//!   and *video conferencing*;
//! * [`scenario`] — the scripted four-event experiment of Figures 3-4.
//!
//! All timing comes from the deterministic [`CostModel`], calibrated to
//! the magnitudes the paper reports (hundreds of ms for middleware
//! actions, seconds for dynamic downloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod checkpoint;
pub mod config_cache;
pub mod cost_model;
pub mod domain_server;
pub mod durability;
pub mod faults;
pub mod federation;
mod ledger;
pub mod overhead;
pub mod pipeline;
pub mod profiler;
pub mod recovery;
pub mod repository;
pub mod retry_queue;
pub mod scenario;
pub mod shrink;
pub mod streaming;
pub mod transport;

pub use checkpoint::{Checkpoint, HandoffPhase, HandoffPlan};
pub use config_cache::{CompositionCache, CompositionCacheStats, SharedGraph};
pub use cost_model::{CostModel, LinkKind};
pub use domain_server::{DomainServer, PlacementStrategy, PlacementTotals, Session, SessionId};
pub use durability::DurabilityConfig;
pub use faults::{
    campaign_schedule, run_fault_campaign, run_fault_campaign_with, CampaignOutcome, EventLog,
    FaultCampaignConfig, InvariantViolation,
};
pub use federation::{
    run_federation_campaign, run_federation_campaign_lossy, run_federation_campaign_over,
    run_federation_campaign_with, FederationConfig, FederationMsg, FederationOutcome,
    FederationStats, ShardOutcome, ShardPartition,
};
pub use overhead::ConfigOverhead;
pub use pipeline::{
    run_fault_campaign_batched, run_fault_campaign_batched_with, PipelineConfig, PipelineStats,
};
pub use profiler::{PowHistogram, StageTimes};
pub use recovery::{Degradation, RecoveryReport};
pub use repository::ComponentRepository;
pub use retry_queue::{ParkedSession, RetryPolicy, RetryQueue};
pub use shrink::{shrink_schedule, ShrinkOutcome};
pub use transport::{
    BurstWindow, ChannelTransport, DirectedFault, Envelope, Fate, LossConfig, LossStats,
    LossyTransport, MsgKind, Transport,
};
