// Asynchronous SkipTrain — the extension the paper leaves as future work
// (§5.3: "asynchronous algorithms offer a more practical approach by
// relaxing the need for strict synchronization").
//
// Discrete-event semantics: each node runs its own activation loop on its
// own clock. On activation, a node
//   1. advances its LOCAL round counter and asks the RoundScheduler whether
//      this local round trains (SkipTrain's Γ-alternation applies per-node,
//      no global barrier);
//   2. trains for its device-specific duration (slow devices activate less
//      often — no straggler stalls the fleet), or performs a cheap
//      sync-only activation;
//   3. merges the freshest models its neighbors pushed since its last
//      activation (uniform average over {self} ∪ fresh senders);
//   4. pushes its merged model to every neighbor's mailbox;
//   5. schedules its next activation at now + duration.
//
// The event queue is processed serially with (time, node-id) ordering, so
// runs are exactly reproducible. Energy uses the same accountant as the
// synchronous engine.
#pragma once

#include <memory>
#include <queue>
#include <vector>

#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "energy/accountant.hpp"
#include "fault/fault.hpp"
#include "graph/topology.hpp"
#include "nn/sequential.hpp"
#include "obs/phase.hpp"
#include "plane/plane.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"
#include "sim/node.hpp"

namespace skiptrain::ckpt {
class ImageReader;
class ImageWriter;
}  // namespace skiptrain::ckpt

namespace skiptrain::sim {

namespace detail {
struct EngineIdentity;
}  // namespace detail

struct AsyncConfig {
  std::size_t local_steps = 5;
  std::size_t batch_size = 32;
  float learning_rate = 0.1f;
  std::uint64_t seed = 42;
  /// Duration of a sync-only activation relative to a training activation
  /// (communication + aggregation are fast; cf. the >200x energy ratio).
  double sync_duration_factor = 0.05;

  /// Wire format of pushed models (quant/codec.hpp). Non-identity codecs
  /// make every outbox push carry an encoded payload; neighbors merge the
  /// decoded image. Bill at the matching volume by building the
  /// accountant's CommModel via quant::comm_model_for(exchange_codec).
  quant::Codec exchange_codec = quant::Codec::kIdentity;

  /// Identity of a non-dense topology (ImplicitKRegular::config_hash or a
  /// CsrGraph content hash) — see EngineConfig::topology_hash. Sparse
  /// topologies reach the async engine as a materialized O(n·k) Topology
  /// (ImplicitKRegular/CsrGraph::materialize(), owned by the caller);
  /// total async memory stays O(n·dim) models/outbox + O(n·k) adjacency.
  /// 0 (the default) keeps pre-topology-axis images byte-compatible.
  std::uint64_t topology_hash = 0;

  /// Energy-harvesting/churn scenario (scenario/scenario.hpp). Disabled
  /// (the default) keeps the pre-scenario event loop byte-for-byte.
  /// Enabled, a node's battery steps on its LOCAL activation clock: a
  /// down node burns a dormant activation (no train/merge/push/billing)
  /// and polls again after dormant_wait_factor x its training duration,
  /// so its model freezes in place until harvest revives it.
  scenario::ScenarioConfig scenario{};

  /// Deterministic fault plan (fault/fault.hpp). Link faults are drawn at
  /// push time per directed (sender, neighbor) edge on the sender's LOCAL
  /// round: a dropped or CRC-rejected frame never flags the neighbor's
  /// mailbox slot (the merge simply sees no fresh delivery), and a
  /// duplicate lands in the already-flagged slot — absorbed by
  /// construction, so the engine is idempotent to duplicated deliveries.
  /// Crash faults burn dormant activations exactly like scenario churn.
  fault::FaultPlan faults{};
};

class AsyncGossipEngine {
 public:
  /// `train_seconds[i]` is node i's wall-clock duration for one training
  /// activation (derived from its device trace). References must outlive
  /// the engine.
  AsyncGossipEngine(const nn::Sequential& prototype,
                    const data::FederatedData& data,
                    const graph::Topology& topology,
                    const core::RoundScheduler& scheduler,
                    energy::EnergyAccountant accountant,
                    std::vector<double> train_seconds, AsyncConfig config);

  /// Processes events until the simulated clock passes `horizon_seconds`
  /// (cumulative across calls — run_until(10) then run_until(20) works).
  void run_until(double horizon_seconds);

  double now() const { return now_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t total_activations() const { return activations_; }
  std::size_t total_trainings() const { return trainings_; }
  std::size_t local_rounds(std::size_t node) const;

  nn::Sequential& model(std::size_t node) { return nodes_[node]->model(); }
  const energy::EnergyAccountant& accountant() const { return accountant_; }

  /// Battery/churn state when a scenario is enabled; nullptr otherwise.
  const scenario::FleetScenario* scenario() const { return scenario_.get(); }

  /// Lifetime fault telemetry (all zero without a fault plan);
  /// checkpointed and restored, like the sync engine's.
  const fault::FaultStats& fault_stats() const { return fault_stats_; }

  /// Per-phase wall time accumulated by activate() (observational only —
  /// never serialized, never fed back into scheduling). The event loop is
  /// serial, so accumulation is single-writer.
  const obs::PhaseStats& phase_stats() const { return phase_stats_; }

  /// Exact codec wire bytes pushed to outboxes so far (one encoded model
  /// per non-dormant activation).
  std::uint64_t wire_bytes_sent() const { return wire_bytes_; }

  /// Zero-copy view of every node's current model (row i = node i).
  plane::ConstMatrixView node_parameters() const { return models_.view(); }

  /// Serializes the engine's complete mutable state: the simulated clock,
  /// activation/training counters, per-node local round counters, the
  /// model and outbox arenas (row-arena-contiguous blobs), mailbox
  /// freshness flags, the pending event queue, accountant tallies, and
  /// per-node RNG/optimizer state. Part of the fleet-image format
  /// (ckpt/fleet_image; callers normally go through save_fleet_image).
  void save_state(ckpt::ImageWriter& writer) const;

  /// Restores state saved by save_state into an engine constructed with
  /// the SAME parameters. A restored engine continues its event loop
  /// bit-exactly: run_until(H) after restore at time h produces the same
  /// models as an uninterrupted run_until(H). Throws std::runtime_error
  /// when the image does not match this engine's construction — checked
  /// before anything mutates; but a file corrupted PAST its valid
  /// identity prefix can throw mid-restore, leaving this engine's state
  /// unspecified: discard and rebuild it after a restore failure.
  void restore_state(ckpt::ImageReader& reader);

 private:
  detail::EngineIdentity identity() const;

  struct Event {
    double time;
    std::size_t node;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return node > other.node;  // deterministic tie-break
    }
  };

  void activate(std::size_t node);

  const graph::Topology& topology_;
  const core::RoundScheduler& scheduler_;
  energy::EnergyAccountant accountant_;
  std::vector<double> train_seconds_;
  AsyncConfig config_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::size_t> local_round_;

  // Node models live as rows of models_ (zero-copy merge/train); outbox_
  // is the compact staging pool — ONE row per sender holding its most
  // recently pushed model. A push is therefore a single row copy, and a
  // receiver's mailbox entry is just the sender's plane row index plus a
  // freshness flag: fresh_[receiver][slot] (slot order matches
  // topology_.neighbors(receiver)) marks unconsumed deliveries. This
  // replaces the former per-edge n·deg·dim mailbox copies with n·dim
  // staging storage.
  plane::RowArena models_;
  plane::RowArena outbox_;
  std::vector<std::vector<char>> fresh_;

  // The wire codec: the configured codec, or the identity codec when link
  // faults alone need pushes in QuantizedRow form for framing; null on the
  // float32 fast path. A push encodes the model into wire_scratch_; a
  // lossy codec materializes its decode into the sender's outbox row, so
  // every receiver merges the identical decoded image without re-running
  // the codec, and frame_scratch_ holds the payload's CRC32C frame under
  // link faults. The event loop is serial and nothing reads a payload
  // after the push, so ONE scratch pair serves every sender (per-sender
  // payloads would hold ~n·dim dead wire bytes).
  std::unique_ptr<quant::RowCodec> codec_;
  quant::QuantizedRow wire_scratch_;
  std::vector<std::uint8_t> frame_scratch_;
  fault::FaultStats fault_stats_;

  // Scenario state (nullptr when config_.scenario is disabled). The event
  // loop is serial, so batteries step with no synchronization concerns.
  std::unique_ptr<scenario::FleetScenario> scenario_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  double now_ = 0.0;
  std::size_t activations_ = 0;
  std::size_t trainings_ = 0;

  // Telemetry (observational only; excluded from save_state/restore_state
  // so checkpoint images stay byte-identical with telemetry on or off).
  obs::PhaseStats phase_stats_;
  std::uint64_t wire_bytes_ = 0;
  std::size_t row_wire_bytes_ = 0;  // precomputed exact bytes per push
};

}  // namespace skiptrain::sim
