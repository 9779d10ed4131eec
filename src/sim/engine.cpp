#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "fault/frame.hpp"
#include "obs/registry.hpp"
#include "sim/state_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::sim {

RoundEngine::RoundEngine(const nn::Sequential& prototype,
                         const data::FederatedData& data,
                         const graph::MixingMatrix& mixing,
                         const core::RoundScheduler& scheduler,
                         energy::EnergyAccountant accountant,
                         EngineConfig config)
    : mixing_(mixing),
      scheduler_(scheduler),
      accountant_(std::move(accountant)),
      config_(config),
      plane_(data.num_nodes(), prototype.num_parameters()),
      staged_(data.num_nodes(),
              std::min(config.sparse_exchange_k, prototype.num_parameters())) {
  const std::size_t n = data.num_nodes();
  if (mixing_.num_nodes() != n) {
    throw std::invalid_argument("RoundEngine: mixing matrix size != nodes");
  }
  if (accountant_.num_nodes() != n) {
    throw std::invalid_argument("RoundEngine: accountant size != nodes");
  }

  // Exchange staging. Each exchange ships a dense row or, masked, the k
  // staged values; row_wire_bytes_ is its exact footprint at the SIMULATED
  // dim (the energy bill stays on the paper's model size; this tally is
  // what the codec actually ships).
  config_.faults.validate();
  const bool lossy = config_.exchange_codec != quant::Codec::kIdentity;
  const bool link_active = config_.faults.link_faults();
  const std::size_t stage_dim =
      config_.sparse_exchange_k == 0 ? plane_.dim() : staged_.dim();
  row_wire_bytes_ =
      quant::exact_row_wire_bytes(config_.exchange_codec, stage_dim);
  if (lossy || link_active) {
    // Without an exchange codec, framing still needs rows in QuantizedRow
    // form: the identity codec packs them, and since its decode is
    // bit-exact, receivers keep reading the staged rows themselves.
    codec_ = quant::make_codec(config_.exchange_codec, config_.seed);
    wire_rows_.resize(n);
  }
  if (lossy) decoded_ = plane::RowArena(n, stage_dim);
  if (link_active) {
    frames_.resize(n);
    link_stats_.resize(n);
    row_wire_bytes_ += fault::kFrameOverheadBytes;
  }

  const nn::SgdOptions sgd{config_.learning_rate, 0.0f, 0.0f};
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, prototype, data.node_view(i),
                                            sgd, config_.seed));
    // Migrate the clone's parameters onto its plane row: from here on the
    // model trains directly in plane storage.
    nodes_[i]->model().bind_parameter_arena(plane_.current().row(i));
  }
  train_flags_.assign(n, 0);
  local_losses_.assign(n, 0.0);

  if (config_.scenario.enabled) {
    // Battery/harvest magnitudes scale from each node's own per-round
    // training energy, so one scenario config fits any workload.
    std::vector<double> train_costs(n);
    for (std::size_t i = 0; i < n; ++i) {
      train_costs[i] = accountant_.training_cost_mwh(i);
    }
    scenario_ = std::make_unique<scenario::FleetScenario>(
        config_.scenario, n, config_.seed, std::move(train_costs));
  }
  if (config_.scenario.enabled || config_.faults.crash_faults()) {
    alive_flags_.assign(n, 1);
  }
}

RoundEngine::RoundOutcome RoundEngine::run_round() {
  const std::size_t t = round_ + 1;  // Algorithm 2 numbers rounds from 1
  const std::size_t n = nodes_.size();

  // Phase 1 — decide + account (serial: the accountant is not locked).
  // Masked exchanges scale the billed model size by the wire fraction
  // k/dim (the mask is seed-derived, so only values travel).
  const std::size_t dim = plane_.dim();
  std::size_t wire_params = accountant_.model_params();
  if (config_.sparse_exchange_k != 0 && dim > 0) {
    const double fraction =
        static_cast<double>(std::min(config_.sparse_exchange_k, dim)) /
        static_cast<double>(dim);
    // llround, not a truncating cast: flooring would bill k=1 exchanges of
    // a small model at zero wire volume.
    wire_params = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(wire_params)));
  }
  RoundOutcome outcome;
  outcome.kind = scheduler_.round_kind(t);
  // Scenario: deliver harvest and apply churn thresholds for round t, then
  // fix this round's liveness mask — serially, so the parallel phases read
  // an immutable snapshot and battery evolution is thread-count-free.
  bool any_down = false;
  const bool crash_active = config_.faults.crash_faults();
  const bool link_active = config_.faults.link_faults();
  const std::uint64_t wire_bytes_before = wire_bytes_;
  fault::FaultStats round_faults;
  std::uint64_t phase_start = obs::now_ns();
  if (scenario_ != nullptr) scenario_->begin_round(t);
  for (std::size_t i = 0; i < n; ++i) {
    bool alive = scenario_ == nullptr || scenario_->alive(i);
    if (alive && crash_active &&
        fault::node_down(config_.faults, config_.seed, i, t)) {
      // Crash-restart outage: the node goes down before it can train or
      // key up its radio — no energy spent, model frozen in place, and
      // neighbors degrade through the masked aggregation below.
      alive = false;
      ++round_faults.crash_down_rounds;
    }
    bool trains =
        alive && scheduler_.should_train(t, i, accountant_.remaining_budget(i));
    if (trains && scenario_ != nullptr &&
        !scenario_->try_spend(i, accountant_.training_cost_mwh(i))) {
      // Training brownout: the battery empties before the local update —
      // the node dies on the spot, its model freezes for this round.
      trains = false;
      alive = false;
      static const obs::Counter brownouts =
          obs::counter("scenario.brownout.train");
      brownouts.add();
    }
    train_flags_[i] = trains ? 1 : 0;
    if (trains) {
      accountant_.record_training(i);
      ++outcome.nodes_trained;
    }
    if (alive && scenario_ != nullptr &&
        !scenario_->try_spend(
            i, config_.sparse_exchange_k == 0
                   ? accountant_.exchange_cost_mwh(i)
                   : accountant_.exchange_cost_mwh(i, wire_params))) {
      // Radio brownout: the local update (if any) survives in the node's
      // row, but it neither sends nor receives this round.
      alive = false;
      static const obs::Counter brownouts =
          obs::counter("scenario.brownout.radio");
      brownouts.add();
    }
    if (!alive_flags_.empty()) {
      alive_flags_[i] = alive ? 1 : 0;
      if (!alive) any_down = true;
    }
    // Sharing happens every round a node is up; compressed exchanges bill
    // fewer bytes. Down nodes exchange nothing and are billed nothing.
    if (alive) {
      if (config_.sparse_exchange_k == 0) {
        accountant_.record_exchange(i);
      } else {
        accountant_.record_exchange(i, wire_params);
      }
      wire_bytes_ += row_wire_bytes_;
    }
  }
  {
    // Serial tally of the round's exact wire footprint (observational).
    static const obs::Counter wire = obs::counter("wire.bytes");
    wire.add(wire_bytes_ - wire_bytes_before);
  }
  obs::note_phase(phase_stats_, obs::Phase::kLiveness, phase_start);

  // Phase 2 — local training, parallel over nodes. Models view their
  // plane rows, so this writes x^{t-1/2} into current() in place;
  // non-training rows already hold x^{t-1}.
  phase_start = obs::now_ns();
  util::parallel_for(0, n, [&](std::size_t i) {
    if (train_flags_[i]) {
      local_losses_[i] =
          nodes_[i]->train_local(config_.local_steps, config_.batch_size);
    }
  });
  obs::note_phase(phase_stats_, obs::Phase::kTrain, phase_start);

  // Phase 3+4 — exchange & aggregate: stage → encode → deliver → aggregate.
  const bool sparse = config_.sparse_exchange_k != 0;
  const bool lossy = config_.exchange_codec != quant::Codec::kIdentity;
  const auto up = [&](std::size_t i) { return !any_down || alive_flags_[i]; };

  // Stage: what each sender ships. Masked exchanges gather the k
  // coordinates of a mask every node derives from the shared seed, so
  // receivers can update in place while reading only pre-update values.
  phase_start = obs::now_ns();
  if (sparse) {
    round_mask_ = core::shared_round_mask(config_.seed, t, dim,
                                          config_.sparse_exchange_k);
    plane::gather_masked_rows(plane_.current().view(), round_mask_,
                              staged_.view());
  }
  const plane::ConstMatrixView sent =
      sparse ? staged_.view() : plane_.current().view();

  // Encode: once per up sender. Receivers consume the decoded wire image
  // x̂_j of a lossy codec; a frame is a lossless serialization of the
  // encoded row, so reading the once-per-sender decode (identity: the
  // staged row itself) is bit-identical to decoding each delivered frame.
  plane::ConstMatrixView received = sent;
  if (codec_ != nullptr) {
    obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
    phase_start = obs::now_ns();
    codec_->begin_round(t);
    util::parallel_for(0, n, [&](std::size_t j) {
      if (!up(j)) return;
      codec_->encode(sent.row(j), wire_rows_[j]);
      if (lossy) codec_->decode(wire_rows_[j], decoded_.row(j));
      if (link_active) fault::encode_frame(wire_rows_[j], frames_[j]);
    });
    if (lossy) received = decoded_.view();
    obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
    phase_start = obs::now_ns();
  }

  // Deliver: edge j → i carries j's image iff j is up and, under link
  // faults, its frame survives the draw and the CRC check. When an edge
  // can be lost, one parallel pass decides every edge into one flag per
  // mixing entry; a down receiver takes nothing. Tallies are per RECEIVER
  // (disjoint parallel writes), folded serially below.
  std::fill(link_stats_.begin(), link_stats_.end(), fault::FaultStats{});
  std::optional<std::span<const std::uint8_t>> delivered;
  if (link_active || any_down) {
    delivered_.resize(mixing_.num_entries());
    delivered = delivered_;
    util::parallel_for(0, n, [&](std::size_t i) {
      std::size_t e = mixing_.entry_offset(i);
      for (const auto& entry : mixing_.neighbor_weights(i)) {
        const std::size_t j = entry.neighbor;
        delivered_[e++] = up(i) && up(j) &&
                          (!link_active ||
                           fault::deliver(config_.faults, config_.seed, t, j,
                                          i, frames_[j], link_stats_[i]));
      }
    });
  }

  // Aggregate. Every form computes
  //   x_i^t = x_i^{t-1/2} + Σ_{delivered j} W_ij (x̂_j^{t-1/2} - x_i^{t-1/2})
  // with a down node's row carried verbatim and an undelivered neighbor's
  // weight mass left on x_i (rows still sum to 1). A node's own values
  // never cross the wire, so its self term stays exact.
  if (sparse) {
    // Masked: only the k masked coordinates of a row change, in place.
    util::parallel_for(0, n, [&](std::size_t i) {
      const auto row = plane_.current().row(i);
      const auto mine = staged_.row(i);
      std::size_t e = mixing_.entry_offset(i);
      for (const auto& entry : mixing_.neighbor_weights(i)) {
        if (delivered && !delivered_[e++]) continue;
        core::accumulate_staged_difference(round_mask_,
                                           received.row(entry.neighbor), mine,
                                           row, entry.weight);
      }
    });
  } else {
    // Dense: one kernel call current() → back(), then flip — the
    // difference form over the flags (lossy links take it every round,
    // even when every edge delivered), else x_i^t = Σ_j W_ji x̂_j^{t-1/2}
    // with the self term kept exact. Then repoint every model's layer
    // views at its new row (pointer swap, no copies).
    plane::apply_mixing_from(mixing_, received, plane_, delivered);
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i]->model().attach_parameter_arena(plane_.current().row(i));
    }
  }
  obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
  for (const fault::FaultStats& stats : link_stats_) round_faults += stats;
  if (config_.faults.enabled) {
    // Registry mirror of the round's fault tallies (observational).
    static const obs::Counter attempted = obs::counter("fault.link.attempted");
    static const obs::Counter dropped = obs::counter("fault.link.dropped");
    static const obs::Counter corrupt = obs::counter("fault.link.corrupt");
    static const obs::Counter duped = obs::counter("fault.link.duplicated");
    static const obs::Counter down = obs::counter("fault.crash_down_rounds");
    attempted.add(round_faults.attempted_deliveries);
    dropped.add(round_faults.dropped);
    corrupt.add(round_faults.corrupt);
    duped.add(round_faults.duplicated);
    down.add(round_faults.crash_down_rounds);
  }
  fault_stats_ += round_faults;

  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (train_flags_[i]) loss_sum += local_losses_[i];
  }
  outcome.mean_local_loss =
      outcome.nodes_trained
          ? loss_sum / static_cast<double>(outcome.nodes_trained)
          : 0.0;

  ++round_;
  return outcome;
}

void RoundEngine::run_rounds(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) run_round();
}

/// Construction identity: restore refuses an image whose run setup
/// differs from this engine's (wrong seed/codec/schedule would silently
/// break the bit-identical resume contract).
detail::EngineIdentity RoundEngine::identity() const {
  // Scenario configuration is part of the identity: resuming a churn run
  // under a different battery/harvest model would silently diverge. So is
  // a non-dense topology (different gossip graph ⇒ different fixed point).
  // Both contribute 0 when inactive, keeping older images byte-compatible.
  std::uint64_t aux =
      scenario_ != nullptr ? scenario_->config_hash() : 0;
  if (config_.topology_hash != 0) {
    aux = util::hash_combine(aux, config_.topology_hash);
  }
  if (config_.faults.enabled) {
    // Same reasoning as the scenario: resuming under a different fault
    // plan would silently change which messages get lost.
    aux = util::hash_combine(aux, config_.faults.config_hash());
  }
  return detail::EngineIdentity{nodes_.size(),
                                plane_.dim(),
                                config_.seed,
                                config_.exchange_codec,
                                config_.sparse_exchange_k,
                                config_.local_steps,
                                config_.batch_size,
                                std::bit_cast<std::uint32_t>(
                                    config_.learning_rate),
                                aux,
                                scheduler_.name()};
}

void RoundEngine::save_state(ckpt::ImageWriter& writer) const {
  detail::write_identity(writer, identity(), round_);
  detail::write_accountant(writer, accountant_);
  // The whole fleet as ONE contiguous blob: row i of current() is node
  // i's x_i^t, and rows are arena-contiguous, so this is a single write
  // (and a single read into the arena on restore).
  writer.f32_blob(plane_.current().view().flat());
  for (const auto& node : nodes_) detail::write_node_state(writer, *node);
  // Scenario battery/churn state rides at the END of the payload, so the
  // scenario-free image layout (and probe_fleet_image's prefix reads) is
  // unchanged; the aux_bits identity check above guarantees a reader only
  // expects this section when the writer produced it.
  if (scenario_ != nullptr) scenario_->save_state(writer);
  if (config_.faults.enabled) detail::write_fault_stats(writer, fault_stats_);
}

void RoundEngine::restore_state(ckpt::ImageReader& reader) {
  const std::uint64_t round =
      detail::read_validated_identity(reader, identity());
  detail::read_accountant(reader, accountant_);
  // One read straight into the live arena; models already view these rows.
  reader.f32_blob(plane_.current().view().flat());
  for (auto& node : nodes_) detail::read_node_state(reader, *node);
  if (scenario_ != nullptr) scenario_->restore_state(reader);
  if (config_.faults.enabled) detail::read_fault_stats(reader, fault_stats_);
  round_ = static_cast<std::size_t>(round);
}

}  // namespace skiptrain::sim
