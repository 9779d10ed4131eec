#include "sim/async_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "fault/frame.hpp"
#include "obs/registry.hpp"
#include "sim/state_io.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace skiptrain::sim {

AsyncGossipEngine::AsyncGossipEngine(const nn::Sequential& prototype,
                                     const data::FederatedData& data,
                                     const graph::Topology& topology,
                                     const core::RoundScheduler& scheduler,
                                     energy::EnergyAccountant accountant,
                                     std::vector<double> train_seconds,
                                     AsyncConfig config)
    : topology_(topology),
      scheduler_(scheduler),
      accountant_(std::move(accountant)),
      train_seconds_(std::move(train_seconds)),
      config_(config) {
  const std::size_t n = data.num_nodes();
  if (topology_.num_nodes() != n || train_seconds_.size() != n ||
      accountant_.num_nodes() != n) {
    throw std::invalid_argument("AsyncGossipEngine: size mismatch");
  }
  for (const double seconds : train_seconds_) {
    if (seconds <= 0.0) {
      throw std::invalid_argument(
          "AsyncGossipEngine: training durations must be positive");
    }
  }

  const nn::SgdOptions sgd{config_.learning_rate, 0.0f, 0.0f};
  const std::size_t dim = prototype.num_parameters();
  models_ = plane::RowArena(n, dim);
  outbox_ = plane::RowArena(n, dim);
  config_.faults.validate();
  row_wire_bytes_ = quant::exact_row_wire_bytes(config_.exchange_codec, dim);
  if (config_.exchange_codec != quant::Codec::kIdentity ||
      config_.faults.link_faults()) {
    codec_ = quant::make_codec(config_.exchange_codec, config_.seed);
  }
  if (config_.faults.link_faults()) {
    row_wire_bytes_ += fault::kFrameOverheadBytes;
  }
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, prototype, data.node_view(i),
                                            sgd, config_.seed));
    // The model trains and merges directly in its plane row.
    nodes_[i]->model().bind_parameter_arena(models_.row(i));
  }
  local_round_.assign(n, 0);

  if (config_.scenario.enabled) {
    std::vector<double> train_costs(n);
    for (std::size_t i = 0; i < n; ++i) {
      train_costs[i] = accountant_.training_cost_mwh(i);
    }
    scenario_ = std::make_unique<scenario::FleetScenario>(
        config_.scenario, n, config_.seed, std::move(train_costs));
  }

  fresh_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fresh_[i].assign(topology_.degree(i), 0);
  }

  // Stagger first activations slightly by node id so identical-speed nodes
  // do not activate in lockstep (ε of their period).
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter =
        train_seconds_[i] * 1e-3 * static_cast<double>(i % 97);
    queue_.push(Event{jitter, i});
  }
}

std::size_t AsyncGossipEngine::local_rounds(std::size_t node) const {
  assert(node < local_round_.size());
  return local_round_[node];
}

void AsyncGossipEngine::run_until(double horizon_seconds) {
  // Event-loop health: pending-event depth after each pop, and host wall
  // time per activation (simulated durations never enter either).
  static const obs::Gauge queue_depth = obs::gauge("async.queue_depth");
  static const obs::Histogram latency = obs::hist_ns("async.activate.ns");
  const bool record = obs::enabled();
  while (!queue_.empty() && queue_.top().time <= horizon_seconds) {
    const Event event = queue_.top();
    queue_.pop();
    now_ = event.time;
    if (!record) {
      activate(event.node);
      continue;
    }
    queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    const std::uint64_t start_ns = obs::now_ns();
    activate(event.node);
    latency.record(obs::now_ns() - start_ns);
  }
  now_ = std::max(now_, horizon_seconds);
}

detail::EngineIdentity AsyncGossipEngine::identity() const {
  // Fold the scenario fingerprint and any non-dense topology identity into
  // the aux bits when active; both disabled keeps the original bytes.
  std::uint64_t aux =
      std::bit_cast<std::uint64_t>(config_.sync_duration_factor);
  if (scenario_ != nullptr) {
    aux = util::hash_combine(aux, scenario_->config_hash());
  }
  if (config_.topology_hash != 0) {
    aux = util::hash_combine(aux, config_.topology_hash);
  }
  if (config_.faults.enabled) {
    // Resuming under a different fault plan would silently change which
    // pushes get lost — refuse, like a scenario mismatch.
    aux = util::hash_combine(aux, config_.faults.config_hash());
  }
  return detail::EngineIdentity{nodes_.size(),
                                models_.dim(),
                                config_.seed,
                                config_.exchange_codec,
                                /*sparse_k=*/0,
                                config_.local_steps,
                                config_.batch_size,
                                std::bit_cast<std::uint32_t>(
                                    config_.learning_rate),
                                aux,
                                scheduler_.name()};
}

void AsyncGossipEngine::save_state(ckpt::ImageWriter& writer) const {
  detail::write_identity(writer, identity(), activations_);
  detail::write_accountant(writer, accountant_);
  writer.f64(now_);
  writer.u64(trainings_);
  writer.u64_vec(local_round_);
  // Fleet model rows and the per-sender outbox rows, each as one
  // contiguous blob.
  writer.f32_blob(models_.view().flat());
  writer.f32_blob(outbox_.view().flat());
  for (const auto& fresh : fresh_) {
    writer.u64(fresh.size());
    if (!fresh.empty()) writer.bytes(fresh.data(), fresh.size());
  }
  // Pending activations, drained from a copy of the queue in pop order
  // (ascending (time, node) — deterministic for a given engine state).
  auto queue = queue_;
  writer.u64(queue.size());
  while (!queue.empty()) {
    writer.f64(queue.top().time);
    writer.u64(queue.top().node);
    queue.pop();
  }
  for (const auto& node : nodes_) detail::write_node_state(writer, *node);
  // Scenario battery/churn state rides at the END of the payload — the
  // scenario-free image layout is unchanged, and the aux_bits identity
  // check guarantees reader and writer agree on this section's presence.
  if (scenario_ != nullptr) scenario_->save_state(writer);
  if (config_.faults.enabled) detail::write_fault_stats(writer, fault_stats_);
}

void AsyncGossipEngine::restore_state(ckpt::ImageReader& reader) {
  const std::size_t n = nodes_.size();
  const std::uint64_t activations =
      detail::read_validated_identity(reader, identity());
  detail::read_accountant(reader, accountant_);
  const double now = reader.f64();
  const std::uint64_t trainings = reader.u64();
  std::vector<std::size_t> local_round = reader.u64_vec();
  if (local_round.size() != n) {
    throw std::runtime_error("fleet image: local round counter count " +
                             std::to_string(local_round.size()) +
                             " != node count " + std::to_string(n));
  }
  reader.f32_blob(models_.view().flat());
  reader.f32_blob(outbox_.view().flat());
  std::vector<std::vector<char>> fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t slots = reader.u64();
    if (slots != topology_.degree(i)) {
      throw std::runtime_error(
          "fleet image: node " + std::to_string(i) + " has " +
          std::to_string(slots) + " mailbox slots, topology expects " +
          std::to_string(topology_.degree(i)));
    }
    fresh[i].resize(static_cast<std::size_t>(slots));
    if (slots != 0) reader.bytes(fresh[i].data(), fresh[i].size());
  }
  const std::uint64_t pending = reader.u64();
  if (pending > n) {
    // Every node has exactly one pending activation (pushed at
    // construction or at the end of its last activation).
    throw std::runtime_error("fleet image: " + std::to_string(pending) +
                             " pending events for " + std::to_string(n) +
                             " nodes");
  }
  decltype(queue_) queue;
  for (std::uint64_t i = 0; i < pending; ++i) {
    Event event{};
    event.time = reader.f64();
    event.node = static_cast<std::size_t>(reader.u64());
    if (event.node >= n) {
      throw std::runtime_error("fleet image: event for node " +
                               std::to_string(event.node) +
                               " out of range");
    }
    queue.push(event);
  }
  for (auto& node : nodes_) detail::read_node_state(reader, *node);
  if (scenario_ != nullptr) scenario_->restore_state(reader);
  if (config_.faults.enabled) detail::read_fault_stats(reader, fault_stats_);

  activations_ = static_cast<std::size_t>(activations);
  trainings_ = static_cast<std::size_t>(trainings);
  now_ = now;
  local_round_ = std::move(local_round);
  fresh_ = std::move(fresh);
  queue_ = std::move(queue);
}

void AsyncGossipEngine::activate(std::size_t node) {
  ++activations_;
  const std::size_t t = ++local_round_[node];

  // 0. Scenario: harvest arrives on the node's local clock, then churn
  // thresholds apply. A down node burns a dormant activation — no work,
  // no billing, model frozen in its row — and polls again later.
  if (scenario_ != nullptr) {
    const std::uint64_t phase_start = obs::now_ns();
    scenario_->step_node(node, t);
    const bool alive = scenario_->alive(node);
    obs::note_phase(phase_stats_, obs::Phase::kLiveness, phase_start);
    if (!alive) {
      queue_.push(Event{now_ + train_seconds_[node] *
                                   config_.scenario.dormant_wait_factor,
                        node});
      return;
    }
  }

  // Crash-restart outage drawn on the node's LOCAL round: burn a dormant
  // activation (no train/merge/push/billing, model frozen in its row) and
  // poll again after a full training period.
  if (config_.faults.crash_faults() &&
      fault::node_down(config_.faults, config_.seed, node, t)) {
    ++fault_stats_.crash_down_rounds;
    queue_.push(Event{now_ + train_seconds_[node], node});
    return;
  }

  // 1-2. Local training decision on the node's own round counter.
  bool trains =
      scheduler_.should_train(t, node, accountant_.remaining_budget(node));
  if (trains && scenario_ != nullptr &&
      !scenario_->try_spend(node, accountant_.training_cost_mwh(node))) {
    // Training brownout: the battery empties before the update — the
    // node dies on the spot and goes dormant without touching its model.
    queue_.push(Event{now_ + train_seconds_[node] *
                                 config_.scenario.dormant_wait_factor,
                      node});
    return;
  }
  if (trains) {
    accountant_.record_training(node);
    const std::uint64_t phase_start = obs::now_ns();
    nodes_[node]->train_local(config_.local_steps, config_.batch_size);
    obs::note_phase(phase_stats_, obs::Phase::kTrain, phase_start);
    ++trainings_;
  }

  // Radio brownout: the local update (if any) survives in the node's
  // row, but it neither merges nor pushes this activation.
  if (scenario_ != nullptr &&
      !scenario_->try_spend(node, accountant_.exchange_cost_mwh(node))) {
    queue_.push(Event{now_ + train_seconds_[node] *
                                 config_.scenario.dormant_wait_factor,
                      node});
    return;
  }

  // 3. Merge fresh neighbor models: uniform average over self + fresh,
  // computed in place on this node's plane row. A fresh delivery is read
  // straight from the sender's outbox row — no per-edge copies exist.
  std::uint64_t phase_start = obs::now_ns();
  const auto mine = models_.row(node);
  std::size_t contributors = 1;
  const auto& neighbors = topology_.neighbors(node);
  auto& fresh = fresh_[node];
  for (std::size_t s = 0; s < neighbors.size(); ++s) {
    if (!fresh[s]) continue;
    const auto theirs = outbox_.row(neighbors[s]);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      mine[k] += theirs[k];
    }
    fresh[s] = 0;
    ++contributors;
  }
  if (contributors > 1) {
    const float inv = 1.0f / static_cast<float>(contributors);
    tensor::scale(mine, inv);
  }

  // 4. Push the merged model: ONE copy into this node's outbox row, then
  // flag the delivery at every neighbor (they read the row on merge).
  // A lossy codec's outbox row holds the decode of the encoded payload —
  // the wire image all receivers merge.
  accountant_.record_exchange(node);
  wire_bytes_ += row_wire_bytes_;
  {
    static const obs::Counter wire = obs::counter("wire.bytes");
    wire.add(row_wire_bytes_);
  }
  const bool lossy = config_.exchange_codec != quant::Codec::kIdentity;
  const bool link_active = config_.faults.link_faults();
  if (!lossy) tensor::copy(mine, outbox_.row(node));
  if (codec_ != nullptr) {
    // The event loop is serial, so the per-sender round id is stable: use
    // the node's local round as the dither stream.
    obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
    phase_start = obs::now_ns();
    codec_->begin_round(t);
    codec_->encode(mine, wire_scratch_);
    if (lossy) codec_->decode(wire_scratch_, outbox_.row(node));
    // One frame per push; every directed link draws its fate against it.
    if (link_active) fault::encode_frame(wire_scratch_, frame_scratch_);
    obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
    phase_start = obs::now_ns();
  }
  for (const std::size_t peer : neighbors) {
    // A duplicate lands in the mailbox slot the first copy already
    // flagged — absorbed by construction, only counted.
    if (link_active &&
        !fault::deliver(config_.faults, config_.seed, t, node, peer,
                        frame_scratch_, fault_stats_)) {
      continue;
    }
    // Find this node's slot at the peer (neighbor lists are sorted).
    const auto& peer_neighbors = topology_.neighbors(peer);
    const auto it = std::lower_bound(peer_neighbors.begin(),
                                     peer_neighbors.end(), node);
    fresh_[peer][static_cast<std::size_t>(it - peer_neighbors.begin())] = 1;
  }
  obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);

  // 5. Schedule the next activation.
  const double duration =
      trains ? train_seconds_[node]
             : train_seconds_[node] * config_.sync_duration_factor;
  queue_.push(Event{now_ + duration, node});
}

}  // namespace skiptrain::sim
