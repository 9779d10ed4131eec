// Deterministic fault-injection plans (ROADMAP: the always-on fleet
// service must "tolerate lost messages, corrupted payloads, and torn
// checkpoints" — this layer provides the seed-derived chaos that proves
// it).
//
// A FaultPlan is a value type parsed from a `faults=` spec — a comma
// list of `kind:value` tokens:
//
//   faults = drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,crash-rounds:3,
//            io:0.2,io-retries:4
//
//   drop:P          per directed link per round, the message is lost
//   corrupt:P       per directed link per round, one wire-frame bit is
//                   flipped; the receiver's CRC32C check turns it into a
//                   drop (counted separately)
//   dup:P           per directed link per round, the message is
//                   delivered twice; receivers are idempotent
//   crash:P         per node per round, the node crash-restarts and
//                   stays down for `crash-rounds` rounds (skips training
//                   and gossip; neighbors degrade via masked aggregation)
//   crash-rounds:N  length of each crash outage (default 3, >= 1)
//   io:P            per checkpoint write attempt, the write fails;
//                   ckpt::atomic_write retries with deterministic
//                   virtual-time backoff up to `io-retries` times
//   io-retries:N    extra attempts after the first failure (default 4)
//
// "none" (or the empty string) disables everything and leaves every
// engine code path bitwise identical to a build without this layer.
//
// Determinism contract: every injected fault is a pure function of
// (experiment seed, round, src, dst) — drawn through counter-based
// stateless hashing, never through shared RNG state — so a fault plan
// produces bit-identical outcomes at any thread count and through
// kill/resume (no fault state needs checkpointing).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace skiptrain::fault {

struct FaultPlan {
  bool enabled = false;

  double drop_prob = 0.0;     // per directed link per round
  double corrupt_prob = 0.0;  // per directed link per round
  double dup_prob = 0.0;      // per directed link per round

  double crash_prob = 0.0;          // per node per round
  std::uint64_t crash_rounds = 3;   // outage length per crash

  double io_fail_prob = 0.0;        // per checkpoint write attempt
  std::uint64_t io_retries = 4;     // extra attempts after first failure

  /// Any per-link fault active (drop/corrupt/dup)?
  [[nodiscard]] bool link_faults() const {
    return enabled &&
           (drop_prob > 0.0 || corrupt_prob > 0.0 || dup_prob > 0.0);
  }

  /// Crash-restart schedule active?
  [[nodiscard]] bool crash_faults() const {
    return enabled && crash_prob > 0.0;
  }

  /// Disk-IO fault schedule active?
  [[nodiscard]] bool io_faults() const {
    return enabled && io_fail_prob > 0.0;
  }

  /// Throws std::invalid_argument when any probability is outside [0, 1]
  /// or a count is zero.
  void validate() const;

  /// Content fingerprint folded into checkpoint identities and trial
  /// fingerprints. 0 when disabled, so fault-free images keep the layout
  /// they had before this subsystem existed.
  [[nodiscard]] std::uint64_t config_hash() const;
};

/// Lifetime delivery/outage telemetry an engine accumulates under a
/// fault plan (all zero without one). Unlike the engine's phase timing,
/// these ARE simulation state — the counts feed the summary CSV — so
/// the engine checkpoints and restores them alongside model state.
struct FaultStats {
  std::uint64_t attempted_deliveries = 0;  // (receiver, alive sender) pairs
  std::uint64_t dropped = 0;               // lost in flight
  std::uint64_t corrupt = 0;               // rejected by CRC check
  std::uint64_t duplicated = 0;            // delivered twice, absorbed
  std::uint64_t crash_down_rounds = 0;     // node-rounds in crash outages

  FaultStats& operator+=(const FaultStats& other) {
    attempted_deliveries += other.attempted_deliveries;
    dropped += other.dropped;
    corrupt += other.corrupt;
    duplicated += other.duplicated;
    crash_down_rounds += other.crash_down_rounds;
    return *this;
  }
};

/// Parses the spec grammar above. "" and "none" yield a disabled plan.
/// Throws std::invalid_argument on unknown kinds or malformed values.
[[nodiscard]] FaultPlan make_plan(const std::string& spec);

/// Canonical display/CSV token for a spec ("" -> "none"; otherwise the
/// spec as given — specs are validated, not normalized).
[[nodiscard]] std::string fault_token(const std::string& spec);

// --- stateless draws -------------------------------------------------------
//
// All draws hash (experiment seed, purpose tag, coordinates) through
// util::hash_combine / util::stateless_uniform; no state, no ordering
// sensitivity.

/// Outcome of one directed link (src -> dst) in one round.
struct LinkDraw {
  bool drop = false;       // message lost in flight
  bool corrupt = false;    // one frame bit flipped in flight
  bool duplicate = false;  // delivered twice
};

[[nodiscard]] LinkDraw link_draw(const FaultPlan& plan, std::uint64_t seed,
                                 std::uint64_t round, std::uint64_t src,
                                 std::uint64_t dst);

/// True when `node` is inside a crash outage at `round`: a crash drawn
/// at any of the `crash_rounds` most recent rounds (including `round`
/// itself) keeps it down. Pure function of (seed, node, round), so an
/// outage needs no checkpointed state.
[[nodiscard]] bool node_down(const FaultPlan& plan, std::uint64_t seed,
                             std::uint64_t node, std::uint64_t round);

/// True when checkpoint write attempt `attempt` (0-based) against the
/// path identified by `path_hash` should fail.
[[nodiscard]] bool io_attempt_fails(const FaultPlan& plan, std::uint64_t seed,
                                    std::uint64_t path_hash,
                                    std::uint64_t attempt);

/// Which bit of a `frame_bytes`-byte wire frame a corrupt draw flips.
[[nodiscard]] std::uint64_t corrupt_bit_index(std::uint64_t seed,
                                              std::uint64_t round,
                                              std::uint64_t src,
                                              std::uint64_t dst,
                                              std::uint64_t frame_bytes);

/// The round engine's per-edge delivery of sender `src`'s round-`round` wire
/// frame (fault/frame.hpp) to `dst`: draws the link's fate, tallies it
/// into `stats`, and on a corrupt draw runs the receiver's CRC32C check
/// over the frame as received (seed-derived bit flipped, checked in
/// place). True when the receiver accepts the frame; a duplicate is only
/// counted, since receivers aggregate each (sender, round) image once.
[[nodiscard]] bool deliver(const FaultPlan& plan, std::uint64_t seed,
                           std::uint64_t round, std::uint64_t src,
                           std::uint64_t dst,
                           std::span<const std::uint8_t> frame,
                           FaultStats& stats);

}  // namespace skiptrain::fault
