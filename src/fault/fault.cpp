#include "fault/fault.hpp"

#include <bit>
#include <stdexcept>

#include "fault/frame.hpp"
#include "util/rng.hpp"

namespace skiptrain::fault {
namespace {

// Purpose tags for the stateless draw streams (ASCII mnemonics), so the
// fault streams are independent of every other consumer of the
// experiment seed (scenario, dither, topology, ...).
constexpr std::uint64_t kDropTag = 0x464c545f44524f50ULL;     // "FLT_DROP"
constexpr std::uint64_t kCorruptTag = 0x464c545f434f5252ULL;  // "FLT_CORR"
constexpr std::uint64_t kDupTag = 0x464c545f44555031ULL;      // "FLT_DUP1"
constexpr std::uint64_t kCrashTag = 0x464c545f43525348ULL;    // "FLT_CRSH"
constexpr std::uint64_t kIoTag = 0x464c545f494f4641ULL;       // "FLT_IOFA"
constexpr std::uint64_t kBitTag = 0x464c545f42495431ULL;      // "FLT_BIT1"

std::uint64_t f64_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void require_prob(double value, const char* what) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("faults: ") + what +
                                " must be a probability in [0, 1]");
  }
}

double parse_prob(const std::string& value, const std::string& kind) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    throw std::invalid_argument("faults: bad value '" + value + "' for '" +
                                kind + "' (expected a probability)");
  }
  return parsed;
}

std::uint64_t parse_count(const std::string& value, const std::string& kind) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("faults: bad value '" + value + "' for '" +
                                kind + "' (expected a positive integer)");
  }
  return std::stoull(value);
}

/// Uniform [0,1) draw keyed on (seed ^ tag, a, b).
double draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
            std::uint64_t b) {
  return util::stateless_uniform(util::hash_combine(seed, tag), a, b);
}

}  // namespace

void FaultPlan::validate() const {
  require_prob(drop_prob, "drop");
  require_prob(corrupt_prob, "corrupt");
  require_prob(dup_prob, "dup");
  require_prob(crash_prob, "crash");
  require_prob(io_fail_prob, "io");
  if (crash_rounds == 0) {
    throw std::invalid_argument("faults: crash-rounds must be >= 1");
  }
  if (enabled && drop_prob == 0.0 && corrupt_prob == 0.0 && dup_prob == 0.0 &&
      crash_prob == 0.0 && io_fail_prob == 0.0) {
    throw std::invalid_argument(
        "faults: plan enables no fault (use 'none' to disable)");
  }
}

std::uint64_t FaultPlan::config_hash() const {
  if (!enabled) return 0;
  std::uint64_t hash = 0x4641554c54504c4eULL;  // "FAULTPLN"
  for (const double value : {drop_prob, corrupt_prob, dup_prob, crash_prob,
                             io_fail_prob}) {
    hash = util::hash_combine(hash, f64_bits(value));
  }
  hash = util::hash_combine(hash, crash_rounds);
  hash = util::hash_combine(hash, io_retries);
  return hash;
}

FaultPlan make_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") {
    return plan;  // enabled = false
  }
  plan.enabled = true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) {
      throw std::invalid_argument("faults: empty token in '" + spec + "'");
    }
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= token.size()) {
      throw std::invalid_argument("faults: token '" + token +
                                  "' is not kind:value");
    }
    const std::string kind = token.substr(0, colon);
    const std::string value = token.substr(colon + 1);
    if (kind == "drop") {
      plan.drop_prob = parse_prob(value, kind);
    } else if (kind == "corrupt") {
      plan.corrupt_prob = parse_prob(value, kind);
    } else if (kind == "dup") {
      plan.dup_prob = parse_prob(value, kind);
    } else if (kind == "crash") {
      plan.crash_prob = parse_prob(value, kind);
    } else if (kind == "crash-rounds") {
      plan.crash_rounds = parse_count(value, kind);
    } else if (kind == "io") {
      plan.io_fail_prob = parse_prob(value, kind);
    } else if (kind == "io-retries") {
      plan.io_retries = parse_count(value, kind);
    } else {
      throw std::invalid_argument(
          "faults: unknown kind '" + kind +
          "' (expected drop|corrupt|dup|crash|crash-rounds|io|io-retries)");
    }
  }
  plan.validate();
  return plan;
}

std::string fault_token(const std::string& spec) {
  return spec.empty() ? "none" : spec;
}

LinkDraw link_draw(const FaultPlan& plan, std::uint64_t seed,
                   std::uint64_t round, std::uint64_t src, std::uint64_t dst) {
  LinkDraw result;
  if (!plan.link_faults()) return result;
  const std::uint64_t link = util::hash_combine(src, dst);
  if (plan.drop_prob > 0.0 &&
      draw(seed, kDropTag, round, link) < plan.drop_prob) {
    result.drop = true;
    return result;  // a lost message can be neither corrupted nor duplicated
  }
  if (plan.corrupt_prob > 0.0 &&
      draw(seed, kCorruptTag, round, link) < plan.corrupt_prob) {
    result.corrupt = true;
  }
  if (plan.dup_prob > 0.0 && draw(seed, kDupTag, round, link) < plan.dup_prob) {
    result.duplicate = true;
  }
  return result;
}

bool node_down(const FaultPlan& plan, std::uint64_t seed, std::uint64_t node,
               std::uint64_t round) {
  if (!plan.crash_faults()) return false;
  // Down at `round` iff a crash was drawn at any of the trailing
  // `crash_rounds` rounds. crash_rounds is small (single digits), so the
  // scan stays O(1) per (node, round) — and needs no checkpointed state.
  for (std::uint64_t back = 0; back < plan.crash_rounds && back <= round;
       ++back) {
    if (draw(seed, kCrashTag, node, round - back) < plan.crash_prob) {
      return true;
    }
  }
  return false;
}

bool io_attempt_fails(const FaultPlan& plan, std::uint64_t seed,
                      std::uint64_t path_hash, std::uint64_t attempt) {
  if (!plan.io_faults()) return false;
  return draw(seed, kIoTag, path_hash, attempt) < plan.io_fail_prob;
}

std::uint64_t corrupt_bit_index(std::uint64_t seed, std::uint64_t round,
                                std::uint64_t src, std::uint64_t dst,
                                std::uint64_t frame_bytes) {
  const std::uint64_t bits = frame_bytes * 8;
  if (bits == 0) return 0;
  const double u =
      draw(seed, kBitTag, round, util::hash_combine(src, dst));
  auto index = static_cast<std::uint64_t>(u * static_cast<double>(bits));
  return index >= bits ? bits - 1 : index;
}

bool deliver(const FaultPlan& plan, std::uint64_t seed, std::uint64_t round,
             std::uint64_t src, std::uint64_t dst,
             std::span<const std::uint8_t> frame, FaultStats& stats) {
  ++stats.attempted_deliveries;
  const LinkDraw fate = link_draw(plan, seed, round, src, dst);
  if (fate.drop) {
    ++stats.dropped;
    return false;
  }
  if (fate.duplicate) ++stats.duplicated;
  // CRC32C detects every single-bit error, so a flipped frame cannot pass
  // — but the receiver still runs the check rather than assume.
  if (fate.corrupt &&
      !verify_frame(frame, corrupt_bit_index(seed, round, src, dst,
                                             frame.size()))) {
    ++stats.corrupt;
    return false;
  }
  return true;
}

}  // namespace skiptrain::fault
