#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace skiptrain::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.next();
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Combine current state with the stream id; forks of distinct ids from
  // the same parent are independent streams.
  const std::uint64_t base =
      hash_combine(s_[0] ^ rotl(s_[2], 17), hash_combine(s_[1], stream_id));
  return Rng(hash_combine(base, s_[3] + 0xd1b54a32d192ed03ULL));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::uniform_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] avoids log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

void Rng::skip_normals(std::uint64_t count) {
  if (count != 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --count;
  }
  if (count == 0) return;
  // ceil(count / 2) pairs; all but the last only consume uniforms. u1 is
  // rejected exactly when uniform() is 0, that is when the top 53 bits of
  // its draw are 0.
  for (std::uint64_t pair = 1; pair < (count + 1) / 2; ++pair) {
    while ((next_u64() >> 11) == 0) {
    }
    next_u64();
  }
  normal();
  if (count % 2 == 0) has_cached_normal_ = false;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::fill_normal(std::span<float> out, float mean, float stddev) {
  for (auto& v : out)
    v = static_cast<float>(normal(static_cast<double>(mean),
                                  static_cast<double>(stddev)));
}

void Rng::fill_uniform(std::span<float> out, float lo, float hi) {
  for (auto& v : out) v = lo + (hi - lo) * uniform_float();
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher–Yates: only the first k positions need to be finalized.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng::State Rng::state() const {
  State state;
  for (std::size_t i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::set_state(const State& state) {
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state.s[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

double stateless_uniform(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) {
  SplitMix64 mixer(hash_combine(hash_combine(seed, a), b));
  mixer.next();
  return static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
}

}  // namespace skiptrain::util
