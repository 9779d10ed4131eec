// Fixture: a TU cloned through a util/isa.hpp macro, with no
// -ffp-contract=off pin in the (fixture) CMakeLists.txt.
// Expected hits: fp-contract-pin x1.
#include <cstddef>

SKIPTRAIN_CODEC_CLONES
void negate(float* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) values[i] = -values[i];
}
