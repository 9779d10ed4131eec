// libFuzzer target: the sweep config-text parser that builds every grid
// (paper presets, config files and CLI overrides alike). Hostile text
// (unknown keys, bad values, descending or unbounded ranges, cross
// products past size_t) must throw, never crash, hang or allocate in
// proportion to a number in the input. The target parses and counts
// trials but never expands the grid, whose size a 16-byte input can make
// astronomical.
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

#include "sweep/config.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const skiptrain::sweep::SweepGrid grid =
        skiptrain::sweep::parse_grid_text(text, "fuzz-input");
    (void)grid.trial_count();
  } catch (const std::exception&) {
  }
  return 0;
}
