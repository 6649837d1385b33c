// Seeded text mutations for the robustness loops over parsed inputs (INI
// files, journal payloads, store records): each input must end in a typed
// error or a clean miss, never undefined behaviour or a crash.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

/// One to three seeded edits: truncation, bit flips, duplicated or deleted
/// lines.
inline std::string mutate(std::string text, RandomEngine& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < edits && !text.empty(); ++k) {
    const std::size_t kind = rng.uniform_index(4);
    if (kind == 0) {
      text.resize(rng.uniform_index(text.size() + 1));
    } else if (kind == 1) {
      text[rng.uniform_index(text.size())] ^=
          static_cast<char>(1U << rng.uniform_index(8));
    } else {
      std::vector<std::string> lines = split(text, '\n');
      const std::size_t at = rng.uniform_index(lines.size());
      if (kind == 2) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      }
      text = join(lines, "\n");
    }
  }
  return text;
}

}  // namespace ompfuzz
