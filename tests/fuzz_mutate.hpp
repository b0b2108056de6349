// fuzz_mutate.hpp — the seeded byte mutator shared by the mutation-fuzz
// tests (checkpoint payloads, gateway envelope streams, record files).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"

namespace tono {

/// Applies 1–3 random edits to `p`: a bit flip, a byte overwrite, a
/// truncation, an insertion of 1–8 equal bytes, or the deletion or in-place
/// duplication of a range of at most 16 bytes.
inline std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> p, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_below(n == 0 ? 1 : n));
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (pick(6)) {
      case 0:  // flip one bit
        if (!p.empty()) p[pick(p.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        break;
      case 1:  // overwrite one byte
        if (!p.empty()) p[pick(p.size())] = static_cast<std::uint8_t>(pick(256));
        break;
      case 2:  // truncate
        p.resize(pick(p.size() + 1));
        break;
      case 3:  // insert random bytes
        p.insert(p.begin() + static_cast<std::ptrdiff_t>(pick(p.size() + 1)),
                 1 + pick(8), static_cast<std::uint8_t>(pick(256)));
        break;
      case 4: {  // delete a range
        if (p.empty()) break;
        const std::size_t at = pick(p.size());
        const std::size_t n = 1 + pick(std::min<std::size_t>(16, p.size() - at));
        p.erase(p.begin() + static_cast<std::ptrdiff_t>(at),
                p.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      default: {  // duplicate a range in place
        if (p.empty()) break;
        const std::size_t at = pick(p.size());
        const std::size_t n = 1 + pick(std::min<std::size_t>(16, p.size() - at));
        const std::vector<std::uint8_t> range(
            p.begin() + static_cast<std::ptrdiff_t>(at),
            p.begin() + static_cast<std::ptrdiff_t>(at + n));
        p.insert(p.begin() + static_cast<std::ptrdiff_t>(at), range.begin(),
                 range.end());
        break;
      }
    }
  }
  return p;
}

}  // namespace tono
