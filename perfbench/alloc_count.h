// Process-wide allocation counter for the benchmark binaries.
//
// alloc_count.cpp replaces the global operator new/delete family of any
// executable it is linked into: every allocation is counted (calls and
// requested bytes) into one of a fixed set of cache-line-padded slots
// owned by the allocating thread, and then served by malloc. Reading the
// totals sums the slots, so a delta taken around a call counts every
// allocation any thread made meanwhile — exact when nothing else runs,
// as in the single-threaded traced replay.
//
// Frees are not counted: the figures are allocation traffic, not live
// bytes. The counters never alter what is allocated, so results of the
// code under measurement are unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t count = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Totals since process start, summed over every thread.
AllocTotals alloc_totals();

inline AllocTotals operator-(const AllocTotals& a, const AllocTotals& b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench
