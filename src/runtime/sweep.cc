#include "runtime/sweep.h"

namespace sunflow::runtime {

std::uint64_t TaskSeed(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 over base_seed advanced by task_index + 1 steps' worth of
  // the golden-ratio increment; one finalization round is enough to
  // decorrelate adjacent indices.
  std::uint64_t z = base_seed + (task_index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace sunflow::runtime
