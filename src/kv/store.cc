#include "kv/store.h"

#include "common/clock.h"

namespace sqs {

void LatencyStore::Spin(int64_t nanos) {
  if (nanos <= 0) return;
  int64_t until = MonotonicNanos() + nanos;
  while (MonotonicNanos() < until) {
    // busy-wait: simulated store access must consume real CPU time
  }
}

}  // namespace sqs
