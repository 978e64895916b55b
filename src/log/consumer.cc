#include "log/consumer.h"

#include "common/clock.h"
#include "common/tracing.h"

#include <chrono>
#include <thread>

namespace sqs {

Status Consumer::Assign(const StreamPartition& sp, int64_t offset) {
  if (!broker_->HasTopic(sp.topic)) return Status::NotFound("no topic: " + sp.topic);
  SQS_ASSIGN_OR_RETURN(nparts, broker_->NumPartitions(sp.topic));
  if (sp.partition < 0 || sp.partition >= nparts) {
    return Status::InvalidArgument("no partition " + sp.ToString());
  }
  positions_[sp] = offset;
  fetch_ready_at_ = -1;
  return Status::Ok();
}

Status Consumer::Unassign(const StreamPartition& sp) {
  if (positions_.erase(sp) == 0) return Status::NotFound("not assigned: " + sp.ToString());
  fetch_ready_at_ = -1;
  return Status::Ok();
}

Result<int64_t> Consumer::Position(const StreamPartition& sp) const {
  auto it = positions_.find(sp);
  if (it == positions_.end()) return Status::NotFound("not assigned: " + sp.ToString());
  return it->second;
}

Status Consumer::Seek(const StreamPartition& sp, int64_t offset) {
  auto it = positions_.find(sp);
  if (it == positions_.end()) return Status::NotFound("not assigned: " + sp.ToString());
  it->second = offset;
  fetch_ready_at_ = -1;
  return Status::Ok();
}

void Consumer::Prefetch() {
  if (fetch_ready_at_ >= 0) return;
  // Sleep: the RTT is wait, not work, so it ends at a deadline the caller
  // can spend processing. Spin charges it as CPU inside Poll() instead.
  fetch_ready_at_ = poll_latency_model_ == Broker::LatencyModel::kSleep
                        ? MonotonicNanos() + poll_latency_nanos_
                        : 0;
}

Result<std::vector<IncomingMessage>> Consumer::Poll() {
  std::vector<IncomingMessage> batch;
  if (positions_.empty()) return batch;
  Tracer& tracer = Tracer::Instance();
  const int64_t poll_start = tracer.enabled() ? MonotonicNanos() : 0;
  Prefetch();
  const int64_t wait = fetch_ready_at_ - MonotonicNanos();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  fetch_ready_at_ = -1;
  if (poll_latency_nanos_ > 0 &&
      poll_latency_model_ == Broker::LatencyModel::kSpin) {
    int64_t until = MonotonicNanos() + poll_latency_nanos_;
    while (MonotonicNanos() < until) {
      // busy-wait: simulated broker RTT must consume measurable CPU time
    }
  }
  // Visit assignments starting from a rotating index so no partition starves
  // when max_poll_messages is reached before visiting them all.
  std::vector<std::map<StreamPartition, int64_t>::iterator> order;
  order.reserve(positions_.size());
  for (auto it = positions_.begin(); it != positions_.end(); ++it) order.push_back(it);
  size_t start = next_start_ % order.size();
  next_start_ = (next_start_ + 1) % order.size();

  int32_t budget = max_poll_messages_;
  for (size_t i = 0; i < order.size() && budget > 0; ++i) {
    auto& [sp, pos] = *order[(start + i) % order.size()];
    int32_t want = budget;
    if (max_fetch_per_partition_ > 0) want = std::min(want, max_fetch_per_partition_);
    std::vector<IncomingMessage> msgs;
    SQS_RETURN_IF_ERROR(retrier_.Run([&]() -> Status {
      auto r = broker_->Fetch(sp, pos, want);
      if (!r.ok()) return r.status();
      msgs = std::move(r).value();
      return Status::Ok();
    }));
    if (msgs.empty()) continue;
    pos += static_cast<int64_t>(msgs.size());
    budget -= static_cast<int32_t>(msgs.size());
    for (auto& m : msgs) batch.push_back(std::move(m));
  }
  if (poll_start != 0) {
    // Attribute the fetch to the first sampled message in the batch; its
    // producer span becomes the parent, so the trace shows log dwell + fetch
    // between append and container processing. Tag = batch size.
    for (const IncomingMessage& im : batch) {
      if (!im.message.trace.valid()) continue;
      Span s;
      s.trace_id = im.message.trace.trace_id;
      s.span_id = tracer.NextSpanId();
      s.parent_span_id = im.message.trace.span_id;
      s.start_ns = poll_start;
      s.duration_ns = MonotonicNanos() - poll_start;
      s.name = "poll";
      s.scope = "consumer";
      s.tag = static_cast<int64_t>(batch.size());
      tracer.Record(std::move(s));
      break;
    }
  }
  Prefetch();
  return batch;
}

Result<bool> Consumer::CaughtUp() const {
  for (const auto& [sp, pos] : positions_) {
    SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp));
    if (pos < end) return false;
  }
  return true;
}

Result<int64_t> Consumer::Lag() const {
  int64_t lag = 0;
  for (const auto& [sp, pos] : positions_) {
    SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp));
    lag += std::max<int64_t>(0, end - pos);
  }
  return lag;
}

Result<std::map<StreamPartition, int64_t>> Consumer::PerPartitionLag() const {
  std::map<StreamPartition, int64_t> lags;
  for (const auto& [sp, pos] : positions_) {
    SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp));
    lags[sp] = std::max<int64_t>(0, end - pos);
  }
  return lags;
}

}  // namespace sqs
