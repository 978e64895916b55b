// Fused pipeline stage (paper §7 item 5, mainlined): one operator that
// executes a whole Scan <- Filter*/Project* chain plus the stream-insert,
// compiled from a FusedStageSpec. Per record it decodes only the plan's
// referenced columns (lazily, via FusedStageKernel), evaluates predicates on
// the raw decoded scalars with early exit, projects, and re-serializes only
// the surviving columns — for byte-compatible Avro input/output with the
// identity projection it forwards the ORIGINAL value bytes untouched, the
// same zero-copy a hand-written native task does.
//
// With a relation probe (FusedProbeSpec) the stage is a fused stream-
// relation join: after the kernel has run the join's stream input, it looks
// the row up in the join's relation store, decodes the relation row with the
// state serde, applies the residual and the chain above the join, and
// serializes — one stage from the stream bytes to the output bytes. The
// relation side (its scan and the store upsert) stays interpreted.
//
// The stage is message-fed (a SourceOperator) and terminal (it owns the
// send), so a fused plan has no per-operator dispatch on its stream path.
// Stream-stream joins, windows and aggregates keep the classic DAG; the
// router hosts both behind the SourceOperator interface. See
// docs/EXECUTION.md.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "kv/store.h"
#include "ops/join.h"
#include "ops/operator.h"
#include "sql/batch_eval.h"
#include "sql/optimizer.h"

namespace sqs::ops {

class FusedStageOperator : public Operator, public SourceOperator {
 public:
  // `input_serde` decodes the scanned topic; `output_serde` encodes the
  // stage output. `out_key_index` >= 0 hash-partitions output by that
  // column of the output row; otherwise sends preserve the input partition.
  // `relation_serde` decodes the stored relation rows of a probe stage (the
  // join's state serde); unused without a probe. `spec` is shared read-only
  // with every other task of the job.
  FusedStageOperator(std::shared_ptr<const sql::FusedStageSpec> spec,
                     RowSerdePtr input_serde,
                     std::string output_topic, RowSerdePtr output_serde,
                     int out_key_index = -1, RowSerdePtr relation_serde = nullptr)
      : spec_(std::move(spec)),
        input_serde_(std::move(input_serde)),
        topic_(std::move(output_topic)),
        output_serde_(std::move(output_serde)),
        key_index_(out_key_index),
        relation_serde_(std::move(relation_serde)) {}

  std::string name() const override { return "fused"; }

  // Decides passthrough eligibility, compiles the kernel and, for a probe
  // stage, the probe's expressions, and opens the relation store.
  Status Init(OperatorContext& ctx) override;

  // One message: a run of one through ProcessMessages.
  Status ProcessMessage(const IncomingMessage& message,
                        OperatorContext& ctx) override;

  // Batch path: one stage span for the whole run, with child "decode",
  // "probe" (probe stages) and "encode" spans so EXPLAIN ANALYZE's serde
  // share stays meaningful. Evaluates every message first, then sends the
  // survivors in input order (exactly-once sequencing matches per-message
  // replay).
  Status ProcessMessages(const IncomingMessage* msgs, size_t count,
                         OperatorContext& ctx, size_t* consumed) override;

  bool passthrough() const { return passthrough_; }
  const std::string& label() const { return spec_->label; }
  int64_t emitted() const { return emitted_; }

 protected:
  // TupleEvent entry is not used; the stage is fed raw messages.
  Status DoProcess(const TupleEvent&, OperatorContext&) override {
    return Status::Internal("fused stage is message-fed");
  }

 private:
  // What happens to one evaluated message. A residual miss is not counted
  // as dropped, exactly as the interpreted join does not count it.
  enum class Fate : uint8_t { kSend, kDrop, kResidualMiss };

  struct PendingSend {
    Fate fate = Fate::kDrop;
    Row row;  // stage output row (non-passthrough)
  };

  // One output column of a probe stage: a column of the joined row, or an
  // expression over it.
  struct ProbeProjection {
    int column = -1;
    sql::CompiledExpr expr;
  };

  struct Probe {
    JoinKey key;  // over the stream-prefix row
    KeyValueStorePtr table;
    size_t prefix_arity = 0;
    std::optional<sql::CompiledExpr> residual;
    std::vector<sql::CompiledExpr> predicates;
    std::vector<ProbeProjection> projections;  // empty = the joined row
    // False when every output is a plain column: the output row is then
    // built straight from the two halves, with no joined row.
    bool needs_joined_row = true;
  };

  Status CompileProbe(OperatorContext& ctx);
  // Kernel apply for one message; fills `out`.
  Status Evaluate(const IncomingMessage& msg, PendingSend& out);
  // Relation lookup, residual and upper chain for one kernel survivor.
  Status ProbeOne(PendingSend& pending);
  // Serialize (or forward) + send one surviving record.
  Status SendOne(const IncomingMessage& msg, PendingSend& pending,
                 OperatorContext& ctx);

  std::shared_ptr<const sql::FusedStageSpec> spec_;
  RowSerdePtr input_serde_;
  std::string topic_;
  RowSerdePtr output_serde_;
  int key_index_;
  RowSerdePtr relation_serde_;

  sql::FusedStageKernel kernel_;
  std::optional<Probe> probe_;
  bool passthrough_ = false;
  int64_t emitted_ = 0;
};

// True when the stage may forward original value bytes for surviving
// records: no probe, identity projection, Avro on both sides, and
// field-compatible schemas (same kinds/nullability position by position —
// names don't matter, the encoding is positional).
bool FusedStageCanPassthrough(const sql::FusedStageSpec& spec,
                              const RowSerde& input_serde,
                              const RowSerde& output_serde);

}  // namespace sqs::ops
