// TPC-H lineitem substitute (§V-G): a deterministic 16-column lineitem row
// generator in the standard '|'-delimited text format, plus the paper's
// selection workload — a SQL-like predicate picking ~10 % of tuples
// (l_quantity is uniform over 1..50, so "l_quantity <= 5" selects 10 %).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "dfs/block_store.h"
#include "dfs/dfs_namespace.h"
#include "dfs/placement.h"
#include "dfs/reader.h"
#include "engine/job.h"
#include "engine/mapper.h"

namespace s3::workloads::tpch {

// Column indexes of the lineitem text format.
enum Column : int {
  kOrderKey = 0,
  kPartKey,
  kSuppKey,
  kLineNumber,
  kQuantity,
  kExtendedPrice,
  kDiscount,
  kTax,
  kReturnFlag,
  kLineStatus,
  kShipDate,
  kCommitDate,
  kReceiptDate,
  kShipInstruct,
  kShipMode,
  kComment,
  kNumColumns,
};

class LineitemGenerator {
 public:
  explicit LineitemGenerator(std::uint64_t seed = 7);

  // One '|'-delimited row; deterministic in (seed, row_index).
  [[nodiscard]] std::string row(std::uint64_t row_index) const;

  // One block payload of rows, about `bytes` long, starting at a row index
  // derived from the block index (so blocks are independent).
  [[nodiscard]] std::string generate_block(std::uint64_t block_index,
                                           ByteSize bytes) const;

  [[nodiscard]] StatusOr<FileId> generate_file(
      dfs::DfsNamespace& ns, dfs::BlockStore& store,
      dfs::PlacementPolicy& placement, const std::string& name,
      std::uint64_t num_blocks, ByteSize block_size,
      int replication = 1) const;

 private:
  std::uint64_t seed_;
};

// SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem
// WHERE l_quantity <= max_quantity;   (max_quantity = 5 → ~10 % selectivity)
class SelectionMapper final : public engine::Mapper {
 public:
  explicit SelectionMapper(int max_quantity = 5);
  void map(const dfs::Record& record, engine::Emitter& out) override;

 private:
  int max_quantity_;
  // Reused field positions of a record split in place (dfs::fields_of).
  dfs::FieldScratch fields_;
  std::string key_buf_;    // reused "orderkey:linenumber" scratch
  std::string value_buf_;  // reused "quantity|price" scratch
};

// Pass-through reducer (selection has no aggregation); emits each value.
class IdentityReducer final : public engine::Reducer {
 public:
  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Emitter& out) override;
};

[[nodiscard]] engine::JobSpec make_selection_job(JobId id, FileId input,
                                                 int max_quantity,
                                                 std::uint32_t reduce_tasks);

}  // namespace s3::workloads::tpch
