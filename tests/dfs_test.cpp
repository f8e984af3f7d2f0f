// Unit tests for the DFS substrate: namespace, block store, placement,
// segments and record readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dfs/block_store.h"
#include "dfs/dfs_namespace.h"
#include "dfs/placement.h"
#include "dfs/reader.h"
#include "dfs/segment.h"

namespace s3::dfs {
namespace {

FileId make_file(DfsNamespace& ns, const std::string& name,
                 std::uint64_t blocks, ByteSize block_size) {
  auto file = ns.create_file(name, block_size);
  EXPECT_TRUE(file.is_ok());
  for (std::uint64_t b = 0; b < blocks; ++b) {
    auto block = ns.append_block(file.value(), block_size);
    EXPECT_TRUE(block.is_ok());
  }
  return file.value();
}

TEST(DfsNamespaceTest, CreateAndLookup) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "a.txt", 4, ByteSize::mib(64));
  EXPECT_TRUE(ns.has_file(id));
  EXPECT_EQ(ns.lookup("a.txt").value(), id);
  EXPECT_FALSE(ns.lookup("b.txt").is_ok());
  EXPECT_EQ(ns.file(id).num_blocks(), 4u);
  EXPECT_EQ(ns.num_files(), 1u);
}

TEST(DfsNamespaceTest, DuplicateNameRejected) {
  DfsNamespace ns;
  make_file(ns, "a.txt", 1, ByteSize::mib(1));
  EXPECT_EQ(ns.create_file("a.txt", ByteSize::mib(1)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(DfsNamespaceTest, ZeroBlockSizeRejected) {
  DfsNamespace ns;
  EXPECT_EQ(ns.create_file("x", ByteSize(0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DfsNamespaceTest, AppendToUnknownFileFails) {
  DfsNamespace ns;
  EXPECT_EQ(ns.append_block(FileId(99), ByteSize(1)).status().code(),
            StatusCode::kNotFound);
}

TEST(DfsNamespaceTest, OversizedBlockRejected) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "a", 0, ByteSize::kib(1));
  EXPECT_EQ(ns.append_block(id, ByteSize::kib(2)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DfsNamespaceTest, BlockMetadataTracksOrder) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "a", 3, ByteSize::kib(4));
  const auto& info = ns.file(id);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const BlockInfo& block = ns.block(info.blocks[i]);
    EXPECT_EQ(block.index_in_file, i);
    EXPECT_EQ(block.file, id);
  }
  EXPECT_EQ(ns.file_size(id), ByteSize::kib(12));
}

TEST(DfsNamespaceTest, ReplicaAssignment) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "a", 1, ByteSize::kib(4));
  const BlockId block = ns.file(id).blocks[0];
  EXPECT_TRUE(ns.set_replicas(block, {NodeId(1), NodeId(2)}).is_ok());
  EXPECT_EQ(ns.block(block).replicas.size(), 2u);
  EXPECT_FALSE(ns.set_replicas(block, {}).is_ok());
  EXPECT_FALSE(ns.set_replicas(BlockId(999), {NodeId(1)}).is_ok());
}

TEST(BlockStoreTest, PutGetRoundTrip) {
  BlockStore store;
  EXPECT_TRUE(store.put(BlockId(1), "hello").is_ok());
  auto payload = store.get(BlockId(1));
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload.value(), "hello");
  EXPECT_TRUE(store.contains(BlockId(1)));
  EXPECT_EQ(store.num_blocks(), 1u);
  EXPECT_EQ(store.total_bytes(), 5u);
}

TEST(BlockStoreTest, BlocksAreImmutable) {
  BlockStore store;
  ASSERT_TRUE(store.put(BlockId(1), "a").is_ok());
  EXPECT_EQ(store.put(BlockId(1), "b").code(), StatusCode::kAlreadyExists);
}

TEST(BlockStoreTest, MissingBlock) {
  BlockStore store;
  EXPECT_EQ(store.get(BlockId(5)).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.contains(BlockId(5)));
}

TEST(BlockStoreTest, CorruptPayloadSurfacesAsDataLossNamingTheBlock) {
  BlockStore store;
  ASSERT_TRUE(store.put(BlockId(7), "precious bytes").is_ok());
  const std::uint32_t recorded = store.checksum(BlockId(7)).value();
  ASSERT_TRUE(store.corrupt_payload_for_test(BlockId(7)).is_ok());

  const auto got = store.get(BlockId(7));
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  // The loss must be attributable (s3lint status-dataloss): the message
  // names the block that failed verification.
  EXPECT_NE(got.status().message().find("block-7"), std::string::npos)
      << got.status().message();
  // The recorded write-time checksum is what the payload no longer matches.
  EXPECT_EQ(store.checksum(BlockId(7)).value(), recorded);
}

TEST(BlockStoreTest, ChecksumErrorsOnUnknownAndEmptyCorruption) {
  BlockStore store;
  EXPECT_EQ(store.checksum(BlockId(1)).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.corrupt_payload_for_test(BlockId(1)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.put(BlockId(2), "").is_ok());
  EXPECT_EQ(store.corrupt_payload_for_test(BlockId(2)).code(),
            StatusCode::kFailedPrecondition);
}

PlacementTopology small_topology() {
  PlacementTopology topo;
  for (std::uint64_t n = 0; n < 6; ++n) {
    topo.nodes.push_back({NodeId(n), RackId(n / 2)});  // 3 racks of 2
  }
  return topo;
}

TEST(RoundRobinPlacementTest, SpreadsEvenly) {
  RoundRobinPlacement policy(small_topology());
  std::vector<int> counts(6, 0);
  for (std::uint64_t b = 0; b < 60; ++b) {
    const auto replicas = policy.place(b, 1);
    ASSERT_EQ(replicas.size(), 1u);
    ++counts[replicas[0].value()];
  }
  for (const int c : counts) EXPECT_EQ(c, 10);
}

TEST(RoundRobinPlacementTest, ReplicasDistinct) {
  RoundRobinPlacement policy(small_topology());
  const auto replicas = policy.place(4, 3);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(std::set<NodeId>(replicas.begin(), replicas.end()).size(), 3u);
}

TEST(RoundRobinPlacementTest, ReplicationCappedAtClusterSize) {
  RoundRobinPlacement policy(small_topology());
  EXPECT_EQ(policy.place(0, 100).size(), 6u);
}

TEST(RackAwarePlacementTest, SecondReplicaOffRack) {
  const auto topo = small_topology();
  RackAwarePlacement policy(topo, 42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto replicas = policy.place(0, 2);
    ASSERT_EQ(replicas.size(), 2u);
    const RackId r0 = topo.nodes[replicas[0].value()].rack;
    const RackId r1 = topo.nodes[replicas[1].value()].rack;
    EXPECT_NE(r0, r1);
  }
}

TEST(RackAwarePlacementTest, ThirdReplicaSameRackAsSecond) {
  const auto topo = small_topology();
  RackAwarePlacement policy(topo, 7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto replicas = policy.place(0, 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(std::set<NodeId>(replicas.begin(), replicas.end()).size(), 3u);
    EXPECT_EQ(topo.nodes[replicas[1].value()].rack,
              topo.nodes[replicas[2].value()].rack);
  }
}

TEST(CircularMathTest, NextAndDistance) {
  EXPECT_EQ(circular_next(0, 5), 1u);
  EXPECT_EQ(circular_next(4, 5), 0u);
  EXPECT_EQ(circular_distance(2, 2, 5), 0u);
  EXPECT_EQ(circular_distance(3, 1, 5), 3u);
  EXPECT_EQ(circular_distance(1, 3, 5), 2u);
}

TEST(SegmentMapTest, EvenSplit) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "f", 12, ByteSize::kib(1));
  SegmentMap segments(ns.file(id), 4);
  EXPECT_EQ(segments.num_segments(), 3u);
  EXPECT_EQ(segments.total_blocks(), 12u);
  for (std::uint64_t s = 0; s < 3; ++s) {
    EXPECT_EQ(segments.segment(s).blocks.size(), 4u);
    EXPECT_EQ(segments.segment(s).index, s);
  }
}

TEST(SegmentMapTest, ShortFinalSegment) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "f", 10, ByteSize::kib(1));
  SegmentMap segments(ns.file(id), 4);
  EXPECT_EQ(segments.num_segments(), 3u);
  EXPECT_EQ(segments.segment(2).blocks.size(), 2u);
}

TEST(SegmentMapTest, SegmentsPartitionTheFile) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "f", 11, ByteSize::kib(1));
  SegmentMap segments(ns.file(id), 3);
  std::vector<BlockId> all;
  for (std::uint64_t s = 0; s < segments.num_segments(); ++s) {
    const auto& blocks = segments.segment(s).blocks;
    all.insert(all.end(), blocks.begin(), blocks.end());
  }
  EXPECT_EQ(all, ns.file(id).blocks);
}

TEST(SegmentMapTest, CircularOrderFromAnySegment) {
  DfsNamespace ns;
  const FileId id = make_file(ns, "f", 20, ByteSize::kib(1));
  SegmentMap segments(ns.file(id), 4);  // k = 5
  EXPECT_EQ(segments.circular_order(0), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(segments.circular_order(3), (std::vector<std::uint64_t>{3, 4, 0, 1, 2}));
}

TEST(LineRecordReaderTest, SplitsLines) {
  auto payload = std::make_shared<const std::string>("one\ntwo\nthree\n");
  LineRecordReader reader(payload);
  Record r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "one");
  EXPECT_EQ(r.offset, 0u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "two");
  EXPECT_EQ(r.offset, 4u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "three");
  EXPECT_FALSE(reader.next(r));
  EXPECT_EQ(reader.records_read(), 3u);
}

TEST(LineRecordReaderTest, NoTrailingNewline) {
  auto payload = std::make_shared<const std::string>("a\nb");
  LineRecordReader reader(payload);
  Record r;
  ASSERT_TRUE(reader.next(r));
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "b");
  EXPECT_FALSE(reader.next(r));
}

TEST(LineRecordReaderTest, EmptyPayload) {
  auto payload = std::make_shared<const std::string>("");
  LineRecordReader reader(payload);
  Record r;
  EXPECT_FALSE(reader.next(r));
}

TEST(LineRecordReaderTest, EmptyLinesPreserved) {
  auto payload = std::make_shared<const std::string>("a\n\nb\n");
  LineRecordReader reader(payload);
  Record r;
  reader.next(r);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "");
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "b");
}

TEST(LineRecordReaderTest, ResetRestarts) {
  auto payload = std::make_shared<const std::string>("x\ny\n");
  LineRecordReader reader(payload);
  Record r;
  reader.next(r);
  reader.reset();
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.data, "x");
  EXPECT_EQ(r.offset, 0u);
}

TEST(SharedScanReaderTest, OnePassManyConsumers) {
  auto payload = std::make_shared<const std::string>("a\nbb\nccc\n");
  SharedScanReader reader(payload);
  std::vector<std::string> seen1, seen2;
  reader.add_consumer([&](RecordChunk chunk) {
    for (const Record& r : chunk) seen1.emplace_back(r.data);
  });
  reader.add_consumer([&](RecordChunk chunk) {
    for (const Record& r : chunk) seen2.emplace_back(r.data);
  });
  EXPECT_EQ(reader.scan(), 3u);
  EXPECT_EQ(seen1, (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_EQ(seen1, seen2);
}

TEST(SharedScanReaderTest, PhysicalVsLogicalBytes) {
  auto payload = std::make_shared<const std::string>(std::string(1000, 'x'));
  SharedScanReader reader(payload);
  for (int i = 0; i < 5; ++i) reader.add_consumer([](RecordChunk) {});
  reader.scan();
  EXPECT_EQ(reader.bytes_physical(), 1000u);
  EXPECT_EQ(reader.bytes_logical(), 5000u);
  EXPECT_EQ(reader.num_consumers(), 5u);
}

// A block of many chunks: short and empty lines, one record longer than a
// chunk, and no trailing newline.
std::string multi_chunk_block() {
  std::string text;
  for (int i = 0; text.size() < 3 * kScanChunkBytes; ++i) {
    text.append(static_cast<std::size_t>(i * 37 % 90),
                static_cast<char>('a' + i % 26));
    text += '\n';
    if (i % 11 == 0) text += '\n';
  }
  text.append(kScanChunkBytes + 500, 'L');
  text += '\n';
  for (int i = 0; i < 200; ++i) text += "line " + std::to_string(i) + '\n';
  text += "unterminated";
  return text;
}

TEST(SharedScanReaderTest, EveryConsumerSeesEveryRecordOnceInOrder) {
  auto payload = std::make_shared<const std::string>(multi_chunk_block());
  std::vector<std::pair<std::uint64_t, std::string>> expected;
  LineRecordReader line_reader(payload);
  Record r;
  while (line_reader.next(r)) expected.emplace_back(r.offset, r.data);

  constexpr int kConsumers = 3;
  SharedScanReader reader(payload);
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> seen(
      kConsumers);
  // (consumer, first offset of the chunk) per call, in call order.
  std::vector<std::pair<int, std::uint64_t>> calls;
  for (int c = 0; c < kConsumers; ++c) {
    reader.add_consumer([&, c](RecordChunk chunk) {
      ASSERT_FALSE(chunk.empty());
      calls.emplace_back(c, chunk.front().offset);
      for (const Record& rec : chunk) {
        seen[c].emplace_back(rec.offset, rec.data);
      }
    });
  }
  EXPECT_EQ(reader.scan(), expected.size());
  for (int c = 0; c < kConsumers; ++c) EXPECT_EQ(seen[c], expected);

  // Member-major: each chunk reaches every consumer, in registration order,
  // before the next chunk starts.
  ASSERT_EQ(calls.size() % kConsumers, 0u);
  EXPECT_GT(calls.size() / kConsumers, 3u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, static_cast<int>(i % kConsumers));
    EXPECT_EQ(calls[i].second, calls[i - i % kConsumers].second);
  }
}

TEST(SharedScanReaderTest, ChunksAreRunsOfWholeRecordsOfAboutOnePage) {
  // Chunk 0 ends on an empty line that brings it to exactly one chunk;
  // chunk 1 starts with an empty line and ends after a record longer than a
  // chunk; the last chunk ends on a record with no newline.
  const std::string first(kScanChunkBytes - 2, 'x');
  const std::string longest(2 * kScanChunkBytes, 'L');
  auto payload = std::make_shared<const std::string>(
      first + "\n\n\nshort\n" + longest + "\nafter\ntail");
  SharedScanReader reader(payload);
  std::vector<std::vector<std::string>> chunks;
  reader.add_consumer([&](RecordChunk chunk) {
    std::vector<std::string>& records = chunks.emplace_back();
    for (const Record& rec : chunk) records.emplace_back(rec.data);
  });
  EXPECT_EQ(reader.scan(), 7u);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (std::vector<std::string>{first, ""}));
  EXPECT_EQ(chunks[1], (std::vector<std::string>{"", "short", longest}));
  EXPECT_EQ(chunks[2], (std::vector<std::string>{"after", "tail"}));
}

TEST(SharedScanReaderTest, EmptyBlockDeliversNoChunk) {
  SharedScanReader reader(std::make_shared<const std::string>());
  int calls = 0;
  reader.add_consumer([&](RecordChunk) { ++calls; });
  EXPECT_EQ(reader.scan(), 0u);
  EXPECT_EQ(calls, 0);
}

// multi_chunk_block() with about a quarter of its bytes turned into spaces:
// words of every length, leading, trailing and repeated spaces, and lines
// of spaces only.
std::string spaced_multi_chunk_block() {
  std::string text = multi_chunk_block();
  Rng rng(7);
  for (char& c : text) {
    if (c != '\n' && rng.uniform_u64(4) == 0) c = ' ';
  }
  return text;
}

using Words = std::vector<std::string>;

TEST(SharedScanReaderTest, ConsumersShareOneWordSplitPerChunk) {
  auto payload = std::make_shared<const std::string>(spaced_multi_chunk_block());
  // The oracle: each record split on its own by the scalar tokenizer.
  std::vector<Words> expected;
  set_tokenize_mode(TokenizeMode::kScalar);
  LineRecordReader line_reader(payload);
  Record r;
  while (line_reader.next(r)) {
    Words& words = expected.emplace_back();
    for_each_word(r.data, [&](std::string_view w) { words.emplace_back(w); });
  }
  set_tokenize_mode(TokenizeMode::kAuto);

  SharedScanReader reader(payload);
  std::vector<const ChunkSplit*> tables;  // one per chunk
  std::vector<std::vector<Words>> seen(2);
  for (int c = 0; c < 2; ++c) {
    reader.add_consumer([&, c](RecordChunk chunk) {
      const ChunkSplit* table = chunk.front().split;
      ASSERT_NE(table, nullptr);
      if (c == 0) {
        // The first consumer to ask splits the chunk; the second reads
        // that split.
        EXPECT_FALSE(table->words_split());
        tables.push_back(table);
      } else {
        EXPECT_EQ(table, tables.back());
        EXPECT_TRUE(table->words_split());
      }
      for (const Record& rec : chunk) {
        EXPECT_EQ(rec.split, table);
        Words& words = seen[c].emplace_back();
        for_each_word(rec, [&](std::string_view w) { words.emplace_back(w); });
      }
    });
  }
  EXPECT_EQ(reader.scan(), expected.size());
  EXPECT_GT(tables.size(), 3u);
  EXPECT_EQ(seen[0], expected);
  EXPECT_EQ(seen[1], expected);

  // The split is lazy: consumers that never ask for words never split.
  SharedScanReader silent(payload);
  int split_seen = 0;
  for (int c = 0; c < 2; ++c) {
    silent.add_consumer([&](RecordChunk chunk) {
      ASSERT_NE(chunk.front().split, nullptr);
      if (chunk.front().split->words_split()) ++split_seen;
    });
  }
  silent.scan();
  EXPECT_EQ(split_seen, 0);

  // A lone consumer's records carry no table and split on their own.
  SharedScanReader solo(payload);
  int with_table = 0;
  std::vector<Words> solo_seen;
  solo.add_consumer([&](RecordChunk chunk) {
    for (const Record& rec : chunk) {
      if (rec.split != nullptr) ++with_table;
      Words& words = solo_seen.emplace_back();
      for_each_word(rec, [&](std::string_view w) { words.emplace_back(w); });
    }
  });
  solo.scan();
  EXPECT_EQ(with_table, 0);
  EXPECT_EQ(solo_seen, expected);
}

// A block of '|'-separated rows over several scan chunks: empty fields,
// leading and trailing '|', rows without '|', empty lines (one of them
// closing a chunk), a row longer than a chunk, and an unterminated last row.
std::string field_rows_block() {
  Rng rng(13);
  auto field = [&]() -> std::string {
    const std::uint64_t pick = rng.uniform_u64(8);
    if (pick == 0) return "";
    return std::string(static_cast<std::size_t>(pick * 3 % 11),
                       static_cast<char>('a' + pick));
  };
  auto row = [&](std::size_t fields) {
    std::string out = field();
    for (std::size_t f = 1; f < fields; ++f) out += '|' + field();
    return out;
  };
  std::string text;
  while (text.size() + 200 < kScanChunkBytes) {
    text += row(1 + rng.uniform_u64(18)) + '\n';
  }
  text += "|leading|\n|\n||\nno separators\ntrailing||\n";
  // A row that ends one byte short of a chunk, so the empty line after it
  // closes the chunk.
  text += std::string(kScanChunkBytes - text.size() - 2, 'x') + "\n\n";
  text += "\n" + row(1200) + '\n';  // longer than a chunk
  for (int i = 0; i < 300; ++i) {
    text += (i % 29 == 0 ? std::string() : row(1 + i % 17)) + '\n';
  }
  text += row(5);
  return text;
}

// The oracle: a record's fields, split on '|' byte by byte.
std::vector<std::string> naive_fields(std::string_view row) {
  std::vector<std::string> fields(1);
  for (const char c : row) {
    if (c == '|') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

std::vector<std::string> owned_fields(const RecordFields& fields) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fields.size(); ++i) out.emplace_back(fields[i]);
  return out;
}

TEST(SharedScanReaderTest, ConsumersShareOneFieldSplitPerChunk) {
  const std::string text = field_rows_block();
  auto payload = std::make_shared<const std::string>(text);
  std::vector<std::vector<std::string>> expected;
  std::vector<std::vector<std::string>> chunks;
  {
    SharedScanReader shape(payload);
    shape.add_consumer([&](RecordChunk chunk) {
      std::vector<std::string>& records = chunks.emplace_back();
      for (const Record& rec : chunk) {
        records.emplace_back(rec.data);
        expected.push_back(naive_fields(rec.data));
      }
    });
    shape.scan();
  }
  // The block has the shape the test is about.
  ASSERT_GE(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].back(), "");
  EXPECT_EQ(chunks[1].front(), "");
  EXPECT_GT(chunks[1][1].size(), kScanChunkBytes);
  EXPECT_EQ(chunks[1].size(), 2u);
  EXPECT_NE(text.back(), '\n');
  const std::size_t widest =
      std::max_element(expected.begin(), expected.end(),
                       [](const auto& a, const auto& b) {
                         return a.size() < b.size();
                       })->size();
  EXPECT_EQ(widest, 1200u);

  SharedScanReader reader(payload);
  std::vector<const ChunkSplit*> tables;  // one per chunk
  std::vector<std::vector<std::vector<std::string>>> seen(2);
  std::vector<FieldScratch> scratch(2);
  for (int c = 0; c < 2; ++c) {
    reader.add_consumer([&, c](RecordChunk chunk) {
      const ChunkSplit* table = chunk.front().split;
      ASSERT_NE(table, nullptr);
      if (c == 0) {
        // The first consumer to ask splits the chunk's fields, and only
        // them; the second reads that split.
        EXPECT_FALSE(table->fields_split());
        tables.push_back(table);
      } else {
        EXPECT_EQ(table, tables.back());
        EXPECT_TRUE(table->fields_split());
      }
      for (const Record& rec : chunk) {
        EXPECT_EQ(rec.split, table);
        seen[c].push_back(owned_fields(fields_of(rec, scratch[c])));
      }
      EXPECT_TRUE(table->fields_split());
      EXPECT_FALSE(table->words_split());
    });
  }
  EXPECT_EQ(reader.scan(), expected.size());
  EXPECT_EQ(tables.size(), chunks.size());
  EXPECT_EQ(seen[0], expected);
  EXPECT_EQ(seen[1], expected);
  // Both read the table; neither split a record in place.
  EXPECT_TRUE(scratch[0].empty());
  EXPECT_TRUE(scratch[1].empty());

  // A lone consumer's records carry no table and split in place, into the
  // one scratch buffer.
  SharedScanReader solo(payload);
  FieldScratch solo_scratch;
  std::vector<std::vector<std::string>> solo_seen;
  int with_table = 0;
  solo.add_consumer([&](RecordChunk chunk) {
    for (const Record& rec : chunk) {
      if (rec.split != nullptr) ++with_table;
      solo_seen.push_back(owned_fields(fields_of(rec, solo_scratch)));
    }
  });
  solo.scan();
  EXPECT_EQ(with_table, 0);
  EXPECT_EQ(solo_seen, expected);
  EXPECT_GE(solo_scratch.capacity(), widest);
}

TEST(SplitFieldsTest, TpchRow) {
  FieldScratch scratch;
  const RecordFields fields = fields_of(Record{0, "1|22|333|4|"}, scratch);
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[2], "333");
  EXPECT_EQ(fields[4], "");
}

}  // namespace
}  // namespace s3::dfs
