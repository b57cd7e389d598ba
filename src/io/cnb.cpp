#include "io/cnb.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace cn::io {

namespace {

/// Load/store telemetry (DESIGN.md §10), mirroring io.ingest.*.
struct CnbMetrics {
  obs::Counter loads{"io.cnb.loads"};
  obs::Counter loads_failed{"io.cnb.loads_failed"};
  obs::Counter sections_verified{"io.cnb.sections_verified"};
  obs::Counter sections_dropped{"io.cnb.sections_dropped"};
  obs::Counter bytes_read{"io.cnb.bytes_read"};
  obs::Counter writes{"io.cnb.writes"};
  obs::Counter bytes_written{"io.cnb.bytes_written"};
};

CnbMetrics& cnb_metrics() {
  static CnbMetrics* m = new CnbMetrics();  // interned once per process
  return *m;
}

// ---------------------------------------------------------------------
// Header and directory decoding, shared by inspect_cnb and read_cnb. The
// format is defined little-endian (util/bytes.hpp); a big-endian
// producer fails the header's endianness tag, so the reader rejects
// before any column is misread.

struct CnbHeader {
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint32_t section_count = 0;
  std::uint32_t header_bytes = 0;
  std::uint64_t genesis_height = 0;
  std::uint64_t block_count = 0;
  std::uint64_t tx_count = 0;
  std::uint64_t flags = 0;
  std::uint64_t fingerprint = 0;
};

/// @p p holds kCnbHeaderBytes bytes, magic first.
CnbHeader decode_header(const std::uint8_t* p) {
  util::ByteReader r(p + sizeof kCnbMagic, kCnbHeaderBytes - sizeof kCnbMagic);
  CnbHeader h;
  r.u32(h.version);
  r.u32(h.endian);
  r.u32(h.section_count);
  r.u32(h.header_bytes);
  r.u64(h.genesis_height);
  r.u64(h.block_count);
  r.u64(h.tx_count);
  r.u64(h.flags);
  r.u64(h.fingerprint);
  return h;
}

/// One 32-byte directory entry: id, a reserved u32, offset, byte size
/// and checksum.
CnbSectionInfo decode_entry(const std::uint8_t* p) {
  util::ByteReader r(p, 32);
  CnbSectionInfo s;
  std::uint32_t reserved = 0;
  r.u32(s.id);
  r.u32(reserved);
  r.u64(s.offset);
  r.u64(s.byte_size);
  r.u64(s.checksum);
  return s;
}

// ---------------------------------------------------------------------
// Writer-side section assembly.

struct SectionBlob {
  CnbSection id{};
  std::vector<std::uint8_t> bytes;
};

template <typename T>
SectionBlob column(CnbSection id, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  SectionBlob blob{id, {}};
  blob.bytes.resize(v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(blob.bytes.data(), v.data(), blob.bytes.size());
  return blob;
}

/// Concatenated strings as an offsets column plus a byte blob.
std::pair<SectionBlob, SectionBlob> string_column(
    CnbSection offsets_id, CnbSection bytes_id,
    const std::vector<std::string>& strings) {
  std::vector<std::uint64_t> offsets;
  offsets.reserve(strings.size() + 1);
  SectionBlob bytes{bytes_id, {}};
  offsets.push_back(0);
  for (const std::string& s : strings) {
    bytes.bytes.insert(bytes.bytes.end(), s.begin(), s.end());
    offsets.push_back(bytes.bytes.size());
  }
  return {column(offsets_id, offsets), std::move(bytes)};
}

// ---------------------------------------------------------------------
// Reader-side mapping. The RAII wrapper unmaps on scope exit, so every
// early return in read_cnb releases the file — the DatasetHandle only
// ever holds copies.

struct MappedFile {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  ~MappedFile() {
    if (data != nullptr) ::munmap(const_cast<std::uint8_t*>(data), size);
  }
};

template <typename T>
std::vector<T> copy_column(const std::uint8_t* data, std::size_t byte_size) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> v(byte_size / sizeof(T));
  if (!v.empty()) std::memcpy(v.data(), data, v.size() * sizeof(T));
  return v;
}

std::vector<std::vector<std::uint32_t>> split_csr(
    const std::vector<std::uint64_t>& begin,
    const std::vector<std::uint32_t>& values) {
  std::vector<std::vector<std::uint32_t>> out(begin.empty() ? 0
                                                            : begin.size() - 1);
  for (std::size_t i = 0; i + 1 < begin.size(); ++i) {
    out[i].assign(values.begin() + static_cast<std::ptrdiff_t>(begin[i]),
                  values.begin() + static_cast<std::ptrdiff_t>(begin[i + 1]));
  }
  return out;
}

/// begin must be 0-led, non-decreasing, and end at @p total.
bool valid_csr(const std::vector<std::uint64_t>& begin, std::uint64_t count,
               std::uint64_t total) {
  if (begin.size() != count + 1) return false;
  if (begin.front() != 0 || begin.back() != total) return false;
  for (std::size_t i = 0; i + 1 < begin.size(); ++i) {
    if (begin[i] > begin[i + 1]) return false;
  }
  return true;
}

/// Pointer-view variant for columns read straight from the mapping; the
/// caller's take() already guaranteed exactly @p count + 1 elements.
bool valid_csr(const std::uint64_t* begin, std::uint64_t count,
               std::uint64_t total) {
  if (begin == nullptr) return false;
  if (begin[0] != 0 || begin[count] != total) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (begin[i] > begin[i + 1]) return false;
  }
  return true;
}

}  // namespace

const char* to_string(CnbSection section) {
  switch (section) {
    case CnbSection::kBlockMinedAt: return "block-mined-at";
    case CnbSection::kBlockRewardAddr: return "block-reward-addr";
    case CnbSection::kBlockRewardSat: return "block-reward-sat";
    case CnbSection::kBlockTagOffsets: return "block-tag-offsets";
    case CnbSection::kBlockTagBytes: return "block-tag-bytes";
    case CnbSection::kBlockTxBegin: return "block-tx-begin";
    case CnbSection::kTxId: return "tx-id";
    case CnbSection::kTxIssued: return "tx-issued";
    case CnbSection::kTxVsize: return "tx-vsize";
    case CnbSection::kTxFeeSat: return "tx-fee-sat";
    case CnbSection::kTxInBegin: return "tx-in-begin";
    case CnbSection::kInPrevTxid: return "in-prev-txid";
    case CnbSection::kInPrevVout: return "in-prev-vout";
    case CnbSection::kInOwner: return "in-owner";
    case CnbSection::kTxOutBegin: return "tx-out-begin";
    case CnbSection::kOutTo: return "out-to";
    case CnbSection::kOutValueSat: return "out-value-sat";
    case CnbSection::kBlockMerkleRoot: return "block-merkle-root";
    case CnbSection::kSnapTime: return "snap-time";
    case CnbSection::kSnapTxCount: return "snap-tx-count";
    case CnbSection::kSnapVsize: return "snap-vsize";
    case CnbSection::kFirstSeenTxid: return "first-seen-txid";
    case CnbSection::kFirstSeenTime: return "first-seen-time";
    case CnbSection::kWorldSpecFingerprint: return "world-spec-fingerprint";
    case CnbSection::kWorldScamAddress: return "world-scam-address";
    case CnbSection::kWorldAcceleratedTxid: return "world-accelerated-txid";
    case CnbSection::kPoolNameOffsets: return "pool-name-offsets";
    case CnbSection::kPoolNameBytes: return "pool-name-bytes";
    case CnbSection::kPoolsByBlocks: return "pools-by-blocks";
    case CnbSection::kBlockPool: return "block-pool";
    case CnbSection::kBlockFees: return "block-fees";
    case CnbSection::kBlockPpe: return "block-ppe";
    case CnbSection::kTxFeeRate: return "tx-fee-rate";
    case CnbSection::kTxFlags: return "tx-flags";
    case CnbSection::kTxSppe: return "tx-sppe";
    case CnbSection::kOutAddrId: return "out-addr-id";
    case CnbSection::kAddrById: return "addr-by-id";
    case CnbSection::kPoolBlocksBegin: return "pool-blocks-begin";
    case CnbSection::kPoolBlocksIdx: return "pool-blocks-idx";
    case CnbSection::kPoolTxCounts: return "pool-tx-counts";
    case CnbSection::kSelfInterestBegin: return "self-interest-begin";
    case CnbSection::kSelfInterestIdx: return "self-interest-idx";
  }
  return "unknown";
}

std::uint64_t cnb_checksum(const void* data, std::size_t size) noexcept {
  // Four interleaved FNV-1a-64 lanes. A single lane is a serial
  // xor-multiply dependency chain, so folding tops out at one word per
  // multiply latency (~5 cycles); four independent lanes keep the
  // multiplier pipeline full and verify ~4x faster on one core. The
  // lanes start from distinct offsets and fold into one digest (then
  // the byte length), so swapped words across lanes, trailing zero
  // bytes, and truncation all change the sum.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t lane[4] = {kOffset, kOffset ^ 1, kOffset ^ 2, kOffset ^ 3};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, 32);
    lane[0] = (lane[0] ^ w[0]) * kPrime;
    lane[1] = (lane[1] ^ w[1]) * kPrime;
    lane[2] = (lane[2] ^ w[2]) * kPrime;
    lane[3] = (lane[3] ^ w[3]) * kPrime;
  }
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    lane[0] = (lane[0] ^ word) * kPrime;
  }
  if (i < size) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, size - i);
    lane[1] = (lane[1] ^ tail) * kPrime;
  }
  std::uint64_t h = kOffset;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return (h ^ size) * kPrime;
}

std::optional<CnbInfo> inspect_cnb(const std::string& path,
                                   std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CnbInfo> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  std::vector<std::uint8_t> header(kCnbHeaderBytes);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  if (in.gcount() != static_cast<std::streamsize>(header.size())) {
    return fail("file smaller than the CNB1 header");
  }
  if (std::memcmp(header.data(), kCnbMagic, sizeof kCnbMagic) != 0) {
    return fail("bad magic (not a CNB1 file)");
  }
  const CnbHeader h = decode_header(header.data());
  CnbInfo info;
  info.version = h.version;
  info.genesis_height = h.genesis_height;
  info.block_count = h.block_count;
  info.tx_count = h.tx_count;
  info.flags = h.flags;
  info.registry_fingerprint = h.fingerprint;
  if (h.version != kCnbVersion) return fail("unsupported CNB version");
  if (h.endian != kCnbEndianTag) return fail("endianness mismatch");
  if (h.header_bytes < kCnbHeaderBytes) return fail("malformed header size");

  std::error_code ec;
  info.file_size = std::filesystem::file_size(path, ec);
  if (ec) return fail("cannot stat " + path);

  // Validate the directory fits BEFORE sizing anything by section_count:
  // a crafted header with section_count = 0xFFFFFFFF would otherwise
  // drive a ~137 GB reserve straight into std::bad_alloc.
  if (h.header_bytes + 32ull * h.section_count > info.file_size) {
    return fail("directory extends past EOF");
  }

  in.seekg(h.header_bytes);
  std::uint8_t entry[32];
  info.sections.reserve(h.section_count);
  for (std::uint32_t i = 0; i < h.section_count; ++i) {
    in.read(reinterpret_cast<char*>(entry), sizeof entry);
    if (in.gcount() != sizeof entry) return fail("directory extends past EOF");
    info.sections.push_back(decode_entry(entry));
  }
  return info;
}

// ---------------------------------------------------------------------
// Writer.

bool write_cnb(const btc::Chain& chain, const std::string& path,
               const CnbWriteOptions& options, std::string* error) {
  const obs::Span span("io.write_cnb");
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  const std::size_t nb = chain.size();
  const std::uint64_t genesis_height =
      chain.empty() ? chain.next_height() : chain.front().height();

  // --- relational block / tx / input / output columns ---
  std::vector<SimTime> mined_at;
  std::vector<std::uint64_t> reward_addr;
  std::vector<std::int64_t> reward_sat;
  std::vector<std::string> tags;
  std::vector<std::uint64_t> block_tx_begin;
  mined_at.reserve(nb);
  reward_addr.reserve(nb);
  reward_sat.reserve(nb);
  tags.reserve(nb);
  block_tx_begin.reserve(nb + 1);

  std::uint64_t nt = 0;
  block_tx_begin.push_back(0);
  for (const btc::Block& block : chain.blocks()) {
    mined_at.push_back(block.mined_at());
    reward_addr.push_back(block.coinbase().reward_address.value);
    reward_sat.push_back(block.coinbase().reward.value);
    tags.push_back(block.coinbase().tag);
    nt += block.tx_count();
    block_tx_begin.push_back(nt);
  }

  std::vector<btc::Txid> txid;
  std::vector<SimTime> issued;
  std::vector<std::uint32_t> vsize;
  std::vector<std::int64_t> fee;
  std::vector<std::uint64_t> in_begin, out_begin;
  std::vector<btc::Txid> in_prev_txid;
  std::vector<std::uint32_t> in_prev_vout;
  std::vector<std::uint64_t> in_owner;
  std::vector<std::uint64_t> out_to;
  std::vector<std::int64_t> out_value;
  txid.reserve(nt);
  issued.reserve(nt);
  vsize.reserve(nt);
  fee.reserve(nt);
  in_begin.reserve(nt + 1);
  out_begin.reserve(nt + 1);
  in_begin.push_back(0);
  out_begin.push_back(0);
  for (const btc::Block& block : chain.blocks()) {
    for (const btc::Transaction& tx : block.txs()) {
      txid.push_back(tx.id());
      issued.push_back(tx.issued());
      vsize.push_back(tx.vsize());
      fee.push_back(tx.fee().value);
      for (const btc::TxInput& in : tx.inputs()) {
        in_prev_txid.push_back(in.prev_txid);
        in_prev_vout.push_back(in.prev_vout);
        in_owner.push_back(in.owner.value);
      }
      for (const btc::TxOutput& out : tx.outputs()) {
        out_to.push_back(out.to.value);
        out_value.push_back(out.value.value);
      }
      in_begin.push_back(in_prev_txid.size());
      out_begin.push_back(out_to.size());
    }
  }

  std::vector<SectionBlob> sections;
  auto [tag_offsets, tag_bytes] = string_column(
      CnbSection::kBlockTagOffsets, CnbSection::kBlockTagBytes, tags);
  sections.push_back(column(CnbSection::kBlockMinedAt, mined_at));
  sections.push_back(column(CnbSection::kBlockRewardAddr, reward_addr));
  sections.push_back(column(CnbSection::kBlockRewardSat, reward_sat));
  sections.push_back(std::move(tag_offsets));
  sections.push_back(std::move(tag_bytes));
  sections.push_back(column(CnbSection::kBlockTxBegin, block_tx_begin));
  sections.push_back(column(CnbSection::kTxId, txid));
  sections.push_back(column(CnbSection::kTxIssued, issued));
  sections.push_back(column(CnbSection::kTxVsize, vsize));
  sections.push_back(column(CnbSection::kTxFeeSat, fee));
  sections.push_back(column(CnbSection::kTxInBegin, in_begin));
  sections.push_back(column(CnbSection::kInPrevTxid, in_prev_txid));
  sections.push_back(column(CnbSection::kInPrevVout, in_prev_vout));
  sections.push_back(column(CnbSection::kInOwner, in_owner));
  sections.push_back(column(CnbSection::kTxOutBegin, out_begin));
  sections.push_back(column(CnbSection::kOutTo, out_to));
  sections.push_back(column(CnbSection::kOutValueSat, out_value));

  std::uint64_t flags = 0;
  if (!chain.empty() && chain.front().sealed()) {
    // Sealed-header fast path: with the Merkle roots on disk a loader
    // adopts each header instead of re-hashing every txid (the dominant
    // chain-rebuild cost). No prev-hash column — the header chain
    // re-derives it, and Chain::verify_integrity still recomputes roots.
    flags |= kCnbFlagSealedHeaders;
    std::vector<btc::Txid> merkle;
    merkle.reserve(nb);
    for (const btc::Block& block : chain.blocks()) {
      merkle.push_back(block.header().merkle_root);
    }
    sections.push_back(column(CnbSection::kBlockMerkleRoot, merkle));
  }
  if (options.snapshots != nullptr) {
    flags |= kCnbFlagSnapshots;
    std::vector<SimTime> time;
    std::vector<std::uint64_t> tx_count, total_vsize;
    for (const node::MempoolStat& s : options.snapshots->stats()) {
      time.push_back(s.time);
      tx_count.push_back(s.tx_count);
      total_vsize.push_back(s.total_vsize);
    }
    sections.push_back(column(CnbSection::kSnapTime, time));
    sections.push_back(column(CnbSection::kSnapTxCount, tx_count));
    sections.push_back(column(CnbSection::kSnapVsize, total_vsize));
  }
  if (options.first_seen != nullptr) {
    flags |= kCnbFlagFirstSeen;
    // Sorted by txid byte order so the file bytes are reproducible
    // regardless of the source map's iteration order.
    std::vector<std::pair<btc::Txid, SimTime>> rows(
        options.first_seen->begin(), options.first_seen->end());
    std::sort(rows.begin(), rows.end());
    std::vector<btc::Txid> fs_txid;
    std::vector<SimTime> fs_time;
    fs_txid.reserve(rows.size());
    fs_time.reserve(rows.size());
    for (const auto& [id, t] : rows) {
      fs_txid.push_back(id);
      fs_time.push_back(t);
    }
    sections.push_back(column(CnbSection::kFirstSeenTxid, fs_txid));
    sections.push_back(column(CnbSection::kFirstSeenTime, fs_time));
  }
  if (options.world != nullptr) {
    flags |= kCnbFlagSimWorld;
    sections.push_back(column(
        CnbSection::kWorldSpecFingerprint,
        std::vector<std::uint64_t>{options.world->spec_fingerprint}));
    sections.push_back(
        column(CnbSection::kWorldScamAddress,
               std::vector<std::uint64_t>{options.world->scam_address.value}));
    std::vector<btc::Txid> accel = options.world->accelerated_txids;
    std::sort(accel.begin(), accel.end());
    sections.push_back(column(CnbSection::kWorldAcceleratedTxid, accel));
  }
  if (options.dataset != nullptr) {
    flags |= kCnbFlagAuditDataset;
    const core::AuditDataset& ds = *options.dataset;
    const std::size_t np = ds.pool_count();

    std::vector<std::string> pool_names;
    pool_names.reserve(np);
    for (core::PoolId p = 0; p < np; ++p) pool_names.push_back(ds.pool_name(p));
    auto [name_offsets, name_bytes] = string_column(
        CnbSection::kPoolNameOffsets, CnbSection::kPoolNameBytes, pool_names);
    sections.push_back(std::move(name_offsets));
    sections.push_back(std::move(name_bytes));

    const auto span_column = [&sections](CnbSection id, auto span) {
      using T = std::remove_const_t<typename decltype(span)::element_type>;
      sections.push_back(
          column(id, std::vector<T>(span.begin(), span.end())));
    };
    span_column(CnbSection::kPoolsByBlocks, ds.pools_by_blocks());
    span_column(CnbSection::kBlockPool, ds.block_pool());
    span_column(CnbSection::kBlockFees, ds.block_fees());
    span_column(CnbSection::kBlockPpe, ds.block_ppe());
    span_column(CnbSection::kTxFeeRate, ds.fee_rate());
    span_column(CnbSection::kTxFlags, ds.tx_flags());
    span_column(CnbSection::kTxSppe, ds.sppe());

    std::vector<btc::AddressId> out_addr;
    for (core::TxIdx t = 0; t < ds.tx_count(); ++t) {
      const auto addrs = ds.out_addrs_of(t);
      out_addr.insert(out_addr.end(), addrs.begin(), addrs.end());
    }
    sections.push_back(column(CnbSection::kOutAddrId, out_addr));

    std::vector<std::uint64_t> addr_by_id;
    addr_by_id.reserve(ds.addresses().size());
    for (btc::AddressId a = 0; a < ds.addresses().size(); ++a) {
      addr_by_id.push_back(ds.addresses().at(a).value);
    }
    sections.push_back(column(CnbSection::kAddrById, addr_by_id));

    std::vector<std::uint64_t> pool_blocks_begin{0}, self_begin{0};
    std::vector<std::uint32_t> pool_blocks_idx, self_idx;
    std::vector<std::uint64_t> pool_tx_counts;
    for (core::PoolId p = 0; p < np; ++p) {
      const auto blocks = ds.blocks_of_pool(p);
      pool_blocks_idx.insert(pool_blocks_idx.end(), blocks.begin(), blocks.end());
      pool_blocks_begin.push_back(pool_blocks_idx.size());
      const auto txs = ds.self_interest_txs(p);
      self_idx.insert(self_idx.end(), txs.begin(), txs.end());
      self_begin.push_back(self_idx.size());
      pool_tx_counts.push_back(ds.pool_tx_count(p));
    }
    sections.push_back(column(CnbSection::kPoolBlocksBegin, pool_blocks_begin));
    sections.push_back(column(CnbSection::kPoolBlocksIdx, pool_blocks_idx));
    sections.push_back(column(CnbSection::kPoolTxCounts, pool_tx_counts));
    sections.push_back(column(CnbSection::kSelfInterestBegin, self_begin));
    sections.push_back(column(CnbSection::kSelfInterestIdx, self_idx));
  }

  // --- header + directory + payloads ---
  std::vector<std::uint8_t> header(kCnbMagic, kCnbMagic + sizeof kCnbMagic);
  util::ByteWriter hw(header);
  hw.u32(kCnbVersion);
  hw.u32(kCnbEndianTag);
  hw.u32(static_cast<std::uint32_t>(sections.size()));
  hw.u32(kCnbHeaderBytes);
  hw.u64(genesis_height);
  hw.u64(nb);
  hw.u64(nt);
  hw.u64(flags);
  hw.u64(options.dataset != nullptr ? options.registry_fingerprint : 0);

  std::vector<std::uint8_t> directory;
  directory.reserve(sections.size() * 32);
  util::ByteWriter dw(directory);
  std::uint64_t offset = kCnbHeaderBytes + sections.size() * 32;
  for (const SectionBlob& s : sections) {
    dw.u32(static_cast<std::uint32_t>(s.id));
    dw.u32(0);  // reserved
    dw.u64(offset);
    dw.u64(s.bytes.size());
    dw.u64(cnb_checksum(s.bytes.data(), s.bytes.size()));
    offset += (s.bytes.size() + 7) & ~std::uint64_t{7};  // 8-byte aligned
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail("cannot create " + tmp);
    const auto put = [&out](const std::vector<std::uint8_t>& bytes) {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    };
    put(header);
    put(directory);
    static constexpr std::uint8_t kPad[8] = {};
    for (const SectionBlob& s : sections) {
      put(s.bytes);
      const std::size_t pad = (8 - s.bytes.size() % 8) % 8;
      out.write(reinterpret_cast<const char*>(kPad),
                static_cast<std::streamsize>(pad));
    }
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return fail("write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return fail("rename to " + path + " failed");
  }

  CnbMetrics& m = cnb_metrics();
  m.writes.add();
  m.bytes_written.add(offset);
  return true;
}

bool write_cnb(const DatasetHandle& handle, const std::string& path,
               std::string* error) {
  CnbWriteOptions options;
  if (handle.snapshots) options.snapshots = &*handle.snapshots;
  if (handle.first_seen) options.first_seen = &*handle.first_seen;
  if (handle.audit_dataset) {
    options.dataset = &*handle.audit_dataset;
    options.registry_fingerprint = handle.registry_fingerprint;
  }
  if (handle.sim_world) options.world = &*handle.sim_world;
  return write_cnb(handle.chain, path, options, error);
}

// ---------------------------------------------------------------------
// Reader.

namespace {

/// Policy bookkeeping for the load. A defect either poisons just its
/// optional section group (lenient) or the whole load (strict mode, or
/// a defect in a required section).
struct CnbLoad {
  LoadPolicy policy{};
  std::string path;
  LoadReport report;
  bool fatal = false;

  /// Records a defect. @p dir_line is the 1-based directory index (0 =
  /// file level). @p required marks defects lenient mode cannot drop.
  /// Returns false when the load must stop entirely.
  bool defect(LoadErrorKind kind, std::size_t dir_line, std::string detail,
              bool required) {
    report.errors.push_back(
        LoadError{kind, path, dir_line, std::move(detail), false});
    if (policy == LoadPolicy::kStrict || required) {
      fatal = true;
      report.ok = false;
      return false;
    }
    ++report.rows_skipped;
    cnb_metrics().sections_dropped.add();
    return true;
  }
};

/// One recognised, checksum-verified section payload.
struct Verified {
  const std::uint8_t* data = nullptr;
  std::uint64_t size = 0;
  std::size_t dir_line = 0;  ///< 1-based directory index
  bool ok = false;
};

/// Relational sections the chain rebuild cannot do without; lenient
/// mode may only drop the optional groups, so a file-level defect on
/// one of these (e.g. a duplicate directory entry) is always fatal.
bool required_section(std::uint32_t id) {
  return id >= static_cast<std::uint32_t>(CnbSection::kBlockMinedAt) &&
         id <= static_cast<std::uint32_t>(CnbSection::kOutValueSat);
}

}  // namespace

LoadResult<DatasetHandle> read_cnb(const std::string& path,
                                   LoadPolicy policy) {
  const obs::Span span("io.read_cnb");
  LoadResult<DatasetHandle> result;
  CnbLoad load{policy, path, {}, false};
  load.report.policy = policy;
  // Returns an xvalue so every `return finish();` moves the handle out —
  // a plain lvalue reference here would deep-copy the whole chain.
  const auto finish = [&]() -> LoadResult<DatasetHandle>&& {
    CnbMetrics& m = cnb_metrics();
    m.loads.add();
    if (!result.value.has_value()) m.loads_failed.add();
    result.report = std::move(load.report);
    return std::move(result);
  };

  // --- map the file ---
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    load.defect(LoadErrorKind::kFileOpen, 0,
                std::string("cannot open: ") + std::strerror(errno), true);
    return finish();
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    load.defect(LoadErrorKind::kFileOpen, 0, "not a regular file", true);
    return finish();
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kCnbHeaderBytes) {
    ::close(fd);
    load.defect(LoadErrorKind::kTruncatedFile, 0,
                "file smaller than the CNB1 header", true);
    return finish();
  }
  MappedFile map;
  void* raw = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (raw == MAP_FAILED) {
    load.defect(LoadErrorKind::kMmapFailed, 0,
                std::string("mmap: ") + std::strerror(errno), true);
    return finish();
  }
  map.data = static_cast<const std::uint8_t*>(raw);
  map.size = file_size;
  cnb_metrics().bytes_read.add(file_size);

  // --- header ---
  if (std::memcmp(map.data, kCnbMagic, sizeof kCnbMagic) != 0) {
    load.defect(LoadErrorKind::kBadMagic, 0, "not a CNB1 file", true);
    return finish();
  }
  const CnbHeader header = decode_header(map.data);
  const std::uint32_t section_count = header.section_count;
  const std::uint32_t header_bytes = header.header_bytes;
  const std::uint64_t genesis_height = header.genesis_height;
  const std::uint64_t nb = header.block_count;
  const std::uint64_t nt = header.tx_count;
  const std::uint64_t flags = header.flags;
  if (header.version != kCnbVersion) {
    load.defect(LoadErrorKind::kUnsupportedVersion, 0,
                "version " + std::to_string(header.version) + " (reader speaks " +
                    std::to_string(kCnbVersion) + ")",
                true);
    return finish();
  }
  if (header.endian != kCnbEndianTag) {
    load.defect(LoadErrorKind::kUnsupportedVersion, 0,
                "endianness tag mismatch (big-endian producer?)", true);
    return finish();
  }
  if (header_bytes < kCnbHeaderBytes || header_bytes > file_size) {
    load.defect(LoadErrorKind::kSectionLayout, 0, "malformed header size",
                true);
    return finish();
  }
  if (nb > std::numeric_limits<std::uint32_t>::max() ||
      nt >= std::numeric_limits<std::uint32_t>::max()) {
    load.defect(LoadErrorKind::kSectionLayout, 0,
                "block/tx counts exceed the 32-bit ordinal space", true);
    return finish();
  }
  const std::uint64_t dir_end =
      header_bytes + static_cast<std::uint64_t>(section_count) * 32;
  if (dir_end > file_size) {
    load.defect(LoadErrorKind::kTruncatedFile, 0,
                "section directory extends past EOF", true);
    return finish();
  }

  // --- directory: bounds + alignment + checksum pass, in file order, so
  // strict mode reports the first defect the file holds. Unrecognised
  // ids are skipped (forward compatibility). Duplicates keep the first
  // entry; the duplicate itself is a recorded defect — droppable in
  // lenient mode for optional sections, fatal for required ones (and,
  // like any defect, fatal under strict).
  std::map<std::uint32_t, Verified> sections;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const auto [id, offset, byte_size, checksum] =
        decode_entry(map.data + header_bytes + i * 32);
    const std::size_t dir_line = i + 1;
    const char* name = to_string(static_cast<CnbSection>(id));
    if (std::string_view(name) == "unknown") continue;
    if (sections.count(id) != 0) {
      if (!load.defect(LoadErrorKind::kSectionLayout, dir_line,
                       std::string("duplicate section ") + name,
                       required_section(id))) {
        return finish();
      }
      continue;  // keep the first entry, verified earlier in the walk
    }
    Verified v;
    v.dir_line = dir_line;
    if (offset > file_size || byte_size > file_size - offset) {
      if (!load.defect(LoadErrorKind::kTruncatedFile, dir_line,
                       std::string("section ") + name + " extends past EOF",
                       false)) {
        return finish();
      }
      sections.emplace(id, v);  // present but unusable
      continue;
    }
    if (offset % 8 != 0) {
      // The writer 8-byte-aligns every payload; the reader's zero-copy
      // u64/i64/f64 views rely on it, so a misaligned entry in a
      // crafted/corrupt file must never reach a reinterpret_cast.
      if (!load.defect(LoadErrorKind::kSectionLayout, dir_line,
                       std::string("section ") + name +
                           " offset is not 8-byte aligned",
                       false)) {
        return finish();
      }
      sections.emplace(id, v);  // present but unusable
      continue;
    }
    if (cnb_checksum(map.data + offset, byte_size) != checksum) {
      if (!load.defect(LoadErrorKind::kSectionChecksum, dir_line,
                       std::string("section ") + name + " failed its checksum",
                       false)) {
        return finish();
      }
      sections.emplace(id, v);
      continue;
    }
    v.data = map.data + offset;
    v.size = byte_size;
    v.ok = true;
    sections.emplace(id, v);
    ++load.report.rows_read;
    cnb_metrics().sections_verified.add();
  }

  // --- section group extraction ---
  // `take` fetches one section of a group: it must exist, be
  // checksum-clean, and hold a whole number of elements of the declared
  // width (an exact count when one is implied). ANY miss poisons the
  // group unconditionally — group_ok never survives a defect, so later
  // consumers of sibling columns cannot index into a half-loaded group.
  // defect()'s return value only decides whether the whole load aborts:
  // fatal for the required relational group (and everything in strict
  // mode), dropped-with-record for optional groups in lenient mode.
  bool group_ok = true;
  const auto take = [&](CnbSection id, std::size_t elem_size,
                        std::optional<std::uint64_t> count,
                        bool required) -> const Verified* {
    if (load.fatal || !group_ok) return nullptr;
    const char* name = to_string(id);
    const auto it = sections.find(static_cast<std::uint32_t>(id));
    if (it == sections.end()) {
      load.defect(LoadErrorKind::kMissingSection, 0,
                  std::string("section ") + name + " is missing", required);
      group_ok = false;
      return nullptr;
    }
    const Verified& v = it->second;
    if (!v.ok) {  // bounds/alignment/checksum defect already recorded
      group_ok = false;
      if (required) {
        load.fatal = true;
        load.report.ok = false;
      }
      return nullptr;
    }
    const bool size_ok =
        count ? v.size == *count * elem_size : v.size % elem_size == 0;
    if (!size_ok) {
      load.defect(LoadErrorKind::kSectionLayout, v.dir_line,
                  std::string("section ") + name +
                      " has an unexpected byte size",
                  required);
      group_ok = false;
      return nullptr;
    }
    return &v;
  };
  const auto layout_defect = [&](CnbSection id, const std::string& why,
                                 bool required) {
    const auto it = sections.find(static_cast<std::uint32_t>(id));
    const std::size_t line = it == sections.end() ? 0 : it->second.dir_line;
    load.defect(LoadErrorKind::kSectionLayout, line,
                std::string("section ") + to_string(id) + ": " + why,
                required);
    group_ok = false;
  };

  // --- required relational group ---
  group_ok = true;
  DatasetHandle handle;
  handle.format = DatasetFormat::kCnb;
  handle.registry_fingerprint = header.fingerprint;

  // The relational columns are consumed within this call (chain rebuild,
  // intern pass, derived-column copies), so they are read straight out
  // of the verified mapping instead of through intermediate vectors —
  // on one core the extra 40+ MB alloc-and-copy pass was a measurable
  // slice of the load. The directory walk above rejected any section
  // whose offset is not 8-byte aligned, so these views are well-aligned
  // for every element type here; after the required group either
  // load.fatal is set or every view below is non-null.
  const SimTime* mined_at = nullptr;
  const std::uint64_t* reward_addr = nullptr;
  const std::int64_t* reward_sat = nullptr;
  const std::uint64_t* tag_offsets = nullptr;
  const std::uint8_t* tag_bytes = nullptr;
  std::uint64_t tag_bytes_size = 0;
  const std::uint64_t* block_tx_begin = nullptr;
  const btc::Txid* txid = nullptr;
  const SimTime* issued = nullptr;
  const std::uint32_t* vsize = nullptr;
  const std::int64_t* fee = nullptr;
  const std::uint64_t* in_begin = nullptr;
  const std::uint64_t* out_begin = nullptr;
  const btc::Txid* in_prev_txid = nullptr;
  const std::uint32_t* in_prev_vout = nullptr;
  const std::uint64_t* in_owner = nullptr;
  const std::uint64_t* out_to = nullptr;
  const std::int64_t* out_value = nullptr;

  if (const Verified* v = take(CnbSection::kBlockMinedAt, 8, nb, true)) {
    mined_at = reinterpret_cast<const SimTime*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kBlockRewardAddr, 8, nb, true)) {
    reward_addr = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kBlockRewardSat, 8, nb, true)) {
    reward_sat = reinterpret_cast<const std::int64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kBlockTagOffsets, 8, nb + 1, true)) {
    tag_offsets = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kBlockTagBytes, 1, std::nullopt, true)) {
    tag_bytes = v->data;
    tag_bytes_size = v->size;
  }
  if (const Verified* v = take(CnbSection::kBlockTxBegin, 8, nb + 1, true)) {
    block_tx_begin = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxId, 32, nt, true)) {
    txid = reinterpret_cast<const btc::Txid*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxIssued, 8, nt, true)) {
    issued = reinterpret_cast<const SimTime*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxVsize, 4, nt, true)) {
    vsize = reinterpret_cast<const std::uint32_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxFeeSat, 8, nt, true)) {
    fee = reinterpret_cast<const std::int64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxInBegin, 8, nt + 1, true)) {
    in_begin = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  std::uint64_t ni = 0;
  if (!load.fatal && group_ok) {
    if (!valid_csr(in_begin, nt, in_begin[nt])) {
      layout_defect(CnbSection::kTxInBegin, "input CSR is not monotone", true);
    } else {
      ni = in_begin[nt];
    }
  }
  if (const Verified* v = take(CnbSection::kInPrevTxid, 32, ni, true)) {
    in_prev_txid = reinterpret_cast<const btc::Txid*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kInPrevVout, 4, ni, true)) {
    in_prev_vout = reinterpret_cast<const std::uint32_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kInOwner, 8, ni, true)) {
    in_owner = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kTxOutBegin, 8, nt + 1, true)) {
    out_begin = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  std::uint64_t no = 0;
  if (!load.fatal && group_ok) {
    if (!valid_csr(out_begin, nt, out_begin[nt])) {
      layout_defect(CnbSection::kTxOutBegin, "output CSR is not monotone",
                    true);
    } else {
      no = out_begin[nt];
    }
  }
  if (const Verified* v = take(CnbSection::kOutTo, 8, no, true)) {
    out_to = reinterpret_cast<const std::uint64_t*>(v->data);
  }
  if (const Verified* v = take(CnbSection::kOutValueSat, 8, no, true)) {
    out_value = reinterpret_cast<const std::int64_t*>(v->data);
  }
  if (!load.fatal && group_ok) {
    if (!valid_csr(block_tx_begin, nb, nt)) {
      layout_defect(CnbSection::kBlockTxBegin, "block/tx CSR is not monotone",
                    true);
    } else if (tag_offsets[0] != 0 || tag_offsets[nb] != tag_bytes_size ||
               !std::is_sorted(tag_offsets, tag_offsets + nb + 1)) {
      layout_defect(CnbSection::kBlockTagOffsets,
                    "tag offsets disagree with the tag blob", true);
    }
  }
  if (load.fatal) return finish();

  // --- optional: sealed block headers (flag bit 3) ---
  // A dropped section here (lenient) is harmless: the rebuild below
  // falls back to resealing, which recomputes the same roots.
  const btc::Txid* merkle_root = nullptr;
  if (flags & kCnbFlagSealedHeaders) {
    group_ok = true;
    if (const Verified* v =
            take(CnbSection::kBlockMerkleRoot, 32, nb, false)) {
      merkle_root = reinterpret_cast<const btc::Txid*>(v->data);
    }
    if (!group_ok) merkle_root = nullptr;
    if (load.fatal) return finish();
  }

  // --- rebuild the chain (and the interned table, in the same column
  // order the CSV importer interns: rewards, then input owners, then
  // output recipients) ---
  // With stored Merkle roots each append is a header restore; without
  // them it re-seals, re-hashing every txid (the dominant rebuild cost
  // before the fast path).
  handle.chain = btc::Chain(genesis_height);
  for (std::uint64_t b = 0; b < nb; ++b) {
    btc::Coinbase coinbase;
    coinbase.tag.assign(reinterpret_cast<const char*>(tag_bytes) +
                            tag_offsets[b],
                        tag_offsets[b + 1] - tag_offsets[b]);
    coinbase.reward_address = btc::Address{reward_addr[b]};
    coinbase.reward = btc::Satoshi{reward_sat[b]};
    std::vector<btc::Transaction> txs;
    txs.reserve(block_tx_begin[b + 1] - block_tx_begin[b]);
    for (std::uint64_t t = block_tx_begin[b]; t < block_tx_begin[b + 1]; ++t) {
      std::vector<btc::TxInput> inputs;
      inputs.reserve(in_begin[t + 1] - in_begin[t]);
      for (std::uint64_t i = in_begin[t]; i < in_begin[t + 1]; ++i) {
        inputs.push_back(btc::TxInput{in_prev_txid[i], in_prev_vout[i],
                                      btc::Address{in_owner[i]}});
      }
      std::vector<btc::TxOutput> outputs;
      outputs.reserve(out_begin[t + 1] - out_begin[t]);
      for (std::uint64_t o = out_begin[t]; o < out_begin[t + 1]; ++o) {
        outputs.push_back(btc::TxOutput{btc::Address{out_to[o]},
                                        btc::Satoshi{out_value[o]}});
      }
      txs.push_back(btc::Transaction::restore(
          txid[t], issued[t], vsize[t], btc::Satoshi{fee[t]},
          std::move(inputs), std::move(outputs)));
    }
    btc::Block block(genesis_height + b, mined_at[b], std::move(coinbase),
                     std::move(txs));
    if (merkle_root != nullptr) {
      block.restore_header(merkle_root[b], handle.chain.tip_hash());
    }
    handle.chain.append(std::move(block));
  }
  for (std::uint64_t b = 0; b < nb; ++b) {
    handle.addresses.intern(btc::Address{reward_addr[b]});
  }
  for (std::uint64_t i = 0; i < ni; ++i) {
    handle.addresses.intern(btc::Address{in_owner[i]});
  }
  for (std::uint64_t o = 0; o < no; ++o) {
    handle.addresses.intern(btc::Address{out_to[o]});
  }

  // --- optional: snapshots ---
  if (flags & kCnbFlagSnapshots) {
    group_ok = true;
    std::vector<SimTime> time;
    std::vector<std::uint64_t> count, total;
    const Verified* vt = take(CnbSection::kSnapTime, 8, std::nullopt, false);
    if (vt != nullptr) time = copy_column<SimTime>(vt->data, vt->size);
    if (const Verified* v =
            take(CnbSection::kSnapTxCount, 8, time.size(), false)) {
      count = copy_column<std::uint64_t>(v->data, v->size);
    }
    if (const Verified* v =
            take(CnbSection::kSnapVsize, 8, time.size(), false)) {
      total = copy_column<std::uint64_t>(v->data, v->size);
    }
    if (group_ok && !load.fatal) {
      bool increasing = true;
      for (std::size_t i = 0; i + 1 < time.size(); ++i) {
        increasing = increasing && time[i] < time[i + 1];
      }
      if (!increasing) {
        layout_defect(CnbSection::kSnapTime,
                      "snapshot times are not strictly increasing", false);
      }
    }
    if (group_ok && !load.fatal) {
      node::SnapshotSeries series;
      for (std::size_t i = 0; i < time.size(); ++i) {
        series.record(node::MempoolStat{time[i], count[i], total[i]});
      }
      handle.snapshots = std::move(series);
    }
    if (load.fatal) return finish();
  }

  // --- optional: first-seen ---
  // Read from the mapped columns, not from copies: a copy would add 40
  // bytes a transaction to the load's peak RSS, on top of the chain just
  // rebuilt, only to be folded into the map and freed.
  if (flags & kCnbFlagFirstSeen) {
    group_ok = true;
    const Verified* vt =
        take(CnbSection::kFirstSeenTxid, 32, std::nullopt, false);
    const std::uint64_t n = vt != nullptr ? vt->size / 32 : 0;
    const Verified* vs = take(CnbSection::kFirstSeenTime, 8, n, false);
    if (group_ok && !load.fatal) {
      const auto* fs_txid = reinterpret_cast<const btc::Txid*>(vt->data);
      const auto* fs_time = reinterpret_cast<const SimTime*>(vs->data);
      FirstSeenMap first_seen;
      first_seen.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        first_seen.emplace(fs_txid[i], fs_time[i]);
      }
      handle.first_seen = std::move(first_seen);
    }
    if (load.fatal) return finish();
  }

  // --- optional: simulator ground truth (cached worlds) ---
  if (flags & kCnbFlagSimWorld) {
    group_ok = true;
    SimWorldInfo info;
    if (const Verified* v =
            take(CnbSection::kWorldSpecFingerprint, 8, 1, false)) {
      std::memcpy(&info.spec_fingerprint, v->data, 8);
    }
    if (const Verified* v = take(CnbSection::kWorldScamAddress, 8, 1, false)) {
      std::uint64_t addr = 0;
      std::memcpy(&addr, v->data, 8);
      info.scam_address = btc::Address{addr};
    }
    if (const Verified* v =
            take(CnbSection::kWorldAcceleratedTxid, 32, std::nullopt, false)) {
      info.accelerated_txids = copy_column<btc::Txid>(v->data, v->size);
    }
    if (group_ok && !load.fatal) {
      // The sorted order is part of the format contract — the in-memory
      // is_accelerated() binary-searches the stored list directly.
      bool sorted = true;
      for (std::size_t i = 0; i + 1 < info.accelerated_txids.size(); ++i) {
        sorted =
            sorted && !(info.accelerated_txids[i + 1] < info.accelerated_txids[i]);
      }
      if (!sorted) {
        layout_defect(CnbSection::kWorldAcceleratedTxid,
                      "accelerated txids are not sorted", false);
      }
    }
    if (group_ok && !load.fatal) handle.sim_world = std::move(info);
    if (load.fatal) return finish();
  }

  // --- optional: derived audit-dataset columns ---
  if (flags & kCnbFlagAuditDataset) {
    group_ok = true;
    core::AuditDatasetColumns cols;
    std::vector<std::uint64_t> name_offsets;
    std::vector<std::uint8_t> name_bytes;
    std::uint64_t np = 0;
    if (const Verified* v =
            take(CnbSection::kPoolNameOffsets, 8, std::nullopt, false)) {
      name_offsets = copy_column<std::uint64_t>(v->data, v->size);
      if (name_offsets.empty()) {
        layout_defect(CnbSection::kPoolNameOffsets, "empty offsets column",
                      false);
      } else {
        np = name_offsets.size() - 1;
      }
    }
    if (const Verified* v =
            take(CnbSection::kPoolNameBytes, 1, std::nullopt, false)) {
      name_bytes = copy_column<std::uint8_t>(v->data, v->size);
    }
    if (group_ok && !load.fatal &&
        (name_offsets.front() != 0 || name_offsets.back() != name_bytes.size() ||
         !std::is_sorted(name_offsets.begin(), name_offsets.end()))) {
      layout_defect(CnbSection::kPoolNameOffsets,
                    "name offsets disagree with the name blob", false);
    }
    if (const Verified* v = take(CnbSection::kPoolsByBlocks, 4, np, false)) {
      cols.pools_by_blocks = copy_column<core::PoolId>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kBlockPool, 4, nb, false)) {
      cols.block_pool = copy_column<core::PoolId>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kBlockFees, 8, nb, false)) {
      cols.block_fees = copy_column<std::int64_t>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kBlockPpe, 8, nb, false)) {
      cols.block_ppe = copy_column<double>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kTxFeeRate, 8, nt, false)) {
      cols.fee_rate = copy_column<double>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kTxFlags, 1, nt, false)) {
      cols.tx_flags = copy_column<std::uint8_t>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kTxSppe, 8, nt, false)) {
      cols.sppe = copy_column<double>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kOutAddrId, 4, no, false)) {
      cols.out_addr = copy_column<btc::AddressId>(v->data, v->size);
    }
    std::vector<std::uint64_t> addr_by_id;
    if (const Verified* v =
            take(CnbSection::kAddrById, 8, std::nullopt, false)) {
      addr_by_id = copy_column<std::uint64_t>(v->data, v->size);
    }
    std::vector<std::uint64_t> pool_blocks_begin, self_begin;
    std::vector<std::uint32_t> pool_blocks_idx;
    std::vector<core::TxIdx> self_idx;
    if (const Verified* v =
            take(CnbSection::kPoolBlocksBegin, 8, np + 1, false)) {
      pool_blocks_begin = copy_column<std::uint64_t>(v->data, v->size);
    }
    if (const Verified* v =
            take(CnbSection::kPoolBlocksIdx, 4, std::nullopt, false)) {
      pool_blocks_idx = copy_column<std::uint32_t>(v->data, v->size);
    }
    if (const Verified* v = take(CnbSection::kPoolTxCounts, 8, np, false)) {
      cols.pool_tx_counts = copy_column<std::uint64_t>(v->data, v->size);
    }
    if (const Verified* v =
            take(CnbSection::kSelfInterestBegin, 8, np + 1, false)) {
      self_begin = copy_column<std::uint64_t>(v->data, v->size);
    }
    if (const Verified* v =
            take(CnbSection::kSelfInterestIdx, 4, std::nullopt, false)) {
      self_idx = copy_column<core::TxIdx>(v->data, v->size);
    }
    if (group_ok && !load.fatal) {
      if (!valid_csr(pool_blocks_begin, np, pool_blocks_idx.size())) {
        layout_defect(CnbSection::kPoolBlocksBegin,
                      "pool/blocks CSR is not monotone", false);
      } else if (!valid_csr(self_begin, np, self_idx.size())) {
        layout_defect(CnbSection::kSelfInterestBegin,
                      "self-interest CSR is not monotone", false);
      }
    }
    if (group_ok && !load.fatal) {
      const auto in_bounds = [](const auto& v, std::uint64_t limit) {
        return std::all_of(v.begin(), v.end(),
                           [&](std::uint32_t x) { return x < limit; });
      };
      const bool pools_ok = std::all_of(
          cols.block_pool.begin(), cols.block_pool.end(),
          [&](core::PoolId p) { return p < np || p == core::kNoPoolId; });
      if (!in_bounds(cols.pools_by_blocks, np) || !pools_ok ||
          !in_bounds(cols.out_addr, addr_by_id.size()) ||
          !in_bounds(pool_blocks_idx, nb) || !in_bounds(self_idx, nt)) {
        layout_defect(CnbSection::kOutAddrId,
                      "derived column references an out-of-range id", false);
      }
    }
    if (group_ok && !load.fatal) {
      cols.pool_names.reserve(np);
      for (std::uint64_t p = 0; p < np; ++p) {
        cols.pool_names.emplace_back(
            name_bytes.begin() + static_cast<std::ptrdiff_t>(name_offsets[p]),
            name_bytes.begin() +
                static_cast<std::ptrdiff_t>(name_offsets[p + 1]));
      }
      cols.block_height.reserve(nb);
      for (std::uint64_t b = 0; b < nb; ++b) {
        cols.block_height.push_back(genesis_height + b);
      }
      cols.block_mined_at.assign(mined_at, mined_at + nb);
      cols.tx_begin.assign(block_tx_begin, block_tx_begin + nb + 1);
      cols.vsize.assign(vsize, vsize + nt);
      cols.issued.assign(issued, issued + nt);
      cols.txid.assign(txid, txid + nt);
      cols.out_begin.assign(out_begin, out_begin + nt + 1);
      for (const std::uint64_t a : addr_by_id) {
        cols.addresses.intern(btc::Address{a});
      }
      cols.pool_blocks = split_csr(pool_blocks_begin, pool_blocks_idx);
      cols.self_interest = split_csr(self_begin, self_idx);
      handle.audit_dataset = core::AuditDataset::restore(std::move(cols));
    }
    if (load.fatal) return finish();
  }

  result.value = std::move(handle);
  return finish();
}

}  // namespace cn::io
