#include "moving/block_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "moving/block_codec.h"
#include "obs/metrics.h"

namespace piet::moving {

namespace {

constexpr char kMagic[8] = {'P', 'I', 'E', 'T', 'B', 'L', 'K', '1'};
constexpr uint32_t kVersion = 1;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t compressed;
  uint64_t total_rows;
  uint64_t total_spans;
  uint64_t num_blocks;
};

struct DirEntry {
  uint64_t payload_offset;
  uint64_t payload_size;
  uint64_t row_begin;
  uint64_t row_end;
  uint64_t span_begin;
  uint64_t span_end;
  int64_t oid_min;
  int64_t oid_max;
  double t_min;
  double t_max;
  double x_min;
  double x_max;
  double y_min;
  double y_max;
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? static_cast<size_t>(parsed)
                                          : fallback;
}

}  // namespace

BlockOptions BlockOptions::FromEnv() {
  static const BlockOptions cached = [] {
    BlockOptions opts;
    opts.block_rows = EnvSize("PIET_BLOCK_ROWS", opts.block_rows);
    const char* compress = std::getenv("PIET_COMPRESS");
    opts.compress = compress != nullptr && compress[0] == '1';
    if (const char* dir = std::getenv("PIET_SPILL_DIR");
        dir != nullptr && *dir != '\0') {
      opts.spill_dir = dir;
    }
    return opts;
  }();
  return cached;
}

/// Owns one mmap'ed read-only file; blocks hold string_views into it.
class MoftBlockStore::MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
    if (fd < 0) {
      return Status::IoError("open '" + path + "': " + std::strerror(errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return Status::IoError("stat '" + path + "' failed or empty file");
    }
    void* base =
        ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
               MAP_PRIVATE, fd, 0);
    ::close(fd);  // The mapping keeps the file alive.
    if (base == MAP_FAILED) {
      return Status::IoError("mmap '" + path + "': " + std::strerror(errno));
    }
    auto file = std::make_shared<MappedFile>();
    file->base_ = static_cast<const char*>(base);
    file->size_ = static_cast<size_t>(st.st_size);
    return file;
  }

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (base_ != nullptr) {
      ::munmap(const_cast<char*>(base_), size_);
    }
  }

  std::string_view View(size_t offset, size_t size) const {
    return {base_ + offset, size};
  }
  size_t size() const { return size_; }

 private:
  const char* base_ = nullptr;
  size_t size_ = 0;
};

BlockMeta MoftBlockStore::ComputeMeta(const MoftColumns& cols,
                                      size_t span_begin, size_t span_end) {
  BlockMeta m;
  m.span_begin = span_begin;
  m.span_end = span_end;
  m.row_begin = cols.spans[span_begin].begin;
  m.row_end = cols.spans[span_end - 1].end;
  m.oid_min = cols.spans[span_begin].oid;
  m.oid_max = cols.spans[span_end - 1].oid;
  m.t_min = m.t_max = cols.t[m.row_begin];
  m.x_min = m.x_max = cols.x[m.row_begin];
  m.y_min = m.y_max = cols.y[m.row_begin];
  // Sealed spans are sorted by t: their ends bound the time range.
  for (size_t s = span_begin; s < span_end; ++s) {
    m.t_min = std::min(m.t_min, cols.t[cols.spans[s].begin]);
    m.t_max = std::max(m.t_max, cols.t[cols.spans[s].end - 1]);
  }
  for (size_t i = m.row_begin; i < m.row_end; ++i) {
    m.x_min = std::min(m.x_min, cols.x[i]);
    m.x_max = std::max(m.x_max, cols.x[i]);
    m.y_min = std::min(m.y_min, cols.y[i]);
    m.y_max = std::max(m.y_max, cols.y[i]);
  }
  return m;
}

MoftBlockStore MoftBlockStore::Build(const MoftColumns& cols,
                                     const BlockOptions& opts) {
  MoftBlockStore store;
  store.compressed_ = opts.compress;
  store.total_rows_ = cols.size();
  store.total_spans_ = cols.spans.size();
  const size_t target = opts.block_rows;

  size_t span_begin = 0;
  while (span_begin < cols.spans.size()) {
    // Close the block at the first span boundary at or past the target —
    // an oversized object stays whole in one oversized block.
    size_t span_end = span_begin;
    const size_t row_begin = cols.spans[span_begin].begin;
    while (span_end < cols.spans.size() &&
           (span_end == span_begin ||
            cols.spans[span_end - 1].end - row_begin < target)) {
      ++span_end;
    }
    if (span_end > span_begin + 1 &&
        cols.spans[span_end - 1].end - row_begin > target) {
      --span_end;  // The last span pushed past the target; leave it out.
    }

    auto block = std::make_unique<Block>();
    block->meta = ComputeMeta(cols, span_begin, span_end);
    if (opts.compress) {
      blockcodec::EncodeBlock(cols, span_begin, span_end, &block->payload);
      block->payload.shrink_to_fit();
      store.stored_bytes_ += block->payload.size();
    } else {
      store.stored_bytes_ += block->meta.rows() * 4 * sizeof(double);
    }
    store.blocks_.push_back(std::move(block));
    span_begin = span_end;
  }
  return store;
}

size_t MoftBlockStore::BlockOfRow(size_t row) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), row,
      [](size_t r, const std::unique_ptr<Block>& b) {
        return r < b->meta.row_end;
      });
  return static_cast<size_t>(it - blocks_.begin());
}

size_t MoftBlockStore::BlockOfSpan(size_t span) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), span,
      [](size_t s, const std::unique_ptr<Block>& b) {
        return s < b->meta.span_end;
      });
  return static_cast<size_t>(it - blocks_.begin());
}

std::unique_ptr<MoftColumns> MoftBlockStore::AcquireScratch() const {
  std::lock_guard<std::mutex> lock(pool_->mu);
  if (pool_->buffers.empty()) {
    return std::make_unique<MoftColumns>();
  }
  std::unique_ptr<MoftColumns> out = std::move(pool_->buffers.back());
  pool_->buffers.pop_back();
  return out;
}

void MoftBlockStore::ReleaseScratch(
    std::unique_ptr<MoftColumns> scratch) const {
  std::lock_guard<std::mutex> lock(pool_->mu);
  pool_->buffers.push_back(std::move(scratch));
}

void MoftBlockStore::Pin::Unpin() {
  if (store_ == nullptr) {
    return;
  }
  store_->ReleaseScratch(std::move(scratch_));
  store_->pool_->live_pins.fetch_sub(1, std::memory_order_relaxed);
  store_ = nullptr;
}

MoftBlockStore::Pin& MoftBlockStore::Pin::operator=(Pin&& o) noexcept {
  if (this != &o) {
    Unpin();
    store_ = o.store_;
    scratch_ = std::move(o.scratch_);
    o.store_ = nullptr;
  }
  return *this;
}

MoftBlockStore::Pin::~Pin() { Unpin(); }

int64_t MoftBlockStore::live_pins() const {
  return pool_->live_pins.load(std::memory_order_relaxed);
}

Result<MoftBlockStore::Pin> MoftBlockStore::PinBlock(size_t b) const {
  const Block& block = *blocks_[b];
  if (!compressed_) {
    return Status::InvalidArgument(
        "block without a payload: read it from the hot columns");
  }
  pool_->live_pins.fetch_add(1, std::memory_order_relaxed);
  Pin pin;
  pin.store_ = this;
  pin.scratch_ = AcquireScratch();
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("moft.block.decodes").Add(1);
  }
  // Open checks only the directory and each payload's row count, so a
  // corrupted mapped file surfaces here. The failed pin unpins on return.
  PIET_RETURN_NOT_OK(blockcodec::DecodeBlock(block.PayloadView(),
                                             pin.scratch_.get()));
  // Walks index the decoded spans by directory coordinates.
  const BlockMeta& m = block.meta;
  if (pin.scratch_->size() != m.rows() ||
      pin.scratch_->spans.size() != m.span_end - m.span_begin) {
    return Status::ParseError("block payload does not match its directory");
  }
  return pin;
}

void MoftBlockStore::MaterializeInto(MoftColumns* out) const {
  const uint64_t epoch = out->seal_epoch;
  out->oid.clear();
  out->t.clear();
  out->x.clear();
  out->y.clear();
  out->spans.clear();
  out->oid.reserve(total_rows_);
  out->t.reserve(total_rows_);
  out->x.reserve(total_rows_);
  out->y.reserve(total_rows_);
  out->spans.reserve(total_spans_);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Result<Pin> pin = PinBlock(b);
    if (!pin.ok()) {
      *out = MoftColumns{};  // All or nothing: no block may go missing.
      break;
    }
    const MoftColumns& data = pin.ValueOrDie().data();
    const size_t base = out->oid.size();
    out->oid.insert(out->oid.end(), data.oid.begin(), data.oid.end());
    out->t.insert(out->t.end(), data.t.begin(), data.t.end());
    out->x.insert(out->x.end(), data.x.begin(), data.x.end());
    out->y.insert(out->y.end(), data.y.begin(), data.y.end());
    for (const MoftColumns::Span& span : data.spans) {
      out->spans.push_back(MoftColumns::Span{span.oid, span.begin + base,
                                             span.end + base});
    }
  }
  out->seal_epoch = epoch;
}

TableBlocks::TableBlocks(const MoftColumns& hot, const MoftBlockStore& store)
    : hot_(&hot), store_(&store) {
  if (store_->compressed()) {
    slots_ = std::make_unique<Slot[]>(store_->num_blocks());
  }
}

Result<const MoftColumns*> TableBlocks::Acquire(size_t b,
                                                BlockIoStats* io) const {
  if (!store_->compressed()) {
    return hot_;
  }
  Slot& slot = slots_[b];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (!slot.pinned) {
    PIET_ASSIGN_OR_RETURN(slot.pin, store_->PinBlock(b));
    slot.pinned = true;
    const BlockMeta& m = store_->meta(b);
    slot.left[static_cast<int>(Unit::kRows)] = m.rows();
    slot.left[static_cast<int>(Unit::kSpans)] = m.span_end - m.span_begin;
    ++io->blocks_pinned;
  }
  return &slot.pin.data();
}

void TableBlocks::Release(size_t b, Unit unit, size_t n) const {
  if (!store_->compressed()) {
    return;
  }
  Slot& slot = slots_[b];
  std::lock_guard<std::mutex> lock(slot.mu);
  size_t& left = slot.left[static_cast<int>(unit)];
  left -= n < left ? n : left;
  if (left == 0) {
    slot.pin = MoftBlockStore::Pin();
    slot.pinned = false;
  }
}

Status MoftBlockStore::Save(const std::string& path,
                            const MoftColumns* hot) const {
  if (!compressed_ && hot == nullptr) {
    return Status::InvalidArgument(
        "saving blocks without a payload needs the hot columns");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  FileHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.compressed = 1;  // Payloads are always codec-encoded on disk.
  header.total_rows = total_rows_;
  header.total_spans = total_spans_;
  header.num_blocks = blocks_.size();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));

  // The directory precedes the payloads, so the sizes come first: blocks
  // without a payload encode from the hot columns on the way out, and the
  // on-disk format is one codec payload per block either way.
  std::vector<std::string> encoded(compressed_ ? 0 : blocks_.size());
  std::vector<std::string_view> payloads(blocks_.size());
  std::vector<DirEntry> dir(blocks_.size());
  uint64_t offset = sizeof(FileHeader) + blocks_.size() * sizeof(DirEntry);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const BlockMeta& m = blocks_[b]->meta;
    if (compressed_) {
      payloads[b] = blocks_[b]->PayloadView();
    } else {
      blockcodec::EncodeBlock(*hot, m.span_begin, m.span_end, &encoded[b]);
      payloads[b] = encoded[b];
    }
    dir[b] = DirEntry{offset, payloads[b].size(), m.row_begin, m.row_end,
                      m.span_begin, m.span_end, m.oid_min, m.oid_max,
                      m.t_min, m.t_max, m.x_min, m.x_max, m.y_min, m.y_max};
    offset += payloads[b].size();
  }
  out.write(reinterpret_cast<const char*>(dir.data()),
            static_cast<std::streamsize>(dir.size() * sizeof(DirEntry)));
  for (std::string_view payload : payloads) {
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<MoftBlockStore> MoftBlockStore::Open(const std::string& path) {
  PIET_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                        MappedFile::Map(path));
  if (file->size() < sizeof(FileHeader)) {
    return Status::ParseError("'" + path + "': truncated block file");
  }
  FileHeader header = {};
  std::memcpy(&header, file->View(0, sizeof(header)).data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 ||
      header.version != kVersion) {
    return Status::ParseError("'" + path + "': not a PIETBLK1 file");
  }
  // Overflow-safe: compare counts, never a product or sum that can wrap.
  if (header.num_blocks >
      (file->size() - sizeof(FileHeader)) / sizeof(DirEntry)) {
    return Status::ParseError("'" + path + "': truncated block directory");
  }

  MoftBlockStore store;
  store.compressed_ = true;
  store.mapped_file_ = file;
  store.blocks_.reserve(header.num_blocks);
  for (size_t b = 0; b < header.num_blocks; ++b) {
    DirEntry entry = {};
    std::memcpy(&entry,
                file->View(sizeof(FileHeader) + b * sizeof(DirEntry),
                           sizeof(DirEntry))
                    .data(),
                sizeof(DirEntry));
    if (entry.payload_offset > file->size() ||
        entry.payload_size > file->size() - entry.payload_offset) {
      return Status::ParseError("'" + path + "': block payload out of range");
    }
    // BlockOfRow/BlockOfSpan binary-search the directory, so the blocks
    // must tile the rows and spans contiguously, in ascending order.
    if (entry.row_begin != store.total_rows_ ||
        entry.row_end < entry.row_begin ||
        entry.span_begin != store.total_spans_ ||
        entry.span_end < entry.span_begin) {
      return Status::ParseError("'" + path +
                                "': block directory out of order");
    }
    store.total_rows_ = entry.row_end;
    store.total_spans_ = entry.span_end;
    auto block = std::make_unique<Block>();
    block->meta = BlockMeta{entry.row_begin, entry.row_end, entry.span_begin,
                            entry.span_end, entry.oid_min, entry.oid_max,
                            entry.t_min, entry.t_max, entry.x_min,
                            entry.x_max, entry.y_min, entry.y_max};
    block->mapped_payload =
        file->View(entry.payload_offset, entry.payload_size);
    if (blockcodec::PayloadRows(block->mapped_payload) !=
        block->meta.rows()) {
      return Status::ParseError("'" + path + "': directory/payload mismatch");
    }
    store.stored_bytes_ += entry.payload_size;
    store.blocks_.push_back(std::move(block));
  }
  if (store.total_rows_ != header.total_rows ||
      store.total_spans_ != header.total_spans) {
    return Status::ParseError("'" + path +
                              "': block directory does not cover the table");
  }
  return store;
}

}  // namespace piet::moving
