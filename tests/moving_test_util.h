#ifndef PIET_TESTS_MOVING_TEST_UTIL_H_
#define PIET_TESTS_MOVING_TEST_UTIL_H_

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving/moft_columns.h"

namespace piet::moving {

/// Materializes every sample of `moft` as a row vector, in (oid, t) scan
/// order. Test/bench helper only — this is deliberately NOT a Moft method
/// anymore so no query path can quietly regain a whole-table row copy
/// (scripts/check.sh --lint greps src/ for AllSamples call sites).
inline std::vector<Sample> AllSamplesOf(const Moft& moft) {
  const MoftColumns& cols = moft.Columns();
  std::vector<Sample> out;
  out.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out.push_back(cols.at(i));
  }
  return out;
}

/// A read-only Moft mapped from a block file written straight from
/// `cols` (sorted by (oid, t), spans built), bypassing Moft::Add's
/// validation. Block files are the one way rows Add would refuse — e.g.
/// non-finite coordinates — still reach a real Moft, which is what the
/// load-time checkers guard. `name` names the temp file, which is unlinked
/// once mapped.
inline Result<Moft> MoftFromBlockFile(const MoftColumns& cols,
                                      const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  PIET_RETURN_NOT_OK(
      MoftBlockStore::Build(cols, BlockOptions{}).Save(path, &cols));
  Result<Moft> opened = Moft::Open(path);
  std::filesystem::remove(path);
  return opened;
}

/// Like MoftFromBlockFile with `opts` blocking, but the first block's
/// span directory is garbled before the file is mapped back. Open checks
/// only the file directory and each payload's row count, so it accepts the
/// file; the block fails when a scan decodes it.
inline Result<Moft> MoftFromGarbledBlockFile(const MoftColumns& cols,
                                             const BlockOptions& opts,
                                             const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  PIET_RETURN_NOT_OK(MoftBlockStore::Build(cols, opts).Save(path, &cols));
  {
    // File layout: a 40-byte header, then one directory entry per block
    // whose first field is the block's u64 payload offset. A payload
    // starts with its u32 row and span counts, then the span directory.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    uint64_t payload = 0;
    file.seekg(40);
    file.read(reinterpret_cast<char*>(&payload), sizeof(payload));
    file.seekp(static_cast<std::streamoff>(payload + 8));
    const std::string garbage(16, '\xff');  // An unterminated varint.
    file.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
    if (!file) {
      return Status::IoError("cannot garble '" + path + "'");
    }
  }
  Result<Moft> opened = Moft::Open(path);
  std::filesystem::remove(path);
  return opened;
}

/// One object (oid 1) sampled at t = 0 at the origin and at t = 1 at a
/// NaN x coordinate.
inline MoftColumns NanPositionColumns() {
  MoftColumns cols;
  cols.oid = {1, 1};
  cols.t = {0.0, 1.0};
  cols.x = {0.0, std::numeric_limits<double>::quiet_NaN()};
  cols.y = {0.0, 2.0};
  cols.spans = {MoftColumns::Span{1, 0, 2}};
  cols.seal_epoch = 1;
  return cols;
}

}  // namespace piet::moving

#endif  // PIET_TESTS_MOVING_TEST_UTIL_H_
