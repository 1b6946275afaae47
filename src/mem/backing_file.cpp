#include "mem/backing_file.hpp"

#include <cstring>

namespace vmsls::mem {

BackingFile::BackingFile(u32 id, std::string name, u64 bytes, u64 block_bytes)
    : id_(id), name_(std::move(name)), block_bytes_(block_bytes) {
  require(block_bytes_ > 0 && is_pow2(block_bytes_), "file block size must be a power of two");
  require(bytes > 0, name_ + ": cannot create an empty file");
  data_.assign(align_up(bytes, block_bytes_), 0);
}

std::span<u8> BackingFile::block_data(u64 block) {
  require(block < blocks(), [&] { return name_ + ": block out of range"; });
  return std::span<u8>(data_.data() + block * block_bytes_, block_bytes_);
}

std::span<const u8> BackingFile::block_data(u64 block) const {
  require(block < blocks(), [&] { return name_ + ": block out of range"; });
  return std::span<const u8>(data_.data() + block * block_bytes_, block_bytes_);
}

void BackingFile::write(u64 offset, std::span<const u8> data) {
  require(offset + data.size() <= size_bytes(),
          [&] { return name_ + ": write past end of file"; });
  std::memcpy(data_.data() + offset, data.data(), data.size());
}

void BackingFile::read(u64 offset, std::span<u8> out) const {
  require(offset + out.size() <= size_bytes(),
          [&] { return name_ + ": read past end of file"; });
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

FileStore::FileStore(u64 block_bytes) : block_bytes_(block_bytes) {
  require(block_bytes_ > 0 && is_pow2(block_bytes_), "file block size must be a power of two");
}

BackingFile& FileStore::create(const std::string& name, u64 bytes) {
  files_.push_back(std::make_unique<BackingFile>(static_cast<u32>(files_.size()), name, bytes,
                                                 block_bytes_));
  return *files_.back();
}

BackingFile& FileStore::file(u32 id) {
  require(id < files_.size(), "unknown file id");
  return *files_[id];
}

const BackingFile& FileStore::file(u32 id) const {
  require(id < files_.size(), "unknown file id");
  return *files_[id];
}

}  // namespace vmsls::mem
