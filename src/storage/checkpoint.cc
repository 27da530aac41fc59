#include "storage/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>

#include "common/crc32c.h"
#include "traj/io.h"

namespace tq::storage {

namespace {

constexpr char kManifestMagic[4] = {'T', 'Q', 'C', 'K'};
/// Version 1 stored each shard's tree; version 2 stores the shard's removed
/// ids, and recovery rebuilds the tree.
constexpr uint32_t kManifestVersion = 2;
constexpr char kRegistryMagic[4] = {'T', 'Q', 'R', 'G'};
constexpr char kRemovedMagic[4] = {'T', 'Q', 'R', 'M'};

Status IOErr(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IOErr("cannot open directory", dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return IOErr("cannot fsync directory", dir);
  return Status::OK();
}

/// Re-opens and fsyncs a file written through an API that does not expose
/// its descriptor (SaveTrajectoryBinary).
Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IOErr("cannot open for fsync", path);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return IOErr("cannot fsync", path);
  return Status::OK();
}

/// Best-effort recursive removal of a checkpoint directory (flat: one level
/// of regular files). Used for GC and abandoned tmp dirs.
void RemoveDirTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
        continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}
void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}
void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  bool GetU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Done() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return IOErr("cannot open", path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return IOErr("cannot read", path);
  return out;
}

/// Writes a whole buffer to `path` and fsyncs it.
Status WriteFileSynced(const std::string& path, std::string_view data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return IOErr("cannot create", path);
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return IOErr("cannot write", path);
    }
    off += static_cast<size_t>(n);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return IOErr("cannot fsync", path);
  return Status::OK();
}

/// Validates a trailing-CRC file body (magic already checked): returns the
/// body without the magic and CRC, or a typed error.
Result<std::string_view> CheckedBody(std::string_view raw, const char* what) {
  if (raw.size() < 8) {
    return Status::InvalidArgument(std::string(what) + " truncated");
  }
  const std::string_view body = raw.substr(4, raw.size() - 8);
  uint32_t stored = 0;
  std::memcpy(&stored, raw.data() + raw.size() - 4, 4);
  if (Crc32c(body.data(), body.size()) != stored) {
    return Status::InvalidArgument(std::string(what) + " CRC mismatch");
  }
  return body;
}

std::string CheckpointDirName(uint64_t lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%016" PRIx64, lsn);
  return buf;
}

std::string ShardUsersPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".users";
}

std::string ShardRemovedPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".removed";
}

/// Writes the framing registry.bin and shard-<s>.removed share: magic, u64
/// entry count, `width` u32 words per entry, then the CRC32C of everything
/// after the magic; fsyncs the file.
Status WriteWordFile(const std::string& path, const char (&magic)[4],
                     size_t width, std::span<const uint32_t> words) {
  std::string buf;
  buf.reserve(16 + words.size() * 4);
  buf.append(magic, sizeof(magic));
  PutU64(&buf, words.size() / width);
  for (const uint32_t w : words) PutU32(&buf, w);
  const uint32_t crc = Crc32c(buf.data() + 4, buf.size() - 4);
  PutU32(&buf, crc);
  return WriteFileSynced(path, buf);
}

/// Reads a WriteWordFile file back into its words; a wrong magic, CRC or
/// length is a typed error.
Result<std::vector<uint32_t>> ReadWordFile(const std::string& path,
                                           const char (&magic)[4],
                                           size_t width, const char* what) {
  auto raw = ReadFileToString(path);
  TQ_RETURN_NOT_OK(raw.status());
  if (raw->size() < 4 || std::memcmp(raw->data(), magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(std::string("not a ") + what + ": " + path);
  }
  auto body = CheckedBody(*raw, what);
  TQ_RETURN_NOT_OK(body.status());
  Reader r(*body);
  uint64_t count = 0;
  const size_t entry_bytes = 4 * width;
  if (!r.GetU64(&count) || r.remaining() % entry_bytes != 0 ||
      r.remaining() / entry_bytes != count) {
    return Status::InvalidArgument(std::string(what) + " malformed");
  }
  std::vector<uint32_t> words(count * width);
  for (uint32_t& w : words) r.GetU32(&w);
  return words;
}

}  // namespace

uint64_t TQTreeGeometryHash(const TQTreeOptions& options, const Rect& world) {
  std::string packed;
  PutU64(&packed, options.beta);
  PutU32(&packed, static_cast<uint32_t>(options.max_depth));
  packed.push_back(static_cast<char>(options.variant));
  packed.push_back(static_cast<char>(options.mode));
  packed.push_back(static_cast<char>(options.model.scenario));
  packed.push_back(static_cast<char>(options.model.normalization));
  PutF64(&packed, options.model.psi);
  PutF64(&packed, world.min_x);
  PutF64(&packed, world.min_y);
  PutF64(&packed, world.max_x);
  PutF64(&packed, world.max_y);
  // FNV-1a over the packed bytes: stable across runs (no pointer or seed
  // material), cheap, and collision-safe enough for a configuration check;
  // the file CRCs handle corruption.
  uint64_t h = 1469598103934665603ull;
  for (const char c : packed) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::unique_ptr<CheckpointWriter>> CheckpointWriter::Begin(
    const std::string& data_dir, uint64_t lsn) {
  if (::mkdir(data_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return IOErr("cannot create data directory", data_dir);
  }
  auto writer = std::unique_ptr<CheckpointWriter>(
      new CheckpointWriter(data_dir, CheckpointDirName(lsn)));
  RemoveDirTree(writer->tmp_dir_);  // a crash may have left one behind
  if (::mkdir(writer->tmp_dir_.c_str(), 0777) != 0) {
    return IOErr("cannot create checkpoint directory", writer->tmp_dir_);
  }
  return writer;
}

CheckpointWriter::~CheckpointWriter() {
  if (!committed_) RemoveDirTree(tmp_dir_);
}

Status CheckpointWriter::WriteFacilities(const TrajectorySet& facilities) {
  const std::string path = tmp_dir_ + "/facilities.bin";
  TQ_RETURN_NOT_OK(SaveTrajectoryBinary(path, facilities));
  return SyncFile(path);
}

Status CheckpointWriter::WriteRegistry(
    const std::vector<std::pair<uint32_t, uint32_t>>& entries) {
  std::vector<uint32_t> words;
  words.reserve(entries.size() * 2);
  for (const auto& [shard, local] : entries) {
    words.push_back(shard);
    words.push_back(local);
  }
  return WriteWordFile(tmp_dir_ + "/registry.bin", kRegistryMagic,
                       /*width=*/2, words);
}

Status CheckpointWriter::WriteShard(uint32_t shard, const TrajectorySet& users,
                                    std::span<const uint32_t> removed) {
  const std::string users_path = ShardUsersPath(tmp_dir_, shard);
  TQ_RETURN_NOT_OK(SaveTrajectoryBinary(users_path, users));
  TQ_RETURN_NOT_OK(SyncFile(users_path));
  return WriteWordFile(ShardRemovedPath(tmp_dir_, shard), kRemovedMagic,
                       /*width=*/1, removed);
}

Status CheckpointWriter::Commit(const CheckpointManifest& manifest) {
  std::string buf;
  buf.append(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&buf, kManifestVersion);
  PutU64(&buf, manifest.lsn);
  PutU64(&buf, manifest.users_total);
  PutU64(&buf, manifest.geometry_hash);
  PutF64(&buf, manifest.world.min_x);
  PutF64(&buf, manifest.world.min_y);
  PutF64(&buf, manifest.world.max_x);
  PutF64(&buf, manifest.world.max_y);
  PutU32(&buf, static_cast<uint32_t>(manifest.shards.size()));
  PutU32(&buf, static_cast<uint32_t>(manifest.splits.size()));
  for (const uint64_t split : manifest.splits) PutU64(&buf, split);
  for (const CheckpointShardInfo& s : manifest.shards) {
    PutU64(&buf, s.generation);
    PutU64(&buf, s.user_count);
    buf.push_back(s.has_shard ? 1 : 0);
  }
  const uint32_t crc = Crc32c(buf.data() + 4, buf.size() - 4);
  PutU32(&buf, crc);
  TQ_RETURN_NOT_OK(WriteFileSynced(tmp_dir_ + "/MANIFEST", buf));
  TQ_RETURN_NOT_OK(SyncDir(tmp_dir_));

  // Atomic publication: rename the complete directory into place, durably
  // record the new name in CURRENT, then reclaim whatever it supersedes.
  const std::string final_dir = data_dir_ + "/" + final_name_;
  RemoveDirTree(final_dir);  // re-checkpoint at the same LSN (tests)
  if (::rename(tmp_dir_.c_str(), final_dir.c_str()) != 0) {
    return IOErr("cannot publish checkpoint", final_dir);
  }
  TQ_RETURN_NOT_OK(SyncDir(data_dir_));
  const std::string current_tmp = data_dir_ + "/CURRENT.tmp";
  TQ_RETURN_NOT_OK(WriteFileSynced(current_tmp, final_name_ + "\n"));
  if (::rename(current_tmp.c_str(), (data_dir_ + "/CURRENT").c_str()) != 0) {
    return IOErr("cannot swap CURRENT in", data_dir_);
  }
  TQ_RETURN_NOT_OK(SyncDir(data_dir_));
  committed_ = true;

  // GC: every other checkpoint-* entry (older checkpoints, stale tmp dirs)
  // is now unreachable. Best-effort — a leftover costs disk, not safety.
  if (DIR* d = ::opendir(data_dir_.c_str())) {
    std::vector<std::string> stale;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind("checkpoint-", 0) == 0 && name != final_name_) {
        stale.push_back(data_dir_ + "/" + name);
      }
    }
    ::closedir(d);
    for (const std::string& dir : stale) RemoveDirTree(dir);
  }
  return Status::OK();
}

Result<std::string> CurrentCheckpointDir(const std::string& data_dir) {
  auto raw = ReadFileToString(data_dir + "/CURRENT");
  if (!raw.ok()) {
    if (raw.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no checkpoint committed in " + data_dir);
    }
    return raw.status();
  }
  std::string name = *raw;
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("corrupt CURRENT file in " + data_dir);
  }
  return data_dir + "/" + name;
}

Result<CheckpointManifest> ReadCheckpointManifest(
    const std::string& checkpoint_dir) {
  auto raw = ReadFileToString(checkpoint_dir + "/MANIFEST");
  TQ_RETURN_NOT_OK(raw.status());
  if (raw->size() < 4 ||
      std::memcmp(raw->data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint manifest: " +
                                   checkpoint_dir);
  }
  auto body = CheckedBody(*raw, "checkpoint manifest");
  TQ_RETURN_NOT_OK(body.status());
  Reader r(*body);
  CheckpointManifest m;
  uint32_t version = 0, num_shards = 0, num_splits = 0;
  if (!r.GetU32(&version) || !r.GetU64(&m.lsn) || !r.GetU64(&m.users_total) ||
      !r.GetU64(&m.geometry_hash) || !r.GetF64(&m.world.min_x) ||
      !r.GetF64(&m.world.min_y) || !r.GetF64(&m.world.max_x) ||
      !r.GetF64(&m.world.max_y) || !r.GetU32(&num_shards) ||
      !r.GetU32(&num_splits)) {
    return Status::InvalidArgument("checkpoint manifest truncated");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported checkpoint manifest version " +
                                   std::to_string(version));
  }
  if (num_shards == 0 || num_splits + 1 != num_shards ||
      r.remaining() != num_splits * 8ull + num_shards * 17ull) {
    return Status::InvalidArgument("checkpoint manifest malformed");
  }
  m.splits.resize(num_splits);
  for (uint32_t i = 0; i < num_splits; ++i) {
    if (!r.GetU64(&m.splits[i])) {
      return Status::InvalidArgument("checkpoint manifest truncated");
    }
  }
  m.shards.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint8_t has_shard = 0;
    if (!r.GetU64(&m.shards[s].generation) ||
        !r.GetU64(&m.shards[s].user_count) || !r.GetU8(&has_shard)) {
      return Status::InvalidArgument("checkpoint manifest truncated");
    }
    m.shards[s].has_shard = has_shard != 0;
  }
  return m;
}

Result<TrajectorySet> LoadCheckpointFacilities(
    const std::string& checkpoint_dir) {
  TrajectorySet facilities;
  TQ_RETURN_NOT_OK(
      LoadTrajectoryBinary(checkpoint_dir + "/facilities.bin", &facilities));
  return facilities;
}

Status LoadCheckpointRegistry(
    const std::string& checkpoint_dir,
    std::vector<std::pair<uint32_t, uint32_t>>* out) {
  auto words = ReadWordFile(checkpoint_dir + "/registry.bin", kRegistryMagic,
                            /*width=*/2, "checkpoint registry");
  TQ_RETURN_NOT_OK(words.status());
  out->clear();
  out->reserve(words->size() / 2);
  for (size_t i = 0; i < words->size(); i += 2) {
    out->emplace_back((*words)[i], (*words)[i + 1]);
  }
  return Status::OK();
}

Result<std::shared_ptr<TrajectorySet>> LoadCheckpointShardUsers(
    const std::string& checkpoint_dir, uint32_t shard) {
  auto users = std::make_shared<TrajectorySet>();
  TQ_RETURN_NOT_OK(
      LoadTrajectoryBinary(ShardUsersPath(checkpoint_dir, shard),
                           users.get()));
  return users;
}

Result<std::vector<uint32_t>> LoadCheckpointShardRemoved(
    const std::string& checkpoint_dir, uint32_t shard, size_t num_users) {
  auto removed = ReadWordFile(ShardRemovedPath(checkpoint_dir, shard),
                              kRemovedMagic, /*width=*/1,
                              "checkpoint removed ids");
  TQ_RETURN_NOT_OK(removed.status());
  for (size_t i = 0; i < removed->size(); ++i) {
    const uint32_t id = (*removed)[i];
    if (id >= num_users || (i > 0 && id <= (*removed)[i - 1])) {
      return Status::InvalidArgument(
          "checkpoint removed ids malformed for shard " +
          std::to_string(shard));
    }
  }
  return removed;
}

}  // namespace tq::storage
