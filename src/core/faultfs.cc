#include "core/faultfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace whitenrec {
namespace core {

namespace {

// Total attempts per logical operation (1 initial + retries). The backoff
// schedule is deterministic — attempt a sleeps a * 200us — so a fault trace
// is reproducible from the seed alone.
constexpr int kMaxAttempts = 4;

void BackoffSleep(int attempt) {
  if (attempt <= 0) return;
  struct timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = static_cast<long>(attempt) * 200'000L;
  nanosleep(&ts, nullptr);
}

// SplitMix64: the injector cannot use linalg::Rng (faultfs sits below
// linalg in the link order) but needs the same determinism guarantee.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// write(2) until done, handling EINTR and partial writes. `limit` caps the
// bytes actually issued (short-write fault); returns false on error.
bool WriteFully(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// Writes `bytes` (or its `limit`-byte prefix) to `path`, fsyncing when
// `durable`. Used for the temp file and for simulating a torn destination.
bool WriteRawFile(const std::string& path, const std::string& bytes,
                  std::size_t limit, bool durable) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::size_t n = limit < bytes.size() ? limit : bytes.size();
  bool ok = WriteFully(fd, bytes.data(), n);
  if (ok && durable && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

void FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir fds
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Configure(std::uint64_t seed, double rate) {
  WR_CHECK_MSG(std::isfinite(rate), "fault rate must be finite");
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  state_ = seed;
  stats_ = FaultStats{};
}

double FaultInjector::rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_;
}

std::uint64_t FaultInjector::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FaultKind FaultInjector::Next(std::initializer_list<FaultKind> allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.operations;
  if (rate_ <= 0.0 || allowed.size() == 0) return FaultKind::kNone;
  const double u =
      static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53;
  if (u >= rate_) return FaultKind::kNone;
  const std::uint64_t pick = SplitMix64(&state_) % allowed.size();
  const FaultKind kind = allowed.begin()[pick];
  switch (kind) {
    case FaultKind::kShortWrite: ++stats_.short_writes; break;
    case FaultKind::kTornRename: ++stats_.torn_renames; break;
    case FaultKind::kEio: ++stats_.eio; break;
    case FaultKind::kBitFlip: ++stats_.bit_flips; break;
    case FaultKind::kNone: break;
  }
  return kind;
}

std::uint64_t FaultInjector::NextBelow(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) return 0;
  return SplitMix64(&state_) % n;
}

ScopedFaultConfig::ScopedFaultConfig(std::uint64_t seed, double rate)
    : prev_seed_(FaultInjector::Global().seed()),
      prev_rate_(FaultInjector::Global().rate()) {
  FaultInjector::Global().Configure(seed, rate);
}

ScopedFaultConfig::~ScopedFaultConfig() {
  FaultInjector::Global().Configure(prev_seed_, prev_rate_);
}

Result<std::string> ReadFileToString(const std::string& path) {
  FaultInjector& inj = FaultInjector::Global();
  std::string last_error;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    BackoffSleep(attempt);
    if (inj.Next({FaultKind::kEio}) == FaultKind::kEio) {
      last_error = "injected EIO reading '" + path + "'";
      continue;
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      // A missing file is a final answer, not a transient fault.
      return Status::IOError(ErrnoMessage("cannot open", path));
    }
    std::string out;
    char buf[1 << 16];
    bool ok = true;
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        ok = false;
        last_error = ErrnoMessage("read failed for", path);
        break;
      }
      if (r == 0) break;
      out.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fd);
    if (ok) return out;
  }
  return Status::IOError("ReadFileToString: giving up on '" + path +
                         "': " + last_error);
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  FaultInjector& inj = FaultInjector::Global();
  const std::string tmp = path + ".tmp";
  std::string last_error;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    BackoffSleep(attempt);
    const FaultKind fault =
        inj.Next({FaultKind::kEio, FaultKind::kShortWrite,
                  FaultKind::kBitFlip, FaultKind::kTornRename});
    if (fault == FaultKind::kEio) {
      last_error = "injected EIO writing '" + path + "'";
      continue;
    }
    if (fault == FaultKind::kShortWrite) {
      // Only a prefix reaches the temp file; the attempt fails and the next
      // one rewrites the temp from scratch, so the destination is untouched.
      const std::size_t cut =
          bytes.empty() ? 0
                        : static_cast<std::size_t>(
                              inj.NextBelow(bytes.size()));
      WriteRawFile(tmp, bytes, cut, /*durable=*/false);
      last_error = "injected short write for '" + path + "'";
      continue;
    }
    const std::string* payload = &bytes;
    std::string corrupted;
    if (fault == FaultKind::kBitFlip && !bytes.empty()) {
      // Silent corruption: the write "succeeds" but one bit is wrong.
      // Only the checksums in the checkpoint container can catch this.
      corrupted = bytes;
      const std::uint64_t bit = inj.NextBelow(corrupted.size() * 8);
      corrupted[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(corrupted[bit / 8]) ^
          static_cast<unsigned char>(1u << (bit % 8)));
      payload = &corrupted;
    }
    if (!WriteRawFile(tmp, *payload, payload->size(), /*durable=*/true)) {
      last_error = ErrnoMessage("cannot write temp for", path);
      continue;
    }
    if (fault == FaultKind::kTornRename) {
      // Simulated crash mid-replace: the destination ends up holding a
      // prefix of the new payload — exactly what a non-atomic replace
      // interrupted by a power cut would leave behind.
      const std::size_t cut =
          payload->empty() ? 0
                           : static_cast<std::size_t>(
                                 inj.NextBelow(payload->size()));
      WriteRawFile(path, *payload, cut, /*durable=*/false);
      last_error = "injected torn rename for '" + path + "'";
      continue;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      last_error = ErrnoMessage("rename failed for", path);
      continue;
    }
    FsyncParentDir(path);
    return Status::OK();
  }
  ::unlink(tmp.c_str());  // best effort: drop the stale temp
  return Status::IOError("AtomicWriteFile: giving up on '" + path +
                         "' after " + std::to_string(kMaxAttempts) +
                         " attempts: " + last_error);
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("cannot remove", path));
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list directory '" + dir +
                           "': " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace core
}  // namespace whitenrec
