#include "common/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace elect {

namespace {

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t wrote = ::write(fd, bytes.data(), bytes.size());
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    bytes = bytes.subspan(static_cast<std::size_t>(wrote));
  }
  return true;
}

/// fsync the directory holding `path`, so the rename itself survives.
bool sync_parent(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

bool replace_file_durably(const std::string& path,
                          std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  // The new content is in place; a failed directory sync only means the
  // rename may not survive a power loss, which the caller must hear.
  return sync_parent(path);
}

}  // namespace elect
