// Durable whole-file replacement: the one write-then-rename used for
// every file a restart reads back (the repl vote, registry snapshots).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace elect {

/// Replace `path` with `bytes` so that after a crash or power loss the
/// file holds either its old content or all of `bytes`: write
/// `path`.tmp, fsync it, rename it over `path`, fsync the directory.
/// On any failure returns false, removes the temp file and leaves
/// `path` as it was.
[[nodiscard]] bool replace_file_durably(const std::string& path,
                                        std::span<const std::uint8_t> bytes);

}  // namespace elect
