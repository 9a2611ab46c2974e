#include "common/atomic_file.hpp"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define DVLC_ATOMIC_FILE_HAS_FSYNC 1
#endif

namespace densevlc {
namespace {

bool sync_to_disk(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#ifdef DVLC_ATOMIC_FILE_HAS_FSYNC
  return ::fsync(fileno(file)) == 0;
#else
  return true;
#endif
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& contents) {
#ifdef DVLC_ATOMIC_FILE_HAS_FSYNC
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
  const std::string tmp = path + ".tmp";
#endif
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), file) ==
                contents.size();
  ok = sync_to_disk(file) && ok;
  ok = (std::fclose(file) == 0) && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) (void)std::remove(tmp.c_str());
  return ok;
}

}  // namespace densevlc
