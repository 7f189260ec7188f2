#include "util/atomic_file.hpp"

#include <cstdio>
#include <fstream>

namespace hetsched {

bool atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write(out);
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view content) {
  return atomic_write_file(path, [content](std::ostream& out) {
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
}

}  // namespace hetsched
