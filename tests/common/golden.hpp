// Recorded output goldens under tests/golden/. A golden pins a whole report
// byte for byte, so a refactor that reorders or reformats any row shows up
// as a diff against the file. Paths that differ per run (a temp trace file)
// are replaced by a fixed token before the comparison.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace bwshare::testing_golden {

/// Contents of tests/golden/<name>; empty (and a test failure) if missing.
inline std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(BWSHARE_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "missing golden " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// `text` with every occurrence of `from` replaced by `to`.
inline std::string replace_all(std::string text, const std::string& from,
                               const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

}  // namespace bwshare::testing_golden
