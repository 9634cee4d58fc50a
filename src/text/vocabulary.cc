#include "text/vocabulary.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace emd {

Vocabulary::Vocabulary() {
  Add(kPadToken);
  Add(kUnkToken);
}

int Vocabulary::Add(std::string_view token) { return index_.Intern(token); }

std::string_view Vocabulary::Token(int id) const {
  EMD_CHECK_GE(id, 0);
  EMD_CHECK_LT(id, size());
  return index_.key(id);
}

Vocabulary Vocabulary::FromCounts(const std::unordered_map<std::string, int>& counts,
                                  int min_count) {
  std::vector<std::pair<std::string, int>> ordered(counts.begin(), counts.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  Vocabulary vocab;
  for (const auto& [token, count] : ordered) {
    if (count >= min_count) vocab.Add(token);
  }
  return vocab;
}

std::string Vocabulary::Serialize() const {
  std::string out = "vocab " + std::to_string(size()) + "\n";
  for (int id = 0; id < size(); ++id) {
    out += index_.key(id);
    out += '\n';
  }
  return out;
}

Result<Vocabulary> Vocabulary::Deserialize(const std::string& data) {
  std::vector<std::string> lines = SplitKeepEmpty(data, '\n');
  if (lines.empty()) return Status::Corruption("empty vocabulary data");
  std::vector<std::string> header = Split(lines[0]);
  if (header.size() != 2 || header[0] != "vocab")
    return Status::Corruption("bad vocabulary header: ", lines[0]);
  int n = std::atoi(header[1].c_str());
  if (n < 2 || static_cast<size_t>(n) + 1 > lines.size())
    return Status::Corruption("vocabulary size mismatch");
  Vocabulary vocab;
  if (lines[1] != kPadToken || lines[2] != kUnkToken)
    return Status::Corruption("vocabulary missing reserved tokens");
  for (int i = 2; i < n; ++i) vocab.Add(lines[1 + i]);
  return vocab;
}

}  // namespace emd
