#include "util/string_util.h"

namespace emd {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

void ToLowerAsciiInto(std::string_view s, std::string* out) {
  out->assign(s);
  for (char& c : *out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::string_view ToLowerAsciiView(std::string_view s, std::string* scratch) {
  bool has_upper = false;
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') {
      has_upper = true;
      break;
    }
  }
  if (!has_upper) return s;
  ToLowerAsciiInto(s, scratch);
  return *scratch;
}

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

std::string Capitalize(std::string_view s) {
  std::string out = ToLowerAscii(s);
  if (!out.empty() && out[0] >= 'a' && out[0] <= 'z') {
    out[0] = static_cast<char>(out[0] - 'a' + 'A');
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char x = a[i], y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

bool IsUpperAscii(char c) { return c >= 'A' && c <= 'Z'; }
bool IsLowerAscii(char c) { return c >= 'a' && c <= 'z'; }
bool IsAlphaAscii(char c) { return IsUpperAscii(c) || IsLowerAscii(c); }
bool IsDigitAscii(char c) { return c >= '0' && c <= '9'; }
bool IsAlnumAscii(char c) { return IsAlphaAscii(c) || IsDigitAscii(c); }

bool IsAllUpper(std::string_view s) {
  bool any = false;
  for (char c : s) {
    if (IsLowerAscii(c)) return false;
    if (IsUpperAscii(c)) any = true;
  }
  return any;
}

bool IsAllLower(std::string_view s) {
  bool any = false;
  for (char c : s) {
    if (IsUpperAscii(c)) return false;
    if (IsLowerAscii(c)) any = true;
  }
  return any;
}

bool IsInitialCap(std::string_view s) {
  if (s.empty() || !IsUpperAscii(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (IsUpperAscii(s[i])) return false;
  }
  return true;
}

bool HasAlpha(std::string_view s) {
  for (char c : s) {
    if (IsAlphaAscii(c)) return true;
  }
  return false;
}

bool HasDigit(std::string_view s) {
  for (char c : s) {
    if (IsDigitAscii(c)) return true;
  }
  return false;
}

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitKeepEmpty(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string Strip(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string WordShape(std::string_view s, bool collapse_runs) {
  std::string out;
  WordShapeInto(s, &out, collapse_runs);
  return out;
}

void WordShapeInto(std::string_view s, std::string* out, bool collapse_runs) {
  out->clear();
  char prev = 0;
  for (char c : s) {
    char sym;
    if (IsUpperAscii(c)) {
      sym = 'X';
    } else if (IsLowerAscii(c)) {
      sym = 'x';
    } else if (IsDigitAscii(c)) {
      sym = 'd';
    } else {
      sym = 'o';
    }
    if (!collapse_runs || sym != prev) *out += sym;
    prev = sym;
  }
}

}  // namespace emd
