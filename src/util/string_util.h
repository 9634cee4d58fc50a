// ASCII-oriented string helpers shared across the library.
//
// Tweets in our synthetic corpora are ASCII; these helpers deliberately avoid
// locale dependence so behaviour is identical on every platform.

#ifndef EMD_UTIL_STRING_UTIL_H_
#define EMD_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace emd {

/// Lowercases ASCII letters; other bytes pass through.
std::string ToLowerAscii(std::string_view s);

/// Allocation-recycling variant: writes the case-folded `s` into `*out`
/// (contents replaced). With a reused scratch string, steady-state calls do
/// no heap allocation once the scratch capacity covers the longest token.
void ToLowerAsciiInto(std::string_view s, std::string* out);

/// Zero-copy fold: returns `s` itself when it contains no uppercase ASCII
/// (the common case for already-lowercased streams), otherwise folds into
/// `*scratch` and returns a view of it.
std::string_view ToLowerAsciiView(std::string_view s, std::string* scratch);

/// Uppercases ASCII letters; other bytes pass through.
std::string ToUpperAscii(std::string_view s);

/// Uppercases the first character, lowercases the rest ("beshear"->"Beshear").
std::string Capitalize(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool IsUpperAscii(char c);
bool IsLowerAscii(char c);
bool IsAlphaAscii(char c);
bool IsDigitAscii(char c);
bool IsAlnumAscii(char c);

/// True when every alphabetic char is uppercase and at least one exists.
bool IsAllUpper(std::string_view s);

/// True when every alphabetic char is lowercase and at least one exists.
bool IsAllLower(std::string_view s);

/// True when the first char is an uppercase letter and the rest of the
/// alphabetic chars are lowercase ("Coronavirus").
bool IsInitialCap(std::string_view s);

/// True when s contains at least one alphabetic character.
bool HasAlpha(std::string_view s);

/// True when s contains at least one digit.
bool HasDigit(std::string_view s);

/// Splits on any char in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, std::string_view delims = " \t\r\n");

/// Splits on a single char, keeping empty pieces (CSV/TSV semantics).
std::vector<std::string> SplitKeepEmpty(std::string_view s, char delim);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Strips leading/trailing whitespace.
std::string Strip(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Word-shape signature: uppercase->'X', lowercase->'x', digit->'d',
/// other->'o', with runs collapsed ("McDonald's"->"XxXxox").
std::string WordShape(std::string_view s, bool collapse_runs = true);

/// WordShape written into a reused buffer (replaced, capacity kept).
void WordShapeInto(std::string_view s, std::string* out, bool collapse_runs = true);

}  // namespace emd

#endif  // EMD_UTIL_STRING_UTIL_H_
