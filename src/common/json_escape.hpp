#pragma once
// JSON string escaping shared by every JSON writer in the tree.

#include <string>

namespace cwsp {

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included): `"` and `\` get a backslash, newline, carriage return and
/// tab use their short escapes, every other byte below 0x20 becomes
/// \u00XX, and all other bytes (UTF-8 included) pass through unchanged.
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace cwsp
