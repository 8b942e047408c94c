// The shared JSON string escaper (common/json_escape.hpp): every control
// byte, quote and backslash must come out as a JSON escape — no raw
// control byte may reach the output — and the service's JSON parser must
// read it back to the original bytes.

#include "common/json_escape.hpp"

#include <gtest/gtest.h>

#include <string>

#include "service/json.hpp"

namespace cwsp {
namespace {

std::string parse_back(const std::string& escaped) {
  return service::json::parse("\"" + escaped + "\"").as_string();
}

TEST(JsonEscape, EveryControlByteQuoteAndBackslashRoundTrips) {
  std::string specials;
  for (int b = 0; b < 0x20; ++b) specials.push_back(static_cast<char>(b));
  specials += "\"\\";
  for (const char c : specials) {
    const std::string original(1, c);
    const std::string escaped = json_escape(original);
    ASSERT_GE(escaped.size(), 2u) << "byte " << static_cast<int>(c);
    EXPECT_EQ(escaped[0], '\\') << "byte " << static_cast<int>(c);
    for (const char e : escaped) {
      EXPECT_GE(static_cast<unsigned char>(e), 0x20)
          << "raw control byte in the escape of " << static_cast<int>(c);
    }
    EXPECT_EQ(parse_back(escaped), original) << "byte " << static_cast<int>(c);
  }
  EXPECT_EQ(parse_back(json_escape(specials)), specials);
}

TEST(JsonEscape, ShortFormsAndPassThrough) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  // Printable ASCII and UTF-8 multi-byte sequences pass through.
  EXPECT_EQ(json_escape("pipeline4 / \xc2\xb5s"), "pipeline4 / \xc2\xb5s");
}

TEST(JsonEscape, ServiceEscapeIsTheSharedEscaper) {
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte.push_back(static_cast<char>(b));
  EXPECT_EQ(service::json::escape(every_byte), json_escape(every_byte));
}

}  // namespace
}  // namespace cwsp
