// JSON string escaping shared by every JSON writer (stats export, flight
// recorder dumps, stitched fleet traces). Escapes `"`, `\`, newline and
// tab by name and every other control character as \u00XX; all other
// bytes, UTF-8 included, pass through unchanged.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace appclass::common {

inline void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out.append(buffer);
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace appclass::common
