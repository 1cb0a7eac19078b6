#pragma once
// Reference reader for the Zeek notice-log format, for tests only: the
// scalar, line-at-a-time parser the testbed shipped before
// alerts::parse_notice_batch became its one reader. It shares no parsing
// code with src/alerts/zeeklog.cpp: fields come from util::split, ts from
// std::stoll (held to the whole field, first byte a digit or '-') and src
// from the throwing Ipv4::parse. So the batch parser is checked against a
// second implementation, not against itself.

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alerts/alert.hpp"
#include "alerts/zeeklog.hpp"
#include "net/ipv4.hpp"
#include "util/strings.hpp"

namespace at::alerts::oracle {

/// Parse one notice line; returns nullopt on malformed input or comments.
inline std::optional<Alert> parse_notice_line(std::string_view line) {
  const auto trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return std::nullopt;
  const auto fields = util::split(trimmed, '\t');
  if (fields.size() != 7) return std::nullopt;

  Alert alert;
  // ts is `-?[0-9]+` and nothing else: stoll skips leading whitespace and
  // takes a '+', so the first byte is checked, and it stops at junk, so it
  // must consume the whole field.
  const std::string& ts = fields[0];
  if (ts.empty() || (ts.front() != '-' && (ts.front() < '0' || ts.front() > '9'))) {
    return std::nullopt;
  }
  try {
    std::size_t pos = 0;
    alert.ts = std::stoll(ts, &pos);
    if (pos != ts.size()) return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const auto type = from_symbol(fields[1]);
  if (!type) return std::nullopt;
  alert.type = *type;
  if (fields[2] != "-") alert.host = fields[2];
  if (fields[3] != "-") alert.user = fields[3];
  if (fields[4] != "-") {
    try {
      alert.src = net::Ipv4::parse(fields[4]);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  bool known_origin = false;
  for (const auto origin : {Origin::kZeek, Origin::kOsquery, Origin::kAuditd,
                            Origin::kRsyslog, Origin::kSynthetic}) {
    if (fields[5] == to_string(origin)) {
      alert.origin = origin;
      known_origin = true;
      break;
    }
  }
  if (!known_origin) return std::nullopt;
  if (fields[6] != "-") {
    for (const auto& pair : util::split(fields[6], '|')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) return std::nullopt;
      alert.add_meta(pair.substr(0, eq), pair.substr(eq + 1));
    }
  }
  return alert;
}

struct NoticeLog {
  std::vector<Alert> alerts;
  std::size_t malformed = 0;
};

/// Parse a whole log line by line. Blank (after util::trim) and '#' comment
/// lines are skipped silently; every other line is an alert or a malformed
/// count.
inline NoticeLog read_notice_log(std::string_view text) {
  NoticeLog result;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(start, end - start);
    const auto trimmed = util::trim(line);
    if (!trimmed.empty() && trimmed.front() != '#') {
      if (auto alert = parse_notice_line(line)) {
        result.alerts.push_back(std::move(*alert));
      } else {
        ++result.malformed;
      }
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return result;
}

/// parse_notice_batch must agree with the reference on `text`: the same
/// malformed count and, row for row, the same columns and materialized
/// Alert (metadata pairs included).
inline void expect_batch_agrees(const std::string& text) {
  const NoticeLog expected = read_notice_log(text);
  const AlertBatch batch = parse_notice_batch(text);
  ASSERT_EQ(batch.size(), expected.alerts.size());
  EXPECT_EQ(batch.malformed, expected.malformed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const Alert& want = expected.alerts[i];
    EXPECT_EQ(batch.ts[i], want.ts);
    EXPECT_EQ(batch.type[i], want.type);
    EXPECT_EQ(batch.origin[i], want.origin);
    EXPECT_EQ(batch.src_at(i), want.src);
    EXPECT_EQ(batch.host[i], want.host);
    EXPECT_EQ(batch.user[i], want.user);
    const Alert owned = batch.materialize(i);
    EXPECT_EQ(owned.ts, want.ts);
    EXPECT_EQ(owned.type, want.type);
    EXPECT_EQ(owned.origin, want.origin);
    EXPECT_EQ(owned.src, want.src);
    EXPECT_EQ(owned.host, want.host);
    EXPECT_EQ(owned.user, want.user);
    EXPECT_EQ(owned.metadata, want.metadata);
  }
}

}  // namespace at::alerts::oracle
