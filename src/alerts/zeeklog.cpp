#include "alerts/zeeklog.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/parse.hpp"
#include "util/strings.hpp"

namespace at::alerts {

namespace {

constexpr char kFieldSep = '\t';
constexpr std::string_view kEmpty = "-";  ///< an absent field

std::string escape(std::string_view value) {
  // Keep the format line-oriented: tabs/newlines become spaces.
  std::string out(value);
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return out.empty() ? std::string(kEmpty) : out;
}

}  // namespace

std::string to_notice_line(const Alert& alert) {
  std::ostringstream out;
  out << alert.ts << kFieldSep << alert.symbol_name() << kFieldSep << escape(alert.host)
      << kFieldSep << escape(alert.user) << kFieldSep
      << (alert.src ? alert.src->str() : std::string(kEmpty)) << kFieldSep
      << to_string(alert.origin) << kFieldSep;
  if (alert.metadata.empty()) {
    out << kEmpty;
  } else {
    bool first = true;
    for (const auto& [key, value] : alert.metadata) {
      if (!first) out << '|';
      first = false;
      out << escape(key) << '=' << util::replace_all(escape(value), "|", " ");
    }
  }
  return out.str();
}

std::string write_notice_log(const std::vector<Alert>& alerts) {
  std::ostringstream out;
  out << "#separator \\t\n"
      << "#fields ts\tnote\thost\tuser\tsrc\torigin\tmetadata\n";
  for (const auto& alert : alerts) out << to_notice_line(alert) << '\n';
  return out.str();
}

namespace {

/// Split a trimmed line into exactly 7 tab-separated field views
/// (util::split semantics: empty fields kept). Returns false when the
/// field count differs.
bool split_fields(std::string_view line, std::array<std::string_view, 7>& fields) noexcept {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t pos = line.find(kFieldSep, start);
    if (pos == std::string_view::npos) pos = line.size();
    if (count == 7) return false;  // 8th field: too many
    fields[count++] = line.substr(start, pos - start);
    if (pos == line.size()) break;
    start = pos + 1;
  }
  return count == 7;
}

/// Walk the '|'-separated key=value pairs of a raw metadata field, calling
/// on_pair(key, value) for each in order. Returns false, without visiting
/// the rest, at the first pair that has no '='.
template <typename OnPair>
bool for_each_meta_pair(std::string_view meta, OnPair&& on_pair) {
  std::size_t start = 0;
  while (true) {
    std::size_t pos = meta.find('|', start);
    if (pos == std::string_view::npos) pos = meta.size();
    const auto pair = meta.substr(start, pos - start);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) return false;
    on_pair(pair.substr(0, eq), pair.substr(eq + 1));
    if (pos == meta.size()) return true;
    start = pos + 1;
  }
}

}  // namespace

Alert AlertBatch::materialize(std::size_t i) const {
  Alert alert;
  alert.ts = ts[i];
  alert.type = type[i];
  alert.origin = origin[i];
  if (has_src[i]) alert.src = src[i];
  alert.host.assign(host[i]);
  alert.user.assign(user[i]);
  // Every pair was checked for its '=' at parse time.
  if (!metadata[i].empty()) {
    for_each_meta_pair(metadata[i], [&](std::string_view key, std::string_view value) {
      alert.add_meta(std::string(key), std::string(value));
    });
  }
  return alert;
}

AlertBatch parse_notice_batch(std::string text) {
  AlertBatch batch;
  batch.arena_ = std::move(text);
  const std::string_view body = batch.arena_;
  // One reservation pass is cheaper than growth doublings at 1M rows.
  const std::size_t approx_rows = 1 + std::count(body.begin(), body.end(), '\n');
  batch.ts.reserve(approx_rows);
  batch.type.reserve(approx_rows);
  batch.origin.reserve(approx_rows);
  batch.src.reserve(approx_rows);
  batch.has_src.reserve(approx_rows);
  batch.host.reserve(approx_rows);
  batch.user.reserve(approx_rows);
  batch.metadata.reserve(approx_rows);

  std::array<std::string_view, 7> fields;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    const auto trimmed = util::trim(body.substr(start, end - start));
    const bool done = end == body.size();
    start = end + 1;
    if (trimmed.empty() || trimmed.front() == '#') {
      if (done) break;
      continue;
    }
    const bool row_ok = [&] {
      if (!split_fields(trimmed, fields)) return false;
      // ts is `-?[0-9]+` in int64 range and nothing else: the only form
      // to_notice_line writes.
      const auto ts = util::parse_num<util::SimTime>(fields[0]);
      if (!ts) return false;
      const auto type = from_symbol(fields[1]);
      if (!type) return false;
      std::optional<net::Ipv4> src;
      if (fields[4] != kEmpty) {
        src = net::Ipv4::try_parse(fields[4]);
        if (!src) return false;
      }
      std::optional<Origin> origin;
      for (const auto candidate : {Origin::kZeek, Origin::kOsquery, Origin::kAuditd,
                                   Origin::kRsyslog, Origin::kSynthetic}) {
        if (fields[5] == to_string(candidate)) {
          origin = candidate;
          break;
        }
      }
      if (!origin) return false;
      std::string_view meta;
      if (fields[6] != kEmpty) {
        meta = fields[6];
        // Validate every key=value pair now so a bad pair makes the line
        // malformed; building the pairs stays lazy (materialize).
        if (!for_each_meta_pair(meta, [](std::string_view, std::string_view) {})) {
          return false;
        }
      }
      batch.ts.push_back(*ts);
      batch.type.push_back(*type);
      batch.origin.push_back(*origin);
      batch.src.push_back(src.value_or(net::Ipv4{}));
      batch.has_src.push_back(src.has_value() ? 1 : 0);
      batch.host.push_back(fields[2] == kEmpty ? std::string_view{} : fields[2]);
      batch.user.push_back(fields[3] == kEmpty ? std::string_view{} : fields[3]);
      batch.metadata.push_back(meta);
      return true;
    }();
    if (!row_ok) ++batch.malformed;
    if (done) break;
  }
  return batch;
}

}  // namespace at::alerts
