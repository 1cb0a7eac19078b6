// Hostile-input tests for the Zeek notice-log reader: embedded NUL bytes,
// overlong fields, and non-UTF-8 byte sequences. parse_notice_batch must
// never crash or throw on arbitrary bytes, and must agree line-for-line with
// the scalar reference reader (notice_line_oracle.hpp) on what counts as
// malformed.

#include <string>

#include <gtest/gtest.h>

#include "alerts/zeeklog.hpp"
#include "notice_line_oracle.hpp"

namespace {

using at::alerts::AlertBatch;
using at::alerts::parse_notice_batch;
using at::alerts::oracle::expect_batch_agrees;

const std::string kValidLine = "1730259852\talert_port_scan\tpg-3\troot\t194.145.0.1\tzeek\t-";

TEST(ZeeklogMalformed, EmbeddedNulInField) {
  std::string line = kValidLine;
  line[line.find("pg-3") + 1] = '\0';  // host becomes "p\0-3"
  // A NUL is just a byte: the line still has 7 tab-separated fields and all
  // typed fields (ts/type/src/origin) are intact, so it must parse — and
  // the host must round-trip all 4 bytes, not stop at the NUL.
  const AlertBatch batch = parse_notice_batch(line);
  ASSERT_EQ(batch.size(), 1u);
  const auto parsed = batch.materialize(0);
  EXPECT_EQ(parsed.host.size(), 4u);
  EXPECT_EQ(parsed.host[1], '\0');
  expect_batch_agrees(line);
}

TEST(ZeeklogMalformed, NulInNumericFieldIsMalformed) {
  // The ts field must be digits and nothing else: a NUL after the leading
  // digits makes the line malformed rather than reading them as ts 173...
  std::string trailing = kValidLine;
  trailing[3] = '\0';  // ts "173\0 259852"
  const AlertBatch parsed = parse_notice_batch(trailing);
  EXPECT_EQ(parsed.size(), 0u);
  EXPECT_EQ(parsed.malformed, 1u);

  // ...and so does one before any digit.
  std::string leading = kValidLine;
  leading[0] = '\0';  // ts "\0 730259852"
  const AlertBatch rejected = parse_notice_batch(leading);
  EXPECT_EQ(rejected.size(), 0u);
  EXPECT_EQ(rejected.malformed, 1u);
  expect_batch_agrees(trailing + "\n" + leading + "\n");
}

TEST(ZeeklogMalformed, NulBytesKeepBatchParity) {
  std::string text = kValidLine + "\n";
  std::string nul_host = kValidLine;
  nul_host[nul_host.find("pg-3")] = '\0';
  text += nul_host + "\n";
  std::string nul_ts = kValidLine;
  nul_ts[0] = '\0';
  text += nul_ts + "\n";
  expect_batch_agrees(text);
}

TEST(ZeeklogMalformed, OverlongFieldParsesWithoutTruncation) {
  // ~1 MiB user field: nothing in the format caps field length, so the
  // parser must carry it through rather than crash, truncate, or reject.
  const std::string big(1u << 20, 'u');
  const std::string line =
      "1730259852\talert_port_scan\tpg-3\t" + big + "\t194.145.0.1\tzeek\t-";
  const AlertBatch batch = parse_notice_batch(line + "\n");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.user[0].size(), big.size());
  EXPECT_EQ(batch.materialize(0).user, big);
  expect_batch_agrees(line + "\n");
}

TEST(ZeeklogMalformed, OverlongNumericFieldIsMalformedNotCrash) {
  // A 1 MiB run of digits overflows any integer type; the reader must
  // reject the line instead of throwing or wrapping (std::stoll, in the
  // reference, throws out_of_range).
  const std::string digits(1u << 20, '9');
  const std::string line =
      digits + "\talert_port_scan\tpg-3\troot\t194.145.0.1\tzeek\t-";
  const AlertBatch batch = parse_notice_batch(line + "\n");
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.malformed, 1u);
  expect_batch_agrees(line + "\n");
}

TEST(ZeeklogMalformed, NonUtf8BytesInTextFieldsSurvive) {
  // Invalid UTF-8 (lone continuation bytes, overlong encodings, 0xFF): the
  // format is byte-oriented, so these must pass through text fields intact.
  const std::string junk = "\x80\xbf\xc0\xaf\xfe\xff";
  const std::string line =
      "1730259852\talert_port_scan\t" + junk + "\t" + junk + "\t-\tzeek\tk=" + junk;
  const AlertBatch batch = parse_notice_batch(line + "\n");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.host[0], junk);
  const auto parsed = batch.materialize(0);
  EXPECT_EQ(parsed.host, junk);
  EXPECT_EQ(parsed.user, junk);
  expect_batch_agrees(line + "\n");
}

TEST(ZeeklogMalformed, NonUtf8BytesInTypedFieldsAreMalformed) {
  std::string bad_type = kValidLine;
  bad_type.replace(bad_type.find("alert_port_scan"), 5, "\xff\xfe\xfd\xfc\xfb");
  std::string bad_src = kValidLine;
  bad_src.replace(bad_src.find("194.145.0.1"), 3, "\xc0\xc1\xf5");
  for (const std::string& line : {bad_type, bad_src}) {
    const AlertBatch batch = parse_notice_batch(line);
    EXPECT_EQ(batch.size(), 0u);
    EXPECT_EQ(batch.malformed, 1u);
  }

  expect_batch_agrees(bad_type + "\n" + bad_src + "\n" + kValidLine + "\n");
}

TEST(ZeeklogMalformed, MixedHostileLogKeepsParityAndCounts) {
  std::string text;
  text += "#separator \\t\n";
  text += kValidLine + "\n";
  text += "\xff\xff\xff\n";                       // pure garbage
  text += std::string(64, '\t') + "\n";           // tabs only: blank after trim
  text += "1730259852\talert_port_scan\n";        // too few fields
  std::string over = kValidLine + "\textra\tfields";
  text += over + "\n";                            // too many fields
  std::string nul = kValidLine;
  nul[nul.size() - 1] = '\0';                     // metadata "\0": pair has no '='
  text += nul + "\n";
  text += kValidLine + "\n";
  expect_batch_agrees(text);

  const AlertBatch batch = parse_notice_batch(std::string(text));
  EXPECT_EQ(batch.size(), 2u);      // only the two pristine lines
  EXPECT_EQ(batch.malformed, 4u);   // garbage, under-split, over-split, bad meta
}

}  // namespace
