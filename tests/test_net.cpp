// IPv4, CIDR, subnet allocation, and flow records.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/cidr.hpp"
#include "net/flow.hpp"
#include "util/rng.hpp"

namespace at::net {
namespace {

TEST(Ipv4Test, ParseAndFormat) {
  const auto ip = Ipv4::parse("141.142.3.4");
  EXPECT_EQ(ip.str(), "141.142.3.4");
  EXPECT_EQ(ip.octet(0), 141);
  EXPECT_EQ(ip.octet(3), 4);
  EXPECT_EQ(Ipv4(0).str(), "0.0.0.0");
  EXPECT_EQ(Ipv4(255, 255, 255, 255).str(), "255.255.255.255");
}

TEST(Ipv4Test, StrFormatsEveryOctetWidth) {
  // Each octet position at the one-, two- and three-digit edges.
  const std::uint8_t widths[] = {0, 9, 10, 99, 100, 255};
  for (unsigned position = 0; position < 4; ++position) {
    for (const std::uint8_t value : widths) {
      std::uint8_t octets[4] = {1, 22, 133, 4};
      octets[position] = value;
      std::string want;
      for (unsigned i = 0; i < 4; ++i) {
        if (i > 0) want += '.';
        want += std::to_string(octets[i]);
      }
      EXPECT_EQ(Ipv4(octets[0], octets[1], octets[2], octets[3]).str(), want);
    }
  }
}

TEST(Ipv4Test, StrRoundTripsThroughTryParse) {
  util::Rng rng(0x1b4);
  for (int i = 0; i < 20000; ++i) {
    const Ipv4 ip(static_cast<std::uint32_t>(rng()));
    const std::string text = ip.str();
    ASSERT_LE(text.size(), 15u);
    const auto parsed = Ipv4::try_parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_EQ(*parsed, ip) << text;
  }
}

class Ipv4ParseError : public ::testing::TestWithParam<const char*> {};

TEST_P(Ipv4ParseError, Rejects) {
  EXPECT_THROW(Ipv4::parse(GetParam()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Malformed, Ipv4ParseError,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d",
                                           "1..2.3", "1.2.3.1024"));

TEST(Ipv4Test, AnonymizedMatchesPaperStyle) {
  // The paper prints "64.215.xxx.yyy" and "103.102" style prefixes.
  EXPECT_EQ(Ipv4(64, 215, 9, 88).anonymized(), "64.215.xxx.yyy");
  EXPECT_EQ(Ipv4(103, 102, 1, 2).anonymized(2), "103.102.xxx.yyy");
  EXPECT_EQ(Ipv4(10, 1, 2, 3).anonymized(1), "10.xxx.yyy.zzz");
}

TEST(Ipv4Test, OrderingAndHash) {
  EXPECT_LT(Ipv4(1, 0, 0, 0), Ipv4(2, 0, 0, 0));
  EXPECT_EQ(std::hash<Ipv4>{}(Ipv4(5)), std::hash<Ipv4>{}(Ipv4(5)));
}

TEST(CidrTest, ParseContainsAndCount) {
  const auto block = Cidr::parse("141.142.0.0/16");
  EXPECT_EQ(block.host_count(), 65536u);
  EXPECT_TRUE(block.contains(Ipv4(141, 142, 255, 255)));
  EXPECT_FALSE(block.contains(Ipv4(141, 143, 0, 0)));
  EXPECT_EQ(block.str(), "141.142.0.0/16");
}

TEST(CidrTest, CanonicalizesBase) {
  const Cidr block(Ipv4(141, 142, 7, 9), 16);
  EXPECT_EQ(block.base(), Ipv4(141, 142, 0, 0));
}

TEST(CidrTest, HostAccess) {
  const auto block = Cidr::parse("10.0.0.0/24");
  EXPECT_EQ(block.host(0), Ipv4(10, 0, 0, 0));
  EXPECT_EQ(block.host(255), Ipv4(10, 0, 0, 255));
  EXPECT_THROW((void)block.host(256), std::out_of_range);
}

TEST(CidrTest, Overlaps) {
  const auto wide = Cidr::parse("141.142.0.0/16");
  const auto narrow = Cidr::parse("141.142.250.0/24");
  EXPECT_TRUE(wide.overlaps(narrow));
  EXPECT_TRUE(narrow.overlaps(wide));
  EXPECT_FALSE(narrow.overlaps(Cidr::parse("10.0.0.0/8")));
}

TEST(CidrTest, PaperBlocks) {
  // The paper's address plan: a class-B /16 (65,536 hosts) and a dedicated
  // /24 for the honeypot entry points.
  EXPECT_EQ(blocks::ncsa16().host_count(), 65536u);
  EXPECT_EQ(blocks::honeypot24().host_count(), 256u);
  EXPECT_TRUE(blocks::ncsa16().contains(blocks::honeypot24().base()));
  EXPECT_FALSE(blocks::ncsa16().overlaps(blocks::overlay()));
}

TEST(SubnetAllocatorTest, DisjointChildren) {
  SubnetAllocator alloc(Cidr::parse("10.0.0.0/16"));
  const auto a = alloc.allocate(24);
  const auto b = alloc.allocate(24);
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(alloc.parent().contains(a.base()));
  EXPECT_EQ(alloc.allocated().size(), 2u);
}

TEST(SubnetAllocatorTest, AlignsAndExhausts) {
  SubnetAllocator alloc(Cidr::parse("10.0.0.0/24"));
  (void)alloc.allocate(26);  // 64 hosts
  const auto second = alloc.allocate(25);  // must align to 128
  EXPECT_EQ(second.base(), Ipv4(10, 0, 0, 128));
  EXPECT_THROW(alloc.allocate(25), std::runtime_error);
  EXPECT_THROW(alloc.allocate(8), std::invalid_argument);
}

TEST(FlowTest, RenderAndSummarize) {
  Flow flow;
  flow.src = Ipv4(1, 2, 3, 4);
  flow.dst = Ipv4(141, 142, 0, 5);
  flow.dst_port = ports::kPostgres;
  flow.state = ConnState::kAttempt;
  const auto text = flow.str();
  EXPECT_NE(text.find("5432"), std::string::npos);
  EXPECT_NE(text.find("S0"), std::string::npos);

  std::vector<Flow> flows(3, flow);
  flows[2].state = ConnState::kEstablished;
  flows[2].src = Ipv4(9, 9, 9, 9);
  const auto stats = summarize(flows);
  EXPECT_EQ(stats.flows, 3u);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.established, 1u);
  EXPECT_EQ(stats.distinct_sources, 2u);
  EXPECT_EQ(stats.distinct_destinations, 1u);
}

}  // namespace
}  // namespace at::net
